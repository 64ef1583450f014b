"""Exponential sums: window arithmetic, phase exactness, step structure."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuspsums import sums
from cuspsums.rational import make_rational_point
from cuspsums.sums import (
    breakpoints,
    long_sum,
    short_sum,
    step_series,
    unweighted_window_sum,
)
from cuspsums.weight import window_bounds

from oracles import step_edges_by_loop, window_sum_by_rescan

K1 = make_rational_point(0, 1)


def test_window_bounds():
    assert window_bounds(4.0) == (4, 6)
    assert window_bounds(10_000.0) == (10_000, 10_100)
    assert window_bounds(4.5) == (5, 6)
    with pytest.raises(ValueError):
        window_bounds(0.5)


def test_short_sum_untwisted(table_2e4):
    a = table_2e4.a
    got = short_sum(4.0, K1, table_2e4)
    assert got == pytest.approx(a[3] + a[4] + a[5], abs=1e-15)


def test_short_sum_half_twist(table_2e4):
    a = table_2e4.a
    got = short_sum(4.0, make_rational_point(1, 2), table_2e4)
    assert got == pytest.approx(a[3] - a[4] + a[5], abs=1e-14)


def test_short_sum_matches_rescan_oracle(table_2e4):
    x, h, k = 10_000.0, 3, 7
    got = short_sum(x, make_rational_point(h, k), table_2e4)
    want = window_sum_by_rescan(x, h, k, table_2e4.a)
    assert abs(got - want) <= 1e-12


def test_summation_order_insensitive(table_2e4):
    # ascending pairwise vs explicit compensated re-summation
    x = 15_000.0
    point = make_rational_point(4, 9)
    got = short_sum(x, point, table_2e4)
    lo, hi = window_bounds(x)
    ns = np.arange(lo, hi + 1)
    terms = table_2e4.a[lo - 1: hi] * np.exp(2j * np.pi * ((ns * 4) % 9) / 9)
    want = complex(math.fsum(terms.real), math.fsum(terms.imag))
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_table_too_short(table_2e4):
    with pytest.raises(ValueError, match="table"):
        short_sum(20_000.0, K1, table_2e4)
    with pytest.raises(ValueError, match="table"):
        long_sum(30_000.0, K1, table_2e4)


def test_long_sum_values(table_2e4):
    assert long_sum(1.0, make_rational_point(3, 8), table_2e4) == pytest.approx(
        complex(np.exp(2j * np.pi * 3 / 8)), abs=1e-14)
    assert long_sum(2.0, K1, table_2e4) == pytest.approx(
        1.0 + table_2e4.a[1], abs=1e-14)
    assert long_sum(0.2, K1, table_2e4) == 0j
    with pytest.raises(ValueError, match="need finite x"):
        long_sum(math.nan, K1, table_2e4)


def test_long_short_telescoping(table_2e4):
    x = 4000.3
    point = make_rational_point(1, 3)
    lhs = long_sum(x + math.sqrt(x), point, table_2e4) - long_sum(
        math.nextafter(x, 0.0), point, table_2e4)
    assert abs(lhs - short_sum(x, point, table_2e4)) <= 1e-11


def test_unweighted_window_values(table_2e4):
    assert unweighted_window_sum(1.0, 1.0, table_2e4) == pytest.approx(
        1.0 + table_2e4.a[1], abs=1e-15)
    assert unweighted_window_sum(2.0, 0.0, table_2e4) == pytest.approx(
        table_2e4.a[1], abs=1e-15)
    # [10.2, 10.7] holds no integer: the empty slice sums to 0j
    assert unweighted_window_sum(10.2, 0.5, table_2e4) == 0j
    with pytest.raises(ValueError, match="need delta >= 0"):
        unweighted_window_sum(2.0, -0.5, table_2e4)
    # m itself is checked, not ceil(m): [0.5, 2.5] starts below 1
    for start in (0.0, 0.5, math.nan):
        with pytest.raises(ValueError, match="window must start at m >= 1"):
            unweighted_window_sum(start, 2.0, table_2e4)


def test_breakpoints_example():
    pts = breakpoints(4.0, 2.0)
    for v in (4.0, 5.0, 6.0):
        assert np.min(np.abs(pts - v)) <= 1e-12
    root7 = ((math.sqrt(29) - 1) / 2) ** 2
    assert np.min(np.abs(pts - root7)) <= 1e-9
    assert pts.size <= 2 * 2 + 2
    assert np.all(np.diff(pts) > 0)
    with pytest.raises(ValueError, match="need m >= 2"):
        breakpoints(1.5, 2.0)
    with pytest.raises(ValueError, match="need delta >= 0"):
        breakpoints(4.0, -1.0)


def test_breakpoints_count_bound():
    m, delta = 10_000.0, 1000.0
    pts = breakpoints(m, delta)
    sharp = 2 * delta + (math.sqrt(m + delta) - math.sqrt(m)) + 3
    assert pts.size <= sharp
    assert pts.size >= 2 * delta - 2


def test_breakpoint_membership_changes():
    # crossing a plain breakpoint flips membership of exactly one integer;
    # at a perfect square the entry and exit events coincide and flip two
    def members(x):
        lo, hi = window_bounds(x)
        return set(range(lo, hi + 1))

    pts = breakpoints(30.0, 10.0)
    for x in pts:
        before = members(x - 1e-6)
        after = members(x + 1e-6)
        flipped = before.symmetric_difference(after)
        j = round(math.sqrt(x))
        if abs(x - j * j) <= 1e-9:  # collision: n = j^2 leaves, j^2 + j joins
            assert flipped == {j * j, j * j + j}
        else:
            assert len(flipped) == 1


def test_step_series_matches_short_sum_everywhere(table_2e4):
    m, delta = 10_000.0, 1000.0
    point = make_rational_point(1, 3)
    series = step_series(m, delta, point, table_2e4)
    assert series.values.size == series.breakpoints.size - 1
    mids = 0.5 * (series.breakpoints[:-1] + series.breakpoints[1:])
    worst = 0.0
    for i, x in enumerate(mids):
        direct = short_sum(float(x), point, table_2e4)
        worst = max(worst, abs(series.values[i] - direct) / max(1.0, abs(direct)))
    assert worst <= 1e-9


def test_step_series_random_positions(table_2e4):
    m, delta = 5000.0, 400.0
    point = make_rational_point(2, 7)
    series = step_series(m, delta, point, table_2e4)
    rng = np.random.default_rng(7)
    for x in rng.uniform(m, m + delta, size=1000):
        if min(np.abs(series.breakpoints - x)) < 1e-9:
            continue  # on a breakpoint the one-sided convention may differ
        direct = short_sum(float(x), point, table_2e4)
        # the piece holding x, found independently of the piece midpoints
        got = series.values[np.searchsorted(series.breakpoints, x) - 1]
        assert abs(got - direct) <= 1e-9 * max(1.0, abs(direct))


def test_step_series_covers_square_collision(table_2e4):
    # domain containing x = 71^2 = 5041 where entry and exit merge
    series = step_series(5035.0, 12.0, make_rational_point(1, 4), table_2e4)
    mids = 0.5 * (series.breakpoints[:-1] + series.breakpoints[1:])
    for i, x in enumerate(mids):
        direct = short_sum(float(x), make_rational_point(1, 4), table_2e4)
        assert abs(series.values[i] - direct) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=2.0, max_value=15_000.0),
       st.floats(min_value=0.0, max_value=300.0))
def test_window_ends_step_by_at_most_one(table_2e4, m, delta):
    # step_series reads its events from window_bounds at the piece
    # midpoints: across every inner edge each end moves up by 0 or 1, and
    # at least one of them moves
    edges = step_series(m, delta, K1, table_2e4).breakpoints
    first, last = window_bounds(0.5 * (edges[:-1] + edges[1:]))
    moves = np.stack([np.diff(first), np.diff(last)])
    assert np.isin(moves, (0, 1)).all()
    assert (moves.sum(axis=0) >= 1).all()


@pytest.mark.parametrize("anchor_every", [None, 7, 1])
def test_step_events_across_anchor_blocks(table_2e4, monkeypatch,
                                          anchor_every):
    # [5035, 5047] holds 71^2 = 5041, where 5041 leaves and 5112 joins at
    # one edge; anchor blocks of 7 leave a ragged last block of 3 pieces
    if anchor_every is not None:
        monkeypatch.setattr(sums, "_ANCHOR_EVERY", anchor_every)
    point = make_rational_point(1, 4)
    series = step_series(5035.0, 12.0, point, table_2e4)
    mids = 0.5 * (series.breakpoints[:-1] + series.breakpoints[1:])
    assert mids.size == 24
    first, last = window_bounds(mids)
    collision = np.flatnonzero(series.breakpoints[1:-1] == 5041.0)
    assert collision.size == 1
    assert (first[collision + 1] - first[collision]).tolist() == [1]
    assert (last[collision + 1] - last[collision]).tolist() == [1]
    for value, x in zip(series.values, mids):
        assert abs(value - short_sum(float(x), point, table_2e4)) <= 1e-10


@pytest.mark.parametrize("m, delta", [
    (4.0, 2.0), (30.0, 10.0), (5035.0, 12.0), (5041.0, 0.0),
    (5035.5, 1e-10), (4000.25, 80.75)])
def test_step_edges_match_merge_loop(table_2e4, m, delta):
    # integer ends, a square collision and degenerate windows
    series = step_series(m, delta, make_rational_point(1, 3), table_2e4)
    want = step_edges_by_loop(m, delta, breakpoints(m, delta))
    assert series.breakpoints.tolist() == want


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=100, max_value=15_000),
       st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=1.0, max_value=300.0))
def test_step_series_ends_off_breakpoints(table_2e4, base, frac, delta):
    m = base + frac
    assume(abs(m + delta - round(m + delta)) > 1e-6)
    point = make_rational_point(2, 5)
    series = step_series(m, delta, point, table_2e4)
    edges = series.breakpoints
    assert edges[0] == m and edges[-1] == m + delta
    assert np.all(np.diff(edges) > 1e-9)
    mids = 0.5 * (edges[:-1] + edges[1:])
    for value, x in zip(series.values, mids):
        direct = short_sum(float(x), point, table_2e4)
        assert abs(value - direct) <= 1e-9 * max(1.0, abs(direct))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=100.0, max_value=12_000.0))
def test_window_inclusivity(table_2e4, x):
    lo, hi = window_bounds(x)
    assert lo >= x and lo - 1 < x
    assert hi <= x + math.sqrt(x) and hi + 1 > x + math.sqrt(x)
