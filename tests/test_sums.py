"""Exponential sums: window arithmetic, phase exactness, step structure."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuspsums import coeffs
from cuspsums.rational import make_rational_point, unit_point
from cuspsums.sums import breakpoints, long_sum, step_series, unweighted_window_sum
from cuspsums.weight import window_bounds

from oracles import short_sum, step_edges_by_loop, window_sum_by_rescan

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
    for start in (0.0, 0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="window must start at m >= 1"):
            unweighted_window_sum(start, 2.0, table_2e4)
    for length in (math.nan, math.inf):
        with pytest.raises(ValueError, match="need delta >= 0"):
            unweighted_window_sum(2.0, length, table_2e4)


def test_unweighted_window_sums_of_many_starts(table_2e4):
    # overlapping windows, a window holding no integer, and one ending at
    # the table's last n
    starts = np.array([[3.5, 10.2], [3.0, 19_990.5]])
    delta = 9.5
    got = unweighted_window_sum(starts, delta, table_2e4)
    assert got.shape == starts.shape and got.dtype == complex
    for start, value in zip(starts.ravel(), got.ravel()):
        one = unweighted_window_sum(float(start), delta, table_2e4)
        assert isinstance(one, complex)
        direct = np.sum(table_2e4.a[math.ceil(start) - 1: math.floor(start + delta)])
        assert np.array([value, one, direct]).tobytes() == \
            np.array([one, one, one]).tobytes()
    assert unweighted_window_sum(np.array([10.2]), 0.5, table_2e4).tolist() == [0j]
    empty = unweighted_window_sum(np.array([]), 1.0, table_2e4)
    assert empty.shape == (0,) and empty.dtype == complex
    with pytest.raises(ValueError, match=r"got m=0\.5$"):
        unweighted_window_sum(np.array([5.0, 0.5, math.nan]), 1.0, table_2e4)
    with pytest.raises(ValueError, match="window sum at m=19995"):
        unweighted_window_sum(np.array([5.0, 19_995.0]), 10.0, table_2e4)


def test_breakpoints_example():
    pts = breakpoints(4.0, 2.0)
    for v in (4.0, 5.0, 6.0):
        assert np.min(np.abs(pts - v)) <= 1e-12
    root7 = ((math.sqrt(29) - 1) / 2) ** 2
    assert np.min(np.abs(pts - root7)) <= 1e-9
    assert pts.size <= 2 * 2 + 2
    assert np.all(np.diff(pts) > 0)
    for start in (1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="need m >= 2"):
            breakpoints(start, 2.0)
    for length in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="need delta >= 0"):
            breakpoints(4.0, length)


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


@pytest.mark.parametrize("block_pieces", [None, 7, 1])
def test_step_events_across_anchor_blocks(table_2e4, monkeypatch,
                                          block_pieces):
    # [5035, 5047] holds 71^2 = 5041, where 5041 leaves and 5112 joins at
    # one edge; step_series' blocks of 7 pieces (two doubles each) leave a
    # ragged last block of 3 pieces
    if block_pieces is not None:
        monkeypatch.setattr(coeffs, "_BLOCK_ELEMENTS", 2 * block_pieces)
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


def test_step_series_prefix_on_a_wide_range(table_1e5):
    # 3·10^4 pieces from one cumulative sum over 1.5·10^4 + 308 terms: the
    # subtraction's rounding grows with the prefix, and must stay far below S
    m, delta = 8e4, 1.5e4
    for k in (1, 7):
        point = unit_point(k)
        series = step_series(m, delta, point, table_1e5)
        rms = math.sqrt(np.mean(np.abs(series.values) ** 2))
        mids = 0.5 * (series.breakpoints[:-1] + series.breakpoints[1:])
        assert mids.size == 30_000
        for i in range(0, mids.size, mids.size // 300):
            direct = short_sum(float(mids[i]), point, table_1e5)
            assert abs(series.values[i] - direct) <= 1e-13 * rms, (k, i)


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
