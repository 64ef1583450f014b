"""Blocked grid evaluations against their one-matrix references.

diagonal_profile, _piece_weight_masses, _slow_brackets, diagonal_term's
n-long chain, step_series' prefix differences, normalize and the kernel's
rounding evaluate their grids a block of rows at a time, from
coeffs._row_blocks. With the block constants patched small, every loop
runs several blocks, a ragged last block, and one row per block where a
row is wider than the block; each result must equal the one-matrix
reference bit for bit. step_series' reference sums its events instead of
differencing a prefix, so it is held to a tolerance, and the blocks to the
default block's bits. tracemalloc then pins the working set that the
blocks buy.
"""

import math
import tracemalloc

import numpy as np
import pytest

from cuspsums import coeffs, sums
from cuspsums import meansquare as msq
from cuspsums.coeffs import normalize
from cuspsums.rational import unit_point
from cuspsums.weight import build_weight, window_gap
from oracles import (diagonal_term_one_matrix, normalized_one_shot,
                     piece_masses_one_matrix, profile_one_matrix,
                     slow_brackets_one_matrix, step_series_one_matrix)


@pytest.fixture(scope="module")
def window_1e4():
    return build_weight(1e4, 2e3)


def _peak_bytes(call) -> int:
    """Peak traced allocation while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rows_per_block", [None, 3, 0])
@pytest.mark.parametrize("first_grid_only", [False, True])
def test_profile_blocks_match_one_matrix(window_1e4, monkeypatch,
                                         rows_per_block, first_grid_only):
    # 37 rows: blocks of 3 leave a ragged row on the first grid and on its
    # doubling, whose rows are equally wide: a row's width is twice the
    # larger of the panels (26, then 52) and the 16 nodes' moment columns
    # (192). 0 rows per block makes every row wider than the block
    ns = np.arange(1, 38)
    panels = msq._first_panels(37, 3, window_1e4)
    width = 2 * max(panels, 16 * msq._MOMENT_ORDER)
    if rows_per_block is not None:
        monkeypatch.setattr(coeffs, "_BLOCK_ELEMENTS",
                            rows_per_block * width + 7 if rows_per_block
                            else width // 2)
    if first_grid_only:     # a budget of the first grid alone flags every row
        monkeypatch.setattr(msq, "_NODE_BUDGET", 16 * panels)
    values, flagged = msq.diagonal_profile(ns, 3, window_1e4)
    ref_values, ref_flagged = profile_one_matrix(ns, 3, window_1e4,
                                                 msq._NODE_BUDGET)
    assert np.array_equal(values, ref_values)
    assert flagged == ref_flagged
    assert len(flagged) == (ns.size if first_grid_only else 0)


@pytest.mark.parametrize("block", [None, 8 * 5 + 3, 5])
def test_piece_masses_blocks_match_one_matrix(window_1e4, monkeypatch, block):
    # 1002 pieces: blocks of 5 leave 2 over; a block of 5 holds no whole row
    rng = np.random.default_rng(3)
    edges = np.concatenate(([1e4], np.sort(rng.uniform(1e4, 1.2e4, 1001)),
                            [1.2e4]))
    if block is not None:
        monkeypatch.setattr(coeffs, "_BLOCK_ELEMENTS", block)
    masses = msq._piece_weight_masses(window_1e4, edges)
    assert np.array_equal(masses, piece_masses_one_matrix(window_1e4, edges))


@pytest.mark.parametrize(("block", "top"), [(None, 10_000), (1000, 10_000),
                                            (1, 400)])
def test_slow_brackets_blocks_match_one_matrix(window_1e4, monkeypatch,
                                               block, top):
    xs, wsx = msq._weighted_nodes(window_1e4, 8)
    columns, g0, _ = msq._moment_columns(wsx, window_gap(xs))
    moments = columns.sum(axis=0)
    ns = np.arange(257, top + 1)
    if block is not None:
        monkeypatch.setattr(coeffs, "_BLOCK_ELEMENTS", block)
    for k in (1, 7):
        brackets = msq._slow_brackets(257, top, k, moments, g0)
        assert np.array_equal(brackets,
                              slow_brackets_one_matrix(ns, k, moments, g0))


@pytest.mark.parametrize(("block", "m", "delta"), [(None, 1e4, 2e3),
                                                   (777, 1e4, 2e3),
                                                   (1, 600.0, 200.0),
                                                   (None, 200.0, 50.0)])
def test_diagonal_term_blocks_match_one_matrix(table_2e4, monkeypatch,
                                               block, m, delta):
    # 10^4 weights and 9744 tail brackets leave a ragged last block of the
    # default size and of 777; a block of 1 holds one n. At M = 200 every
    # bracket is exact: diagonal_term runs its empty tail, the reference
    # skips it
    weight = build_weight(m, delta)
    if block is not None:
        monkeypatch.setattr(coeffs, "_BLOCK_ELEMENTS", block)
    for k in (1, 7):
        term = msq.diagonal_term(m, delta, k, weight, table_2e4)
        ref = diagonal_term_one_matrix(m, delta, k, weight, table_2e4)
        assert (term.value, term.slack) == (ref.value, ref.slack)
        assert (term.n_exact, term.flagged) == (ref.n_exact, ref.flagged)
        if m <= msq._N_EXACT_FLOOR:
            assert (term.n_exact, term.slack) == (math.floor(m), 0.0)


@pytest.mark.parametrize("block", [None, 100, 1])
def test_step_series_blocks_match_one_matrix(table_2e4, monkeypatch, block):
    # about 4000 pieces of two doubles: one default block of 4096 pieces
    # holds them all, blocks of 50 leave a ragged last block, and a block
    # of 1 holds one piece
    whole = {k: sums.step_series(1e4, 2e3, unit_point(k), table_2e4)
             for k in (1, 7)}
    if block is not None:
        monkeypatch.setattr(coeffs, "_BLOCK_ELEMENTS", block)
    for k in (1, 7):
        series = sums.step_series(1e4, 2e3, unit_point(k), table_2e4)
        ref = step_series_one_matrix(1e4, 2e3, unit_point(k), table_2e4)
        assert np.array_equal(series.values, whole[k].values)
        assert np.array_equal(series.breakpoints, ref.breakpoints)
        rms = math.sqrt(np.mean(np.abs(ref.values) ** 2))
        assert np.max(np.abs(series.values - ref.values)) <= 1e-13 * rms


@pytest.mark.parametrize(("block", "n"), [(None, 20_000), (777, 20_000),
                                          (1, 500)])
def test_normalize_blocks_match_one_shot(table_2e4, monkeypatch, block, n):
    if block is not None:
        monkeypatch.setattr(coeffs, "_BLOCK_ELEMENTS", block)
    records = table_2e4.records[:n]
    assert np.array_equal(normalize(records), normalized_one_shot(records))


def test_kernel_rounding_blocks_match(table_2e4, monkeypatch):
    # each inverse FFT of 20,000 values rounds in blocks of 777, the last
    # ragged, to the same records as in the default blocks
    monkeypatch.setattr(coeffs, "_BLOCK_ELEMENTS", 777)
    assert np.array_equal(coeffs.tau_sequence(20_000), table_2e4.records)


def test_diagonal_term_working_set(table_1e5):
    table_1e5.a  # a(n) is made on first read, before tracing
    for m, delta, r, limit in (
            # the exact brackets' grid is 256 rows by thousands of nodes,
            # whose temporaries reach 19 MB as one matrix
            (1e4, 1e3, 250.0, 2 * 2**20),
            # beyond block temporaries, at most two n-long arrays of doubles
            # (1.53 MiB); the chain as whole arrays holds about five
            (1e5, 1e4, None, 2 * 2**20)):
        weight = build_weight(m, delta, r)
        peak = _peak_bytes(
            lambda: msq.diagonal_term(m, delta, 1, weight, table_1e5))
        assert peak < limit, (m, delta, peak)


def test_theorem_integral_working_set(table_1e5):
    # about 6·10^4 pieces: the breakpoints, the values and the masses, with
    # |S|²·mass formed in one more pieces-long array
    weight = build_weight(5e4, 3e4)
    table_1e5.a  # a(n) is made on first read, before tracing
    peak = _peak_bytes(lambda: msq.theorem_integral(unit_point(7), weight,
                                                    table_1e5))
    assert peak < 4 * 2**20


def test_normalize_working_set(table_1e5):
    # beyond a(n) itself, 8 bytes a record, only block-sized temporaries
    records = table_1e5.records
    peak = _peak_bytes(lambda: normalize(records))
    assert peak < 8 * records.size + 0.75 * 2**20
