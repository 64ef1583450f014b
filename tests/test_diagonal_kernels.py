"""The diagonal prediction's two kernels against independent references.

The x-grid reference's cosine difference in product form is checked
against the subtracted cosines in extended precision; the exact brackets,
integrated in y, against that reference on a finer grid in x; the moment
series of the slow brackets against their direct integral on the same
nodes; the panel rule against the node budget of exactly one doubling;
and the moment series' truncation bound against the settle tolerance.
"""

import math

import numpy as np
import pytest

from cuspsums import meansquare as msq
from cuspsums.config import ExperimentConfig
from cuspsums.weight import build_weight, window_gap, window_weight
from oracles import cos_difference, phase_columns, profile_on_x_grid

EXTENDED = np.finfo(np.longdouble).eps < 1e-18


@pytest.fixture(scope="module")
def window_1e4():
    return build_weight(1e4, 2e3)


def _extended_cos_difference(ns, k, xs):
    """cos Φ₁' - cos Φ₂' from the subtracted cosines in long double."""
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    x = xs.astype(ld)
    scale = (4 * pi / k) * np.sqrt(ns.astype(ld))
    return (np.cos(np.outer(scale, np.sqrt(x + np.sqrt(x))) - pi / 4)
            - np.cos(np.outer(scale, np.sqrt(x)) - pi / 4))


@pytest.mark.skipif(not EXTENDED, reason="long double is no wider than double")
def test_gap_has_no_cancellation():
    xs = np.linspace(1.0, 1.2e5, 4001)
    x = xs.astype(np.longdouble)
    exact = np.sqrt(x + np.sqrt(x)) - np.sqrt(x)
    rel = np.abs((window_gap(xs) - exact) / exact).astype(float)
    assert rel.max() < 4 * np.finfo(float).eps


@pytest.mark.skipif(not EXTENDED, reason="long double is no wider than double")
def test_cos_difference_matches_extended_reference():
    # arguments reach 4π√(nx) ≈ 1.4e6, whose own rounding (ulp 2.3e-10)
    # is the floor of any double evaluation
    ns = np.array([1, 1000, 100000])
    xs = np.linspace(1e5, 1.2e5, 2001)
    ref = _extended_cos_difference(ns, 1, xs)
    diff = cos_difference(ns, 1, phase_columns(xs))
    err = np.abs(diff - ref).astype(float)
    assert err.max() <= 2e-10


def test_slow_brackets_match_direct_integral(window_1e4):
    xs, wsx = msq._weighted_nodes(window_1e4, 8)
    mass = float(np.sum(wsx))
    columns, g0, reach = msq._moment_columns(wsx, window_gap(xs))
    moments = columns.sum(axis=0)
    for k in (1, 3, 7):
        ns = np.arange(257, 10001)
        brackets = msq._slow_brackets(257, 10000, k, moments, g0)
        scale = (4.0 * math.pi / k) * np.sqrt(ns.astype(float))
        direct = (wsx * (1.0 - np.cos(np.outer(scale, window_gap(xs))))).sum(axis=1)
        assert np.max(np.abs(brackets - direct)) <= 1e-12 * mass
        # the truncation bound of the series is certified, and negligible
        bound = msq._series_bound(float(scale[-1]) * reach) * moments[0]
        assert 0.0 < bound < 1e-16 * mass


def test_profile_settles_on_first_doubling(window_1e4, monkeypatch):
    # the first grid of the panel rule, then a budget that allows exactly
    # one doubling: every row must settle there
    ns = np.arange(1, 257)
    panels = msq._first_panels(256, 1, window_1e4)
    monkeypatch.setattr(msq, "_NODE_BUDGET", 48 * panels)
    once, flagged = msq.diagonal_profile(ns, 1, window_1e4)
    assert flagged == ()
    # the x-grid reference on eight times the grid agrees far inside the
    # tolerance
    ref = profile_on_x_grid(ns, 1, window_1e4, 8 * panels)
    mass = float(np.sum(msq._weighted_nodes(window_1e4, 8 * panels)[1]))
    assert np.max(np.abs(once - ref)) <= 1e-11 * mass


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("m", [1e4, 1e5])
def test_profile_matches_x_grid_on_sweep_rows(m, k):
    # the benchmark sweep's rows: the exact range of each diagonal_term,
    # integrated in y, against the brackets integrated in x on eight times
    # the first grid
    weight = window_weight(m, k, ExperimentConfig())
    n_exact = min(max(msq._N_EXACT_FLOOR, 4 * k * k), math.floor(m))
    ns = np.arange(1, n_exact + 1)
    brackets, flagged = msq.diagonal_profile(ns, k, weight)
    assert flagged == ()
    panels = 8 * msq._first_panels(n_exact, k, weight)
    ref = profile_on_x_grid(ns, k, weight, panels)
    mass = float(np.sum(msq._weighted_nodes(weight, panels)[1]))
    assert np.max(np.abs(brackets - ref)) <= 1e-11 * mass


def test_profile_refuses_rows_past_the_series_bound(window_1e4, monkeypatch):
    # with two terms of the moment series, (s·max|g - g₀|)²/2 of the mass
    # exceeds 1e-9 of it at every n: no row may settle, whatever its grids
    # agree to, so the first grid is the only one evaluated; with the full
    # series every row settles
    ns = np.array([1, 50, 256])
    panels = msq._first_panels(256, 1, window_1e4)
    assert msq.diagonal_profile(ns, 1, window_1e4)[1] == ()
    grids = []
    phase_grid = msq._phase_grid

    def counted(weight, panels):
        grids.append(panels)
        return phase_grid(weight, panels)

    monkeypatch.setattr(msq, "_phase_grid", counted)
    monkeypatch.setattr(msq, "_MOMENT_ORDER", 2)
    values, flagged = msq.diagonal_profile(ns, 1, window_1e4)
    assert grids == [panels]
    assert flagged == (1, 50, 256)
    mass = float(np.sum(msq._root_sum_nodes(window_1e4, panels)[1]))
    assert np.array_equal(values, np.full(3, 4.0 * mass))
