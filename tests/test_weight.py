"""Smooth window weight: exact plateau, symmetry, derivative scale constants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspsums.meansquare import window_length
from cuspsums.weight import build_weight, derivative_bound_report, eval_weight

# dense-grid values of sup|w^(n)| * r^n, frozen from the finite-difference
# oracle in this module's report (r = 20, grid 14001 points per ramp)
C1_FROZEN = 2.0
C2_FROZEN = 9.84104
C3_FROZEN = 110.5655
C4_FROZEN = 2279.227


def test_support_and_plateau_exact():
    p = build_weight(100.0, 80.0, 20.0)
    assert eval_weight(p, 100.0) == 0.0
    assert eval_weight(p, 180.0) == 0.0
    assert eval_weight(p, 99.0) == 0.0
    assert eval_weight(p, 181.0) == 0.0
    assert eval_weight(p, 120.0) == 1.0
    assert eval_weight(p, 140.0) == 1.0
    assert eval_weight(p, 160.0) == 1.0


def test_half_ramp_value_exact():
    p = build_weight(100.0, 80.0, 20.0)
    assert eval_weight(p, 110.0) == 0.5


def test_default_ramp_is_quarter():
    p = build_weight(100.0, 80.0)
    assert p.r == 20.0
    assert eval_weight(p, 140.0) == 1.0


def test_symmetry():
    p = build_weight(100.0, 80.0, 20.0)
    u = np.linspace(0.0, 80.0, 997)
    left = eval_weight(p, 100.0 + u)
    right = eval_weight(p, 180.0 - u)
    assert np.max(np.abs(left - right)) <= 1e-12


def test_monotone_on_ramps():
    p = build_weight(100.0, 80.0, 20.0)
    up = eval_weight(p, np.linspace(100.0, 120.0, 4001))
    assert np.min(np.diff(up)) >= -1e-15
    down = eval_weight(p, np.linspace(160.0, 180.0, 4001))
    assert np.max(np.diff(down)) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=90.0, max_value=200.0))
def test_range_invariant(x):
    p = build_weight(100.0, 80.0, 20.0)
    v = eval_weight(p, x)
    assert 0.0 <= v <= 1.0


def test_validations():
    with pytest.raises(ValueError):
        build_weight(1.0, 10.0)
    with pytest.raises(ValueError):
        build_weight(100.0, -5.0)
    with pytest.raises(ValueError):
        build_weight(100.0, 10.0, 6.0)  # r > delta/2
    with pytest.raises(ValueError):
        build_weight(100.0, 10.0, 0.0)
    p = build_weight(100.0, 10.0)
    with pytest.raises(ValueError):
        derivative_bound_report(p, 7)


def test_derivative_constants_frozen():
    rep = derivative_bound_report(build_weight(100.0, 80.0, 20.0), n_max=4)
    assert rep.orders[0] == 1.0
    assert abs(rep.orders[1] - C1_FROZEN) <= 1e-6
    assert abs(rep.orders[2] - C2_FROZEN) <= 1e-3
    assert abs(rep.orders[3] - C3_FROZEN) <= 1e-2
    assert abs(rep.orders[4] - C4_FROZEN) <= 1e-1
    assert rep.grid_points >= 10_000


def test_scale_invariance_three_decades():
    # same constants for ramps spanning three decades of r
    reports = [
        derivative_bound_report(build_weight(100.0, 80.0, r), n_max=4).orders
        for r in (20.0, 2.0, 0.2)
    ]
    for n in range(1, 5):
        vals = [rep[n] for rep in reports]
        assert max(vals) / min(vals) <= 1.0 + 1e-4


def test_quarter_ramp_delta_scaling():
    # with r = delta/4 the n-th derivative bound is C_n * 4^n * delta^{-n}
    p = build_weight(1000.0, 400.0)
    rep = derivative_bound_report(p, n_max=2)
    sup_w1 = rep.orders[1] / p.r
    assert sup_w1 <= C1_FROZEN * 4 / p.delta * 1.0001


def test_first_panels_ramp_floor_reads_stored_delta():
    # the k = 7 verify-lemmas window: 2Δ/r is exactly 8 from the stored Δ,
    # but 8.000000000000002 from the support width (M + Δ) - M
    delta = window_length(1e4, 7, 4.0, 0.55)
    p = build_weight(1e4, delta, 0.25 * delta)
    lo, hi = p.support
    assert 2.0 * (hi - lo) / p.r > 8.0
    assert p.first_panels(0.0) == 8
    assert p.first_panels(8.5) == 9
    assert build_weight(1e4, 2e3, 100.0).first_panels(3.0) == 40


_SMOOTH = build_weight(100.0, 80.0, 20.0)


def _moments(x, wts):
    # ∫ u^j and ∫ cos(3u) over the support, u = (x - 100)/80 in [0, 1]
    u = (x - 100.0) / 80.0
    return np.array([np.sum(wts * u ** 0), np.sum(wts * u ** 25),
                     np.sum(wts * np.cos(3.0 * u))])


def test_refine_settles_smooth_integrand_on_first_doubling():
    calls = []

    def evaluate(x, wts):
        calls.append(x.size)
        return _moments(x, wts)

    values, settled = _SMOOTH.refine(8, evaluate, 1e-10, 10 ** 6)
    assert settled.all()
    assert calls == [16 * 8, 16 * 16]
    assert values == pytest.approx(_moments(*_SMOOTH.gauss_panels(256)), abs=1e-12)


def test_refine_keeps_settled_entries_settled():
    # entry 0 agrees between the first two grids only; entry 1 only between
    # the last two; both count as settled at the end
    script = iter([np.array([1.0, 0.0]), np.array([1.0, 5.0]),
                   np.array([9.0, 7.0]), np.array([3.0, 7.0])])
    values, settled = _SMOOTH.refine(8, lambda x, wts: next(script), 1e-9, 10 ** 6)
    assert settled.tolist() == [True, True]
    assert values.tolist() == [3.0, 7.0]


def test_refine_under_one_doubling_of_budget_settles_nothing():
    calls = []

    def evaluate(x, wts):
        calls.append(x.size)
        return _moments(x, wts)

    # the first grid takes 128 nodes; its doubling would need 256 more
    values, settled = _SMOOTH.refine(8, evaluate, 1.0, 128 + 255)
    assert calls == [128]
    assert not settled.any()
    assert values == pytest.approx(_moments(*_SMOOTH.gauss_panels(8)), abs=0.0)
