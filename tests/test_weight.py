"""Smooth window weight: exact plateau, symmetry, the closed-form ramp slope."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspsums.weight import (RAMP_SLOPE_MAX, build_weight, eval_weight,
                             window_length)


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


def _ramp_slope(t):
    # psi'(t) = sigma (1 - sigma) v'(t), psi = sigma(v), v = 1/(1-t) - 1/t;
    # near t = 0 the exponential overflows to inf, where sigma is 0
    with np.errstate(over="ignore"):
        sigma = 1.0 / (1.0 + np.exp(1.0 / t - 1.0 / (1.0 - t)))
    return sigma * (1.0 - sigma) * (1.0 / t ** 2 + 1.0 / (1.0 - t) ** 2)


def test_ramp_slope_closed_form():
    assert _ramp_slope(np.array(0.5)) == RAMP_SLOPE_MAX == 2.0
    t = np.linspace(0.0, 1.0, 10 ** 6 + 1)[1:-1]
    slope = _ramp_slope(t)
    assert slope.max() <= RAMP_SLOPE_MAX * (1.0 + 4e-16)
    assert slope.argmax() == t.size // 2
    # the package's ramp is this psi: central differences of w on the rising
    # ramp read psi'/r, and at its midpoint the slope is RAMP_SLOPE_MAX / r
    p = build_weight(100.0, 80.0, 20.0)
    h = 1e-4
    for u in (0.1, 0.3, 0.5, 0.8):
        x = 100.0 + u * p.r
        fd = (eval_weight(p, x + h) - eval_weight(p, x - h)) / (2.0 * h)
        assert fd == pytest.approx(_ramp_slope(np.array(u)) / p.r, rel=1e-6)
    mid = (eval_weight(p, 110.0 + h) - eval_weight(p, 110.0 - h)) / (2.0 * h)
    assert mid == pytest.approx(RAMP_SLOPE_MAX / p.r, rel=1e-8)


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
