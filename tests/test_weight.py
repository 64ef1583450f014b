"""Smooth window weight: exact plateau, symmetry, the closed-form ramp slope;
and the short window [x, x + sqrt(x)], whose one home is this module."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cuspsums
from cuspsums.config import ExperimentConfig
from cuspsums.sums import _BREAKPOINT_TOL
from cuspsums.weight import (RAMP_SLOPE_MAX, build_weight, eval_weight,
                             gauss_panels, window_bounds, window_exits,
                             window_gap, window_root_sum,
                             window_root_sum_inverse, window_roots, window_top,
                             window_weight)


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
    p = window_weight(1e4, 7, ExperimentConfig())
    lo, hi = p.support
    assert 2.0 * (hi - lo) / p.r > 8.0
    assert p.first_panels(0.0) == 8
    assert p.first_panels(8.5) == 9
    assert build_weight(1e4, 2e3, 100.0).first_panels(3.0) == 40


_SMOOTH = build_weight(100.0, 80.0, 20.0)


def _moments(panels):
    # ∫ u^j and ∫ cos(3u) over the support, u = (x - 100)/80 in [0, 1]
    x, wts = gauss_panels(*_SMOOTH.support, panels)
    u = (x - 100.0) / 80.0
    return np.array([np.sum(wts * u ** 0), np.sum(wts * u ** 25),
                     np.sum(wts * np.cos(3.0 * u))])


def test_refine_settles_smooth_integrand_on_first_doubling():
    calls = []

    def evaluate(panels):
        calls.append(panels)
        return _moments(panels)

    values, settled = _SMOOTH.refine(8, evaluate, 1e-10, 10 ** 6)
    assert settled.all()
    assert calls == [8, 16]
    assert values == pytest.approx(_moments(256), abs=1e-12)


def test_refine_keeps_settled_entries_settled():
    # entry 0 agrees between the first two grids only; entry 1 only between
    # the last two; both count as settled at the end
    script = iter([np.array([1.0, 0.0]), np.array([1.0, 5.0]),
                   np.array([9.0, 7.0]), np.array([3.0, 7.0])])
    values, settled = _SMOOTH.refine(8, lambda panels: next(script), 1e-9, 10 ** 6)
    assert settled.tolist() == [True, True]
    assert values.tolist() == [3.0, 7.0]


def test_refine_never_settles_a_nan_entry():
    # entry 1 is NaN on every grid: entry 0 settles on the first doubling,
    # and refinement stops there, though the budget would also take 32
    # panels (8, 16 and 32 panels take 896 nodes), and leaves entry 1
    # unsettled
    calls = []

    def evaluate(panels):
        calls.append(panels)
        return np.array([1.0, math.nan])

    values, settled = _SMOOTH.refine(8, evaluate, 1e-9, 16 * (8 + 16 + 32 + 64) - 1)
    assert calls == [8, 16]
    assert settled.tolist() == [True, False]
    assert values[0] == 1.0


def test_refine_under_one_doubling_of_budget_settles_nothing():
    calls = []

    def evaluate(panels):
        calls.append(panels)
        return _moments(panels)

    # the first grid takes 128 nodes; its doubling would need 256 more
    values, settled = _SMOOTH.refine(8, evaluate, 1.0, 128 + 255)
    assert calls == [8]
    assert not settled.any()
    assert values == pytest.approx(_moments(8), abs=0.0)


def test_gauss_panels_repeat_the_first_panel():
    # node l of panel p is node l of the first panel plus p panel widths,
    # the layout diagonal_profile's phases split on
    x, wts = gauss_panels(3.0, 11.0, 4)
    nodes = x.reshape(4, 16)
    assert np.allclose(nodes - nodes[:1], 2.0 * np.arange(4)[:, None],
                       rtol=0.0, atol=1e-14)
    assert np.array_equal(wts.reshape(4, 16), np.tile(wts[:16], (4, 1)))
    assert float(np.sum(wts)) == pytest.approx(8.0, rel=1e-15)


def test_window_exits_invert_the_top():
    tops = np.arange(2, 400_001)
    roots = window_exits(tops)
    assert np.max(np.abs(window_top(roots) - tops)) <= 1e-9
    # the integer top j is reached between the breakpoint merge tolerance
    # on either side of its exit point
    assert np.array_equal(np.floor(window_top(roots - _BREAKPOINT_TOL)), tops - 1)
    assert np.array_equal(np.floor(window_top(roots + _BREAKPOINT_TOL)), tops)


def test_window_roots_take_one_root_of_x():
    xs = np.linspace(1.0, 1.2e5, 4001)
    root, top_root = window_roots(xs)
    assert np.array_equal(root, np.sqrt(xs))
    assert np.array_equal(top_root, np.sqrt(xs + np.sqrt(xs)))
    assert window_top(4.0) == 6.0


def test_window_bounds_take_arrays():
    # one array call equals the scalar calls elementwise, integer ends and
    # a square collision included; one bad x anywhere refuses the array
    xs = np.concatenate([[1.0, 4.0, 4.5, 5041.0 - 1e-9, 5041.0],
                         np.geomspace(1.0, 1.2e6, 995)])
    first, last = window_bounds(xs)
    assert first.dtype == last.dtype == np.int64
    assert list(zip(first.tolist(), last.tolist())) == [
        window_bounds(float(x)) for x in xs]
    for bad in (0.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="window position must satisfy"):
            window_bounds(np.array([4.0, bad, 9.0]))


def test_root_sum_inverse_recovers_x():
    # y = √x + √(x + √x) and back: x, the gap and the Jacobian √x·dx/dy
    xs = np.geomspace(2.0, 1.2e6, 2001)
    y = window_root_sum(xs)
    x, jacobian, gap = window_root_sum_inverse(y)
    assert np.max(np.abs(x / xs - 1.0)) <= 1e-14
    assert np.max(np.abs(gap / window_gap(xs) - 1.0)) <= 1e-14
    h = 1e-6 * y
    dxdy = (window_root_sum_inverse(y + h)[0]
            - window_root_sum_inverse(y - h)[0]) / (2.0 * h)
    assert np.max(np.abs(jacobian / (np.sqrt(xs) * dxdy) - 1.0)) <= 1e-8


def test_only_weight_spells_out_the_short_window():
    # x + sqrt(x) and the exit roots (sqrt(1 + 4j) - 1)/2 squared are
    # written in weight.py alone; every other module calls it
    spelled = re.compile(r"(\b\w+\b) \+ (np|math)\.sqrt\(\1\)|sqrt\(1\.0 \+ 4\.0")
    package = Path(cuspsums.__file__).parent
    sites = [f"{path.name}:{number}"
             for path in sorted(package.glob("*.py")) if path.name != "weight.py"
             for number, line in enumerate(path.read_text(encoding="utf-8")
                                           .splitlines(), start=1)
             if spelled.search(line)]
    assert sites == []
    assert spelled.search((package / "weight.py").read_text(encoding="utf-8"))
