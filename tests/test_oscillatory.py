"""Oscillatory quadrature and phase-derivative bound checks.

Closed forms anchor the phases (L3 at k=1 is exactly 4 sqrt(x); L4 with
m = n is exactly zero), a hand-rolled Simpson rule anchors the phase-free
integral, and the bound ratios are asserted against caps frozen from the
recorded certificate sweep. The certificate's phase slope is checked
against a dense grid of |B'| on each family. The guard rails (cycle limit,
node budget, vanishing or sign-changing derivative) are exercised on inputs
chosen to trip exactly one of them.
"""

import math

import numpy as np
import pytest

from cuspsums import calibrated
from cuspsums import oscillatory as osc
from cuspsums.errors import NodeBudgetError
from cuspsums.rational import make_rational_point
from cuspsums.weight import build_weight, eval_weight, gauss_panels

from oracles import simpson_integral

PT1 = make_rational_point(0, 1)
PT12 = make_rational_point(1, 2)
PT25 = make_rational_point(2, 5)


@pytest.fixture(scope="module")
def window():
    return build_weight(1e4, 2e3)


def test_l4_equal_frequencies_reduce_to_plain_mass(window):
    spec = osc.l4_spec(7, 7, PT1)
    b, bp = osc.build_phase(spec)
    xs = np.linspace(1e4, 1.2e4, 11)
    assert np.all(b(xs) == 0.0)
    assert np.all(bp(xs) == 0.0)
    value = osc.oscillatory_integral(window, spec)
    ref = simpson_integral(lambda x: eval_weight(window, x) * np.sqrt(x),
                           1e4, 1.2e4)
    assert value.imag == 0.0
    assert value.real == pytest.approx(ref, rel=1e-12)


def test_l3_closed_form_phase_at_k1():
    b, bp = osc.build_phase(osc.l3_spec(1, 1, PT1))
    for x in (1e4, 1.37e4, 9.9e4):
        assert b(x) == pytest.approx(4.0 * math.sqrt(x), rel=1e-14)
        assert bp(x) == pytest.approx(2.0 / math.sqrt(x), rel=1e-14)


def test_l5_derivative_matches_finite_difference():
    b, bp = osc.build_phase(osc.l5_spec(4, 9, PT1))
    h = 1e-3
    for x in (1e4, 3e4):
        fd = (b(x + h) - b(x - h)) / (2.0 * h)
        assert bp(x) == pytest.approx(fd, rel=1e-6)


def test_refinement_is_stable_under_forced_subdivision(window):
    spec = osc.l3_spec(2, 3, PT1)
    base = osc.oscillatory_integral(window, spec)
    # a fixed grid of 5000 Gauss-16 panels, far finer than refinement needs
    b, _ = osc.build_phase(spec)
    x, wts = gauss_panels(*window.support, 5000)
    forced = complex(np.sum(wts * eval_weight(window, x) * np.sqrt(x)
                            * np.exp(2j * np.pi * b(x))))
    assert abs(base - forced) <= 2e-8


def test_jm_bound_closed_forms():
    unit = osc.BoundCertificate(a0=1.0, a1=1.0, b1=2.0, rho=1.0, length=1.0)
    assert osc.jm_bound(unit) == 1.0
    doubled = osc.BoundCertificate(a0=1.0, a1=1.0, b1=4.0, rho=1.0, length=1.0)
    assert osc.jm_bound(doubled) == osc.jm_bound(unit) / 2.0
    with pytest.raises(ValueError, match="certificate field rho must be positive"):
        osc.BoundCertificate(a0=1.0, a1=1.0, b1=2.0, rho=0.0, length=1.0)


def test_certificate_fields_and_rejections(window):
    spec = osc.l3_spec(1, 1, PT1)
    cert = osc.derivative_certificate(window, spec)
    assert cert.a0 == pytest.approx(math.sqrt(1.2e4))
    assert cert.rho == 1e3
    assert cert.length == 2e3
    # slowest phase point of a decreasing |B'| is the right endpoint
    assert cert.b1 == pytest.approx(2.0 / math.sqrt(1.2e4), rel=1e-9)
    # m = n in the difference family: B' vanishes identically
    with pytest.raises(ValueError):
        osc.derivative_certificate(window, osc.l4_spec(5, 5, PT1))


def test_certificate_refuses_phase_slope_that_changes_sign():
    # B'(2) = +0.218 and B'(50) = -0.004: B' vanishes inside the support,
    # where no first-derivative bound holds
    w = build_weight(2.0, 48.0)
    spec = osc.l5_spec(99, 100, PT1)
    _, bp = osc.build_phase(spec)
    assert bp(2.0) > 0.0 > bp(50.0)
    with pytest.raises(ValueError, match="changes sign"):
        osc.derivative_certificate(w, spec)


@pytest.mark.parametrize("support", [(2.0, 48.0), (10.0, 20.0), (1e4, 2e3)])
def test_certificate_slope_is_the_smaller_end_value(support):
    w = build_weight(*support)
    lo, hi = w.support
    grid = np.linspace(lo, hi, 10 ** 6)
    specs = [osc.l3_spec(1, 2, PT1),
             osc.l3_spec(3, 5, PT25, t_n=osc.T_SHIFTED, t_m=osc.T_SHIFTED),
             osc.l3_spec(2, 7, PT12, t_m=osc.T_SHIFTED),
             osc.l4_spec(4, 9, PT1), osc.l4_spec(3, 2, PT25, t=osc.T_SHIFTED),
             osc.l5_spec(9, 4, PT1), osc.l5_spec(7, 7, PT12),
             osc.l5_spec(4, 9, PT25)]
    for spec in specs:
        _, bp = osc.build_phase(spec)
        b1 = osc.derivative_certificate(w, spec).b1
        assert b1 == min(abs(bp(lo)), abs(bp(hi)))
        assert b1 <= np.min(np.abs(bp(grid)))


def test_integrals_stay_within_certificates():
    points = {1: PT1, 2: PT12, 5: PT25}
    worst_jm = 0.0
    worst_stated = 0.0
    for m_start, k in [(1e4, 1), (1e4, 2), (1e5, 5)]:
        w = build_weight(m_start, 4 * k * m_start ** 0.55)
        pt = points[k]
        specs = [osc.l3_spec(1, 1, pt)]
        for m, n in [(1, 2), (2, 3), (4, 9)]:
            specs += [osc.l3_spec(m, n, pt), osc.l4_spec(m, n, pt),
                      osc.l5_spec(m, n, pt)]
        for spec in specs:
            value = abs(osc.oscillatory_integral(w, spec))
            ratio = value / osc.jm_bound(osc.derivative_certificate(w, spec))
            assert ratio < 1.0
            worst_jm = max(worst_jm, ratio)
            if spec.family == "L3" or spec.m != spec.n:
                for p in (1, 2):
                    worst_stated = max(
                        worst_stated, value / osc.stated_bound(spec, p, w))
    assert worst_jm <= calibrated.JM_RATIO_MAX
    assert worst_stated <= calibrated.STATED_RATIO_MAX


def test_stated_bound_values_and_order_tradeoff():
    w = build_weight(1e4, 2e3)
    spec = osc.l4_spec(4, 9, PT1)
    # |sqrt(9)-sqrt(4)| = 1, so the p=1 and p=2 values are bare parameter
    # combinations: k sqrt(M) and k^2 M / delta
    assert osc.stated_bound(spec, 1, w) == pytest.approx(100.0)
    assert osc.stated_bound(spec, 2, w) == pytest.approx(5.0)
    # raising the order pays off exactly when delta|sqrt n - sqrt m| > k sqrt M
    assert 2e3 * 1.0 > 1.0 * 100.0
    assert osc.stated_bound(spec, 2, w) < osc.stated_bound(spec, 1, w)
    for p in (1, 2):
        assert (osc.stated_bound(osc.l3_spec(2, 3, PT1), p, w)
                <= osc.stated_bound(osc.l4_spec(2, 3, PT1), p, w))
    for bad in (osc.l4_spec(3, 3, PT1),):
        with pytest.raises(ValueError):
            osc.stated_bound(bad, 1, w)
    for p in (-1, 1.5):
        with pytest.raises(ValueError, match="order p must be an integer >= 0"):
            osc.stated_bound(spec, p, w)


def test_lemma5_derivative_check_basic():
    grid = np.linspace(1e4, 2e4, 101)
    ratio = osc.lemma5_derivative_check(osc.l5_spec(1, 4, PT1), grid)
    assert ratio >= 1.0
    # |B'| ~ |sqrt m - sqrt n|/(k sqrt x), so the normalized ratio sits at 4/3
    assert ratio == pytest.approx(4.0 / 3.0, abs=2e-4)


def test_lemma5_sweep_over_pairs_and_levels():
    grid = np.geomspace(1e3, 1e5, 257)
    points = [PT1, PT12, PT25, make_rational_point(3, 10)]
    ratios = [
        osc.lemma5_derivative_check(osc.l5_spec(m, n, pt), grid)
        for m, n in [(1, 2), (1, 4), (4, 9), (9, 16), (25, 36), (49, 64), (99, 100)]
        for pt in points
    ]
    # the two-term expansion keeps every ratio inside (1, 4/3); the
    # recorded sweep minimum is 1.3013 at the pair (99, 100) with k = 5
    assert min(ratios) >= 1.25
    assert max(ratios) <= 4.0 / 3.0 + 1e-9


def test_lemma5_derivative_check_finds_recovery_point():
    # B' of the pair (9999, 10000) vanishes near x = 2450 and the
    # normalized ratio only clears 1 again once x + sqrt(x) >= 1e4
    spec = osc.l5_spec(9999, 10000, PT1)
    grid = np.geomspace(1e3, 2e4, 200)
    assert osc.lemma5_derivative_check(spec, grid) < 0.01
    assert osc.lemma5_derivative_check(spec, grid[(grid >= 9e3) & (grid < 1.1e4)]) < 1.0
    assert osc.lemma5_derivative_check(spec, grid[grid >= 1.1e4]) >= 1.0
    assert osc.lemma5_derivative_check(osc.l5_spec(1, 4, PT1), grid) >= 1.0


def test_lemma5_rejections():
    grid = np.linspace(1e3, 1e4, 10)
    with pytest.raises(ValueError):
        osc.lemma5_derivative_check(osc.l5_spec(4, 4, PT1), grid)
    with pytest.raises(ValueError):
        osc.lemma5_derivative_check(osc.l5_spec(9, 4, PT1), grid)
    with pytest.raises(ValueError):
        osc.lemma5_derivative_check(osc.l3_spec(1, 4, PT1), grid)
    with pytest.raises(ValueError):
        osc.lemma5_derivative_check(osc.l5_spec(1, 4, PT1), np.array([]))
    with pytest.raises(ValueError):
        osc.lemma5_derivative_check(osc.l5_spec(1, 4, PT1), np.array([0.5, 2e3]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="x >= 1"):
            osc.lemma5_derivative_check(osc.l5_spec(1, 2, PT1), np.array([1e3, bad]))


def test_budget_refusals(window):
    with pytest.raises(NodeBudgetError, match="cycles"):
        osc.oscillatory_integral(window, osc.l3_spec(10**12, 10**12, PT1))
    with pytest.raises(NodeBudgetError, match="node budget"):
        osc.oscillatory_integral(window, osc.l3_spec(2, 3, PT1), node_budget=100)
    # dense oscillation under the cycle guard still trips the default budget
    with pytest.raises(NodeBudgetError, match="node budget"):
        osc.oscillatory_integral(window, osc.l3_spec(10**8, 10**8, PT1))


def test_phase_spec_validation():
    with pytest.raises(ValueError):
        osc.PhaseSpec("L6", 1, 1, PT1)
    with pytest.raises(ValueError):
        osc.PhaseSpec("L3", 0, 1, PT1)
    with pytest.raises(ValueError):
        osc.PhaseSpec("L3", 1, 1, PT1, t_n="sqrt(x)")
    with pytest.raises(ValueError):
        osc.PhaseSpec("L4", 1, 2, PT1, t_n=osc.T_PLAIN, t_m=osc.T_SHIFTED)
    with pytest.raises(ValueError):
        osc.PhaseSpec("L5", 1, 2, PT1, t_n=osc.T_SHIFTED, t_m=osc.T_PLAIN)
    spec = osc.l5_spec(1, 2, PT1)
    assert (spec.t_m, spec.t_n) == (osc.T_SHIFTED, osc.T_PLAIN)
    with pytest.raises(AttributeError):
        spec.m = 3
    shifted = osc.l4_spec(1, 2, PT1, t=osc.T_SHIFTED)
    assert shifted.t_n == shifted.t_m == osc.T_SHIFTED
