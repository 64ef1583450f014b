"""Mean-square assembly: exact integral, diagonal prediction, crosschecks.

Ground truths: a dense midpoint Riemann oracle for the integral, closed
trig identities for the diagonal integrand, and a truncated dual-sum
reconstruction whose gap against the exact integral shrinks as the
truncation grows. Bands on empirical statistics are frozen from recorded
runs with the seeds used here.
"""

import math

import numpy as np
import pytest

from cuspsums import meansquare as msq
from cuspsums.config import ExperimentConfig, load_config
from cuspsums.oscillatory import T_SHIFTED, derivative_certificate, l3_spec
from cuspsums.rational import make_rational_point
from cuspsums.sums import step_series
from cuspsums.weight import build_weight, window_bounds

from oracles import (diag_identity_check, offdiagonal_crosscheck,
                     offdiagonal_majorant, riemann_mean_square,
                     table_from_tau)

PT01 = make_rational_point(0, 1)
PT12 = make_rational_point(1, 2)


@pytest.fixture(scope="module")
def window_1e4():
    return build_weight(1e4, 2e3)


@pytest.fixture(scope="module")
def window_1e3():
    return build_weight(1e3, 1e3)


def test_zero_coefficients_give_zero_integral(window_1e3):
    zeros = table_from_tau([0] * 4000)
    assert msq.theorem_integral(PT01, window_1e3, zeros) == 0.0
    assert msq.diagonal_term(1e3, 1e3, 1, window_1e3, zeros).value == 0.0


def test_integral_matches_dense_riemann_oracle(table_2e4, window_1e4):
    integral = msq.theorem_integral(PT01, window_1e4, table_2e4)
    ref = riemann_mean_square(1e4, 2e3, 0, 1, table_2e4.a, window_1e4, 10 ** 6)
    assert integral == pytest.approx(ref, rel=1e-4)


def test_conjugate_twist_invariance(table_2e4, window_1e4):
    i15 = msq.theorem_integral(make_rational_point(1, 5), window_1e4, table_2e4)
    i45 = msq.theorem_integral(make_rational_point(4, 5), window_1e4, table_2e4)
    assert i15 == pytest.approx(i45, rel=1e-9)


def test_parseval_over_the_circle(table_2e4, window_1e4):
    # averaged over every j/L, |S|² keeps only its diagonal n = n' once L
    # exceeds every gap n - n' inside a window, that is L >= W, the longest
    # window's length: (1/L) Σ_j I(j/L) = ∫ w Σ_window a(n)²
    edges = step_series(window_1e4.m, window_1e4.delta, PT01,
                        table_2e4).breakpoints
    masses = msq._piece_weight_masses(window_1e4, edges)
    first, last = window_bounds(0.5 * (edges[:-1] + edges[1:]))
    n_points = 127
    assert int(np.max(last - first)) + 1 == 110 <= n_points
    squares = np.concatenate([[0.0], np.cumsum(table_2e4.a ** 2)])
    diagonal = float(np.sum(masses * (squares[last] - squares[first - 1])))
    mean = sum(msq.theorem_integral(make_rational_point(j, n_points),
                                    window_1e4, table_2e4)
               for j in range(n_points)) / n_points
    assert abs(mean - diagonal) <= 1e-12 * diagonal


def test_smaller_weight_never_increases(table_2e4, window_1e4):
    wider_ramp = build_weight(1e4, 2e3, 1e3)  # pointwise below the r=delta/4 window
    base = msq.theorem_integral(PT12, window_1e4, table_2e4)
    smaller = msq.theorem_integral(PT12, wider_ramp, table_2e4)
    assert smaller <= base


def test_geometry_mismatch_rejected(table_2e4, window_1e4):
    with pytest.raises(ValueError):
        msq.diagonal_term(2e4, 2e3, 1, window_1e4, table_2e4)


def test_diagonal_value_and_certificate(table_2e4, window_1e4):
    d = msq.diagonal_term(1e4, 2e3, 1, window_1e4, table_2e4)
    assert d.value >= 0.0
    assert d.value == pytest.approx(4675.645753650832, rel=1e-9)
    assert d.n_exact == 256
    assert d.flagged == ()
    assert 0.0 < d.slack < 0.005 * d.value


def test_diagonal_insensitive_to_cutoff(table_2e4, window_1e4, monkeypatch):
    base = msq.diagonal_term(1e4, 2e3, 1, window_1e4, table_2e4)
    monkeypatch.setattr(msq, "_N_EXACT_FLOOR", 64)
    small = msq.diagonal_term(1e4, 2e3, 1, window_1e4, table_2e4)
    assert small.n_exact == 64
    assert small.value == pytest.approx(base.value, rel=1e-12)
    # fewer exact brackets leave more certified tail
    assert small.slack > base.slack


def test_plain_certificate_has_the_smallest_tail_slope(same_reports, tmp_path):
    # diagonal_term certifies its dropped oscillatory pieces by the
    # plain-plain L3 certificate alone: a shifted radical is steeper, so the
    # plain slope b1 is the smallest and gives the least jm_bound of the
    # three; checked on the default grid and same_reports.py's moved row rule
    row_rule = tmp_path / "row-rule.cfg"
    row_rule.write_text(same_reports.WORK_CONFIGS[row_rule.name],
                        encoding="utf-8")
    for cfg in (ExperimentConfig(), load_config(row_rule)):
        for point, weight in msq.sweep_grid(cfg):
            k = point.k
            n = min(max(msq._N_EXACT_FLOOR, 4 * k * k), math.floor(weight.m))
            plain = derivative_certificate(weight, l3_spec(n, n, point)).b1
            for shifts in ({"t_m": T_SHIFTED},
                           {"t_n": T_SHIFTED, "t_m": T_SHIFTED}):
                spec = l3_spec(n, n, point, **shifts)
                assert plain < derivative_certificate(weight, spec).b1


def test_diagonal_below_trivial_bound(table_2e4, window_1e4):
    d = msq.diagonal_term(1e4, 2e3, 1, window_1e4, table_2e4)
    ns = np.arange(1, 10001)
    trivial = float(np.sum(np.abs(table_2e4.a[:10000]) ** 2 / ns ** 1.5)) \
        * math.sqrt(1.2e4) * 2e3
    assert d.value <= trivial


def test_diagonal_tracks_full_integral(table_2e4, window_1e4):
    for point in (PT01, make_rational_point(1, 3)):
        integral = msq.theorem_integral(point, window_1e4, table_2e4)
        diagonal = msq.diagonal_term(1e4, 2e3, point.k, window_1e4, table_2e4)
        assert diagonal.value == pytest.approx(integral, rel=0.10)


def test_diagonal_damping_below_k_squared(window_1e4):
    # k = 32, so n in {1, 4} sits far below k^2 = 1024 and the squared
    # cosine difference is pinned near 2 sin^2(pi (phi1 - phi2))
    vals, flagged = msq.diagonal_profile(np.array([1, 4]), 32, window_1e4)
    assert flagged == ()
    xs, wsx = msq._weighted_nodes(window_1e4, 8)
    mass = float(np.sum(wsx))
    g0 = np.sqrt(xs + np.sqrt(xs)) - np.sqrt(xs)
    predicted = float(2.0 * np.sin(math.pi * 2.0 * g0 / 32.0) ** 2 @ wsx) / mass
    assert vals[0] / mass == pytest.approx(predicted, abs=5e-3)
    assert vals[0] / mass < 0.03
    assert 3.5 <= vals[1] / vals[0] <= 5.5
    # generic frequencies far above k^2 are undamped
    stretch, _ = msq.diagonal_profile(np.arange(3000, 3101), 32, window_1e4)
    assert 0.5 <= float(np.mean(stretch)) / mass <= 2.0


def test_diagonal_profile_flags_on_tiny_budget(window_1e3, monkeypatch):
    monkeypatch.setattr(msq, "_NODE_BUDGET", 200)
    vals, flagged = msq.diagonal_profile(np.array([1, 50, 200]), 1, window_1e3)
    assert flagged == (1, 50, 200)
    xs, wsx = msq._weighted_nodes(window_1e3, 8)
    assert np.all(vals == pytest.approx(4.0 * float(np.sum(wsx)), rel=1e-9))


def test_diagonal_validation(table_2e4, window_1e4):
    with pytest.raises(ValueError):
        msq.diagonal_term(1e4, 2e3, 0, window_1e4, table_2e4)
    short = table_from_tau([0] * 100)
    with pytest.raises(ValueError):
        msq.diagonal_term(1e4, 2e3, 1, window_1e4, short)
    with pytest.raises(ValueError):
        msq.diagonal_profile(np.array([0, 3]), 1, window_1e4)
    vals, flagged = msq.diagonal_profile([], 1, window_1e4)
    assert vals.shape == (0,) and flagged == ()


def test_diag_identity_check():
    chk = diag_identity_check(7, 3, np.linspace(1e3, 2e3, 1000))
    assert chk.discrepancy < 1e-12
    assert float(chk) == chk.discrepancy
    # dropping the factor 4 leaves a visible gap of exactly that factor
    assert chk.paper_discrepancy > 0.1
    assert chk.recovered_factor == pytest.approx(4.0, rel=1e-9)
    with pytest.raises(ValueError):
        diag_identity_check(0, 3, np.array([1e3]))
    with pytest.raises(ValueError):
        diag_identity_check(2, 3, np.array([0.2]))


def test_crosscheck_reconstructs_integral(table_2e4, window_1e3):
    reps = {(point.h, point.k, n): offdiagonal_crosscheck(
                1e3, 1e3, point, window_1e3, table_2e4, n)
            for point in (PT01, PT12, make_rational_point(1, 3))
            for n in (25, 100, 200)}
    rep = reps[0, 1, 100]
    assert rep.rel_gap < 0.20
    assert rep.total == rep.diagonal + rep.offdiagonal
    assert rep.allowance == 1e3
    # truncation is the dominant part of the gap: quadrupling the cutoff
    # from 25 terms narrows it
    assert rep.rel_gap < reps[0, 1, 25].rel_gap
    assert reps[1, 3, 100].rel_gap < 0.20
    # the closed-form majorant dominates every off-diagonal sum; the
    # largest ratio here is 0.026
    for key, each in reps.items():
        assert abs(each.offdiagonal) <= each.majorant, key


def test_crosscheck_single_coefficient_is_purely_diagonal(window_1e3):
    a = np.zeros(4000)
    a[4] = 1.0
    table = table_from_tau([0] * 4000)
    table.a = a
    rep = offdiagonal_crosscheck(1e3, 1e3, PT01, window_1e3, table, 50)
    assert rep.offdiagonal == 0.0
    assert rep.diagonal > 0.0


def test_crosscheck_validation(table_2e4, window_1e3):
    big = build_weight(5e3, 1e3)
    with pytest.raises(ValueError):
        offdiagonal_crosscheck(5e3, 1e3, PT01, big, table_2e4, 50)
    with pytest.raises(ValueError):
        offdiagonal_crosscheck(1e3, 1e3, PT01, window_1e3, table_2e4, 0)
    with pytest.raises(ValueError):
        offdiagonal_crosscheck(1e3, 1e3, PT01, window_1e3, table_2e4, 201)


def test_majorant_growth_is_at_most_log_squared():
    values = {m: offdiagonal_majorant(m) for m in (250, 500, 1000, 2000)}
    ratios = [values[m] / math.log(m) ** 2 for m in (250, 500, 1000, 2000)]
    assert all(r <= 1.0 for r in ratios)
    assert ratios == sorted(ratios, reverse=True)
    assert values[2000] > values[1000] > values[500] > values[250]
    assert offdiagonal_majorant(1) == 0.0


def test_omega_unit_window_recovers_first_coefficient(table_2e4):
    om = msq.omega_statistic([1.0], 0.5, table_2e4)
    # [1, 1.5] holds exactly n = 1 and a(1) = 1, divided by √Δ; a window
    # may not start below 1, so [0.5, 1.5] is refused
    with pytest.raises(ValueError, match="window must start at m >= 1"):
        msq.omega_statistic([0.5], 1.0, table_2e4)
    assert om.max * math.sqrt(0.5) == pytest.approx(1.0, rel=1e-12)
    assert om.values[0] == om.max == om.rms
    with pytest.raises(ValueError):
        msq.omega_statistic([], 1.0, table_2e4)


def test_omega_band_over_random_windows(table_1e5):
    rng = np.random.default_rng(20260815)
    grid = rng.uniform(1e3, 9.8e4, 100)
    om = msq.omega_statistic(grid, 1e3, table_1e5)
    # recorded run: max 0.4051, rms 0.1523
    assert om.max >= 0.1
    assert 0.2 <= om.max <= 0.6
    assert 0.08 <= om.rms <= 0.25


def test_omega_raw_sums_stable_but_normalization_decays(table_1e5):
    rng = np.random.default_rng(7)
    grid = rng.uniform(5e3, 1.8e4, 60)
    norm = [msq.omega_statistic(grid, d, table_1e5).rms for d in (1e2, 1e3, 1e4)]
    raw = [r * math.sqrt(d) for r, d in zip(norm, (1e2, 1e3, 1e4))]
    # the window sums themselves are delta-independent in size, so the
    # sqrt(delta)-normalized statistic falls rather than staying level
    assert max(raw) / min(raw) < 1.5
    assert norm[0] > norm[1] > norm[2]


def test_exponent_fit_recovers_synthetic_laws():
    def fake(m, k, delta, integral):
        return msq.MeanSquareResult(
            m=m, delta=delta, point=make_rational_point(1 if k > 1 else 0, k),
            integral=integral, diagonal=msq.DiagonalTerm(integral, 0.0, 1, ()))

    sqrt_law = [fake(m, k, 2 * math.sqrt(m), 2 * m) for m in (1e3, 1e4, 1e5)
                for k in (1, 2)]
    fit = msq.exponent_fit(sqrt_law)
    assert fit.alpha == pytest.approx(0.5, abs=1e-10)
    assert fit.beta == pytest.approx(0.0, abs=1e-10)
    assert fit.coeff == pytest.approx(1.0, rel=1e-10)
    assert fit.rms_residual < 1e-12

    k_law = [fake(m, k, 1e3, 1e3 * m ** 0.6 * k) for m in (1e3, 1e4, 1e5)
             for k in (1, 2)]
    fit2 = msq.exponent_fit(k_law)
    assert fit2.alpha == pytest.approx(0.6, abs=1e-10)
    assert fit2.beta == pytest.approx(1.0, abs=1e-10)

    with pytest.raises(ValueError):
        msq.exponent_fit(sqrt_law[:4])
    with pytest.raises(ValueError):
        msq.exponent_fit([fake(m, k, 1.0, 1.0) for m in (1e3, 2e3, 3e3)
                          for k in (1, 2)])
    with pytest.raises(ValueError):
        msq.exponent_fit([fake(m, 1, 1.0, m) for m in (1e3, 1e4, 1e5)] * 2)
    with pytest.raises(ValueError, match="strictly positive integrals"):
        msq.exponent_fit(sqrt_law[:-1] + [fake(1e5, 2, 1.0, 0.0)])
    collinear = [fake(k ** 2 * 1.0, k, 1.0, k) for k in (10, 40, 70, 100, 130, 160)]
    with pytest.raises(ValueError):
        msq.exponent_fit(collinear)


def _grid(**keys):
    return msq.sweep_grid(ExperimentConfig(**keys))


def test_sweep_grid_respects_regime():
    grid = _grid()
    assert len(grid) == 20
    for point, weight in grid:
        assert point.k <= weight.m ** 0.25
        assert 1e3 <= weight.delta <= weight.m
        assert weight.r == 0.25 * weight.delta
        assert point.h == (0 if point.k == 1 else 1)
    # k above M^(1/4) is dropped entirely
    assert _grid(ms=(50.0,), ks=(5,)) == []
    # the config, which every grid is built from, refuses the Δ-rule
    # exponents outside (1/2, 1]
    with pytest.raises(ValueError):
        ExperimentConfig(delta_exponent=0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(delta_exponent=1.2)


def test_run_sweep_small(table_2e4):
    results = msq.run_sweep(table_2e4, _grid(ms=(1e4,), ks=(1, 2)))
    assert len(results) == 2
    for res in results:
        assert res.integral > 0.0
        # each row carries the whole prediction, not just its value
        assert res.diagonal.n_exact == 256
        assert res.diagonal.flagged == ()
        assert res.diagonal.slack > 0.0
        assert res.diagonal.value == pytest.approx(res.integral, rel=0.10)
        assert res.ratio == res.integral / (res.delta * math.sqrt(res.m))


def test_run_sweep_refuses_before_the_first_row(table_2e4, monkeypatch):
    def no_row(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(msq, "theorem_integral", no_row)
    monkeypatch.setattr(msq, "diagonal_term", no_row)
    with pytest.raises(ValueError, match="sweep is empty"):
        msq.run_sweep(table_2e4, _grid(ms=(50.0,), ks=(5,)))
    # the first row fits in 2e4; the second (M = 2e4) needs more
    with pytest.raises(ValueError, match="mean-square sweep needs"):
        msq.run_sweep(table_2e4, _grid(ms=(1e4, 2e4), ks=(1,)))


def test_result_validation():
    with pytest.raises(ValueError):
        msq.MeanSquareResult(m=1e4, delta=1e3, point=PT01, integral=-1.0,
                             diagonal=msq.DiagonalTerm(0.0, 0.0, 1, ()))
