"""Release gate: the eight acceptance checks, one test per criterion.

Each test records one PASS/FAIL line in the terminal summary (see
conftest).  Two checks are expected to fail and are asserted faithfully
rather than weakened:

* truncation-decay-and-phase: quadrupling the truncation length does not
  halve the median error at these scales, because the main-term formula
  carries an x-independent deficit per rational point that dominates the
  truncation tail (measured decay ratios 0.95 to 1.09 against a required
  1.4 to 2.6).  The phase-convention half of the check passes: exactly
  the -pi/4 convention stays inside its fitted envelope.

* sweep-exponents: the untwisted k = 1 rows sit an order of magnitude
  below every twisted row because the window length sqrt(x) completes an
  almost exactly integer number of dual-frequency oscillations at the
  dominant square indices n = j^2, damping their contribution.  That
  drags the fitted k-exponent to ~1.25 (bound 0.3) and the ratio spread
  to ~14.5 (bound 10).  The M-exponent alpha passes.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_acceptance
from oracles import (diag_identity_check, riemann_mean_square,
                     tau_truncated_product)

from cuspsums.calibrated import OMEGA_THRESHOLD, STATED_RATIO_MAX
from cuspsums.cli import main as cli_main
from cuspsums.coeffs import (deligne_check, generate_tau,
                             hecke_multiplicativity_check,
                             hecke_prime_power_check, load_cache, save_cache)
from cuspsums.config import ExperimentConfig
from cuspsums.meansquare import (exponent_fit, omega_statistic, run_sweep,
                                 sweep_grid, theorem_integral)
from cuspsums.oscillatory import (build_phase, l3_spec, l4_spec, l5_spec,
                                  lemma5_derivative_check, oscillatory_integral,
                                  stated_bound)
from cuspsums.rational import make_rational_point, unit_point
from cuspsums.reporting import sha256_file
from cuspsums.voronoi import VoronoiParams, voronoi_error_scan
from cuspsums.weight import (build_weight, eval_weight, gauss_panels,
                             window_weight)

pytestmark = [pytest.mark.acceptance, pytest.mark.slow]

_SEED = 20260815


# sha256 of the 10^6 cache as the pentagonal recurrence (oracles.tau_pentagonal)
# first built it
TAU_1E6_CACHE_SHA256 = "97d87b4b3c47cc66874acb57edd8548d0b9198a68b49e1792f0613fcf9eadcf2"


@pytest.fixture(scope="module")
def table_1e6(tmp_path_factory):
    """The big table, written to and read back from its cache format."""
    cache = tmp_path_factory.mktemp("acceptance") / "tau1e6.cache"
    generated = generate_tau(1_000_000)
    save_cache(generated, cache)
    assert sha256_file(cache) == TAU_1E6_CACHE_SHA256
    table = load_cache(cache)
    # a(n) read back must equal the generated table's and float(tau(n)) /
    # n^5.5 from the generated Python ints, bit for bit (both tables convert
    # through the same records): a conversion through a wider float type,
    # not exactly rounded, moves a few hundred of them
    n = np.arange(1, generated.n_max + 1, dtype=float)
    from_ints = np.array(generated.tau, dtype=float) / n ** 5.5
    assert table.a.tobytes() == generated.a.tobytes() == from_ints.tobytes()
    return table


@pytest.fixture(scope="module")
def sweep(table_1e6):
    """Default mean-square sweep, shared by the exponent and diagonal checks."""
    t0 = time.perf_counter()
    results = run_sweep(table_1e6, sweep_grid(ExperimentConfig()))
    return results, time.perf_counter() - t0


def test_coefficient_exactness(table_1e5):
    t0 = time.perf_counter()
    table = generate_tau(2000)
    elapsed = time.perf_counter() - t0
    exact = table.tau == tau_truncated_product(2000)

    mult = hecke_multiplicativity_check(table_1e5)
    power = hecke_prime_power_check(table_1e5)
    deligne = deligne_check(table_1e5)

    passed = (exact and elapsed < 5.0
              and mult.first_failure is None and mult.checks > 0
              and power.first_failure is None and power.checks > 0
              and deligne.first_violation is None)
    record_acceptance(
        "coefficient-exactness", passed,
        f"2000 terms vs schoolbook product in {elapsed:.2f}s; "
        f"{mult.checks} multiplicative + {power.checks} prime-power splits "
        f"exact to 1e5; max |a(n)|/d(n) = {deligne.max_ratio:.6f}")
    assert exact, "generated tau disagrees with the schoolbook oracle"
    assert elapsed < 5.0
    assert mult.first_failure is None and power.first_failure is None
    assert deligne.first_violation is None


def test_truncation_decay_and_phase(table_1e6):
    t0 = time.perf_counter()
    rng = np.random.default_rng(_SEED)
    decay_ratios = []
    full = {0.0: [], -math.pi / 4.0: []}   # (x, k, n, err) at N = x
    cases = [(phase, div) for phase in full for div in (16, 4, 1)]
    for m_scale in (1.0e4, 1.0e5):
        for k in (1, 3, 5):
            point = unit_point(k)
            xs = np.sort(rng.uniform(m_scale, 2.0 * m_scale, 50))
            errs = {phase: {16: [], 4: [], 1: []} for phase in full}
            for x in xs:
                x = float(x)
                params = [VoronoiParams(point, max(1, int(x / div)), phase)
                          for phase, div in cases]
                row = voronoi_error_scan([x], params, table_1e6)[:, 0]
                for (phase, div), err in zip(cases, row):
                    errs[phase][div].append(float(err))
            good = errs[-math.pi / 4.0]
            decay_ratios.append(np.median(good[16]) / np.median(good[4]))
            decay_ratios.append(np.median(good[4]) / np.median(good[1]))
            for phase in full:
                for x, err in zip(xs, errs[phase][1]):
                    full[phase].append((float(x), k, max(1, int(x)), err))
    elapsed = time.perf_counter() - t0

    # each quadrupling of N should shrink the median error by 2 +- 0.6
    decay_ok = all(1.4 <= r <= 2.6 for r in decay_ratios)

    # envelope C k sqrt(x) N^(-1/2) x^0.1 with C fitted per phase; "stays
    # within" means every sample inside a factor 3 of the fitted C
    within = {}
    for phase, samples in full.items():
        r = np.array([err / (k * math.sqrt(x) * n ** -0.5 * x ** 0.1)
                      for x, k, n, err in samples])
        c = math.exp(float(np.mean(np.log(r))))
        label = "-pi/4" if phase else "0"
        within[label] = bool(r.max() <= 3.0 * c and r.min() >= c / 3.0)
    phase_ok = within["-pi/4"] and not within["0"]

    passed = decay_ok and phase_ok and elapsed < 600.0
    record_acceptance(
        "truncation-decay-and-phase", passed,
        f"decay ratios [{min(decay_ratios):.3f}, {max(decay_ratios):.3f}] "
        f"vs required [1.4, 2.6]; envelope holds for "
        f"{[k for k, v in within.items() if v]} only; {elapsed:.0f}s")
    assert elapsed < 600.0
    assert phase_ok, f"phase envelope verdicts: {within}"
    assert decay_ok, (
        f"median truncation error does not halve under N quadrupling: "
        f"ratios span [{min(decay_ratios):.3f}, {max(decay_ratios):.3f}]; "
        "the main-term deficit saturates the error at these scales")


def test_sweep_exponents(sweep):
    results, elapsed = sweep
    fit = exponent_fit(results)
    ratios = [r.ratio for r in results]
    spread = max(ratios) / min(ratios)

    alpha_ok = 0.4 <= fit.alpha <= 0.6
    beta_ok = fit.beta <= 0.3
    spread_ok = spread <= 10.0
    passed = alpha_ok and beta_ok and spread_ok and elapsed < 1800.0
    record_acceptance(
        "sweep-exponents", passed,
        f"alpha = {fit.alpha:.4f} (need [0.4, 0.6]), "
        f"beta = {fit.beta:.4f} (need <= 0.3), "
        f"ratio spread = {spread:.2f} (need <= 10); sweep {elapsed:.0f}s")
    assert elapsed < 1800.0
    assert alpha_ok
    assert beta_ok and spread_ok, (
        f"k-dependence is not flat: beta = {fit.beta:.4f}, "
        f"spread = {spread:.2f}; the untwisted k = 1 rows sit an order "
        "of magnitude below the twisted rows (square-index damping)")


def test_diagonal_domination(sweep):
    results, _ = sweep
    norm = [r.diagonal.value / (r.delta * math.sqrt(r.m)) for r in results]
    const_ok = max(norm) <= 0.5
    dominated = all(
        r.diagonal.value <= r.integral + r.point.k ** 2 * r.delta
        for r in results)

    check = diag_identity_check(7, 3, np.linspace(1.0e3, 2.0e3, 101))
    identity_ok = (check.discrepancy < 1e-12
                   and abs(check.recovered_factor - 4.0) < 1e-9 * 4.0)

    passed = const_ok and dominated and identity_ok
    record_acceptance(
        "diagonal-domination", passed,
        f"D/(delta sqrt M) in [{min(norm):.4f}, {max(norm):.4f}] <= 0.5; "
        f"D <= I + k^2 delta on all {len(results)} runs; "
        f"identity discrepancy {check.discrepancy:.2e}")
    assert const_ok
    assert dominated
    assert identity_ok


def test_bound_certificates():
    grid = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 25, 36, 50, 64, 81, 100)
    m_scale = 1.0e4
    ratios = {"L3": [], "L4": [], "L5": []}
    deriv_min = math.inf
    grid_x = np.geomspace(1.0e3, 1.0e5, 129)
    for k in (1, 2, 3, 4, 5):
        weight = window_weight(m_scale, k, ExperimentConfig())
        point = unit_point(k)
        for i, m in enumerate(grid):
            for n in grid[i:]:
                specs = [("L3", l3_spec(m, n, point))]
                if n > m:
                    specs += [("L4", l4_spec(m, n, point)),
                              ("L5", l5_spec(m, n, point))]
                for family, spec in specs:
                    ratio = (abs(oscillatory_integral(weight, spec))
                             / stated_bound(spec, 1, weight))
                    ratios[family].append((m, n, ratio))
                if n > m:
                    deriv_min = min(deriv_min, lemma5_derivative_check(
                        l5_spec(m, n, point), grid_x))

    bounded = True
    no_growth = True
    detail_bits = []
    for family, rows in ratios.items():
        values = np.array([r for _, _, r in rows])
        bounded &= bool(np.all(np.isfinite(values)) and values.min() > 0.0
                        and values.max() <= STATED_RATIO_MAX)
        # growth test: ratios must not trend upward in the frequencies,
        # neither in a log-log fit nor block-wise
        sizes = np.log([m + n for m, n, _ in rows])
        slope = float(np.polyfit(sizes, np.log(values), 1)[0])
        low = values[np.array([max(m, n) <= 10 for m, n, _ in rows])]
        high = values[np.array([max(m, n) >= 50 for m, n, _ in rows])]
        no_growth &= slope <= 0.05 and high.max() <= low.max()
        detail_bits.append(f"{family} max {values.max():.3g} "
                           f"slope {slope:+.2f}")

    # accepted integrals agree with a forced fine grid of 4096 panels
    weight = build_weight(m_scale, 2.0e3)
    x, wts = gauss_panels(*weight.support, 4096)
    self_ok = True
    for spec in (l3_spec(4, 9, make_rational_point(1, 2)),
                 l4_spec(2, 3, make_rational_point(1, 5)),
                 l5_spec(9, 10, make_rational_point(1, 3))):
        base = oscillatory_integral(weight, spec)
        b, _ = build_phase(spec)
        forced = complex(np.sum(wts * eval_weight(weight, x) * np.sqrt(x)
                                * np.exp(2j * np.pi * b(x))))
        self_ok &= abs(base - forced) <= 2e-8

    passed = bounded and no_growth and deriv_min >= 1.0 and self_ok
    record_acceptance(
        "bound-certificates", passed,
        "; ".join(detail_bits) + f"; lemma5 min {deriv_min:.4f}; "
        f"refinement self-consistency {'ok' if self_ok else 'BROKEN'}")
    assert bounded, "a first-derivative-test ratio escaped its cap"
    assert no_growth
    assert deriv_min >= 1.0
    assert self_ok


def test_structural_identity(table_2e4):
    m_scale, delta = 1.0e4, 2.0e3
    weight = build_weight(m_scale, delta)
    worst_rel = 0.0
    for k in (1, 2, 3):
        point = unit_point(k)
        got = theorem_integral(point, weight, table_2e4)
        ref = riemann_mean_square(m_scale, delta, point.h, k, table_2e4.a,
                                  weight, 10 ** 6)
        worst_rel = max(worst_rel, abs(got - ref) / ref)
    oracle_ok = worst_rel <= 1e-4

    sym_rel = 0.0
    for k, h in ((5, 1), (5, 2), (3, 1)):
        left = theorem_integral(make_rational_point(h, k), weight, table_2e4)
        right = theorem_integral(make_rational_point(k - h, k), weight,
                                 table_2e4)
        sym_rel = max(sym_rel, abs(left - right) / left)
    sym_ok = sym_rel <= 1e-9

    record_acceptance(
        "structural-identity", oracle_ok and sym_ok,
        f"dense-oracle rel err {worst_rel:.2e} <= 1e-4 at k in (1, 2, 3); "
        f"h <-> k-h rel diff {sym_rel:.2e} <= 1e-9")
    assert oracle_ok
    assert sym_ok


def test_window_lower_bound(table_1e6):
    delta = 1.0e3
    rng = np.random.default_rng(_SEED)
    starts = np.sort(rng.uniform(delta, table_1e6.n_max - 2.0 * delta, 100))
    stat = omega_statistic(starts, delta, table_1e6)

    rng2 = np.random.default_rng(_SEED)
    starts2 = np.sort(rng2.uniform(delta, table_1e6.n_max - 2.0 * delta, 100))
    again = omega_statistic(starts2, delta, table_1e6)
    reproduced = (np.array_equal(stat.values, again.values)
                  and stat.max == again.max)

    passed = stat.max >= OMEGA_THRESHOLD and reproduced
    record_acceptance(
        "window-lower-bound", passed,
        f"max |sum| / sqrt(delta) = {stat.max:.6f} >= recorded threshold "
        f"{OMEGA_THRESHOLD}; rerun bit-identical: {reproduced}")
    assert stat.max >= OMEGA_THRESHOLD
    assert reproduced


def test_cli_reproducibility(tmp_path):
    table = tmp_path / "tau.cache"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"table = {table}\n"
        "n = 21000\n"
        "ms = 1e4\n"
        "ks = 1, 2\n"
        "seed = 20260815\n"
        "omega_windows = 15\n"
        "omega_threshold = 0.05\n"
        "voronoi_ms = 1e4\n"
        "voronoi_ks = 1, 3\n"
        "voronoi_samples = 6\n",
        encoding="utf-8",
    )

    assert cli_main(["coeffs", "--config", str(cfg)]) == 0
    first_cache = table.read_bytes()
    assert cli_main(["coeffs", "--config", str(cfg)]) == 0
    stable = {"coeffs cache": table.read_bytes() == first_cache}

    for command in ("verify-lemmas", "meansquare", "voronoi", "omega"):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}-{run}"
            assert cli_main([command, "--config", str(cfg),
                             "--out", str(out), "--json"]) == 0
            outs.append({p.name: p.read_bytes()
                         for p in sorted(out.iterdir())})
        stable[command] = outs[0] == outs[1]

    passed = all(stable.values())
    record_acceptance(
        "cli-reproducibility", passed,
        "byte-identical reruns: "
        + ", ".join(f"{name} {'yes' if ok else 'NO'}"
                    for name, ok in stable.items()))
    assert passed, f"unstable outputs: {stable}"
