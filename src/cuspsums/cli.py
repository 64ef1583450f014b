"""Command-line driver: coeffs, verify-lemmas, meansquare, voronoi, omega.

Every command reads one flat config file (all keys optional), writes its
artifacts under the output directory, and prints a short deterministic
summary.  Exit codes: 0 success, 1 validation failure, 2 numerical
budget refusal, 3 I/O failure.

Each command imports the numerical layers it calls when it runs, and reads
only the prefix of the coefficient cache that it needs.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .calibrated import STATED_RATIO_MAX
from .coeffs import generate_tau, load_cache, save_cache
from .config import ExperimentConfig, config_lines, load_config
from .errors import CoefficientOverflowError, NodeBudgetError
from .rational import unit_point
from .reporting import (sha256_file, sha256_text, svg_line_plot, write_csv,
                        write_json, write_svg)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2
EXIT_IO = 3

# (m, n) pairs exercised by verify-lemmas; spread from near-degenerate
# to well-separated frequencies
_LEMMA_PAIRS = ((1, 2), (2, 3), (1, 4), (3, 5), (4, 9), (9, 10))
_LEMMA5_GRID = (1.0e3, 1.0e5, 129)
# how meansquare rows measure I: summed over the exact step series
_INTEGRAL_METHOD = "exact-step"
# each meansquare row's (meansquare.csv column, meansquare.json key)
_ROW_COLUMNS = (
    ("m_window_start_index", "m"),
    ("k_denominator", "k"),
    ("h_numerator", "h"),
    ("delta_window_length_index_units", "delta"),
    ("integral_weighted_index_units", "integral"),
    ("diagonal_term_index_units", "diagonal"),
    ("ratio_integral_over_delta_sqrt_m", "ratio"),
    ("method", "method"),
    ("diagonal_slack", "diagonal_slack"),
    ("diagonal_n_exact", "diagonal_n_exact"),
    ("diagonal_flagged", "diagonal_flagged"),
)


def _provenance(cfg: ExperimentConfig, table_sha256: str | None) -> dict:
    """Version plus content fingerprints; no wall clock, so reruns match.

    table_sha256 is the digest of the cache the command read, or None for a
    command that reads no cache.
    """
    return {
        "package": "cuspsums",
        "version": __version__,
        "config_sha256": sha256_text(config_lines(cfg)),
        "table_sha256": table_sha256,
    }


def _load_table(cfg: ExperimentConfig, n: int | None = None):
    """The cache's first n coefficients (all of them for n None), after a
    missing cache has been refused with a hint."""
    path = Path(cfg.table)
    if not path.is_file():
        raise FileNotFoundError(
            f"coefficient cache {str(path)!r} not found; create it with: "
            f"cuspsums coeffs --table {path}"
        )
    return load_cache(path, n)


def cmd_coeffs(cfg: ExperimentConfig, out_dir: Path, emit_json: bool) -> int:
    table = generate_tau(cfg.n)
    save_cache(table, cfg.table)
    size = Path(cfg.table).stat().st_size
    digest = sha256_file(cfg.table)
    lo, hi = table.records[-1].item()       # tau(n); the rest stays undecoded
    print(f"coefficients: {cfg.n}")
    print(f"cache: {cfg.table}")
    print(f"bytes: {size}")
    print(f"sha256: {digest}")
    print(f"tau({cfg.n}) = {lo + (hi << 64)}")
    if emit_json:
        write_json(out_dir / "coeffs.json", {
            "n": cfg.n,
            "cache": str(cfg.table),
            "bytes": size,
            "sha256": digest,
            "tau_last": str(lo + (hi << 64)),
            "provenance": _provenance(cfg, digest),
        })
    return EXIT_OK


def cmd_verify_lemmas(cfg: ExperimentConfig, out_dir: Path,
                      emit_json: bool) -> int:
    from .oscillatory import (l3_spec, l4_spec, l5_spec, lemma5_derivative_check,
                              oscillatory_integral, stated_bound)
    from .weight import window_weight

    m_scale = cfg.ms[0]
    lemma5_grid = np.geomspace(*_LEMMA5_GRID)
    bound_rows = []
    deriv_rows = []
    for k in cfg.ks:
        weight = window_weight(m_scale, k, cfg)
        point = unit_point(k)
        for m, n in _LEMMA_PAIRS:
            specs = (("L3", l3_spec(m, n, point)),
                     ("L4", l4_spec(m, n, point)),
                     ("L5", l5_spec(m, n, point)))
            for family, spec in specs:
                value = abs(oscillatory_integral(
                    weight, spec, node_budget=cfg.node_budget))
                for p in (1, 2):
                    bound = stated_bound(spec, p, weight)
                    bound_rows.append((family, m, n, k, p, value, bound,
                                       value / bound))
            ratio = lemma5_derivative_check(l5_spec(m, n, point), lemma5_grid)
            deriv_rows.append((m, n, k, ratio))

    bound_rows.sort()
    deriv_rows.sort()
    n_bounds = write_csv(out_dir / "lemma_bounds.csv", (
        "family", "m_frequency_index", "n_frequency_index", "k_denominator",
        "p_derivative_order", "integral_abs_dimensionless",
        "stated_bound_dimensionless", "ratio_integral_over_bound_dimensionless",
    ), bound_rows)
    write_csv(out_dir / "lemma5_ratios.csv", (
        "m_frequency_index", "n_frequency_index", "k_denominator",
        "min_ratio_derivative_over_lower_bound_dimensionless",
    ), deriv_rows)

    worst = max(r[7] for r in bound_rows)
    deriv_min = min(r[3] for r in deriv_rows)
    bounded = (np.isfinite(worst) and worst <= STATED_RATIO_MAX
               and deriv_min >= 1.0)
    print(f"lemma bound rows: {n_bounds}")
    print(f"max ratio: {worst:.6e} (cap {STATED_RATIO_MAX})")
    print(f"min derivative ratio: {deriv_min:.6f} (needs >= 1)")
    print(f"verdict: {'bounded' if bounded else 'BOUND EXCEEDED'}")
    if emit_json:
        write_json(out_dir / "lemmas.json", {
            "rows": n_bounds,
            "max_ratio": worst,
            "stated_ratio_cap": STATED_RATIO_MAX,
            "min_derivative_ratio": deriv_min,
            "bounded": bool(bounded),
            "provenance": _provenance(cfg, None),
        })
    return EXIT_OK if bounded else EXIT_INVALID


def cmd_meansquare(cfg: ExperimentConfig, out_dir: Path,
                   emit_json: bool) -> int:
    from .meansquare import exponent_fit, run_sweep, sweep_grid, sweep_reach

    grid = sweep_grid(cfg)
    table = _load_table(cfg, sweep_reach(grid))
    results = run_sweep(table, grid)
    rows = [(r.m, r.point.k, r.point.h, r.delta, r.integral,
             float(r.diagonal), r.ratio, _INTEGRAL_METHOD, r.diagonal.slack,
             r.diagonal.n_exact, len(r.diagonal.flagged)) for r in results]
    n_rows = write_csv(out_dir / "meansquare.csv",
                       [column for column, _ in _ROW_COLUMNS], rows)

    try:
        fit = exponent_fit(results)
        fit_info = asdict(fit)
        fit_line = f"fit: alpha={fit.alpha:.4f} beta={fit.beta:.4f}"
    except ValueError as exc:
        fit_info = {"error": str(exc)}
        fit_line = f"fit: unavailable ({exc})"

    series = []
    for k in cfg.ks:
        pts = [(r.m, r.integral / r.delta) for r in results if r.point.k == k]
        if pts:
            series.append((f"k = {k}", [p[0] for p in pts],
                           [p[1] for p in pts]))
    write_svg(out_dir / "meansquare.svg", svg_line_plot(
        series, "Weighted mean square of short sums",
        "window start M", "integral / Delta"))

    ratios = [r.ratio for r in results]
    print(f"sweep rows: {n_rows}")
    pairs = len(cfg.ms) * len(cfg.ks)
    if len(grid) < pairs:
        print(f"sweep: dropped {pairs - len(grid)} of {pairs} (M, k) pairs "
              "with k > M^(1/4)")
    print(fit_line)
    print(f"ratio range: [{min(ratios):.6e}, {max(ratios):.6e}]")
    for r in results:
        flagged = r.diagonal.flagged
        if flagged:
            print(f"diagonal flagged at M={r.m:.6e} k={r.point.k}: "
                  f"{len(flagged)} of {r.diagonal.n_exact} exact brackets "
                  f"at the trivial bound (n = {', '.join(map(str, flagged))})")
    if emit_json:
        write_json(out_dir / "meansquare.json", {
            "config": list(config_lines(cfg)),
            "rows": [{key: value for (_, key), value in zip(_ROW_COLUMNS, row)}
                     for row in rows],
            "exponent_fit": fit_info,
            "ratio_min": min(ratios),
            "ratio_max": max(ratios),
            "provenance": _provenance(cfg, sha256_file(cfg.table)),
        })
    return EXIT_OK


def _median(values) -> float:
    """np.median of a 1-d array, without the numpy.ma import np.median makes:
    the mean of the middle two sorted values (an odd size takes the middle
    one twice, and (a + a)/2 is a); NaN if any value is NaN."""
    ordered = np.sort(values)
    if np.isnan(ordered[-1]):       # sort puts every NaN last
        return math.nan
    return float((ordered[(ordered.size - 1) // 2] + ordered[ordered.size // 2]) / 2.0)


def cmd_voronoi(cfg: ExperimentConfig, out_dir: Path, emit_json: bool) -> int:
    from .voronoi import VoronoiParams, fit_error_envelope, voronoi_error_scan

    reach = math.ceil(2.0 * cfg.voronoi_ms[-1])
    table = _load_table(cfg, reach)
    table.require(reach, "voronoi scan")

    rng = np.random.default_rng(cfg.seed)
    rows = []
    summaries = []
    for m_scale in cfg.voronoi_ms:
        for k in cfg.voronoi_ks:
            point = unit_point(k)
            xs = np.sort(rng.uniform(m_scale, 2.0 * m_scale,
                                     cfg.voronoi_samples))
            n_full = int(round(m_scale))
            # phase 0 at N, then phase -pi/4 at N, N/4 and N/16
            errs0, errs4, errs_quarter, errs_sixteenth = voronoi_error_scan(
                xs, [VoronoiParams(point, n_full, phase_shift=0.0)]
                + [VoronoiParams(point, max(1, n_full // d)) for d in (1, 4, 16)],
                table)
            for i, x in enumerate(xs):
                rows.append((m_scale, k, point.h, float(x), n_full,
                             errs0[i], errs4[i], errs_quarter[i],
                             errs_sixteenth[i]))
            med_full = _median(errs4)
            med_quarter = _median(errs_quarter)
            med_sixteenth = _median(errs_sixteenth)
            summaries.append({
                "m_scale": m_scale, "k": k, "n_trunc": n_full,
                "median_err_phase0": _median(errs0),
                "median_err_phase_pi4": med_full,
                "decay_sixteenth_to_quarter": med_sixteenth / med_quarter,
                "decay_quarter_to_full": med_quarter / med_full,
            })

    n_rows = write_csv(out_dir / "voronoi.csv", (
        "m_scale_index_units", "k_denominator", "h_numerator",
        "x_sample_index_units", "n_trunc_terms", "err_phase0",
        "err_phase_pi4", "err_phase_pi4_quarter_terms",
        "err_phase_pi4_sixteenth_terms",
    ), rows)

    _, k_col, _, x_col, n_col, err0_col, err4_col, _, _ = zip(*rows)
    env4 = fit_error_envelope(x_col, err4_col, n_col, k_col)
    env0 = fit_error_envelope(x_col, err0_col, n_col, k_col)
    # per-scale slope of log median error against log k
    slopes = {}
    for m_scale in cfg.voronoi_ms:
        meds = [(s["k"], s["median_err_phase_pi4"]) for s in summaries
                if s["m_scale"] == m_scale]
        if len(meds) >= 2:
            t = np.log([k for k, _ in meds])
            y = np.log([e for _, e in meds])
            slopes[f"{m_scale:.0f}"] = float(np.polyfit(t, y, 1)[0])

    print(f"scan rows: {n_rows}")
    print(f"envelope exponent (phase -pi/4): {env4.exponent:.4f} "
          f"coeff {env4.coeff:.4e}")
    print(f"envelope exponent (phase 0):     {env0.exponent:.4f} "
          f"coeff {env0.coeff:.4e}")
    for key in sorted(slopes):
        print(f"k-slope at M={key}: {slopes[key]:.4f}")
    if emit_json:
        write_json(out_dir / "voronoi.json", {
            "rows": n_rows,
            "summaries": summaries,
            "envelope_phase_pi4": asdict(env4),
            "envelope_phase0": asdict(env0),
            "k_slope_by_scale": slopes,
            "provenance": _provenance(cfg, sha256_file(cfg.table)),
        })
    return EXIT_OK


def cmd_omega(cfg: ExperimentConfig, out_dir: Path, emit_json: bool) -> int:
    from .meansquare import omega_statistic

    table = _load_table(cfg)
    delta = cfg.omega_delta
    table.require(math.ceil(3.0 * delta + 1.0), "omega windows")
    rng = np.random.default_rng(cfg.seed)
    starts = np.sort(rng.uniform(delta, table.n_max - 2.0 * delta,
                                 cfg.omega_windows))
    stat = omega_statistic(starts, delta, table)

    root = delta ** 0.5
    rows = [(float(m), delta, float(v * root), float(v))
            for m, v in zip(stat.ms, stat.values)]
    n_rows = write_csv(out_dir / "omega.csv", (
        "window_start_index_units", "window_length_index_units",
        "sum_abs_coefficient_units", "sum_abs_per_sqrt_window_length",
    ), rows)

    passed = stat.max >= cfg.omega_threshold
    print(f"windows: {n_rows}")
    print(f"max normalized sum: {stat.max:.6f}")
    print(f"rms normalized sum: {stat.rms:.6f}")
    print(f"threshold: {cfg.omega_threshold:.6f} "
          f"({'cleared' if passed else 'NOT CLEARED'})")
    if emit_json:
        write_json(out_dir / "omega.json", {
            "windows": n_rows,
            "delta": delta,
            "max": stat.max,
            "rms": stat.rms,
            "threshold": cfg.omega_threshold,
            "cleared": bool(passed),
            "seed": cfg.seed,
            "provenance": _provenance(cfg, sha256_file(cfg.table)),
        })
    return EXIT_OK if passed else EXIT_INVALID


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "verify-lemmas": cmd_verify_lemmas,
    "meansquare": cmd_meansquare,
    "voronoi": cmd_voronoi,
    "omega": cmd_omega,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="key = value configuration file")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (default from config)")
    common.add_argument("--table", metavar="PATH",
                        help="coefficient cache path (default from config)")
    common.add_argument("--seed", type=int, metavar="U64",
                        help="RNG seed override")
    common.add_argument("--json", action="store_true",
                        help="also write a JSON mirror of the report")

    parser = argparse.ArgumentParser(
        prog="cuspsums",
        description="numerical experiments on short sums of cusp-form "
                    "coefficients")
    parser.add_argument("--version", action="version",
                        version=f"cuspsums {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("coeffs", parents=[common],
                       help="build and cache the coefficient table")
    p.add_argument("--n", type=int, metavar="N",
                   help="coefficient count override")
    sub.add_parser("verify-lemmas", parents=[common],
                   help="oscillatory integral bounds against certificates")
    sub.add_parser("meansquare", parents=[common],
                   help="weighted mean-square sweep with diagonal tracking")
    sub.add_parser("voronoi", parents=[common],
                   help="truncated main-term error scan at both phases")
    sub.add_parser("omega", parents=[common],
                   help="normalized window sums against the threshold")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {"table": args.table, "out": args.out, "seed": args.seed}
        if args.command == "coeffs" and args.n is not None:
            overrides["n"] = args.n
        cfg = load_config(args.config, **overrides)
        return _COMMANDS[args.command](cfg, Path(cfg.out), args.json)
    except NodeBudgetError as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, CoefficientOverflowError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
