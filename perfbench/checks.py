"""Output checks for every benchmark command.

A command fails when its exit code is wrong or an output disagrees with the
references: the committed files under refs/ for the seed-independent
commands, and independent recomputations from the coefficient cache for the
seeded ones (voronoi samples, omega windows). Exact quantities (digests, row
counts, integer columns, verdicts, Deligne and Hecke results) must match
exactly; floating values must agree within REL_TOL. Each check returns a
list of problems, empty when the command passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import struct
from pathlib import Path

import numpy as np

REFS = Path(__file__).resolve().parent / "refs"

# Fixed by the benchmark: a change that needs a looser tolerance is a change
# of results, not of speed.
REL_TOL = 1e-9
ABS_TOL = 1e-12

_INT = re.compile(r"-?\d+")
_MAX_PROBLEMS = 5


def load_ref(name: str) -> dict:
    return json.loads((REFS / name).read_text(encoding="utf-8"))


def close(got: float, ref: float) -> bool:
    return abs(got - ref) <= REL_TOL * abs(ref) + ABS_TOL


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ValueError(f"{Path(path).name} is empty")
    return rows[0], rows[1:]


def _cell_problem(got: str, ref: str) -> str | None:
    if _INT.fullmatch(ref) or got == ref:
        return None if got == ref else f"{got!r} != {ref!r}"
    try:
        ok = close(float(got), float(ref))
    except ValueError:
        return f"{got!r} != {ref!r}"
    return None if ok else f"{got} differs from {ref} past rel {REL_TOL:g}"


def compare_csv(got_path, ref_path) -> list[str]:
    """Row-by-row comparison on the reference's columns, looked up by name,
    so a report may gain columns without failing."""
    name = Path(got_path).name
    got_head, got_rows = read_csv(got_path)
    ref_head, ref_rows = read_csv(ref_path)
    missing = [c for c in ref_head if c not in got_head]
    if missing:
        return [f"{name}: missing columns {missing}"]
    if len(got_rows) != len(ref_rows):
        return [f"{name}: {len(got_rows)} rows, expected {len(ref_rows)}"]
    cols = [got_head.index(c) for c in ref_head]
    problems = []
    for i, (got, ref) in enumerate(zip(got_rows, ref_rows), start=1):
        for col, j in zip(ref_head, cols):
            problem = _cell_problem(got[j], ref[ref_head.index(col)])
            if problem:
                problems.append(f"{name} row {i} {col}: {problem}")
                if len(problems) >= _MAX_PROBLEMS:
                    return problems
    return problems


def _compare_values(label: str, got, ref) -> list[str]:
    """Nested JSON values: floats within REL_TOL, everything else exact."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{label}: expected an object"]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{label}.{key}: missing")
            else:
                out.extend(_compare_values(f"{label}.{key}", got[key], value))
        return out
    if isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        return [] if close(float(got), ref) else [f"{label}: {got} != {ref}"]
    return [] if got == ref else [f"{label}: {got!r} != {ref!r}"]


def _exit(name: str, code: int, expected: int) -> list[str]:
    return [] if code == expected else [f"{name} exited {code}, expected {expected}"]


def _read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_normalized(path) -> np.ndarray:
    """a(n) = tau(n) / n^5.5 straight from the cache's 128-bit records,
    without the package: lo is unsigned, hi carries the sign."""
    data = Path(path).read_bytes()
    (n,) = struct.unpack_from("<Q", data, 12)
    if len(data) != 20 + 16 * n:
        raise ValueError(f"{path}: {len(data)} bytes for {n} records")
    rec = np.frombuffer(data, dtype="<u8", offset=20, count=2 * n).reshape(n, 2)
    lo, hi = rec[:, 0].copy(), rec[:, 1].copy()
    # magnitude of negative records by two's complement, so that lo and hi
    # never cancel in floating point
    neg = (hi >> np.uint64(63)).astype(bool)
    lo[neg] = ~lo[neg] + np.uint64(1)
    hi[neg] = ~hi[neg] + (lo[neg] == 0).astype(np.uint64)
    tau = hi.astype(float) * 2.0 ** 64 + lo.astype(float)
    tau[neg] = -tau[neg]
    return tau / np.arange(1, n + 1, dtype=float) ** 5.5


# -- cold-table ---------------------------------------------------------

def check_coeffs(out_dir: Path, cache: Path, code: int) -> list[str]:
    ref = load_ref("cold-table.json")["coeffs"]
    problems = _exit("coeffs", code, 0)
    if problems:
        return problems
    digest = sha256_file(cache)
    if digest != ref["sha256"]:
        problems.append(f"cache sha256 {digest} != {ref['sha256']}")
    report = _read_json(out_dir / "coeffs.json")
    problems += _compare_values("coeffs.json", report, ref)
    return problems


def check_certify(out_dir: Path, code: int) -> list[str]:
    ref = load_ref("cold-table.json")["certify"]
    problems = _exit("certify", code, 0)
    if problems:
        return problems
    return _compare_values("certify.json", _read_json(out_dir / "certify.json"),
                           ref)


# -- sweep ------------------------------------------------------------

def check_meansquare(out_dir: Path, code: int) -> list[str]:
    ref = load_ref("sweep.json")
    problems = _exit("meansquare", code, 0)
    if problems:
        return problems
    problems = compare_csv(out_dir / "meansquare.csv", REFS / "meansquare.csv")
    report = _read_json(out_dir / "meansquare.json")
    if len(report.get("rows", ())) != ref["rows"]:
        problems.append(f"meansquare.json: {len(report.get('rows', ()))} rows, "
                        f"expected {ref['rows']}")
    for key in ("exponent_fit", "ratio_min", "ratio_max"):
        problems += _compare_values(f"meansquare.json {key}", report.get(key),
                                    ref[key])
    return problems


# -- scan -------------------------------------------------------------

_AMPLITUDE = 1.0 / (math.pi * math.sqrt(2.0))


def _roots(k: int) -> np.ndarray:
    return np.exp((2j * np.pi / k) * np.arange(k))


def _point(k: int) -> tuple[int, int]:
    """(h, h_bar) of the CLI's point at denominator k: 0/1 or 1/k."""
    return (0, 0) if k == 1 else (1, 1)


def oracle_long_sum(a: np.ndarray, x: float, k: int) -> complex:
    h, _ = _point(k)
    ns = np.arange(1, math.floor(x) + 1, dtype=np.int64)
    return complex(np.sum(a[: ns.size] * _roots(k)[(ns * h) % k]))


def oracle_main_term(a: np.ndarray, x: float, k: int, n: int,
                     shift: float) -> complex:
    """(pi sqrt 2)^-1 sqrt(k) x^(1/4) sum_{m<=n} a(m) e_k(-m hbar) m^(-3/4)
    cos(4 pi sqrt(m x)/k + shift)."""
    _, h_bar = _point(k)
    ms = np.arange(1, n + 1, dtype=np.int64)
    mf = ms.astype(float)
    terms = (a[:n] * _roots(k)[(-ms * h_bar) % k] * mf ** -0.75
             * np.cos((4.0 * np.pi / k) * np.sqrt(mf * x) + shift))
    return complex(_AMPLITUDE * math.sqrt(k) * x ** 0.25 * np.sum(terms))


def voronoi_samples(seed: int, scales, ks, samples: int) -> list[np.ndarray]:
    """The x grid the seed selects, one sorted block per (scale, k)."""
    rng = np.random.default_rng(seed)
    return [np.sort(rng.uniform(m, 2.0 * m, samples))
            for m in sorted(scales) for _ in sorted(set(ks))]


def _envelope(xs, errs, ns, ks) -> tuple[float, float]:
    keep = errs > 0.0
    y = np.log(errs[keep] * np.sqrt(ns[keep]) / (ks[keep] * np.sqrt(xs[keep])))
    slope, intercept = np.polyfit(np.log(xs[keep]), y, 1)
    return float(math.exp(intercept)), float(slope)


def check_voronoi(out_dir: Path, code: int, seed: int,
                  a: np.ndarray) -> list[str]:
    ref = load_ref("scan.json")["voronoi"]
    problems = _exit("voronoi", code, 0)
    if problems:
        return problems
    head, rows = read_csv(out_dir / "voronoi.csv")
    col = {name: head.index(name) for name in ref["columns"] if name in head}
    if len(col) != len(ref["columns"]):
        return [f"voronoi.csv: missing columns "
                f"{sorted(set(ref['columns']) - set(col))}"]
    grids = voronoi_samples(seed, ref["scales"], ref["ks"], ref["samples"])
    if len(rows) != sum(g.size for g in grids):
        return [f"voronoi.csv: {len(rows)} rows, expected "
                f"{sum(g.size for g in grids)}"]
    table = {name: np.array([float(r[j]) for r in rows]) for name, j in col.items()}
    report = _read_json(out_dir / "voronoi.json")
    summaries = report.get("summaries", [])
    if len(summaries) != len(grids):
        problems.append(f"voronoi.json: {len(summaries)} summaries, "
                        f"expected {len(grids)}")
    groups = [(m, k) for m in sorted(ref["scales"]) for k in sorted(set(ref["ks"]))]
    for g, ((m, k), xs) in enumerate(zip(groups, grids)):
        block = slice(g * xs.size, (g + 1) * xs.size)
        if not all(close(v, ref_v) for v, ref_v in
                   zip(table["x_sample_index_units"][block], xs)):
            problems.append(f"voronoi.csv: x samples at M={m:g}, k={k} are "
                            f"not the ones seed {seed} selects")
            continue
        n_full = int(round(m))
        quarter = max(1, n_full // 4)
        for i in ref["checked_samples"]:
            x = float(xs[i])
            direct = oracle_long_sum(a, x, k)
            expect = {
                "err_phase0": abs(direct - oracle_main_term(a, x, k, n_full, 0.0)),
                "err_phase_pi4": abs(direct - oracle_main_term(
                    a, x, k, n_full, -math.pi / 4.0)),
                "err_phase_pi4_quarter_terms": abs(direct - oracle_main_term(
                    a, x, k, quarter, -math.pi / 4.0)),
                "err_phase_pi4_sixteenth_terms": abs(direct - oracle_main_term(
                    a, x, k, max(1, quarter // 4), -math.pi / 4.0)),
            }
            for name, value in expect.items():
                got = table[name][block][i]
                if not close(got, value):
                    problems.append(f"voronoi.csv {name} at M={m:g}, k={k}, "
                                    f"x={x!r}: {got!r} != {value!r}")
        if g < len(summaries):
            s = summaries[g]
            med = {name: float(np.median(table[name][block])) for name in
                   ("err_phase0", "err_phase_pi4", "err_phase_pi4_quarter_terms",
                    "err_phase_pi4_sixteenth_terms")}
            problems += _compare_values(f"voronoi.json summary {g}", s, {
                "m_scale": float(m), "k": k, "n_trunc": n_full,
                "median_err_phase0": med["err_phase0"],
                "median_err_phase_pi4": med["err_phase_pi4"],
                "decay_sixteenth_to_quarter":
                    med["err_phase_pi4_sixteenth_terms"]
                    / med["err_phase_pi4_quarter_terms"],
                "decay_quarter_to_full":
                    med["err_phase_pi4_quarter_terms"] / med["err_phase_pi4"],
            })
    ns = table["n_trunc_terms"]
    ks_col = table["k_denominator"]
    xs_col = table["x_sample_index_units"]
    for phase, name in (("envelope_phase_pi4", "err_phase_pi4"),
                        ("envelope_phase0", "err_phase0")):
        coeff, exponent = _envelope(xs_col, table[name], ns, ks_col)
        problems += _compare_values(f"voronoi.json {phase}",
                                    report.get(phase),
                                    {"coeff": coeff, "exponent": exponent})
    return problems[:_MAX_PROBLEMS]


def omega_starts(seed: int, n_max: int, delta: float, windows: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(delta, n_max - 2.0 * delta, windows))


def omega_sums(a: np.ndarray, starts, delta: float) -> np.ndarray:
    """|sum of a(n) over m <= n <= m + delta| per window start m."""
    return np.array([abs(np.sum(a[math.ceil(m) - 1: math.floor(m + delta)]))
                     for m in starts])


def check_omega(out_dir: Path, code: int, seed: int,
                a: np.ndarray) -> list[str]:
    """Every window sum is recomputed. Exit 1 with ``cleared: false`` is the
    documented verdict when no window reaches the threshold, not a failure."""
    ref = load_ref("scan.json")["omega"]
    delta = ref["delta"]
    starts = omega_starts(seed, a.size, delta, ref["windows"])
    sums = omega_sums(a, starts, delta)
    normalized = sums / math.sqrt(delta)
    cleared = bool(normalized.max() >= ref["threshold"])
    problems = _exit("omega", code, 0 if cleared else 1)
    if problems:
        return problems
    head, rows = read_csv(out_dir / "omega.csv")
    if len(rows) != starts.size:
        return [f"omega.csv: {len(rows)} rows, expected {starts.size}"]
    expect = {"window_start_index_units": starts,
              "sum_abs_coefficient_units": sums,
              "sum_abs_per_sqrt_window_length": normalized}
    for name, values in expect.items():
        if name not in head:
            problems.append(f"omega.csv: missing column {name}")
            continue
        j = head.index(name)
        bad = [i for i, r in enumerate(rows) if not close(float(r[j]), values[i])]
        if bad:
            problems.append(f"omega.csv {name}: {len(bad)} rows off, first "
                            f"row {bad[0] + 1}")
    report = _read_json(out_dir / "omega.json")
    problems += _compare_values("omega.json", report, {
        "windows": starts.size, "delta": delta, "threshold": ref["threshold"],
        "cleared": cleared, "max": float(normalized.max()),
        "rms": float(np.sqrt(np.mean(normalized ** 2))),
    })
    return problems


def check_verify_lemmas(out_dir: Path, code: int) -> list[str]:
    ref = load_ref("scan.json")["verify-lemmas"]
    problems = _exit("verify-lemmas", code, 0)
    if problems:
        return problems
    problems += compare_csv(out_dir / "lemma_bounds.csv",
                            REFS / "lemma_bounds.csv")
    problems += compare_csv(out_dir / "lemma5_ratios.csv",
                            REFS / "lemma5_ratios.csv")
    problems += _compare_values("lemmas.json",
                                _read_json(out_dir / "lemmas.json"), ref)
    return problems
