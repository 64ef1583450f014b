"""Regenerate the committed references under perfbench/refs/.

    python3 perfbench/make_refs.py

The references are the outputs of the seed-independent commands (coeffs and
certify at run.COLD_N, meansquare, verify-lemmas, each with its workload's
config) plus the config values that the seeded checks recompute against. Regenerate them only in a change that
alters results on purpose and says why; a change that claims speed leaves
refs/ untouched. Needs the 10^6 fixture, which run.py builds on first use.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # pins the BLAS threads before numpy loads
from checks import REFS, read_csv



def _run(argv, env, log) -> None:
    outcome = run.run_process(argv, env, log, run.RUN_BUDGET_S)
    if outcome.code != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {outcome.code}; see {log}")


def main() -> int:
    env = run.child_env()
    run.ensure_fixture(env)
    out = run.WORK / "refs-build"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cli = [sys.executable, "-m", "cuspsums.cli"]
    cache = out / f"tau{run.COLD_N}.cache"
    _run(cli + ["coeffs", "--n", str(run.COLD_N), "--table", str(cache),
                "--out", str(out), "--json"], env, out / "coeffs.log")
    _run([sys.executable, str(run.CHILD), "certify", str(cache),
          str(out / "certify.json")], env, out / "certify.log")
    for name, config in (("meansquare", "sweep.cfg"), ("verify-lemmas", "scan.cfg")):
        _run(cli + [name, "--config", str(run.CONFIGS / config),
                    "--table", str(run.FIXTURE), "--out", str(out), "--json"],
             env, out / f"{name}.log")

    def load(name):
        return json.loads((out / name).read_text(encoding="utf-8"))

    coeffs = load("coeffs.json")
    _write("cold-table.json", {
        "coeffs": {k: coeffs[k] for k in ("n", "bytes", "sha256", "tau_last")},
        "certify": load("certify.json"),
    })
    meansquare = load("meansquare.json")
    _write("sweep.json", {
        "rows": len(meansquare["rows"]),
        **{k: meansquare[k] for k in ("exponent_fit", "ratio_min", "ratio_max")},
    })
    lemmas = load("lemmas.json")
    sys.path.insert(0, str(run.SRC))
    from cuspsums.config import load_config

    cfg = load_config(run.CONFIGS / "scan.cfg")
    samples = cfg.voronoi_samples
    voronoi_cols = ["m_scale_index_units", "k_denominator", "x_sample_index_units",
                    "n_trunc_terms", "err_phase0", "err_phase_pi4",
                    "err_phase_pi4_quarter_terms", "err_phase_pi4_sixteenth_terms"]
    _write("scan.json", {
        "verify-lemmas": {k: lemmas[k] for k in (
            "rows", "bounded", "max_ratio", "min_derivative_ratio",
            "stated_ratio_cap")},
        "voronoi": {"scales": list(cfg.voronoi_ms), "ks": list(cfg.voronoi_ks),
                    "samples": samples,
                    "checked_samples": [0, samples // 2, samples - 1],
                    "columns": voronoi_cols},
        "omega": {"delta": cfg.omega_delta, "windows": cfg.omega_windows,
                  "threshold": cfg.omega_threshold},
    })
    for name in ("meansquare.csv", "lemma_bounds.csv", "lemma5_ratios.csv"):
        read_csv(out / name)  # refuse to copy an empty report
        shutil.copyfile(out / name, REFS / name)
    print(f"references written to {REFS}")
    return 0


def _write(name: str, payload: dict) -> None:
    REFS.mkdir(exist_ok=True)
    (REFS / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
