"""Record the end-to-end benchmark of two checkouts into one BENCH_*.json.

Run from the repository root, with a second checkout of the commit to
compare against (made with ``git clone`` or ``git archive``):

    python3 benchmarks/record.py --parent ../parent --change . \\
        --pairs 10 --out BENCH_kernel.json

The workloads, the run length, the command and the end-to-end metrics with
their ``better`` directions come from the change checkout's BENCHMARK.json.
For every workload the script runs each checkout's own, unchanged benchmark
command with ``--trace 0`` once per pair, alternating which side goes
first; pair i uses seed FIRST_SEED + i on both sides. It reads the metrics
from the JSON object on the last line of the command's stdout and writes a
new output file holding both commits (null for a checkout with no ``.git``
of its own), the environment, and per side and workload every run's values
with their median and quartiles, and per workload how many pairs the
change won on each metric (ties count for neither side).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
FIRST_SEED = 101


def commit_of(checkout: Path) -> str | None:
    """Short commit id of the checkout, marked when its tree has edits.

    None for a checkout with no ``.git`` of its own, such as an extracted
    ``git archive``: git would refuse it, or inside another work tree
    report that tree's commit.
    """
    if not (checkout / ".git").exists():
        return None
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True, check=True).stdout
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=checkout, capture_output=True, text=True,
                           check=True).stdout
    return head.strip() + ("+edits" if dirty.strip() else "")


def run_once(bench: dict, checkout: Path, workload: str, seed: int) -> dict:
    """End-to-end metrics of one benchmark run in the checkout."""
    proc = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(bench["run_seconds"]), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} {workload} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in report["metrics"].items()}


def summary(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def record(bench: dict, checkouts: dict, workload: str,
           pairs: int) -> tuple[dict, dict]:
    """(per-side summaries, change wins per metric) over alternating pairs."""
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            metrics = run_once(bench, checkouts[side], workload, FIRST_SEED + i)
            runs[side].append(metrics)
            print(f"{workload} pair {i} {side}: " + " ".join(
                f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)
    sides = {side: {name: summary([r[name] for r in runs[side]])
                    for name in better} for side in SIDES}
    wins = {}
    for name, direction in better.items():
        wins[name] = sum(1 for old, new in zip(runs["parent"], runs["change"])
                         if new[name] != old[name]
                         and (new[name] < old[name]) == (direction == "lower"))
    return sides, wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the commit compared against")
    parser.add_argument("--change", type=Path, default=Path("."),
                        help="checkout holding the change (default: here)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True,
                        help="new BENCH_*.json to write; required, so no "
                             "committed record is overwritten by default")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]

    payload = {"environment": {"python": platform.python_version(),
                               "machine": platform.machine()},
               "settings": {"pairs": args.pairs,
                            "run_seconds": bench["run_seconds"],
                            "seeds": [FIRST_SEED, FIRST_SEED + args.pairs - 1]},
               "change_wins": {}}
    for side in SIDES:
        payload[side] = {"commit": commit_of(checkouts[side])}
    for workload in workloads:
        sides, wins = record(bench, checkouts, workload, args.pairs)
        for side in SIDES:
            payload[side][workload] = sides[side]
        payload["change_wins"][workload] = wins
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    for workload in workloads:
        for name, wins in payload["change_wins"][workload].items():
            old = payload["parent"][workload][name]
            new = payload["change"][workload][name]
            print(f"{workload} {name}: parent median {old['median']:.4g} "
                  f"[{old['q1']:.4g}, {old['q3']:.4g}], change median "
                  f"{new['median']:.4g} [{new['q1']:.4g}, {new['q3']:.4g}], "
                  f"change won {wins}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
