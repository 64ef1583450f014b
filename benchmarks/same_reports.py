"""Check that two checkouts write byte-identical reports.

Run from the repository root, with a second checkout of the commit to
compare against (made with ``git clone`` or ``git archive``) and a
coefficient cache of at least 10^6 entries:

    python3 benchmarks/same_reports.py --parent ../parent --change . \\
        --table .bench_build/perfbench/tau1e6.cache

In each checkout the script runs the command line from that checkout's
``src/`` with ``--json`` and ``OPENBLAS_NUM_THREADS=1``:

- ``coeffs --n 30000`` into a fresh temporary directory, under the same
  relative cache name on both sides, because coeffs.json records the path;
- ``verify-lemmas``, ``voronoi`` and ``omega`` on the given cache, once
  with the checkout's perfbench/configs/scan.cfg and ``--seed 7`` and once
  with the defaults;
- ``meansquare`` on the given cache with the defaults and with the
  checkout's perfbench/configs/sweep.cfg;
- ``meansquare`` and ``verify-lemmas`` on the given cache with the three
  keys of the row rule (``delta_coeff``, ``delta_exponent``,
  ``rise_fraction``) away from their defaults, and a grid that drops one
  (M, k) pair and leaves too few rows for the exponent fit;
- one refusal per non-zero exit code, so that the refusal messages are
  compared too: ``meansquare`` with ``ms = 1e4`` and ``ks = 11`` (an empty
  sweep, exit 1), ``verify-lemmas`` with ``node_budget = 20`` (exit 2) and
  ``omega --table missing.cache`` (exit 3).

The configs of the rule and refusal runs are written with the same text
into each side's work directory.

It compares every output file, stdout, stderr and exit code, prints each
one that differs and exits 1 if any does, 0 otherwise. Comparing stderr
makes a new warning, say from numpy, show up as a difference. For a CSV file present on
both sides it also prints the numbers of the differing data rows, counted
from 1 after the header, at most ten of them.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
COEFFS_CACHE = "tau30000.cache"
# config file -> text, written into each side's work directory
WORK_CONFIGS = {"row-rule.cfg": "ms = 1e4, 1e5\nks = 1, 3, 11\n"
                                "delta_coeff = 3.0\ndelta_exponent = 0.6\n"
                                "rise_fraction = 0.125\n",
                "empty-sweep.cfg": "ms = 1e4\nks = 11\n",
                "tiny-budget.cfg": "node_budget = 20\n"}
ROWS_SHOWN = 10


def commands(checkout: Path, table: Path) -> dict:
    """Run name -> command-line arguments of that run in the checkout."""
    scan = ["--config", str(checkout / "perfbench/configs/scan.cfg"), "--seed", "7"]
    sweep = ["--config", str(checkout / "perfbench/configs/sweep.cfg")]
    cached = ["--json", "--table", str(table)]
    out = {"coeffs": ["coeffs", "--n", "30000", "--json", "--table", COEFFS_CACHE]}
    for command in ("verify-lemmas", "voronoi", "omega"):
        out[f"{command}-scan"] = [command, *scan, *cached]
        out[f"{command}-default"] = [command, *cached]
    out["meansquare-default"] = ["meansquare", *cached]
    out["meansquare-sweep"] = ["meansquare", *sweep, *cached]
    for command in ("meansquare", "verify-lemmas"):
        out[f"{command}-rule"] = [command, "--config", "row-rule.cfg", *cached]
    out["meansquare-invalid"] = ["meansquare", "--config", "empty-sweep.cfg",
                                 *cached]
    out["verify-lemmas-budget"] = ["verify-lemmas", "--config",
                                   "tiny-budget.cfg", *cached]
    out["omega-io"] = ["omega", "--json", "--table", "missing.cache"]
    return out


def run_side(side: str, checkout: Path, table: Path, work: Path) -> dict:
    """Run name -> (exit code, stdout, stderr, {output file: bytes}) in one
    checkout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for name, text in WORK_CONFIGS.items():
        (work / name).write_text(text, encoding="utf-8")
    results = {}
    for name, args in commands(checkout, table).items():
        out_dir = work / name
        proc = subprocess.run(
            [sys.executable, "-m", "cuspsums.cli", *args, "--out", name],
            cwd=work, env=env, capture_output=True, text=True)
        files = {p.relative_to(out_dir).as_posix(): p.read_bytes()
                 for p in sorted(out_dir.rglob("*")) if p.is_file()}
        if name == "coeffs" and (work / COEFFS_CACHE).is_file():
            files[COEFFS_CACHE] = (work / COEFFS_CACHE).read_bytes()
        results[name] = (proc.returncode, proc.stdout, proc.stderr, files)
        print(f"{side}: {name} exited {proc.returncode}, "
              f"{len(files)} files", flush=True)
    return results


def differing_rows(old: bytes, new: bytes) -> str:
    """The numbers of the CSV data rows that differ, header excluded."""
    rows0 = old.decode().splitlines()[1:]
    rows1 = new.decode().splitlines()[1:]
    rows = [i + 1 for i in range(max(len(rows0), len(rows1)))
            if rows0[i:i + 1] != rows1[i:i + 1]]
    more = ", ..." if len(rows) > ROWS_SHOWN else ""
    return (f"{len(rows)} data rows differ: "
            f"{', '.join(map(str, rows[:ROWS_SHOWN]))}{more}")


def differences(parent: dict, change: dict) -> list[str]:
    """One line per exit code, stdout, stderr or output file that differs."""
    out = []
    for name in parent:
        code0, stdout0, stderr0, files0 = parent[name]
        code1, stdout1, stderr1, files1 = change[name]
        if code0 != code1:
            out.append(f"{name}: exit code {code0} -> {code1}")
        if stdout0 != stdout1:
            out.append(f"{name}: stdout differs")
        if stderr0 != stderr1:
            out.append(f"{name}: stderr differs")
        for path in sorted(set(files0) | set(files1)):
            if files0.get(path) == files1.get(path):
                continue
            if path in files0 and path in files1:
                rows = (f" ({differing_rows(files0[path], files1[path])})"
                        if path.endswith(".csv") else "")
                out.append(f"{name}: {path} differs{rows}")
            else:
                out.append(f"{name}: {path} only on the "
                           f"{'parent' if path in files0 else 'change'} side")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the commit compared against")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout holding the change")
    parser.add_argument("--table", type=Path, required=True,
                        help="coefficient cache with at least 10^6 entries")
    args = parser.parse_args(argv)
    table = args.table.resolve()
    if not table.is_file():
        parser.error(f"no coefficient cache at {table}")

    with tempfile.TemporaryDirectory(prefix="same-reports-") as tmp:
        results = {}
        for side in SIDES:
            work = Path(tmp) / side
            work.mkdir()
            results[side] = run_side(side, getattr(args, side).resolve(), table, work)
    diffs = differences(results["parent"], results["change"])
    for line in diffs:
        print(f"DIFFERS {line}")
    n_files = sum(len(files) for *_, files in results["parent"].values())
    if diffs:
        print(f"{len(diffs)} differences over {len(results['parent'])} runs")
        return 1
    print(f"same: {len(results['parent'])} runs, {n_files} output files, "
          "every stdout, stderr and exit code identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
