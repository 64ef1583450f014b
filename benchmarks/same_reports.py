"""Check that two checkouts write byte-identical reports, and count each run.

Run from the repository root, with a checkout of the commit to compare
against (made with ``git clone`` or ``git archive``) and a 10^6 cache:

    python3 benchmarks/same_reports.py --parent ../parent --change . \\
        --table .bench_build/perfbench/tau1e6.cache [--pairs N]

Each side runs the command line from its checkout's ``src/`` with
``--json`` and ``OPENBLAS_NUM_THREADS=1``, 21 runs in all (``commands``):
``coeffs``, each command on the given cache with the defaults and with
perfbench's configs, two with the row rule's keys moved, one refusal per
non-zero exit code and one usage error, so that the messages are compared
too, and
``cuspsums --help`` and ``<command> --help`` for every command, so that
every command, flag and help string is compared as well.

Each run starts in a fresh work directory, which holds the configs of the
rule and refusal runs, the files that take its stdout and stderr, outside
its output directory, and the coeffs cache, under one relative name
because coeffs.json records the path, never at ``--table``. Pair i of
``--pairs N`` (default 1) runs all 21 in each checkout, the parent first
when i is even. Every repeat of every run on both sides must match the
parent's first repeat in every output file, stdout, stderr and exit code,
so a run that differs from its own earlier repeat fails too, and so does a
new numpy warning. The script prints each difference and exits 1 if there
is one, 0 otherwise. A differing CSV file names at most ten differing data
rows, counted from 1 after the header; a differing JSON file names at most
ten differing leaves, by JSON Pointer (RFC 6901), and the largest relative
difference among the numeric ones.

Each run is reaped with ``os.wait4`` for its own minor page faults
(``ru_minflt``), peak RSS (``ru_maxrss``, KiB on Linux) and user plus
system CPU time, printed per run and as each run's medians per side.
Unlike wall time, the first two repeat almost exactly on a shared host.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

SIDES = ("parent", "change")
COEFFS_CACHE = "tau30000.cache"
# config file -> text, written into each run's work directory
WORK_CONFIGS = {"row-rule.cfg": "ms = 1e4, 1e5\nks = 1, 3, 11\n"
                                "delta_coeff = 3.0\ndelta_exponent = 0.6\n"
                                "rise_fraction = 0.125\n",
                "empty-sweep.cfg": "ms = 1e4\nks = 11\n",
                "tiny-budget.cfg": "node_budget = 20\n"}
ROWS_SHOWN = 10
# counter -> its printed format
COUNTERS = {"minflt": "{:.0f}", "maxrss_kib": "{:.0f}", "cpu_s": "{:.4f}"}


class Run(NamedTuple):
    """What one run of the command line left, and what it cost."""

    code: int
    stdout: bytes
    stderr: bytes
    files: dict         # output file -> bytes
    counters: dict      # COUNTERS name -> value


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
    out["omega-usage"] = ["omega", "--bogus"]
    out["help"] = ["--help"]
    for command in ("coeffs", "verify-lemmas", "meansquare", "voronoi", "omega"):
        out[f"{command}-help"] = [command, "--help"]
    return out


def run_once(name: str, args: list[str], env: dict) -> Run:
    """One run of the command line in a fresh work directory."""
    with tempfile.TemporaryDirectory(prefix="same-reports-") as tmp:
        work = Path(tmp)
        for config, text in WORK_CONFIGS.items():
            (work / config).write_text(text, encoding="utf-8")
        with open(work / "stdout", "wb") as out, \
                open(work / "stderr", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "cuspsums.cli", *args, "--out", name],
                cwd=work, env=env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            # reaped here, for its rusage; Popen must not wait for it again
            proc.returncode = os.waitstatus_to_exitcode(status)
        out_dir = work / name
        files = {p.relative_to(out_dir).as_posix(): p.read_bytes()
                 for p in sorted(out_dir.rglob("*")) if p.is_file()}
        if name == "coeffs" and (work / COEFFS_CACHE).is_file():
            files[COEFFS_CACHE] = (work / COEFFS_CACHE).read_bytes()
        return Run(proc.returncode, (work / "stdout").read_bytes(),
                   (work / "stderr").read_bytes(), files,
                   {"minflt": usage.ru_minflt, "maxrss_kib": usage.ru_maxrss,
                    "cpu_s": usage.ru_utime + usage.ru_stime})


def shown(counters: dict) -> str:
    return " ".join(f"{name}={COUNTERS[name].format(value)}"
                    for name, value in counters.items())


def run_side(label: str, checkout: Path, table: Path) -> dict:
    """Run name -> Run, for every run in one checkout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    results = {}
    for name, args in commands(checkout, table).items():
        run = results[name] = run_once(name, args, env)
        print(f"{label}: {name} exited {run.code}, {len(run.files)} files, "
              f"{shown(run.counters)}", flush=True)
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


def _finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def json_leaves(value, pointer: str = "") -> dict:
    """JSON Pointer -> value of every leaf of a parsed JSON document; an
    empty object or array is a leaf."""
    if isinstance(value, dict) and value:
        children = value.items()
    elif isinstance(value, list) and value:
        children = enumerate(value)
    else:
        return {pointer: value}
    return {leaf: item for key, child in children
            for leaf, item in json_leaves(child, f"{pointer}/{key}").items()}


def differing_leaves(old: bytes, new: bytes) -> str:
    """The pointers of the JSON leaves that differ, and the largest relative
    difference among those that are numbers on both sides."""
    leaves0, leaves1 = json_leaves(json.loads(old)), json_leaves(json.loads(new))
    # in document order, the added leaves last; repr holds 1 and 1.0 apart
    # and NaN equal to NaN
    pointers = [p for p in [*leaves0, *(p for p in leaves1 if p not in leaves0)]
                if p not in leaves0 or p not in leaves1
                or repr(leaves0[p]) != repr(leaves1[p])]
    more = ", ..." if len(pointers) > ROWS_SHOWN else ""
    out = (f"{len(pointers)} leaves differ: "
           f"{', '.join(pointers[:ROWS_SHOWN])}{more}")
    pairs = [(leaves0.get(p), leaves1.get(p)) for p in pointers]
    relative = [abs(a - b) / max(abs(a), abs(b)) for a, b in pairs
                if _finite_number(a) and _finite_number(b) and (a or b)]
    if relative:
        out += f"; largest relative difference {max(relative):.2g}"
    return out


DIFFERING_PARTS = {".csv": differing_rows, ".json": differing_leaves}


def run_differences(ref: Run, run: Run) -> list[str]:
    """One line per exit code, stdout, stderr or output file that differs."""
    out = [f"exit code {ref.code} -> {run.code}"] if ref.code != run.code else []
    out += [f"{stream} differs" for stream in ("stdout", "stderr")
            if getattr(ref, stream) != getattr(run, stream)]
    for path in sorted(set(ref.files) | set(run.files)):
        if ref.files.get(path) == run.files.get(path):
            continue
        if path in ref.files and path in run.files:
            part = DIFFERING_PARTS.get(Path(path).suffix)
            detail = f" ({part(ref.files[path], run.files[path])})" if part else ""
            out.append(f"{path} differs{detail}")
        else:
            out.append(f"{path} {'missing' if path in ref.files else 'added'}")
    return out


def differences(runs: dict) -> list[str]:
    """Every difference of any side's repeat from the parent's first one.

    runs maps each side to its repeats, each a run name -> Run dict."""
    reference = runs["parent"][0]
    return [f"{side} pair {i}: {name}: {line}"
            for side in SIDES for i, repeat in enumerate(runs[side])
            for name, ref in reference.items()
            for line in run_differences(ref, repeat[name])]


def medians(repeats: list[dict]) -> dict:
    """Run name -> the median of each counter over one side's repeats."""
    return {name: {c: statistics.median(r[name].counters[c] for r in repeats)
                   for c in COUNTERS} for name in repeats[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the commit compared against")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout holding the change")
    parser.add_argument("--table", type=Path, required=True,
                        help="coefficient cache with at least 10^6 entries")
    parser.add_argument("--pairs", type=int, default=1,
                        help="runs of every command per side (default 1)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    table = args.table.resolve()
    if not table.is_file():
        parser.error(f"no coefficient cache at {table}")

    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_side(f"pair {i} {side}",
                                       getattr(args, side).resolve(), table))
    for side in SIDES:
        for name, counters in medians(runs[side]).items():
            print(f"{name} {side} median over {args.pairs}: {shown(counters)}")
    diffs = differences(runs)
    for line in diffs:
        print(f"DIFFERS {line}")
    reference = runs["parent"][0]
    if diffs:
        print(f"{len(diffs)} differences over {len(reference)} runs")
        return 1
    n_files = sum(len(run.files) for run in reference.values())
    print(f"same: {len(reference)} runs, {n_files} output files, every "
          f"stdout, stderr and exit code identical, --pairs {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
