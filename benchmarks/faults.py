"""Compare one command's page faults, peak RSS and CPU time in two checkouts.

Run from the repository root, with a second checkout of the commit to
compare against (made with ``git clone`` or ``git archive``) and a
coefficient cache; everything after ``--`` is passed to the command line:

    python3 benchmarks/faults.py --parent ../parent --change . \\
        --table .bench_build/perfbench/tau1e6.cache --pairs 5 -- \\
        meansquare --config perfbench/configs/sweep.cfg

Each run is ``python -m cuspsums.cli <args> --table T --out <fresh dir>``
from the checkout's ``src/``, with the checkout as working directory (so a
relative ``--config`` names that checkout's own file) and
``OPENBLAS_NUM_THREADS=1``. The runs alternate which side goes first. The
counters come from ``os.wait4`` on the command's own process: minor page
faults (``ru_minflt``), peak resident set (``ru_maxrss``, KiB on Linux)
and user plus system CPU time. Unlike wall time, the first two repeat
almost exactly from run to run on a shared host. The script prints every
run and then each side's medians, and exits 1 if any run exits non-zero.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# counter -> its printed format
COUNTERS = {"minflt": "{:.0f}", "maxrss_kib": "{:.0f}", "cpu_s": "{:.4f}"}


def run_once(checkout: Path, table: Path, args: list[str]) -> tuple[int, dict]:
    """(exit code, counters) of one run of the command in the checkout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory(prefix="faults-") as out:
        with open(Path(out) / "stdout.log", "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "cuspsums.cli", *args,
                 "--table", str(table), "--out", str(Path(out) / "out")],
                cwd=checkout, env=env, stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            # reaped here, for its rusage; Popen must not wait for it again
            proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, {"minflt": usage.ru_minflt,
                             "maxrss_kib": usage.ru_maxrss,
                             "cpu_s": usage.ru_utime + usage.ru_stime}


def shown(counters: dict) -> str:
    return " ".join(f"{name}={COUNTERS[name].format(value)}"
                    for name, value in counters.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the commit compared against")
    parser.add_argument("--change", type=Path, default=Path("."),
                        help="checkout holding the change (default: here)")
    parser.add_argument("--table", type=Path, required=True,
                        help="coefficient cache the command reads")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("args", nargs=argparse.REMAINDER,
                        help="-- then the command's arguments")
    args = parser.parse_args(argv)
    cli_args = args.args[1:] if args.args[:1] == ["--"] else args.args
    if not cli_args:
        parser.error("give the command's arguments after --")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    table = args.table.resolve()
    if not table.is_file():
        parser.error(f"no coefficient cache at {table}")

    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    runs = {side: [] for side in SIDES}
    failed = False
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            code, counters = run_once(checkouts[side], table, cli_args)
            failed |= code != 0
            runs[side].append(counters)
            print(f"pair {i} {side}: exit {code} {shown(counters)}", flush=True)
    for side in SIDES:
        medians = {name: statistics.median(r[name] for r in runs[side])
                   for name in COUNTERS}
        print(f"{side} median over {args.pairs}: {shown(medians)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
