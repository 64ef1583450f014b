"""End-to-end and per-layer benchmark of the cuspsums command line.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads; a pass runs the listed commands one at a time, each in a fresh
process, and every output is checked (see checks.py):

  cold-table  ``coeffs --n 30000 --json`` into an empty directory, then a
              certify process loads the new cache and runs deligne_check and
              both Hecke checks on it (kernel, cache write, table checks)
  sweep       ``meansquare --json`` on the 10^6 fixture with configs/sweep.cfg
  scan        ``voronoi``, ``omega`` and ``verify-lemmas`` on the fixture with
              configs/scan.cfg, each with ``--seed`` set from the benchmark's
              seed

Each pass takes a few seconds, so that a run holds several of them.

The 10^6 fixture is built once per checkout, outside the timed runs, with the
repository's own ``cuspsums coeffs --n 1000000``; its build time is recorded
as information. Every run checks it against a pinned sha256 and refuses to
measure on a mismatch. All state lives under .bench_build/perfbench/.

Passes repeat until --seconds have gone by (at least one). --trace 0 prints
the end-to-end metrics, medians over the passes: wall_s, cpu_s and
peak_rss_mb of the command processes, setup_s (median of fresh processes
that import cuspsums and load the fixture; import alone on cold-table) and
success_rate (1 - error_rate). The fastest and slowest pass are printed
beside the medians. --trace 1 alternates untraced and traced
passes and prints the per-layer metrics of tracer.py plus the tracing
overhead. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# pinned before numpy loads here and passed to every command process
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import (PER_LAYER_METRICS, PROCESS_SPAN, layer_metrics,  # noqa: E402
                    unit_of)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
WORK = ROOT / ".bench_build" / "perfbench"

FIXTURE = WORK / "tau1e6.cache"
FIXTURE_N = 1_000_000
FIXTURE_SHA256 = "97d87b4b3c47cc66874acb57edd8548d0b9198a68b49e1792f0613fcf9eadcf2"
COLD_N = 30_000
CONFIGS = BENCH / "configs"

WORKLOADS = ("cold-table", "sweep", "scan")
SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0     # every process of a run, after the fixture is ready
BUILD_TIMEOUT_S = 880.0  # one-off fixture build

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "success_rate": "ratio"}


class FixtureError(RuntimeError):
    """The 10^6 fixture is missing, unbuildable or not the pinned bytes."""


@dataclass(frozen=True)
class Outcome:
    code: int
    start: float
    end: float
    cpu_s: float
    rss_mb: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Command:
    """One process of a pass: a cli command or a child.py task."""

    name: str
    task: str                  # "cli" or "certify"
    args: tuple[str, ...]
    check: Callable[[int], list[str]]

    def argv(self, spans: Path | None = None) -> list[str]:
        if spans is not None:
            return [sys.executable, str(CHILD), "--spans", str(spans),
                    self.task, *self.args]
        if self.task == "cli":
            return [sys.executable, "-m", "cuspsums.cli", *self.args]
        return [sys.executable, str(CHILD), self.task, *self.args]


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv, env, log_path: Path, timeout: float) -> Outcome:
    """Run one process to its end; wall, CPU and peak RSS are its own."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(code=proc.returncode, start=start, end=end,
                   cpu_s=usage.ru_utime + usage.ru_stime,
                   rss_mb=usage.ru_maxrss / 1024.0)


def verify_fixture(path: Path, expected: str) -> None:
    if not path.is_file():
        raise FixtureError(f"{path} does not exist")
    digest = checks.sha256_file(path)
    if digest != expected:
        raise FixtureError(f"{path} has sha256 {digest}, expected {expected}; "
                           "refusing to run on it")


def ensure_fixture(env) -> dict:
    """Build the 10^6 cache once, then verify it; returns its build record."""
    record = WORK / "fixture.json"
    if not FIXTURE.is_file():
        build = WORK / "fixture-build"
        shutil.rmtree(build, ignore_errors=True)
        build.mkdir(parents=True)
        cache = build / FIXTURE.name
        argv = [sys.executable, "-m", "cuspsums.cli", "coeffs",
                "--n", str(FIXTURE_N), "--table", str(cache), "--out", str(build)]
        print(f"fixture: building with {' '.join(argv[1:])}", flush=True)
        outcome = run_process(argv, env, build / "build.log", BUILD_TIMEOUT_S)
        if outcome.code != 0:
            raise FixtureError(f"fixture build exited {outcome.code}; "
                               f"see {build / 'build.log'}")
        verify_fixture(cache, FIXTURE_SHA256)
        record.write_text(json.dumps({
            "command": argv[1:], "build_s": outcome.wall_s,
            "cpu_s": outcome.cpu_s, "peak_rss_mb": outcome.rss_mb,
        }, indent=2) + "\n", encoding="utf-8")
        cache.replace(FIXTURE)
    verify_fixture(FIXTURE, FIXTURE_SHA256)
    return json.loads(record.read_text(encoding="utf-8")) if record.is_file() else {}


def environment(compiled) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "compiled_kernel": compiled,
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, env: dict) -> None:
        self.workload = workload
        self.seed = seed % 2 ** 64  # the CLI takes an unsigned 64-bit seed
        self.env = env
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.spans: list[dict] = []
        self.compiled = None
        self._normalized = None

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def normalized(self) -> np.ndarray:
        """a(n) read from the fixture by the checks, once per run."""
        if self._normalized is None:
            self._normalized = checks.read_normalized(FIXTURE)
        return self._normalized

    def commands(self, out: Path) -> list[Command]:
        if self.workload == "cold-table":
            cache = out / f"tau{COLD_N}.cache"
            return [
                Command("coeffs", "cli", (
                    "coeffs", "--n", str(COLD_N), "--table", str(cache),
                    "--out", str(out), "--json"),
                    lambda code: checks.check_coeffs(out, cache, code)),
                Command("certify", "certify", (str(cache), str(out / "certify.json")),
                        lambda code: checks.check_certify(out, code)),
            ]
        if self.workload == "sweep":
            return [Command("meansquare", "cli", (
                "meansquare", "--config", str(CONFIGS / "sweep.cfg"),
                "--table", str(FIXTURE), "--out", str(out), "--json"),
                lambda code: checks.check_meansquare(out, code))]
        cmds = []
        for name, check in (
                ("voronoi", lambda d, c: checks.check_voronoi(
                    d, c, self.seed, self.normalized())),
                ("omega", lambda d, c: checks.check_omega(
                    d, c, self.seed, self.normalized())),
                ("verify-lemmas", checks.check_verify_lemmas)):
            sub = out / name
            cmds.append(Command(name, "cli", (
                name, "--config", str(CONFIGS / "scan.cfg"),
                "--table", str(FIXTURE), "--out", str(sub),
                "--seed", str(self.seed), "--json"),
                lambda code, sub=sub, check=check: check(sub, code)))
        return cmds

    def setup_probe(self) -> float:
        """Seconds for a fresh process to import cuspsums and load the
        fixture (import alone on cold-table)."""
        probe = [sys.executable, str(CHILD), "setup"]
        if self.workload != "cold-table":
            probe.append(str(FIXTURE))
        log = WORK / "setup.log"
        outcome = run_process(probe, self.env, log, self.remaining())
        if outcome.code != 0:
            raise RuntimeError(f"set-up probe exited {outcome.code}; see {log}")
        report = json.loads(log.read_text(encoding="utf-8").splitlines()[-1])
        self.compiled = report["compiled"]
        return report["seconds"]

    def run_pass(self, index: int, traced: bool) -> dict:
        out = WORK / "pass"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        wall = cpu = rss = 0.0
        spans: list[dict] = []
        counts: dict = {}
        distinct: dict = {}
        for i, cmd in enumerate(self.commands(out)):
            span_file = out / f"{cmd.name}.spans.json" if traced else None
            outcome = run_process(cmd.argv(span_file), self.env,
                                  out / f"{cmd.name}.log", self.remaining())
            wall += outcome.wall_s
            cpu += outcome.cpu_s
            rss = max(rss, outcome.rss_mb)
            self.attempted += 1
            if outcome.code == -signal.SIGKILL and self.remaining() <= 0.0:
                problems = [f"killed at the run's {RUN_BUDGET_S:.0f} s budget"]
            else:
                try:
                    problems = cmd.check(outcome.code)
                except Exception:  # unreadable outputs fail the command
                    problems = [traceback.format_exc(limit=1).strip()
                                .splitlines()[-1]]
            if problems:
                self.failed += 1
                self.problems += [f"pass {index} {cmd.name}: {p}" for p in problems]
            if traced:
                spans += self._merge_spans(span_file, index, i, cmd.name,
                                           outcome, counts, distinct)
        result = {"index": index, "traced": traced, "wall_s": wall,
                  "cpu_s": cpu, "peak_rss_mb": rss}
        if traced:
            self.spans += spans
            result["layers"] = layer_metrics(spans, counts, distinct)
        return result

    def _merge_spans(self, path: Path, pass_index: int, cmd_index: int,
                     name: str, outcome: Outcome, counts: dict,
                     distinct: dict) -> list[dict]:
        """Child spans under one process span, with run-wide ids."""
        root = f"{pass_index}.{cmd_index}"
        merged = [{"id": root, "name": PROCESS_SPAN, "parent": None,
                   "start": outcome.start, "end": outcome.end,
                   "pass": pass_index, "command": name}]
        if not path.is_file():
            self.problems.append(f"pass {pass_index} {name}: no spans written")
            return merged
        payload = json.loads(path.read_text(encoding="utf-8"))
        for span in payload["spans"]:
            parent = span["parent"]
            merged.append({
                "id": f"{root}.{span['id']}", "name": span["name"],
                "parent": root if parent is None else f"{root}.{parent}",
                "start": span["start"], "end": span["end"],
                "pass": pass_index, "command": name})
        for key, value in payload["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in payload["distinct"].items():
            distinct[key] = distinct.get(key, 0) + value
        self.problems += [f"pass {pass_index} {name}: trace hook {e}"
                          for e in payload["hook_errors"]]
        return merged

    def measure(self, seconds: float, traced: bool) -> tuple[list[dict], list[float]]:
        """Passes (untraced, or untraced+traced pairs) until seconds pass, and
        SETUP_SAMPLES set-up probes: half before the passes, the rest after
        them, so that the passes have the whole of --seconds to themselves
        and the probes still meet the machine load at both ends of the run."""
        passes = []
        probes = [self.setup_probe() for _ in range(SETUP_SAMPLES // 2)]
        start = time.perf_counter()
        while True:
            unit_start = time.perf_counter()
            passes.append(self.run_pass(len(passes), False))
            if traced:
                passes.append(self.run_pass(len(passes), True))
            unit = time.perf_counter() - unit_start
            if time.perf_counter() - start >= seconds or unit > self.remaining():
                break
        while len(probes) < SETUP_SAMPLES:
            probes.append(self.setup_probe())
        return passes, probes


def median_of(passes, key) -> float:
    return statistics.median(p[key] for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20260815)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the command it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "cuspsums" / "cli.py").is_file():
        print(f"no cuspsums source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        fixture = ensure_fixture(env)
    except FixtureError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3

    run = Run(args.workload, args.seed, env)
    passes, probes = run.measure(args.seconds, bool(args.trace))
    setup_s = statistics.median(probes)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    error_rate = run.failed / run.attempted

    if args.trace:
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in PER_LAYER_METRICS if not name.startswith("trace.")}
        metrics["trace.wall_s"] = median_of(traced, "wall_s")
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median_of(plain, "wall_s")
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {"wall_s": median_of(plain, "wall_s"), "setup_s": setup_s,
                   "cpu_s": median_of(plain, "cpu_s"),
                   "peak_rss_mb": median_of(plain, "peak_rss_mb"),
                   "success_rate": 1.0 - error_rate}
        units = END_TO_END

    info = environment(run.compiled)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runs = WORK / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": info, "fixture": fixture, "setup_probes_s": probes,
        "passes": passes, "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems, "metrics": metrics,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if run.spans:
        (runs / f"{tag}-spans.json").write_text(
            json.dumps(run.spans) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} "
          f"untraced, {len(traced)} traced")
    print("environment " + json.dumps(info, sort_keys=True))
    if fixture:
        print(f"fixture {FIXTURE.name} sha256 ok, built in "
              f"{fixture['build_s']:.1f} s (information, not gated)")
    for key in ("wall_s", "cpu_s"):
        values = [p[key] for p in plain]
        print(f"{key} over {len(values)} untraced passes: fastest "
              f"{min(values):.3f}, median {statistics.median(values):.3f}, "
              f"slowest {max(values):.3f} s")
    for problem in run.problems:
        print(f"problem {problem}")
    print(f"check {'all outputs match' if not run.failed else 'FAILED'}: "
          f"{run.failed} of {run.attempted} commands failed, "
          f"error_rate {error_rate:g}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
