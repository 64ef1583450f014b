"""Tests of the benchmark itself: fixture refusal, output checks, span
accounting and the omega verdict rule.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
from tracer import (PER_LAYER_METRICS, PROCESS_SPAN, layer_metrics, self_times,
                    unit_of)


def _span(sid, name, start, end, parent=None):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent}


def test_corrupted_fixture_is_refused(tmp_path, monkeypatch, capsys):
    fixture = tmp_path / "tau1e6.cache"
    data = bytearray(range(256)) * 4
    fixture.write_bytes(bytes(data))
    digest = hashlib.sha256(bytes(data)).hexdigest()
    run.verify_fixture(fixture, digest)

    data[100] ^= 0x01
    fixture.write_bytes(bytes(data))
    with pytest.raises(run.FixtureError, match="refusing"):
        run.verify_fixture(fixture, digest)

    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "FIXTURE", fixture)
    monkeypatch.setattr(run, "FIXTURE_SHA256", digest)
    assert run.main(["--workload", "sweep", "--seconds", "1"]) != 0
    out = capsys.readouterr()
    assert "refused" in out.err
    assert '"correct"' not in out.out


def _sweep_outputs(out_dir):
    """A meansquare output directory that matches the references."""
    ref = checks.load_ref("sweep.json")
    out_dir.mkdir()
    shutil.copyfile(checks.REFS / "meansquare.csv", out_dir / "meansquare.csv")
    report = {key: ref[key] for key in ("exponent_fit", "ratio_min", "ratio_max")}
    report["rows"] = [{}] * ref["rows"]
    (out_dir / "meansquare.json").write_text(json.dumps(report))
    return out_dir


def _scale_cell(path, row, col, factor):
    head, rows = checks.read_csv(path)
    j = head.index(col)
    rows[row - 1][j] = "%.12e" % (float(rows[row - 1][j]) * factor)
    path.write_text("\r\n".join(",".join(r) for r in [head] + rows) + "\r\n")


def test_value_within_tolerance_passes(tmp_path):
    out = _sweep_outputs(tmp_path / "ok")
    assert checks.check_meansquare(out, 0) == []
    _scale_cell(out / "meansquare.csv", 3, "integral_weighted_index_units",
                1.0 + checks.REL_TOL / 10)
    assert checks.check_meansquare(out, 0) == []


def test_perturbed_value_fails_the_command(tmp_path, monkeypatch):
    out = _sweep_outputs(tmp_path / "bad")
    _scale_cell(out / "meansquare.csv", 3, "integral_weighted_index_units",
                1.0 + checks.REL_TOL * 10)
    problems = checks.check_meansquare(out, 0)
    assert len(problems) == 1
    assert "row 3 integral_weighted_index_units" in problems[0]

    # the same outputs, behind a real process that exits 0, count as one
    # failed command of the pass
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    bench = run.Run("sweep", 1, run.child_env())
    monkeypatch.setattr(bench, "commands", lambda _: [run.Command(
        "meansquare", "cli", ("--version",),
        lambda code: checks.check_meansquare(out, code))])
    bench.run_pass(0, traced=False)
    assert (bench.attempted, bench.failed) == (1, 1)
    assert "integral_weighted_index_units" in bench.problems[0]


def test_wrong_exit_code_fails_the_command(tmp_path):
    out = _sweep_outputs(tmp_path / "exit")
    assert checks.check_meansquare(out, 1) == ["meansquare exited 1, expected 0"]


def test_self_times_of_nested_spans():
    spans = [
        _span(0, PROCESS_SPAN, 0.0, 10.0),
        _span(1, "cli.cmd_meansquare", 1.0, 9.0, 0),
        _span(2, "meansquare.diagonal_term", 2.0, 6.0, 1),
        _span(3, "meansquare.diagonal_profile", 2.5, 4.0, 2),
        _span(4, "weight.eval_weight", 3.0, 3.5, 3),
        _span(5, "weight.eval_weight", 7.0, 8.0, 1),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 2.0, 1: 3.0, 2: 2.5, 3: 1.0, 4: 0.5, 5: 1.0})
    assert sum(own.values()) == pytest.approx(10.0)

    metrics = layer_metrics(spans, {}, {})
    assert metrics["meansquare.diagonal_tail_s"] == pytest.approx(2.5)
    assert metrics["meansquare.diagonal_profile_s"] == pytest.approx(1.0)
    assert metrics["weight.eval_weight_s"] == pytest.approx(1.5)
    assert metrics["weight.eval_weight_calls"] == 2
    assert metrics["cli.meansquare_s"] == pytest.approx(3.0)
    assert metrics["cli.unattributed_s"] == pytest.approx(2.0)
    layers = sum(v for k, v in metrics.items() if k.endswith(".total_s"))
    assert layers + metrics["cli.unattributed_s"] == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    spans = [_span(0, "a", 0.0, 10.0), _span(1, "b", 1.0, 5.0, 0),
             _span(2, "c", 4.0, 6.0, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


@pytest.fixture(scope="module")
def small_cache(tmp_path_factory):
    root = tmp_path_factory.mktemp("omega")
    cache = root / "tau21000.cache"
    outcome = run.run_process(
        [sys.executable, "-m", "cuspsums.cli", "coeffs", "--n", "21000",
         "--table", str(cache), "--out", str(root)],
        run.child_env(), root / "coeffs.log", 120.0)
    assert outcome.code == 0
    return cache


def test_not_cleared_omega_is_not_a_failure(small_cache, tmp_path):
    """omega exits 1 with ``cleared: false`` when no window reaches the
    threshold; on the small table no window does, for any seed tried."""
    a = checks.read_normalized(small_cache)
    ref = checks.load_ref("scan.json")["omega"]
    seed = 7
    starts = checks.omega_starts(seed, a.size, ref["delta"], ref["windows"])
    top = checks.omega_sums(a, starts, ref["delta"]).max() / ref["delta"] ** 0.5
    assert top < ref["threshold"]
    outcome = run.run_process(
        [sys.executable, "-m", "cuspsums.cli", "omega", "--table",
         str(small_cache), "--out", str(tmp_path), "--seed", str(seed),
         "--json"], run.child_env(), tmp_path / "omega.log", 120.0)
    assert outcome.code == 1
    assert json.loads((tmp_path / "omega.json").read_text())["cleared"] is False
    assert checks.check_omega(tmp_path, outcome.code, seed, a) == []
    # exit 0 would contradict the verdict
    assert checks.check_omega(tmp_path, 0, seed, a) == [
        "omega exited 0, expected 1"]


# seed whose 100 omega windows on the 10^6 fixture all stay below 0.45
NOT_CLEARED_SEED = 58


@pytest.mark.skipif(not run.FIXTURE.is_file(),
                    reason="the 10^6 fixture is built by the first run.py run")
def test_scan_run_with_not_cleared_seed_has_no_errors(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.setattr(run, "WORK", tmp_path)  # the fixture stays where it is
    assert run.main(["--workload", "scan", "--seed", str(NOT_CLEARED_SEED),
                     "--seconds", "0"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert result["metrics"]["success_rate"]["value"] == 1.0
    omega = json.loads((tmp_path / "pass" / "omega" / "omega.json").read_text())
    assert omega["cleared"] is False


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit_of(name)) for name in PER_LAYER_METRICS]


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
