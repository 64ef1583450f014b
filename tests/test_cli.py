"""End-to-end CLI behavior: exit codes, artifact formats, reproducibility.

Each test drives cuspsums.cli.main in-process against a small cached
table, except the BLAS-thread and CPU-count tests, which need one fresh
process per thread count or CPU set; absolute paths in the config keep the
tests independent of cwd.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from cuspsums.cli import main

pytestmark = pytest.mark.slow


def _read_dir(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    table = root / "tau2e4.cache"
    cfg = root / "exp.cfg"
    cfg.write_text(
        f"table = {table}\n"
        "n = 21000\n"
        "ms = 1e4\n"
        "ks = 1, 2\n"
        f"out = {root / 'out'}\n"
        "seed = 20260815\n"
        "omega_delta = 1000\n"
        "omega_windows = 15\n"
        "omega_threshold = 0.05\n"
        "voronoi_ms = 1e4\n"
        "voronoi_ks = 1, 3\n"
        "voronoi_samples = 6\n",
        encoding="utf-8",
    )
    assert main(["coeffs", "--config", str(cfg)]) == 0
    return root, cfg, table


def test_coeffs_reports_cache(workspace, capsys):
    root, cfg, table = workspace
    before = table.read_bytes()
    assert main(["coeffs", "--config", str(cfg), "--json"]) == 0
    out = capsys.readouterr().out
    # 3 u32 header words + u64 count + 16 bytes per entry
    assert f"bytes: {4 + 4 + 4 + 8 + 16 * 21000}" in out
    assert "sha256: " in out
    assert table.read_bytes() == before
    payload = json.loads((root / "out" / "coeffs.json").read_text())
    assert payload["n"] == 21000
    assert payload["provenance"]["package"] == "cuspsums"


def test_missing_cache_cites_creation_command(workspace, capsys):
    root, cfg, table = workspace
    ghost_cfg = root / "ghost.cfg"
    ghost_cfg.write_text(f"table = {root / 'ghost.cache'}\nms = 1e4\nks = 1\n",
                         encoding="utf-8")
    assert main(["meansquare", "--config", str(ghost_cfg)]) == 3
    err = capsys.readouterr().err
    assert "cuspsums coeffs" in err
    assert "ghost.cache" in err


def test_no_output_directory_without_output(workspace):
    # coeffs writes only the cache without --json, and a run that fails
    # before writing writes nothing, so neither creates its --out directory
    root, cfg, table = workspace
    quiet, failed = root / "quiet_out", root / "failed_out"
    assert main(["coeffs", "--n", "100", "--table", str(root / "t100.cache"),
                 "--out", str(quiet)]) == 0
    assert main(["omega", "--config", str(cfg), "--table",
                 str(root / "ghost.cache"), "--out", str(failed)]) == 3
    assert not quiet.exists()
    assert not failed.exists()


def test_invalid_config_exits_one(workspace, capsys):
    root, cfg, table = workspace
    bad = root / "bad.cfg"
    bad.write_text("delta_exponent = 0.4\n", encoding="utf-8")
    assert main(["meansquare", "--config", str(bad)]) == 1
    assert "invalid:" in capsys.readouterr().err


@pytest.mark.parametrize("command, body", [
    ("meansquare", "ms = 1e4, 1e4\nks = 1, 2\n"),
    ("voronoi", "voronoi_ms = 1e4, 1e4\n"),
])
def test_repeated_grid_entry_exits_one(workspace, capsys, command, body):
    # a repeat would write a row twice and weigh it twice in the fits
    root, cfg, table = workspace
    path = _short_cache_cfg(root, table, f"repeat_{command}", body)
    assert main([command, "--config", str(path), "--json"]) == 1
    assert capsys.readouterr().err.startswith("invalid:")
    assert not (root / f"repeat_{command}_out").exists()


def test_grid_order_does_not_change_the_report(workspace):
    root, cfg, table = workspace
    reports = []
    for order in ("1, 3, 7", "7, 1, 3"):
        path = root / f"order_{order[0]}.cfg"
        out = root / f"order_{order[0]}_out"
        path.write_text(f"table = {table}\nms = 1e4\nks = {order}\n",
                        encoding="utf-8")
        assert main(["meansquare", "--config", str(path), "--out", str(out),
                     "--json"]) == 0
        reports.append([(out / name).read_bytes()
                        for name in ("meansquare.json", "meansquare.csv")])
    assert reports[0] == reports[1]


def test_node_budget_refusal_exits_two(workspace, capsys):
    root, cfg, table = workspace
    tight = root / "tight.cfg"
    tight.write_text(f"table = {table}\nms = 1e4\nks = 1\n"
                     f"out = {root / 'tight_out'}\nnode_budget = 20\n",
                     encoding="utf-8")
    assert main(["verify-lemmas", "--config", str(tight)]) == 2
    assert "budget refused:" in capsys.readouterr().err


def _short_cache_cfg(root, table, name, body):
    path = root / f"{name}.cfg"
    path.write_text(f"table = {table}\nout = {root / (name + '_out')}\n"
                    "voronoi_ks = 1, 3\nvoronoi_samples = 6\n" + body,
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("command, body", [
    ("meansquare", "ms = 2e4\nks = 1\n"),
    ("voronoi", "voronoi_ms = 10600\n"),
    ("omega", "omega_delta = 7000\n"),
])
def test_short_cache_refusal_exits_one(workspace, capsys, command, body):
    # the cache holds 21000 coefficients, fewer than each run reads
    root, cfg, table = workspace
    path = _short_cache_cfg(root, table, f"short_{command}", body)
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid:")
    assert "rebuild with a larger n" in err


@pytest.mark.parametrize("command", ["meansquare", "voronoi", "omega"])
def test_malformed_cache_exits_one(workspace, capsys, command):
    root, cfg, table = workspace
    broken = root / "broken.cache"
    broken.write_bytes(b"a")
    out = root / f"broken_{command}_out"
    assert main([command, "--config", str(cfg), "--table", str(broken),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid:")
    assert "broken.cache: truncated header" in err


def test_voronoi_coverage_is_twice_the_largest_scale(workspace, capsys):
    # samples x < 2M read a(n) up to floor(x), so 2M = 21000 is enough
    root, cfg, table = workspace
    path = _short_cache_cfg(root, table, "edge_voronoi", "voronoi_ms = 10500\n")
    assert main(["voronoi", "--config", str(path)]) == 0
    assert "scan rows: 12" in capsys.readouterr().out


def test_meansquare_coverage_is_the_step_series_reach(workspace, capsys):
    # M = 19855 and Delta = 1000 read a(n) up to floor(top + sqrt(top)) =
    # 20999 with top = M + Delta, which the 21000-entry cache holds
    root, cfg, table = workspace
    path = _short_cache_cfg(root, table, "edge_meansquare", "ms = 19855\nks = 1\n")
    assert main(["meansquare", "--config", str(path)]) == 0
    assert "sweep rows: 1" in capsys.readouterr().out


def test_coefficient_overflow_exits_one(workspace, capsys, monkeypatch):
    import cuspsums.cli as cli
    from cuspsums.errors import CoefficientOverflowError

    def overflowing(n):
        raise CoefficientOverflowError(n, 128)

    monkeypatch.setattr(cli, "generate_tau", overflowing)
    root, cfg, table = workspace
    out = root / "overflow_out"
    assert main(["coeffs", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid: tau(21000) does not fit")


def test_verify_lemmas_row_count_and_verdict(workspace, capsys):
    root, cfg, table = workspace
    out = root / "lem_out"
    assert main(["verify-lemmas", "--config", str(cfg), "--out", str(out),
                 "--json"]) == 0
    text = capsys.readouterr().out
    assert "verdict: bounded" in text
    lines = (out / "lemma_bounds.csv").read_text().strip().splitlines()
    # header + (2 k) x (6 pairs) x (3 families) x (2 orders)
    assert len(lines) == 1 + 72
    assert lines[0].startswith("family,m_frequency_index")
    payload = json.loads((out / "lemmas.json").read_text())
    assert payload["bounded"] is True
    assert payload["min_derivative_ratio"] >= 1.0


def test_verify_lemmas_report_ignores_table(workspace):
    # verify-lemmas reads no cache, so whatever sits at --table must not
    # reach its report
    root, cfg, table = workspace
    reports = []
    for name, data in (("one", b"a"), ("two", b"b")):
        path = root / f"unread_{name}.cache"
        path.write_bytes(data)
        out = root / f"unread_{name}_out"
        assert main(["verify-lemmas", "--config", str(cfg), "--table",
                     str(path), "--out", str(out), "--json"]) == 0
        reports.append((out / "lemmas.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["provenance"]["table_sha256"] is None


def test_meansquare_artifacts(workspace, capsys):
    root, cfg, table = workspace
    out = root / "ms_out"
    assert main(["meansquare", "--config", str(cfg), "--out", str(out),
                 "--json"]) == 0
    # no flagged row, so the summary is its three fixed lines
    assert len(capsys.readouterr().out.splitlines()) == 3
    lines = (out / "meansquare.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2
    header = lines[0].split(",")
    assert "ratio_integral_over_delta_sqrt_m" in header
    (m, k, h, delta, integral, diag, ratio, method,
     slack, n_exact, flagged) = lines[1].split(",")
    assert int(k) == 1 and int(h) == 0
    assert abs(float(ratio) - float(integral)
               / (float(delta) * float(m) ** 0.5)) < 1e-12
    assert method == "exact-step"
    assert 0.0 < float(slack) < 0.005 * float(diag)
    assert int(n_exact) == 256 and int(flagged) == 0
    row = json.loads((out / "meansquare.json").read_text())["rows"][0]
    assert row["diagonal_slack"] == pytest.approx(float(slack), rel=1e-12)
    assert (row["diagonal_n_exact"], row["diagonal_flagged"]) == (256, 0)
    svg = (out / "meansquare.svg").read_text()
    assert svg.startswith("<svg") and "script" not in svg


def test_meansquare_prints_flagged_rows(workspace, capsys, monkeypatch):
    import cuspsums.meansquare as msq

    real_sweep = msq.run_sweep

    def sweep_with_flags(*args):
        first, *rest = real_sweep(*args)
        return [replace(first, diagonal=replace(first.diagonal,
                                                flagged=(1, 50))), *rest]

    monkeypatch.setattr(msq, "run_sweep", sweep_with_flags)
    root, cfg, table = workspace
    out = root / "ms_flagged"
    assert main(["meansquare", "--config", str(cfg), "--out", str(out),
                 "--json"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[3:] == ["diagonal flagged at M=1.000000e+04 k=1: 2 of 256 "
                           "exact brackets at the trivial bound (n = 1, 50)"]
    lines = (out / "meansquare.csv").read_text().strip().splitlines()
    assert [line.split(",")[-1] for line in lines] == [
        "diagonal_flagged", "2", "0"]
    rows = json.loads((out / "meansquare.json").read_text())["rows"]
    assert [r["diagonal_flagged"] for r in rows] == [2, 0]


def test_meansquare_report_ignores_blas_threads(tmp_path):
    # one k = 7 row on 2e4: its sums are long enough for a threaded BLAS
    # to split them, so a report built on BLAS reductions moves with the
    # thread count
    import cuspsums
    from cuspsums.coeffs import generate_tau, save_cache

    cache = tmp_path / "tau.cache"
    save_cache(generate_tau(27_000), cache)
    cfg = tmp_path / "ms.cfg"
    cfg.write_text(f"table = {cache}\nms = 2e4\nks = 7\n", encoding="utf-8")
    src = str(Path(cuspsums.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "cuspsums.cli", "meansquare", "--config",
             str(cfg), "--out", str(out), "--json"],
            env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        reports.append((proc.stdout, _read_dir(out)))
    assert reports[0] == reports[1]


def test_meansquare_byte_reproducible(workspace):
    root, cfg, table = workspace
    out1, out2 = root / "rep1", root / "rep2"
    assert main(["meansquare", "--config", str(cfg), "--out", str(out1),
                 "--json"]) == 0
    assert main(["meansquare", "--config", str(cfg), "--out", str(out2),
                 "--json"]) == 0
    assert _read_dir(out1) == _read_dir(out2)


def test_voronoi_columns_and_reproducibility(workspace):
    root, cfg, table = workspace
    out1, out2 = root / "vor1", root / "vor2"
    assert main(["voronoi", "--config", str(cfg), "--out", str(out1),
                 "--json"]) == 0
    assert main(["voronoi", "--config", str(cfg), "--out", str(out2),
                 "--json"]) == 0
    assert _read_dir(out1) == _read_dir(out2)
    lines = (out1 / "voronoi.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert "err_phase0" in header
    assert "err_phase_pi4" in header
    # 2 denominators x 6 samples
    assert len(lines) == 1 + 12
    payload = json.loads((out1 / "voronoi.json").read_text())
    assert set(payload["envelope_phase_pi4"]) == {
        "coeff", "exponent", "rms_residual", "points"}


def test_voronoi_report_ignores_cpu_count(workspace):
    # the scan's samples run on every usable CPU; a child pinned to one
    # CPU must write the bytes of an unpinned one
    import cuspsums

    root, cfg, table = workspace
    src = str(Path(cuspsums.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cpu = min(os.sched_getaffinity(0))
    reports = []
    for name, pin in (("pinned", lambda: os.sched_setaffinity(0, {cpu})),
                      ("unpinned", None)):
        out = root / f"vor_{name}"
        proc = subprocess.run(
            [sys.executable, "-m", "cuspsums.cli", "voronoi", "--config",
             str(cfg), "--out", str(out), "--json"],
            env=env, capture_output=True, timeout=300, preexec_fn=pin)
        assert proc.returncode == 0, proc.stderr.decode()
        files = _read_dir(out)
        assert set(files) >= {"voronoi.csv", "voronoi.json"}
        reports.append((proc.stdout, files))
    assert reports[0] == reports[1]


def test_reports_do_not_depend_on_cache_location(workspace):
    root, cfg, table = workspace
    moved = root / "elsewhere" / "copy.cache"
    moved.parent.mkdir()
    moved.write_bytes(table.read_bytes())
    for command, report in (("meansquare", "meansquare.json"),
                            ("voronoi", "voronoi.json"),
                            ("omega", "omega.json")):
        payloads = []
        for cache in (table, moved):
            out = root / f"loc_{command}_{cache.stem}"
            assert main([command, "--config", str(cfg), "--table", str(cache),
                         "--out", str(out), "--json"]) == 0
            payloads.append((out / report).read_bytes())
        assert payloads[0] == payloads[1]


def test_omega_threshold_and_seed(workspace, capsys):
    root, cfg, table = workspace
    out = root / "om1"
    assert main(["omega", "--config", str(cfg), "--out", str(out),
                 "--json"]) == 0
    assert "cleared" in capsys.readouterr().out
    payload = json.loads((out / "omega.json").read_text())
    assert payload["cleared"] is True
    assert payload["windows"] == 15

    # same seed reproduces the bytes, another seed moves the windows
    out_same = root / "om_same"
    out_other = root / "om_other"
    assert main(["omega", "--config", str(cfg), "--out", str(out_same)]) == 0
    assert ((out / "omega.csv").read_bytes()
            == (out_same / "omega.csv").read_bytes())
    assert main(["omega", "--config", str(cfg), "--out", str(out_other),
                 "--seed", "7"]) == 0
    assert ((out / "omega.csv").read_bytes()
            != (out_other / "omega.csv").read_bytes())


def test_omega_unreachable_threshold_exits_one(workspace, capsys):
    root, cfg, table = workspace
    strict = root / "strict.cfg"
    strict.write_text(f"table = {table}\nomega_threshold = 5.0\n"
                      f"out = {root / 'strict_out'}\nomega_windows = 15\n",
                      encoding="utf-8")
    assert main(["omega", "--config", str(strict)]) == 1
    assert "NOT CLEARED" in capsys.readouterr().out
