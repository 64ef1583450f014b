"""Config file parsing, validation, and the deterministic report writers."""

import hashlib
import json
import random
import xml.etree.ElementTree as ET
from dataclasses import fields

import pytest

from cuspsums.config import (ExperimentConfig, config_lines, load_config,
                             parse_config)
from cuspsums.errors import ConfigError
from cuspsums.reporting import (format_value, sha256_file, sha256_text,
                                svg_line_plot, write_csv, write_json)


def test_defaults_are_valid():
    cfg = ExperimentConfig()
    assert cfg.ms == (1.0e4, 3.0e4, 1.0e5, 3.0e5)
    assert cfg.ks == (1, 2, 3, 5, 7)
    assert cfg.delta_exponent == 0.55
    assert load_config() == cfg


def test_parse_full_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# experiment knobs\n"
        "table = cache/tau.bin   # relative to cwd\n"
        "ms = 1e4, 3e4\n"
        "ks = 1,2, 5\n"
        "delta_exponent = 0.6\n"
        "seed = 42\n"
        "\n"
        "omega_windows = 7\n",
        encoding="utf-8",
    )
    cfg = parse_config(path)
    assert cfg.table == "cache/tau.bin"
    assert cfg.ms == (1.0e4, 3.0e4)
    assert cfg.ks == (1, 2, 5)
    assert cfg.delta_exponent == 0.6
    assert cfg.seed == 42
    assert cfg.omega_windows == 7
    # untouched keys keep their defaults
    assert cfg.node_budget == ExperimentConfig().node_budget


@pytest.mark.parametrize("line,fragment", [
    ("mystery = 3", "unknown key"),
    ("seed 42", "key = value"),
    ("seed =", "empty value"),
    ("seed = 1\nseed = 2", "duplicate"),
    ("ks = 1,,2", "empty entry"),
    ("ks = 1, two", "integer"),
    ("ms = 1e4, nope", "number"),
    ("delta_exponent = inf", "finite"),
    ("h_policy = unit", "unknown key"),
])
def test_parse_rejects(tmp_path, line, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=fragment):
        parse_config(path)


# (fields, a fragment of the message of the check they fail); each message
# is its own check's, so a case cannot pass through another check
_OUT_OF_RANGE = [
    ({"delta_exponent": 0.5}, "delta_exponent must lie in"),
    ({"delta_exponent": 1.2}, "delta_exponent must lie in"),
    ({"rise_fraction": 0.0}, "rise_fraction must lie in"),
    ({"rise_fraction": 0.7}, "rise_fraction must lie in"),
    ({"seed": -1}, "seed must fit in 64 bits"),
    ({"seed": 2 ** 64}, "seed must fit in 64 bits"),
    ({"ms": ()}, "ms must be window starts"),
    ({"ks": (0,)}, "ks must be denominators"),
    ({"n": 0}, "n must be a positive count"),
    ({"node_budget": 8}, "node_budget below one quadrature panel"),
    ({"omega_threshold": 0.0}, "omega_threshold must be > 0"),
    ({"voronoi_samples": 0}, "voronoi_samples must be >= 1"),
    ({"voronoi_samples": 1, "voronoi_ms": (1e4,), "voronoi_ks": (3,)},
     "envelope fit needs at least two samples"),
    ({"ms": (1e5, 1e4, 1e4)}, "ms repeats an entry"),
    ({"ks": (1, 3, 1)}, "ks repeats an entry"),
    ({"voronoi_ms": (1e4, 1e4)}, "voronoi_ms repeats an entry"),
    ({"voronoi_ks": (5, 5)}, "voronoi_ks repeats an entry"),
    ({"delta_coeff": 0.0}, "delta_coeff must be > 0"),
    ({"omega_delta": 0.5}, "omega_delta must be >= 1"),
    ({"omega_windows": 0}, "omega_windows must be >= 1"),
    ({"voronoi_ms": ()}, "voronoi_ms must be >= 2"),
    ({"voronoi_ms": (1.5, 1e4)}, "voronoi_ms must be >= 2"),
    ({"voronoi_ks": ()}, "voronoi_ks must be >= 1"),
    ({"voronoi_ks": (0, 3)}, "voronoi_ks must be >= 1"),
]


@pytest.mark.parametrize(("kwargs", "fragment"), [
    pytest.param(*case, id=f"kwargs{i}") for i, case in enumerate(_OUT_OF_RANGE)])
def test_range_validation(kwargs, fragment):
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig(**kwargs)


def test_voronoi_scales_that_round_alike_are_refused():
    # the scan truncates at N = round(M) and keys M's k-slope by it, so two
    # such scales would write one slope for both
    with pytest.raises(ConfigError, match="10000.0 and 10000.4 both round to 10000"):
        ExperimentConfig(voronoi_ms=(10000.4, 1e4))
    # a half rounds to even, as the scan's round does
    with pytest.raises(ConfigError, match="10001.5 and 10002.4 both round to 10002"):
        ExperimentConfig(voronoi_ms=(10002.4, 3e4, 10001.5))
    assert ExperimentConfig(voronoi_ms=(10000.4, 10000.6)).voronoi_ms == (
        10000.4, 10000.6)


def test_grids_are_kept_sorted():
    cfg = ExperimentConfig(ms=(1e5, 1e4), ks=(7, 1, 3), voronoi_ms=(3e4, 2e4),
                           voronoi_ks=(5, 1))
    assert (cfg.ms, cfg.ks, cfg.voronoi_ms, cfg.voronoi_ks) == (
        (1e4, 1e5), (1, 3, 7), (2e4, 3e4), (1, 5))


def test_boundary_exponent_allowed():
    assert ExperimentConfig(delta_exponent=1.0).delta_exponent == 1.0


def test_load_config_overrides():
    cfg = load_config(None, seed=9, table="t.bin", out=None)
    assert cfg.seed == 9
    assert cfg.table == "t.bin"
    assert cfg.out == ExperimentConfig().out


def test_config_lines_round_trip(tmp_path):
    # every field off its default, so a wrong parser for any key shows
    original = ExperimentConfig(
        table="cache/other.bin", n=54321, ms=(2.0e4, 5.0e4), ks=(2, 9),
        delta_coeff=1.5, delta_exponent=0.75, rise_fraction=0.125,
        node_budget=123456, out="elsewhere", seed=77, omega_delta=2.5e3,
        omega_windows=11, omega_threshold=0.375, voronoi_ms=(3.0e4,),
        voronoi_ks=(2, 7, 11), voronoi_samples=9)
    default = ExperimentConfig()
    assert [f.name for f in fields(ExperimentConfig)
            if getattr(original, f.name) == getattr(default, f.name)] == []
    path = tmp_path / "echo.cfg"
    path.write_text("\n".join([*config_lines(original),
                               f"table = {original.table}",
                               f"out = {original.out}"]) + "\n",
                    encoding="utf-8")
    parsed = parse_config(path)
    assert parsed == original
    # equality lets 9.0 pass for 9; the rendered lines do not
    assert config_lines(parsed) == config_lines(original)


# -- reporting ---------------------------------------------------------


def test_format_value_pinned():
    assert format_value(0.1) == "1.000000000000e-01"
    assert format_value(-2.5e-7) == "-2.500000000000e-07"
    assert format_value(12) == "12"
    assert format_value("L3") == "L3"


def test_write_csv_rfc4180(tmp_path):
    path = tmp_path / "t.csv"
    count = write_csv(path, ("a_units", "b_units"),
                      [(1.5, "x,y"), (2, "plain")])
    assert count == 2
    data = path.read_bytes()
    assert data.count(b"\r\n") == 3
    assert data.count(b"\n") == 3
    assert b'"x,y"' in data
    assert b"1.500000000000e+00" in data


def test_write_json_sorted_and_strict(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"b": 2, "a": [1.0, 0.5]})
    text = path.read_text(encoding="utf-8")
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert json.loads(text) == {"a": [1.0, 0.5], "b": 2}
    with pytest.raises(ValueError):
        write_json(path, {"bad": float("nan")})


def test_fingerprints(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"abc")
    assert sha256_file(path) == hashlib.sha256(b"abc").hexdigest()
    assert sha256_text(["a", "b"]) == hashlib.sha256(b"a\nb").hexdigest()


@pytest.mark.parametrize("size", [0, 1, 1 << 20, (1 << 20) + 1])
def test_sha256_file_across_its_buffer(tmp_path, size):
    # empty, shorter than, exactly and one byte past the 1 MiB read buffer
    data = random.Random(size).randbytes(size)
    path = tmp_path / "blob.bin"
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()


def test_svg_plot_structure():
    doc = svg_line_plot([("k = 1", [1.0e4, 1.0e5], [0.02, 0.03]),
                         ("k = 2", [1.0e4, 1.0e5], [0.2, 0.19])],
                        "title text", "window start M", "integral / Delta")
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    body = doc
    assert "polyline" in body and "window start M" in body
    assert "script" not in body
    # same inputs, same bytes
    again = svg_line_plot([("k = 1", [1.0e4, 1.0e5], [0.02, 0.03]),
                           ("k = 2", [1.0e4, 1.0e5], [0.2, 0.19])],
                          "title text", "window start M", "integral / Delta")
    assert again == doc


@pytest.mark.parametrize("series", [
    [],
    [("bad", [1.0], [])],
    [("bad", [0.0, 1.0], [1.0, 1.0])],
    [("bad", [1.0, 2.0], [1.0, -1.0])],
])
def test_svg_plot_rejects(series):
    with pytest.raises(ValueError):
        svg_line_plot(series, "t", "x", "y")
