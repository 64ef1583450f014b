"""The benchmark's traced run names package functions by string; these tests
keep those names and the argument positions its hooks read in step with the
package, so a rename fails here instead of zeroing a per-layer metric."""

import ast
import importlib
import inspect
import math
import textwrap

from conftest import _span_names


def _resolve(span):
    layer, name = span.split(".")
    module = importlib.import_module(f"cuspsums.{layer}")
    return module, getattr(module, name, None)


def _hook_reads(hook):
    """(index, name) of every argument the hook reads through _arg."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(hook)))
    return [tuple(ast.literal_eval(a) for a in node.args[2:4])
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_arg"]


def test_every_span_is_a_wrapped_package_function(tracer):
    names = _span_names(tracer)
    assert "meansquare.theorem_integral" in names
    for span in sorted(names):
        module, fn = _resolve(span)
        # the tracer wraps exactly the functions a layer module defines
        assert inspect.isfunction(fn), f"{span} is not a function"
        assert fn.__module__ == module.__name__, f"{span} is imported, not defined"


def test_hooks_read_arguments_at_their_positions(tracer):
    # the parse must see the reads at all
    assert (0, "m") in _hook_reads(tracer.HOOKS["meansquare.diagonal_term"])
    for span, hook in tracer.HOOKS.items():
        _, fn = _resolve(span)
        params = list(inspect.signature(fn).parameters)
        for index, name in _hook_reads(hook):
            assert index < len(params) and params[index] == name, (
                f"{span}: hook reads {name!r} at position {index}, "
                f"signature is {params}")


def test_traced_sweep_row_counts(tracer, table_2e4):
    from cuspsums.config import ExperimentConfig
    from cuspsums.meansquare import run_sweep, sweep_grid

    grid = sweep_grid(ExperimentConfig(ms=(1e4,), ks=(1,)))
    traced = tracer.Tracer()
    traced.install()
    try:
        (row,) = run_sweep(table_2e4, grid)
    finally:
        traced.remove()
    assert traced.hook_errors == []
    calls = {s["name"] for s in traced.spans}
    assert {"meansquare.theorem_integral", "meansquare.diagonal_term",
            "meansquare.diagonal_profile", "sums.step_series"} <= calls
    assert traced.counts["meansquare.exact_brackets"] == row.diagonal.n_exact
    assert traced.counts["meansquare.tail_brackets"] == \
        math.floor(row.m) - row.diagonal.n_exact
    assert traced.counts["meansquare.flagged"] == 0
    assert traced.counts["sums.step_pieces"] > 0


def test_traced_voronoi_sums_each_sample_once(tracer, tmp_path):
    from cuspsums.cli import main
    from cuspsums.coeffs import generate_tau, save_cache

    cache = tmp_path / "tau.cache"
    save_cache(generate_tau(21_000), cache)
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(f"table = {cache}\nvoronoi_ms = 1e4\nvoronoi_ks = 1, 3\n"
                   "voronoi_samples = 4\n", encoding="utf-8")
    samples = 2 * 4  # one scale, two denominators, four samples each
    traced = tracer.Tracer()
    traced.install()
    try:
        assert main(["voronoi", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
    finally:
        traced.remove()
    assert traced.hook_errors == []
    metrics = tracer.layer_metrics(
        traced.spans, traced.counts,
        {k: len(v) for k, v in traced.keys.items()})
    assert metrics["sums.long_sum_calls"] == samples
    assert metrics["sums.long_sum_unique_share"] == 1.0
    # the scan evaluates its main terms on shared dual coefficients
    assert metrics["voronoi.main_term_calls"] == 0
    # the command runs inside its wrapper, so cli.voronoi_s reads its time
    assert [s["name"] for s in traced.spans].count("cli.cmd_voronoi") == 1
    assert metrics["cli.voronoi_s"] > 0


def test_traced_table_normalizes_on_first_read(tracer, tmp_path):
    from cuspsums import coeffs

    cache = tmp_path / "tau.cache"
    coeffs.save_cache(coeffs.generate_tau(1000), cache)
    traced = tracer.Tracer()
    traced.install()
    try:
        table = coeffs.load_cache(cache)  # looked up after install: the wrapper
        loaded = len(traced.spans)
        table.a
    finally:
        traced.remove()
    assert traced.hook_errors == []
    names = [s["name"] for s in traced.spans]
    # the load reads and checks the records, and the first read of a(n)
    # normalizes them through the module's normalize: a table that bypassed
    # it would read 0 in coeffs.normalize_s
    assert names[:loaded] == ["coeffs.load_cache"]
    assert names[loaded:] == ["coeffs.normalize"]
    metrics = tracer.layer_metrics(traced.spans, traced.counts, {})
    assert metrics["coeffs.normalize_s"] > 0
    assert metrics["coeffs.cache_bytes_read"] == cache.stat().st_size
