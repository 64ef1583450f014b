"""Layer spans for the traced benchmark run, recorded from outside the package.

Tracer.install wraps every public function of the layer modules and puts the
wrapper wherever a cuspsums module looks the function up: module attributes
and module-level dicts such as the CLI's command table. Spans stay in memory
and are written once, when the traced process ends; remove() restores every
original, so an untraced run never executes a wrapper.

layer_metrics turns the spans of one pass into the per-layer metrics: every
``*_s`` metric is self time (span time minus the part its child spans
cover), summed over the functions listed for it; the counts come from the
hooks below and from span counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("coeffs", "sums", "weight", "oscillatory", "meansquare", "voronoi",
          "reporting", "cli")

# parent-side span around each command process; its self time is the part of
# the process (interpreter start, imports, argument parsing, exit) that no
# layer span covers
PROCESS_SPAN = "process"

# metric -> spans whose self times it sums
TIME_METRICS = {
    "coeffs.generate_tau_s": ("coeffs.generate_tau", "coeffs.tau_sequence"),
    "coeffs.save_cache_s": ("coeffs.save_cache",),
    "coeffs.checks_s": ("coeffs.deligne_check", "coeffs.divisor_counts",
                        "coeffs.hecke_multiplicativity_check",
                        "coeffs.hecke_prime_power_check",
                        "coeffs.smallest_prime_factors"),
    "coeffs.load_cache_s": ("coeffs.load_cache",),
    "coeffs.normalize_s": ("coeffs.normalize",),
    "meansquare.diagonal_profile_s": ("meansquare.diagonal_profile",),
    "meansquare.diagonal_tail_s": ("meansquare.diagonal_term",),
    "meansquare.integral_s": ("meansquare.theorem_integral",),
    "meansquare.omega_s": ("meansquare.omega_statistic",
                           "sums.unweighted_window_sum"),
    "sums.step_series_s": ("sums.step_series", "sums.breakpoints"),
    "sums.long_sum_s": ("sums.long_sum",),
    "voronoi.main_term_s": ("voronoi.voronoi_main_term",),
    "voronoi.error_scan_s": ("voronoi.voronoi_error_scan",),
    "oscillatory.integral_s": ("oscillatory.oscillatory_integral",),
    "weight.eval_weight_s": ("weight.eval_weight",),
    "reporting.write_s": ("reporting.write_csv", "reporting.write_json",
                          "reporting.write_svg", "reporting.svg_line_plot",
                          "reporting.format_value"),
    "reporting.sha256_s": ("reporting.sha256_file", "reporting.sha256_text"),
    "cli.coeffs_s": ("cli.cmd_coeffs",),
    "cli.meansquare_s": ("cli.cmd_meansquare",),
    "cli.voronoi_s": ("cli.cmd_voronoi",),
    "cli.omega_s": ("cli.cmd_omega",),
    "cli.verify-lemmas_s": ("cli.cmd_verify_lemmas",),
    "cli.unattributed_s": (PROCESS_SPAN,),
}

# metric -> span whose call count it is
CALL_METRICS = {
    "sums.long_sum_calls": "sums.long_sum",
    "voronoi.main_term_calls": "voronoi.voronoi_main_term",
    "oscillatory.integral_calls": "oscillatory.oscillatory_integral",
    "weight.eval_weight_calls": "weight.eval_weight",
}

# metric -> (distinct-key counter, call-count span): distinct inputs / calls
SHARE_METRICS = {
    "sums.long_sum_unique_share": ("long_sum_keys", "sums.long_sum"),
    "oscillatory.unique_spec_share": ("integral_keys",
                                      "oscillatory.oscillatory_integral"),
}

COUNT_METRICS = ("coeffs.cache_bytes_read", "meansquare.exact_brackets",
                 "meansquare.tail_brackets", "meansquare.flagged",
                 "sums.step_pieces", "voronoi.dual_terms",
                 "reporting.bytes_written")

TOTAL_METRICS = tuple(f"{layer}.total_s" for layer in LAYERS)

TRACE_METRICS = ("trace.wall_s", "trace.overhead_s")

PER_LAYER_METRICS = (tuple(TIME_METRICS) + tuple(CALL_METRICS)
                     + tuple(SHARE_METRICS) + COUNT_METRICS + TOTAL_METRICS
                     + TRACE_METRICS)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_share"):
        return "ratio"
    return "bytes" if "bytes" in metric else "count"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _load_cache(tracer, args, kwargs, result):
    tracer.counts["coeffs.cache_bytes_read"] += _file_size(
        _arg(args, kwargs, 0, "path"))


def _diagonal_profile(tracer, args, kwargs, result):
    tracer.counts["meansquare.exact_brackets"] += int(
        np.size(_arg(args, kwargs, 0, "ns")))


def _diagonal_term(tracer, args, kwargs, result):
    n_top = math.floor(_arg(args, kwargs, 0, "m"))
    tracer.counts["meansquare.tail_brackets"] += max(0, n_top - result.n_exact)
    tracer.counts["meansquare.flagged"] += len(result.flagged)


def _step_series(tracer, args, kwargs, result):
    tracer.counts["sums.step_pieces"] += len(result.values)


def _long_sum(tracer, args, kwargs, result):
    tracer.keys["long_sum_keys"].add(
        (float(_arg(args, kwargs, 0, "x")), _arg(args, kwargs, 1, "alpha")))


def _main_term(tracer, args, kwargs, result):
    tracer.counts["voronoi.dual_terms"] += _arg(args, kwargs, 1,
                                                "params").n_trunc


def _oscillatory_integral(tracer, args, kwargs, result):
    tracer.keys["integral_keys"].add(
        (_arg(args, kwargs, 0, "profile"), _arg(args, kwargs, 1, "spec")))


def _written(tracer, args, kwargs, result):
    tracer.counts["reporting.bytes_written"] += _file_size(
        _arg(args, kwargs, 0, "path"))


# span name -> hook(tracer, args, kwargs, result), run after the span closes
HOOKS = {
    "coeffs.load_cache": _load_cache,
    "meansquare.diagonal_profile": _diagonal_profile,
    "meansquare.diagonal_term": _diagonal_term,
    "sums.step_series": _step_series,
    "sums.long_sum": _long_sum,
    "voronoi.voronoi_main_term": _main_term,
    "oscillatory.oscillatory_integral": _oscillatory_integral,
    "reporting.write_csv": _written,
    "reporting.write_json": _written,
    "reporting.write_svg": _written,
}


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.keys: defaultdict = defaultdict(set)
        self.hook_errors: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except Exception as exc:  # a counter must never fail the command
                    self.hook_errors.append(f"{name}: {exc!r}")
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer where they are looked up."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cuspsums.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cuspsums" and not mod_name.startswith("cuspsums."):
                continue
            for holder in [vars(module)] + [v for v in vars(module).values()
                                            if isinstance(v, dict)]:
                for key, value in list(holder.items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        holder[key] = entry[1]
                        self._patches.append((holder, key, value))

    def remove(self) -> None:
        """Put every original function back."""
        for holder, key, original in reversed(self._patches):
            holder[key] = original
        self._patches.clear()

    def dump(self, path) -> None:
        payload = {"spans": self.spans, "counts": dict(self.counts),
                   "distinct": {k: len(v) for k, v in self.keys.items()},
                   "hook_errors": self.hook_errors}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        lo, hi = span["start"], span["end"]
        covered = 0.0
        reach = lo
        for start, end in sorted(children[span["id"]]):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out[span["id"]] = (hi - lo) - covered
    return out


def layer_metrics(spans, counts, distinct) -> dict:
    """Per-layer metrics of one traced pass; absent layers read 0."""
    own = self_times(spans)
    by_name = defaultdict(float)
    calls = Counter()
    for span in spans:
        by_name[span["name"]] += own[span["id"]]
        calls[span["name"]] += 1
    out = {}
    for metric, names in TIME_METRICS.items():
        out[metric] = sum(by_name[n] for n in names)
    for metric, name in CALL_METRICS.items():
        out[metric] = calls[name]
    for metric, (key, name) in SHARE_METRICS.items():
        out[metric] = distinct.get(key, 0) / calls[name] if calls[name] else 0.0
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    for layer in LAYERS:
        out[f"{layer}.total_s"] = sum(
            t for name, t in by_name.items() if name.startswith(layer + "."))
    return out
