"""Long and short exponential sums, and the short sum as an exact step series.

The short sum S(x) = sum over x <= n <= x + sqrt(x) of a(n) e(n alpha) is a
piecewise-constant function of x: it changes only when an integer crosses one
of the closed window ends. Entry breakpoints are the integers themselves (n
leaves as x passes n); exit breakpoints are roots of x + sqrt(x) = m (m joins
as x passes ((-1 + sqrt(1+4m))/2)^2). step_series materializes every piece in
O(delta) coefficient updates instead of O(delta * sqrt(m)) re-summations,
re-anchoring against a directly computed window sum every ~1000 events so
rounding drift cannot accumulate across tens of thousands of updates.

Every sum is taken at a rational point h/k, its phases looked up from the
exact residues n*h mod k (rational.e_k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from cuspsums.coeffs import CoefficientTable
from cuspsums.rational import RationalPoint, e_k, progression_phases
from cuspsums.weight import window_exits, window_top

_BREAKPOINT_TOL = 1e-9
_ANCHOR_EVERY = 1024


def window_bounds(x: float) -> tuple[int, int]:
    """Integer window [ceil(x), floor(x + sqrt(x))]; both ends closed."""
    if not math.isfinite(x) or x < 1.0:
        raise ValueError(f"window position must satisfy x >= 1, got {x}")
    return math.ceil(x), math.floor(window_top(x))


def short_sum(x: float, alpha: RationalPoint, table: CoefficientTable) -> complex:
    """S(x) = sum_{x <= n <= x + sqrt(x)} a(n) e(n h/k), alpha = h/k, summed pairwise."""
    lo, hi = window_bounds(x)
    table.require(hi, f"short_sum at x={x}")
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    return complex(np.sum(table.a[lo - 1: hi] * e_k(ns * alpha.h, alpha.k)))


def long_sum(x: float, alpha: RationalPoint, table: CoefficientTable) -> complex:
    """sum_{1 <= n <= x} a(n) e(n h/k) at alpha = h/k."""
    if not math.isfinite(x):
        raise ValueError(f"need finite x, got {x}")
    hi = math.floor(x)
    if hi < 1:
        return 0j
    table.require(hi, f"long_sum at x={x}")
    terms = progression_phases(alpha.h, alpha.k, hi)
    terms *= table.a[:hi]
    return complex(np.sum(terms))


def unweighted_window_sum(m: float, delta: float, table: CoefficientTable) -> complex:
    """sum_{m <= n <= m + delta} a(n); the alpha = 0 window statistic."""
    if delta < 0:
        raise ValueError(f"need delta >= 0, got {delta}")
    if not m >= 1.0:
        raise ValueError(f"window must start at m >= 1, got m={m}")
    lo = math.ceil(m)
    hi = math.floor(m + delta)
    table.require(hi, f"window sum at m={m}")
    return complex(np.sum(table.a[lo - 1: hi]))


def breakpoints(m: float, delta: float) -> np.ndarray:
    """All window entry/exit abscissas in [m, m + delta], sorted and merged.

    Entries are the integers of [m, m+delta]; exits solve x + sqrt(x) = j.
    Points closer than 1e-9 are merged (exit roots at perfect squares x = i^2
    coincide exactly with the entry at i^2, since then x + sqrt(x) = i^2 + i).
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if delta < 0:
        raise ValueError(f"need delta >= 0, got {delta}")
    lo, hi = float(m), float(m + delta)
    ints = np.arange(math.ceil(lo), math.floor(hi) + 1, dtype=float)
    exits = window_exits(np.arange(math.ceil(window_top(lo)),
                                   math.floor(window_top(hi)) + 1, dtype=np.int64))
    exits = exits[(exits >= lo) & (exits <= hi)]
    pts = np.sort(np.concatenate([ints, exits]))
    keep = np.ones(pts.size, dtype=bool)
    keep[1:] = np.diff(pts) > _BREAKPOINT_TOL
    return pts[keep]


@dataclass(frozen=True)
class StepSeries:
    """Exact piecewise-constant representation of the short sum on [m, m+delta].

    values[i] is S(x) on the open piece (breakpoints[i], breakpoints[i+1]);
    breakpoints include both endpoints, so len(values) = len(breakpoints) - 1.
    """

    breakpoints: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)


def step_series(m: float, delta: float, point: RationalPoint,
                table: CoefficientTable) -> StepSeries:
    """Build the step structure with O(delta) single-term updates.

    values is filled one anchor block of _ANCHOR_EVERY pieces at a time:
    a fresh block holds the directly summed anchor and then each later
    piece's entry and exit events, and its cumulative sum is assigned into
    values.
    """
    hi = m + delta
    table.require(math.floor(window_top(hi)), "step_series")
    # breakpoints are merged already; the ends are m and m + delta exactly,
    # replacing the breakpoint either lands on
    inner = breakpoints(m, delta)
    inner = inner[(inner - m > _BREAKPOINT_TOL) & (hi - inner > _BREAKPOINT_TOL)]
    head = [float(m)] if hi - m > _BREAKPOINT_TOL else []
    edges = np.concatenate([head, inner, [float(hi)]])

    n_piece = edges.size - 1
    values = np.empty(n_piece, dtype=complex)
    for start in range(0, n_piece, _ANCHOR_EVERY):
        stop = min(start + _ANCHOR_EVERY, n_piece)
        steps = np.zeros(stop - start, dtype=complex)
        steps[0] = short_sum(float(0.5 * (edges[start] + edges[start + 1])),
                             point, table)
        # piece i > start changes by the events at its left edge edges[i]
        deltas = steps[1:]
        xs = edges[start + 1: stop]
        # entry events: integer n leaves the window as x passes n
        n_cand = np.rint(xs)
        is_entry = np.abs(xs - n_cand) <= _BREAKPOINT_TOL
        # exit events: integer j joins as x + sqrt(x) passes j
        tops = window_top(xs)
        j_cand = np.rint(tops)
        is_exit = np.abs(tops - j_cand) <= _BREAKPOINT_TOL
        for mask, sign, cand in ((is_entry, -1.0, n_cand), (is_exit, +1.0, j_cand)):
            js = cand[mask].astype(np.int64)
            deltas[mask] += sign * table.a[js - 1] * e_k(js * point.h, point.k)
        values[start:stop] = np.cumsum(steps)
    return StepSeries(breakpoints=edges, values=values)

