"""Long sums, and the short sum as an exact step series.

The short sum S(x) = sum over x <= n <= x + sqrt(x) of a(n) e(n alpha) is a
piecewise-constant function of x: it changes only when an integer crosses one
of the closed window ends. Entry breakpoints are the integers themselves (n
leaves as x passes n); exit breakpoints are roots of x + sqrt(x) = m (m joins
as x passes ((-1 + sqrt(1+4m))/2)^2). step_series materializes every piece
from one cumulative sum P of the terms a(n) e(n alpha) over the range's
integers: the piece whose window is [first, last], read from
weight.window_bounds at its midpoint, holds P(last) - P(first - 1). The
breakpoints only place the pieces.

Every sum is taken at a rational point h/k, its phases looked up from the
exact residues n*h mod k (rational.e_k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from cuspsums.coeffs import CoefficientTable, _row_blocks, normalize
from cuspsums.rational import RationalPoint, e_k, progression_phases
from cuspsums.weight import window_bounds, window_exits, window_top

_BREAKPOINT_TOL = 1e-9


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


def unweighted_window_sum(m, delta: float, table: CoefficientTable):
    """sum_{m <= n <= m + delta} a(n), the alpha = 0 window statistic, for
    one start m (a complex) or an array of starts (an array). The rows any
    window reads are normalized in one call; each window is np.sum over its
    slice of them, the terms and order of table.a's."""
    if not math.isfinite(delta) or delta < 0:
        raise ValueError(f"need delta >= 0, got {delta}")
    m = np.asarray(m, dtype=float)
    valid = np.isfinite(m) & (m >= 1.0)
    if not valid.all():
        raise ValueError(f"window must start at m >= 1, got m={m[~valid][0]}")
    lo, hi = np.ceil(m).astype(np.int64), np.floor(m + delta).astype(np.int64)
    if m.size:
        table.require(int(hi.max()), f"window sum at m={m.flat[np.argmax(hi)]}")
    firsts, lasts = lo.ravel().tolist(), hi.ravel().tolist()
    read = np.zeros(table.n_max + 1, dtype=bool)
    for first, last in zip(firsts, lasts):
        read[first: last + 1] = True
    ns = np.flatnonzero(read)
    a = normalize(table.records[ns - 1], ns)
    sums = np.array([np.sum(a[start: start + last - first + 1]) for start, first, last
                     in zip(np.searchsorted(ns, firsts).tolist(), firsts, lasts)],
                    dtype=complex).reshape(m.shape)
    return complex(sums) if m.ndim == 0 else sums


def breakpoints(m: float, delta: float) -> np.ndarray:
    """All window entry/exit abscissas in [m, m + delta], sorted and merged.

    Entries are the integers of [m, m+delta]; exits solve x + sqrt(x) = j.
    Points closer than 1e-9 are merged (exit roots at perfect squares x = i^2
    coincide exactly with the entry at i^2, since then x + sqrt(x) = i^2 + i).
    """
    if not math.isfinite(m) or m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if not math.isfinite(delta) or delta < 0:
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
    """Every piece's S as a difference of one cumulative sum.

    Every piece's window lies in [lo, top] = [ceil(m), floor(hi + sqrt(hi))],
    hi = m + delta. prefix[j - lo + 1] is the sum of a(n) e_k(n h) over
    lo <= n <= j, with prefix[0] = 0; the piece whose window is
    window_bounds(midpoint) = [first, last] holds
    prefix[last - lo + 1] - prefix[first - lo]. values is filled a block of
    pieces at a time, from coeffs._row_blocks.
    """
    hi = m + delta
    top = window_bounds(hi)[1]
    table.require(top, "step_series")
    # breakpoints are merged already; the ends are m and m + delta exactly,
    # replacing the breakpoint either lands on
    inner = breakpoints(m, delta)
    inner = inner[(inner - m > _BREAKPOINT_TOL) & (hi - inner > _BREAKPOINT_TOL)]
    head = [float(m)] if hi - m > _BREAKPOINT_TOL else []
    edges = np.concatenate([head, inner, [float(hi)]])

    lo = math.ceil(m)
    ns = np.arange(lo, top + 1, dtype=np.int64)
    prefix = np.zeros(ns.size + 1, dtype=complex)
    np.cumsum(table.a[lo - 1: top] * e_k(ns * point.h, point.k), out=prefix[1:])
    n_piece = edges.size - 1
    values = np.empty(n_piece, dtype=complex)
    for rows in _row_blocks(n_piece, 2):
        mids = 0.5 * (edges[rows] + edges[rows.start + 1: rows.stop + 1])
        first, last = window_bounds(mids)
        values[rows] = prefix[last - lo + 1] - prefix[first - lo]
    return StepSeries(breakpoints=edges, values=values)
