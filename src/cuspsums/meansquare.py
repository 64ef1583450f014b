"""Mean square of the short windowed sums over a smooth window.

The integral I = ∫ w(x) |S(x)|² dx is computed exactly from the step
structure of S (piecewise-constant, so I is a finite sum of |S_i|² times
smooth weight masses), and compared against its prediction, the diagonal
term

    (k/2π²) Σ_{n≤M} |a(n)|² n^(-3/2) ∫ w(x) √x (cos Φ₁' - cos Φ₂')² dx

with Φ' the shifted/plain phases carrying the -π/4 offset.

The cosine difference has the product form
cos(A - π/4) - cos(B - π/4) = -2 sin((A+B)/2 - π/4) sin((A-B)/2), with
A = s√(x+√x), B = s√x and s = 4π√n/k. In the variable
y = √x + √(x+√x) both halves are plain: A + B = s y, and A - B = s g with
the gap g = √(x+√x) - √x = y/(2y + 1), so the squared difference is
(1 - sin s y)(1 - cos s g). Each exact bracket is integrated in y on
Gauss-16 panels uniform in y (weight.window_root_sum_inverse gives x, g
and dx/dy), which hold about three cycles of the fast factor each and
settle to 1e-9 on their first doubling. The slow factor 1 - cos s g is a
fixed number of moments of (g - g₀)^j, because s·g moves by well under one
radian across a window, and the fast factor's phase s y splits over each
panel as s·(node in the first panel) + s·(panel offset), so a grid costs
a few sines per (n, panel) and vector-matrix products instead of
a transcendental per (n, node).

The diagonal splits each squared difference into one non-oscillatory
part, 1 - cos(s g), and three oscillatory parts. The oscillatory parts
are evaluated exactly for small n and certified (not evaluated) past a
cutoff where their first-derivative-test bounds fall off like n^(-1/2).
The non-oscillatory part is evaluated for every n from the same moment
series, on moments of w√x (g - g₀)^j; the Taylor remainder of that series
joins the slack, and an exact bracket whose remainder bound passes the
settle tolerance is refused rather than settled.

Every large grid (the exact brackets, the piece masses, the slow
brackets, the diagonal's n-long chain of weights and summands) is
evaluated in blocks of rows of at most coeffs._BLOCK_ELEMENTS doubles
(coeffs._row_blocks), so peak memory does not grow with the grid. Each
element is computed by the same floating-point operations in the same
order as on the whole matrix, each row keeps its own reduction (the exact
brackets' matrix products run one row at a time: a BLAS product over a
block of rows can round a row differently with the block's size or the
thread count), and each sum of the diagonal is still one np.sum over its
whole summand, so the results are bit for bit the same.

A sweep is built once from the config: sweep_grid gives each (M, k) row
its point unit_point(k) and its weight window_weight(M, k, cfg), and
run_sweep measures and predicts I on each row's weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from cuspsums.coeffs import CoefficientTable, _row_blocks
from cuspsums.config import NODE_BUDGET, ExperimentConfig
from cuspsums.oscillatory import derivative_certificate, jm_bound, l3_spec
from cuspsums.rational import RationalPoint, unit_point
from cuspsums.sums import step_series, unweighted_window_sum
from cuspsums.weight import (WeightProfile, eval_weight, gauss_panels,
                             window_gap, window_root_sum,
                             window_root_sum_inverse, window_top,
                             window_weight)

_GAUSS8_NODES, _GAUSS8_WEIGHTS = np.polynomial.legendre.leggauss(8)
_NODE_BUDGET = NODE_BUDGET      # diagonal_profile's, by a name tests patch
_N_EXACT_FLOOR = 256            # see diagonal_term
# terms of the moment series of the slow brackets; for n <= M and Δ <= M,
# s·max|g - g₀| <= 0.23/k, so the first dropped term is below 1e-16 of the
# weight mass
_MOMENT_ORDER = 12
# first-grid Gauss-16 panels per unit of the peak rate 4√n/(k√x) over the
# window: about three cycles of the squared product form per panel
_PANELS_PER_RATE = 0.15625


@dataclass(frozen=True)
class DiagonalTerm:
    """Diagonal value with its certified error budget.

    value carries the computed sum, slack the certified bound on every
    oscillatory piece that was bounded instead of evaluated and on the
    truncation of the slow brackets' moment series, n_exact the
    cutoff below which brackets are exact, and flagged any n whose
    evaluation hit the node budget and fell back to the trivial bound.
    """

    value: float
    slack: float
    n_exact: int
    flagged: tuple[int, ...]


@dataclass(frozen=True)
class MeanSquareResult:
    """One measured weighted mean square beside its whole diagonal prediction."""

    m: float
    delta: float
    point: RationalPoint
    integral: float
    diagonal: DiagonalTerm

    def __post_init__(self) -> None:
        if not self.integral >= 0.0:
            raise ValueError("the integrand |S|^2 w is nonnegative")

    @property
    def ratio(self) -> float:
        """I / (Δ √M), the mean square normalized by its expected order."""
        return self.integral / (self.delta * math.sqrt(self.m))


def _check_geometry(m: float, delta: float, weight: WeightProfile) -> None:
    if not (math.isclose(weight.m, m, rel_tol=1e-12)
            and math.isclose(weight.delta, delta, rel_tol=1e-12)):
        raise ValueError(
            f"weight supported on [{weight.m}, {weight.m + weight.delta}] "
            f"does not match the window [{m}, {m + delta}]"
        )


def _piece_weight_masses(weight: WeightProfile, edges: np.ndarray) -> np.ndarray:
    """∫ w over each piece by fixed-order Gauss quadrature on the smooth w."""
    masses = np.empty(edges.size - 1)
    for rows in _row_blocks(masses.size, _GAUSS8_NODES.size):
        lo = edges[rows.start:rows.stop]
        hi = edges[rows.start + 1:rows.stop + 1]
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        x = mid[:, None] + half[:, None] * _GAUSS8_NODES[None, :]
        masses[rows] = half * (eval_weight(weight, x)
                               * _GAUSS8_WEIGHTS).sum(axis=1)
    return masses


def theorem_integral(point: RationalPoint, weight: WeightProfile,
                     table: CoefficientTable) -> float:
    """The measured I = ∫ w |S|² over the weight's support, piece by piece.

    S is constant between breakpoints, so I is the sum of the squared piece
    values of the step series times the weight mass of each piece. This
    only measures I; diagonal_term predicts it.
    """
    series = step_series(weight.m, weight.delta, point, table)
    masses = _piece_weight_masses(weight, series.breakpoints)
    summand = np.abs(series.values)
    np.square(summand, out=summand)
    summand *= masses
    return float(np.sum(summand))


def _weighted_nodes(weight: WeightProfile, panels: int):
    """Gauss-16 abscissae over the support plus w(x)·√x·quadrature weights."""
    x, wts = gauss_panels(*weight.support, panels)
    return x, wts * eval_weight(weight, x) * np.sqrt(x)


def _root_sum_nodes(weight: WeightProfile, panels: int):
    """Gauss-16 nodes uniform in y = window_root_sum(x) over the support.

    Returns the nodes y, the weights W = quadrature weight·w(x)·√x·dx/dy,
    so that Σ W f = ∫ w √x f dx, the gap g at each node and the panel
    width in y.
    """
    y_lo, y_hi = (float(window_root_sum(x)) for x in weight.support)
    y, wts = gauss_panels(y_lo, y_hi, panels)
    x, jacobian, gap = window_root_sum_inverse(y)
    wts *= eval_weight(weight, x)
    wts *= jacobian
    return y, wts, gap, (y_hi - y_lo) / panels


def _moment_columns(weights: np.ndarray, gap: np.ndarray):
    """The columns W (g - g₀)^j, j < _MOMENT_ORDER, of one grid, with g₀ and reach.

    g₀ is the midpoint of g's range and reach = max|g - g₀|. The columns
    fill one (nodes, _MOMENT_ORDER) array in place, each the one before
    times g - g₀.
    """
    g0 = 0.5 * (float(gap.min()) + float(gap.max()))
    offset = gap - g0
    columns = np.empty((gap.size, _MOMENT_ORDER))
    columns[:, 0] = weights
    for j in range(1, _MOMENT_ORDER):
        np.multiply(columns[:, j - 1], offset, out=columns[:, j])
    return columns, g0, float(np.max(np.abs(offset)))


def _series_bound(reach: float):
    """reach^J/J!, J = _MOMENT_ORDER: e^(iy)'s Taylor remainder at |y| <= reach."""
    return reach ** _MOMENT_ORDER / math.factorial(_MOMENT_ORDER)


def _moment_series(scale: np.ndarray, moments: np.ndarray, g0: float):
    """μ_0 - Re e^(i s g₀) Σ_j μ_j (i s)^j/j!, j < _MOMENT_ORDER, at each s of scale.

    With μ_j = Σ_q V_q (g_q - g₀)^j this is Σ_q V_q (1 - cos s g_q) but for
    the truncation of e^(i s (g - g₀)), at most _series_bound(s·max|g - g₀|)
    · Σ_q |V_q|. moments is one μ for every s, shape (_MOMENT_ORDER,), or
    one per s, shape (scale.size, _MOMENT_ORDER).

    The sum splits by the parity of j: Σ_j μ_j (i s)^j/j! = E + i s O with
    E = Σ μ_2i (-s²)^i/(2i)! and O = Σ μ_2i+1 (-s²)^i/(2i+1)!, each one
    real Horner in -s², so the value is μ_0 - E cos s g₀ + s O sin s g₀.
    """
    minus_square = -(scale * scale)
    parts = []
    for js in (range(0, _MOMENT_ORDER, 2), range(1, _MOMENT_ORDER, 2)):
        total = moments[..., js[-1]] / math.factorial(js[-1])
        for j in js[-2::-1]:
            total = total * minus_square + moments[..., j] / math.factorial(j)
        parts.append(total)
    even, odd = parts
    phase = g0 * scale
    return moments[..., 0] - even * np.cos(phase) + scale * odd * np.sin(phase)


class _PhaseGrid(NamedTuple):
    """One grid of diagonal_profile, Gauss-16 panels uniform in y.

    Node l of panel p lies at first[l] + shifts[p], up to rounding;
    columns holds _moment_columns' W (g - g₀)^j panel by panel, shape
    (panels, 16·_MOMENT_ORDER), and moments their sums over the grid.
    """

    first: np.ndarray
    shifts: np.ndarray
    columns: np.ndarray
    moments: np.ndarray
    g0: float
    reach: float


def _phase_grid(weight: WeightProfile, panels: int) -> _PhaseGrid:
    """diagonal_profile's grid of `panels` panels, from _root_sum_nodes."""
    y, weights, gap, width = _root_sum_nodes(weight, panels)
    columns, g0, reach = _moment_columns(weights, gap)
    return _PhaseGrid(first=y[:16], shifts=width * np.arange(panels),
                      columns=columns.reshape(panels, -1),
                      moments=columns.sum(axis=0), g0=g0, reach=reach)


def _exact_moments(scale: np.ndarray, grid: _PhaseGrid) -> np.ndarray:
    """μ_j = Σ_q W_q (1 - sin s y_q)(g_q - g₀)^j on one grid, a row per s of scale.

    That is grid.moments_j - T_j with T_j = Σ_q W_q (g_q - g₀)^j sin s y_q.
    Each node's phase splits as s y = s·first[l] + s·shifts[p], and
    sin(a + b) = sin a cos b + cos a sin b, so a row takes 2(16 + panels)
    sines and cosines, one (2, panels)·(panels, 16·J) product and one
    (1, 32)·(32, J) product, and no transcendental per node. Each row is
    its own product, so its bits do not depend on the rows beside it or on
    the BLAS threads.
    """
    across = np.multiply.outer(scale, grid.shifts)
    by_panel = (np.stack([np.cos(across), np.sin(across)], axis=1)
                @ grid.columns).reshape(scale.size, 32, _MOMENT_ORDER)
    within = np.multiply.outer(scale, grid.first)
    by_node = np.concatenate([np.sin(within), np.cos(within)], axis=1)
    return grid.moments - (by_node[:, None, :] @ by_panel)[:, 0]


def _exact_brackets(scale: np.ndarray, moments: np.ndarray, grid: _PhaseGrid,
                    tol: float) -> np.ndarray:
    """Σ_q W_q (1 - sin s y_q)(1 - cos s g_q) at each s of scale, or NaN.

    That is ∫ w √x (cos Φ₁' - cos Φ₂')² dx, the squared product form
    4 sin²(s y/2 - π/4) sin²(s g/2) in y: _moment_series of the rows of
    _exact_moments. A row whose truncation bound _series_bound(s·reach)·μ_0
    exceeds tol is NaN.
    """
    brackets = _moment_series(scale, moments, grid.g0)
    bound = _series_bound(scale * grid.reach) * np.abs(moments[:, 0])
    brackets[bound > tol] = np.nan
    return brackets


def _first_panels(n_max: int, k: int, weight: WeightProfile) -> int:
    """Panels of diagonal_profile's first grid for frequencies up to n_max.

    WeightProfile.first_panels of _PANELS_PER_RATE panels per unit of the
    peak rate 4√n_max/(k√x) over the window.
    """
    lo, hi = weight.support
    peak = 4.0 * math.sqrt(float(n_max)) / (k * math.sqrt(lo))
    return weight.first_panels(_PANELS_PER_RATE * peak * (hi - lo))


def diagonal_profile(ns, k: int, weight: WeightProfile):
    """Exact per-n brackets ∫ w √x (cos Φ₁' - cos Φ₂')² dx, one shared grid.

    Each bracket is integrated in y = √x + √(x + √x), on Gauss-16 panels
    uniform in y, by _exact_moments and _exact_brackets. The first grid (_first_panels) gives
    each panel about three cycles of the squared integrand at the fastest
    requested frequency. One evaluation covers every n, a block of rows at
    a time; WeightProfile.refine settles each row to 1e-9 of the first
    grid's weight mass ∫ w √x. A row whose moment series' truncation bound
    exceeds that tolerance on a grid is NaN there and does not settle, and
    no grid is doubled for such rows alone. Returns
    (brackets, flagged) where flagged lists the n whose rows never settled
    inside _NODE_BUDGET nodes and were replaced by the trivial bound
    4 ∫ w √x.
    """
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size == 0:
        return np.zeros(0), ()
    if np.any(ns < 1):
        raise ValueError("frequencies must satisfy n >= 1")
    scale = (4.0 * math.pi / k) * np.sqrt(ns.astype(float))
    panels = _first_panels(int(ns.max()), k, weight)
    mass = float(np.sum(_root_sum_nodes(weight, panels)[1]))
    tol = 1e-9 * mass

    def brackets(panels: int) -> np.ndarray:
        grid = _phase_grid(weight, panels)
        moments = np.empty((ns.size, _MOMENT_ORDER))
        # a row's widest temporaries: its (2, panels) phases, (2, 16·J) products
        for rows in _row_blocks(ns.size, 2 * max(panels, 16 * _MOMENT_ORDER)):
            moments[rows] = _exact_moments(scale[rows], grid)
        return _exact_brackets(scale, moments, grid, tol)

    values, settled = weight.refine(panels, brackets, tol, _NODE_BUDGET)
    values[~settled] = 4.0 * mass
    return values, tuple(int(n) for n in ns[~settled])


def _slow_brackets(n_lo: int, n_hi: int, k: int, moments: np.ndarray,
                   g0: float) -> np.ndarray:
    """Non-oscillatory part ∫ w √x (1 - cos s g) dx for n_lo ≤ n ≤ n_hi.

    s = 4π√n/k and g = window_gap(x); moments are _moment_columns' sums
    Σ w√x (g - g₀)^j on a weight-resolving grid, and each bracket is their
    _moment_series, a block of n at a time.
    """
    brackets = np.empty(n_hi - n_lo + 1)
    for rows in _row_blocks(brackets.size, 1):
        scale = np.sqrt(np.arange(n_lo + rows.start, n_lo + rows.stop,
                                  dtype=float))
        scale *= 4.0 * math.pi / k
        brackets[rows] = _moment_series(scale, moments, g0)
    return brackets


def diagonal_term(m: float, delta: float, k: int, weight: WeightProfile,
                  table: CoefficientTable) -> DiagonalTerm:
    """(k/2π²) Σ_{n≤M} |a(n)|² n^(-3/2) × bracket, with certified tail.

    Brackets are exact up to n_exact = min(max(_N_EXACT_FLOOR, 4k²), ⌊M⌋),
    covering the damped range n <= k² and the first oscillatory stretch.
    Past the cutoff only the non-oscillatory part is evaluated, by
    _slow_brackets' moment series; the three dropped oscillatory pieces are
    bounded by one first-derivative certificate whose minimum phase slope
    grows like √n. Those bounds and the series' truncation bound are summed
    and returned as slack rather than folded into the value. For M <= 256
    the tail is empty and the slack is 0.

    The n-long chain is built a block at a time into at most two n-long
    arrays, written in place: the tail brackets, which become
    coeff·bracket and then coeff·√(n_exact/n), and the weights themselves.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    _check_geometry(m, delta, weight)
    n_top = math.floor(m)
    table.require(n_top, "diagonal_term")
    n_exact = min(max(_N_EXACT_FLOOR, 4 * k * k), n_top)

    exact_ns = np.arange(1, n_exact + 1, dtype=np.int64)
    exact_vals, flagged = diagonal_profile(exact_ns, k, weight)
    # the tail brackets before the weights, so that _slow_brackets' block
    # temporaries never sit beside both n-long arrays; the brackets array
    # then holds each tail summand in turn
    xs, wsx = _weighted_nodes(weight, weight.first_panels(0.0))
    columns, g0, reach = _moment_columns(wsx, window_gap(xs))
    moments = columns.sum(axis=0)
    summand = _slow_brackets(n_exact + 1, n_top, k, moments, g0)
    # s is monotone in n, so n_top has the largest s
    truncation = _series_bound(
        (4.0 * math.pi / k) * math.sqrt(float(n_top)) * reach) * abs(moments[0])

    coeff = np.empty(n_top)
    for rows in _row_blocks(n_top, 1):
        part = np.abs(table.a[rows], out=coeff[rows])
        np.square(part, out=part)
        part *= k / (2.0 * math.pi ** 2)
        part /= np.arange(rows.start + 1, rows.stop + 1) ** 1.5
    value = float(np.sum(coeff[:n_exact] * exact_vals))

    tail_coeff = coeff[n_exact:]
    summand *= tail_coeff               # coeff·bracket
    value += float(np.sum(summand))
    # certify the three dropped oscillatory pieces at the cutoff frequency;
    # their minimum phase slope scales exactly as sqrt(n), and only that
    # slope differs between their certificates. The plain one's is the
    # smallest, since (1 + 1/(2√x))²/(x + √x) > 1/x reduces to 1/4 > 0 (a
    # shifted radical is steeper), so it bounds every piece
    per_piece = jm_bound(derivative_certificate(
        weight, l3_spec(n_exact, n_exact, unit_point(k))))
    for rows in _row_blocks(summand.size, 1):
        summand[rows] = np.sqrt(n_exact / np.arange(
            n_exact + 1 + rows.start, n_exact + 1 + rows.stop,
            dtype=float)) * tail_coeff[rows]        # coeff·√(n_exact/n)
    slack = 2.0 * per_piece * float(np.sum(summand))
    slack += truncation * float(np.sum(tail_coeff))
    return DiagonalTerm(value=value, slack=slack, n_exact=n_exact,
                        flagged=flagged)


@dataclass(frozen=True)
class OmegaStatistic:
    """Normalized window sums |Σ a(n)| / √Δ over a grid of window starts."""

    ms: np.ndarray
    values: np.ndarray
    max: float
    rms: float


def omega_statistic(ms, delta: float, table: CoefficientTable) -> OmegaStatistic:
    """The empirical lower-bound witness: how large |Σ_{M≤n≤M+Δ} a(n)|/√Δ gets."""
    ms = np.asarray(ms, dtype=float)
    if ms.size == 0:
        raise ValueError("need at least one window start")
    values = np.array([
        abs(unweighted_window_sum(float(start), delta, table)) for start in ms
    ]) / math.sqrt(delta)
    return OmegaStatistic(ms=ms, values=values, max=float(values.max()),
                          rms=float(np.sqrt(np.mean(values ** 2))))


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares exponents in I ≈ C Δ M^alpha k^beta."""

    alpha: float
    beta: float
    coeff: float
    rms_residual: float


def exponent_fit(results) -> ExponentFit:
    """Fit log I - log Δ against (log M, log k) by least squares."""
    results = list(results)
    if len(results) < 6:
        raise ValueError(f"need at least 6 results, got {len(results)}")
    ms = np.array([r.m for r in results])
    ks = np.array([r.point.k for r in results], dtype=float)
    integrals = np.array([r.integral for r in results])
    deltas = np.array([r.delta for r in results])
    if ms.max() / ms.min() < 10.0:
        raise ValueError("fit needs at least one decade of spread in M")
    if len(set(ks)) < 2:
        raise ValueError("fit needs at least two distinct k")
    if np.any(integrals <= 0.0):
        raise ValueError("fit needs strictly positive integrals")
    design = np.column_stack([np.ones(len(results)), np.log(ms), np.log(ks)])
    rhs = np.log(integrals) - np.log(deltas)
    coeffs, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < 3:
        raise ValueError("degenerate design: M and k values are collinear")
    residual = rhs - design @ coeffs
    return ExponentFit(alpha=float(coeffs[1]), beta=float(coeffs[2]),
                       coeff=float(math.exp(coeffs[0])),
                       rms_residual=float(np.sqrt(np.mean(residual ** 2))))


def sweep_grid(cfg: ExperimentConfig) -> list[tuple[RationalPoint, WeightProfile]]:
    """The sweep's (point, weight) rows, one per (M, k) of the config.

    The point is unit_point(k) and the weight window_weight(M, k, cfg);
    pairs violating k <= M^(1/4) are dropped.
    """
    return [(unit_point(k), window_weight(m, k, cfg))
            for m in cfg.ms for k in cfg.ks if k <= m ** 0.25]


def sweep_reach(grid) -> int:
    """The largest n a sweep over sweep_grid's rows reads.

    That is floor(top + √top), top the largest top of a weight's support:
    the reach of the last window's step_series. An empty grid reads
    nothing and gives 0.
    """
    top = max((weight.support[1] for _, weight in grid), default=0.0)
    return math.floor(window_top(top))


def run_sweep(table: CoefficientTable, grid) -> list[MeanSquareResult]:
    """The measured I beside its diagonal prediction for each sweep_grid row.

    Each row holds one theorem_integral and one whole diagonal_term; rows
    are independent. An empty grid, or a table short of sweep_reach, is
    refused before the first row.
    """
    if not grid:
        raise ValueError("sweep is empty; every k exceeds m^(1/4)")
    table.require(sweep_reach(grid), "mean-square sweep")
    return [MeanSquareResult(
        m=weight.m, delta=weight.delta, point=point,
        integral=theorem_integral(point, weight, table),
        diagonal=diagonal_term(weight.m, weight.delta, point.k, weight, table))
        for point, weight in grid]
