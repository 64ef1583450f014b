"""Mean square of the short windowed sums over a smooth window.

The integral I = ∫ w(x) |S(x)|² dx is computed exactly from the step
structure of S (piecewise-constant, so I is a finite sum of |S_i|² times
smooth weight masses), and compared against its prediction, the diagonal
term

    (k/2π²) Σ_{n≤M} |a(n)|² n^(-3/2) ∫ w(x) √x (cos Φ₁' - cos Φ₂')² dx

with Φ' the shifted/plain phases carrying the -π/4 offset.

The cosine difference is evaluated in product form,
cos(A - π/4) - cos(B - π/4) = -2 sin((A+B)/2 - π/4) sin((A-B)/2), with
A - B = s·g, s = 4π√n/k and g = √(x+√x) - √x computed without
cancellation as √x / (√(x+√x) + √x). Nothing is subtracted at arguments
near 4π√(nx)/k, so a grid of Gauss-16 panels holding about three cycles
of the squared integrand each settles to 1e-9 on its first doubling.

The diagonal splits each squared difference into one non-oscillatory
part, 1 - cos(s g), and three oscillatory parts. The oscillatory parts
are evaluated exactly for small n and certified (not evaluated) past a
cutoff where their first-derivative-test bounds fall off like n^(-1/2).
The non-oscillatory part is evaluated for every n from a fixed number of
moments of w√x (g - g₀)^j, because s·g moves by well under one radian
across a window; the Taylor remainder of that series joins the slack.

Every large grid (the exact brackets, the piece masses, the slow
brackets, the diagonal's n-long chain of weights and summands) is
evaluated in blocks of rows of at most _BLOCK_ELEMENTS doubles, so peak
memory does not grow with the grid. Each element is computed by the same
floating-point operations in the same order as on the whole matrix, each
row keeps its own reduction, and each sum of the diagonal is still one
np.sum over its whole summand, so the results are bit for bit the same.

A sweep is built once from the config: sweep_grid gives each (M, k) row
its point unit_point(k) and its weight window_weight(M, k, cfg), and
run_sweep measures and predicts I on each row's weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cuspsums.coeffs import CoefficientTable
from cuspsums.config import NODE_BUDGET, ExperimentConfig
from cuspsums.oscillatory import derivative_certificate, jm_bound, l3_spec
from cuspsums.rational import RationalPoint, unit_point
from cuspsums.sums import step_series, unweighted_window_sum
from cuspsums.weight import (WeightProfile, eval_weight, window_gap,
                             window_roots, window_top, window_weight)

_GAUSS8_NODES, _GAUSS8_WEIGHTS = np.polynomial.legendre.leggauss(8)
_QUARTER_TURN = math.pi / 4.0
_NODE_BUDGET = NODE_BUDGET      # diagonal_profile's, by a name tests patch
_N_EXACT_FLOOR = 256            # see diagonal_term
# terms of the moment series of the slow brackets; for n <= M and Δ <= M,
# s·max|g - g₀| <= 0.23/k, so the first dropped term is below 1e-16 of the
# weight mass
_MOMENT_ORDER = 12
# first-grid Gauss-16 panels per unit of the peak rate 4√n/(k√x) over the
# window: about three cycles of the squared product form per panel
_PANELS_PER_RATE = 0.15625
# doubles per block of a blocked grid evaluation: 2^13 doubles are 64 KiB,
# under glibc's default 128 KiB mmap threshold, so a freed block is
# recycled from the heap instead of unmapped and faulted in again (this
# constant alone took the benchmark's 6-row sweep from 26.6k to 12.5k
# minor faults, with the same report bytes), and large enough that the
# numpy calls per block cost little beside the work in them. A block is
# therefore computed by plain expressions and assigned into its rows; only
# arrays as long as the grid are written in place
_BLOCK_ELEMENTS = 1 << 13


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


def _row_blocks(rows: int, width: int):
    """Slices of max(1, _BLOCK_ELEMENTS // width) rows covering rows, the last ragged."""
    step = max(1, _BLOCK_ELEMENTS // width)
    return (slice(start, min(start + step, rows))
            for start in range(0, rows, step))


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


def _root_weighted(weight: WeightProfile, x: np.ndarray, wts: np.ndarray):
    """Quadrature weights times w(x)·√x at the abscissae x."""
    return wts * eval_weight(weight, x) * np.sqrt(x)


def _weighted_nodes(weight: WeightProfile, panels: int):
    """Gauss-16 abscissae over the support plus w(x)·√x·quadrature weights."""
    x, wts = weight.gauss_panels(panels)
    return x, _root_weighted(weight, x, wts)


def _phase_columns(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(√(x+√x) + √x)/2 and window_gap(x): _cos_difference's factors of x."""
    root, top_root = window_roots(xs)
    return 0.5 * (top_root + root), window_gap(xs)


def _cos_difference(ns: np.ndarray, k: int, columns) -> np.ndarray:
    """cos Φ₁' - cos Φ₂' at each (n, x); phases carry the -π/4 offset.

    Product form -2 sin((A+B)/2 - π/4) sin(s g / 2) with A = s√(x+√x),
    B = s√x and s = 4π√n/k: only the rounding of the argument (A+B)/2
    itself is left, not a difference of two cosines near it. columns is
    _phase_columns(xs).
    """
    mean, gap = columns
    scale = (4.0 * math.pi / k) * np.sqrt(ns.astype(float))
    return (-2.0 * np.sin(np.outer(scale, mean) - _QUARTER_TURN)
            * np.sin(np.outer(0.5 * scale, gap)))


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

    The integrand is the squared product form of _cos_difference. The
    first grid (_first_panels) gives each Gauss-16 panel about three
    cycles of the squared integrand at the fastest requested frequency.
    One evaluation covers every n, a block of rows at a time;
    WeightProfile.refine settles each row to 1e-9 of the first grid's
    weight mass ∫ w √x. Returns (brackets, flagged) where flagged lists
    the n whose rows never settled inside _NODE_BUDGET nodes and were
    replaced by the trivial bound 4 ∫ w √x.
    """
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size == 0:
        return np.zeros(0), ()
    if np.any(ns < 1):
        raise ValueError("frequencies must satisfy n >= 1")
    panels = _first_panels(int(ns.max()), k, weight)
    mass = float(np.sum(_weighted_nodes(weight, panels)[1]))

    def squared_differences(xs: np.ndarray, wts: np.ndarray) -> np.ndarray:
        wsx = _root_weighted(weight, xs, wts)
        columns = _phase_columns(xs)
        out = np.empty(ns.size)
        for rows in _row_blocks(ns.size, xs.size):
            out[rows] = (_cos_difference(ns[rows], k, columns) ** 2
                         * wsx).sum(axis=1)
        return out

    values, settled = weight.refine(panels, squared_differences, 1e-9 * mass,
                                    _NODE_BUDGET)
    values[~settled] = 4.0 * mass
    return values, tuple(int(n) for n in ns[~settled])


def _slow_brackets(n_lo: int, n_hi: int, k: int, xs: np.ndarray,
                   wsx: np.ndarray) -> tuple[np.ndarray, float]:
    """Non-oscillatory part ∫ w √x (1 - cos s g) dx for n_lo ≤ n ≤ n_hi.

    With s = 4π√n/k, g = window_gap(x) and g₀ the midpoint of g's range,
    cos s g = Re e^(i s g₀) Σ_j (i s)^j/j! (g - g₀)^j, so every bracket
    follows from the _MOMENT_ORDER moments Σ w√x (g - g₀)^j on a
    weight-resolving grid. The Taylor remainder of e^(iy) bounds each
    bracket's truncation error by (s_max·max|g - g₀|)^J/J! · Σ|w√x|,
    J = _MOMENT_ORDER; returns (brackets, that bound).

    The Horner steps series ← m_{j-1} + (i s/j)·series run on the real
    and imaginary parts, a block of n at a time, and give numpy's complex
    arithmetic bit for bit: i s/j is (0, t) with t = s·(1.0/j) exactly
    (Smith's division by (j, 0)), and (0, t)·(re, im) is
    (0·re - t·im, 0·im + t·re), so with m real the new parts are
    re = m - t·im and im = t·re + 0.0. The zero products change no nonzero
    value; the + 0.0 keeps complex addition's +0.0 where t·re is -0.0. The
    last step, e^(i s g₀)·series, stays one complex product.
    """
    g = window_gap(xs)
    g0 = 0.5 * (float(g.min()) + float(g.max()))
    offset = g - g0
    moments = [float(np.sum(wsx * offset ** j)) for j in range(_MOMENT_ORDER)]
    mass = float(np.sum(wsx))
    brackets = np.empty(n_hi - n_lo + 1)
    for rows in _row_blocks(brackets.size, 1):
        scale = np.sqrt(np.arange(n_lo + rows.start, n_lo + rows.stop,
                                  dtype=float))
        scale *= 4.0 * math.pi / k
        # Horner in i s: series = Σ_j moments[j] (i s)^j / j!
        re = np.full(scale.size, moments[-1])
        im = np.zeros(scale.size)
        for j in range(_MOMENT_ORDER - 1, 0, -1):
            step = scale * (1.0 / j)
            re, im = moments[j - 1] - step * im, step * re + 0.0
        series = np.empty(scale.size, complex)
        series.real, series.imag = re, im
        brackets[rows] = mass - (np.exp(1j * g0 * scale) * series).real
    # s is monotone in n, so n_hi has the largest s
    s_max = (4.0 * math.pi / k) * math.sqrt(float(n_hi))
    reach = s_max * float(np.max(np.abs(offset)))
    bound = (reach ** _MOMENT_ORDER / math.factorial(_MOMENT_ORDER)
             * float(np.sum(np.abs(wsx))))
    return brackets, bound


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
    summand, truncation = _slow_brackets(n_exact + 1, n_top, k, xs, wsx)

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
