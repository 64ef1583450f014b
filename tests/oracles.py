"""Oracles and check instruments used by the test suite.

The first section is deliberately naive and shares no code with the
package internals beyond data types. Most references are direct
re-computations; tau_pentagonal is the one faster algorithm, an O(n^1.5)
recurrence that shares no method with the package's FFT kernel either.

One reference there is not naive: short_sum, the direct S(x) of one
window, reads the package's window_bounds and e_k, the rules every short
sum shares, and window_sum_by_rescan beside it checks it without them.

The last two sections call package kernels. The check instruments measure
what no command reports: the diagonal's brackets integrated in x, from the
cosine difference in product form, as a reference independent of the
package's integration in y; the truncated dual-sum reconstruction of the
mean square split into diagonal and off-diagonal; and the dual sum
differenced across the short window. They are built on cos_difference,
WeightProfile.refine, gauss_panels and VoronoiParams.dual_coefficients.
The one-matrix references evaluate a blocked package loop as one whole
matrix, through the package's own pointwise kernels, so that a test can
require the blocks to give the same bits as the whole; the step series'
reference sums its events instead, and is held to a tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction


def table_from_tau(tau):
    """CoefficientTable of tau(1..len(tau)) packed into cache records. A
    value outside the signed 128-bit range raises OverflowError."""
    import numpy as np

    from cuspsums.coeffs import _RECORD, CoefficientTable

    return CoefficientTable(np.array([(t % 2**64, t >> 64) for t in tau],
                                     dtype=_RECORD))


def tau_truncated_product(count: int) -> list[int]:
    """tau(1..count) by schoolbook truncated power-series arithmetic.

    Builds E = prod_{j < count} (1 - q^j) one factor at a time, raises it to
    the 24th power by 23 further truncated multiplications, and shifts by one
    power of q. Quadratic time, exact integers. The sparsity of E is
    discovered from the computed coefficients, not assumed.
    """
    n = count
    if n <= 0:
        return []
    e = [0] * n
    e[0] = 1
    for j in range(1, n):
        # multiply by (1 - q^j) in place, high coefficients first
        for i in range(n - 1, j - 1, -1):
            e[i] -= e[i - j]
    support = [(i, c) for i, c in enumerate(e) if c]
    p = list(e)
    for _ in range(23):
        out = [0] * n
        for i, c in support:
            if c == 1:
                for j in range(n - i):
                    out[i + j] += p[j]
            elif c == -1:
                for j in range(n - i):
                    out[i + j] -= p[j]
            else:
                for j in range(n - i):
                    out[i + j] += c * p[j]
        p = out
    return p  # p[i] = tau(i+1)


def tau_pentagonal(count: int) -> list[int]:
    """tau(1..count) by the logarithmic-derivative recurrence.

    Writing P(q) = prod(1-q^n)^24 = sum c(j) q^j and E = prod(1-q^n), the
    identity 24 E'P = P'E against Euler's pentagonal expansion of E gives

        n * c(n) = - sum over pentagonal g of s_g * (n - 25 g) * c(n - g),

    with s_g the pentagonal sign, so each coefficient costs O(sqrt(n)) exact
    integer operations and tau(n) = c(n-1).
    """
    if count <= 0:
        return []
    pent = []
    k = 1
    while k * (3 * k - 1) // 2 < count:
        sign = -1 if k % 2 else 1
        pent.append((k * (3 * k - 1) // 2, sign))
        pent.append((k * (3 * k + 1) // 2, sign))
        k += 1
    c = [0] * count
    c[0] = 1
    for n in range(1, count):
        s = 0
        for g, sign in pent:
            if g > n:
                break
            s += sign * (n - 25 * g) * c[n - g]
        q, rem = divmod(-s, n)
        assert rem == 0, f"recurrence gave a non-integer at n={n}"
        c[n] = q
    return c


def window_sum_by_rescan(x: float, h: int, k: int, a_values) -> complex:
    """Direct re-summation of the short window sum with independent phases.

    Membership is decided per integer by the defining inequalities, and each
    phase is reduced in exact rational arithmetic before exponentiation.
    """
    total = 0j
    n = 1
    while n <= x + math.sqrt(x) + 1:
        if n >= x and n <= x + math.sqrt(x):
            frac = Fraction(n * h, k) % 1
            total += a_values[n - 1] * cmath.exp(2j * cmath.pi * float(frac))
        n += 1
    return total


def short_sum(x: float, alpha, table) -> complex:
    """S(x) = sum_{x <= n <= x + sqrt(x)} a(n) e(n h/k), alpha = h/k, summed pairwise."""
    import numpy as np

    from cuspsums.rational import e_k
    from cuspsums.weight import window_bounds

    lo, hi = window_bounds(x)
    table.require(hi, f"short_sum at x={x}")
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    return complex(np.sum(table.a[lo - 1: hi] * e_k(ns * alpha.h, alpha.k)))


def step_edges_by_loop(m: float, delta: float, inner) -> list[float]:
    """Piece edges of the step series by the per-breakpoint merge loop.

    Starts at m, keeps each breakpoint more than 1e-9 past the last kept
    edge, and ends at m + delta, which replaces a last edge within 1e-9.
    """
    hi = m + delta
    edges = [float(m)]
    for x in inner:
        if x - edges[-1] > 1e-9:
            edges.append(float(x))
    if hi - edges[-1] > 1e-9:
        edges.append(float(hi))
    else:
        edges[-1] = float(hi)
    return edges


def j_bessel_12(z):
    """J_12(z) for z >= 100, without special-function libraries.

    Hankel asymptotic series for J_0 and J_1 (where the series parameter
    1/(8z) is tiny), then eleven steps of the upward recurrence, which is
    stable here because the order stays far below z. Agrees with library
    Bessel values to ~7e-15 absolute over z in [100, 20000].
    """
    import numpy as np

    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z < 100.0):
        raise ValueError("j_bessel_12 oracle is only calibrated for z >= 100")
    low = {}
    for nu in (0.0, 1.0):
        mu = 4.0 * nu * nu
        w = z - nu * np.pi / 2.0 - np.pi / 4.0
        p = np.ones_like(z)
        q = np.zeros_like(z)
        a = 1.0
        for j in range(1, 9):
            a = a * (mu - (2 * j - 1) ** 2) / (j * 8.0)
            term = a / z ** j
            if j % 2 == 1:
                q += (-1.0) ** ((j - 1) // 2) * term
            else:
                p += (-1.0) ** (j // 2) * term
        low[nu] = np.sqrt(2.0 / (np.pi * z)) * (np.cos(w) * p - np.sin(w) * q)
    j_prev, j_cur = low[0.0], low[1.0]
    for n in range(1, 12):
        j_prev, j_cur = j_cur, (2.0 * n / z) * j_cur - j_prev
    return j_cur


def riemann_mean_square(m: float, delta: float, h: int, k: int, a_values,
                        weight, samples: int) -> float:
    """Midpoint Riemann sum of w(x) |S(x)|^2 using running prefix sums."""
    import numpy as np

    from cuspsums.weight import eval_weight

    n_top = math.floor((m + delta) + math.sqrt(m + delta))
    prefix = np.zeros(n_top + 1, dtype=complex)
    ns = np.arange(1, n_top + 1)
    phases = np.exp(2j * np.pi * ((ns * h) % k) / k)
    prefix[1:] = np.cumsum(np.asarray(a_values[:n_top]) * phases)

    xs = m + (np.arange(samples) + 0.5) * (delta / samples)
    lo = np.ceil(xs).astype(np.int64)
    hi = np.floor(xs + np.sqrt(xs)).astype(np.int64)
    s = prefix[hi] - prefix[lo - 1]
    w = eval_weight(weight, xs)
    return float(np.sum(w * np.abs(s) ** 2) * (delta / samples))


def simpson_integral(f, lo: float, hi: float, intervals: int = 1 << 17) -> float:
    """Composite Simpson's rule; f must accept a numpy array of abscissae."""
    import numpy as np

    if intervals % 2:
        raise ValueError("Simpson needs an even interval count")
    xs = np.linspace(lo, hi, intervals + 1)
    coeff = np.ones(intervals + 1)
    coeff[1:-1:2] = 4.0
    coeff[2:-1:2] = 2.0
    return float(np.dot(coeff, f(xs))) * (hi - lo) / intervals / 3.0


@dataclass(frozen=True)
class DiagIdentityCheck:
    """Max deviation of (cos A - cos B)² from 4 sin²((A+B)/2) sin²((A-B)/2).

    paper_discrepancy is the deviation from the factor-free product, and
    recovered_factor the observed ratio between the two sides.
    """

    discrepancy: float
    paper_discrepancy: float
    recovered_factor: float

    def __float__(self) -> float:
        return self.discrepancy


def diag_identity_check(n: int, k: int, xs) -> DiagIdentityCheck:
    """Pointwise check of the product form of the squared cosine difference,
    at the phases A, B = 4π√(n T)/k - π/4 with T = x + √x and T = x.

    It backs the acceptance check diagonal-domination.
    """
    import numpy as np

    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n}, k={k}")
    xs = np.asarray(xs, dtype=float)
    if np.any(xs < 1.0):
        raise ValueError("need sample points x >= 1")
    a = (4.0 * math.pi / k) * np.sqrt(n * (xs + np.sqrt(xs))) - math.pi / 4.0
    b = (4.0 * math.pi / k) * np.sqrt(n * xs) - math.pi / 4.0
    lhs = (np.cos(a) - np.cos(b)) ** 2
    product = np.sin(0.5 * (a + b)) ** 2 * np.sin(0.5 * (a - b)) ** 2
    keep = product > 1e-12
    factor = float(np.median(lhs[keep] / product[keep])) if keep.any() else math.nan
    return DiagIdentityCheck(
        discrepancy=float(np.max(np.abs(lhs - 4.0 * product))),
        paper_discrepancy=float(np.max(np.abs(lhs - product))),
        recovered_factor=factor,
    )


# Check instruments on package kernels: cos_difference, WeightProfile.refine,
# gauss_panels and VoronoiParams.dual_coefficients. No command reports what
# they measure.

_CROSSCHECK_NODE_BUDGET = 8_000_000


def phase_columns(xs):
    """(√(x+√x) + √x)/2 and window_gap(x): cos_difference's factors of x."""
    from cuspsums.weight import window_gap, window_roots

    root, top_root = window_roots(xs)
    return 0.5 * (top_root + root), window_gap(xs)


def cos_difference(ns, k: int, columns):
    """cos Φ₁' - cos Φ₂' at each (n, x); phases carry the -π/4 offset.

    Product form -2 sin((A+B)/2 - π/4) sin(s g / 2) with A = s√(x+√x),
    B = s√x and s = 4π√n/k: only the rounding of the argument (A+B)/2
    itself is left, not a difference of two cosines near it. columns is
    phase_columns(xs).
    """
    import numpy as np

    mean, gap = columns
    scale = (4.0 * math.pi / k) * np.sqrt(ns.astype(float))
    return (-2.0 * np.sin(np.outer(scale, mean) - math.pi / 4.0)
            * np.sin(np.outer(0.5 * scale, gap)))


def profile_on_x_grid(ns, k: int, weight, panels: int):
    """The brackets ∫ w √x (cos Φ₁' - cos Φ₂')² dx on a fixed grid in x.

    Gauss-16 panels uniform in x, the squared cosine difference at every
    node, a few rows at a time; meansquare.diagonal_profile integrates the
    same brackets in y = √x + √(x + √x).
    """
    import numpy as np

    from cuspsums import meansquare as msq

    ns = np.asarray(ns, dtype=np.int64)
    xs, wsx = msq._weighted_nodes(weight, panels)
    columns = phase_columns(xs)
    out = np.empty(ns.size)
    for start in range(0, ns.size, 16):
        rows = slice(start, start + 16)
        out[rows] = (cos_difference(ns[rows], k, columns) ** 2 * wsx).sum(axis=1)
    return out


@dataclass(frozen=True)
class OffDiagonalReport:
    """Truncated expansion of I split into its predicted pieces.

    total = diagonal + offdiagonal is the reconstruction; allowance is the
    k²Δ error budget the expansion carries at face value; majorant the
    k²√M-scaled closed-form dominating the off-diagonal double sum.
    """

    diagonal: float
    offdiagonal: float
    allowance: float
    theorem: float
    majorant: float
    n_trunc: int

    @property
    def total(self) -> float:
        return self.diagonal + self.offdiagonal

    @property
    def rel_gap(self) -> float:
        return abs(self.total - self.theorem) / self.theorem


def offdiagonal_majorant(n_trunc: int) -> float:
    """Σ_{m<n≤N} n^(-1/4) m^(-3/4) (n-m)^(-1), the ε=0 dominating sum."""
    import numpy as np

    if n_trunc < 2:
        return 0.0
    ns = np.arange(1, n_trunc + 1, dtype=float)
    total = 0.0
    for i, n in enumerate(ns[1:], start=1):
        ms = ns[:i]
        total += float(n ** -0.25 * np.sum(ms ** -0.75 / (n - ms)))
    return total


def offdiagonal_crosscheck(m: float, delta: float, point, weight, table,
                           n_trunc: int) -> OffDiagonalReport:
    """Reconstruct I from the truncated dual expansion of S and compare.

    S is replaced by its n <= n_trunc main-term sum; |S|² then splits into
    the diagonal (squared brackets) and the off-diagonal double sum, both
    integrated on one shared grid that resolves the fastest cross phase.
    Quadratic cost in n_trunc keeps this a small-M instrument: the only
    numerical check of the diagonal/off-diagonal split.
    """
    import numpy as np

    from cuspsums import meansquare as msq
    from cuspsums.voronoi import VoronoiParams

    if m > 2e3:
        raise ValueError(f"crosscheck is restricted to m <= 2e3, got {m}")
    if not 1 <= n_trunc <= 200:
        raise ValueError(f"need 1 <= n_trunc <= 200, got {n_trunc}")
    msq._check_geometry(m, delta, weight)
    k = point.k
    lo, hi = weight.support
    # fastest phase among all cross terms: both radicals at n_trunc, summed
    peak = 4.0 * math.sqrt(float(n_trunc)) / (k * math.sqrt(lo))
    panels = weight.first_panels(1.25 * peak * delta)
    if 48 * panels > _CROSSCHECK_NODE_BUDGET:
        raise ValueError("truncation level needs more nodes than budgeted")
    ns, z = VoronoiParams(point, n_trunc).dual_coefficients(table)

    def pair_integrals(panels):
        xs, wsx = msq._weighted_nodes(weight, panels)
        diffs = cos_difference(ns, k, phase_columns(xs))
        return (diffs * wsx) @ diffs.T

    pairs, settled = weight.refine(panels, pair_integrals, 1e-9 * (hi - lo)
                                   * math.sqrt(hi), _CROSSCHECK_NODE_BUDGET)
    if not settled.all():
        raise ValueError("pair integrals did not settle under panel doubling")

    full = float(np.real(np.conj(z) @ pairs @ z))
    diag = float(np.abs(z) ** 2 @ np.diag(pairs))
    prefactor = k / (2.0 * math.pi ** 2)
    theorem = msq.theorem_integral(point, weight, table)
    return OffDiagonalReport(
        diagonal=prefactor * diag,
        offdiagonal=prefactor * (full - diag),
        allowance=k * k * delta,
        theorem=theorem,
        majorant=k * k * math.sqrt(m) * offdiagonal_majorant(n_trunc),
        n_trunc=n_trunc,
    )


def short_sum_main_term(x: float, params, table) -> complex:
    """Differenced main term for the short window [x, x + sqrt(x)].

    Each dual term carries cos at the top end minus cos at the bottom end,
    both ends sharing the amplitude x^(1/4): the long-sum deficit cancels
    in the window difference.
    """
    import numpy as np

    from cuspsums.voronoi import _AMPLITUDE, _check_x
    from cuspsums.weight import window_top

    x = _check_x(x)
    ns, coeffs = params.dual_coefficients(table)
    k = params.point.k
    top = window_top(x)
    args_top = (4.0 * np.pi / k) * np.sqrt(ns * top) + params.phase_shift
    args_bot = (4.0 * np.pi / k) * np.sqrt(ns * x) + params.phase_shift
    diff = (np.cos(args_top) - np.cos(args_bot)) * x ** 0.25
    terms = coeffs * diff
    return complex(_AMPLITUDE * math.sqrt(k) * np.sum(terms))


# One-matrix references of the package's blocked loops. Each builds its
# whole grid at once, as the package did before it evaluated in blocks.


def profile_one_matrix(ns, k: int, weight, node_budget: int = 2_000_000):
    """meansquare.diagonal_profile with every row of a grid in one matrix."""
    import numpy as np

    from cuspsums import meansquare as msq

    ns = np.asarray(ns, dtype=np.int64)
    scale = (4.0 * math.pi / k) * np.sqrt(ns.astype(float))
    panels = msq._first_panels(int(ns.max()), k, weight)
    mass = float(np.sum(msq._root_sum_nodes(weight, panels)[1]))
    tol = 1e-9 * mass

    def brackets(panels):
        grid = msq._phase_grid(weight, panels)
        return msq._exact_brackets(scale, msq._exact_moments(scale, grid),
                                   grid, tol)

    values, settled = weight.refine(panels, brackets, tol, node_budget)
    values[~settled] = 4.0 * mass
    return values, tuple(int(n) for n in ns[~settled])


def piece_masses_one_matrix(weight, edges):
    """meansquare._piece_weight_masses as one pieces x 8 matrix."""
    import numpy as np

    from cuspsums.weight import eval_weight

    nodes, wts = np.polynomial.legendre.leggauss(8)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = mid[:, None] + half[:, None] * nodes[None, :]
    return half * (eval_weight(weight, x) * wts).sum(axis=1)


def slow_brackets_one_matrix(ns, k: int, moments, g0: float):
    """meansquare._slow_brackets with the moment series over every n at once."""
    import numpy as np

    from cuspsums import meansquare as msq

    scale = (4.0 * math.pi / k) * np.sqrt(ns.astype(float))
    return msq._moment_series(scale, moments, g0)


def normalized_one_shot(records):
    """coeffs.normalize's a(n) from one n-long conversion and division."""
    import numpy as np

    from cuspsums.coeffs import _record_doubles

    return _record_doubles(records) / np.arange(1, records.size + 1,
                                                dtype=float) ** 5.5


def diagonal_term_one_matrix(m: float, delta: float, k: int, weight, table):
    """meansquare.diagonal_term with its n-long chain as whole arrays."""
    import numpy as np

    from cuspsums import meansquare as msq
    from cuspsums.oscillatory import (T_SHIFTED, derivative_certificate,
                                      jm_bound, l3_spec)
    from cuspsums.rational import unit_point
    from cuspsums.weight import window_gap

    msq._check_geometry(m, delta, weight)
    n_top = math.floor(m)
    table.require(n_top, "diagonal_term")
    n_exact = min(max(msq._N_EXACT_FLOOR, 4 * k * k), n_top)

    coeff = (k / (2.0 * math.pi ** 2)) \
        * np.abs(table.a[:n_top]) ** 2 / np.arange(1, n_top + 1) ** 1.5

    exact_ns = np.arange(1, n_exact + 1, dtype=np.int64)
    exact_vals, flagged = msq.diagonal_profile(exact_ns, k, weight)
    value = float(np.sum(coeff[:n_exact] * exact_vals))

    slack = 0.0
    if n_exact < n_top:
        xs, wsx = msq._weighted_nodes(weight, weight.first_panels(0.0))
        columns, g0, reach = msq._moment_columns(wsx, window_gap(xs))
        moments = columns.sum(axis=0)
        tail_ns = np.arange(n_exact + 1, n_top + 1, dtype=np.int64)
        tail_coeff = coeff[n_exact:]
        brackets = msq._slow_brackets(n_exact + 1, n_top, k, moments, g0)
        truncation = msq._series_bound(
            (4.0 * math.pi / k) * math.sqrt(float(n_top)) * reach) \
            * abs(moments[0])
        value += float(np.sum(tail_coeff * brackets))
        pt = unit_point(k)
        cert = min(
            (derivative_certificate(weight, spec)
             for spec in (l3_spec(n_exact, n_exact, pt, t_n=T_SHIFTED, t_m=T_SHIFTED),
                          l3_spec(n_exact, n_exact, pt),
                          l3_spec(n_exact, n_exact, pt, t_m=T_SHIFTED))),
            key=lambda c: c.b1)
        per_piece = jm_bound(cert)
        slack = 2.0 * per_piece * float(
            np.sum(tail_coeff * np.sqrt(n_exact / tail_ns.astype(float))))
        slack += truncation * float(np.sum(tail_coeff))
    return msq.DiagonalTerm(value=value, slack=slack, n_exact=n_exact,
                            flagged=flagged)


def step_series_one_matrix(m: float, delta: float, point, table):
    """sums.step_series as one cumulative sum of every piece's event delta.

    It starts from short_sum at the first piece's midpoint. Its events come
    from rounding each edge, and the edge's window top, to the nearest
    integer within the breakpoint merge tolerance: a rule independent of
    the package's, which reads each piece's whole window from window_bounds
    at its midpoint.
    """
    import numpy as np

    from cuspsums import sums
    from cuspsums.rational import e_k
    from cuspsums.weight import window_top

    tol = sums._BREAKPOINT_TOL
    hi = m + delta
    inner = sums.breakpoints(m, delta)
    inner = inner[(inner - m > tol) & (hi - inner > tol)]
    head = [float(m)] if hi - m > tol else []
    edges = np.concatenate([head, inner, [float(hi)]])

    xs = edges[1:-1]
    n_piece = edges.size - 1
    piece_delta = np.zeros(n_piece, dtype=complex)
    if xs.size:
        n_cand = np.rint(xs)
        is_entry = np.abs(xs - n_cand) <= tol
        tops = window_top(xs)
        j_cand = np.rint(tops)
        is_exit = np.abs(tops - j_cand) <= tol
        deltas = np.zeros(xs.size, dtype=complex)
        for mask, sign, cand in ((is_entry, -1.0, n_cand), (is_exit, +1.0, j_cand)):
            if mask.any():
                js = cand[mask].astype(np.int64)
                deltas[mask] += sign * table.a[js - 1] * e_k(js * point.h, point.k)
        piece_delta[1:] = deltas

    piece_delta[0] = short_sum(0.5 * (edges[0] + edges[1]), point, table)
    return sums.StepSeries(breakpoints=edges, values=np.cumsum(piece_delta))
