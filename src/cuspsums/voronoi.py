"""Truncated dual-sum approximation of long and short coefficient sums.

The long sum over n <= x of a(n) e(n h/k) has a closed approximation
through the resonance frequencies sqrt(n x): an amplitude
(pi sqrt(2))^{-1} k^{1/2} x^{1/4} times a dual sum of N terms
a(n) e_k(-n hbar) n^{-3/4} cos(4 pi sqrt(n x)/k + phase). Direct summation
stays the ground truth throughout: voronoi_error_scan sums each x directly
once and measures the error of every truncation and phase against it. Its
samples run in parallel on a ThreadPoolExecutor over the usable CPUs, and
its results are bit for bit those of one thread.

The truncation tail alone would follow an N^{-1/2} law, so quadrupling N
would halve the error. It does not at the scales measured here: the
median error falls only by factors 0.95 to 1.09 per quadrupling, because an
x-independent deficit of the leading-order main term at each rational point
dominates the tail. This is the documented FAIL of the acceptance check
truncation-decay-and-phase.

Two phase conventions circulate for the cosine argument, 0 and -pi/4.
Rather than fix one by fiat, both are legal VoronoiParams values and the
error scan shows which convention actually tracks the direct sum.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from cuspsums.coeffs import CoefficientTable
from cuspsums.rational import RationalPoint, progression_phases
from cuspsums.sums import long_sum

_AMPLITUDE = 1.0 / (math.pi * math.sqrt(2.0))
_PHASE_SHIFTS = (0.0, -math.pi / 4.0)


@dataclass(frozen=True)
class VoronoiParams:
    """Truncation length, evaluation point, and cosine phase convention."""

    point: RationalPoint
    n_trunc: int
    phase_shift: float = -math.pi / 4.0

    def __post_init__(self) -> None:
        if self.n_trunc < 0:
            raise ValueError(f"need n_trunc >= 0, got {self.n_trunc}")
        if self.phase_shift not in _PHASE_SHIFTS:
            raise ValueError(
                f"phase_shift must be 0 or -pi/4, got {self.phase_shift!r}"
            )

    def dual_coefficients(self, table: CoefficientTable
                          ) -> tuple[np.ndarray, np.ndarray]:
        """(n, a(n) e_k(-n hbar) n^(-3/4)) for n = 1..n_trunc; empty at n_trunc = 0."""
        table.require(self.n_trunc, "dual sum")
        ns = np.arange(1, self.n_trunc + 1)
        coeffs = progression_phases(-self.point.h_bar, self.point.k, self.n_trunc)
        coeffs *= table.a[:self.n_trunc]
        coeffs *= ns ** -0.75
        return ns, coeffs


def _check_x(x: float) -> float:
    if not math.isfinite(x) or x < 1.0:
        raise ValueError(f"need finite x >= 1, got {x}")
    return float(x)


def _main_terms(x: float, coeffs: np.ndarray, k: int,
                params: Sequence[VoronoiParams]) -> list[complex]:
    """voronoi_main_term of every params at x, from dual coefficients for
    n = 1..coeffs.size that reach each params' n_trunc.

    The argument (4 pi / k) sqrt(n x) is formed once, in place, and the terms
    of one phase at a time; each truncation sums the contiguous prefix of its
    phase's terms, the same elements in the same pairwise order as a table
    cut at n_trunc.
    """
    scaled = np.arange(1.0, coeffs.size + 1.0)
    scaled *= x
    np.sqrt(scaled, out=scaled)
    scaled *= 4.0 * np.pi / k
    amplitude = _AMPLITUDE * math.sqrt(k) * x ** 0.25
    values = [0j] * len(params)
    for shift in dict.fromkeys(p.phase_shift for p in params):
        terms = np.add(scaled, shift)
        terms = coeffs * np.cos(terms, out=terms)
        for i, p in enumerate(params):
            if p.phase_shift == shift:
                values[i] = complex(amplitude * np.sum(terms[:p.n_trunc]))
        del terms  # freed before the next phase's terms are formed
    return values


def voronoi_main_term(x: float, params: VoronoiParams,
                      table: CoefficientTable) -> complex:
    """(pi sqrt 2)^-1 k^(1/2) x^(1/4) sum_{n<=N} a(n)e_k(-n hbar)n^(-3/4)cos(...).

    The cosine argument is 4 pi sqrt(n x)/k + phase_shift. n_trunc = 0 is the
    empty sum and returns 0.
    """
    x = _check_x(x)
    coeffs = params.dual_coefficients(table)[1]
    return _main_terms(x, coeffs, params.point.k, (params,))[0]


def voronoi_error_scan(xs, params: Sequence[VoronoiParams],
                       table: CoefficientTable) -> np.ndarray:
    """|long_sum(x) - voronoi_main_term(x, p)| for every p in params and x in xs.

    All params share one point, so the dual coefficients are built once, at
    the longest truncation, and each long_sum(x) is computed once and
    compared with every truncation and phase; row i of the result holds
    the errors of params[i], bit for bit those of voronoi_main_term.

    Every x is checked before any is evaluated. The samples then run on a
    ThreadPoolExecutor with one thread per usable CPU, at most one per x;
    each computes its own column from the same elements in the same order,
    so the result is bit for bit that of one thread whatever the CPU count.
    A failed sample does not stop the others: the pool goes on with the
    queued samples until every sample before the failed one has finished,
    then cancels those not yet started, waits for those running and raises
    the first exception in sample order. No partial result is returned,
    and no pool thread outlives the call.
    """
    xs = np.asarray(xs, dtype=float)
    params = tuple(params)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("need a non-empty 1-d grid of x values")
    if not params:
        raise ValueError("error scan needs at least one VoronoiParams")
    if any(p.n_trunc < 1 for p in params):
        raise ValueError("error scan needs n_trunc >= 1")
    point = params[0].point
    if any(p.point != point for p in params):
        raise ValueError("error scan params must share one point")
    xs = [_check_x(x) for x in xs]
    coeffs = max(params, key=lambda p: p.n_trunc).dual_coefficients(table)[1]

    def sample(x: float) -> list[float]:
        direct = long_sum(x, point, table)
        return [abs(direct - value)
                for value in _main_terms(x, coeffs, point.k, params)]

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)       # macOS and Windows: every CPU
    with ThreadPoolExecutor(min(cpus, len(xs))) as pool:
        return np.column_stack(list(pool.map(sample, xs)))


@dataclass(frozen=True)
class EnvelopeFit:
    """Least-squares fit of err = coeff * k x^(1/2) N^(-1/2) x^exponent."""

    coeff: float
    exponent: float
    rms_residual: float
    points: int


def fit_error_envelope(xs, errors, n_truncs, ks) -> EnvelopeFit:
    """Fit the envelope exponent from pooled scan data.

    Regresses log(err sqrt(N) / (k sqrt(x))) on log x; a small fitted
    exponent is the desk-scale surrogate for the x^epsilon factor in the
    truncation error. Zero errors are dropped from the fit.
    """
    xs = np.asarray(xs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    n_truncs = np.broadcast_to(np.asarray(n_truncs, dtype=float), xs.shape)
    ks = np.broadcast_to(np.asarray(ks, dtype=float), xs.shape)
    keep = errors > 0.0
    if keep.sum() < 2:
        raise ValueError("envelope fit needs at least two nonzero errors")
    y = np.log(errors[keep] * np.sqrt(n_truncs[keep])
               / (ks[keep] * np.sqrt(xs[keep])))
    t = np.log(xs[keep])
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    return EnvelopeFit(coeff=float(math.exp(intercept)), exponent=float(slope),
                       rms_residual=float(np.sqrt(np.mean(resid ** 2))),
                       points=int(keep.sum()))
