"""Smooth compactly supported window weights.

The weight w(x) = psi((x - M)/r) * psi((M + Delta - x)/r) vanishes outside
[M, M + Delta], equals exactly 1 on the plateau [M + r, M + Delta - r], and is
C-infinity everywhere, built from the classical transition

    psi(t) = g(t) / (g(t) + g(1 - t)),      g(t) = exp(-1/t) for t > 0 else 0.

All derivatives scale like r^{-n}: sup|w^(n)(x)| * r^n is a constant C_n
independent of (M, Delta, r). derivative_bound_report measures those constants
by central finite differences on a dense grid; with the default ramp r =
Delta/4 they translate into sup|w^(n)| <= C_n * 4^n * Delta^{-n}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_GAUSS16_NODES, _GAUSS16_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class WeightProfile:
    """Immutable window description; calling it evaluates w(x)."""

    m: float
    delta: float
    r: float

    def __call__(self, x):
        return eval_weight(self, x)

    @property
    def support(self) -> tuple[float, float]:
        return (self.m, self.m + self.delta)

    def gauss_panels(self, panels: int) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-16 abscissae and quadrature weights on equal panels of the support.

        Both arrays are flat, panel by panel; callers multiply in their own
        integrand, w(x) included.
        """
        lo, hi = self.support
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        x = (mid[:, None] + half[:, None] * _GAUSS16_NODES[None, :]).ravel()
        return x, (half[:, None] * _GAUSS16_WEIGHTS[None, :]).ravel()

    def first_panels(self, cycles: float) -> int:
        """Panels of the first grid of every weighted integral on the window.

        max(8, ⌈cycles⌉, ⌈2Δ/r⌉): the caller's panel count for its
        integrand, but at least 8 and two per ramp width.
        """
        return max(8, math.ceil(cycles), math.ceil(2.0 * self.delta / self.r))

    def refine(self, panels: int, evaluate, tol: float, node_budget: int):
        """Gauss-16 integrals evaluate(x, wts), refined by panel doubling.

        Evaluates the first grid of `panels` panels, then doubles while the
        nodes so far plus the next grid fit in node_budget. An entry settles
        once two successive grids agree to tol, and stays settled; refinement
        stops when all have. Returns (last-grid values, settled).
        """
        x, wts = self.gauss_panels(panels)
        values = evaluate(x, wts)
        nodes_used = x.size
        settled = np.zeros(np.shape(values), dtype=bool)
        while not settled.all() and nodes_used + 32 * panels <= node_budget:
            panels *= 2
            x, wts = self.gauss_panels(panels)
            nodes_used += x.size
            refined = evaluate(x, wts)
            settled |= np.abs(refined - values) <= tol
            values = refined
        return values, settled


def _psi(t: np.ndarray) -> np.ndarray:
    # exact 0 below the ramp and exact 1 above it; smooth in between
    out = np.zeros(t.shape)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    g = np.exp(-1.0 / tm)
    g1 = np.exp(-1.0 / (1.0 - tm))
    out[mid] = g / (g + g1)
    return out


def build_weight(m: float, delta: float, r: float | None = None) -> WeightProfile:
    """Window on [m, m + delta] with rise/fall length r (default delta/4)."""
    m = float(m)
    delta = float(delta)
    if not math.isfinite(m) or m < 2.0:
        raise ValueError(f"window start must satisfy m >= 2, got {m}")
    if not math.isfinite(delta) or delta <= 0.0:
        raise ValueError(f"support length must be positive, got {delta}")
    r = delta / 4.0 if r is None else float(r)
    if not 0.0 < r <= delta / 2.0:
        raise ValueError(f"ramp length must satisfy 0 < r <= delta/2, got r={r}")
    return WeightProfile(m, delta, r)


def eval_weight(profile: WeightProfile, x):
    """w(x), vectorized; returns a float for scalar input."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    up = _psi((arr - profile.m) / profile.r)
    down = _psi((profile.m + profile.delta - arr) / profile.r)
    out = up * down
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class DerivativeBoundReport:
    """sup|w^(n)(x)| * r^n per order n, plus the grid size that produced it."""

    orders: dict[int, float]
    grid_points: int


# stride of the difference stencil per order; wider steps trade truncation
# error for round-off noise, which grows like eps * 2^n / h^n
_STRIDE = {0: 1, 1: 1, 2: 1, 3: 4, 4: 12, 5: 24, 6: 48}
_BASE_STEP = 1e-4  # in ramp units: >= 10^4 samples across each transition


def derivative_bound_report(profile: WeightProfile, n_max: int = 4) -> DerivativeBoundReport:
    """Estimate C_n = sup|w^(n)(x)| * r^n for n = 0..n_max by finite differences.

    Differences are taken in ramp units t = (x - m)/r, where w^(n) * r^n is
    the plain n-th derivative, so the reported constants are scale-free by
    construction up to the floating-point error of forming x = m + t*r.
    No command calls it: it re-measures the frozen calibrated.WEIGHT_C*
    constants (tests/test_weight.py).
    """
    if not 0 <= n_max <= 6:
        raise ValueError("finite differences are reliable only for orders 0..6")
    t = np.linspace(-0.2, 1.2, 14001)
    grids = [
        profile.m + t * profile.r,                   # rising ramp
        profile.m + profile.delta - t * profile.r,   # falling ramp, mirrored
    ]
    sup = {n: 0.0 for n in range(n_max + 1)}
    for xs in grids:
        w = eval_weight(profile, xs)
        for n in range(n_max + 1):
            s = _STRIDE[n]
            h = _BASE_STEP * s
            d = np.diff(w[::s], n=n) if n else w[::s]
            sup[n] = max(sup[n], float(np.max(np.abs(d)) / h**n if n else np.max(d)))
    return DerivativeBoundReport(orders=sup, grid_points=t.size)
