"""Smooth compactly supported window weights.

The weight w(x) = psi((x - M)/r) * psi((M + Delta - x)/r) vanishes outside
[M, M + Delta], equals exactly 1 on the plateau [M + r, M + Delta - r], and is
C-infinity everywhere, built from the classical transition

    psi(t) = g(t) / (g(t) + g(1 - t)),      g(t) = exp(-1/t) for t > 0 else 0.

On (0, 1), psi(t) = sigma(v(t)) with v(t) = 1/(1 - t) - 1/t and sigma the
logistic function, so psi'(t) = sigma (1 - sigma) (1/t^2 + 1/(1 - t)^2). It
peaks at psi'(1/2) = 1/4 * 8 = 2 = RAMP_SLOPE_MAX. The two ramps have
disjoint interiors whenever r <= Delta/2, so sup|w'| = RAMP_SLOPE_MAX / r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_GAUSS16_NODES, _GAUSS16_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class WeightProfile:
    """Immutable window description; eval_weight evaluates w(x)."""

    m: float
    delta: float
    r: float

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


# sup psi' over the ramp, attained at t = 1/2 (see the module docstring)
RAMP_SLOPE_MAX = 2.0


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


def window_length(m: float, k: int, delta_coeff: float,
                  delta_exponent: float) -> float:
    """The window rule Δ = c k M^p, clipped to [1e3, M]."""
    return min(max(delta_coeff * k * m ** delta_exponent, 1e3), m)


def eval_weight(profile: WeightProfile, x):
    """w(x), vectorized; returns a float for scalar input."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    up = _psi((arr - profile.m) / profile.r)
    down = _psi((profile.m + profile.delta - arr) / profile.r)
    out = up * down
    return float(out[0]) if scalar else out

