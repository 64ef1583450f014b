"""Smooth compactly supported window weights, the row rule and the window [x, x + √x].

The weight w(x) = psi((x - M)/r) * psi((M + Delta - x)/r) vanishes outside
[M, M + Delta], equals exactly 1 on the plateau [M + r, M + Delta - r], and is
C-infinity everywhere, built from the classical transition

    psi(t) = g(t) / (g(t) + g(1 - t)),      g(t) = exp(-1/t) for t > 0 else 0.

On (0, 1), psi(t) = sigma(v(t)) with v(t) = 1/(1 - t) - 1/t and sigma the
logistic function, so psi'(t) = sigma (1 - sigma) (1/t^2 + 1/(1 - t)^2). It
peaks at psi'(1/2) = 1/4 * 8 = 2 = RAMP_SLOPE_MAX. The two ramps have
disjoint interiors whenever r <= Delta/2, so sup|w'| = RAMP_SLOPE_MAX / r.

window_weight builds the weight of each (M, k) row of the mean-square sweep
and of verify-lemmas from the config: the one home of that rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cuspsums.config import ExperimentConfig

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

    def first_panels(self, cycles: float) -> int:
        """Panels of the first grid of every weighted integral on the window.

        max(8, ⌈cycles⌉, ⌈2Δ/r⌉): the caller's panel count for its
        integrand, but at least 8 and two per ramp width.
        """
        return max(8, math.ceil(cycles), math.ceil(2.0 * self.delta / self.r))

    def refine(self, panels: int, evaluate, tol: float, node_budget: int):
        """Gauss-16 integrals evaluate(panels), refined by panel doubling.

        evaluate lays its own grid of `panels` Gauss-16 panels, with
        gauss_panels, and returns its integrals. Evaluates the first grid,
        then doubles while the nodes so far plus the next grid fit in
        node_budget. An entry settles once two successive grids agree to
        tol, and stays settled; a NaN entry never settles. Refinement stops
        when every entry has settled or is NaN (or infinite) on the last
        grid. Returns (last-grid values, settled).
        """
        values = evaluate(panels)
        nodes_used = 16 * panels
        settled = np.zeros(np.shape(values), dtype=bool)
        while ((np.isfinite(values) & ~settled).any()
               and nodes_used + 32 * panels <= node_budget):
            panels *= 2
            nodes_used += 16 * panels
            refined = evaluate(panels)
            settled |= np.abs(refined - values) <= tol
            values = refined
        return values, settled


def gauss_panels(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-16 abscissae and quadrature weights on equal panels of [lo, hi].

    Both arrays are flat, panel by panel, and the first panel's 16 nodes
    come first; node l of panel p lies at node l of the first panel plus
    p·(hi - lo)/panels, up to rounding. Callers multiply in their own
    integrand, w(x) included.
    """
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * _GAUSS16_NODES[None, :]).ravel()
    return x, (half[:, None] * _GAUSS16_WEIGHTS[None, :]).ravel()


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


def window_weight(m: float, k: int, cfg: ExperimentConfig) -> WeightProfile:
    """The weight of the (M, k) row of a sweep or of verify-lemmas.

    Δ follows the rule Δ = c k M^p clipped to [1e3, M], with c and p the
    config's delta_coeff and delta_exponent; the ramp is rise_fraction·Δ.
    """
    delta = min(max(cfg.delta_coeff * k * m ** cfg.delta_exponent, 1e3), m)
    return build_weight(m, delta, cfg.rise_fraction * delta)


def window_top(x):
    """The top x + √x of the short window [x, x + √x]."""
    return x + np.sqrt(x)


def window_bounds(x):
    """The integer window [⌈x⌉, ⌊x + √x⌋], both ends closed, as int64s.

    Takes a scalar or an array; every x must be finite and >= 1.
    """
    x = np.asarray(x, dtype=float)
    valid = np.isfinite(x) & (x >= 1.0)
    if not valid.all():
        raise ValueError(f"window position must satisfy x >= 1, got {x[~valid][0]}")
    return np.ceil(x).astype(np.int64), np.floor(window_top(x)).astype(np.int64)


def window_roots(x):
    """(√x, √(x + √x)), from one square root of x."""
    root = np.sqrt(x)
    return root, np.sqrt(x + root)


def window_exits(tops: np.ndarray) -> np.ndarray:
    """Each x = ((√(1+4j) - 1)/2)² with window_top(x) = j, for the integers j."""
    return ((np.sqrt(1.0 + 4.0 * tops.astype(float)) - 1.0) / 2.0) ** 2


def window_gap(x):
    """√(x + √x) - √x without cancellation, as √x / (√(x + √x) + √x)."""
    root, top_root = window_roots(x)
    return root / (top_root + root)


def window_root_sum(x):
    """y = √x + √(x + √x): the window's phase sum s√(x + √x) + s√x is s y.

    The phase difference s√(x + √x) - s√x is s g, with g = window_gap(x).
    """
    root, top_root = window_roots(x)
    return root + top_root


def window_root_sum_inverse(y):
    """(x, √x·dx/dy, g) at y = window_root_sum(x).

    From (y - √x)² = x + √x: √x = y²/(2y + 1), so the gap is g = √x/y =
    y/(2y + 1), dx/dy = 2√x·2y(y + 1)/(2y + 1)² and √x·dx/dy =
    4x·g(y + 1)/(2y + 1).
    """
    width = 2.0 * y + 1.0
    gap = y / width
    x = (y * gap) ** 2
    return x, 4.0 * x * gap * (y + 1.0) / width, gap


def eval_weight(profile: WeightProfile, x):
    """w(x), vectorized; returns a float for scalar input."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    up = _psi((arr - profile.m) / profile.r)
    down = _psi((profile.m + profile.delta - arr) / profile.r)
    out = up * down
    return float(out[0]) if scalar else out

