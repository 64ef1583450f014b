"""Oscillatory integrals ∫ w(x) x^(1/2) e(B(x)) dx and their bound machinery.

Three phase families cover every integral that appears in the mean-square
decomposition (names are part of the public interface):

  L3: B(x) = 2 sqrt(n T1(x))/k + 2 sqrt(m T2(x))/k, T1, T2 free
  L4: B(x) = 2 sqrt(n T(x))/k - 2 sqrt(m T(x))/k, one common T
  L5: B(x) = 2 sqrt(m (x+sqrt x))/k - 2 sqrt(n x)/k, T fixed per radical

with T drawn from {x, x + sqrt(x)}; the difference families subtract the
second-listed radical. The opposite sign would only conjugate the
integral and leave every |integral|, |B'| and bound unchanged. Quadrature
is WeightProfile.refine on Gauss-16 panels of under one oscillation each;
successive doublings must agree to 1e-8 absolute or the evaluation
refuses with NodeBudgetError rather than return a value it cannot defend.

The first-derivative-test bound A0 (A1 B1)^(-P) (1 + A1/rho)^P (b - a) is
computed from BoundCertificate records whose amplitude scales come from the
frozen measured weight constants, so |integral| / jm_bound ratios are
reproducible numbers, not per-run artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cuspsums.calibrated import WEIGHT_DERIVATIVE_SUPS
from cuspsums.errors import NodeBudgetError
from cuspsums.rational import RationalPoint
from cuspsums.weight import WeightProfile, eval_weight

T_PLAIN = "x"
T_SHIFTED = "x+sqrt(x)"
_FAMILIES = ("L3", "L4", "L5")

MAX_CYCLES = 1.0e6
_REFINE_TOL = 1e-8
_SCAN_POINTS = 4097


@dataclass(frozen=True)
class PhaseSpec:
    """One oscillatory phase: family, frequencies m and n, point, T-assignments.

    L3 adds its two radicals; the difference families subtract the
    second-listed one (the m-radical in L4, the plain n-radical in L5).
    Whether m, n fit a particular coefficient table is the caller's concern.
    """

    family: str
    m: int
    n: int
    point: RationalPoint
    t_n: str = T_PLAIN
    t_m: str = T_PLAIN

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"need m, n >= 1, got m={self.m}, n={self.n}")
        for t in (self.t_n, self.t_m):
            if t not in (T_PLAIN, T_SHIFTED):
                raise ValueError(f"T-assignment must be {T_PLAIN!r} or {T_SHIFTED!r}")
        if self.family == "L4" and self.t_n != self.t_m:
            raise ValueError("family L4 uses one common T for both radicals")
        if self.family == "L5" and (self.t_m, self.t_n) != (T_SHIFTED, T_PLAIN):
            raise ValueError("family L5 fixes t_m=x+sqrt(x) and t_n=x")


def l3_spec(m: int, n: int, point: RationalPoint,
            t_n: str = T_PLAIN, t_m: str = T_PLAIN) -> PhaseSpec:
    return PhaseSpec("L3", m, n, point, t_n, t_m)


def l4_spec(m: int, n: int, point: RationalPoint,
            t: str = T_PLAIN) -> PhaseSpec:
    return PhaseSpec("L4", m, n, point, t, t)


def l5_spec(m: int, n: int, point: RationalPoint) -> PhaseSpec:
    return PhaseSpec("L5", m, n, point, t_n=T_PLAIN, t_m=T_SHIFTED)


def _radicals(spec: PhaseSpec) -> list[tuple[int, int, bool]]:
    """(coefficient sign, frequency, shifted?) per radical."""
    if spec.family == "L3":
        return [(1, spec.n, spec.t_n == T_SHIFTED),
                (1, spec.m, spec.t_m == T_SHIFTED)]
    if spec.family == "L4":
        return [(1, spec.n, spec.t_n == T_SHIFTED),
                (-1, spec.m, spec.t_m == T_SHIFTED)]
    return [(1, spec.m, True), (-1, spec.n, False)]


def build_phase(spec: PhaseSpec):
    """Vectorized callables (B, B') in e(.)-cycles; both exact closed forms."""
    k = spec.point.k
    parts = _radicals(spec)

    def b(x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for c, q, shifted in parts:
            t = x + np.sqrt(x) if shifted else x
            total = total + (2.0 * c / k) * np.sqrt(q * t)
        return total if total.ndim else float(total)

    def b_prime(x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for c, q, shifted in parts:
            root = math.sqrt(q)
            if shifted:
                total = total + (c * root / k) * (1.0 + 0.5 / np.sqrt(x)) \
                    / np.sqrt(x + np.sqrt(x))
            else:
                total = total + (c * root / k) / np.sqrt(x)
        return total if total.ndim else float(total)

    return b, b_prime


def oscillatory_integral(profile: WeightProfile, spec: PhaseSpec,
                         node_budget: int = 2_000_000) -> complex:
    """∫ w(x) x^(1/2) e(B(x)) dx over the weight support, or refuse loudly.

    The first grid keeps every panel under 0.8 of a cycle of the densest
    local oscillation; WeightProfile.refine doubles it until two
    successive values agree to 1e-8 absolute. Exceeding the cycle guard or
    the node budget raises NodeBudgetError, never a silent bad value.
    """
    b_fun, bp_fun = build_phase(spec)
    lo, hi = profile.support
    variation = abs(b_fun(hi) - b_fun(lo))
    if variation > MAX_CYCLES:
        raise NodeBudgetError(
            f"phase sweeps {variation:.3e} cycles over [{lo}, {hi}]; "
            f"refusing evaluations beyond {MAX_CYCLES:.0e} cycles"
        )
    peak = float(np.max(np.abs(bp_fun(np.linspace(lo, hi, _SCAN_POINTS)))))
    panels = profile.first_panels(1.25 * peak * (hi - lo))
    if 16 * panels <= node_budget:
        value, settled = profile.refine(panels, lambda x, wts: complex(np.sum(
            wts * (eval_weight(profile, x) * np.sqrt(x)
                   * np.exp(2j * np.pi * b_fun(x))))), _REFINE_TOL, node_budget)
        if settled:
            return value
    raise NodeBudgetError(
        f"{panels} first-grid panels and their doublings pass the node "
        f"budget {node_budget} before {_REFINE_TOL:.0e} agreement"
    )


@dataclass(frozen=True)
class BoundCertificate:
    """Inputs of the first-derivative-test bound, all checked positive."""

    a0: float
    a1: float
    b1: float
    rho: float
    p: int
    length: float

    def __post_init__(self) -> None:
        for name in ("a0", "a1", "b1", "rho", "length"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"certificate field {name} must be positive")
        if not (isinstance(self.p, int) and self.p >= 0):
            raise ValueError(f"order p must be an integer >= 0, got {self.p!r}")


def jm_bound(cert: BoundCertificate) -> float:
    """A0 (A1 B1)^(-P) (1 + A1/rho)^P (b - a), evaluated exactly."""
    return cert.a0 * (cert.a1 * cert.b1) ** -cert.p \
        * (1.0 + cert.a1 / cert.rho) ** cert.p * cert.length


def derivative_certificate(profile: WeightProfile, spec: PhaseSpec,
                           p: int = 1) -> BoundCertificate:
    """Certificate for A(x) = w(x) x^(1/2) against the given phase.

    a0 is the amplitude sup sqrt(M+delta); a1 comes from the frozen ramp
    derivative sups (valid through order 4); b1 is the scanned minimum of
    |B'| and must be positive, so a vanishing phase derivative is rejected
    rather than certified. rho defaults to delta/2.
    """
    if not (isinstance(p, int) and 0 <= p <= len(WEIGHT_DERIVATIVE_SUPS)):
        raise ValueError(
            f"certificates support integer orders 0..{len(WEIGHT_DERIVATIVE_SUPS)}, "
            f"got {p!r}"
        )
    lo, hi = profile.support
    a0 = math.sqrt(hi)
    amp_rate = 1.0 / (2.0 * math.sqrt(lo) * math.sqrt(hi))
    if p == 0:
        a1 = profile.r / 2.0  # unused by the P=0 bound, only needs positivity
    else:
        a1 = 1.0 / max(c ** (1.0 / nu) / profile.r + amp_rate
                       for nu, c in enumerate(WEIGHT_DERIVATIVE_SUPS[:p], start=1))
    _, bp_fun = build_phase(spec)
    b1 = float(np.min(np.abs(bp_fun(np.linspace(lo, hi, _SCAN_POINTS)))))
    if b1 <= 0.0:
        raise ValueError("phase derivative vanishes on the support; "
                         "no first-derivative certificate exists")
    return BoundCertificate(a0=a0, a1=a1, b1=b1, rho=profile.delta / 2.0,
                            p=p, length=profile.delta)


def stated_bound(spec: PhaseSpec, p: int, profile: WeightProfile) -> float:
    """Family bound with implied constant 1: (root term)^(-P) Δ^(1-P) k^P M^(P/2).

    The root term is sqrt(n)+sqrt(m) for L3 and |sqrt(n)-sqrt(m)| for the
    difference families, which makes m = n unusable there.
    """
    if not (isinstance(p, int) and p >= 0):
        raise ValueError(f"order p must be an integer >= 0, got {p!r}")
    rm, rn = math.sqrt(spec.m), math.sqrt(spec.n)
    if spec.family == "L3":
        root = rn + rm
    else:
        if spec.m == spec.n:
            raise ValueError(f"family {spec.family} bound needs m != n")
        root = abs(rn - rm)
    k = spec.point.k
    return root ** -p * profile.delta ** (1 - p) * k ** p * profile.m ** (p / 2.0)


def lemma5_derivative_check(spec: PhaseSpec, grid) -> float:
    """min over the grid of |B'(x)| 4 k sqrt(x) / (3 |sqrt m - sqrt n|).

    >= 1 certifies the lower bound |B'| >= 3|sqrt m - sqrt n|/(4 k sqrt x)
    on the grid. Only the n > m case is meaningful (the m > n phase is a
    plain same-T difference), so anything else is rejected, as is an empty
    grid or one with x < 1.
    """
    if spec.family != "L5":
        raise ValueError("derivative check applies to family L5")
    if spec.n <= spec.m:
        raise ValueError(f"need n > m, got m={spec.m}, n={spec.n}")
    xs = np.asarray(grid, dtype=float)
    if xs.size == 0 or np.any(xs < 1.0):
        raise ValueError("need a non-empty grid with x >= 1")
    _, bp_fun = build_phase(spec)
    gap = abs(math.sqrt(spec.m) - math.sqrt(spec.n))
    ratios = np.abs(bp_fun(xs)) * 4.0 * spec.point.k * np.sqrt(xs) / (3.0 * gap)
    return float(ratios.min())
