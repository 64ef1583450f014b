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

The first-derivative-test bound A0 (A1 B1)^(-1) (1 + A1/rho) (b - a) is
computed from BoundCertificate records whose inputs are all closed forms:
the amplitude scale from the exact ramp slope weight.RAMP_SLOPE_MAX, and
the phase slope from B' at the two ends of the support, where |B'| takes
its minimum whenever B' keeps its sign. A B' that vanishes or changes sign
on the support gets no certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cuspsums.config import NODE_BUDGET
from cuspsums.errors import NodeBudgetError
from cuspsums.rational import RationalPoint
from cuspsums.weight import RAMP_SLOPE_MAX, WeightProfile, eval_weight

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
                         node_budget: int = NODE_BUDGET) -> complex:
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
    length: float

    def __post_init__(self) -> None:
        for name in ("a0", "a1", "b1", "rho", "length"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"certificate field {name} must be positive")


def jm_bound(cert: BoundCertificate) -> float:
    """A0 (A1 B1)^(-1) (1 + A1/rho) (b - a), evaluated exactly."""
    # pow, not division: the two round apart in about 1 case in 1200, and
    # the reports' slack digits come from pow
    return cert.a0 * (cert.a1 * cert.b1) ** -1 \
        * (1.0 + cert.a1 / cert.rho) * cert.length


def derivative_certificate(profile: WeightProfile,
                           spec: PhaseSpec) -> BoundCertificate:
    """First-derivative-test certificate for A(x) = w(x) x^(1/2) against B.

    a0 = sqrt(M + Δ) is sup A. a1 = 1/(RAMP_SLOPE_MAX/r + 1/(2 sqrt(M (M+Δ))))
    is the scale of A' from the exact ramp slope and the slope of sqrt(x).
    b1 = min(|B'(M)|, |B'(M + Δ)|). For every family sqrt(x) B' is monotone,
    so B' keeps its sign on the support exactly when its two end values have
    the same sign; otherwise B' vanishes somewhere and the certificate is
    refused. With the sign kept, |B'| is monotone in x for L3 and L4 and
    monotone or concave in 1/sqrt(x) for L5, so its minimum lies at an end.
    rho = Δ/2.
    """
    lo, hi = profile.support
    _, bp_fun = build_phase(spec)
    slope_lo, slope_hi = bp_fun(lo), bp_fun(hi)
    if not slope_lo * slope_hi > 0.0:
        raise ValueError(
            f"phase derivative changes sign or vanishes on [{lo}, {hi}] "
            f"(B' = {slope_lo:.3e} and {slope_hi:.3e} at the ends); "
            "no first-derivative certificate exists")
    amp_rate = 1.0 / (2.0 * math.sqrt(lo) * math.sqrt(hi))
    return BoundCertificate(a0=math.sqrt(hi),
                            a1=1.0 / (RAMP_SLOPE_MAX / profile.r + amp_rate),
                            b1=min(abs(slope_lo), abs(slope_hi)),
                            rho=profile.delta / 2.0, length=profile.delta)


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
