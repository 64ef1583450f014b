"""Rational points h/k and the additive character e_k(a) = exp(2 pi i a/k)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RationalPoint:
    """Reduced fraction h/k together with the inverse of h modulo k.

    The untwisted point is represented as h=0, k=1, h_bar=0.
    """

    h: int
    k: int
    h_bar: int

    def __str__(self) -> str:
        return f"{self.h}/{self.k}"


def make_rational_point(h: int, k: int) -> RationalPoint:
    """Reduce h/k to lowest terms and attach h_bar with h*h_bar = 1 (mod k).

    Accepts 0 <= h < k. Non-reduced fractions are reduced rather than
    rejected: every sum evaluated at h/k depends only on the reduced point,
    and the inverse residue requires coprimality.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got k={k}")
    if not 0 <= h < k:
        raise ValueError(f"h must satisfy 0 <= h < k, got h={h}, k={k}")
    g = math.gcd(h, k)
    if g > 1:
        h //= g
        k //= g
    h_bar = 0 if k == 1 else pow(h, -1, k)
    return RationalPoint(h, k, h_bar)


def unit_point(k: int) -> RationalPoint:
    """The point every experiment twists by at denominator k: 1/k, or 0/1 at k = 1."""
    return make_rational_point(0 if k == 1 else 1, k)


def e_k(a, k: int) -> np.ndarray:
    """exp(2 pi i a/k) for an integer array a, looked up by the exact residue a mod k.

    Every phase at a rational point is taken from its exact integer residue
    here, never from a rounded n*h/k. k = 1 gives ones.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got k={k}")
    a = np.asarray(a)
    if k == 1:
        return np.ones(a.shape, dtype=complex)
    return np.exp((2j * np.pi / k) * np.arange(k))[a % k]


def progression_phases(h: int, k: int, count: int) -> np.ndarray:
    """e_k(n h) for n = 1..count, bit for bit e_k(np.arange(1, count + 1) * h, k).

    The phases repeat with period k, so one period is looked up and tiled;
    no n-long integer array is formed. count = 0 gives an empty array.
    """
    period = e_k(np.arange(1, k + 1) * h, k)
    return np.tile(period, -(-count // k))[:count]
