"""The diagonal prediction's two kernels against independent references.

The cosine difference in product form is checked against the subtracted
cosines in extended precision; the moment series of the slow brackets
against their direct integral on the same nodes; the panel rule against
the node budget of exactly one doubling.
"""

import math

import numpy as np
import pytest

from cuspsums import meansquare as msq
from cuspsums.weight import build_weight, window_gap

EXTENDED = np.finfo(np.longdouble).eps < 1e-18


@pytest.fixture(scope="module")
def window_1e4():
    return build_weight(1e4, 2e3)


def _extended_cos_difference(ns, k, xs):
    """cos Φ₁' - cos Φ₂' from the subtracted cosines in long double."""
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    x = xs.astype(ld)
    scale = (4 * pi / k) * np.sqrt(ns.astype(ld))
    return (np.cos(np.outer(scale, np.sqrt(x + np.sqrt(x))) - pi / 4)
            - np.cos(np.outer(scale, np.sqrt(x)) - pi / 4))


@pytest.mark.skipif(not EXTENDED, reason="long double is no wider than double")
def test_gap_has_no_cancellation():
    xs = np.linspace(1.0, 1.2e5, 4001)
    x = xs.astype(np.longdouble)
    exact = np.sqrt(x + np.sqrt(x)) - np.sqrt(x)
    rel = np.abs((window_gap(xs) - exact) / exact).astype(float)
    assert rel.max() < 4 * np.finfo(float).eps


@pytest.mark.skipif(not EXTENDED, reason="long double is no wider than double")
def test_cos_difference_matches_extended_reference():
    # arguments reach 4π√(nx) ≈ 1.4e6, whose own rounding (ulp 2.3e-10)
    # is the floor of any double evaluation
    ns = np.array([1, 1000, 100000])
    xs = np.linspace(1e5, 1.2e5, 2001)
    ref = _extended_cos_difference(ns, 1, xs)
    diff = msq._cos_difference(ns, 1, msq._phase_columns(xs))
    err = np.abs(diff - ref).astype(float)
    assert err.max() <= 2e-10


def test_slow_brackets_match_direct_integral(window_1e4):
    xs, wsx = msq._weighted_nodes(window_1e4, 8)
    mass = float(np.sum(wsx))
    for k in (1, 3, 7):
        ns = np.arange(257, 10001)
        brackets, bound = msq._slow_brackets(257, 10000, k, xs, wsx)
        scale = (4.0 * math.pi / k) * np.sqrt(ns.astype(float))
        direct = (wsx * (1.0 - np.cos(np.outer(scale, window_gap(xs))))).sum(axis=1)
        assert np.max(np.abs(brackets - direct)) <= 1e-12 * mass
        # the truncation bound of the series is certified, and negligible
        assert 0.0 < bound < 1e-16 * mass


def test_profile_settles_on_first_doubling(window_1e4, monkeypatch):
    # the first grid of the panel rule, then a budget that allows exactly
    # one doubling: every row must settle there
    ns = np.arange(1, 257)
    panels = msq._first_panels(256, 1, window_1e4)
    monkeypatch.setattr(msq, "_NODE_BUDGET", 48 * panels)
    once, flagged = msq.diagonal_profile(ns, 1, window_1e4)
    assert flagged == ()
    # a reference on eight times the grid agrees far inside the tolerance
    xs, wsx = msq._weighted_nodes(window_1e4, 8 * panels)
    diff = msq._cos_difference(ns, 1, msq._phase_columns(xs))
    ref = (diff ** 2 * wsx).sum(axis=1)
    assert np.max(np.abs(once - ref)) <= 1e-11 * float(np.sum(wsx))
