"""Tests for the truncated dual-sum approximation.

Direct summation (long_sum / short_sum, oracle-tested elsewhere) is the
ground truth throughout. Frozen numeric bands come from measurement runs
at the stated seeds. Two structural facts anchor the convention:

* the exact kernel identity sum_{n<=x} tau(n) = sum_m tau(m) (x/m)^6
  J_12(4 pi sqrt(m x)), checked at small x against a quadrature Bessel;
* the converged dual series differs from the sharp sum by a constant
  (per h/k) of size O(k), which cancels in the windowed difference. The
  truncation tail sits below that constant for every N >= x/16 at desk
  scale, so error-vs-N decay is not observable here; tests assert the
  measured structure instead of the idealized N^(-1/2) law.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cuspsums import voronoi
from cuspsums.coeffs import generate_tau
from cuspsums.rational import make_rational_point, unit_point
from cuspsums.sums import long_sum
from cuspsums.voronoi import (
    EnvelopeFit,
    VoronoiParams,
    fit_error_envelope,
    voronoi_error_scan,
    voronoi_main_term,
)

from oracles import j_bessel_12, short_sum, short_sum_main_term, table_from_tau

K1 = make_rational_point(0, 1)


def test_single_term_matches_closed_form(table_2e4):
    p = VoronoiParams(point=K1, n_trunc=1)
    for x in (2.0, 17.5, 1234.25):
        want = (math.pi * math.sqrt(2.0)) ** -1 * x ** 0.25 * math.cos(
            4.0 * math.pi * math.sqrt(x) - math.pi / 4.0)
        got = voronoi_main_term(x, p, table_2e4)
        assert got.imag == 0.0
        assert got.real == pytest.approx(want, rel=1e-12)


def test_empty_truncation_is_zero(table_2e4):
    p = VoronoiParams(point=K1, n_trunc=0)
    assert voronoi_main_term(5.0, p, table_2e4) == 0j
    assert short_sum_main_term(5.0, p, table_2e4) == 0j


def test_main_term_real_at_k1(table_2e4):
    p = VoronoiParams(point=K1, n_trunc=2000)
    for x in (999.5, 7777.25):
        v = voronoi_main_term(x, p, table_2e4)
        assert abs(v.imag) <= 1e-9 * max(1.0, abs(v.real))


def test_bessel_kernel_identity_anchor(table_2e4):
    # sum_{n<=x} tau(n) = sum_m tau(m) (x/m)^6 J_12(4 pi sqrt(m x)); the
    # dual side converges slowly, 1% at 8000 terms for x ~ 120.
    x = 120.5
    tau = np.array(table_2e4.tau[:8000], dtype=float)
    direct = float(np.sum(tau[:120]))
    ms = np.arange(1, 8001, dtype=float)
    dual = float(np.sum(tau * (x / ms) ** 6
                        * j_bessel_12(4.0 * np.pi * np.sqrt(ms * x))))
    assert abs(direct - dual) <= 1e-2 * abs(direct)


def test_long_sum_deficit_is_constant_in_x(table_1e5):
    # converged dual series = sharp sum minus an x-independent constant
    big = VoronoiParams(point=K1, n_trunc=100_000)
    deficits = [
        long_sum(x, K1, table_1e5) - voronoi_main_term(x, big, table_1e5)
        for x in (20_000.5, 60_000.5, 95_000.5)
    ]
    for d in deficits:
        assert abs(d - 0.73) <= 0.25
    pt3 = make_rational_point(1, 3)
    big3 = replace(big, point=pt3)
    deficits3 = [
        long_sum(x, pt3, table_1e5) - voronoi_main_term(x, big3, table_1e5)
        for x in (20_000.5, 60_000.5, 95_000.5)
    ]
    for d in deficits3:
        assert abs(d - (-0.9 - 1.6j)) <= 0.7


def test_phase_discrimination_at_k1(table_1e5):
    # -pi/4 tracks the direct sum; 0 leaves a residual growing like x^(1/4).
    # Medians over 15 points; the wrong-phase residual fluctuates per x, so
    # the margins below sit well clear of six measured seeds.
    rng = np.random.default_rng(404)
    xs = rng.uniform(20_000, 95_000, 15)
    errs = {}
    for phase in (0.0, -math.pi / 4.0):
        errs[phase] = np.median([
            abs(long_sum(float(x), K1, table_1e5)
                - voronoi_main_term(float(x),
                                    VoronoiParams(K1, int(x), phase),
                                    table_1e5))
            for x in xs
        ])
    assert errs[-math.pi / 4.0] < 1.0
    assert errs[0.0] > 1.2
    assert errs[0.0] > 1.5 * errs[-math.pi / 4.0]


def test_error_scan_rows_match_direct_errors(table_2e4):
    # truncations out of order, both phases, and a repeated (N, phase) pair:
    # each row sums a prefix of the longest truncation's terms
    pt = make_rational_point(2, 7)
    xs = np.array([4000.25, 5000.75, 6000.5, 7000.125])
    params = [VoronoiParams(pt, 100), VoronoiParams(pt, 400, phase_shift=0.0),
              VoronoiParams(pt, 25, phase_shift=0.0), VoronoiParams(pt, 400),
              VoronoiParams(pt, 100), VoronoiParams(pt, 1), VoronoiParams(pt, 25)]
    errors = voronoi_error_scan(xs, params, table_2e4)
    assert errors.shape == (len(params), xs.size)
    for row, p in zip(errors, params):
        for err, x in zip(row, xs):
            assert err == abs(long_sum(float(x), pt, table_2e4)
                              - voronoi_main_term(float(x), p, table_2e4))


def test_error_scan_builds_dual_coefficients_once(table_2e4, monkeypatch):
    built = []
    real = VoronoiParams.dual_coefficients

    def counted(self, table):
        built.append(self.n_trunc)
        return real(self, table)

    monkeypatch.setattr(VoronoiParams, "dual_coefficients", counted)
    pt = make_rational_point(1, 3)
    params = [VoronoiParams(pt, 50), VoronoiParams(pt, 200, phase_shift=0.0),
              VoronoiParams(pt, 200)]
    voronoi_error_scan(np.array([1000.5, 2000.5, 3000.5]), params, table_2e4)
    assert built == [200]


def test_error_scan_validation(table_2e4):
    with pytest.raises(ValueError):
        voronoi_error_scan(np.array([]), [VoronoiParams(K1, 10)], table_2e4)
    with pytest.raises(ValueError):
        voronoi_error_scan(np.array([100.5]), [VoronoiParams(K1, 0)], table_2e4)
    with pytest.raises(ValueError):
        voronoi_error_scan(np.array([100.5]), [], table_2e4)
    with pytest.raises(ValueError, match="one point"):
        voronoi_error_scan(np.array([100.5]),
                           [VoronoiParams(K1, 10),
                            VoronoiParams(make_rational_point(1, 3), 10)],
                           table_2e4)


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("samples", [1, 2, 3, 15])
def test_error_scan_is_the_same_on_any_cpu_count(table_2e4, monkeypatch,
                                                 samples):
    pt = make_rational_point(2, 7)
    xs = np.linspace(3000.25, 9000.75, samples)
    params = [VoronoiParams(pt, 400, phase_shift=0.0), VoronoiParams(pt, 400),
              VoronoiParams(pt, 100), VoronoiParams(pt, 25, phase_shift=0.0),
              VoronoiParams(pt, 100)]
    scans = []
    for cpus in (1, 2, 3):
        _usable_cpus(monkeypatch, cpus)
        scans.append(voronoi_error_scan(xs, params, table_2e4))
    assert all(np.array_equal(scan, scans[0]) for scan in scans[1:])


@pytest.mark.parametrize("cpu_count, workers", [(3, 3), (None, 1)])
def test_error_scan_without_sched_getaffinity(table_2e4, monkeypatch,
                                              cpu_count, workers):
    # macOS and Windows have no sched_getaffinity: the scan runs on
    # os.cpu_count() threads there, one if the count is unknown
    pt = make_rational_point(2, 7)
    xs = np.linspace(3000.25, 9000.75, 5)
    params = [VoronoiParams(pt, 400, phase_shift=0.0), VoronoiParams(pt, 100)]
    _usable_cpus(monkeypatch, 1)
    one_cpu = voronoi_error_scan(xs, params, table_2e4)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    pools = []
    real_pool = voronoi.ThreadPoolExecutor
    monkeypatch.setattr(voronoi, "ThreadPoolExecutor",
                        lambda n: pools.append(n) or real_pool(n))
    assert np.array_equal(voronoi_error_scan(xs, params, table_2e4), one_cpu)
    assert pools == [workers]


def test_error_scan_stress_evaluates_each_sample_once(table_2e4, monkeypatch):
    # more workers than cores and a short switch interval: a lost or doubled
    # hand-out of a sample shows in the call counts
    xs = np.linspace(1000.5, 3000.5, 60)
    params = [VoronoiParams(K1, 300), VoronoiParams(K1, 50, phase_shift=0.0)]
    _usable_cpus(monkeypatch, 1)
    want = voronoi_error_scan(xs, params, table_2e4)
    calls = []
    lock = threading.Lock()

    def counted(x, alpha, table):
        with lock:
            calls.append(x)
        return long_sum(x, alpha, table)

    monkeypatch.setattr(voronoi, "long_sum", counted)
    _usable_cpus(monkeypatch, 8)
    threads = threading.enumerate()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = voronoi_error_scan(xs, params, table_2e4)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == list(xs)
    assert np.array_equal(got, want)
    assert threading.enumerate() == threads


def test_error_scan_checks_every_x_before_any_sample(table_2e4, monkeypatch):
    calls = []

    def counted(x, alpha, table):
        calls.append(x)
        return long_sum(x, alpha, table)

    monkeypatch.setattr(voronoi, "long_sum", counted)
    _usable_cpus(monkeypatch, 2)
    for bad in (math.nan, 0.5):
        with pytest.raises(ValueError, match=f"need finite x >= 1, got {bad}"):
            voronoi_error_scan(np.array([100.5, bad, 300.5]),
                               [VoronoiParams(K1, 10)], table_2e4)
    assert calls == []


def test_error_scan_raises_a_pool_threads_exception(table_2e4, monkeypatch):
    # sample 1 fails on a pool thread only after sample 2 has failed on the
    # other, so the call must raise sample 1's exception, the first in sample
    # order, return nothing and leave no pool thread behind
    caller = threading.current_thread()
    later_failed = threading.Event()
    failed_on = []

    def failing(x, alpha, table):
        if x == 2000.5:
            assert later_failed.wait(timeout=30)
            failed_on.append(threading.current_thread())
            raise RuntimeError(f"no sum at {x}")
        if x == 3000.5:
            later_failed.set()
            raise RuntimeError(f"no sum at {x}")
        return long_sum(x, alpha, table)

    monkeypatch.setattr(voronoi, "long_sum", failing)
    _usable_cpus(monkeypatch, 2)
    threads = threading.enumerate()
    with pytest.raises(RuntimeError, match="no sum at 2000.5"):
        voronoi_error_scan(np.array([1000.5, 2000.5, 3000.5, 4000.5]),
                           [VoronoiParams(K1, 10)], table_2e4)
    assert later_failed.is_set()
    assert len(failed_on) == 1 and failed_on[0] is not caller
    assert threading.enumerate() == threads


def test_error_scan_working_set(monkeypatch):
    # one M = 10^5 scan as the voronoi command runs it, on the 2 * 10^5
    # prefix it loads, with two samples in flight
    table = generate_tau(200_000)
    pt = unit_point(3)
    xs = np.sort(np.random.default_rng(3).uniform(1e5, 2e5, 15))
    params = [VoronoiParams(pt, 100_000, phase_shift=0.0)] + [
        VoronoiParams(pt, 100_000 // d) for d in (1, 4, 16)]
    _usable_cpus(monkeypatch, 2)
    table.a  # a(n) is made on first read, before tracing
    tracemalloc.start()
    try:
        voronoi_error_scan(xs, params, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.0e6


def test_envelope_fit_recovers_synthetic_law():
    xs = np.geomspace(1e3, 1e6, 42)
    ks = np.resize([1.0, 3.0, 5.0], 42)
    ns = xs / 7.0
    errs = 2.5 * ks * np.sqrt(xs / ns) * xs ** 0.07
    fit = fit_error_envelope(xs, errs, ns, ks)
    assert isinstance(fit, EnvelopeFit)
    assert fit.exponent == pytest.approx(0.07, abs=1e-9)
    assert fit.coeff == pytest.approx(2.5, rel=1e-9)
    assert fit.rms_residual < 1e-12
    assert fit.points == 42


def test_envelope_fit_needs_two_points():
    with pytest.raises(ValueError):
        fit_error_envelope([10.0, 20.0], [0.0, 0.0], 5.0, 1.0)


def test_short_window_term_cancels_at_matched_frequencies():
    # pick x with sqrt(n(x+sqrt x)) - sqrt(nx) = jk/2: both cosines agree
    # and the common-amplitude difference vanishes identically
    n0, j, k = 10, 1, 3
    c = j * k / (2.0 * math.sqrt(n0))
    u = (1.0 / c - 1.0) ** 2 - 1.0
    xstar = u ** -2.0
    assert math.sqrt(xstar + math.sqrt(xstar)) - math.sqrt(xstar) == pytest.approx(c)

    a = np.zeros(12)
    a[n0 - 1] = 1.0
    fake = table_from_tau([0] * 12)
    fake.a = a
    p = VoronoiParams(make_rational_point(1, 3), 12)
    assert abs(short_sum_main_term(xstar, p, fake)) < 1e-12
    nearby = max(abs(short_sum_main_term(xstar + dx, p, fake))
                 for dx in (2.0, 4.0, 6.0, 8.0))
    assert nearby > 1e-3


def test_short_window_tracking_and_amplitude_forms(table_1e5):
    rng = np.random.default_rng(99)
    errs = []
    for x in rng.uniform(10_000, 20_000, 6):
        p = VoronoiParams(K1, int(x))
        errs.append(abs(short_sum(float(x), K1, table_1e5)
                        - short_sum_main_term(float(x), p, table_1e5)))
    # the constant long-sum deficit cancels in the window difference, with
    # both window ends sharing the amplitude x^(1/4)
    assert np.median(errs) < 0.5


def test_parameter_validation(table_2e4):
    with pytest.raises(ValueError):
        VoronoiParams(point=K1, n_trunc=-1)
    with pytest.raises(ValueError):
        VoronoiParams(point=K1, n_trunc=5, phase_shift=0.5)
    p = VoronoiParams(point=K1, n_trunc=30_000)
    with pytest.raises(ValueError):
        voronoi_main_term(100.5, p, table_2e4)
    small = VoronoiParams(point=K1, n_trunc=10)
    with pytest.raises(ValueError):
        voronoi_main_term(0.5, small, table_2e4)
    with pytest.raises(ValueError):
        short_sum_main_term(math.inf, small, table_2e4)
