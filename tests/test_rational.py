"""Rational points and additive characters."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspsums.rational import e_k, make_rational_point


def test_examples():
    assert make_rational_point(3, 7).h_bar == 5
    assert make_rational_point(0, 1) == make_rational_point(0, 1)
    assert make_rational_point(0, 1).h_bar == 0
    p = make_rational_point(2, 4)
    assert (p.h, p.k, p.h_bar) == (1, 2, 1)


def test_idempotent_on_reduced():
    p = make_rational_point(3, 7)
    q = make_rational_point(p.h, p.k)
    assert p == q


def test_validation():
    with pytest.raises(ValueError):
        make_rational_point(1, 0)
    with pytest.raises(ValueError):
        make_rational_point(7, 7)
    with pytest.raises(ValueError):
        make_rational_point(-1, 7)


def test_inverse_dense_small_k():
    for k in range(1, 513):
        for h in range(k):
            if math.gcd(h, k) != 1:
                continue
            p = make_rational_point(h, k)
            if k > 1:
                assert (p.h * p.h_bar) % p.k == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10_000))
def test_inverse_sampled_large_k(k):
    for h in (1, k - 1, max(1, k // 3) | 1):
        if math.gcd(h, k) != 1:
            continue
        p = make_rational_point(h, k)
        assert (p.h * p.h_bar) % p.k == 1


def test_e_k_examples():
    assert np.allclose(e_k(np.arange(5), 4), [1, 1j, -1, -1j, 1],
                       rtol=0, atol=1e-15)
    assert np.array_equal(e_k(np.array([7, 0, -14]), 7), np.ones(3))
    assert np.array_equal(e_k(np.array([[5, -3], [0, 2]]), 1), np.ones((2, 2)))
    # reduction of a negative twisted argument: -15 = -3*5 with h_bar(3,7)=5
    assert abs(e_k(np.array([-15]), 7)[0] - cmath.exp(2j * math.pi * 6 / 7)) <= 1e-15
    with pytest.raises(ValueError):
        e_k(np.array([1]), 0)


def test_e_k_periodicity_exact():
    a = np.arange(-20, 20)
    assert np.array_equal(e_k(a, 6), e_k(a + 6, 6))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
                min_size=1, max_size=20),
       st.integers(1, 5000))
def test_character_property(pairs, k):
    a, b = np.array(pairs, dtype=np.int64).T
    ea = e_k(a, k)
    assert np.all(np.abs(np.abs(ea) - 1.0) <= 1e-15)
    assert np.all(np.abs(ea - np.exp(2j * np.pi * (a % k) / k)) <= 1e-12)
    assert np.all(np.abs(ea * e_k(b, k) - e_k(a + b, k)) <= 1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=20),
       st.integers(1, 5000))
def test_conjugation(a, k):
    a = np.array(a, dtype=np.int64)
    assert np.all(np.abs(e_k(-a, k) - np.conj(e_k(a, k))) <= 1e-12)
