"""Coefficient engine: exactness against the schoolbook and pentagonal
oracles, Hecke relations, normalization, the divisor bound, overflow
handling, cache I/O."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspsums import coeffs
from cuspsums.coeffs import (
    CoefficientTable,
    deligne_check,
    divisor_counts,
    generate_tau,
    hecke_multiplicativity_check,
    hecke_prime_power_check,
    load_cache,
    save_cache,
    smallest_prime_factors,
    tau_sequence,
)
from cuspsums.errors import CacheFormatError, CoefficientOverflowError

from oracles import tau_pentagonal, tau_truncated_product

# first values of the oracle, frozen; they also match the classical listings
TAU_FIRST_SIX = [1, -24, 252, -1472, 4830, -6048]

# first n whose tau(n) falls outside a signed 64-bit integer, discovered by
# running the kernel and checking magnitudes; frozen here
FIRST_64BIT_OVERFLOW_N = 2563


def test_oracle_reproduces_classical_values():
    assert tau_truncated_product(6) == TAU_FIRST_SIX


def test_generate_matches_oracle_prefix():
    got = tau_sequence(300)
    assert got == tau_truncated_product(300)


def test_generate_matches_pentagonal_recurrence(table_2e4):
    assert table_2e4.tau == tau_pentagonal(20_000)


def test_engine_prefix_stable():
    assert tau_sequence(50) == tau_sequence(500)[:50]


def test_generate_validations():
    with pytest.raises(ValueError):
        generate_tau(0)
    with pytest.raises(ValueError):
        tau_sequence(10, max_bits=8)


def test_overflow_names_first_bad_index():
    with pytest.raises(CoefficientOverflowError) as exc:
        tau_sequence(5000, max_bits=64)
    assert exc.value.n == FIRST_64BIT_OVERFLOW_N
    assert exc.value.bits == 64
    # everything below the reported index is representable
    tail = tau_sequence(FIRST_64BIT_OVERFLOW_N - 1, max_bits=64)
    assert max(abs(t) for t in tail) < 2**63


@pytest.mark.parametrize("n_max", [1, 2563, 30_000, 10**6, 10**7])
def test_crt_modulus_covers_deligne_bound(n_max):
    # |tau(n)| < 2 n^6, so residues modulo M > 4 n_max^6 never alias
    primes = coeffs._crt_primes(n_max)
    assert math.prod(primes) > 4 * n_max**6
    assert all(p < 2**21 for p in primes) and len(set(primes)) == len(primes)


def test_inexact_transform_raises():
    assert coeffs._rounded(np.array([2.0, -3.24, 7.1])).tolist() == [2, -3, 7]
    with pytest.raises(ArithmeticError, match="residual"):
        coeffs._rounded(np.array([2.0, 1.25]))


def test_normalize_values(table_2e4):
    a = table_2e4.a
    assert a[0] == 1.0
    assert math.isclose(a[1], -24 / 2**5.5, rel_tol=1e-15)
    assert a[1] == pytest.approx(-0.5303300858899106, abs=1e-15)
    # spot-check the defining quotient at a larger n
    n = 17_389
    assert math.isclose(a[n - 1], table_2e4.tau[n - 1] / n**5.5, rel_tol=1e-14)


def test_hecke_relation_at_p2(table_2e4):
    # tau(4) from the recursion at p=2: tau(2)^2 - 2^11 * tau(1)
    assert table_2e4.tau[3] == (-24) ** 2 - 2**11
    # normalized form: a(4) = a(2)^2 - 2^{-11} * ... consistency via floats
    a = table_2e4.a
    assert math.isclose(a[3], a[1] ** 2 - 2**11 / 4**5.5, rel_tol=1e-12)


def test_divisor_counts_small():
    assert list(divisor_counts(12)) == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6]
    brute = [sum(1 for i in range(1, n + 1) if n % i == 0) for n in range(1, 2001)]
    assert list(divisor_counts(2000)) == brute


def test_smallest_prime_factors():
    spf = smallest_prime_factors(30)
    assert spf[2] == 2 and spf[9] == 3 and spf[17] == 17 and spf[30] == 2


def test_deligne_check(table_2e4):
    rep = deligne_check(table_2e4)
    assert rep.first_violation is None
    assert rep.max_ratio <= 1.0 + 1e-12
    # equality case at n=1
    assert table_2e4.a[0] / divisor_counts(1)[0] == 1.0
    assert abs(table_2e4.a[1]) / 2 == pytest.approx(0.2651650429449553, abs=1e-15)


def test_hecke_checks_pass(table_2e4):
    mult = hecke_multiplicativity_check(table_2e4)
    assert mult.first_failure is None
    assert mult.checks > 10_000
    pp = hecke_prime_power_check(table_2e4)
    assert pp.first_failure is None
    assert pp.checks == 66  # all prime powers p^r <= 2e4 with r >= 2


def test_hecke_checks_catch_corruption(table_2e4):
    bad = CoefficientTable.from_tau(list(table_2e4.tau[:100]))
    bad.tau[59] = bad.tau[59] + 1  # corrupt tau(60) = tau(4)tau(15)
    assert hecke_multiplicativity_check(bad).first_failure == 60


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 140), st.integers(2, 140))
def test_multiplicativity_random_pairs(table_2e4, m, n):
    if math.gcd(m, n) != 1:
        return
    tau = table_2e4.tau
    assert tau[m * n - 1] == tau[m - 1] * tau[n - 1]


def test_cache_roundtrip(tmp_path, table_2e4):
    # values past 2^64 of both signs exercise the high word of the records
    assert max(table_2e4.tau) > 2 ** 64 and min(table_2e4.tau) < -2 ** 64
    path = tmp_path / "t20000.cusp"
    save_cache(table_2e4, path)
    assert path.stat().st_size == 20 + 16 * 20_000
    back = load_cache(path)
    assert back.tau == table_2e4.tau
    assert back.n_max == 20_000
    assert back.a.tobytes() == table_2e4.a.tobytes()  # recomputed, same doubles


def test_loaded_tau_is_decoded_on_first_read(tmp_path, table_2e4):
    path = tmp_path / "t20000.cusp"
    save_cache(table_2e4, path)
    back = load_cache(path)
    assert "tau" not in vars(back)  # a(n) came straight from the records
    assert back.tau == tau_pentagonal(20_000)
    assert "tau" in vars(back)


@st.composite
def _int128(draw):
    """A signed 128-bit integer of any bit width; above 54 bits, often an
    exact halfway case between two doubles or one of its neighbours."""
    width = draw(st.integers(1, 127))
    value = draw(st.integers(1 << (width - 1), (1 << width) - 1))
    if width > 54 and draw(st.booleans()):
        dropped = width - 53  # bits below a double's 53-bit significand
        value = (value >> dropped << dropped) | (1 << (dropped - 1))
        value += draw(st.sampled_from((-1, 0, 1)))
    return -value if draw(st.booleans()) else value


# fixed edge cases: word boundaries, the record range, and 2^k - 1, whose
# high word rounds up to the next power of two as a float once k >= 118
_EDGE_INT128 = ([0, 1, -1, 2**64 - 1, -(2**64 - 1), 2**64, -2**64,
                 2**127 - 1, -2**127]
                + [sign * (2**k - 1) for k in range(1, 128) for sign in (1, -1)])


def _assert_records_round_like_float(values):
    records = CoefficientTable.from_tau(values).records
    got = coeffs._record_doubles(records)
    expected = np.array([float(v) for v in values])
    assert got.tobytes() == expected.tobytes(), [
        v for v, g, e in zip(values, got, expected) if g != e]


def test_record_conversion_edge_cases():
    _assert_records_round_like_float(_EDGE_INT128)


@settings(max_examples=200, deadline=None)
@given(st.lists(_int128(), min_size=1, max_size=64))
def test_record_conversion_rounds_like_float(values):
    _assert_records_round_like_float(values)


def test_cache_file_size_example(tmp_path):
    table = generate_tau(1000)
    path = tmp_path / "t1000.cusp"
    save_cache(table, path)
    assert path.stat().st_size == 16020
    assert load_cache(path).tau[5] == -6048


def test_cache_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.cusp"
    small = generate_tau(10)
    save_cache(small, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XUSP"
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheFormatError, match="magic"):
        load_cache(path)


def test_cache_rejects_wrong_version_weight_truncation(tmp_path):
    path = tmp_path / "v.cusp"
    small = generate_tau(10)
    save_cache(small, path)
    good = path.read_bytes()

    raw = bytearray(good)
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheFormatError, match="version"):
        load_cache(path)

    raw = bytearray(good)
    raw[8] = 16
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheFormatError, match="weight"):
        load_cache(path)

    path.write_bytes(good[:-7])
    with pytest.raises(CacheFormatError, match="expected"):
        load_cache(path)

    path.write_bytes(good[:11])
    with pytest.raises(CacheFormatError, match="header"):
        load_cache(path)
