"""Coefficient engine: exactness against the schoolbook and pentagonal
oracles, Hecke relations, normalization, the divisor bound, overflow
handling, cache I/O."""

import math
import random

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

from oracles import table_from_tau, tau_pentagonal, tau_truncated_product

# first values of the oracle, frozen; they also match the classical listings
TAU_FIRST_SIX = [1, -24, 252, -1472, 4830, -6048]

# first n whose tau(n) falls outside a signed 64-bit integer, discovered by
# running the kernel and checking magnitudes; frozen here
FIRST_64BIT_OVERFLOW_N = 2563


def test_oracle_reproduces_classical_values():
    assert tau_truncated_product(6) == TAU_FIRST_SIX


def _tau(n_max):
    """tau_sequence's records read back as Python ints."""
    return CoefficientTable(tau_sequence(n_max)).tau


def test_generate_matches_oracle_prefix():
    got = _tau(300)
    assert got == tau_truncated_product(300)


@pytest.fixture(scope="module")
def oracle_4097():
    return tau_truncated_product(4097)


# FFT sizes 1, 3, 5, 128, 144, 8192 and 9216: odd sizes, and both sides of
# two powers of two
@pytest.mark.parametrize("n_max", [1, 2, 3, 64, 65, 4096, 4097])
def test_kernel_edges_match_oracle(oracle_4097, n_max):
    assert _tau(n_max) == oracle_4097[:n_max]


def test_generate_matches_pentagonal_recurrence(table_2e4):
    assert table_2e4.tau == tau_pentagonal(20_000)


def test_engine_prefix_stable():
    assert _tau(50) == _tau(500)[:50]


def test_generate_validations():
    with pytest.raises(ValueError):
        generate_tau(0)
    with pytest.raises(ValueError):
        tau_sequence(0)


def test_overflow_names_first_bad_index(monkeypatch):
    monkeypatch.setattr(coeffs, "_RECORD_BITS", 64)
    with pytest.raises(CoefficientOverflowError) as exc:
        tau_sequence(5000)
    assert exc.value.n == FIRST_64BIT_OVERFLOW_N
    assert exc.value.bits == 64
    # everything below the reported index is representable
    tail = _tau(FIRST_64BIT_OVERFLOW_N - 1)
    assert max(abs(t) for t in tail) < 2**63


def test_sparse_sixth_power_matches_dense_convolution():
    for n in (1, 2, 7, 100, 1000):
        euler = np.zeros(n, dtype=np.int64)
        euler[0] = 1
        for j in range(1, n):       # times (1 - q^j), truncated
            euler[j:] -= euler[:n - j]
        sixth = euler
        for _ in range(5):
            sixth = np.convolve(sixth, euler)[:n]
        assert coeffs._eta_sixth(n).tolist() == sixth.tolist()


def _one_spike_limbs(count, peak):
    """count limbs of length 4096 / count whose only nonzero entry is peak,
    so the guard's bound count * length * peak^2 is 4096 peak^2."""
    limbs = [np.zeros(4096 // count, dtype=np.int64) for _ in range(count)]
    limbs[0][0] = peak
    return limbs


@pytest.mark.parametrize("count", [1, 2, 4])
def test_magnitude_guard_refuses_before_any_transform(monkeypatch, count):
    # 4096 (2^20)^2 is exactly 2^52
    transforms = []
    forward = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft",
                        lambda *args, **kw: transforms.append(1) or forward(*args, **kw))
    with pytest.raises(ArithmeticError, match="2\\^52"):
        next(coeffs._square_limbs(_one_spike_limbs(count, 2**20)))
    assert transforms == []
    groups = list(coeffs._square_limbs(_one_spike_limbs(count, 2**20 - 1)))
    assert len(transforms) == count and len(groups) == 2 * count - 1
    assert groups[0][0] == (2**20 - 1) ** 2
    assert not any(g.any() for g in groups[1:]) and not groups[0][1:].any()


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
    bad = table_from_tau(list(table_2e4.tau[:100]))
    bad.tau[59] = bad.tau[59] + 1  # corrupt tau(60) = tau(4)tau(15)
    assert hecke_multiplicativity_check(bad).first_failure == 60
    bad = table_from_tau(list(table_2e4.tau[:100]))
    bad.tau[8] = bad.tau[8] + 1  # corrupt tau(9) = tau(3)^2 - 3^11
    assert hecke_prime_power_check(bad).first_failure == 9


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


def test_prefix_load_matches_full_load(tmp_path, table_2e4):
    path = tmp_path / "t20000.cusp"
    save_cache(table_2e4, path)
    full = load_cache(path)
    for n in (0, 1, 8191, 8193, 12_345):
        prefix = load_cache(path, n)
        assert prefix.n_max == n
        assert prefix.records.tobytes() == full.records[:n].tobytes()
        assert prefix.a.tobytes() == full.a[:n].tobytes()
    for n in (20_000, 20_001, 10 ** 9):
        whole = load_cache(path, n)
        assert whole.n_max == 20_000
        assert whole.records.tobytes() == full.records.tobytes()
        assert whole.a.tobytes() == full.a.tobytes()
    with pytest.raises(ValueError, match="n >= 0"):
        load_cache(path, -1)


def test_prefix_load_still_refuses_a_truncated_file(tmp_path):
    path = tmp_path / "t1000.cusp"
    save_cache(generate_tau(1000), path)
    path.write_bytes(path.read_bytes()[:-16])
    for n in (None, 1, 10):
        with pytest.raises(CacheFormatError, match="expected 16020 for 1000"):
            load_cache(path, n)


def test_loaded_tau_is_decoded_on_first_read(tmp_path, table_2e4):
    path = tmp_path / "t20000.cusp"
    save_cache(table_2e4, path)
    back = load_cache(path)
    assert "tau" not in vars(back)  # a(n) came straight from the records
    assert back.tau == tau_pentagonal(20_000)
    assert "tau" in vars(back)


def test_table_normalizes_on_first_read_only(tmp_path, table_2e4, normalize_calls):
    path = tmp_path / "t20000.cusp"
    save_cache(table_2e4, path)
    tables = [load_cache(path), load_cache(path, 777), generate_tau(500)]
    assert normalize_calls == []
    for table in tables:
        first = table.a
        assert normalize_calls == [table.n_max]
        assert table.a is first
        normalize_calls.clear()
    assert tables[0].a.tobytes() == table_2e4.a.tobytes()


def test_normalize_gathered_rows(table_2e4):
    rng = np.random.default_rng(11)
    # unaligned rows, across a block edge and at both ends, plus a sample
    ns = np.unique(np.concatenate([[1, 2, 8192, 8193, 8194, 19_999, 20_000],
                                   rng.choice(np.arange(3, 19_999), 300)]))
    records = table_2e4.records
    gathered = coeffs.normalize(records[ns - 1], ns)
    assert gathered.tobytes() == coeffs.normalize(records)[ns - 1].tobytes()


def test_tables_compare_and_hash_by_identity():
    table = generate_tau(100)
    assert table == table
    assert table != generate_tau(100)
    assert table in {table}


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
    records = table_from_tau(values).records
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


_INT128_EDGES = [-2**127, 2**127 - 1, 0, -1, 2**64, -2**64]


def _split(values, count, rng):
    """count exact signed groups G_g, |G_g| < 2^52, with sum_g G_g 2^(10 g)
    equal to each value (count >= 9 for 129-bit values). From the top down,
    each group takes the rest's share at its 10-bit position plus a random
    offset of up to 2^40, so the carries cross every limb and word
    boundary."""
    columns = []
    for value in values:
        rest, column = value, [0] * count
        for g in range(count - 1, 0, -1):
            column[g] = (rest >> 10 * g) + rng.randint(-2**40, 2**40)
            rest -= column[g] << 10 * g
        column[0] = rest
        columns.append(column)
    return [np.array(groups, dtype=np.int64) for groups in zip(*columns)]


@st.composite
def _groups_of(draw, values):
    return _split(values, draw(st.integers(9, 16)),
                  random.Random(draw(st.integers(0, 2**32))))


def _assert_carry_pass_exact(values, groups):
    packed = coeffs._records(groups, 128)
    assert packed.tobytes() == table_from_tau(values).records.tobytes()
    limbs = coeffs._carried_limbs(groups)
    assert all(-512 <= limb.min() and limb.max() < 512 for limb in limbs)
    assert [sum(int(limb[i]) << 10 * k for k, limb in enumerate(limbs))
            for i in range(len(values))] == values


def test_carry_pass_edge_values():
    for seed, count in enumerate(range(9, 17)):
        _assert_carry_pass_exact(
            _INT128_EDGES, _split(_INT128_EDGES, count, random.Random(seed)))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.lists(st.one_of(st.sampled_from(_INT128_EDGES),
                                     st.integers(-2**127, 2**127 - 1)),
                           min_size=1, max_size=32))
def test_carry_pass_packs_groups_like_from_tau(data, values):
    _assert_carry_pass_exact(values, data.draw(_groups_of(values)))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(16, 128))
def test_carry_pass_overflow_names_first_bad_index(data, bits):
    limit = 1 << (bits - 1)
    inside = st.integers(-limit, limit - 1)
    values = data.draw(st.lists(inside, min_size=1, max_size=16))
    assert (coeffs._records(data.draw(_groups_of(values)), bits).tobytes()
            == table_from_tau(values).records.tobytes())
    first = data.draw(st.integers(0, len(values)))
    values[first:first] = [data.draw(st.sampled_from((limit, -limit - 1)))]
    values += data.draw(st.lists(st.sampled_from((limit, -limit - 1)), max_size=2))
    with pytest.raises(CoefficientOverflowError) as exc:
        coeffs._records(data.draw(_groups_of(values)), bits)
    assert exc.value.n == first + 1 and exc.value.bits == bits


def test_carry_pass_overflow_past_the_record_words():
    # 2^180 and -2^180 - 1 leave the three words a clean sign run and only
    # the carry wrong; 2^190 and -2^190 reach a fourth word
    for value, count in ((2**180, 14), (-2**180 - 1, 18), (2**190, 20),
                         (-2**190, 24)):
        with pytest.raises(CoefficientOverflowError) as exc:
            coeffs._records(_split([-1, value, 0], count, random.Random(count)), 128)
        assert exc.value.n == 2


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
