"""Exact coefficient tables for the weight-12 cusp form.

tau(n) are the integer Fourier coefficients of q * prod(1 - q^n)^24; the
normalized values a(n) = tau(n) / n^{(kappa-1)/2} satisfy |a(n)| <= d(n)
(divisor count) and the Hecke relations

    tau(m n) = tau(m) tau(n)                       for gcd(m, n) = 1,
    tau(p^{r+1}) = tau(p) tau(p^r) - p^{kappa-1} tau(p^{r-1}).

One numpy kernel generates the table. By Jacobi's identity the cube of
E = prod(1 - q^n) is the sparse series

    E^3 = sum_{j >= 0} (-1)^j (2j + 1) q^{j(j+1)/2},

so tau(n) = [q^{n-1}] (E^3)^8. The kernel squares E^3 exactly in int64,
then twice more in exact integer arithmetic on balanced 10-bit limbs
(Knuth, TAOCP vol. 2, 4.3.3): the limb products whose indices add up to g
form group g, one inverse FFT, and a carry pass in int64 turns the exact
groups into the next limbs and at last into the cache records. Exactness
rests on exact limb products, on a guard that refuses a squaring unless
limb count x length x max|limb|^2, a bound on every group, is below 2^52,
where doubles lie at most 1/2 apart, and on every inverse transform
landing within 0.25 of integers (Percival, Math. Comp. 72, 2003, bounds
that error a priori). At n_max = 10^6: 25 transforms, about 2 s on one
Xeon core. Tests pin exactness against a schoolbook truncated product and
an independent pentagonal recurrence.

A table holds tau as the 16-byte records of its cache file (see
save_cache), so load_cache reads one numpy array and builds no Python int
per coefficient. normalize turns each record into the correctly rounded
double of hi 2^64 + lo with integer ops alone (the guard/round/sticky
argument of Goldberg, "What every computer scientist should know about
floating-point arithmetic", 1991, 1.4; long double is avoided because its
width differs by platform), so a(n) is bit for bit float(tau(n)) / n^{11/2}.
Loading the 10^6 cache takes 0.12 s, and a load-only process peaks at
51 MB (2-core Xeon, median of 9 fresh processes). load_cache(path, n) reads
and normalizes only the first n records: the 2 10^5 of the default voronoi
scan take 0.026 s and 36 MB, the 1.2 10^5 of the benchmark's sweep 0.015 s.
tau as Python ints, which only the Hecke checks read, is decoded from the
records on first use. Normalized values are recomputed whenever a table
is built, never stored.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from cuspsums.errors import CacheFormatError, CoefficientOverflowError

CACHE_MAGIC = b"CUSP"
CACHE_VERSION = 1
_WEIGHT = 12            # the only form generated and cached
_HEADER = struct.Struct("<4sIIQ")   # magic, version, weight, N
# one cache record: tau(n) as a low unsigned and a high signed 64-bit word
_RECORD = np.dtype([("lo", "<u8"), ("hi", "<i8")])
_RECORD_BITS = 128      # signed width of tau(n) in one record
# doubles per block of every blocked evaluation (_row_blocks: the kernel's
# rounding, normalize and meansquare's grids): 2^13 doubles are 64 KiB,
# under glibc's default 128 KiB mmap threshold, so a freed block is
# recycled from the heap instead of unmapped and faulted in again (this
# constant alone took the benchmark's 6-row sweep from 26.6k to 12.5k
# minor faults, with the same report bytes), and large enough that the
# numpy calls per block cost little beside the work in them. A block is
# therefore computed by plain expressions and assigned into its rows; only
# arrays as long as the grid are written in place
_BLOCK_ELEMENTS = 1 << 13

_LIMB_BITS = 10         # balanced limbs lie in [-2^9, 2^9)
_LIMB = 1 << _LIMB_BITS
_MAX_RESIDUAL = 0.25    # distance of an inverse FFT value from its integer


@dataclass
class CoefficientTable:
    """Exact tau(1..n_max) as cache records, plus normalized double a(n).

    `records[n - 1]` holds tau(n) in the cache's own (lo <u8, hi <i8)
    layout, so a table is loaded and saved without a Python int per
    coefficient: 16 MB at n_max = 10^6. n_max is their count, and a is
    normalize(records), filled as the table is built. `tau`, the same
    values as Python ints, is decoded from the records on first read and
    kept; at 10^6 the list takes another 45.8 MiB, and the decode 0.26 s.
    Treat as immutable once built; every consumer shares it read-only.
    """

    records: np.ndarray = field(repr=False)
    a: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.a = normalize(self.records)

    @property
    def n_max(self) -> int:
        return self.records.size

    @functools.cached_property
    def tau(self) -> list[int]:
        """Exact tau(1..n_max) as Python ints, decoded on first read."""
        return [lo + (hi << 64)
                for lo, hi in struct.iter_unpack("<Qq", self.records)]

    def require(self, n_needed: int, what: str) -> None:
        """Raise ValueError unless the table reaches n = n_needed."""
        if n_needed > self.n_max:
            raise ValueError(
                f"{what} needs coefficients up to n={n_needed}, "
                f"table holds {self.n_max}; rebuild with a larger n"
            )


def _row_blocks(rows: int, width: int):
    """Slices of max(1, _BLOCK_ELEMENTS // width) rows covering rows, the last ragged."""
    step = max(1, _BLOCK_ELEMENTS // width)
    return (slice(start, min(start + step, rows))
            for start in range(0, rows, step))


def _rounded(values: np.ndarray) -> np.ndarray:
    """Nearest integers of an inverse FFT, refusing anything not close to one."""
    near = np.rint(values)
    residual = float(np.max(np.abs(values - near), initial=0.0))
    if residual >= _MAX_RESIDUAL:
        raise ArithmeticError(
            f"FFT rounding residual {residual:.3g} >= {_MAX_RESIDUAL}; "
            "the convolution is not exact")
    return near.astype(np.int64)


def _eta_sixth(length: int) -> np.ndarray:
    """Coefficients of E^6 below q^length, exactly in int64: the square of
    the sparse E^3 of Jacobi's identity, one pair sum per term."""
    j = np.arange(math.isqrt(2 * length) + 1)
    j = j[j * (j + 1) // 2 < length]
    exps, terms = j * (j + 1) // 2, (-1) ** j * (2 * j + 1)
    series = np.zeros(length, dtype=np.int64)
    for e, c in zip(exps.tolist(), terms.tolist()):
        fit = np.searchsorted(exps, length - e)
        series[e + exps[:fit]] += c * terms[:fit]
    return series


def _square_limbs(limbs: list[np.ndarray]) -> Iterator[np.ndarray]:
    """Exact groups of the truncated square of sum_i limbs[i] 2^(10 i),
    lowest first: group g sums the convolutions limbs[i] * limbs[j] over
    i + j = g, as one inverse FFT checked by _rounded. Raises ArithmeticError
    before any transform unless count * length * max|limb|^2, which bounds
    every group, is below 2^52. Consumes limbs.
    """
    count, length = len(limbs), limbs[0].size
    peak = max(int(np.max(np.abs(limb))) for limb in limbs)
    if count * length * peak**2 >= 2**52:    # doubles there lie <= 1/2 apart
        raise ArithmeticError(f"{count} limbs of length {length} up to {peak} "
                              "can reach 2^52; the convolution would not be exact")
    # m 2^a >= 2 length - 1, so no wrap below length; small odd m give fast
    # FFT sizes (2,048,000 rather than 2^21 at length 10^6)
    size = min(m << ((2 * length - 2) // m).bit_length()
               for m in (1, 3, 5, 9, 15, 25, 27, 45, 75, 125))
    # a row per limb spectrum, written when a group first needs it
    # (unwritten pages take no memory)
    spectra = np.empty((count, size // 2 + 1), dtype=complex)
    total = np.empty(size // 2 + 1, dtype=complex)
    for g in range(2 * count - 1):
        if g < count:
            np.fft.rfft(limbs.pop(0), size, out=spectra[g])
        low = max(0, g - count + 1)
        pairs = spectra[low:g - low + 1]          # limbs i and g - i
        np.einsum("ij,ij->j", pairs, pairs[::-1], out=total)
        # the values take a row no later group reads: the last limb's until
        # its spectrum is due, then the lowest one this group read
        spare = spectra[low] if g >= count - 1 else spectra[count - 1]
        values = np.fft.irfft(total, size, out=spare.view(float)[:size])[:length]
        group = np.empty(length, dtype=np.int64)
        for rows in _row_blocks(length, 1):
            group[rows] = _rounded(values[rows])
        yield group


def _carried_limbs(groups: Iterable[np.ndarray]) -> list[np.ndarray]:
    """Balanced limbs in [-2^9, 2^9) of sum_g groups[g] 2^(10 g), as int16.
    One carry runs through the groups and on until it vanishes; with every
    group below 2^52 in magnitude it stays below 2^43, inside int64."""
    groups = iter(groups)
    carry, limbs = next(groups).copy(), []
    while True:
        limb = ((carry + _LIMB // 2) & (_LIMB - 1)) - _LIMB // 2
        carry -= limb
        carry >>= _LIMB_BITS
        limbs.append(limb.astype(np.int16))
        try:
            carry += next(groups)
        except StopIteration:
            if not carry.any():
                return limbs


def _records(groups: Iterable[np.ndarray], max_bits: int) -> np.ndarray:
    """Cache records of sum_g groups[g] 2^(10 g), which must fit in max_bits.

    A carry turns the groups into the value's two's complement, ten bits at
    a time into 60-bit words (at least three); what it leaves is the sign
    if the value fits, that is if every bit from max_bits - 1 up repeats
    it. Raises CoefficientOverflowError naming the first n that does not.
    """
    groups = iter(groups)
    carry, words, position = next(groups).copy(), [], 0
    # a word is made when first reached: at n_max = 10^6 the second comes
    # after the middle groups, whose transforms take the most memory
    while True:
        if position % 60 == 0:
            words.append(np.zeros(carry.size, dtype=np.uint64))
        words[-1] |= (carry & (_LIMB - 1)).view(np.uint64) << position % 60
        carry >>= _LIMB_BITS
        position += _LIMB_BITS
        try:
            carry += next(groups)
        except StopIteration:
            if position % 60 == 0 and len(words) >= 3:    # every word full
                break
    fill = carry.view(np.uint64) >> 4        # 60 copies of the sign bit
    top, shift = divmod(max_bits - 1, 60)
    fits = ((carry == 0) | (carry == -1)) & (words[top] >> shift == fill >> shift)
    for word in words[top + 1:]:
        fits &= word == fill
    bad = np.flatnonzero(~fits)
    if bad.size:
        raise CoefficientOverflowError(int(bad[0]) + 1, max_bits)
    return np.stack([words[0] | words[1] << 60, words[1] >> 4 | words[2] << 56],
                    axis=1).view(_RECORD)[:, 0]


def tau_sequence(n_max: int) -> np.ndarray:
    """Exact tau(1..n_max) as cache records (see save_cache). Raises
    CoefficientOverflowError at the first n whose tau(n) falls outside the
    signed _RECORD_BITS range of a record, and ArithmeticError if a
    transform is not exact to rounding; nothing ever wraps.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    twelfth = _carried_limbs(_square_limbs(_carried_limbs([_eta_sixth(n_max)])))
    return _records(_square_limbs(twelfth), _RECORD_BITS)


def generate_tau(n_max: int) -> CoefficientTable:
    """Generate and normalize a table of the first n_max coefficients.

    Coefficients outside the signed 128-bit record range raise
    CoefficientOverflowError naming the first offending n.
    """
    return CoefficientTable(tau_sequence(int(n_max)))


def _record_doubles(records: np.ndarray) -> np.ndarray:
    """The correctly rounded double of hi 2^64 + lo for every record.

    With s the bit length of the magnitude's high word, the magnitude's
    top 64 bits go into one uint64, and its bit 0 is ORed with a sticky
    bit for the s bits shifted out below them. That word has at least 55
    significant bits, so bit 0 lies below the rounding position of its
    conversion to a 53-bit double: the sticky bit only tells an exact tie
    from a value above it, and the one uint64 -> double conversion rounds
    as the whole integer would. Records whose magnitude fits in the low
    word convert directly.
    """
    lo, hi = records["lo"], records["hi"]
    negative = hi < 0
    # two's-complement magnitude of both words; -2^127 gives 2^63 high
    mag_lo = np.where(negative, -lo, lo)
    mag_hi = hi.view(np.uint64)
    mag_hi = np.where(negative, ~mag_hi + (lo == 0), mag_hi)
    # s from frexp, in [1, 64]: where the high word rounds up a binade as
    # a float, s is one more than its bit length and the word keeps 63
    # significant bits, still enough; s = 1 stands in for a zero high word
    s = np.maximum(np.frexp(mag_hi.astype(float))[1], 1).astype(np.uint64)
    top = (mag_hi << (64 - s)) | (mag_lo >> (s - 1) >> 1)
    top |= (mag_lo << (64 - s)) != 0
    magnitude = np.where(mag_hi == 0, mag_lo.astype(float),
                         np.ldexp(top.astype(float), s.astype(np.int64)))
    return np.where(negative, -magnitude, magnitude)


def normalize(records: np.ndarray) -> np.ndarray:
    """a(n) = tau(n) / n^{11/2} in double precision for the records of
    tau(1..n).

    Each entry is one correctly rounded integer-to-double conversion, one
    power, and one division: well under the 4-ulp contract, and bit for
    bit float(tau(n)) / n^{11/2}. The conversion and the division run one
    _row_blocks block of records at a time, so no n-long temporary is made.
    """
    exponent = (_WEIGHT - 1) / 2.0
    a = np.empty(records.size)
    for rows in _row_blocks(records.size, 1):
        a[rows] = (_record_doubles(records[rows])
                   / np.arange(rows.start + 1, rows.stop + 1, dtype=float) ** exponent)
    return a


def divisor_counts(n_max: int) -> np.ndarray:
    """d(1..n_max); entry [n-1] is d(n).

    Each divisor pair (i, n/i) is counted at its smaller member i <= sqrt(n):
    once at n = i^2, twice at every later multiple of i.
    """
    d = np.zeros(n_max, dtype=np.int64)
    for i in range(1, math.isqrt(n_max) + 1):
        d[i * i - 1] += 1
        d[i * (i + 1) - 1:: i] += 2
    return d


@dataclass(frozen=True)
class DeligneReport:
    max_ratio: float
    argmax_n: int
    first_violation: int | None


def deligne_check(table: CoefficientTable) -> DeligneReport:
    """Scan |a(n)| / d(n) over the whole table.

    The bound is a theorem; a violation beyond rounding slack means the table
    is corrupt. Ratio 1.0 at n=1 is the equality case.
    """
    ratios = np.abs(table.a) / divisor_counts(table.n_max)
    arg = int(np.argmax(ratios))
    bad = np.nonzero(ratios > 1.0 + 1e-12)[0]
    return DeligneReport(
        max_ratio=float(ratios[arg]),
        argmax_n=arg + 1,
        first_violation=int(bad[0]) + 1 if bad.size else None,
    )


def smallest_prime_factors(n_max: int) -> np.ndarray:
    """spf[n] for 0 <= n <= n_max (spf[n] = n for n prime, 0 for n < 2)."""
    spf = np.arange(n_max + 1, dtype=np.int64)
    spf[:2] = 0
    for i in range(2, math.isqrt(n_max) + 1):
        if spf[i] == i:
            block = spf[i * i:: i]
            np.minimum(block, i, out=block)
    return spf


@dataclass(frozen=True)
class HeckeReport:
    checks: int
    first_failure: int | None


def hecke_multiplicativity_check(table: CoefficientTable) -> HeckeReport:
    """tau(n) = tau(p^a) * tau(n / p^a) for every composite n in the table,
    split at the smallest prime factor. Exact integer comparison."""
    spf = smallest_prime_factors(table.n_max)
    tau = table.tau
    checks = 0
    for n in range(2, table.n_max + 1):
        p = int(spf[n])
        if p == n:
            continue
        m = p
        rest = n // p
        while rest % p == 0:
            m *= p
            rest //= p
        if rest == 1:
            continue  # prime power: covered by the recursion check
        checks += 1
        if tau[n - 1] != tau[m - 1] * tau[rest - 1]:
            return HeckeReport(checks, n)
    return HeckeReport(checks, None)


def hecke_prime_power_check(table: CoefficientTable) -> HeckeReport:
    """tau(p^{r+1}) = tau(p) tau(p^r) - p^11 tau(p^{r-1}) for all
    prime powers in the table. Exact integer comparison."""
    spf = smallest_prime_factors(table.n_max)
    tau = table.tau
    pk = _WEIGHT - 1
    checks = 0
    for p in range(2, table.n_max + 1):
        if int(spf[p]) != p:
            continue
        prev2, prev1 = 1, tau[p - 1]  # tau(p^0), tau(p^1)
        power = p * p
        while power <= table.n_max:
            checks += 1
            expected = tau[p - 1] * prev1 - p**pk * prev2
            if tau[power - 1] != expected:
                return HeckeReport(checks, power)
            prev2, prev1 = prev1, tau[power - 1]
            power *= p
    return HeckeReport(checks, None)


def save_cache(table: CoefficientTable, path) -> None:
    """Write magic | version u32 | weight u32 | N u64 | N 16-byte records."""
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, _WEIGHT,
                                  table.n_max))
        handle.write(table.records)


def load_cache(path, n: int | None = None) -> CoefficientTable:
    """Read a cache written by save_cache and recompute the normalized a(n).

    With n given, only the header and the first min(n, N) records are read
    and normalized; the header and whole-file size checks are the same
    either way, so a truncated file is refused whatever n asks for.
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise CacheFormatError(f"{path}: truncated header ({size} bytes)")
        magic, version, kappa, total = _HEADER.unpack(header)
        if magic != CACHE_MAGIC:
            raise CacheFormatError(
                f"{path}: bad magic {magic!r}, expected {CACHE_MAGIC!r}")
        if version != CACHE_VERSION:
            raise CacheFormatError(
                f"{path}: format version {version}, expected {CACHE_VERSION}")
        if kappa != _WEIGHT:
            raise CacheFormatError(
                f"{path}: cache holds weight {kappa}, expected {_WEIGHT}")
        expected = _HEADER.size + _RECORD.itemsize * total
        if size != expected:
            raise CacheFormatError(
                f"{path}: {size} bytes, expected {expected} for {total} records"
            )
        if n is not None and n < 0:
            raise ValueError(f"need n >= 0 records, got {n}")
        count = total if n is None else min(int(n), total)
        records = np.frombuffer(handle.read(_RECORD.itemsize * count),
                                dtype=_RECORD)
    return CoefficientTable(records)
