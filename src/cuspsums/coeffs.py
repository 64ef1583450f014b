"""Exact coefficient tables for the weight-12 cusp form.

tau(n) are the integer Fourier coefficients of q * prod(1 - q^n)^24; the
normalized values a(n) = tau(n) / n^{(kappa-1)/2} satisfy |a(n)| <= d(n)
(divisor count) and the Hecke relations

    tau(m n) = tau(m) tau(n)                       for gcd(m, n) = 1,
    tau(p^{r+1}) = tau(p) tau(p^r) - p^{kappa-1} tau(p^{r-1}).

One numpy kernel generates the table. By Jacobi's identity the cube of
E = prod(1 - q^n) is the sparse series

    E^3 = sum_{j >= 0} (-1)^j (2j + 1) q^{j(j+1)/2},

so tau(n) = [q^{n-1}] (E^3)^8 takes three truncated squarings. Each squaring
runs modulo a few primes below 2^21 as floating-point FFT convolutions of
11-bit limbs; every inverse transform must land within 0.25 of integers or
the kernel raises. The primes multiply to M > 4 n_max^6, and Deligne's bound
|tau(n)| <= d(n) n^{11/2} < 2 n^6 then makes the Chinese remainder
reconstruction exact (Garner's mixed-radix form, Knuth TAOCP vol. 2,
4.3.2). At n_max = 10^6 it takes about 10 s on one Xeon core. Exactness is
pinned by tests against a schoolbook truncated product and an independent
pentagonal recurrence.

A table holds tau as the 16-byte records of its cache file (see
save_cache), so load_cache reads one numpy array and builds no Python int
per coefficient. normalize turns each record into the correctly rounded
double of hi 2^64 + lo with integer ops alone (the guard/round/sticky
argument of Goldberg, "What every computer scientist should know about
floating-point arithmetic", 1991, 1.4; long double is avoided because its
width differs by platform), so a(n) is bit for bit float(tau(n)) / n^{11/2}.
Loading the 10^6 cache takes 0.12 s instead of 0.38 s through Python ints,
and a load-only process peaks at 69 MB instead of 107 MB (2-core Xeon,
median of 7). tau as Python ints, which only the coeffs command and the
Hecke checks read, is decoded from the records on first use. Normalized
values are always recomputed on load, never stored.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cuspsums.errors import CacheFormatError, CoefficientOverflowError

CACHE_MAGIC = b"CUSP"
CACHE_VERSION = 1
_WEIGHT = 12            # the only form generated and cached
_HEADER = struct.Struct("<4sIIQ")   # magic, version, weight, N
# one cache record: tau(n) as a low unsigned and a high signed 64-bit word
_RECORD = np.dtype([("lo", "<u8"), ("hi", "<i8")])
_LOW_WORD = (1 << 64) - 1
_BLOCK = 1 << 16        # records converted at a time, to keep temporaries small

_LIMB_BITS = 11         # two limbs per residue below 2^21
_PRIME_BOUND = 1 << 21
_MAX_RESIDUAL = 0.25    # distance of an inverse FFT value from its integer


@dataclass
class CoefficientTable:
    """Exact tau(1..n_max) as cache records, plus normalized double a(n).

    `records[n - 1]` holds tau(n) in the cache's own (lo <u8, hi <i8)
    layout, so a table is loaded and saved without a Python int per
    coefficient: 16 MB at n_max = 10^6. `tau`, the same values as Python
    ints, is decoded from the records on first read and kept; at 10^6 the
    list takes another 45.8 MiB, and the decode 0.26 s. Treat as immutable
    once built; every consumer shares it read-only.
    """

    n_max: int
    records: np.ndarray = field(repr=False)
    a: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_tau(cls, tau: list[int]) -> CoefficientTable:
        """Table of tau(1..len(tau)) packed into records; keeps tau itself
        as the decoded list. A value outside the signed 128-bit range
        raises OverflowError."""
        records = np.empty(len(tau), dtype=_RECORD)
        for start in range(0, len(tau), _BLOCK):
            block = tau[start:start + _BLOCK]
            rows = records[start:start + len(block)]
            rows["lo"] = [t & _LOW_WORD for t in block]
            rows["hi"] = [t >> 64 for t in block]
        table = cls(n_max=len(tau), records=records)
        table.tau = tau
        return table

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
                f"table holds {self.n_max}"
            )


def _crt_primes(n_max: int) -> list[int]:
    """Largest primes below 2^21, as many as make their product exceed
    4 n_max^6, so |tau(n)| < 2 n^6 is recovered without aliasing."""
    need = 4 * n_max**6
    primes, modulus, p = [], 1, _PRIME_BOUND - 1
    while modulus <= need:
        if all(p % f for f in range(3, math.isqrt(p) + 1, 2)):
            primes.append(p)
            modulus *= p
        p -= 2
    return primes


def _rounded(values: np.ndarray) -> np.ndarray:
    """Nearest integers of an inverse FFT, refusing anything not close to one."""
    near = np.rint(values)
    residual = float(np.max(np.abs(values - near), initial=0.0))
    if residual >= _MAX_RESIDUAL:
        raise ArithmeticError(
            f"FFT rounding residual {residual:.3g} >= {_MAX_RESIDUAL}; "
            "the convolution is not exact")
    return near.astype(np.int64)


def _square_mod(series: np.ndarray, p: int) -> np.ndarray:
    """series^2 mod p, truncated to len(series); entries lie in [0, p)."""
    fft = np.fft
    length = series.size
    size = 1 << max(2 * length - 2, 1).bit_length()   # no wrap below length
    low = fft.rfft(series & ((1 << _LIMB_BITS) - 1), size)
    high = fft.rfft(series >> _LIMB_BITS, size)

    def product(f, g):
        return _rounded(fft.irfft(f * g, size)[:length]) % p

    out = product(low, low)
    out += (2 * product(low, high) % p) << _LIMB_BITS
    out += product(high, high) * ((1 << 2 * _LIMB_BITS) % p)
    return out % p


def _eta_cubed(length: int) -> np.ndarray:
    """Coefficients of E^3 below q^length, by Jacobi's identity."""
    series = np.zeros(length, dtype=np.int64)
    j = np.arange(math.isqrt(2 * length) + 1)
    exps = j * (j + 1) // 2
    keep = exps < length
    series[exps[keep]] = np.where(j % 2, -1, 1)[keep] * (2 * j[keep] + 1)
    return series


def _garner_ints(residues: list[np.ndarray], primes: list[int],
                 offset: int) -> list[int]:
    """Python ints x - offset from the residues of x in [0, prod(primes)).

    Garner's mixed-radix digits of x are formed in int64, the digits of
    offset are subtracted from them, and the signed digits are packed three
    to an int64 word, so Python arithmetic runs once per word, not per prime.
    Consumes residues.
    """
    digits = []
    for i, p in enumerate(primes):
        acc = np.zeros_like(residues[i])
        for d, q in zip(reversed(digits), reversed(primes[:i])):
            acc = (acc * q + d) % p
        inverse = pow(math.prod(primes[:i]) % p, -1, p)
        digits.append((residues[i] - acc) % p * inverse % p)
        residues[i] = None
    for d, p in zip(digits, primes):
        offset, low = divmod(offset, p)
        d -= low
    pairs = list(zip(digits, primes))
    del digits
    words, radices = [], []
    for start in range(0, len(pairs), 3):
        word, radix = 0, 1
        for d, p in reversed(pairs[start:start + 3]):
            word = word * p + d
            radix *= p
        words.append(word)
        radices.append(radix)
    del pairs
    out = words.pop().tolist()
    while words:
        radix = radices[len(words) - 1]
        for i, x in enumerate(words.pop().tolist()):
            out[i] = out[i] * radix + x
    return out


def tau_sequence(n_max: int, max_bits: int = 128) -> list[int]:
    """Exact tau(1..n_max) as Python ints.

    Raises CoefficientOverflowError at the first n whose tau(n) falls outside
    the signed max_bits range, and ArithmeticError if a transform is not
    exact to rounding; nothing ever wraps or aliases.
    """
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    if not 16 <= max_bits <= 128:
        raise ValueError(f"max_bits must lie in [16, 128], got {max_bits}")
    if n_max == 0:
        return []
    primes = _crt_primes(n_max)
    modulus = math.prod(primes)
    offset = modulus // 2        # shifts tau(n) into [0, modulus)
    base = _eta_cubed(n_max)
    residues = []
    for p in primes:
        series = base % p
        for _ in range(3):
            series = _square_mod(series, p)
        residues.append((series + offset % p) % p)
    tau = _garner_ints(residues, primes, offset)
    limit = 1 << (max_bits - 1)
    if max(tau) >= limit or min(tau) < -limit:
        bad = next(i for i, t in enumerate(tau) if not -limit <= t < limit)
        raise CoefficientOverflowError(bad + 1, max_bits)
    return tau


def generate_tau(n_max: int) -> CoefficientTable:
    """Generate and normalize a table of the first n_max coefficients.

    Cost is O(n_max log n_max) floating-point work plus one exact integer
    reconstruction per coefficient. Coefficients outside the signed 128-bit
    record range raise CoefficientOverflowError naming the first offending
    n; nothing ever wraps.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    return normalize(CoefficientTable.from_tau(tau_sequence(int(n_max))))


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


def normalize(table: CoefficientTable) -> CoefficientTable:
    """Fill a(n) = tau(n) / n^{11/2} in double precision from the records.

    Each entry is one correctly rounded integer-to-double conversion, one
    power, and one division: well under the 4-ulp contract, and bit for
    bit float(tau(n)) / n^{11/2}. The conversion runs _BLOCK records at a
    time.
    """
    n = table.n_max
    exponent = (_WEIGHT - 1) / 2.0
    a = np.empty(n)
    for start in range(0, n, _BLOCK):
        a[start:start + _BLOCK] = _record_doubles(
            table.records[start:start + _BLOCK])
    a /= np.arange(1, n + 1, dtype=float) ** exponent
    table.a = a
    return table


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
    if table.a is None:
        raise ValueError("table is not normalized")
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


def load_cache(path) -> CoefficientTable:
    """Read a cache written by save_cache and recompute the normalized a(n)."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise CacheFormatError(f"{path}: truncated header ({len(data)} bytes)")
    magic, version, kappa, n = _HEADER.unpack_from(data, 0)
    if magic != CACHE_MAGIC:
        raise CacheFormatError(f"{path}: bad magic {magic!r}, expected {CACHE_MAGIC!r}")
    if version != CACHE_VERSION:
        raise CacheFormatError(f"{path}: format version {version}, expected {CACHE_VERSION}")
    if kappa != _WEIGHT:
        raise CacheFormatError(f"{path}: cache holds weight {kappa}, expected {_WEIGHT}")
    expected = _HEADER.size + _RECORD.itemsize * n
    if len(data) != expected:
        raise CacheFormatError(
            f"{path}: {len(data)} bytes, expected {expected} for {n} records"
        )
    records = np.frombuffer(data, dtype=_RECORD, offset=_HEADER.size)
    return normalize(CoefficientTable(n_max=int(n), records=records))
