"""Exact rational-integer arithmetic.

Factorization, the classical multiplicative functions, Jacobi symbols with
the sign and even-modulus conventions used throughout this package, Hilbert
symbols at infinity, and complete modular square roots.  Two array kernels
run over whole arrays: ``jacobi_vec``, the Jacobi symbol over int64 arrays,
with the scalar ``jacobi`` its oracle, and ``bezout_vec``, the extended
Euclid loop.  ``jacobi_vec`` ends each reciprocity chain in one cached
table of (a/m) over the odd m below ``_JACOBI_TABLE_M``, built on first
use.  One segmented sieve of Eratosthenes, ``_prime_mask``, serves
``prime_range`` (every n) and ``gaussian.prime_points`` (n = 1 mod 4 only).

Everything is deterministic and exact.  Primality testing uses fixed
Miller-Rabin witness sets that are proven complete for all n < 2^64, so no
probabilistic error is possible on the supported domain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Factorization",
    "factorize",
    "is_prime",
    "primes_up_to",
    "prime_range",
    "divisors",
    "mobius",
    "euler_phi",
    "tau",
    "tau_k",
    "von_mangoldt",
    "jacobi",
    "jacobi_vec",
    "jacobi_extended",
    "bezout_vec",
    "hilbert_infinity",
    "chi4",
    "sqrt_mod",
    "divisor_witness",
]

_TRIAL_BOUND = 100_000

# Witness sets proven complete up to the paired bound (Jaeschke, Sinclair).
_MR_TIERS = (
    (3_215_031_751, (2, 3, 5, 7)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (1 << 64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

@functools.cache
def _small_primes() -> np.ndarray:
    return primes_up_to(_TRIAL_BOUND)


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array."""
    return prime_range(2, n + 1)


def _smallest_prime_factors(x: int) -> np.ndarray:
    # spf[n] = the least prime factor of n for 2 <= n <= x, from one sieve;
    # spf[0] = 0 and spf[1] = 1.  int32 holds every n <= x at the callers' caps.
    spf = np.zeros(x + 1, dtype=np.int32)
    for p in range(2, math.isqrt(x) + 1):
        if spf[p] == 0:
            tail = spf[p * p :: p]
            tail[tail == 0] = p
    primes = np.flatnonzero(spf == 0)
    spf[primes] = primes
    return spf


def _prime_mask(lo: int, hi: int, q: int = 1) -> np.ndarray:
    # mask[j] is True iff n = n0 + q j is prime, over the n = 1 (mod q) in
    # [lo, hi), n0 the least of them; q is 1 (every n) or 4, and lo >= 2.
    # One segment of the sieve of Eratosthenes, whose base primes <= sqrt(hi)
    # come from the same sieve.  For q = 4 the n are odd, so 2 is no base
    # prime, and an odd p strikes the k p with k = p (mod 4), since p^2 = 1
    # (mod 4): every p-th entry of the mask.
    n0 = lo + (1 - lo) % q
    base = primes_up_to(math.isqrt(hi - 1))
    mask = np.ones(max(hi - n0 + q - 1, 0) // q, dtype=bool)
    for p in (base[1:] if q > 1 else base).tolist():
        k = max(p, -(-n0 // p))  # the least k with k p >= max(p^2, n0)
        k += (p - k) % q
        if k * p < hi:
            mask[(k * p - n0) // q :: p] = False
    return mask


def prime_range(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi) as an int64 array, by a segmented sieve of
    Eratosthenes; memory O(hi - lo + sqrt(hi))."""
    lo = max(lo, 2)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    out = np.flatnonzero(_prime_mask(lo, hi))
    out += lo
    return out


def _mr_witness(n: int, a: int, d: int, s: int) -> bool:
    # True if n passes the Miller-Rabin test to base a.
    a %= n
    if a == 0:
        return True
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2^64."""
    if n >= 1 << 64:
        raise ValueError("is_prime is deterministic only below 2^64")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for bound, witnesses in _MR_TIERS:
        if n < bound:
            return all(_mr_witness(n, a, d, s) for a in witnesses)
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class Factorization:
    """Exact prime factorization n = prod p^e with primes strictly ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        last = 0
        for p, e in self.factors:
            if p <= last or e < 1:
                raise ValueError("factors must be ascending with e >= 1")
            last = p
            prod *= p**e
        if prod != self.n:
            raise ValueError("factor product does not reconstruct n")

    def divisor_count(self) -> int:
        t = 1
        for _, e in self.factors:
            t *= e + 1
        return t


def _rho_brent(n: int) -> int:
    # Brent-cycle Pollard rho; n odd composite, not a small prime power.
    # The (x0, c) schedule is fixed so factorizations are reproducible.
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> Factorization:
    """Factor 1 <= n < 2^64 by trial division then Pollard rho (Brent)."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n >= 1 << 64:
        raise ValueError("factorize supports n < 2^64")
    m = n
    fac: dict[int, int] = {}
    for p in _small_primes():
        p = int(p)
        if p * p > m:
            if m > 1:
                fac[m] = 1  # no prime up to sqrt(m) divides m, so m is prime
            m = 1
            break
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
    # only a cofactor past the last trial prime needs a primality proof
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            fac[m] = fac.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack += [r, r]
            continue
        d = _rho_brent(m)
        stack += [d, m // d]
    return Factorization(n, tuple(sorted(fac.items())))


def divisors(n: int | Factorization) -> list[int]:
    """Sorted list of positive divisors."""
    f = n if isinstance(n, Factorization) else factorize(n)
    out = [1]
    for p, e in f.factors:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def mobius(n: int) -> int:
    """Moebius function: (-1)^k on squarefree n with k prime factors, else 0."""
    f = factorize(n)
    if any(e > 1 for _, e in f.factors):
        return 0
    return -1 if len(f.factors) % 2 else 1


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).factors:
        phi *= (p - 1) * p ** (e - 1)
    return phi


def tau(n: int | Factorization) -> int:
    """Number of divisors."""
    f = n if isinstance(n, Factorization) else factorize(n)
    return f.divisor_count()


def tau_k(n: int, k: int) -> int:
    """Number of ordered k-tuples of positive integers with product n."""
    if k < 2:
        raise ValueError("tau_k requires k >= 2")
    t = 1
    for _, e in factorize(n).factors:
        t *= math.comb(e + k - 1, k - 1)
    return t


def von_mangoldt(n: int) -> float:
    """log p if n = p^e is a prime power, else 0."""
    if n < 1:
        raise ValueError("von_mangoldt requires n >= 1")
    if n == 1:
        return 0.0
    f = factorize(n)
    if len(f.factors) == 1:
        return math.log(f.factors[0][0])
    return 0.0


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd m >= 1; (a/1) = 1, 0 iff gcd(a, m) > 1."""
    if m <= 0 or m % 2 == 0:
        raise ValueError("invalid modulus")
    a %= m
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def _int64_array(x, name: str) -> np.ndarray:
    # x as an int64 array; ValueError for a non-integer dtype or an entry
    # outside int64, which numpy would truncate, wrap or refuse with
    # OverflowError.  An empty x may have any dtype: [] reads as float64.
    raw = np.asarray(x)
    kind = raw.dtype.kind
    if raw.size and (kind not in "biu" or (kind == "u" and int(raw.max()) >> 63)):
        raise ValueError(f"{name} requires integer entries within int64")
    return raw.astype(np.int64, copy=False)


# Moduli below this bound T finish from one table of (a/m) over odd m < T
# and 0 <= a < m, (a/m) at (m >> 1)^2 + a: (T/2)^2 bytes.  Measured on
# 2 vCPUs, in process: T = 256, 512 and 1024 take 16, 64 and 256 KB and
# 2-6, 4-9 and 16-22 ms to build; the symbol stage of spin_sum(10**7) then
# takes 0.024-0.033, 0.018-0.024 and 0.013-0.019 s, and of spin_sum(10**8)
# 0.33, 0.25 and 0.18 s.  512 costs the least, build included, at 1e7 and
# gives most of 1024's gain at 1e8.
_JACOBI_TABLE_M = 512


def _jacobi_loop(a: np.ndarray, m: np.ndarray, table: np.ndarray) -> np.ndarray:
    # (a/m) for 0 <= a < m, m odd: the reciprocity loop of jacobi over whole
    # arrays.  table holds (a/m) for the odd m below its bound T, laid out as
    # _jacobi_table's; an entry leaves once its m is below T, reading
    # +-table, or once a = 0 with m >= T, where gcd(a, m) = m > 1 gives 0.
    bound = 2 * math.isqrt(table.size)
    out = np.zeros(a.size, dtype=np.int8)
    live = np.arange(a.size)
    flips = np.zeros(a.size, dtype=np.int64)  # bit 0 set: the sign so far is -1
    while live.size:
        small = m < bound
        out[live[small]] = (1 - 2 * (flips[small] & 1)) * table[(m[small] >> 1) ** 2 + a[small]]
        keep = ~small
        keep &= a != 0
        if not keep.all():
            live, a, m, flips = live[keep], a[keep], m[keep], flips[keep]
        t = np.bitwise_count((a & -a) - 1)  # a = 2^t * odd
        a >>= t
        flips ^= t & ((m ^ (m >> 1)) >> 1)  # (2/m) = -1 iff m = 3 or 5 (mod 8)
        flips ^= (a & m) >> 1  # reciprocity flips iff a = m = 3 (mod 4)
        a, m = m % a, a
    return out


@functools.cache
def _jacobi_table() -> np.ndarray:
    # (a/m) at (m >> 1)^2 + a for odd m < _JACOBI_TABLE_M and 0 <= a < m;
    # read-only, since every jacobi_vec call shares it.  Built on first use
    # by the loop itself, 16 moduli at a time over the part already built,
    # from the one entry (0/1) = 1, so that at most 8K entries are in the
    # loop at once: the whole table at once raised the peak RSS of a spin
    # sweep by 5 MB.
    table = np.ones(1, dtype=np.int8)
    while table.size < (_JACOBI_TABLE_M // 2) ** 2:
        lo = 2 * math.isqrt(table.size) + 1  # the least odd m not yet in table
        m = np.arange(lo, min(lo + 32, _JACOBI_TABLE_M), 2)
        m = np.repeat(m, m)
        a = np.arange(table.size, table.size + m.size) - (m >> 1) ** 2
        table = np.concatenate([table, _jacobi_loop(a, m, table)])
    table.flags.writeable = False
    return table


def jacobi_vec(a, m) -> np.ndarray:
    """Jacobi symbols (a/m) elementwise over int64 arrays, with the
    conventions of jacobi: odd m >= 1, (a/1) = 1, 0 iff gcd(a, m) > 1.
    An entry that is not an integer or lies outside int64 raises ValueError.

    The reciprocity loop of jacobi runs over the whole array at once, and
    each chain ends as soon as its modulus falls below _JACOBI_TABLE_M, in
    one cached table of (a/m) over the small odd m.
    """
    a, m = np.broadcast_arrays(_int64_array(a, "jacobi_vec"), _int64_array(m, "jacobi_vec"))
    shape = a.shape
    a, m = a.ravel(), m.ravel()
    if np.any((m <= 0) | (m % 2 == 0)):
        raise ValueError("invalid modulus")
    return _jacobi_loop(a % m, m, _jacobi_table()).reshape(shape)


def jacobi_extended(a: int, d: int) -> int:
    """Jacobi symbol extended to even lower entries via the odd part of |d|.

    Defined for odd a only; (a/d) = (a/d') where d' is the odd part of |d|,
    so in particular the symbol is +1 when |d| is a power of two.
    """
    if a % 2 == 0:
        raise ValueError("upper entry must be odd")
    if d == 0:
        raise ValueError("lower entry must be nonzero")
    d = abs(d)
    while d % 2 == 0:
        d //= 2
    return jacobi(a, d)


def bezout_vec(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, mu, e) with lam a + mu b = e = gcd(a, b) >= 0 elementwise, by
    the extended Euclid loop over whole arrays, each entry until its
    remainder is 0.  Entries are int64, or Python ints in an object array;
    with int64 entries below 2^62 in absolute value nothing overflows, as
    every intermediate is bounded by max(|a|, |b|)."""
    a, b = (np.array(x) for x in np.broadcast_arrays(a, b))
    x0, y0 = np.ones_like(a), np.zeros_like(a)
    x1, y1 = np.zeros_like(a), np.ones_like(a)
    live = np.flatnonzero(b)
    while live.size:
        k = a[live] // b[live]
        a[live], b[live] = b[live], a[live] - k * b[live]
        x0[live], x1[live] = x1[live], x0[live] - k * x1[live]
        y0[live], y1[live] = y1[live], y0[live] - k * y1[live]
        live = live[b[live] != 0]
    sign = np.where(a < 0, -1, 1)
    return x0 * sign, y0 * sign, a * sign


def hilbert_infinity(a: int, b: int) -> int:
    """Hilbert symbol at the infinite place: -1 iff both arguments negative."""
    if a == 0 or b == 0:
        raise ValueError("hilbert_infinity requires nonzero arguments")
    return -1 if (a < 0 and b < 0) else 1


def chi4(n: int) -> int:
    """The nontrivial character of conductor four."""
    r = n % 4
    if r == 1:
        return 1
    if r == 3:
        return -1
    return 0


@functools.cache
def _non_residue(p: int) -> int:
    # The least z with (z/p) = -1, for odd prime p; that z has z(z - 1) < p
    z = 2
    while z * (z - 1) < p:
        if jacobi(z, p) == -1:
            return z
        z += 1
    raise ValueError("sqrt_mod requires a prime modulus")


def _tonelli_shanks(a: int, p: int) -> int | None:
    # One square root of a mod odd prime p, or None; a coprime to p.
    if jacobi(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        if r * r % p != a:  # for prime p, (a/p) = 1 makes r a root
            raise ValueError("sqrt_mod requires a prime modulus")
        return r
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    c = pow(_non_residue(p), q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i == m:  # for prime p, t has order 2^i with i < m
                raise ValueError("sqrt_mod requires a prime modulus")
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def _sqrt_mod_coprime(a: int, p: int, e: int) -> list[int]:
    # Roots of x^2 = a mod p^e with p not dividing a.
    pk = p**e
    if p != 2:
        r = _tonelli_shanks(a % p, p)
        if r is None:
            return []
        pj = p
        while pj < pk:
            # Hensel step doubles the precision: r -> r - (r^2 - a)/(2r).
            pj = min(pj * pj, pk)
            r = (r - (r * r - a) * pow(2 * r, -1, pj)) % pj
        return sorted({r, pk - r})
    # p = 2
    if e == 1:
        return [a % 2]
    if e == 2:
        return [1, 3] if a % 4 == 1 else []
    if a % 8 != 1:
        return []
    r = 1
    for j in range(3, e):  # lift odd root mod 2^j -> mod 2^(j+1)
        if (r * r - a) % (1 << (j + 1)):
            r += 1 << (j - 1)
    return sorted({r % pk, (-r) % pk, (r + (pk >> 1)) % pk, (-r + (pk >> 1)) % pk})


def sqrt_mod(a: int, p: int, e: int = 1) -> list[int]:
    """All x mod p^e with x^2 = a (mod p^e), for p prime and e >= 1.

    Complete and sorted; empty when there is no solution.  Non-coprime a is
    handled by peeling the p-adic valuation of a.  p must be prime and is not
    tested: callers pass the prime they hold from factorize or a sieve.  The
    root search stops at bounds that hold for every prime, so a composite p
    that runs past them raises ValueError instead of looping.
    """
    if p < 2 or e < 1:
        raise ValueError("sqrt_mod requires a prime p >= 2 and e >= 1")
    pk = p**e
    a %= pk
    if a == 0:
        step = p ** ((e + 1) // 2)
        return list(range(0, pk, step))
    t = 0
    aa = a
    while aa % p == 0:
        aa //= p
        t += 1
    if t % 2 == 1:
        return []
    half = t // 2
    base = _sqrt_mod_coprime(aa, p, e - t)
    if not base:
        return []
    mod_y = p ** (e - t + half)  # roots live mod p^(e - t/2), scaled by p^(t/2)
    step = p ** (e - t)
    out = set()
    for y0 in base:
        for j in range(p**half):
            out.add(p**half * ((y0 + j * step) % mod_y) % pk)
    return sorted(out)


def divisor_witness(n: int, k: int) -> int:
    """A divisor d <= n^(1/k) with tau(n) <= (2 tau(d))^(k log k / log 2).

    For squarefree n the witness additionally satisfies the stronger bound
    tau(n) <= (2 tau(d))^k.  Candidates are scanned by decreasing tau(d),
    ties broken by smallest d; d = 1 is always an admissible starting point
    of the search.
    """
    if k < 2:
        raise ValueError("divisor_witness requires k >= 2")
    if n < 1:
        raise ValueError("divisor_witness requires n >= 1")
    f = factorize(n)
    tn = f.divisor_count()
    squarefree = all(e == 1 for _, e in f.factors)
    # d <= n^(1/k) means d^k <= n, tested exactly in integers.
    small = [d for d in divisors(f) if d**k <= n]
    small.sort(key=lambda d: (-tau(d), d))
    exponent = k * math.log(k) / math.log(2)
    for d in small:
        if tn > (2 * tau(d)) ** exponent:
            continue
        if squarefree and tn > (2 * tau(d)) ** k:
            continue
        return d
    raise AssertionError(f"no divisor witness for n={n}, k={k}")
