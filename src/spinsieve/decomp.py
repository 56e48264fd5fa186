"""Exact combinatorial decompositions of arithmetic sums.

Every squarefree ell = p1 p2 ... (primes descending) splits uniquely as
ell = d m n where the separation divisor d takes the top r primes and then
every r-th one, m takes the blocks between odd-indexed gaps and n the
blocks between even-indexed gaps.  Membership of m and n is recognized by
interval conditions (gamma_plus / gamma_minus) on the descending primes of
d alone, which turns a sum over smooth squarefree ell into a genuine
triple sum -- an exact identity checked here against direct enumeration,
together with its extension splitting off the primes above the smoothness
cut z = x^(1/r^2), and Vaughan's three-term identity for Lambda(n).

gamma weights 1/(1 + nu(q, z)) stay exact rationals end to end.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._util import Tally
from .arith import _smallest_prime_factors, factorize

__all__ = [
    "SeparationTriple",
    "separate",
    "gamma_plus",
    "gamma_minus",
    "nu",
    "kth_root",
    "IdentityStructure",
    "squarefree_up_to",
    "identity_structure",
    "prop_24_2_check",
    "prop_24_2_trials",
    "vaughan_terms",
    "vaughan_term_arrays",
    "vaughan_check",
]


def kth_root(x: int, k: int) -> int:
    """Largest integer t with t^k <= x, in exact integer arithmetic."""
    if x < 0 or k < 1:
        raise ValueError("kth_root needs x >= 0, k >= 1")
    if x < 2 or k == 1:
        return x
    if k >= x.bit_length():  # 2^k > x; the powers below would build k-bit numbers
        return 1
    if k == 2:
        return math.isqrt(x)
    # Integer Newton from t = 2^ceil(bits / k) > x^(1/k): every step stays at
    # or above the root and falls until it stops, at the root.
    t = 1 << -(-x.bit_length() // k)
    while True:
        u = ((k - 1) * t + x // t ** (k - 1)) // k
        if u >= t:
            return t
        t = u


@dataclass(frozen=True)
class SeparationTriple:
    """ell = d_sep * m * n with the block-interleaving structure of order r."""

    d_sep: int
    m: int
    n: int
    r: int

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("r must be >= 2")
        ell = self.d_sep * self.m * self.n
        if not (self.n <= self.m <= self.d_sep * self.n):
            raise ValueError("block ordering n <= m <= d n violated")
        if self.m**2 > ell or self.n**2 > ell:
            raise ValueError("m, n must be at most sqrt(ell)")
        primes = _descending_primes(ell)
        if math.prod(primes) != ell:
            raise ValueError("ell must be squarefree")
        p1 = primes[0] if primes else 1
        if self.d_sep**self.r > ell * p1 ** (self.r * (self.r - 1)):
            raise ValueError("separation divisor exceeds its bound")


def separate(ell: int, r: int) -> SeparationTriple:
    """The canonical (d, m, n) of a squarefree ell: primes descending,
    indices 1..r and every multiple of r go to d, the remaining blocks go
    alternately to m and n."""
    if r < 2:
        raise ValueError("r must be >= 2")
    primes = _descending_primes(ell)
    if math.prod(primes) != ell:
        raise ValueError("ell must be squarefree")
    d = m = n = 1
    for i, p in enumerate(primes, start=1):
        if i <= r or i % r == 0:
            d *= p
        elif (i // r) % 2 == 1:
            m *= p
        else:
            n *= p
    return SeparationTriple(d_sep=d, m=m, n=n, r=r)


@lru_cache(maxsize=1 << 18)
def _descending_primes(k: int) -> tuple[int, ...]:
    return tuple(sorted((p for p, _ in factorize(k).factors), reverse=True))


def _signed_divisors(primes) -> list[tuple[int, int]]:
    # (a, mu(a)) for every product a of a subset of the distinct primes
    out = [(1, 1)]
    for p in primes:
        out += [(a * p, -mu) for a, mu in out]
    return out


def _gamma(member: int, d_sep: int, r: int, offset: int) -> bool:
    # Interval test against pi = descending primes of d_sep.  The k-th
    # interval for m (offset 0) is (pi[r+2k-1], pi[r+2k-2]) in 1-based
    # indices, shifted by one for n (offset 1).  Blocks must be full
    # (r - 1 primes) whenever the lower endpoint exists.
    if member < 1:
        return False
    pi = _descending_primes(d_sep)
    qs = _descending_primes(member)
    i, k = 0, 1
    while True:
        ui = r + 2 * (k - 1) + offset  # 1-based index of the upper endpoint
        if ui > len(pi):
            return i == len(qs)
        upper = pi[ui - 1]
        if ui + 1 <= len(pi):
            lower = pi[ui]
            chunk = qs[i : i + r - 1]
            if len(chunk) < r - 1:
                return False
            if not all(lower < q < upper for q in chunk):
                return False
            i += r - 1
            k += 1
        else:
            rest = qs[i:]
            return len(rest) <= r - 1 and all(q < upper for q in rest)


def gamma_plus(m: int, d_sep: int, r: int) -> bool:
    """Characteristic function of the m-side block structure."""
    return _gamma(m, d_sep, r, 0)


def gamma_minus(n: int, d_sep: int, r: int) -> bool:
    """Characteristic function of the n-side block structure."""
    return _gamma(n, d_sep, r, 1)


def nu(ell: int, z: int) -> int:
    """Number of distinct prime factors of ell exceeding z."""
    if ell < 1:
        raise ValueError("ell must be positive")
    return sum(1 for p, _ in factorize(ell).factors if p > z)


@dataclass
class IdentityStructure:
    """f-independent coefficients of the triple-sum decomposition at (x, r):
    sum_ell f(ell) = sum_ell (a[ell] + w[ell]) f(ell).  The integer a counts
    the gamma-valid triples (d smooth, d <= D, m, n <= sqrt x) and the
    (p > z >= q) pairs; w sums the exact-rational gamma(q) weights of the
    (p, q > z) pairs.  key maps every squarefree ell <= x, ascending, to
    (a, numerator of w, denominator of w), one shared tuple per distinct
    coefficient."""

    x: int
    r: int
    z: int
    D: int
    key: dict[int, tuple[int, int, int]]


def squarefree_up_to(x: int) -> list[int]:
    """The squarefree integers 1 <= ell <= x, ascending."""
    flags = [True] * (x + 1)
    k = 2
    while k * k <= x:
        flags[k * k :: k * k] = [False] * len(flags[k * k :: k * k])
        k += 1
    return [n for n in range(1, x + 1) if flags[n]]


@lru_cache(maxsize=8)
def identity_structure(x: int, r: int) -> IdentityStructure:
    """Enumerate the decomposition coefficients for all squarefree ell <= x.

    The separation-divisor sum ranges over z-smooth d (the construction
    never produces a divisor with a prime factor above the cut, and
    admitting one would double-count single large primes).  Cached per
    (x, r): the structure is f-independent and repeated trials reuse it."""
    if x < 1 or r < 2:
        raise ValueError("x >= 1 and r >= 2 required")
    z = kth_root(x, r * r)
    D = kth_root(x * x, r)  # floor(x^(2/r))
    sx = math.isqrt(x)
    key: dict[int, tuple[int, int, int]] = {}
    shared: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    spf = _smallest_prime_factors(x).tolist()
    for ell in squarefree_up_to(x):
        primes, n = [], ell  # ell's primes, ascending, read off the sieve
        while n > 1:
            primes.append(spf[n])
            n //= spf[n]
        large = [p for p in primes if p > z]
        cnt = 0
        if not large:  # triple-sum coefficient: ordered (d, m, n), d m n = ell
            cnt = sum(
                gamma_plus(m, d, r) and gamma_minus(ell // (d * m), d, r)
                for d, _ in _signed_divisors(primes)
                if d <= D
                for m, _ in _signed_divisors([p for p in primes if d % p])
                if m <= sx and ell // (d * m) <= sx
            )
        # split-off terms over p | ell, p > z: q = ell / p has the other
        # len(large) - 1 primes above z, so gamma(q) = 1 / len(large); the
        # pairs with q <= z count 1 each
        above = sum(1 for p in large if ell // p > z)
        k = len(large) or 1
        g = math.gcd(above, k)  # w = above / k in lowest terms
        c = (cnt + len(large) - above, above // g, k // g)
        key[ell] = shared.setdefault(c, c)
    return IdentityStructure(x=x, r=r, z=z, D=D, key=key)


def prop_24_2_check(f: dict[int, complex], x: int, r: int):
    """Evaluate both sides of the triple-sum decomposition for f supported
    on squarefree ell <= x; returns (lhs, rhs, equal).  gamma(q) weights
    are exact rationals; equality is exact when every value of f is an int,
    a Fraction or an integer-valued float, and to 1e-9 otherwise."""
    key = identity_structure(x, r).key
    if not f.keys() <= key.keys():
        raise ValueError("f must be supported on squarefree ell <= x")
    lhs = sum(f.values())
    # an int sum has only int terms and is compared exactly; the terms of a
    # Fraction or float sum are read, since numpy integers and non-integer
    # floats make it inexact; any other sum (complex, numpy) is inexact
    if isinstance(lhs, int):
        exact = True
    elif isinstance(lhs, (Fraction, float)):
        exact = all(
            isinstance(v, (int, Fraction)) or (isinstance(v, float) and v.is_integer())
            for v in f.values()
        )
    else:
        exact = False
    # sum f per coefficient a + w, so rationals are formed once per value
    sums: dict[tuple[int, int, int], complex] = {}
    for ell, v in f.items():
        c = key[ell]
        sums[c] = sums.get(c, 0) + v
    rhs = sum((c + Fraction(n, d)) * s for (c, n, d), s in sums.items())
    equal = lhs == rhs if exact else abs(complex(lhs) - complex(rhs)) <= 1e-9
    return lhs, rhs, equal


def prop_24_2_trials(x: int, r: int, cases: int, seed: int):
    """prop_24_2_check on cases seeded random f = +-1 on the squarefree
    ell <= x: Random(seed), then one choice((-1, 1)) per ell ascending, per
    trial.  Yields (lhs, rhs, equal) per trial; x and r are checked before
    the first draw."""
    support = identity_structure(x, r).key
    rng = random.Random(seed)
    for _ in range(cases):
        f = {ell: rng.choice((-1, 1)) for ell in support}
        yield prop_24_2_check(f, x, r)


def vaughan_terms(n: int, y: int) -> tuple[float, float, float]:
    """The three divisor sums (t1, t2, t3) with t1 - t2 + t3 = Lambda(n)
    for n > y and = 0 for n <= y:

        t1 = sum_{a | n, a <= y} mu(a) log(n/a)
        t2 = sum_{ab | n, a, b <= y} mu(a) Lambda(b)
        t3 = sum_{ab | n, a, b > y} mu(a) Lambda(b)

    mu(a) and Lambda(b) = log p, b = p^k, are read off one factorization.
    The scalar oracle of vaughan_term_arrays, which vaughan_check reads."""
    if n < 1 or y < 1:
        raise ValueError("n and y must be positive")
    factors = factorize(n).factors
    t1, t2, t3 = [], [], []
    for a, mu in _signed_divisors(p for p, _ in factors):
        small = a <= y
        if small:
            t1.append(mu * math.log(n / a))
        for p, e in factors:  # the prime powers b = p^k dividing n / a
            for k in range(1, e + 1 - (a % p == 0)):
                if (p**k <= y) == small:
                    (t2 if small else t3).append(mu * math.log(p))
    return math.fsum(t1), math.fsum(t2), math.fsum(t3)


@lru_cache(maxsize=1)
def _mobius_mangoldt(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    # mu(n) and Lambda(n) for 0 <= n <= n_max, both 0 at n = 0, as read-only
    # arrays, read off the smallest prime factors: each pass divides every n
    # not yet at 1 by the least prime p of what is left of it, which makes
    # mu 0 when p divides the rest again and keeps n a prime power while p
    # is its least prime.
    spf = _smallest_prime_factors(n_max).astype(np.int64)
    mu = np.ones(n_max + 1, dtype=np.int64)
    mu[0] = 0
    power = np.arange(n_max + 1) >= 2
    rest = np.arange(n_max + 1)
    live = np.flatnonzero(rest >= 2)
    while live.size:
        p = spf[rest[live]]
        rest[live] //= p
        mu[live] *= np.where(rest[live] % p == 0, 0, -1)
        power[live] &= p == spf[live]
        live = live[rest[live] > 1]
    lam = np.zeros(n_max + 1)
    lam[power] = np.log(spf[power])
    mu.flags.writeable = lam.flags.writeable = False
    return mu, lam


def vaughan_term_arrays(n_max: int, y: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The divisor sums (t1, t2, t3) of vaughan_terms(n, y) for every
    0 <= n <= n_max at once, as float arrays indexed by n (0 at n = 0), from
    divisor sieves over the mu and Lambda of the integers up to n_max:

        L<=(m) = sum_{b | m, b <= y} Lambda(b),  L>(m) = sum_{b | m, b > y} Lambda(b)

    by strided adds over the prime powers b, then t1, t2, t3 by strided adds
    of mu(a) log m, mu(a) L<=(m) and mu(a) L>(m) at n = a m over the
    squarefree a, a <= y for t1 and t2 and a > y for t3.  L>(m) is 0 for
    m <= y, so t3 reads only the a <= n_max / (y + 1)."""
    if n_max < 0 or y < 1:
        raise ValueError("n_max must be nonnegative and y positive")
    mu, lam = _mobius_mangoldt(n_max)
    logs = np.zeros(n_max + 1)
    logs[1:] = np.log(np.arange(1, n_max + 1))
    m_gt = n_max // (y + 1)  # the largest m = n / a with a > y
    lam_le, lam_gt = np.zeros(n_max + 1), np.zeros(m_gt + 1)
    for b in np.flatnonzero(lam[: min(y, n_max) + 1]).tolist():
        lam_le[b::b] += lam[b]
    for b in (y + 1 + np.flatnonzero(lam[y + 1 : m_gt + 1])).tolist():
        lam_gt[b::b] += lam[b]
    t1, t2, t3 = np.zeros(n_max + 1), np.zeros(n_max + 1), np.zeros(n_max + 1)
    for a in np.flatnonzero(mu[: min(y, n_max) + 1]).tolist():
        k = n_max // a
        t1[a::a] += mu[a] * logs[1 : k + 1]
        t2[a::a] += mu[a] * lam_le[1 : k + 1]
    for a in (y + 1 + np.flatnonzero(mu[y + 1 : m_gt + 1])).tolist():
        t3[a::a] += mu[a] * lam_gt[1 : n_max // a + 1]
    return t1, t2, t3


def vaughan_check(n_max: int):
    """Vaughan's identity t1 - t2 + t3 = Lambda(n) [n > y] for every
    n <= n_max and y in (10, 100), to 1e-9, with the terms of
    vaughan_term_arrays; returns (checked, violations, first), the cases in
    the order n ascending, then y."""
    t = Tally()
    if n_max < 1:
        return t.result()
    n = np.arange(1, n_max + 1)
    _, lam = _mobius_mangoldt(n_max)
    ys = (10, 100)
    ok = np.empty((n_max, len(ys)), dtype=bool)
    for j, y in enumerate(ys):
        t1, t2, t3 = (v[1:] for v in vaughan_term_arrays(n_max, y))
        ok[:, j] = np.abs(t1 - t2 + t3 - np.where(n > y, lam[1:], 0.0)) <= 1e-9
    t.cases(ok.ravel(), lambda i: (i // len(ys) + 1, ys[i % len(ys)]))
    return t.result()
