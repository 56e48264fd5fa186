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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._util import Tally
from .arith import factorize, mobius, von_mangoldt, divisors

__all__ = [
    "SeparationTriple",
    "separate",
    "gamma_plus",
    "gamma_minus",
    "nu",
    "kth_root",
    "IdentityStructure",
    "identity_structure",
    "prop_24_2_check",
    "vaughan_terms",
    "vaughan_check",
]


def kth_root(x: int, k: int) -> int:
    """Largest integer t with t^k <= x."""
    if x < 0 or k < 1:
        raise ValueError("kth_root needs x >= 0, k >= 1")
    if x < 2 or k == 1:
        return x
    if k >= x.bit_length():  # 2^k > x; (t + 1)^k below would build a k-bit number
        return 1
    t = int(round(x ** (1.0 / k)))
    while t**k > x:
        t -= 1
    while (t + 1) ** k <= x:
        t += 1
    return t


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
        f = factorize(ell)
        if any(e > 1 for _, e in f.factors):
            raise ValueError("ell must be squarefree")
        p1 = f.factors[-1][0] if f.factors else 1
        if self.d_sep**self.r > ell * p1 ** (self.r * (self.r - 1)):
            raise ValueError("separation divisor exceeds its bound")


def separate(ell: int, r: int) -> SeparationTriple:
    """The canonical (d, m, n) of a squarefree ell: primes descending,
    indices 1..r and every multiple of r go to d, the remaining blocks go
    alternately to m and n."""
    if r < 2:
        raise ValueError("r must be >= 2")
    f = factorize(ell)
    if any(e > 1 for _, e in f.factors):
        raise ValueError("ell must be squarefree")
    primes = sorted((p for p, _ in f.factors), reverse=True)
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
    """f-independent coefficient lists of the triple-sum decomposition at (x, r):
    sum_ell f(ell) = sum c1[ell] f(ell) + sum w2[ell] f(ell) + sum c3[ell] f(ell),
    with c1 from gamma-valid triples (d smooth, d <= D, m, n <= sqrt x),
    w2 the exact-rational gamma(q) weights of the (p, q > z) pairs, and c3
    the (p > z >= q) pair counts."""

    x: int
    r: int
    z: int
    D: int
    c1: dict[int, int]
    w2: dict[int, Fraction]
    c3: dict[int, int]


def _squarefree_up_to(x: int) -> list[int]:
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
    c1: dict[int, int] = {}
    w2: dict[int, Fraction] = {}
    c3: dict[int, int] = {}
    for ell in _squarefree_up_to(x):
        primes = _descending_primes(ell)
        smooth_part = [p for p in primes if p <= z]
        large = [p for p in primes if p > z]
        # triple-sum coefficient: ordered (d, m, n), d m n = ell
        if not large:
            cnt = 0
            for d in divisors(ell):
                if d > D:
                    continue
                rest = ell // d
                for m in divisors(rest):
                    if m > sx or rest // m > sx:
                        continue
                    if gamma_plus(m, d, r) and gamma_minus(rest // m, d, r):
                        cnt += 1
            if cnt:
                c1[ell] = cnt
        # split-off terms over p | ell, p > z
        for p in large:
            q = ell // p
            if q > z:
                w2[ell] = w2.get(ell, Fraction(0)) + Fraction(1, 1 + nu(q, z))
            else:
                c3[ell] = c3.get(ell, 0) + 1
    return IdentityStructure(x=x, r=r, z=z, D=D, c1=c1, w2=w2, c3=c3)


def prop_24_2_check(f: dict[int, complex], x: int, r: int):
    """Evaluate both sides of the triple-sum decomposition for f supported
    on squarefree ell <= x; returns (lhs, rhs, equal).  gamma(q) weights
    are exact rationals; equality is exact for integer-valued f and to
    1e-9 otherwise."""
    struct = identity_structure(x, r)
    lhs = sum(f.values())
    rhs = 0
    exact = all(
        isinstance(v, (int, Fraction)) or (isinstance(v, float) and v.is_integer())
        for v in f.values()
    )
    for ell, v in f.items():
        ft = factorize(ell)
        if any(e > 1 for _, e in ft.factors) or ell > x:
            raise ValueError("f must be supported on squarefree ell <= x")
        rhs += struct.c1.get(ell, 0) * v
        rhs += struct.w2.get(ell, Fraction(0)) * v
        rhs += struct.c3.get(ell, 0) * v
    if exact:
        equal = lhs == rhs
    else:
        equal = abs(complex(lhs) - complex(rhs)) <= 1e-9
    return lhs, rhs, equal


def vaughan_terms(n: int, y: int) -> tuple[float, float, float]:
    """The three divisor sums (t1, t2, t3) with t1 - t2 + t3 = Lambda(n)
    for n > y and = 0 for n <= y:

        t1 = sum_{a | n, a <= y} mu(a) log(n/a)
        t2 = sum_{ab | n, a, b <= y} mu(a) Lambda(b)
        t3 = sum_{ab | n, a, b > y} mu(a) Lambda(b)
    """
    if n < 1 or y < 1:
        raise ValueError("n and y must be positive")
    divs = divisors(n)
    mu = {d: mobius(d) for d in divs}
    lam = {d: von_mangoldt(d) for d in divs}
    t1 = math.fsum(mu[a] * math.log(n / a) for a in divs if a <= y and mu[a])
    t2 = math.fsum(
        mu[a] * lam[b]
        for a in divs
        if a <= y and mu[a]
        for b in divisors(n // a)
        if b <= y and lam[b]
    )
    t3 = math.fsum(
        mu[a] * lam[b]
        for a in divs
        if a > y and mu[a]
        for b in divisors(n // a)
        if b > y and lam[b]
    )
    return t1, t2, t3


def vaughan_check(n_max: int):
    """Vaughan's identity t1 - t2 + t3 = Lambda(n) [n > y] for every
    n <= n_max and y in (10, 100), to 1e-9; returns (checked, violations,
    first)."""
    t = Tally()
    for n in range(1, n_max + 1):
        lam = von_mangoldt(n)
        for y in (10, 100):
            t1, t2, t3 = vaughan_terms(n, y)
            t.case(abs(t1 - t2 + t3 - (lam if n > y else 0.0)) <= 1e-9, n, y)
    return t.result()
