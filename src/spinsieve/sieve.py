"""The sequence a_n = #{(a, c) in Z^2 : a^2 + c^4 = n} and its sieve data.

Congruence sums A_d(x), exact main terms M_d(x), the multiplicative
densities g(d), h(d) on cubefree moduli, remainders r_d(x) = A_d - g(d) A,
the area constant kappa = int_0^1 sqrt(1 - t^4) dt and the singular-series
constant 4/pi, and the desk-scale prime-values experiment

    sum over positive a, b with a^2 + b^4 <= x of Lambda(a^2 + b^4)
      ~ (4/pi) kappa x^(3/4).

The experiment finds the prime values with a root sieve on each b-line: a
prime p <= sqrt(x) divides a^2 + b^4 only on the classes a = +-nu b^2
(mod p) with nu^2 = -1 (mod p), or a = 0 when p | b, or a = b (mod 2).

Counts are exact integers; densities are exact rationals; only the final
Lambda-weighted sums are floating point (deterministic block order).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._util import split_range
from .arith import chi4, factorize, primes_up_to, sqrt_mod
from .congruences import rho, rho_b, _crt_roots
from .gaussian import gaussian_reps

__all__ = [
    "RemainderRow",
    "ExperimentReport",
    "GAxiomsReport",
    "a_n",
    "A",
    "A_d",
    "M_d",
    "g",
    "h",
    "remainder_scan",
    "kappa",
    "kappa_closed_form",
    "H_partial",
    "theorem1_experiment",
    "factorization_identity_check",
    "g_axioms_report",
]


@dataclass
class RemainderRow:
    """One modulus of the remainder scan: r_d = A_d(x) - g(d) A(x)."""

    d: int
    A_d: int
    M_d: float
    g_d: Fraction
    r_d: float


@dataclass
class ExperimentReport:
    x: int
    observed: float
    predicted: float
    ratio: float
    runtime_seconds: float
    pair_count: int


@dataclass
class GAxiomsReport:
    y: int
    primes_checked: int
    violations: list
    mertens_tail: list  # (checkpoint, sum g(p) - log log checkpoint)


def zweight(b: int) -> int:
    """Number of integers c with c^2 = b (2 for positive squares, 1 for 0)."""
    if b < 0:
        return 0
    if b == 0:
        return 1
    r = math.isqrt(b)
    return 2 if r * r == b else 0


def a_n(n: int) -> int:
    """Number of integral (a, c), signs included, with a^2 + c^4 = n."""
    if n < 1:
        raise ValueError("n must be positive")
    count = 0
    c = 0
    while c**4 <= n:
        rem = n - c**4
        r = math.isqrt(rem)
        if r * r == rem:
            count += (1 if c == 0 else 2) * (1 if r == 0 else 2)
        c += 1
    return count


def A(x: int) -> int:
    """sum_{n <= x} a_n, enumerated over c then a (never per-n)."""
    if x < 1:
        raise ValueError("x must be positive")
    total = -1  # drop the (a, c) = (0, 0) pair
    c = 0
    while c**4 <= x:
        width = 2 * math.isqrt(x - c**4) + 1
        total += width if c == 0 else 2 * width
        c += 1
    return total


def _residue_count(L: int, alpha: int, d: int) -> int:
    # #{a in [-L, L] : a = alpha (mod d)}, 0 <= alpha < d.
    return (L - alpha) // d + (L + alpha) // d + 1


def A_d(x: int, d: int) -> int:
    """Weighted count of 0 < a^2 + b^2 <= x, divisible by d, b a square."""
    if x < 1 or d < 1:
        raise ValueError("x and d must be positive")
    if d == 1:
        return A(x)
    parts = [(p**e, p**e) for p, e in factorize(d).factors]
    total = 0
    c = 0
    while c**4 <= x:
        L = math.isqrt(x - c**4)
        comps = []
        ok = True
        for pk, _ in parts:
            sols = sqrt_mod(-(c**4), pk)
            if not sols:
                ok = False
                break
            comps.append((pk, sols))
        if ok:
            w = 1 if c == 0 else 2
            for alpha in _crt_roots(comps):
                total += w * _residue_count(L, alpha, d)
        if c == 0:
            total -= 1  # the (0, 0) pair
        c += 1
    return total


def M_d(x: int, d: int) -> float:
    """Exact main term (1/d) sum_{0 < a^2+b^2 <= x} zweight(b) rho(b; d)."""
    return float(M_d_exact(x, d))


def M_d_exact(x: int, d: int) -> Fraction:
    if x < 1 or d < 1:
        raise ValueError("x and d must be positive")
    total = rho_b(0, d) * 2 * math.isqrt(x)  # b = 0 line, a != 0
    c = 1
    while c**4 <= x:
        total += 2 * rho_b(c * c, d) * (2 * math.isqrt(x - c**4) + 1)
        c += 1
    return Fraction(total, d)


def _cubefree(d: int) -> bool:
    return all(e <= 2 for _, e in factorize(d).factors)


def g(d: int) -> Fraction:
    """Density of the sieve: multiplicative on cubefree d, with
    g(p) p = 1 + chi4(p)(1 - 1/p), g(p^2) p^2 = 1 + rho(p)(1 - 1/p),
    except g(4) = 1/4."""
    if d < 1 or not _cubefree(d):
        raise ValueError("g is defined on cubefree d")
    out = Fraction(1)
    for p, e in factorize(d).factors:
        if p == 2 and e == 2:
            out *= Fraction(1, 4)
        elif e == 1:
            out *= (1 + Fraction(chi4(p)) * (1 - Fraction(1, p))) / p
        else:
            out *= (1 + rho(p) * (1 - Fraction(1, p))) / p**2
    return out


def h(d: int) -> Fraction:
    """Error-weight companion: h(p) p = 1 + 2 rho(p), h(p^2) p^2 = p + 2 rho(p)."""
    if d < 1 or not _cubefree(d):
        raise ValueError("h is defined on cubefree d")
    out = Fraction(1)
    for p, e in factorize(d).factors:
        if e == 1:
            out *= Fraction(1 + 2 * rho(p), p)
        else:
            out *= Fraction(p + 2 * rho(p), p * p)
    return out


def _an_array(x: int) -> np.ndarray:
    # an[n] = a_n for 0 <= n <= x, built by enumeration over (a, c).
    vals = []
    c = 0
    while c**4 <= x:
        c4 = c**4
        amax = math.isqrt(x - c4)
        a = np.arange(1, amax + 1, dtype=np.int64)
        n = a * a + c4
        rep = 2 if c else 1
        chunk = np.repeat(n, 2 * rep)  # a of both signs, c of both signs
        vals.append(chunk)
        if c4 > 0:
            vals.append(np.repeat(np.int64(c4), rep))  # a = 0
        c += 1
    allv = np.concatenate(vals)
    return np.bincount(allv, minlength=x + 1)


def remainder_scan(x: int, D: int) -> tuple[list[RemainderRow], dict]:
    """Rows (d, A_d, M_d, g(d), r_d) for every cubefree d <= D, plus a
    summary with sum |r_d| and its ratio against D^(1/4) x^(9/16)."""
    if x < 1 or D < 1:
        raise ValueError("x and D must be positive")
    if x > 10**8:
        raise ValueError("x capped at 1e8")
    if D > x:
        raise ValueError("D must be at most x")
    an = _an_array(x)
    Ax = int(an[1:].sum())
    cubefree = np.ones(D + 1, dtype=bool)
    k = 2
    while k**3 <= D:
        cubefree[k**3 :: k**3] = False
        k += 1

    def row(d: int) -> RemainderRow:
        Ad = int(an[d::d].sum())
        gd = g(d)
        rd = Fraction(Ad) - gd * Ax
        return RemainderRow(d=d, A_d=Ad, M_d=M_d(x, d), g_d=gd, r_d=float(rd))

    rows = [row(d) for d in range(1, D + 1) if cubefree[d]]
    total = math.fsum(abs(r.r_d) for r in rows)
    summary = {
        "x": x,
        "D": D,
        "A_x": Ax,
        "moduli": len(rows),
        "sum_abs_r": total,
        "bound_ratio": total / (D**0.25 * x**0.5625),
    }
    return rows, summary


def kappa() -> float:
    """Quadrature value of int_0^1 sqrt(1 - t^4) dt (substitution t = sin u
    removes the endpoint cusp)."""
    from scipy.integrate import quad  # deferred: most of the package's cold import

    val, err = quad(
        lambda u: math.cos(u) ** 2 * math.sqrt(1.0 + math.sin(u) ** 2),
        0.0,
        math.pi / 2,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val


def kappa_closed_form() -> float:
    """Gamma(1/4)^2 / (6 sqrt(2 pi))."""
    return math.gamma(0.25) ** 2 / (6.0 * math.sqrt(2.0 * math.pi))


def H_partial(P: int) -> float:
    """Partial Euler product prod_{p <= P} (1 - chi4(p)/p), tending to 4/pi."""
    if P < 2:
        raise ValueError("P must be >= 2")
    ps = primes_up_to(P)
    signs = np.where(ps % 4 == 1, 1.0, -1.0)
    signs[ps == 2] = 0.0
    return float(np.prod(1.0 - signs / ps))


def _prime_power_table(x: int, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Prime powers p^k <= x with k >= 2, with their log p weights; primes
    # holds every prime <= sqrt(x).
    vals, logs = [], []
    for p in primes:
        p = int(p)
        v = p * p
        lp = math.log(p)
        while v <= x:
            vals.append(v)
            logs.append(lp)
            v *= p
    order = np.argsort(np.array(vals, dtype=np.int64), kind="stable")
    return (
        np.array(vals, dtype=np.int64)[order],
        np.array(logs, dtype=np.float64)[order],
    )


# A residue class whose prime p has at least this many members on a line is
# marked with a strided slice; the sparser classes go through one scatter.
_SLICE_MIN_HITS = 32


class _RootSieve:
    """Which n = a^2 + b^4 <= x are prime, along each line 1 <= a <= amax.

    A prime p divides a^2 + b^4 exactly when a^2 = -b^4 (mod p):
      p = 2:           a = b (mod 2);
      p = 1 (mod 4):   a = +-nu_p b^2 (mod p), where nu_p^2 = -1 (mod p);
      p = 3 (mod 4):   p | b and p | a.
    These are the rho(p) = 1 + chi4(p) roots the paper sieves with.  A value
    above sqrt(x) is prime iff no prime p <= sqrt(x) divides it; values up to
    sqrt(x) are read from a prime table.  Memory is O(sqrt(x)) per line.
    """

    def __init__(self, x: int, primes: np.ndarray):
        # primes: every prime <= sqrt(x), ascending
        self.root = math.isqrt(x)
        self.table = np.zeros(self.root + 1, dtype=bool)
        self.table[primes] = True
        self.split = primes[primes % 4 == 1]
        self.nu = np.array([sqrt_mod(-1, int(p))[0] for p in self.split], dtype=np.int64)
        self.inert = primes[primes % 4 == 3]

    def line(self, b: int, amax: int) -> np.ndarray:
        """Mask over a = 1..amax: True where a^2 + b^4 is prime."""
        split = self.split
        nub2 = self.nu * (b * b % split) % split
        inert = self.inert[b % self.inert == 0]
        ps = np.concatenate((split, split, inert))
        roots = np.concatenate((nub2, (split - nub2) % split, np.zeros_like(inert)))
        first = (roots - 1) % ps  # index a - 1 of the least a >= 1 in each class
        composite = np.zeros(amax, dtype=bool)
        if self.root >= 2:
            composite[(b - 1) % 2 :: 2] = True
        dense = ps * _SLICE_MIN_HITS <= amax
        for p, i in zip(ps[dense].tolist(), first[dense].tolist()):
            composite[i::p] = True
        ps, first = ps[~dense], first[~dense]
        hits = (amax - 1 - first) // ps + 1
        rank = np.arange(int(hits.sum())) - np.repeat(np.cumsum(hits) - hits, hits)
        composite[np.repeat(first, hits) + rank * np.repeat(ps, hits)] = True
        prime = ~composite
        b4 = b**4
        if b4 < self.root:
            low = np.arange(1, math.isqrt(self.root - b4) + 1, dtype=np.int64)
            prime[: low.size] = self.table[low * low + b4]
        return prime


def _lambda_block(
    x: int, b_lo: int, b_hi: int, root_sieve: _RootSieve, pp, pp_logs
) -> tuple[float, int]:
    # sum of Lambda(a^2 + b^4) over b in [b_lo, b_hi), a >= 1, n <= x.
    obs = 0.0
    pairs = 0
    for b in range(b_lo, b_hi):
        b4 = b**4
        if b4 >= x:
            break
        amax = math.isqrt(x - b4)
        if amax == 0:
            continue
        a = np.arange(1, amax + 1, dtype=np.int64)
        n = a * a + b4
        pairs += amax
        mask = root_sieve.line(b, amax)
        obs += float(np.log(n[mask].astype(np.float64)).sum())
        # n ascends with a, so look up the prime powers inside [n[0], n[-1]]
        lo = np.searchsorted(pp, n[0])
        hi = np.searchsorted(pp, n[-1], side="right")
        window = pp[lo:hi]
        found = n[np.searchsorted(n, window)] == window
        obs += float(pp_logs[lo:hi][found].sum())
    return obs, pairs


def theorem1_experiment(x: int) -> ExperimentReport:
    """Observed sum of Lambda(a^2 + b^4) over positive a, b (pairs counted
    with multiplicity, prime powers included) against (4/pi) kappa x^(3/4).

    The prime values come from the root sieve of _RootSieve over the primes
    <= sqrt(x), with no primality test per value; the prime powers p^k,
    k >= 2, from a table of them.  Memory is O(sqrt(x))."""
    if x < 1:
        raise ValueError("x must be positive")
    if x > 10**11:
        raise ValueError("x capped at 1e11")
    t0 = time.perf_counter()
    primes = primes_up_to(math.isqrt(x))
    pp, pp_logs = _prime_power_table(x, primes)
    root_sieve = _RootSieve(x, primes)
    bmax = 1
    while (bmax + 1) ** 4 <= x:
        bmax += 1
    # Each block of b-lines sums its own lines, then fsum adds the blocks:
    # this order fixes the last digits of observed.
    parts = [_lambda_block(x, lo, hi, root_sieve, pp, pp_logs)
             for lo, hi in split_range(1, bmax + 1, bmax // 8 + 1)]
    observed = math.fsum(p[0] for p in parts)
    pairs = sum(p[1] for p in parts)
    predicted = 4.0 / math.pi * kappa_closed_form() * x**0.75
    return ExperimentReport(
        x=x,
        observed=observed,
        predicted=predicted,
        ratio=observed / predicted,
        runtime_seconds=time.perf_counter() - t0,
        pair_count=pairs,
    )


def factorization_identity_check(m: int, n: int) -> bool:
    """Verify 4 a_{mn} = sum over |w|^2 = m, |z|^2 = n of zweight(Re conj(w) z)
    by full enumeration, for coprime m, n with n odd."""
    if math.gcd(m, n) != 1 or n % 2 == 0:
        raise ValueError("requires gcd(m, n) = 1 with n odd")
    ws = gaussian_reps(m)
    zs = gaussian_reps(n)
    total = 0
    for w in ws:
        wc = w.conj()
        for z in zs:
            total += zweight((wc * z).re)
    return total == 4 * a_n(m * n)


def g_axioms_report(y: int, checkpoints: tuple[int, ...] = ()) -> GAxiomsReport:
    """Check 0 <= g(p^2) <= g(p) < 1, g(p) <= 2/p, g(p^2) <= 4/p^2 for all
    p <= y, and report sum_{p <= t} g(p) - log log t at the checkpoints."""
    if y < 10:
        raise ValueError("y must be >= 10")
    violations = []
    tail = []
    cps = sorted(set(checkpoints) | {y})
    acc = Fraction(0)
    ps = [int(p) for p in primes_up_to(y)]
    i = 0
    for cp in cps:
        while i < len(ps) and ps[i] <= cp:
            p = ps[i]
            gp, gp2 = g(p), g(p * p)
            if not (0 <= gp2 <= gp < 1):
                violations.append(("monotone", p))
            if gp > Fraction(2, p):
                violations.append(("linear-decay", p))
            if gp2 > Fraction(4, p * p):
                violations.append(("quadratic-decay", p))
            acc += gp
            i += 1
        tail.append((cp, float(acc) - math.log(math.log(cp))))
    return GAxiomsReport(
        y=y, primes_checked=len(ps), violations=violations, mertens_tail=tail
    )
