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
A split p is r^2 + s^2 at its Gaussian prime point (gaussian.prime_points),
and nu = r/s (mod p) there.  p = 2 is a wheel, so each line is sieved on
its odd values alone, in one buffer that every line reuses.

Counts are exact integers; densities are exact rationals; only the final
Lambda-weighted sums are floating point (deterministic block order).
remainder_scan and theorem1_walk build the rows of their CLI reports: one
dict of report columns per modulus or checkpoint, which the report holds
as built.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import _smallest_prime_factors, bezout_vec, chi4, factorize, primes_up_to
from .congruences import rho_b, _roots_neg_square, _rho_prime_power
from .gaussian import gaussian_reps, prime_points

__all__ = [
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
    "theorem1_walk",
    "theorem1_experiment",
    "factorization_identity_check",
    "g_axioms_report",
]


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
    f = factorize(d)
    total = 0
    c = 0
    while c**4 <= x:
        L = math.isqrt(x - c**4)
        w = 1 if c == 0 else 2
        for alpha in _roots_neg_square(c * c, f):
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
    f = factorize(d)
    total = rho_b(0, f) * 2 * math.isqrt(x)  # b = 0 line, a != 0
    c = 1
    while c**4 <= x:
        total += 2 * rho_b(c * c, f) * (2 * math.isqrt(x - c**4) + 1)
        c += 1
    return Fraction(total, d)


def g(d: int) -> Fraction:
    """Density of the sieve: multiplicative on cubefree d, with
    g(p) p = 1 + chi4(p)(1 - 1/p), g(p^2) p^2 = 1 + rho(p)(1 - 1/p),
    except g(4) = 1/4."""
    factors = factorize(d).factors if d >= 1 else ()
    if d < 1 or any(e > 2 for _, e in factors):
        raise ValueError("g is defined on cubefree d")
    out = Fraction(1)
    for p, e in factors:
        if p == 2 and e == 2:
            out *= Fraction(1, 4)
        elif e == 1:
            out *= (1 + Fraction(chi4(p)) * (1 - Fraction(1, p))) / p
        else:
            out *= (1 + _rho_prime_power(p, 1) * (1 - Fraction(1, p))) / p**2
    return out


def h(d: int) -> Fraction:
    """Error-weight companion: h(p) p = 1 + 2 rho(p), h(p^2) p^2 = p + 2 rho(p)."""
    factors = factorize(d).factors if d >= 1 else ()
    if d < 1 or any(e > 2 for _, e in factors):
        raise ValueError("h is defined on cubefree d")
    out = Fraction(1)
    for p, e in factors:
        rho_p = _rho_prime_power(p, 1)
        if e == 1:
            out *= Fraction(1 + 2 * rho_p, p)
        else:
            out *= Fraction(p + 2 * rho_p, p * p)
    return out


# The largest a_n the int8 array holds: _an_array raises before an entry
# could pass it.  At the x cap of 1e8 no a_n exceeds 20.
_AN_MAX = int(np.iinfo(np.int8).max)


def _an_array(x: int) -> np.ndarray:
    # an[n] = a_n for 0 <= n <= x in int8, added one c-line at a time: on a
    # line n = a^2 + c^4 is distinct for each a >= 0, so one indexed add
    # counts every pair of the line once.
    an = np.zeros(x + 1, dtype=np.int8)
    c = 0
    while c**4 <= x:
        c4 = c**4
        a = np.arange(0 if c else 1, math.isqrt(x - c4) + 1, dtype=np.int64)
        n = a * a + c4
        rep = 2 if c else 1  # c of both signs
        step = np.full(n.size, 2 * rep, dtype=np.int8)  # a of both signs
        if c:
            step[0] = rep  # a = 0
        cur = an[n]
        if (cur > _AN_MAX - step).any():
            raise OverflowError(f"a_n passes {_AN_MAX} on the line c = {c}")
        an[n] = cur + step
        c += 1
    return an


def _cubefree_tables(D: int) -> tuple[np.ndarray, ...]:
    # The cubefree d <= D ascending, and over 0..D, at those d: rho(d), the
    # d2 of d = d1 d2^2 (d1 squarefree), rad(d), and the numerator N(d) of
    # g(d) = N(d) / (d rad d).  Read prime by prime off one smallest-prime-
    # factor sieve; the local values come from the scalar rules of rho and g.
    spf = _smallest_prime_factors(D)
    primes = np.flatnonzero(spf == np.arange(D + 1))[2:]
    cubefree = np.ones(D + 1, dtype=bool)
    cubefree[0] = False
    for p in primes[primes**3 <= D].tolist():
        cubefree[p**3 :: p**3] = False
    ds = np.flatnonzero(cubefree)
    # local tables at each prime p, for p || d and p^2 || d
    rho1 = np.zeros(D + 1, dtype=np.int64)
    rho2 = np.zeros(D + 1, dtype=np.int64)
    num1 = np.zeros(D + 1, dtype=np.int64)
    num2 = np.zeros(D + 1, dtype=np.int64)
    plist = primes.tolist()
    rho1[primes] = [_rho_prime_power(p, 1) for p in plist]
    num1[primes] = [p + chi4(p) * (p - 1) for p in plist]
    sq = primes[primes * primes <= D]
    rho2[sq] = [_rho_prime_power(p, 2) for p in sq.tolist()]
    num2[sq] = [2 if p == 2 else p + _rho_prime_power(p, 1) * (p - 1) for p in sq.tolist()]
    rho, d2, rad, num = (np.ones(ds.size, dtype=np.int64) for _ in range(4))
    rem = ds.copy()
    live = np.flatnonzero(rem > 1)
    while live.size:
        r = rem[live]
        p = spf[r].astype(np.int64)
        r //= p
        twice = r % p == 0  # p^2 || d, since d is cubefree
        r[twice] //= p[twice]
        rem[live] = r
        rho[live] *= np.where(twice, rho2[p], rho1[p])
        num[live] *= np.where(twice, num2[p], num1[p])
        d2[live] *= np.where(twice, p, 1)
        rad[live] *= p
        live = live[r > 1]
    out = []
    for t in (rho, d2, rad, num):
        full = np.zeros(D + 1, dtype=np.int64)
        full[ds] = t
        out.append(full)
    return (ds, *out)


# Moduli per block of the (moduli x c) grid of the main terms; the grid's
# memory is bounded by one block, whatever D is.
_ROW_CHUNK = 4096


def remainder_scan(x: int, D: int, timing: bool = False) -> tuple[list[dict], dict]:
    """The report rows {d, A_d, M_d, g_d, r_d} of every cubefree d <= D,
    r_d = A_d(x) - g(d) A(x), plus a summary with sum |r_d| and its ratio
    against D^(1/4) x^(9/16).

    A_d sums the int8 array of a_n over the multiples of d; M_d and g(d)
    come from tables of rho, d2, rad and N over d <= D, with

        d M_d = d2 2 [sqrt x] + 2 sum_c rho_b(c^2, d) (2 [sqrt(x - c^4)] + 1),
        rho_b(c^2, d) = (c^2, d2) rho(d / (c^4, d)) = (c^2, d2) rho(d / (c^2, d)),

    for cubefree d, over the (moduli x c) grid a block of moduli at a time.
    The A_d column is summed first and the O(x) a_n array released before
    the rows are built.  g_d = N / (d rad d) and r_d are int true divisions,
    each the exact rational rounded once, as float(Fraction) rounds it.
    A_d, M_d_exact and g are the per-modulus oracles.  timing adds the
    seconds of each stage (a_n, tables, rows) to the summary."""
    if x < 1 or D < 1:
        raise ValueError("x and D must be positive")
    if x > 10**8:
        raise ValueError("x capped at 1e8")
    if D > x:
        raise ValueError("D must be at most x")
    if D > 10**6:  # the rows are held in memory
        raise ValueError("D capped at 1e6")
    t0 = time.perf_counter()
    an = _an_array(x)
    Ax = int(an[1:].sum())
    t1 = time.perf_counter()
    ds, rho, d2, rad, num = _cubefree_tables(D)
    t2 = time.perf_counter()
    Ad = np.fromiter((an[d::d].sum() for d in ds.tolist()), dtype=np.int64, count=ds.size)
    del an
    root = math.isqrt(x)
    c = np.arange(1, math.isqrt(root) + 1, dtype=np.int64)  # c^4 <= x
    c2 = c * c
    w = np.array([2 * math.isqrt(x - v * v) + 1 for v in c2.tolist()], dtype=np.int64)
    rows = []
    for lo in range(0, ds.size, _ROW_CHUNK):
        dd = ds[lo : lo + _ROW_CHUNK]
        col = dd[:, None]
        # (c^4, d) = (c^2, d) on cubefree d, and the smaller gcd is the faster
        rb = np.gcd(c2, d2[col]) * rho[col // np.gcd(c2, col)]
        totals = 2 * root * d2[dd] + 2 * (rb @ w)  # d M_d
        dr = dd * rad[dd]  # d rad d, the denominator of g(d)
        rows += (
            {"d": d, "A_d": a, "M_d": t / d, "g_d": n / q, "r_d": (a * q - n * Ax) / q}
            for d, a, t, n, q in zip(
                dd.tolist(), Ad[lo : lo + _ROW_CHUNK].tolist(), totals.tolist(),
                num[dd].tolist(), dr.tolist()
            )
        )
    t3 = time.perf_counter()
    total = math.fsum(abs(r["r_d"]) for r in rows)
    summary = {
        "x": x,
        "D": D,
        "A_x": Ax,
        "moduli": len(rows),
        "sum_abs_r": total,
        "bound_ratio": total / (D**0.25 * x**0.5625),
    }
    if timing:
        summary.update(a_n_s=t1 - t0, tables_s=t2 - t1, rows_s=t3 - t2)
    return rows, summary


# Gauss-Legendre nodes of kappa: the integrand is smooth on the closed
# interval, so the rule converges geometrically and 48 nodes reach rounding.
_KAPPA_NODES = 48


def kappa() -> float:
    """Quadrature value of int_0^1 sqrt(1 - t^4) dt: the substitution
    t = sin u removes the endpoint cusp, and the smooth integrand
    cos^2 u sqrt(1 + sin^2 u) on [0, pi/2] takes a fixed Gauss-Legendre
    rule.  kappa_closed_form is its independent oracle."""
    x, w = np.polynomial.legendre.leggauss(_KAPPA_NODES)
    u = 0.25 * math.pi * (x + 1.0)
    return float(0.25 * math.pi * np.dot(w, np.cos(u) ** 2 * np.sqrt(1.0 + np.sin(u) ** 2)))


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
    # Prime powers p^k <= x with k >= 2, ascending, with their log p weights;
    # primes holds every prime <= sqrt(x).  The squares come as one array,
    # and each further exponent multiplies only the powers that stay <= x.
    # The weights are math.log's: np.log differs from it in the last bit at
    # some primes, and observed sums them.
    logs = np.fromiter(map(math.log, primes.tolist()), dtype=np.float64, count=len(primes))
    vals, at = [primes * primes], [np.arange(len(primes))]
    while (more := vals[-1] <= x // primes[at[-1]]).any():  # p^(k+1) <= x
        vals.append(vals[-1][more] * primes[at[-1][more]])
        at.append(at[-1][more])
    vals, at = np.concatenate(vals), np.concatenate(at)
    order = np.argsort(vals, kind="stable")
    return vals[order], logs[at[order]]


def _is_square(v: np.ndarray) -> np.ndarray:
    # v >= 0 below 2^53: float64 holds v exactly and rounds sqrt(v) correctly,
    # so s = int(sqrt(v)) is exact at a square, and s * s == v only there
    s = np.sqrt(v.astype(np.float64)).astype(np.int64)
    return s * s == v


# A residue class whose prime p has at least this many members on a
# half-line is marked with a strided slice; the sparser classes are marked
# together, one member of each per round.
_SLICE_MIN_HITS = 32


class _RootSieve:
    """Which n = a^2 + b^4 <= x are prime, along each line 1 <= a <= amax.

    A prime p divides a^2 + b^4 exactly when a^2 = -b^4 (mod p):
      p = 2:           a = b (mod 2);
      p = 1 (mod 4):   a = +-nu_p b^2 (mod p), where nu_p^2 = -1 (mod p);
      p = 3 (mod 4):   p | b and p | a.
    These are the rho(p) = 1 + chi4(p) roots the paper sieves with.  The
    split p = r^2 + s^2 come from gaussian.prime_points, and nu_p is the
    lesser of +-r/s (mod p).  p = 2 is a wheel: a line is sieved only on its
    odd values, a = a0 + 2j with a0 = 1 + (b mod 2), where the class
    a = k (mod p) of an odd p is j = (k - a0)(p + 1)/2 (mod p).  The one
    even prime, 2 = 1^2 + 1^4, is added back on the line b = 1.  A value
    above sqrt(x) is prime iff no prime p <= sqrt(x) divides it; values up
    to sqrt(x) are read from a prime table.  One bool buffer, sized for the
    longest half-line plus a slack of sqrt(x), is allocated here and reused
    by every line, so memory is O(sqrt(x)).
    """

    def __init__(self, x: int, primes: np.ndarray):
        # primes: every prime <= sqrt(x), ascending
        self.root = math.isqrt(x)
        self.table = np.zeros(self.root + 1, dtype=bool)
        self.table[primes] = True
        # r^2 = -s^2 (mod p) makes (r/s)^2 = -1
        r, s = prime_points(5, self.root + 1)
        p = r * r + s * s
        order = np.argsort(p)
        self.split, r, s = p[order], r[order], s[order]
        nu = r * bezout_vec(s, self.split)[0] % self.split  # |r s^-1| < p^2 <= x
        self.nu = np.minimum(nu, self.split - nu)
        self.half = (self.split + 1) // 2  # 1/2 mod p
        self.nu_half = self.nu * self.half % self.split
        self.ps = np.repeat(self.split, 2)  # the classes +-nu b^2 of each split p
        self.inert = primes[primes % 4 == 3]
        # The half-lines of b = 1 and b = 2 are the longest two.  A sparse
        # class may step up to p past the end of its line, into the slack.
        self.buf = np.empty((math.isqrt(max(x - 1, 0)) + 1) // 2 + self.root, dtype=bool)

    def line(self, b: int, amax: int) -> np.ndarray:
        """a - 1, ascending, at every prime a^2 + b^4 with 1 <= a <= amax."""
        a0 = 1 + b % 2
        n = (amax - a0) // 2 + 1  # the half-line a = a0 + 2j, 0 <= j < n
        live = self.buf[:n]
        live.fill(True)
        for p in self.inert[b % self.inert == 0].tolist():
            live[-a0 * ((p + 1) // 2) % p :: p] = False
        # j = (+-nu b^2 - a0) / 2 (mod p); nu/2 b^2 < p b^2 <= x stays exact
        split, ps = self.split, self.ps
        t = self.nu_half * (b * b) % split
        shift = self.half if a0 == 1 else 1
        js = np.stack(((t - shift) % split, (-t - shift) % split), axis=1).ravel()
        dense = int(np.searchsorted(ps, n // _SLICE_MIN_HITS, side="right"))
        for p, j in zip(ps[:dense].tolist(), js[:dense].tolist()):
            live[j::p] = False
        # The sparse classes, p ascending, a round per member: round r marks
        # j + r p for the prefix of classes with r p < n, so a mark lands
        # below n + p, on the line or in the slack.
        ps, js = ps[dense:], js[dense:]
        self.buf[js] = False
        for m in np.searchsorted(ps, -(-n // np.arange(1, _SLICE_MIN_HITS))).tolist():
            if not m:
                break
            js[:m] += ps[:m]
            self.buf[js[:m]] = False
        b4 = b**4
        if b4 < self.root:
            a = np.arange(a0, math.isqrt(self.root - b4) + 1, 2, dtype=np.int64)
            live[: a.size] = self.table[a * a + b4]
        at = np.flatnonzero(live)
        at *= 2
        at += a0 - 1
        return np.concatenate(([0], at)) if b == 1 else at


def theorem1_walk(xs: Iterable[int], stats: dict | None = None) -> Iterator[dict]:
    """One report row {x, observed, predicted, ratio, pair_count} per x of
    the ascending xs: the observed sum of Lambda(a^2 + b^4) over positive
    a, b (pairs counted with multiplicity, prime powers included) against
    (4/pi) kappa x^(3/4), and the number of pairs.  The whole list is
    checked before any table is built.

    One sweep over the b-lines of the largest x, X, serves every x.  The
    prime values come from the root sieve of _RootSieve over the primes
    <= sqrt(X), with no primality test per value, and the prime powers p^k,
    k >= 2, from a table of them: p^k lies on the line b when p^k - b^4 is
    a square, which _is_square tests in float64, exact below 2^53.  A
    smaller x reads the prefix a <= sqrt(x - b^4) of each line.  Each row
    is yielded as soon as the sweep passes its x.  Memory is O(sqrt(X)).
    A stats dict, when given, receives once the walk ends the seconds of
    each stage (sieve_setup_s, line_sieve_s, log_sums_s, prime_powers_s)
    and the counts of lines, prime_values and prime_powers on the lines
    of X."""
    xs = list(xs)
    if not xs:
        return
    if any(b < a for a, b in zip(xs, xs[1:])):
        raise ValueError("checkpoints must ascend")
    if xs[0] < 1:
        raise ValueError("x must be positive")
    if xs[-1] > 10**11:
        raise ValueError("x capped at 1e11")
    clock = time.perf_counter
    t0 = clock()
    X = xs[-1]
    primes = primes_up_to(math.isqrt(X))
    pp, pp_logs = _prime_power_table(X, primes)
    root_sieve = _RootSieve(X, primes)
    a2 = np.arange(1, math.isqrt(X - 1) + 1, dtype=np.int64) ** 2  # the line b = 1, the longest
    setup_s = clock() - t0
    line_s = logs_s = powers_s = 0.0
    prime_values = prime_powers = 0
    # Each x sums its lines in blocks of bmax(x) // 8 + 1 lines, a line as its
    # log-sum then its prime-power sum, and fsum adds the blocks: this order
    # fixes the last digits of observed.
    block = [math.isqrt(math.isqrt(x)) // 8 + 1 for x in xs]
    parts: list[list[float]] = [[] for _ in xs]
    pairs = [0] * len(xs)
    done = 0  # xs[:done] are reported
    for b in itertools.count(1):
        b4 = b**4
        while done < len(xs) and b4 >= xs[done]:
            x, observed = xs[done], math.fsum(parts[done])
            predicted = 4.0 / math.pi * kappa_closed_form() * x**0.75
            yield {"x": x, "observed": observed, "predicted": predicted,
                   "ratio": observed / predicted, "pair_count": pairs[done]}
            done += 1
        if done == len(xs):
            if stats is not None:
                stats.update(sieve_setup_s=setup_s, line_sieve_s=line_s, log_sums_s=logs_s,
                             prime_powers_s=powers_s, lines=b - 1,
                             prime_values=prime_values, prime_powers=prime_powers)
            return
        amax = math.isqrt(X - b4)
        t0 = clock()
        at = root_sieve.line(b, amax)  # a - 1 at the prime values
        t1 = clock()
        logs = np.log((a2[at] + b4).astype(np.float64))
        t2 = clock()
        # the prime powers in (b^4, amax^2 + b^4] that lie on the line
        lo, hi = np.searchsorted(pp, [b4, amax * amax + b4], side="right")
        on = _is_square(pp[lo:hi] - b4)
        pp_on, pp_on_logs = pp[lo:hi][on], pp_logs[lo:hi][on]
        t3 = clock()
        for i, x in enumerate(xs[done:], done):
            ax = math.isqrt(x - b4)
            k = np.searchsorted(at, ax)  # the prime values with a <= ax
            j = np.searchsorted(pp_on, x, side="right")  # the prime powers <= x
            if (b - 1) // block[i] == len(parts[i]):
                parts[i].append(0.0)
            parts[i][-1] += float(logs[:k].sum())
            parts[i][-1] += float(pp_on_logs[:j].sum())
            pairs[i] += ax
        line_s += t1 - t0
        logs_s += t2 - t1 + clock() - t3
        powers_s += t3 - t2
        prime_values += at.size
        prime_powers += pp_on.size


def theorem1_experiment(x: int) -> dict:
    """The row of the one-checkpoint theorem1_walk."""
    (row,) = theorem1_walk([x])
    return row


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
