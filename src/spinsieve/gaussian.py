"""Exact arithmetic in Z[i].

Norms, conjugation, primary normalization, primitivity, Gaussian gcd and
factorization, the representation d = r^2 + s^2 read off a root of
nu^2 + 1 = 0 (mod d) by the one scalar Cornacchia descent, two-squares
representations of primes (one at a time, or every prime of a window at
once as the lattice points its sieve mask keeps), the determinant
Delta(z1, z2) = Im conj(z1) z2, and rational residues z2/z1 mod m.

A Gaussian integer z = r + is is *odd* when its norm is odd, *primitive*
when gcd(r, s) = 1, and *primary* when r is odd and s = r - 1 (mod 4);
equivalently z = 1 (mod 2(1+i)).  Exactly one associate of any odd z is
primary, the only primary unit is 1, and products of primary numbers are
primary, which makes primary numbers canonical generators of odd ideals.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .arith import _prime_mask, factorize, is_prime, sqrt_mod

__all__ = [
    "GaussianInt",
    "ZERO",
    "ONE",
    "I",
    "conj",
    "up_to_norm",
    "up_to_norm_rows",
    "is_primary",
    "primary_associate",
    "is_primitive",
    "ggcd",
    "gaussian_factorize",
    "root_to_representation",
    "two_squares",
    "prime_points",
    "delta",
    "rational_residue",
    "gaussian_reps",
    "primary_reps",
]


@dataclass(frozen=True, order=True, slots=True)
class GaussianInt:
    re: int
    im: int

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self.re, -self.im)

    def conj(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self) -> str:
        return f"({self.re}{self.im:+}i)"


ZERO = GaussianInt(0, 0)
ONE = GaussianInt(1, 0)
I = GaussianInt(0, 1)

_UNITS = (ONE, I, -ONE, -I)


def conj(z: GaussianInt) -> GaussianInt:
    return z.conj()


def up_to_norm_rows(max_norm: int, min_norm: int = 1) -> np.ndarray:
    """The z of up_to_norm, in the same order, as int64 rows (Re z, Im z).
    Every enumeration of Gaussian integers by norm is a filter over these
    rows: the disk is laid out by re, then im, and a stable sort by norm
    leaves each norm in that order."""
    if max_norm < 1:
        return np.empty((0, 2), dtype=np.int64)
    m = math.isqrt(max_norm)
    r = np.arange(-m, m + 1, dtype=np.int64)
    h = _isqrt_vec(max_norm - r * r)  # the row of r holds |s| <= h
    width = 2 * h + 1
    rs = np.repeat(r, width)
    ss = np.arange(rs.size, dtype=np.int64) - np.repeat(np.cumsum(width) - width + h, width)
    n = rs * rs + ss * ss
    keep = np.flatnonzero(n >= max(min_norm, 1))
    order = keep[np.argsort(n[keep], kind="stable")]
    return np.stack((rs[order], ss[order]), axis=1)


def up_to_norm(max_norm: int, min_norm: int = 1) -> list[GaussianInt]:
    """All nonzero z with min_norm <= |z|^2 <= max_norm, ordered by
    (norm, re, im), read from up_to_norm_rows."""
    return [GaussianInt(r, s) for r, s in up_to_norm_rows(max_norm, min_norm).tolist()]


def is_primary(z: GaussianInt) -> bool:
    """True iff z = 1 (mod 2(1+i)): re odd and im = re - 1 (mod 4)."""
    return z.re % 2 == 1 and (z.im - z.re + 1) % 4 == 0


def primary_associate(z: GaussianInt) -> tuple[GaussianInt, GaussianInt]:
    """The unique primary associate of an odd z, with the unit that reaches it.

    Returns (w, u) with w = u*z primary and u in {1, i, -1, -i}.
    """
    if z.norm() % 2 == 0:
        raise ValueError("not odd")
    for u in _UNITS:
        w = u * z
        if is_primary(w):
            return w, u
    raise AssertionError("odd Gaussian integer with no primary associate")


def is_primitive(z: GaussianInt) -> bool:
    """True iff gcd(|re|, |im|) = 1."""
    return math.gcd(z.re, z.im) == 1


def _first_quadrant(z: GaussianInt) -> GaussianInt:
    # Associate with re > 0, im >= 0 (unique for z != 0).
    for u in _UNITS:
        w = u * z
        if w.re > 0 and w.im >= 0:
            return w
    raise AssertionError("no first-quadrant associate")


def _divmod_round(a: GaussianInt, b: GaussianInt) -> GaussianInt:
    # Remainder of a by b with both quotient coordinates rounded to nearest.
    nb = b.norm()
    t = a * b.conj()
    q = GaussianInt((2 * t.re + nb) // (2 * nb), (2 * t.im + nb) // (2 * nb))
    return a - q * b


def ggcd(z1: GaussianInt, z2: GaussianInt) -> GaussianInt:
    """Gaussian gcd, normalized to the primary associate when odd and to
    the representative with re > 0, im >= 0 otherwise."""
    if z1 == ZERO and z2 == ZERO:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = z1, z2
    while b != ZERO:
        a, b = b, _divmod_round(a, b)
    if a.norm() % 2 == 1:
        return primary_associate(a)[0]
    return _first_quadrant(a)


def root_to_representation(nu: int, d: int) -> tuple[int, int]:
    """The unique (r, s) with d = r^2 + s^2, (r, s) = 1, -s < r <= s and
    nu s = r (mod d), for nu a root of nu^2 + 1 = 0 (mod d)."""
    if d < 1:
        raise ValueError("d must be positive")
    nu %= d
    if (nu * nu + 1) % d:
        raise ValueError("nu is not a root of nu^2 + 1 mod d")
    if d == 1:
        return 0, 1
    # Cornacchia descent: the first Euclid remainder below sqrt(d) is a leg.
    a, b = d, nu
    while b * b > d:
        a, b = b, a % b
    leg1, leg2 = b, math.isqrt(d - b * b)
    if leg1 * leg1 + leg2 * leg2 != d or math.gcd(leg1, leg2) != 1:
        raise ValueError("no primitive representation")
    rabs, s = sorted((leg1, leg2))
    for r in (rabs, -rabs):
        if -s < r <= s and (nu * s - r) % d == 0:
            return r, s
    raise AssertionError(f"no sign assignment for root {nu} mod {d}")


def two_squares(p: int) -> tuple[int, int]:
    """The unique (r, s) with p = r^2 + s^2, r odd, r, s > 0, for p prime,
    p = 1 (mod 4): the legs of root_to_representation at a root of -1."""
    if p % 4 != 1 or not is_prime(p):
        raise ValueError("two_squares requires a prime p = 1 (mod 4)")
    r, s = root_to_representation(sqrt_mod(-1, p)[0], p)
    r = abs(r)
    return (r, s) if r % 2 else (s, r)


def _isqrt_vec(n: np.ndarray) -> np.ndarray:
    # floor(sqrt(n)) for 0 <= n < 2^53: the float root is off by at most one
    r = np.sqrt(n.astype(np.float64)).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r


# Lattice points that prime_points expands at a time: its int32 working
# arrays stay near 0.5 MB however wide the window.  2^15 was as fast as 2^14
# and 2^16 in sweeps to 1e7 and 1e8, and 2^16 added 1 MB to the peak RSS
# of a sweep to 1e7.
_POINT_CHUNK = 1 << 15


def prime_points(lo: int, hi: int, stats: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The legs (r, s) of every prime p = r^2 + s^2 = 1 (mod 4) in [lo, hi),
    with r odd and s even, both positive, as int64 arrays in lattice order
    (by r, then s).  two_squares(p) is the oracle.  Both sweeps read their
    Gaussian primes here: the spin sweep of eigen segment by segment, and
    the root sieve of sieve._RootSieve, which takes sqrt(-1) mod p as r/s.

    Such a prime has exactly one such point, and 2 has none, so the points
    of the annulus lo <= r^2 + s^2 < hi are expanded in int32 chunks of
    _POINT_CHUNK and kept where the window's sieve mask marks r^2 + s^2
    prime.  Every such r^2 + s^2 is 1 (mod 4), so the mask sieves only that
    class: a quarter of the window, read at (r^2 + s^2 - n0) >> 2 for the
    least n0 = 1 (mod 4) at or above lo.  hi above 2^31 - 1 raises
    ValueError, since int32 holds r^2 + s^2.  A stats dict, when given, has
    the seconds of the sieve (sieve_s) and of the walk (points_s) and the
    number of lattice_points walked added to its entries.
    """
    if hi > (1 << 31) - 1:
        raise ValueError("prime_points requires hi <= 2^31 - 1")
    lo = max(lo, 2)
    if hi <= lo:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    t0 = time.perf_counter()
    mask = _prime_mask(lo, hi, 4)
    n0 = lo + (1 - lo) % 4
    t1 = time.perf_counter()
    # the even s of odd r run from s_lo (least s >= 2 with r^2 + s^2 >= lo)
    # to s_hi (greatest s with r^2 + s^2 < hi)
    r = np.arange(1, math.isqrt(hi - 1) + 1, 2, dtype=np.int64)
    s_hi = _isqrt_vec(hi - 1 - r * r)
    s_hi -= s_hi & 1
    s_lo = _isqrt_vec(np.maximum(lo - 1 - r * r, 3)) + 1
    s_lo += s_lo & 1
    count = np.maximum((s_hi - s_lo) // 2 + 1, 0)
    # point i of the flat enumeration lies on the row of r with
    # start <= i < end, at s = s_lo + 2 (i - start)
    end = np.cumsum(count)
    start = end - count
    s0 = (s_lo - 2 * start).astype(np.int32)
    r = r.astype(np.int32)
    rs, ss = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.int32)]
    total = int(end[-1])
    for i0 in range(0, total, _POINT_CHUNK):
        i1 = min(i0 + _POINT_CHUNK, total)
        a, b = np.searchsorted(end, [i0, i1 - 1], side="right").tolist()
        rows = slice(a, b + 1)
        k = np.minimum(end[rows], i1) - np.maximum(start[rows], i0)
        cr = np.repeat(r[rows], k)
        cs = np.repeat(s0[rows], k)
        cs += 2 * np.arange(i0, i1, dtype=np.int32)
        n = cr * cr + cs * cs
        n -= n0
        n >>= 2
        keep = mask[n]
        rs.append(cr[keep])
        ss.append(cs[keep])
    if stats is not None:
        for key, value in (("sieve_s", t1 - t0), ("points_s", time.perf_counter() - t1),
                           ("lattice_points", total)):
            stats[key] = stats.get(key, 0) + value
    return np.concatenate(rs).astype(np.int64), np.concatenate(ss).astype(np.int64)


def gaussian_reps(n: int) -> list[GaussianInt]:
    """All w in Z[i] with |w|^2 = n, by direct scan (oracle-grade)."""
    out = []
    for u in range(-math.isqrt(n), math.isqrt(n) + 1):
        v2 = n - u * u
        v = math.isqrt(v2)
        if v * v == v2:
            out.append(GaussianInt(u, v))
            if v:
                out.append(GaussianInt(u, -v))
    return sorted(out)


def primary_reps(n: int) -> list[GaussianInt]:
    """All primary z with norm n, enumerated through the factorization of n.

    Empty unless n is odd and every prime q = 3 (mod 4) divides n to an
    even power.  The list has prod (e_p + 1) entries over p = 1 (mod 4).
    """
    if n < 1:
        raise ValueError("primary_reps requires n >= 1")
    if n % 2 == 0:
        return []
    reps = [ONE]
    for p, e in factorize(n).factors:
        if p % 4 == 3:
            if e % 2 == 1:
                return []
            q = GaussianInt(-p, 0)  # -p is the primary associate of p
            reps = [z * _power(q, e // 2) for z in reps]
        else:
            r, s = two_squares(p)
            pi = primary_associate(GaussianInt(r, s))[0]
            pibar = pi.conj()
            reps = [
                z * _power(pi, j) * _power(pibar, e - j)
                for z in reps
                for j in range(e + 1)
            ]
    return sorted(set(reps))


def _power(z: GaussianInt, e: int) -> GaussianInt:
    w = ONE
    for _ in range(e):
        w = w * z
    return w


def gaussian_factorize(z: GaussianInt) -> list[tuple[GaussianInt, int]]:
    """Factor a primary z into primary Gaussian primes.

    Returns [(pi, e), ...] with every pi primary and prime in Z[i], sorted
    by (norm, re, im); the product of pi^e equals z exactly because both
    sides are primary generators of the same ideal.
    """
    if not is_primary(z):
        raise ValueError("gaussian_factorize requires a primary argument")
    out: list[tuple[GaussianInt, int]] = []
    rest = z
    for p, e in factorize(z.norm()).factors:
        if p % 4 == 3:
            pi = GaussianInt(-p, 0)  # the primary associate of p
            assert e % 2 == 0
            out.append((pi, e // 2))
            for _ in range(e // 2):
                rest = _exact_div(rest, pi)
        else:
            r, s = two_squares(p)
            pi = primary_associate(GaussianInt(r, s))[0]
            e1 = 0
            while True:
                q = _try_div(rest, pi)
                if q is None:
                    break
                rest = q
                e1 += 1
            if e1:
                out.append((pi, e1))
            if e - e1:
                pibar = pi.conj()
                out.append((pibar, e - e1))
                for _ in range(e - e1):
                    rest = _exact_div(rest, pibar)
    assert rest == ONE, "factorization did not exhaust the argument"
    return sorted(out, key=lambda t: (t[0].norm(), t[0].re, t[0].im))


def _try_div(a: GaussianInt, b: GaussianInt) -> GaussianInt | None:
    nb = b.norm()
    t = a * b.conj()
    if t.re % nb or t.im % nb:
        return None
    return GaussianInt(t.re // nb, t.im // nb)


def _exact_div(a: GaussianInt, b: GaussianInt) -> GaussianInt:
    q = _try_div(a, b)
    if q is None:
        raise ArithmeticError("non-exact Gaussian division")
    return q


def delta(z1: GaussianInt, z2: GaussianInt) -> int:
    """Determinant Im conj(z1) z2 = r1 s2 - r2 s1."""
    return z1.re * z2.im - z2.re * z1.im


def rational_residue(z1: GaussianInt, z2: GaussianInt, m: int) -> int:
    """The t mod m with z2 = t z1 (mod m) componentwise.

    Exists iff m divides delta(z1, z2); requires gcd(|z1|^2, m) = 1.  The
    result is re-verified componentwise before returning.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    n1 = z1.norm()
    if math.gcd(n1, m) != 1:
        raise ValueError("non-invertible")
    t = (z1.re * z2.re + z1.im * z2.im) * pow(n1, -1, m) % m
    if (z2.re - t * z1.re) % m or (z2.im - t * z1.im) % m:
        raise ValueError("z2/z1 is not rational modulo m")
    return t
