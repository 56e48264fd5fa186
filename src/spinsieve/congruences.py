"""Quadratic-congruence counting kernels.

Roots of nu^2 + 1 = 0 (mod d), whose repulsion root_spacing_check scans
through gaussian.root_to_representation, the multiplicative root-counting
functions rho, the square-root counts n(a; b), the pair counts
N(a; q) = #{a g1^2 = g2^2 (mod q)} with their closed forms, the
exponential sums G(h1, h2) on the determinant modulus, and the
zero-frequency density G0 with its divisor-sum closed form

    G0(z1, z2) = 2 sum_{4d | Delta} phi(d)/d (z2/z1 / d),

valid when z1, z2 are odd, primitive, mutually coprime and congruent
mod 8.  Every closed form here is paired with a brute-force enumeration;
the brute routes never share code with the formula routes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import (
    Factorization,
    bezout_vec,
    chi4,
    factorize,
    jacobi,
    jacobi_vec,
    sqrt_mod,
)
from .gaussian import (
    GaussianInt,
    delta,
    ggcd,
    is_primitive,
    rational_residue,
    root_to_representation,
)

__all__ = [
    "RootSet",
    "roots_minus_one",
    "rho",
    "rho_b",
    "rho_exp",
    "rho_exp_reduced",
    "n_sqrt",
    "N_brute",
    "N_formula",
    "N_local",
    "N2_brute",
    "G_sum",
    "G0_brute",
    "G0_formula",
    "SpacingReport",
    "root_spacing_check",
]


@dataclass(frozen=True)
class RootSet:
    """Sorted residues nu mod d with nu^2 + 1 = 0 (mod d)."""

    d: int
    roots: tuple[int, ...]

    def __post_init__(self):
        for nu in self.roots:
            if not 0 <= nu < self.d or (nu * nu + 1) % self.d:
                raise ValueError("not a root set")


def _crt_roots(parts: list[tuple[int, list[int]]]) -> list[int]:
    # parts = [(modulus, residues), ...] with pairwise coprime moduli.
    res = [0]
    mod = 1
    for m, roots in parts:
        inv = pow(mod % m, -1, m) if m > 1 else 0
        res = [x + mod * ((r - x) * inv % m) for x in res for r in roots]
        mod *= m
    return sorted(r % mod for r in res)


def _roots_neg_square(ell: int, d: int | Factorization) -> list[int]:
    # All nu mod d with nu^2 + ell^2 = 0 (mod d), read from one factorization
    # of d, which the caller may pass in place of d.
    f = d if isinstance(d, Factorization) else factorize(d)
    parts = []
    for p, e in f.factors:
        sols = sqrt_mod(-ell * ell, p, e)
        if not sols:
            return []
        parts.append((p**e, sols))
    return _crt_roots(parts)


def roots_minus_one(d: int) -> RootSet:
    """The complete root set of nu^2 + 1 = 0 (mod d)."""
    if d < 1:
        raise ValueError("d must be positive")
    return RootSet(d, tuple(_roots_neg_square(1, d)))


def _rho_prime_power(p: int, a: int) -> int:
    # rho(p^a) for p prime: the one home of the local rule of rho
    if a == 0:
        return 1
    if p == 2:
        return 1 if a == 1 else 0
    return 1 + chi4(p)


def rho(d: int) -> int:
    """Number of roots of nu^2 + 1 mod d: multiplicative, rho(p^a) = 1 + chi4(p)
    except rho(2^a) = 0 for a >= 2."""
    return rho_b(1, d)


def rho_b(b: int, d: int | Factorization) -> int:
    """#{alpha mod d : alpha^2 + b^2 = 0 (mod d)} = (b, d2) rho(d/(b^2, d)),
    d = d1 d2^2 with d1 squarefree, read prime by prime from one
    factorization of d, which the caller may pass in place of d."""
    f = d if isinstance(d, Factorization) else factorize(d)
    out = 1
    for p, e in f.factors:
        k, bb = 0, b * b  # p^k is the p-part of (b^2, d)
        while k < e and bb % p == 0:
            bb //= p
            k += 1
        # the p-part of (b, d2) is p^(k // 2), that of d/(b^2, d) is p^(e - k)
        out *= p ** (k // 2) * _rho_prime_power(p, e - k)
        if out == 0:
            return 0
    return out


def rho_exp(k: int, ell: int, d: int) -> complex:
    """sum over roots of nu^2 + ell^2 = 0 (mod d) of e(nu k / d)."""
    if d < 1:
        raise ValueError("d must be positive")
    return sum(
        cmath.exp(2j * cmath.pi * nu * (k % d) / d) for nu in _roots_neg_square(ell, d)
    )


def rho_exp_reduced(k: int, ell: int, d: int) -> complex:
    """rho(k, ell; d) through the reduction to lower entry one.

    Writing (d, ell^2) = gamma delta^2 with gamma squarefree, d = gamma
    delta^2 d' and ell = gamma delta ell', the sum equals
    delta * rho(k' ell', 1; d') when delta | k (k = delta k') and vanishes
    otherwise.  Requires ell >= 1.
    """
    if ell < 1:
        raise ValueError("reduction requires ell >= 1")
    g = math.gcd(d, ell * ell)
    gamma, delta_ = 1, 1
    for p, e in factorize(g).factors:
        gamma *= p ** (e % 2)
        delta_ *= p ** (e // 2)
    dprime = d // g
    ellprime = ell // (gamma * delta_)
    if k % delta_:
        return 0j
    return delta_ * rho_exp(k // delta_ * ellprime, 1, dprime)


def n_sqrt(a: int, b: int) -> int:
    """#{omega mod b : omega^2 = a (mod b)}."""
    if b < 1:
        raise ValueError("b must be positive")
    count = 1
    for p, e in factorize(b).factors:
        count *= len(sqrt_mod(a, p, e))
        if count == 0:
            return 0
    return count


def N_brute(a: int, q: int) -> int:
    """#{(g1, g2) mod q : a g1^2 = g2^2 (mod q)} by direct counting."""
    if q < 1:
        raise ValueError("q must be positive")
    return int(_n_brute_counts(q, [a % q])[0])


def _n_brute_counts(q: int, avals) -> np.ndarray:
    # N_brute for each a of avals: every a counted in one pass against the
    # square classes of q and their multiplicities.
    us, uc, sq = _square_classes(q)
    a = np.asarray(avals, dtype=np.int64).reshape(-1, 1) % q
    return sq[a * us % q] @ uc


def _divisors_phi(f: Factorization) -> list[tuple[int, int]]:
    # (d, phi(d)) for every divisor d of f.n, read off its one factorization
    divs = [(1, 1)]
    for p, e in f.factors:
        pk, phis = 1, [1]
        for _ in range(e):
            phis.append((p - 1) * pk)
            pk *= p
        divs = [(d * p**k, ph * phis[k]) for d, ph in divs for k in range(e + 1)]
    return divs


def N_formula(a: int, q: int) -> int:
    """Closed form N(a; q) = q sum_{d|q} phi(d)/d (a/d) for q odd, (a, q) = 1."""
    if q < 1 or q % 2 == 0 or math.gcd(a, q) != 1:
        raise ValueError("outside the closed form's domain: need q odd, (a, q) = 1")
    return _n_closed_forms(q, [a % q])[0]


def _n_closed_forms(q: int, avals) -> list[int]:
    # N_formula for each a of avals; the caller has checked the domain.  q is
    # factorized and its divisor table built once, and every symbol (a/d),
    # each a against each divisor d, comes from one jacobi_vec call.
    divs = _divisors_phi(factorize(q))
    d = np.array([d for d, _ in divs], dtype=np.int64)
    # q phi(d)/d = (q/d) phi(d) is an integer for every d | q
    weight = np.array([(q // d) * ph for d, ph in divs], dtype=np.int64)
    return (jacobi_vec(np.asarray(avals, dtype=np.int64)[:, None], d) @ weight).tolist()


def N_local(a: int, p: int, nu: int) -> Fraction:
    """Exact local density p^-nu N(a; p^nu).

    For p odd and (a, p) = 1 this is 1 + (1 - 1/p)([nu/2] + [(nu+1)/2](a/p));
    for p = 2 and a = 1 (mod 8) it equals nu.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if p == 2:
        if a % 8 != 1:
            raise ValueError("p = 2 requires a = 1 (mod 8)")
        return Fraction(nu)
    if math.gcd(a, p) != 1:
        raise ValueError("odd p requires (a, p) = 1")
    return 1 + Fraction(p - 1, p) * (nu // 2 + (nu + 1) // 2 * jacobi(a % p, p))


def N2_brute(a: int, b: int, q: int) -> int:
    """#{(g1, g2) mod q : a g1^2 = b g2^2 (mod q)}."""
    if q < 1:
        raise ValueError("q must be positive")
    # ca[x] = #{g : a g^2 = x (mod q)}, cb likewise; N2 = sum_x ca[x] cb[x]
    us, uc, _ = _square_classes(q)
    ca, cb = np.zeros(q, dtype=np.int64), np.zeros(q, dtype=np.int64)
    np.add.at(ca, us * (a % q) % q, uc)
    np.add.at(cb, us * (b % q) % q, uc)
    return int(ca @ cb)


_G_SUM_CAP = 4096


def G_sum(h1: int, h2: int, z1: GaussianInt, z2: GaussianInt) -> complex:
    """G(h1, h2) = |D|^-1 sum over congruence pairs of e((g1 h1 + g2 h2)/|D|).

    The pairs (g1, g2) mod |D| satisfy g1^2 z2 = g2^2 z1 (mod |D|) with
    D the determinant; the Gaussian congruence collapses to the rational
    one through the residue t = z2/z1 mod |D|.  Enumeration is O(|D|^2),
    an oracle-grade path, so |D| is capped at 4096.
    """
    q = abs(delta(z1, z2))
    if q == 0:
        raise ValueError("determinant vanishes")
    if q > _G_SUM_CAP:
        raise ValueError(f"G_sum enumeration capped at |Delta| <= {_G_SUM_CAP}")
    t = rational_residue(z1, z2, q)
    g = np.arange(q, dtype=np.int64)
    sq = (g * g) % q
    pairs = (t * sq[:, None] - sq[None, :]) % q == 0
    ph1 = np.exp(2j * np.pi * h1 * g / q)
    ph2 = np.exp(2j * np.pi * h2 * g / q)
    return complex(ph1 @ pairs @ ph2) / q


@lru_cache(maxsize=4096)
def _square_classes(q: int):
    # The squares mod q: their distinct classes us, the multiplicity uc of
    # each, and sq[x] = #{g mod q : g^2 = x (mod q)} over all x < q, in the
    # least unsigned dtype that holds q, since no entry exceeds q and the
    # dense table is the large one: uint16 below 2^16 halves the cache of a
    # g0 sweep at bound 10^4 (about 1,200 moduli) from 33 to 21 MB.  The
    # arrays are shared through the cache, so they are read-only.
    g = np.arange(q, dtype=np.int64)
    sq = np.bincount(g * g % q, minlength=q).astype(np.min_scalar_type(q))
    us = np.flatnonzero(sq)
    uc = sq[us].astype(np.int64)
    for a in (us, uc, sq):
        a.flags.writeable = False
    return us, uc, sq


# Coordinates of absolute value below this stay int64: a sum of two products
# of them fits.
_COORD_CAP = 1 << 30


def _pair_coords(pairs) -> np.ndarray:
    """(Re z1, Im z1, Re z2, Im z2) of each pair (z1, z2), one row per pair:
    int64 while every coordinate is below _COORD_CAP in absolute value,
    Python ints (dtype object) otherwise, so that the kernels' sums of
    products are exact either way."""
    flat = [x for z1, z2 in pairs for x in (z1.re, z1.im, z2.re, z2.im)]
    try:
        c = np.array(flat, dtype=np.int64).reshape(-1, 4)
        if ((c < _COORD_CAP) & (c > -_COORD_CAP)).all():
            return c
    except OverflowError:
        pass
    return np.array(flat, dtype=object).reshape(-1, 4)


def _delta_abs(c: np.ndarray) -> np.ndarray:
    # |Delta| = |r1 s2 - r2 s1| of each coordinate row of c
    return np.abs(c[:, 0] * c[:, 3] - c[:, 2] * c[:, 1])


# (row, square class) entries the coset count holds at once, as whole rows
# (at least one); its int64 working arrays stay near 2 MB each.
_COSET_BLOCK = 1 << 18


def _g0_coset_counts(q: int, c: np.ndarray) -> np.ndarray:
    # #{(g1, g2) mod q : g1^2 z2 = g2^2 z1 (mod q)} for each pair (z1, z2) of
    # the coordinate rows c (see _pair_coords), pairs that share |Delta| = q:
    # the sum over the square classes u = g1^2 of uc[u] sq[v] over the v with
    # v z1 = u z2 (mod q).  Those v form one coset of the kernel of
    # v -> v z1 (mod q), which has gcd(Re z1, Im z1, q) = e = gcd(Re z1,
    # Im z1) elements, since e divides Delta.  With lam Re z1 + mu Im z1 = e
    # (a Bezout pair per row, from one array extended Euclid) and
    # w = lam Re z2 + mu Im z2, every such v has v e = u w (mod q).
    # - e = 1, as on the Lemma 8.4 domain, where z1 is primitive: v = u w is
    #   the one candidate, and v z1 - u z2 = u (w z1 - z2), so it hits
    #   exactly when q / g divides u, for g = gcd(w Re z1 - Re z2,
    #   w Im z1 - Im z2, q): one gcd per row tests the candidate of every u,
    #   for any modulus q.  At q = |Delta|, w z1 - z2 = (mu Delta, -lam Delta),
    #   so g = q and every u passes.
    # - e > 1: the e candidates v0 + k q/e, v0 = (u w mod q) // e < q/e, each
    #   tested on both coordinates; a wrong candidate could only lose matches.
    # Only the coordinate rows are shared with the closed form.
    us, uc, sq = _square_classes(q)
    step = max(1, _COSET_BLOCK // us.size)
    if len(c) > step:
        return np.concatenate([_g0_coset_counts(q, c[lo : lo + step]) for lo in range(0, len(c), step)])
    lam, mu, e = bezout_vec(c[:, 0], c[:, 1])
    lam, mu = ((x % q).astype(np.int64) for x in (lam, mu))  # Python ints reduce before they narrow
    e = e.astype(np.int64)
    r1, s1, r2, s2 = (c % q).astype(np.int64).T
    w = (lam * r2 + mu * s2) % q
    count = np.zeros(len(c), dtype=np.int64)
    one = np.flatnonzero(e == 1)
    g = np.gcd(np.gcd(w[one] * r1[one] - r2[one], w[one] * s1[one] - s2[one]), q)
    weight = sq[us * w[one, None] % q]
    part = np.flatnonzero(g < q)
    weight[part] *= us % (q // g[part, None]) == 0
    count[one] = weight @ uc
    many = np.flatnonzero(e > 1)
    em = e[many, None]
    v0 = us * w[many, None] % q // em
    for k in range(int(em.max(initial=1))):  # the rows of e > k try v0 + k q/e
        at = np.flatnonzero(em[:, 0] > k)
        rows = many[at, None]
        v = v0[at] + k * (q // em[at])
        hit = (v * r1[rows] % q == us * r2[rows] % q) & (v * s1[rows] % q == us * s2[rows] % q)
        count[many[at]] += (sq[v] * hit) @ uc
    return count


def _g0_brute_counts(q: int, c: np.ndarray) -> np.ndarray:
    # The count of _g0_coset_counts for each row of c, taken once per class of
    # rows that are equal up to the swap (z1, z2) -> (z2, z1): swapping g1
    # and g2 maps the solutions of g1^2 z2 = g2^2 z1 for one pair onto those
    # for the other, so both counts are the same.  The pair set of the
    # Lemma 8.4 domain is closed under the swap, and the g0 suite hands over
    # each pair followed by its swap, so such rows are counted on the even
    # rows alone.  Other rows are matched through ranks, int64 for any dtype
    # of c: of the coordinates, then of the members z, then of the unordered
    # pair {z1, z2}.
    if len(c) % 2 == 0 and (c[1::2] == c[::2][:, [2, 3, 0, 1]]).all():
        return np.repeat(_g0_coset_counts(q, c[::2]), 2)
    _, rank = np.unique(c, return_inverse=True)
    rank = rank.reshape(-1, 2, 2)
    _, z = np.unique(rank[:, :, 0] * (int(rank.max(initial=0)) + 1) + rank[:, :, 1], return_inverse=True)
    z = z.reshape(-1, 2)
    key = z.min(axis=1) * (int(z.max(initial=0)) + 1) + z.max(axis=1)
    _, rep, at = np.unique(key, return_index=True, return_inverse=True)
    return _g0_coset_counts(q, c[rep])[at]


def G0_brute(z1: GaussianInt, z2: GaussianInt) -> Fraction:
    """|D|^-1 #{(g1, g2) mod |D| : g1^2 z2 = g2^2 z1 (mod |D|)}, any D != 0.

    The count runs over the square classes u = g1^2 mod |D|.  The v = g2^2
    with v z1 = u z2 (mod |D|) form one coset of the kernel of v -> v z1,
    which has gcd(Re z1, Im z1) elements (a divisor of D), so a Bezout pair
    lam Re z1 + mu Im z1 = gcd(Re z1, Im z1) names every candidate v.  For
    primitive z1 the one candidate v = u (lam Re z2 + mu Im z2) of every u
    is tested by one gcd per pair; otherwise each candidate is tested on
    both coordinates directly.  The count reads no Jacobi symbol, divisor
    sum or rational residue: it is the independent oracle for the closed
    form, sharing none of its machinery, and a wrong candidate could only
    lose matches, which the closed form would then contradict.
    """
    q = abs(delta(z1, z2))
    if q == 0:
        raise ValueError("determinant vanishes")
    return Fraction(int(_g0_brute_counts(q, _pair_coords([(z1, z2)]))[0]), q)


def _is_odd(z: GaussianInt) -> bool:
    return z.norm() % 2 == 1


# The hypotheses of the Lemma 8.4 domain on one argument, in checking order.
_LEMMA_84_EACH = (
    (_is_odd, "arguments must be odd"),
    (is_primitive, "(z, conj z) = 1 fails"),
)


def _lemma_84_admits(z: GaussianInt) -> bool:
    # z passes every one-argument hypothesis of the Lemma 8.4 domain: the
    # scalar form of lattice._admitted, and its oracle in the tests.
    return all(holds(z) for holds, _ in _LEMMA_84_EACH)


def _lemma_84_failure(z1: GaussianInt, z2: GaussianInt) -> str | None:
    # The Lemma 8.4 domain of the G0 closed form, the one place it is
    # written: the first hypothesis (z1, z2) fails, or None.
    msg = "outside the closed form's domain: "
    for holds, what in _LEMMA_84_EACH:
        if not (holds(z1) and holds(z2)):
            return msg + what
    n1, n2 = z1.norm(), z2.norm()
    # a common Gaussian prime divides both norms, so coprime norms settle it
    if math.gcd(n1, n2) != 1 and ggcd(z1, z2).norm() != 1:
        return msg + "(z1, z2) = 1 fails"
    if (z1.re - z2.re) % 8 or (z1.im - z2.im) % 8:
        return msg + "z1 = z2 (mod 8) fails"
    if delta(z1, z2) == 0:
        return "determinant vanishes"
    return None


# q below this keeps the weights of _g0_divisor_table and the closed forms
# in int64: 8 sum_{d | q/4} (q/4d) phi(d) <= 2 q tau(q/4) < 2^61.
_G0_INT64_Q = 1 << 40


@lru_cache(maxsize=4096)
def _g0_divisor_table(q: int) -> tuple[np.ndarray, np.ndarray]:
    # q G0 = 8 sum_{d | q/4} (q/4d) phi(d) (T / d), from one factorization of
    # q/4, and (T / d) is (T / o) for the odd part o of d: the odd divisors o
    # of q/4 and the weight 8 sum (q/4d) phi(d) over the d with odd part o,
    # int64 for q below _G0_INT64_Q and Python ints otherwise.  Shared
    # through the cache, so read-only.
    base = q // 4
    weights: dict[int, int] = {}
    for d, ph in _divisors_phi(factorize(base)):
        o = d // (d & -d)
        weights[o] = weights.get(o, 0) + 8 * (base // d) * ph
    dtype = np.int64 if q < _G0_INT64_Q else object
    odd, weight = np.array(list(weights), dtype=dtype), np.array(list(weights.values()), dtype=dtype)
    for x in (odd, weight):
        x.flags.writeable = False
    return odd, weight


def _g0_closed_forms(q: int, c: np.ndarray) -> np.ndarray:
    # q G0_formula of each pair of the coordinate rows c (see _pair_coords),
    # pairs in the Lemma 8.4 domain that share |Delta| = q; the caller has
    # checked the domain, and the class is checked here on the whole group.
    # The closed form reads a pair only through q and the symbols (T / d) of
    # T = z2/z1 mod the odd part m of q/4 (in the domain z2 = z1 (mod 8), so
    # 8 divides Delta).  Re(conj z1 z2) = T |z1|^2 (mod m), and |z1|^2 is
    # prime to m in the domain, so T |z1|^4 has T's symbols and needs no
    # inverse: every distinct such key meets every odd divisor of q/4 in one
    # jacobi_vec call (a scalar jacobi each past int64 reach).
    if (bad := _delta_abs(c) != q).any():
        raise ValueError(f"|Delta| = {_delta_abs(c)[bad][0]} in the group of |Delta| = {q}")
    m = q // (q & -q)
    r1, s1, r2, s2 = c.T
    dot, n1 = (r1 * r2 + s1 * s2) % m, (r1 * r1 + s1 * s1) % m
    if m >= _COORD_CAP:
        dot = dot.astype(object)  # keeps dot * n1 exact
    keys, at = np.unique(dot * n1 % m, return_inverse=True)
    odd, weight = _g0_divisor_table(q)
    if q < _G0_INT64_Q:
        sym = jacobi_vec(keys.astype(np.int64)[:, None], odd)
    else:
        sym = np.array([[jacobi(k, o) for o in odd.tolist()] for k in keys.tolist()], dtype=object)
    return (sym @ weight)[at]


def G0_formula(z1: GaussianInt, z2: GaussianInt) -> Fraction:
    """Closed form G0 = 2 sum_{4d | Delta} phi(d)/d (z2/z1 / d).

    The symbol is the Jacobi symbol extended to even moduli through the
    odd part; z2/z1 is read as the rational residue mod that odd part.
    """
    if failure := _lemma_84_failure(z1, z2):
        raise ValueError(failure)
    q = abs(delta(z1, z2))
    return Fraction(int(_g0_closed_forms(q, _pair_coords([(z1, z2)]))[0]), q)


@dataclass
class SpacingReport:
    """Outcome of the root-repulsion scan on one dyadic-style window."""

    D: int
    moduli: int
    roots: int
    pairs_checked: int
    violations: list[tuple] = field(default_factory=list)


def root_spacing_check(D: int) -> SpacingReport:
    """Verify the repulsion ||nu1/d1 - nu2/d2|| > 1/(4 sqrt(d1 d2)) for all
    distinct root pairs with 8D/9 < d <= D, matching r signs and
    2/3 <= s1/s2 <= 3/2.  All comparisons are exact integer arithmetic."""
    if D < 2:
        raise ValueError("D must be >= 2")
    lo = 8 * D // 9
    points = []
    moduli = 0
    for d in range(lo + 1, D + 1):
        rs = _roots_neg_square(1, d)
        if rs:
            moduli += 1
        for nu in rs:
            r, s = root_to_representation(nu, d)
            points.append((nu, d, r, s))
    report = SpacingReport(D=D, moduli=moduli, roots=len(points), pairs_checked=0)
    for i in range(len(points)):
        nu1, d1, r1, s1 = points[i]
        for j in range(i + 1, len(points)):
            nu2, d2, r2, s2 = points[j]
            if r1 * r2 <= 0:
                continue
            if not (2 * s2 <= 3 * s1 and 2 * s1 <= 3 * s2):
                continue
            m = (nu1 * d2 - nu2 * d1) % (d1 * d2)
            if m == 0 and nu1 * d2 == nu2 * d1:
                continue  # identical fractions are not "distinct" points
            dist = min(m, d1 * d2 - m)
            report.pairs_checked += 1
            if 16 * dist * dist <= d1 * d2:
                report.violations.append(((nu1, d1), (nu2, d2)))
    return report
