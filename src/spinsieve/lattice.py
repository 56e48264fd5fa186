"""Lattice-point counting on the biquadratic ellipse.

C(z1, z2) sums a smooth radial weight f(w) = frak_f(|w|^2) against the
square-indicator weights zweight(Re conj(w) z1) zweight(Re conj(w) z2).
Parameterizing Re conj(w) z1 = c1^2, Re conj(w) z2 = c2^2 turns the sum
into one over integer pairs (c1, c2) constrained by the congruence
c1^2 z2 = c2^2 z1 (mod |Delta|), an exact identity verified here term by
term.  The zero-frequency main term is

    C0(z1, z2) = |z1 z2|^(-1/2) * fhat0 * E(gamma) * G0(z1, z2)

with fhat0 the radial mass of f, gamma = cos of the angle between z1 and
z2, and E the elliptic integral int_0^inf (t^2 - 2 gamma t + 1)^(-1/2)
t^(-1/2) dt = 4 int_0^1 (u^4 - 2 gamma u^2 + 1)^(-1/2) du.  Both factors
are closed forms: E = 2K(sqrt((1 + gamma)/2)) through the arithmetic-
geometric mean, and fhat0 = c_w sqrt(M) with c_w an exact Gauss-Legendre
sum over the polynomial profile.  e_gamma_fixed is the quadrature oracle
of E.

The weight profile is a fixed C^4 polynomial smoothstep product supported
on [M/4, 4M], scaled by 1/2048 so that |frak_f^(j)| <= M^-j for j <= 4
(the fourth derivative of the unnormalized profile peaks at 1967.5 M^-4).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .congruences import G0_formula, _lemma_84_failure
from .gaussian import GaussianInt, delta, rational_residue, up_to_norm_rows

__all__ = [
    "weight_eval",
    "weight_mass",
    "C_direct",
    "C_param",
    "E_gamma",
    "e_gamma_fixed",
    "C0",
    "hypothesis_rows",
    "hypothesis_pairs",
    "box_pairs",
]

_NORM = 1.0 / 2048.0


def _smoothstep(x: float) -> float:
    # C^4 clipped smoothstep: 126 x^5 - 420 x^6 + 540 x^7 - 315 x^8 + 70 x^9.
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return x**5 * (126.0 + x * (-420.0 + x * (540.0 + x * (-315.0 + x * 70.0))))


def weight_eval(M: float, u: float) -> float:
    """Radial profile frak_f(u), supported on [M/4, 4M], C^4 smooth."""
    if M <= 0:
        raise ValueError("M must be positive")
    return (
        _NORM
        * _smoothstep((u - 0.25 * M) / (0.75 * M))
        * _smoothstep((4.0 * M - u) / (3.0 * M))
    )


# Gauss-Legendre nodes per piece of the radial mass integral.  Substituting
# v = t sqrt(M), the profile frak_f(M t^2) is a polynomial of degree 18 in t
# on each of [1/2, 1] and [1, 2], which 16 nodes integrate exactly.
_MASS_NODES = 16


@functools.cache
def _mass_constant() -> float:
    # c_w = int_{1/2}^{2} frak_f(M t^2) dt, the same for every M
    x, w = np.polynomial.legendre.leggauss(_MASS_NODES)
    total = 0.0
    for lo, hi in ((0.5, 1.0), (1.0, 2.0)):
        t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        total += 0.5 * (hi - lo) * math.fsum(
            wi * weight_eval(1.0, ti * ti) for wi, ti in zip(w.tolist(), t.tolist())
        )
    return total


def weight_mass(M: float) -> float:
    """Radial mass fhat0 = int_0^inf frak_f(v^2) dv = c_w sqrt(M): the profile
    depends on u only through u/M, so v = t sqrt(M) leaves a constant c_w."""
    if M <= 0:
        raise ValueError("M must be positive")
    return _mass_constant() * math.sqrt(M)


# One annulus per M, a few M at once: the lattice command uses one M, and
# the annulus at the M cap of 10^4 holds about 118K points, 2.8 MB.
@functools.lru_cache(maxsize=4)
def _annulus(M: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (Re w, Im w, |w|^2) of every w with M/4 <= |w|^2 <= 4M, w != 0, as
    # read-only int64 arrays: the support of f, which depends on M alone
    R = math.isqrt(int(4 * M))
    u = np.arange(-R, R + 1, dtype=np.int64)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    nw = uu * uu + vv * vv
    keep = (4 * nw >= M) & (nw <= 4 * M) & (nw > 0)
    out = uu[keep], vv[keep], nw[keep]
    for a in out:
        a.flags.writeable = False
    return out


def _squares(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the positions of the squares in the int64 array b, and their zweights,
    # 2 on the positive squares and 1 at 0.  A square s^2 < 2^63 has
    # s < 2^32, and the float root of s^2 is within 1/2 of s.
    at = np.flatnonzero(b >= 0)
    r = np.rint(np.sqrt(b[at])).astype(np.int64)
    at = at[r * r == b[at]]
    return at, np.where(b[at] > 0, 2, 1)


def _norm_totals(nw: np.ndarray, wgt: np.ndarray | None = None) -> dict[int, int]:
    # norm -> total weight (or count) of the entries with that norm
    norms, at = np.unique(nw, return_inverse=True)
    totals = np.bincount(at, weights=wgt, minlength=len(norms)).astype(np.int64)
    return dict(zip(norms.tolist(), totals.tolist()))


def _direct_weights(z1: GaussianInt, z2: GaussianInt, M: float) -> dict[int, int]:
    # norm(w) -> total integer zweight product over w in the annulus: the
    # square test of b1 = Re(conj(w) z1) on every w, then that of
    # b2 = Re(conj(w) z2) on the w that pass it
    uu, vv, nw = _annulus(M)
    hit, w1 = _squares(uu * z1.re + vv * z1.im)
    at, w2 = _squares(uu[hit] * z2.re + vv[hit] * z2.im)
    return _norm_totals(nw[hit[at]], w1[at] * w2)


# (c1, c2) rows _param_weights expands at once, as whole c1 values; its
# int64 working arrays stay near 512 KB each.
_PARAM_CHUNK = 1 << 16


def _param_weights(z1: GaussianInt, z2: GaussianInt, M: float) -> dict[int, int]:
    # Same multiset of weighted norms via the congruence parameterization:
    # the pairs (c1, c2) with c2^2 = t c1^2 (mod q), t = z2/z1 and q = |Delta|,
    # each giving the w with i Delta w = c1^2 z2 - c2^2 z1, counted where f(w)
    # can be nonzero.  The c2 in range come sorted by c2^2 mod q, so the
    # square roots of the class t c1^2 of each c1 are one slice of them.
    dd = delta(z1, z2)
    q = abs(dd)
    t = rational_residue(z1, z2, q)
    c1max = math.isqrt(math.isqrt(int(4 * M * z1.norm())))
    c2max = math.isqrt(math.isqrt(int(4 * M * z2.norm())))
    # every int64 below stays under 2^62: each coordinate of c1^2 z2 - c2^2 z1
    # is at most num_max, so |w|^2 <= 2 (num_max / q)^2, and t (c1^2 mod q) < q^2
    num_max = c1max**2 * max(abs(z2.re), abs(z2.im)) + c2max**2 * max(abs(z1.re), abs(z1.im))
    if max(num_max, 2 * (num_max // q + 1) ** 2, q * q) >= 1 << 62:
        raise ValueError("the congruence rows leave int64")
    c2 = np.arange(-c2max, c2max + 1, dtype=np.int64)
    cls = c2 * c2 % q
    order = np.argsort(cls, kind="stable")
    c2, cls = c2[order], cls[order]
    c1 = np.arange(-c1max, c1max + 1, dtype=np.int64)
    target = t * (c1 * c1 % q) % q
    lo = np.searchsorted(cls, target, "left")
    cnt = np.searchsorted(cls, target, "right") - lo  # at least 1 at c1 = 0
    ends = np.cumsum(cnt)
    first = ends - cnt  # the row of each c1's first c2
    norms = []
    a = 0
    while a < len(c1):
        b = max(a + 1, int(np.searchsorted(ends, first[a] + _PARAM_CHUNK, "right")))
        k = cnt[a:b]
        at = np.repeat(lo[a:b] - (first[a:b] - first[a]), k) + np.arange(int(k.sum()))
        s1, s2 = np.repeat(c1[a:b] ** 2, k), c2[at] ** 2
        num_re, num_im = s1 * z2.re - s2 * z1.re, s1 * z2.im - s2 * z1.im
        if ((num_re % dd != 0) | (num_im % dd != 0)).any():
            raise ValueError("Delta does not divide c1^2 z2 - c2^2 z1")
        w_re, w_im = num_im // dd, -num_re // dd  # w = num / (i Delta), i Delta = (0, Delta)
        nw = w_re * w_re + w_im * w_im
        norms.append(nw[(4 * nw >= M) & (nw <= 4 * M) & (nw > 0)])
        a = b
    return _norm_totals(np.concatenate(norms))


def _sum_weights(wts: dict[int, int], M: float) -> float:
    return math.fsum(cnt * weight_eval(M, float(nv)) for nv, cnt in sorted(wts.items()))


def C_direct(z1: GaussianInt, z2: GaussianInt, M: float) -> float:
    """sum over w of f(w) zweight(Re conj(w) z1) zweight(Re conj(w) z2)."""
    if failure := _lemma_84_failure(z1, z2):
        raise ValueError(failure)
    return _sum_weights(_direct_weights(z1, z2, M), M)


def C_param(z1: GaussianInt, z2: GaussianInt, M: float) -> float:
    """The same sum over integer pairs (c1, c2) with c1^2 z2 = c2^2 z1
    (mod |Delta|) and w reconstructed from i Delta w = c1^2 z2 - c2^2 z1;
    agrees with C_direct exactly."""
    if failure := _lemma_84_failure(z1, z2):
        raise ValueError(failure)
    return _sum_weights(_param_weights(z1, z2, M), M)


# Arithmetic-geometric mean steps of E_gamma.  From the smallest start a
# double allows (gamma just below 1, b = 7e-9) the means agree to rounding
# after eight steps; further steps leave them there.
_AGM_STEPS = 10


def E_gamma(gamma: float) -> float:
    """E(gamma) = 4 int_0^1 (u^4 - 2 gamma u^2 + 1)^(-1/2) du, |gamma| < 1,
    in closed form: E = 2K(k) with k^2 = (1 + gamma)/2, and
    K(k) = pi / (2 AGM(1, sqrt(1 - k^2)))."""
    if not -1.0 < gamma < 1.0:
        raise ValueError("divergent: requires |gamma| < 1")
    a, b = 1.0, math.sqrt(0.5 * (1.0 - gamma))
    for _ in range(_AGM_STEPS):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / a


@functools.cache
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    # numpy loads np.polynomial on first use, so the lookup stays in the call
    return np.polynomial.legendre.leggauss(n)


def e_gamma_fixed(gamma: float, n: int) -> float:
    """Independent fixed-order Gauss-Legendre evaluation of E(gamma)."""
    if not -1.0 < gamma < 1.0:
        raise ValueError("divergent: requires |gamma| < 1")
    x, w = _leggauss(n)
    u = 0.5 * (x + 1.0)
    vals = 1.0 / np.sqrt((u * u - gamma) ** 2 + (1.0 - gamma * gamma))
    return float(4.0 * 0.5 * np.dot(w, vals))


# Entries (z1, z2 candidate) that one block of the pair stream tests at
# once, as whole z1 rows (at least one); its int64 working arrays stay near
# 256 KB each.
_PAIR_BLOCK = 1 << 15


def _admissible_index_pairs(
    c: np.ndarray, delta_cap: int | None, limit: int | None,
    z1s: range | None = None, z2s: range | None = None,
):
    # The ordered pairs (z1, z2) in the Lemma 8.4 domain of the candidates c,
    # int64 rows (Re z, Im z) that pass every one-argument hypothesis, as
    # blocks of index arrays (i, j) into c: z1 in list order and z2 in list
    # order within the class of z1 mod 8, at most limit pairs in all, with
    # z1 and z2 taken from the index ranges z1s and z2s (all of c by
    # default).  delta_cap restricts |Delta|.  Each block of z1 rows meets
    # the class of each of its members in one array pass.  For odd primitive
    # z1, z2, (z1, z2) = 1 iff gcd(Re conj(z1) z2, Im conj(z1) z2) = 1: an
    # odd rational prime divides conj(z1) z2 only when a Gaussian prime
    # divides both, and Im conj(z1) z2 is Delta.
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    cls = c[:, 0] % 8 * 8 + c[:, 1] % 8
    by_class = np.argsort(cls, kind="stable")  # each class in list order
    ends = np.searchsorted(cls[by_class], np.arange(65))  # class k at ends[k]:ends[k + 1]
    step = max(1, _PAIR_BLOCK // max(int(np.diff(ends).max()), 1))
    z1s = range(len(c)) if z1s is None else z1s
    z2s = range(len(c)) if z2s is None else z2s
    left = limit
    for lo in range(z1s.start, z1s.stop if left != 0 else z1s.start, step):
        hi = min(lo + step, z1s.stop)
        i_parts, j_parts = [], []
        for k in np.flatnonzero(np.bincount(cls[lo:hi], minlength=64)).tolist():
            i = lo + np.flatnonzero(cls[lo:hi] == k)
            j = by_class[ends[k] : ends[k + 1]]
            j = j[np.searchsorted(j, z2s.start) : np.searchsorted(j, z2s.stop)]
            (r1, s1), (r2, s2) = c[i].T[:, :, None], c[j].T
            det = r1 * s2 - r2 * s1
            ok = (np.gcd(r1 * r2 + s1 * s2, det) == 1) & (det != 0)
            if delta_cap is not None:
                ok &= np.abs(det) <= delta_cap
            a, b = np.nonzero(ok)
            i_parts.append(i[a])
            j_parts.append(j[b])
        i, j = np.concatenate(i_parts), np.concatenate(j_parts)
        order = np.argsort(i, kind="stable")[:left]  # by z1; each z1 is in one class
        if left is not None:
            left -= len(order)
        if len(order):
            yield i[order], j[order]
        if left == 0:
            return


def _swap_closed_tiles(c: np.ndarray, side: int):
    # The pairs of _admissible_index_pairs(c, None, None) as index arrays
    # (i, j), a tile at a time: the pairs between the candidate blocks
    # [a, a + side) and [b, b + side), b >= a, in both directions.  The
    # domain is closed under the swap (z1, z2) -> (z2, z1), so a tile is
    # read off its pairs with i < j, each followed by its swap.
    blocks = [range(a, min(a + side, len(c))) for a in range(0, len(c), side)]
    for x, bx in enumerate(blocks):
        for by in blocks[x:]:
            ij = [*_admissible_index_pairs(c, None, None, bx, by)]
            if ij:
                i, j = (np.concatenate(u) for u in zip(*ij))
                i, j = i[i < j], j[i < j]
                yield np.stack((i, j, j, i), axis=1).reshape(-1, 2).T


def _admitted(c: np.ndarray) -> np.ndarray:
    # the rows (Re z, Im z) of c that pass every one-argument hypothesis of
    # the Lemma 8.4 domain (congruences._LEMMA_84_EACH): z odd, as
    # r^2 + s^2 = r + s (mod 2), and primitive
    r, s = c.T
    return c[((r + s) % 2 == 1) & (np.gcd(r, s) == 1)]


def _admissible_rows(c: np.ndarray, delta_cap: int | None, limit: int | None):
    # the pairs of _admissible_index_pairs over the admitted rows of c, as
    # blocks of coordinate rows (Re z1, Im z1, Re z2, Im z2)
    c = _admitted(c)
    for i, j in _admissible_index_pairs(c, delta_cap, limit):
        yield np.hstack((c[i], c[j]))


def _as_pairs(blocks):
    # the coordinate rows of blocks as pairs (z1, z2)
    for rows in blocks:
        for r1, s1, r2, s2 in rows.tolist():
            yield GaussianInt(r1, s1), GaussianInt(r2, s2)


def hypothesis_rows(
    max_norm: int,
    delta_cap: int | None = None,
    limit: int | None = None,
    min_norm: int = 1,
):
    """The pairs of hypothesis_pairs, in the same order, as blocks of int64
    coordinate rows (Re z1, Im z1, Re z2, Im z2).  A block holds the pairs
    of whole z1 rows, found about 2^15 tested (z1, z2) entries at a time."""
    yield from _admissible_rows(up_to_norm_rows(max_norm, min_norm), delta_cap, limit)


def hypothesis_pairs(
    max_norm: int,
    delta_cap: int | None = None,
    limit: int | None = None,
    min_norm: int = 1,
):
    """Deterministic stream of ordered pairs (z1, z2) with both odd,
    primitive, coprime, congruent mod 8, and nonzero determinant; ordered
    by (norm, re, im).  delta_cap restricts |Delta|, limit the count."""
    yield from _as_pairs(hypothesis_rows(max_norm, delta_cap, limit, min_norm))


def box_pairs(
    norm_lo: int, norm_hi: int, angle_lo: float, angle_width: float,
    delta_cap: int | None = None,
):
    """Hypothesis pairs with both members in a polar box (norms in
    [norm_lo, norm_hi], argument in [angle_lo, angle_lo + angle_width))."""
    c = up_to_norm_rows(norm_hi, norm_lo)
    box = [angle_lo <= math.atan2(s, r) < angle_lo + angle_width for r, s in c.tolist()]
    yield from _as_pairs(_admissible_rows(c[np.array(box, dtype=bool)], delta_cap, None))


def C0(z1: GaussianInt, z2: GaussianInt, M: float) -> float:
    """Zero-frequency main term |z1 z2|^(-1/2) fhat0 E(gamma) G0(z1, z2)."""
    g0 = G0_formula(z1, z2)  # raises outside the Lemma 8.4 domain
    n1, n2 = z1.norm(), z2.norm()
    dot = z1.re * z2.re + z1.im * z2.im  # Re(conj(z1) z2)
    mod = math.sqrt(float(n1) * float(n2))
    gamma = dot / mod
    return weight_mass(M) * E_gamma(gamma) * float(g0) / math.sqrt(mod)
