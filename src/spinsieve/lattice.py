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
from .gaussian import GaussianInt, _isqrt_vec, delta, rational_residue, up_to_norm_rows

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


def _direct_weights(z1: GaussianInt, z2: GaussianInt, M: float) -> dict[int, int]:
    # norm(w) -> total integer zweight product over w in the annulus.
    R = math.isqrt(int(4 * M))
    u = np.arange(-R, R + 1, dtype=np.int64)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    nw = uu * uu + vv * vv
    keep = (4 * nw >= M) & (nw <= 4 * M) & (nw > 0)
    uu, vv, nw = uu[keep], vv[keep], nw[keep]
    b1 = uu * z1.re + vv * z1.im  # Re(conj(w) z1)
    b2 = uu * z2.re + vv * z2.im

    def zw(b):  # zweight over an array; |b| <= 2R|z| is far below 2^53
        r = _isqrt_vec(np.maximum(b, 0))
        return np.where(r * r == b, np.where(b > 0, 2, 1), 0)

    wgt = zw(b1) * zw(b2)
    keep = wgt > 0
    out: dict[int, int] = {}
    for nv, g in zip(nw[keep].tolist(), wgt[keep].tolist()):
        out[nv] = out.get(nv, 0) + g
    return out


def _param_weights(z1: GaussianInt, z2: GaussianInt, M: float) -> dict[int, int]:
    # Same multiset of weighted norms via the congruence parameterization.
    q = abs(delta(z1, z2))
    t = rational_residue(z1, z2, q)
    table: list[list[int]] = [[] for _ in range(q)]
    for y in range(q):
        table[y * y % q].append(y)
    c1max = math.isqrt(math.isqrt(int(4 * M * z1.norm())))
    c2max = math.isqrt(math.isqrt(int(4 * M * z2.norm())))
    dd = delta(z1, z2)
    out: dict[int, int] = {}
    for c1 in range(-c1max, c1max + 1):
        target = t * c1 * c1 % q
        for y in table[target]:
            c2 = y - ((y + c2max) // q) * q  # smallest >= -c2max in the class
            while c2 <= c2max:
                num = GaussianInt(
                    c1 * c1 * z2.re - c2 * c2 * z1.re,
                    c1 * c1 * z2.im - c2 * c2 * z1.im,
                )
                # w = num / (i Delta); i*Delta = (0, Delta)
                assert num.re % dd == 0 and num.im % dd == 0
                w = GaussianInt(num.im // dd, -num.re // dd)
                nw = w.norm()
                if 4 * nw >= M and nw <= 4 * M and nw > 0:
                    out[nw] = out.get(nw, 0) + 1
                c2 += q
    return out


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
