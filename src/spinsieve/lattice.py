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
t^(-1/2) dt = 4 int_0^1 (u^4 - 2 gamma u^2 + 1)^(-1/2) du.

The weight profile is a fixed C^4 polynomial smoothstep product supported
on [M/4, 4M], scaled by 1/2048 so that |frak_f^(j)| <= M^-j for j <= 4
(the fourth derivative of the unnormalized profile peaks at 1967.5 M^-4).
"""

from __future__ import annotations

import math

import numpy as np

from .congruences import G0_formula, _lemma_84_hypotheses
from .gaussian import GaussianInt, delta, is_primitive, rational_residue, up_to_norm
from .sieve import zweight

__all__ = [
    "weight_eval",
    "weight_mass",
    "C_direct",
    "C_param",
    "E_gamma",
    "e_gamma_fixed",
    "C0",
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


def weight_mass(M: float) -> float:
    """Radial mass fhat0 = int_0^inf frak_f(v^2) dv (the radius integral)."""
    from scipy.integrate import quad  # deferred: most of the package's cold import

    lo, hi = math.sqrt(M) / 2.0, 2.0 * math.sqrt(M)
    val, _ = quad(lambda v: weight_eval(M, v * v), lo, hi, epsabs=1e-12, limit=200)
    return val


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

    def zw(b):
        w = np.zeros(b.shape, dtype=np.int64)
        nonneg = b >= 0
        r = np.zeros_like(b)
        r[nonneg] = np.sqrt(b[nonneg].astype(np.float64)).astype(np.int64)
        for rr in (r - 1, r, r + 1):  # guard float isqrt drift
            w = np.where(nonneg & (rr >= 0) & (rr * rr == b), np.where(b > 0, 2, 1), w)
        return w

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
    _lemma_84_hypotheses(z1, z2)
    return _sum_weights(_direct_weights(z1, z2, M), M)


def C_param(z1: GaussianInt, z2: GaussianInt, M: float) -> float:
    """The same sum over integer pairs (c1, c2) with c1^2 z2 = c2^2 z1
    (mod |Delta|) and w reconstructed from i Delta w = c1^2 z2 - c2^2 z1;
    agrees with C_direct exactly."""
    _lemma_84_hypotheses(z1, z2)
    return _sum_weights(_param_weights(z1, z2, M), M)


def E_gamma(gamma: float) -> float:
    """E(gamma) = 4 int_0^1 (u^4 - 2 gamma u^2 + 1)^(-1/2) du, |gamma| < 1."""
    if not -1.0 < gamma < 1.0:
        raise ValueError("divergent: requires |gamma| < 1")
    dsq = 1.0 - gamma * gamma

    def f(u):
        w = u * u - gamma
        return 1.0 / math.sqrt(w * w + dsq)

    from scipy.integrate import quad  # deferred: most of the package's cold import

    val, _ = quad(f, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=400,
                  points=[math.sqrt(max(gamma, 0.0))])
    return 4.0 * val


_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def e_gamma_fixed(gamma: float, n: int) -> float:
    """Independent fixed-order Gauss-Legendre evaluation of E(gamma)."""
    if not -1.0 < gamma < 1.0:
        raise ValueError("divergent: requires |gamma| < 1")
    if n not in _leggauss_cache:
        _leggauss_cache[n] = np.polynomial.legendre.leggauss(n)
    x, w = _leggauss_cache[n]
    u = 0.5 * (x + 1.0)
    vals = 1.0 / np.sqrt((u * u - gamma) ** 2 + (1.0 - gamma * gamma))
    return float(4.0 * 0.5 * np.dot(w, vals))


def hypothesis_pairs(
    max_norm: int,
    delta_cap: int | None = None,
    limit: int | None = None,
    min_norm: int = 1,
):
    """Deterministic stream of ordered pairs (z1, z2) with both odd,
    primitive, coprime, congruent mod 8, and nonzero determinant; ordered
    by (norm, re, im).  delta_cap restricts |Delta|."""
    zs = [z for z in up_to_norm(max_norm, min_norm) if z.norm() % 2 and is_primitive(z)]
    by_class: dict[tuple[int, int], list[GaussianInt]] = {}
    for z in zs:
        by_class.setdefault((z.re % 8, z.im % 8), []).append(z)
    count = 0
    for z1 in zs:
        n1 = z1.norm()
        for z2 in by_class.get((z1.re % 8, z1.im % 8), ()):
            d = delta(z1, z2)
            if d == 0 or (delta_cap is not None and abs(d) > delta_cap):
                continue
            # coprime norms already force coprime arguments
            if math.gcd(n1, z2.norm()) == 1 or _gaussian_coprime(z1, z2):
                yield z1, z2
                count += 1
                if limit is not None and count >= limit:
                    return


def _gaussian_coprime(z1: GaussianInt, z2: GaussianInt) -> bool:
    from .gaussian import ggcd

    return ggcd(z1, z2).norm() == 1


def box_pairs(
    norm_lo: int, norm_hi: int, angle_lo: float, angle_width: float,
    delta_cap: int | None = None,
):
    """Hypothesis pairs with both members in a polar box (norms in
    [norm_lo, norm_hi], argument in [angle_lo, angle_lo + angle_width))."""
    box = [
        z
        for z in up_to_norm(norm_hi, norm_lo)
        if z.norm() % 2
        and is_primitive(z)
        and angle_lo <= math.atan2(z.im, z.re) < angle_lo + angle_width
    ]
    for z1 in box:
        for z2 in box:
            if (z1.re - z2.re) % 8 or (z1.im - z2.im) % 8:
                continue
            d = delta(z1, z2)
            if d == 0 or (delta_cap is not None and abs(d) > delta_cap):
                continue
            if _gaussian_coprime(z1, z2):
                yield z1, z2


def C0(z1: GaussianInt, z2: GaussianInt, M: float) -> float:
    """Zero-frequency main term |z1 z2|^(-1/2) fhat0 E(gamma) G0(z1, z2)."""
    _lemma_84_hypotheses(z1, z2)
    n1, n2 = z1.norm(), z2.norm()
    dot = z1.re * z2.re + z1.im * z2.im  # Re(conj(z1) z2)
    mod = math.sqrt(float(n1) * float(n2))
    gamma = dot / mod
    g0 = G0_formula(z1, z2)
    return weight_mass(M) * E_gamma(gamma) * float(g0) / math.sqrt(mod)
