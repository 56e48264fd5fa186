"""Real character machinery on Z[i].

The Dirichlet symbol xi_w(z) = (Re wz / |w|^2) attached to a primary
primitive w extends the Jacobi symbol to the Gaussian domain: it is a real
character mod |w|^2, computable equivalently through any root omega of
omega^2 + 1 = 0 (mod q) as ((r + omega*s)/q).  The quartic-valued
Jacobi-Kubota symbol [z] = i^((r-1)/2) (s/|r|) is nearly multiplicative:
for w primary primitive and z = 1 (mod 2),

    [wz] = eps(w, z) [w] [z] (z/w),

where eps = +-1 depends only on signs (the multiplier rule).  All symbol
arithmetic here is exact; quartic values are Gaussian units, never
floating point.
"""

from __future__ import annotations

import numpy as np

from .arith import jacobi, jacobi_vec
from .gaussian import (
    _UNITS,
    GaussianInt,
    conj,
    ggcd,
    is_primary,
    is_primitive,
    primary_associate,
    two_squares,
)

__all__ = [
    "dirichlet_symbol",
    "dirichlet_symbol_via_root",
    "jacobi_kubota",
    "jacobi_kubota_vec",
    "epsilon_factor",
    "epsilon_factor_vec",
    "spin",
    "primary_gcd_cofactor",
]


def _require_primary_primitive(w: GaussianInt) -> int:
    if not (is_primary(w) and is_primitive(w)):
        raise ValueError("lower entry must be primary and primitive")
    q = w.norm()
    # Every prime factor of q splits, so q = 1 (mod 4); q mod 8 in {1, 5}.
    assert q % 4 == 1, "primary primitive norm must be 1 mod 4"
    return q


def dirichlet_symbol(z: GaussianInt, w: GaussianInt) -> int:
    """xi_w(z) = (Re wz / |w|^2) for w primary primitive.

    Vanishes exactly when gcd(w, conj(z)) != 1.
    """
    q = _require_primary_primitive(w)
    a = w.re * z.re - w.im * z.im  # Re(w z)
    return jacobi(a % q, q)


def dirichlet_symbol_via_root(z: GaussianInt, q: int, omega: int) -> int:
    """xi(z) = ((r + omega s)/q) for a root omega of omega^2 + 1 = 0 (mod q)."""
    if q < 1 or q % 2 == 0:
        raise ValueError("modulus must be odd and positive")
    if (omega * omega + 1) % q:
        raise ValueError("omega is not a root of x^2 + 1 mod q")
    return jacobi((z.re + omega * z.im) % q, q)


def jacobi_kubota(z: GaussianInt) -> GaussianInt:
    """[z] = i^((r-1)/2) (s/|r|) for z = r + is with r odd: a Gaussian unit,
    or zero exactly when z is not primitive (for r = +-1, (s/1) = 1).
    """
    r, s = z.re, z.im
    if r % 2 == 0:
        raise ValueError("real part must be odd")
    j = jacobi(s, abs(r))
    u = _UNITS[(r - 1) // 2 % 4]  # i^((r-1)/2); _UNITS runs i^0 .. i^3
    return GaussianInt(j * u.re, j * u.im)


# Re and Im of i^k, k = 0 .. 3
_UNIT_RE = np.array([u.re for u in _UNITS], dtype=np.int8)
_UNIT_IM = np.array([u.im for u in _UNITS], dtype=np.int8)


def jacobi_kubota_vec(r, s) -> tuple[np.ndarray, np.ndarray]:
    """[r + is] for every entry of int64 arrays r (odd) and s: the real and
    imaginary parts of i^((r-1)/2) (s/|r|), as int8.  jacobi_kubota is the
    oracle."""
    r, s = np.asarray(r, dtype=np.int64), np.asarray(s, dtype=np.int64)
    if np.any(r % 2 == 0):
        raise ValueError("real part must be odd")
    j = jacobi_vec(s, np.abs(r))
    k = (r - 1) // 2 % 4
    return j * _UNIT_RE[k], j * _UNIT_IM[k]


def _hil(x: int, y: int) -> int:
    # Hilbert symbol (x, y)_inf; unlike arith.hilbert_infinity, a zero
    # entry (an axis point) counts as positive
    return -1 if (x < 0 and y < 0) else 1


def epsilon_factor(w: GaussianInt, z: GaussianInt) -> int:
    """Sign epsilon(w, z) in the multiplier rule, from the quadrants of w, z, wz.

    With w = u + iv and z = r + is this is (u,v)_inf (r,-v)_inf when
    ur > vs and (u,v)_inf (-r,v)_inf when ur < vs; the case ur = vs cannot
    occur for wz = 1 (mod 2) and is rejected.
    """
    u, v, r, s = w.re, w.im, z.re, z.im
    a = u * r - v * s  # Re(w z)
    if a == 0:
        raise ValueError("degenerate: Re(wz) = 0")
    if a > 0:
        return _hil(u, v) * _hil(r, -v)
    return _hil(u, v) * _hil(-r, v)


def epsilon_factor_sign_form(w: GaussianInt, z: GaussianInt) -> int:
    """Same sign via 2 eps (u,v)_inf = 1 + sign(vr) - (sign v - sign r) sign(Re wz).

    The sign form needs Im w and Re z away from zero (its Hilbert factors
    have nonzero entries); use epsilon_factor on the axes.
    """
    u, v, r, s = w.re, w.im, z.re, z.im
    if v == 0 or r == 0:
        raise ValueError("sign form undefined for Im w = 0 or Re z = 0")
    a = u * r - v * s
    if a == 0:
        raise ValueError("degenerate: Re(wz) = 0")
    sgn = lambda t: (t > 0) - (t < 0)
    rhs = 1 + sgn(v * r) - (sgn(v) - sgn(r)) * sgn(a)
    assert abs(rhs) == 2, "sign identity out of range"
    return (rhs // 2) * _hil(u, v)


def epsilon_factor_vec(u, v, r, s, sign_form: bool = False) -> np.ndarray:
    """epsilon(w, z) for w = u + iv and z = r + is over broadcast int64
    arrays, as int8: by the quadrant rule of epsilon_factor, or by the sign
    form of epsilon_factor_sign_form when sign_form is set.  Those two are
    the oracles, and each entry is rejected where they reject it; entries
    of 2^31 or more, whose Re wz could overflow int64, raise ValueError."""
    u, v, r, s = np.broadcast_arrays(*(np.asarray(x, dtype=np.int64) for x in (u, v, r, s)))
    if any(np.any(np.abs(x) >= 1 << 31) for x in (u, v, r, s)):
        raise ValueError("entries must be below 2^31 in absolute value")
    a = u * r - v * s  # Re(w z)
    if np.any(a == 0):
        raise ValueError("degenerate: Re(wz) = 0")
    neg = (u < 0) & (v < 0)  # (u, v)_inf = -1
    if sign_form:
        if np.any((v == 0) | (r == 0)):
            raise ValueError("sign form undefined for Im w = 0 or Re z = 0")
        rhs = 1 + np.sign(v * r) - (np.sign(v) - np.sign(r)) * np.sign(a)
        assert np.all(np.abs(rhs) == 2), "sign identity out of range"
        neg ^= rhs < 0
    else:  # (r, -v)_inf when Re wz > 0, (-r, v)_inf when Re wz < 0
        neg ^= np.where(a > 0, (r < 0) & (v > 0), (r > 0) & (v < 0))
    return np.where(neg, -1, 1).astype(np.int8)


def spin(p: int) -> int:
    """Spin (s/r) of a prime p = 1 (mod 4) with p = r^2 + s^2, r odd, r,s > 0."""
    r, s = two_squares(p)
    return jacobi(s, r) if r > 1 else 1


def primary_gcd_cofactor(
    w1: GaussianInt, w2: GaussianInt
) -> tuple[GaussianInt, GaussianInt]:
    """(e, w1 w2 / (e conj(e))) with e the primary associate of gcd(w1, conj(w2)).

    For primary primitive w1, w2 the cofactor is again primary primitive;
    it is the canonical lower entry in the product law for xi.
    """
    _require_primary_primitive(w1)
    _require_primary_primitive(w2)
    e = ggcd(w1, conj(w2))  # odd, hence already primary-normalized
    if not is_primary(e):
        e = primary_associate(e)[0]
    d = e.norm()  # e conj(e) = d as a Gaussian integer
    prod = w1 * w2
    if prod.re % d or prod.im % d:
        raise ValueError("e conj(e) does not divide w1 w2")
    cof = GaussianInt(prod.re // d, prod.im // d)
    if not (is_primary(cof) and is_primitive(cof)):
        raise ValueError("the cofactor is not primary primitive")
    return e, cof
