"""Quadratic eigenvalues and their sums.

For a character psi(z) = xi_w(z) (z/|z|)^k on Z[i] (angular frequency k,
optional primary primitive twist w) the quadratic eigenvalue of n is

    lam(n) = sum over primary z with norm n of psi(z) [z],

with [z] the quartic Jacobi-Kubota symbol; lam0(n) strips the character
and the i-power, summing (s/r) over representations n = r^2 + s^2 with
r, s > 0 and r odd.  Restricted to primes this is the spin sum whose
cancellation the desk-scale experiments measure.

Enumeration of primary z with a given norm goes through factorization,
never through O(sqrt n) scans, so sums to 1e7 finish in minutes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from ._util import split_range
from .arith import jacobi, prime_range
from .gaussian import GaussianInt, is_primary, is_primitive, primary_reps
from .symbols import dirichlet_symbol, jacobi_kubota, spin

__all__ = [
    "HeckeCharacter",
    "psi_eval",
    "hecke_lambda",
    "quad_lambda",
    "quad_lambda_coordinates",
    "lambda0",
    "spin_sum",
    "lambda_prime_sum",
    "linear_form",
]


@dataclass(frozen=True)
class HeckeCharacter:
    """psi(z) = xi_twist(z) * (z/|z|)^k; trivial twist means xi = 1."""

    k: int = 0
    twist: GaussianInt | None = None

    def __post_init__(self):
        if self.twist is not None and not (
            is_primary(self.twist) and is_primitive(self.twist)
        ):
            raise ValueError("twist must be primary and primitive")


TRIVIAL = HeckeCharacter()


def psi_eval(psi: HeckeCharacter, z: GaussianInt) -> complex:
    """Evaluate psi at z; needs z odd when a twist is present."""
    if z == GaussianInt(0, 0):
        raise ValueError("psi is undefined at zero")
    chi = 1
    if psi.twist is not None:
        if z.norm() % 2 == 0:
            raise ValueError("twisted psi needs odd z")
        chi = dirichlet_symbol(z, psi.twist)
        if chi == 0:
            return 0j
    if psi.k == 0:
        return complex(chi)
    return chi * cmath.exp(1j * psi.k * math.atan2(z.im, z.re))


def hecke_lambda(n: int, psi: HeckeCharacter = TRIVIAL) -> complex:
    """sum of psi over primary z with norm n (the ideal-count twist)."""
    return sum((psi_eval(psi, z) for z in primary_reps(n)), 0j)


def quad_lambda(n: int, psi: HeckeCharacter = TRIVIAL) -> complex:
    """Quadratic eigenvalue: sum of psi(z) [z] over primary z of norm n."""
    total = 0j
    for z in primary_reps(n):
        jk = jacobi_kubota(z)
        if jk.re == 0 and jk.im == 0:
            continue
        total += psi_eval(psi, z) * complex(jk)
    return total


def quad_lambda_coordinates(n: int, psi: HeckeCharacter = TRIVIAL) -> complex:
    """The same eigenvalue in coordinates: sum over n = r^2 + s^2 with
    r odd and s = r - 1 (mod 4) of i^((r-1)/2) psi(r+is) (s/|r|)."""
    if n < 1:
        raise ValueError("n must be positive")
    total = 0j
    for r in range(-math.isqrt(n), math.isqrt(n) + 1):
        if r % 2 == 0:
            continue
        s2 = n - r * r
        s = math.isqrt(s2) if s2 >= 0 else -1
        if s < 0 or s * s != s2:
            continue
        for ss in ({s, -s} if s else {0}):
            if (ss - r + 1) % 4:
                continue
            j = jacobi(ss, abs(r)) if abs(r) > 1 else 1
            if j == 0:
                continue
            z = GaussianInt(r, ss)
            total += (1j ** ((r - 1) // 2 % 4)) * psi_eval(psi, z) * j
    return total


def lambda0(n: int) -> int:
    """sum of (s/r) over n = r^2 + s^2 with r, s positive and r odd."""
    if n < 1:
        raise ValueError("n must be positive")
    total = 0
    for r in range(1, math.isqrt(n) + 1, 2):
        s2 = n - r * r
        if s2 <= 0:
            if s2 == 0:
                pass  # s must be positive
            continue
        s = math.isqrt(s2)
        if s * s == s2:
            total += jacobi(s, r)
    return total


def _spin_block(lo: int, hi: int) -> tuple[int, int]:
    total = 0
    count = 0
    for p in prime_range(lo, hi):
        p = int(p)
        if p % 4 == 1:
            total += spin(p)
            count += 1
    return total, count


def spin_sum(x: int) -> tuple[int, int]:
    """(sum of spins, count) over primes p = 1 (mod 4), p <= x, streamed
    from a segmented sieve in segments that bound its memory."""
    if x < 2:
        return 0, 0
    if x > 10**9:
        raise ValueError("x capped at 1e9")
    parts = [_spin_block(lo, hi) for lo, hi in split_range(2, x + 1, max(1 << 16, x // 16 + 1))]
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


def lambda_prime_sum(x: int, c: int = 1, psi: HeckeCharacter = TRIVIAL) -> complex:
    """sum_{n <= x} Lambda(n) quad_lambda(c n, psi), over prime powers n."""
    if x < 1 or c < 1:
        raise ValueError("x and c must be positive")

    def block(lo: int, hi: int) -> complex:
        total = 0j
        for p in prime_range(lo, hi):
            p = int(p)
            lp = math.log(p)
            pk = p
            while pk <= x:
                total += lp * quad_lambda(c * pk, psi)
                pk *= p
        return total

    # prime powers p^k <= x are swept by iterating p in segments, each
    # summed on its own, which fixes the rounding of the total
    parts = [block(lo, hi) for lo, hi in split_range(2, x + 1, max(1 << 15, x // 16 + 1))]
    return sum(parts, 0j)


def linear_form(
    N: int, m: int = 1, psi: HeckeCharacter = TRIVIAL, restricted: bool = False
) -> complex:
    """sum_{n <= N} quad_lambda(m n, psi), optionally restricted to (n, m) = 1."""
    if N < 1 or m < 1:
        raise ValueError("N and m must be positive")
    total = 0j
    for n in range(1, N + 1):
        if restricted and math.gcd(n, m) != 1:
            continue
        total += quad_lambda(m * n, psi)
    return total
