"""Quadratic eigenvalues and their sums.

For a character psi(z) = xi_w(z) (z/|z|)^k on Z[i] (angular frequency k,
optional primary primitive twist w) the quadratic eigenvalue of n is

    lam(n) = sum over primary z with norm n of psi(z) [z],

with [z] the quartic Jacobi-Kubota symbol; lam0(n) strips the character
and the i-power, summing (s/r) over representations n = r^2 + s^2 with
r, s > 0 and r odd.  Restricted to primes this is the spin sum whose
cancellation the desk-scale experiments measure.  spin_walk computes it
segment by segment straight from the Gaussian lattice: gaussian.prime_points
reads each prime's point (r, s) off the segment's sieve mask, which holds
only the n = 1 (mod 4), and arith.jacobi_vec takes all of the segment's
spins (s/r) at once, each chain ending in its table of small moduli.  Under
a stats dict the walk also reports the seconds of these three stages and
its work counters.

Enumeration of primary z with a given norm goes through factorization,
never through O(sqrt n) scans, so sums to 1e7 finish in minutes.
"""

from __future__ import annotations

import cmath
import math
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .arith import jacobi, jacobi_vec, prime_range
from .gaussian import GaussianInt, is_primary, is_primitive, prime_points, primary_reps
from .symbols import dirichlet_symbol, jacobi_kubota

__all__ = [
    "HeckeCharacter",
    "psi_eval",
    "hecke_lambda",
    "quad_lambda",
    "quad_lambda_coordinates",
    "lambda0",
    "spin_sum",
    "spin_walk",
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
        if s2 <= 0:  # s must be positive
            continue
        s = math.isqrt(s2)
        if s * s == s2:
            total += jacobi(s, r)
    return total


def _spin_segment(x: int) -> int:
    # Integers per segment of a sweep to x.  Each segment pays a Python step
    # per sieving prime, an array entry per odd r, both up to sqrt(x), and a
    # fixed numpy dispatch cost in jacobi_vec's rounds, so segments grow with
    # sqrt(x).  On 2 vCPUs, in process, spin_sum with 64, 128 and 256 sqrt(x)
    # a segment took 0.064-0.074, 0.053-0.065 and 0.052-0.079 s at 1e7,
    # 0.64-0.70, 0.63-0.73 and 0.61-0.64 s at 1e8, and 7.1-7.2, 6.8-7.4 and
    # 7.1-7.9 s at 1e9, with a peak RSS of 35, 39-40 and 48-49 MB there: 128
    # is best or near it at each x, and its mask of the n = 1 (mod 4) stays
    # under 1 MB at 1e9.
    return max(1 << 16, 128 * math.isqrt(x))


def _spin_block(lo: int, hi: int, stats: dict | None = None) -> tuple[int, int]:
    # (sum of spins, count) over the primes p = 1 (mod 4) in [lo, hi); a
    # stats dict, spin_walk's, gets prime_points' entries and symbols_s added
    r, s = prime_points(lo, hi, stats)
    t0 = time.perf_counter()
    total = int(jacobi_vec(s, r).sum())  # (s/1) = 1, as spin has it
    if stats is not None:
        stats["symbols_s"] += time.perf_counter() - t0
    return total, int(r.size)


def spin_walk(xs: Iterable[int], stats: dict | None = None) -> Iterator[dict]:
    """One report row {x, spin_sum, prime_count} per x of the ascending xs,
    over primes p = 1 (mod 4), p <= x, from one sweep of a segmented sieve;
    each row is yielded as soon as the sweep reaches its x.  A stats dict,
    when given, receives once the walk ends the seconds of each stage
    (sieve_s, points_s, symbols_s) and the counts of segments, of
    lattice_points walked and of prime_points kept."""
    xs = list(xs)
    if any(b < a for a, b in zip(xs, xs[1:])):
        raise ValueError("checkpoints must ascend")
    if xs and xs[-1] > 10**9:
        raise ValueError("x capped at 1e9")
    walk = {"sieve_s": 0.0, "points_s": 0.0, "symbols_s": 0.0, "segments": 0, "lattice_points": 0}
    total = count = 0
    lo = 2
    seg = _spin_segment(xs[-1]) if xs else 0
    for x in xs:
        while lo <= x:
            hi = min(lo + seg, x + 1)
            t, c = _spin_block(lo, hi, walk)
            total += t
            count += c
            walk["segments"] += 1
            lo = hi
        yield {"x": x, "spin_sum": total, "prime_count": count}
    if stats is not None:
        stats.update(walk, prime_points=count)


def spin_sum(x: int) -> tuple[int, int]:
    """(sum of spins, count) over primes p = 1 (mod 4), p <= x: the one
    row of spin_walk([x])."""
    (row,) = spin_walk([x])
    return row["spin_sum"], row["prime_count"]


def lambda_prime_sum(x: int, c: int = 1, psi: HeckeCharacter = TRIVIAL) -> complex:
    """sum_{n <= x} Lambda(n) quad_lambda(c n, psi), over prime powers n."""
    if x < 1 or c < 1:
        raise ValueError("x and c must be positive")

    # prime powers p^k <= x, swept by iterating p in segments of the spin
    # sweep's size, so the prime table is bounded by one segment
    total = 0j
    seg = _spin_segment(x)
    for lo in range(2, x + 1, seg):
        for p in prime_range(lo, min(lo + seg, x + 1)).tolist():
            lp = math.log(p)
            pk = p
            while pk <= x:
                total += lp * quad_lambda(c * pk, psi)
                pk *= p
    return total


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
