"""Independent oracles for the benchmark's output checks.

Nothing here imports spinsieve.  Each function recomputes a quantity that
the CLI reports, by the plainest method that is still fast enough at the
benchmark's sizes, so that a check never compares the program with itself.
Run this file to execute the hand-case self-tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def prime_flags(n: int) -> np.ndarray:
    """Boolean array f with f[k] true iff k is prime, 0 <= k <= n
    (plain sieve of Eratosthenes)."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def count_primes_1mod4(flags: np.ndarray, x: int) -> int:
    """pi(x; 4, 1) read from a prime-flag array that reaches x."""
    return int(np.count_nonzero(flags[1 : x + 1 : 4]))


# ---------------------------------------------------------------------------
# prime values of a^2 + b^4


def pair_count(x: int) -> int:
    """#{(a, b) : a, b >= 1, a^2 + b^4 <= x} = sum over b^4 < x of isqrt(x - b^4)."""
    total = 0
    b = 1
    while b**4 < x:
        total += math.isqrt(x - b**4)
        b += 1
    return total


def lambda_sum(x: int, flags: np.ndarray) -> float:
    """sum of Lambda(a^2 + b^4) over a, b >= 1 with a^2 + b^4 <= x, using a
    prime-flag array that reaches x."""
    powers, logs = [], []
    for p in np.nonzero(flags[: math.isqrt(x) + 1])[0]:
        p = int(p)
        v = p * p
        while v <= x:
            powers.append(v)
            logs.append(math.log(p))
            v *= p
    order = np.argsort(powers)
    powers = np.array(powers, dtype=np.int64)[order]
    logs = np.array(logs, dtype=np.float64)[order]
    parts = []
    b = 1
    while b**4 < x:
        a = np.arange(1, math.isqrt(x - b**4) + 1, dtype=np.int64)
        n = a * a + b**4
        parts.append(float(np.log(n[flags[n]].astype(np.float64)).sum()))
        pos = np.searchsorted(powers, n)
        hit = pos < powers.size
        hit[hit] = powers[pos[hit]] == n[hit]
        parts.append(float(logs[pos[hit]].sum()))
        b += 1
    return math.fsum(parts)


def kappa() -> float:
    """int_0^1 sqrt(1 - t^4) dt = Gamma(1/4) Gamma(3/2) / (4 Gamma(7/4))."""
    return math.gamma(0.25) * math.gamma(1.5) / (4.0 * math.gamma(1.75))


def predicted(x: int) -> float:
    """Main term (4/pi) kappa x^(3/4) of the prime-values count."""
    return 4.0 / math.pi * kappa() * x**0.75


# ---------------------------------------------------------------------------
# spins


def _odd_factors(r: int) -> list[int]:
    out, q = [], 3
    while q * q <= r:
        while r % q == 0:
            out.append(q)
            r //= q
        q += 2
    if r > 1:
        out.append(r)
    return out


def jacobi_euler(s: int, r: int) -> int:
    """(s/r) for odd r >= 1: the product over the prime factors q of r, with
    multiplicity, of Euler's criterion s^((q-1)/2) mod q."""
    out = 1
    for q in _odd_factors(r):
        e = pow(s % q, (q - 1) // 2, q)
        out *= -1 if e == q - 1 else e
    return out


def spin_sum(x: int, flags: np.ndarray) -> tuple[int, int]:
    """(sum of spins, count) over primes p = 1 (mod 4), p <= x.

    Brute-force two-squares search: every p = r^2 + s^2 <= x with r odd and
    s even, both positive, is found by scanning the grid; the spin of p is
    (s/r).
    """
    m = math.isqrt(x)
    r = np.arange(1, m + 1, 2, dtype=np.int64)[:, None]
    s = np.arange(2, m + 1, 2, dtype=np.int64)[None, :]
    n = r * r + s * s
    hit = (n <= x) & flags[np.minimum(n, x)]
    total = count = 0
    for ri, si in zip(*np.nonzero(hit)):
        total += jacobi_euler(int(s[0, si]), int(r[ri, 0]))
        count += 1
    return total, count


# ---------------------------------------------------------------------------
# sieve data of a^2 + c^4


def local_density(d: int) -> Fraction:
    """g(d) = #{(a, c) mod d : a^2 + c^4 = 0 (mod d)} / d^2."""
    a = np.arange(d, dtype=np.int64)
    sq = a * a % d
    roots = np.bincount(sq, minlength=d)
    return Fraction(int(roots[(-(sq * sq % d)) % d].sum()), d * d)


def divisible_pairs(x: int, d: int) -> int:
    """#{(a, c) in Z^2 : 0 < a^2 + c^4 <= x, d | a^2 + c^4}; d = 1 gives A(x)."""
    total = 0
    c = 0
    while c**4 <= x:
        a = np.arange(0, math.isqrt(x - c**4) + 1, dtype=np.int64)
        n = a * a + c**4
        hit = (n % d == 0) & (n > 0)
        total += (1 if c == 0 else 2) * (2 * int(hit[1:].sum()) + int(hit[0]))
        c += 1
    return total


def cubefree_up_to(D: int) -> list[int]:
    """Cubefree d <= D in increasing order."""
    flags = np.ones(D + 1, dtype=bool)
    flags[0] = False
    k = 2
    while k**3 <= D:
        flags[k**3 :: k**3] = False
        k += 1
    return [int(d) for d in np.nonzero(flags)[0]]


# ---------------------------------------------------------------------------
# identity suites


def G0_naive(z1: tuple[int, int], z2: tuple[int, int]) -> Fraction:
    """|D|^-1 #{(g1, g2) mod |D| : g1^2 z2 = g2^2 z1 (mod |D|)}, D = Im(conj z1 z2),
    by a double loop over (g1, g2) with the inner loop vectorized."""
    (r1, s1), (r2, s2) = z1, z2
    q = abs(r1 * s2 - r2 * s1)
    g2sq = np.arange(q, dtype=np.int64) ** 2 % q
    count = 0
    for g1 in range(q):
        h = g1 * g1 % q
        ok = ((h * r2 - g2sq * r1) % q == 0) & ((h * s2 - g2sq * s1) % q == 0)
        count += int(ok.sum())
    return Fraction(count, q)


def euler_phi(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def counts_cases(bound: int) -> int:
    """Cases of the `counts` suite: sum of phi(q) over odd q <= bound."""
    return sum(euler_phi(q) for q in range(1, bound + 1, 2))


def residues_cases(bound: int) -> int:
    """Cases of the `residues` suite: sum of (d + 1) over d <= bound."""
    return sum(d + 1 for d in range(1, bound + 1))


def _odd_primitive(bound: int) -> list[tuple[int, int]]:
    m = math.isqrt(bound) + 1
    return [
        (r, s)
        for r in range(-m, m + 1)
        for s in range(-m, m + 1)
        if (r * r + s * s) % 2 and r * r + s * s <= bound and math.gcd(r, s) == 1
    ]


def _coprime(z1: tuple[int, int], z2: tuple[int, int]) -> bool:
    # Z[i]/(z1) = Z/N1 for primitive z1, with i -> -r1/s1; z1 and z2 are
    # coprime iff the image of z2 is a unit.
    (r1, s1), (r2, s2) = z1, z2
    n1 = r1 * r1 + s1 * s1
    if n1 == 1:
        return True
    omega = -r1 * pow(s1, -1, n1) % n1
    return math.gcd((r2 + s2 * omega) % n1, n1) == 1


def admissible_pairs(bound: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Ordered pairs (z1, z2) of odd primitive Gaussian integers with norms
    <= bound, coprime, z1 = z2 (mod 8) and nonzero determinant: the domain
    of the G0 closed form, in no particular order."""
    by_class: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for z in _odd_primitive(bound):
        by_class.setdefault((z[0] % 8, z[1] % 8), []).append(z)
    return [
        (z1, z2)
        for group in by_class.values()
        for z1 in group
        for z2 in group
        if z1[0] * z2[1] - z2[0] * z1[1] and _coprime(z1, z2)
    ]


def transform_cases(pairs) -> int:
    """Cases of the `transform` suite: admissible pairs with both real parts
    odd and r1 r2 = 1 (mod 8), r1 r2 > 0."""
    return sum(
        1
        for (r1, _), (r2, _) in pairs
        if r1 % 2 and r2 % 2 and r1 * r2 > 0 and (r1 * r2) % 8 == 1
    )


def primary_primitive(bound: int) -> list[tuple[int, int]]:
    """Primary (r odd, s = r - 1 mod 4) primitive z with 0 < N(z) <= bound."""
    return [
        (r, s)
        for r, s in _odd_primitive(bound)
        if r % 2 and (s - r + 1) % 4 == 0
    ]


def multiplier_cases(bound: int) -> int:
    """Cases of the `multiplier` suite: pairs (w, z), w primary primitive and
    z = 1 (mod 2), norms <= bound, with Re(wz) != 0."""
    m = math.isqrt(bound) + 2
    zs = [
        (r, s)
        for r in range(-m, m + 1)
        for s in range(-m, m + 1)
        if r % 2 and s % 2 == 0 and r * r + s * s <= bound
    ]
    return sum(
        1 for u, v in primary_primitive(bound) for r, s in zs if u * r - v * s
    )


# ---------------------------------------------------------------------------


def selftest() -> None:
    """Hand cases; raises AssertionError on the first mismatch."""
    flags = prime_flags(1000)
    assert count_primes_1mod4(flags, 100) == 11
    assert count_primes_1mod4(flags, 4) == 0 and count_primes_1mod4(flags, 5) == 1
    assert pair_count(2) == 1 and pair_count(17) == 5  # (1,1); b=1: 4, b=2: 1
    # a^2 + b^4 <= 20: 2, 5, 10, 17 (b=1) and 17, 20 (b=2); Lambda: 2,5,17,17 prime
    assert math.isclose(lambda_sum(20, flags), 2 * math.log(17) + math.log(10))
    assert math.isclose(kappa(), 0.8740191847640, rel_tol=1e-12)
    assert jacobi_euler(2, 7) == 1 and jacobi_euler(3, 7) == -1 and jacobi_euler(5, 9) == 1
    assert spin_sum(5, flags) == (1, 1)  # 5 = 1 + 4, spin (2/1) = 1
    # 13 = 3^2 + 2^2: (2/3) = -1; 17 = 1 + 16: +1; 29 = 5^2 + 2^2: (2/5) = -1
    assert spin_sum(29, flags) == (0, 4)
    assert local_density(4) == Fraction(1, 4)
    assert local_density(1) == 1 and local_density(3) == Fraction(1, 9)
    assert local_density(5) == Fraction(9, 25)  # (1 + (1 - 1/5)) / 5
    assert divisible_pairs(1, 1) == 4  # (+-1, 0), (0, +-1)
    assert divisible_pairs(2, 2) == 4  # (+-1, +-1)
    assert cubefree_up_to(10) == [1, 2, 3, 4, 5, 6, 7, 9, 10]
    # D = 8: g1^2 = g2^2 (mod 8) on the squares {0: 2, 1: 4, 4: 2}, 24 / 8
    assert G0_naive((1, 0), (1, 8)) == 3
    assert counts_cases(300) == 18_233
    assert residues_cases(150) == 11_475
    assert not _coprime((1, 2), (-3, 4))  # -3 + 4i = (1 + 2i)^2
    assert _coprime((1, 2), (3, 4))  # 3 + 4i = (2 + i)^2, the other prime above 5


if __name__ == "__main__":
    selftest()
    print("oracles: self-tests passed")
