#!/usr/bin/env python3
"""Quadratic congruence kernels: roots, repulsion, and exact closed forms.

The roots of nu^2 + 1 = 0 (mod d) correspond one-to-one with primitive
representations d = r^2 + s^2 (-s < r <= s) through nu s = r (mod d), and
the fractions nu/d repel each other at scale 1/(4 sqrt(d1 d2)) -- much
farther apart than the 1/(d1 d2) one would naively expect.

The pair counts N(a; q) = #{a g1^2 = g2^2 (mod q)} admit the divisor-sum
closed form q sum_{d | q} phi(d)/d (a/d), and the zero-frequency density
G0 of the determinant congruence has an analogous closed form, verified
here against raw enumeration.
"""

from fractions import Fraction

from spinsieve.congruences import (
    G0_brute,
    G0_formula,
    N_brute,
    N_formula,
    root_spacing_check,
    roots_minus_one,
)
from spinsieve.gaussian import GaussianInt as G, root_to_representation

print("=== roots of nu^2 + 1 and two-squares representations ===")
for d in (5, 13, 25, 65, 985):
    rs = roots_minus_one(d).roots
    reps = [root_to_representation(nu, d) for nu in rs]
    print(f"d = {d:>4}: roots {rs} -> (r, s) {reps}")

print()
print("=== root repulsion in the window (8D/9, D] ===")
for D in (100, 1000, 10**4):
    rep = root_spacing_check(D)
    print(f"D = {D:>6}: {rep.roots} roots, {rep.pairs_checked} pairs checked, "
          f"{len(rep.violations)} violations")

print()
print("=== N(a; q): closed form vs count ===")
for a, q in ((1, 5), (2, 5), (1, 15), (7, 45), (4, 225)):
    print(f"N({a}; {q}) = {N_brute(a, q):>5}   closed form {N_formula(a, q):>5}")

print()
print("=== zero-frequency density of the determinant congruence ===")
for z1, z2 in ((G(1, 4), G(9, 4)), (G(-3, 2), G(5, 2)), (G(3, 2), G(3, 10))):
    b, f = G0_brute(z1, z2), G0_formula(z1, z2)
    print(f"z1 = {z1}, z2 = {z2}: enumeration {b} = divisor sum {f}"
          f"   ({'ok' if b == f else 'MISMATCH'})")
assert G0_brute(G(1, 4), G(9, 4)) == Fraction(5)
