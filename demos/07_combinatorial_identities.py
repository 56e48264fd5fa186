#!/usr/bin/env python3
"""Exact combinatorial decompositions: separation divisors and Vaughan.

Sorting the primes of a squarefree ell in descending order and dealing
them out in blocks of r produces a unique factorization ell = d m n whose
middle factors are recognized by interval conditions on the primes of d
alone.  That turns sums over smooth numbers into honest bilinear forms.
Vaughan's identity does the analogous job for Lambda(n).
"""

import random

from spinsieve.decomp import (
    prop_24_2_check,
    separate,
    squarefree_up_to,
    vaughan_terms,
)

print("separation triples at r = 2 (primes dealt: d gets top 2 + every 2nd):")
for ell in (30030, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19, 1155, 101, 6):
    t = separate(ell, 2)
    print(f"  ell = {ell:>9,} -> d = {t.d_sep:<9,} m = {t.m:<5} n = {t.n:<5}")

print()
print("triple-sum identity on random +-1 data (exact, rational weights):")
rng = random.Random(0)
for r in (2, 3):
    sup = squarefree_up_to(5000)
    f = {ell: rng.choice((-1, 1)) for ell in sup}
    lhs, rhs, eq = prop_24_2_check(f, 5000, r)
    print(f"  r = {r}: lhs = {lhs}, rhs = {rhs}, exact equality: {eq}")

print()
print("Vaughan's three terms at y = 10 (t1 - t2 + t3 = Lambda(n) for n > y):")
print("    n    t1         t2         t3         combination")
for n in (11, 12, 97, 128, 9991):
    t1, t2, t3 = vaughan_terms(n, 10)
    print(f"{n:>6} {t1:>10.6f} {t2:>10.6f} {t3:>10.6f} {t1 - t2 + t3:>12.6f}")
