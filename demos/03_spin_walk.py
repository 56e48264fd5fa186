#!/usr/bin/env python3
"""Spin equidistribution of Gaussian primes.

Each prime p = 1 (mod 4) has a unique representation p = r^2 + s^2 with
r odd and r, s > 0; its spin is the Jacobi symbol (s/r).  Summed over
primes the spins cancel almost like a random walk: the partial sums stay
far below the sqrt-scale trivial envelope pi(x)/2.
"""

from spinsieve.arith import prime_range
from spinsieve.eigen import spin_walk
from spinsieve.symbols import spin

print("first spins:")
shown = 0
for p in prime_range(2, 250):
    p = int(p)
    if p % 4 == 1:
        print(f"  p = {p:>4} : spin {spin(p):+d}")
        shown += 1
        if shown >= 12:
            break

print()
print("x         sum of spins   primes counted   |sum|/x^0.75")
# one sweep of the segmented sieve, read at each checkpoint
for row in spin_walk([10**4, 10**5, 10**6]):
    x, total, count = row["x"], row["spin_sum"], row["prime_count"]
    print(f"{x:<9,} {total:>12,} {count:>16,} {abs(total) / x**0.75:>13.4f}")

print()
print("the exponent-conjecture scale is x^(1/2 + eps); even the crude")
print("x^0.75 envelope leaves orders of magnitude to spare at desk scale.")
