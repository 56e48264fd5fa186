#!/usr/bin/env python3
"""The character zoo on Z[i] and the multiplier rule.

xi_w(z) = (Re wz / |w|^2) is a real character mod q = |w|^2 attached to a
primary primitive w; it obeys a clean reciprocity (z/w) = (w/z).  The
Jacobi-Kubota symbol [z] = i^((r-1)/2)(s/|r|) is quartic-valued and only
*nearly* multiplicative -- its defect under multiplication by w is exactly
the Dirichlet symbol:

    [wz] = eps(w, z) [w] [z] (z/w).

That defect is what converts spin sums into character sums.
"""

from spinsieve.gaussian import GaussianInt as G
from spinsieve.symbols import dirichlet_symbol, epsilon_factor, jacobi_kubota

w = G(-1, 2)  # primary primitive, norm 5
print(f"character table of xi_w for w = {w} (q = {w.norm()}):")
for z in (G(1, 0), G(0, 1), G(3, 2), G(1, 2), G(2, 1), G(-3, 4)):
    print(f"  xi({z!r:>9}) = {dirichlet_symbol(z, w):+d}")

print()
print("reciprocity on a few primary primitive pairs:")
for w1, z1 in ((G(-1, 2), G(3, -2)), (G(1, 4), G(-5, -2)), (G(3, -2), G(1, 4))):
    print(f"  ({z1}/{w1}) = {dirichlet_symbol(z1, w1):+d} = ({w1}/{z1}) = "
          f"{dirichlet_symbol(w1, z1):+d}")

print()
print("quartic symbol values:")
for z in (G(1, 0), G(3, 2), G(-1, 2), G(5, 4), G(7, 2), G(3, 3)):
    print(f"  [{z!r:>9}] = {complex(jacobi_kubota(z))}")

print()
print("multiplier rule in action:")
for w1, z1 in ((G(-1, 2), G(3, 2)), (G(1, 4), G(5, 2)), (G(3, -2), G(-1, 4))):
    lhs = jacobi_kubota(w1 * z1)
    ds = dirichlet_symbol(z1, w1)
    eps = epsilon_factor(w1, z1)
    rhs = G(eps * ds, 0) * jacobi_kubota(w1) * jacobi_kubota(z1)
    print(f"  [{w1} * {z1}] = {complex(lhs)}   "
          f"eps={eps:+d} [w][z](z/w) = {complex(rhs)}   "
          f"{'ok' if lhs == rhs else 'MISMATCH'}")
