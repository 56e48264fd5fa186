"""Character machinery: symbol values, reciprocity, multiplier rule."""

import math
import random

import numpy as np
import pytest

from spinsieve.arith import INT64_MOD_MAX, jacobi, prime_range
from spinsieve.gaussian import GaussianInt as G, conj, is_primitive, up_to_norm
from spinsieve.identities import primary_primitive
from spinsieve.symbols import (
    dirichlet_symbol,
    dirichlet_symbol_via_root,
    epsilon_factor,
    jacobi_kubota,
    primary_gcd_cofactor,
    spin,
    spin_vec,
)


def jacobi_table(q):
    # multiplicative fill: jacobi(a, q) for 0 <= a < q
    if q == 1:
        return np.ones(1, dtype=np.int8)
    t = np.zeros(q, dtype=np.int8)
    t[1] = 1
    spf = np.zeros(q, dtype=np.int64)
    for p in range(2, q):
        if spf[p] == 0:
            spf[p::p] = np.where(spf[p::p] == 0, p, spf[p::p])
    jp = {}
    for a in range(2, q):
        p = int(spf[a])
        if p not in jp:
            jp[p] = jacobi(p, q)
        t[a] = jp[p] * t[a // p]
    return t


def test_jacobi_kubota_reference_exhaustive():
    # [z] is 0 or a fourth root of unity, equal to i^((r-1)/2) (s/|r|) taken
    # in complex arithmetic, for every z with odd real part and norm <= 2000
    units = {0j, 1 + 0j, 1j, -1 + 0j, -1j}
    checked = 0
    for z in up_to_norm(2000):
        r, s = z.re, z.im
        if r % 2 == 0:
            continue
        jk = complex(jacobi_kubota(z))
        assert jk in units, z
        assert jk == 1j ** ((r - 1) // 2 % 4) * jacobi(s, abs(r)), z
        checked += 1
    assert checked > 3000


def test_dirichlet_symbol_examples():
    w = G(-1, 2)
    assert dirichlet_symbol(G(1, 0), w) == 1
    assert dirichlet_symbol(G(-1, 0), w) == 1
    assert dirichlet_symbol(G(0, 1), w) == -1  # norm 5 = 5 (mod 8)
    assert dirichlet_symbol(G(3, 2), w) == -1
    with pytest.raises(ValueError):
        dirichlet_symbol(G(1, 0), G(1, 2))  # not primary
    with pytest.raises(ValueError):
        dirichlet_symbol(G(1, 0), G(3, 0))  # not primitive


def test_dirichlet_symbol_vanishing(pp2000):
    from spinsieve.gaussian import ggcd

    rng = random.Random(8)
    for _ in range(3000):
        w = rng.choice(pp2000)
        z = G(rng.randrange(-30, 31), rng.randrange(-30, 31))
        if z == G(0, 0):
            continue
        val = dirichlet_symbol(z, w)
        assert (val == 0) == (ggcd(w, conj(z)).norm() != 1)


def test_dirichlet_symbol_via_root_examples():
    assert dirichlet_symbol_via_root(G(1, 0), 5, 2) == 1
    assert dirichlet_symbol_via_root(G(0, 1), 5, 2) == -1
    assert dirichlet_symbol_via_root(G(3, 2), 5, 2) == -1
    with pytest.raises(ValueError):
        dirichlet_symbol_via_root(G(1, 0), 5, 1)


def test_definition_equivalence_heavy():
    # three constructions of xi_w agree for all primary primitive w with
    # norm <= 1e4, z on the grid |re|, |im| <= 50
    rr, ss = np.meshgrid(np.arange(-50, 51), np.arange(-50, 51), indexing="ij")
    for w in primary_primitive(10**4):
        q = w.norm()
        jt = jacobi_table(q)
        u, v = w.re, w.im
        omega = (-v * pow(u, -1, q)) % q
        via_root = jt[(rr + omega * ss) % q]
        via_re = jt[(u * rr - v * ss) % q]
        assert (via_root == via_re).all(), w
    # spot-check the tables against the public functions
    rng = random.Random(9)
    for w in primary_primitive(200):
        q = w.norm()
        omega = (-w.im * pow(w.re, -1, q)) % q
        for _ in range(20):
            z = G(rng.randrange(-50, 51), rng.randrange(-50, 51))
            assert dirichlet_symbol(z, w) == dirichlet_symbol_via_root(z, q, omega)


def test_periodicity_multiplicativity_exhaustive():
    # period q in both coordinates and complete multiplicativity, for all
    # primary primitive w with norm <= 2000 on grid-sampled z
    rng = random.Random(10)
    for w in primary_primitive(2000):
        q = w.norm()
        for _ in range(30):
            z1 = G(rng.randrange(-40, 41), rng.randrange(-40, 41))
            z2 = G(rng.randrange(-40, 41), rng.randrange(-40, 41))
            assert dirichlet_symbol(z1 + G(q, 0), w) == dirichlet_symbol(z1, w)
            assert dirichlet_symbol(z1 + G(0, q), w) == dirichlet_symbol(z1, w)
            assert (
                dirichlet_symbol(z1 * z2, w)
                == dirichlet_symbol(z1, w) * dirichlet_symbol(z2, w)
            )


def test_norm_relation_exhaustive():
    rng = random.Random(11)
    for w in primary_primitive(2000):
        q = w.norm()
        wc = conj(w)
        for _ in range(25):
            z = G(rng.randrange(-40, 41), rng.randrange(-40, 41))
            if z == G(0, 0):
                continue
            assert dirichlet_symbol(z, w) * dirichlet_symbol(z, wc) == jacobi(
                z.norm() % q, q
            )


def test_product_law_random(pp2000):
    rng = random.Random(12)
    for _ in range(10**4):
        w1, w2 = rng.choice(pp2000), rng.choice(pp2000)
        z = G(rng.randrange(-40, 41), rng.randrange(-40, 41))
        if z == G(0, 0):
            continue
        e, cof = primary_gcd_cofactor(w1, w2)
        d = e.norm()
        lhs = dirichlet_symbol(z, w1) * dirichlet_symbol(z, w2)
        assert lhs == jacobi(z.norm() % d, d) * dirichlet_symbol(z, cof)
        assert lhs == dirichlet_symbol(z, e) * dirichlet_symbol(
            z, conj(e)
        ) * dirichlet_symbol(z, cof)


def test_primary_gcd_cofactor_examples():
    e, cof = primary_gcd_cofactor(G(-1, 2), G(-1, 2))
    assert e == G(1, 0) and cof == G(-1, 2) * G(-1, 2)
    e, cof = primary_gcd_cofactor(G(-1, 2), G(-1, -2))
    assert e == G(-1, 2) and cof == G(1, 0)
    e, cof = primary_gcd_cofactor(G(-1, 2), G(3, 2))
    assert e == G(1, 0) and cof.norm() == 5 * 13


def test_jacobi_kubota_examples():
    assert jacobi_kubota(G(1, 0)) == G(1, 0)
    assert jacobi_kubota(G(3, 2)) == G(0, -1)
    assert jacobi_kubota(G(-1, 2)) == G(0, -1)
    assert jacobi_kubota(G(3, 3)) == G(0, 0)  # not primitive
    with pytest.raises(ValueError):
        jacobi_kubota(G(2, 1))


def test_epsilon_factor_examples():
    assert epsilon_factor(G(-1, 2), G(3, 2)) == 1
    assert epsilon_factor(G(1, 2), G(3, 2)) == 1  # everything positive
    # w in the third quadrant: (u, v)_inf = -1, and [wz] = 1 needs the -1
    assert epsilon_factor(G(-1, -2), G(3, 2)) == -1
    with pytest.raises(ValueError):
        epsilon_factor(G(1, 1), G(1, 1))  # Re(wz) = 0


def test_spin():
    assert spin(5) == 1
    assert spin(13) == -1
    assert spin(29) == -1
    with pytest.raises(ValueError):
        spin(7)


def test_spin_vec_matches_spin():
    # every p = 1 (mod 4) up to 1e6, and every such p in [1e9 - 2e6, 1e9]
    for lo, hi in ((1, 10**6 + 1), (10**9 - 2 * 10**6, 10**9 + 1)):
        ps = prime_range(lo, hi)
        ps = ps[ps % 4 == 1]
        assert spin_vec(ps).tolist() == [spin(p) for p in ps.tolist()]
    assert spin_vec(np.array([5, 13, 29])).tolist() == [1, -1, -1]
    assert spin_vec(np.empty(0, dtype=np.int64)).size == 0
    with pytest.raises(ValueError):
        spin_vec([5, 4 * INT64_MOD_MAX + 1])


def test_transform_identity_exhaustive():
    # (z2/z1 / |Delta|) = (s1/|r1|)(s2/|r2|) under the coprimality,
    # congruence mod 8, and 0 < r1 r2 = 1 (mod 8) hypotheses
    from spinsieve.arith import jacobi_extended
    from spinsieve.gaussian import delta, ggcd, rational_residue

    zs = [z for z in up_to_norm(800) if z.re % 2 and z.im % 2 == 0 and is_primitive(z)]
    checked = 0
    for z1 in zs:
        for z2 in zs:
            if (z1.re - z2.re) % 8 or (z1.im - z2.im) % 8:
                continue
            rr = z1.re * z2.re
            if rr <= 0 or rr % 8 != 1:
                continue
            d = delta(z1, z2)
            if d == 0 or ggcd(z1, z2).norm() != 1:
                continue
            t = rational_residue(z1, z2, abs(d))
            lhs = jacobi_extended(t, abs(d))
            rhs = jacobi(z1.im, abs(z1.re)) * jacobi(z2.im, abs(z2.re))
            assert lhs == rhs, (z1, z2)
            checked += 1
    assert checked > 1000
