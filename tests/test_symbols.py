"""Character machinery: symbol values, reciprocity, multiplier rule."""

import random

import numpy as np
import pytest

from spinsieve import identities
from spinsieve.arith import INT64_MOD_MAX, jacobi, prime_range
from spinsieve.gaussian import GaussianInt as G, conj, up_to_norm
from spinsieve.symbols import (
    dirichlet_symbol,
    dirichlet_symbol_via_root,
    epsilon_factor,
    jacobi_kubota,
    primary_gcd_cofactor,
    spin,
    spin_vec,
)


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
    # the laws suite for every primary primitive w with norm <= 1e4: the root
    # form on the grid |re|, |im| <= 50, and 3 seeded z per w through the
    # public symbols; 1e4 seeded product and lower-entry cases
    checked, violations, first = identities.run("laws", 10**4, 10**4, 9)
    assert violations == 0, first
    assert checked > 32_510_587


def test_periodicity_multiplicativity_exhaustive():
    # period q in both coordinates and complete multiplicativity, for all
    # primary primitive w with norm <= 2000 on grid-sampled z
    rng = random.Random(10)
    for w in identities.primary_primitive(2000):
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
