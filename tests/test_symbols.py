"""Character machinery: symbol values, reciprocity, multiplier rule."""

import random

import numpy as np
import pytest

from spinsieve import identities
from spinsieve.arith import jacobi
from spinsieve.gaussian import GaussianInt as G, conj, up_to_norm
from spinsieve.symbols import (
    dirichlet_symbol,
    dirichlet_symbol_via_root,
    epsilon_factor,
    epsilon_factor_sign_form,
    epsilon_factor_vec,
    jacobi_kubota,
    jacobi_kubota_vec,
    primary_gcd_cofactor,
    spin,
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


def test_primary_gcd_cofactor_checks_survive_python_O(monkeypatch):
    # both checks of the cofactor are raises, which python -O keeps
    from spinsieve import symbols

    monkeypatch.setattr(symbols, "ggcd", lambda a, b: G(3, 0))
    with pytest.raises(ValueError, match="does not divide"):
        primary_gcd_cofactor(G(-1, 2), G(3, 2))
    monkeypatch.setattr(symbols, "ggcd", lambda a, b: G(1, 0))  # the gcd is -1 + 2i
    with pytest.raises(ValueError, match="not primary primitive"):
        primary_gcd_cofactor(G(-1, 2), G(-1, -2))


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


def _units(parts):
    re, im = parts
    return [G(a, b) for a, b in zip(re.tolist(), im.tolist())]


def test_array_symbols_equal_scalar_oracles():
    # every (w, z) of the multiplier grid at bound 2000, w primary primitive
    # and z = 1 (mod 2): [w], [z] and [wz], and epsilon in both forms.  z = +-1
    # + si and z on the real axis are among them, and Re wz takes both signs;
    # z on the imaginary axis joins for the quadrant rule, which alone is
    # defined there
    ws = identities.primary_primitive(2000)
    zs = [z for z in up_to_norm(2000) if z.re % 2 and z.im % 2 == 0]
    axis = [G(0, s) for s in range(-44, 45) if s]
    assert {G(1, 0), G(-1, 0), G(1, 44), G(-43, 0)} <= set(zs)
    for group in (ws, zs):
        r, s = np.array([(z.re, z.im) for z in group]).T
        assert _units(jacobi_kubota_vec(r, s)) == [jacobi_kubota(z) for z in group]
    grid, n = zs + axis, len(zs)
    r, s = np.array([(z.re, z.im) for z in grid]).T
    signs = set()
    for w in ws:
        wz = [w * z for z in grid]
        a = np.array([p.re for p in wz])
        signs |= set(np.sign(a).tolist())
        keep = a != 0
        eps = epsilon_factor_vec(w.re, w.im, r[keep], s[keep])
        assert eps.tolist() == [epsilon_factor(w, z) for z, k in zip(grid, keep) if k], w
        if w.im:
            sf = epsilon_factor_vec(w.re, w.im, r[:n], s[:n], sign_form=True)
            assert sf.tolist() == [epsilon_factor_sign_form(w, z) for z in zs], w
        parts = jacobi_kubota_vec(a[:n], [p.im for p in wz[:n]])
        assert _units(parts) == [jacobi_kubota(p) for p in wz[:n]], w
    assert signs == {-1, 0, 1}
    with pytest.raises(ValueError):
        epsilon_factor_vec(3, 2, [1, 0], [4, 1], sign_form=True)  # Re z = 0
    with pytest.raises(ValueError):
        epsilon_factor_vec(1, 0, [1, 3], [4, 0], sign_form=True)  # Im w = 0
    with pytest.raises(ValueError):
        epsilon_factor_vec(1, 1, [3, 1], [1, 1])  # Re wz = 0 at 1 + i
    with pytest.raises(ValueError):
        epsilon_factor_vec(1, 2, 1 << 31, 1)  # Re wz would overflow int64
    m = (1 << 31) - 1
    for sign_form, oracle in ((False, epsilon_factor), (True, epsilon_factor_sign_form)):
        eps = epsilon_factor_vec([-m, 1, -1], [m, -m, -2], m, m, sign_form=sign_form)
        assert eps.tolist() == [oracle(w, G(m, m)) for w in (G(-m, m), G(1, -m), G(-1, -2))]
    with pytest.raises(ValueError):
        jacobi_kubota_vec([1, 2], [0, 1])  # even real part


def test_spin():
    assert spin(5) == 1
    assert spin(13) == -1
    assert spin(29) == -1
    with pytest.raises(ValueError):
        spin(7)
