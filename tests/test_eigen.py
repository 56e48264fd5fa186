"""Quadratic eigenvalues, spins, and their prime-weighted sums."""

import cmath
import math
import random

import pytest

from spinsieve.arith import primes_up_to, von_mangoldt
from spinsieve.eigen import (
    HeckeCharacter,
    TRIVIAL,
    hecke_lambda,
    lambda0,
    lambda_prime_sum,
    linear_form,
    psi_eval,
    quad_lambda,
    quad_lambda_coordinates,
    spin_sum,
)
from spinsieve.gaussian import GaussianInt as G
from spinsieve.identities import primary_primitive
from spinsieve.symbols import spin


def test_psi_eval():
    assert psi_eval(TRIVIAL, G(3, 7)) == 1
    assert psi_eval(HeckeCharacter(k=4), G(1, 0)) == pytest.approx(1.0)
    assert psi_eval(HeckeCharacter(twist=G(-1, 2)), G(0, 1)) == -1
    with pytest.raises(ValueError):
        psi_eval(TRIVIAL, G(0, 0))
    with pytest.raises(ValueError):
        psi_eval(HeckeCharacter(twist=G(-1, 2)), G(1, 1))  # even z
    with pytest.raises(ValueError):
        HeckeCharacter(twist=G(1, 2))  # not primary
    # unit-circle factor
    z = G(3, 4)
    v = psi_eval(HeckeCharacter(k=3), z)
    assert abs(v - cmath.exp(3j * math.atan2(4, 3))) < 1e-12


def test_hecke_lambda():
    assert hecke_lambda(5) == 2
    assert hecke_lambda(3) == 0
    for p in (13, 17, 29, 97):
        assert hecke_lambda(p) == 2
    assert hecke_lambda(2) == 0  # even n has no primary generator


def test_hecke_lambda_multiplicative():
    lam = {n: hecke_lambda(n).real for n in range(1, 10**4 + 1)}
    for m in range(1, 101):
        for n in range(1, 10**4 // m + 1):
            if math.gcd(m, n) == 1:
                assert lam[m * n] == pytest.approx(lam[m] * lam[n], abs=1e-9)


def test_quad_lambda_examples():
    assert quad_lambda(5) == pytest.approx(-2j)
    assert quad_lambda(3) == 0
    assert quad_lambda(2) == 0
    # triangle inequality against the representation count
    for n in range(1, 500):
        assert abs(quad_lambda(n)) <= hecke_lambda(n).real + 1e-9


def test_quad_lambda_forms_agree():
    twists = [None]
    seen = set()
    for w in primary_primitive(65):
        if w.norm() not in seen:
            seen.add(w.norm())
            twists.append(w)
    psis = [
        HeckeCharacter(k=k, twist=t) for k in (0, 1, -1, 4, -4) for t in twists
    ]
    # representable n get the full dual-route comparison ...
    for n in range(1, 10**4 + 1):
        from spinsieve.gaussian import primary_reps

        if not primary_reps(n):
            continue
        for psi in psis:
            a = quad_lambda(n, psi)
            b = quad_lambda_coordinates(n, psi)
            assert abs(a - b) < 1e-10, (n, psi)
    # ... non-representable n are sampled
    rng = random.Random(16)
    for _ in range(300):
        n = rng.randrange(1, 10**4)
        for psi in (TRIVIAL, psis[-1]):
            assert abs(
                quad_lambda(n, psi) - quad_lambda_coordinates(n, psi)
            ) < 1e-10


def test_lambda0():
    assert lambda0(13) == -1
    assert lambda0(65) == 2
    assert lambda0(3) == 0
    for p in primes_up_to(5000):
        p = int(p)
        if p % 4 == 1:
            assert lambda0(p) == spin(p)


def test_spin_sum_hand_case():
    assert spin_sum(30) == (0, 4)
    assert spin_sum(2) == (0, 0)
    s, c = spin_sum(10**5)
    assert c == sum(1 for p in primes_up_to(10**5) if p % 4 == 1)
    assert abs(s) <= (10**5) ** 0.75


def test_spin_sum_pinned():
    assert spin_sum(10**5) == (295, 4783)


def test_lambda_prime_sum_matches_direct():
    def direct(x, c=1, psi=TRIVIAL):
        tot = 0j
        for n in range(1, x + 1):
            L = von_mangoldt(n)
            if L:
                tot += L * quad_lambda(c * n, psi)
        return tot

    for x, c in ((30, 1), (200, 1), (150, 5)):
        assert lambda_prime_sum(x, c) == pytest.approx(direct(x, c), abs=1e-9)
    psi = HeckeCharacter(k=4, twist=G(-1, 2))
    assert lambda_prime_sum(100, 1, psi) == pytest.approx(direct(100, 1, psi), abs=1e-9)


def test_lambda_prime_sum_cancellation():
    # empirical lock-in: |sum_{n <= 1e6} Lambda(n) lam(n)| <= x^0.8
    v = lambda_prime_sum(10**6)
    assert abs(v) <= (10**6) ** 0.8


def test_linear_form():
    assert linear_form(10, 1, restricted=True) == linear_form(10, 1)
    # support: contributions need m n representable
    v = linear_form(50, 7)
    direct = sum(quad_lambda(7 * n) for n in range(1, 51))
    assert v == pytest.approx(direct, abs=1e-12)
    # magnitude sanity with the lock-in constant 5
    N, m = 10**4, 5
    from spinsieve.arith import tau

    bound = 5 * tau(m) ** 4 * math.sqrt(m) * N**0.75
    assert abs(linear_form(N, m)) <= bound
