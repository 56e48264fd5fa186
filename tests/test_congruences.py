"""Counting kernels: roots, local densities, pair counts, G-sums."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from spinsieve import identities
from spinsieve.arith import factorize, tau
from spinsieve.congruences import (
    G0_brute,
    G0_formula,
    G_sum,
    N2_brute,
    N_brute,
    N_formula,
    N_local,
    RootSet,
    n_sqrt,
    rho,
    rho_b,
    rho_exp,
    rho_exp_reduced,
    root_spacing_check,
    roots_minus_one,
)
from spinsieve.gaussian import GaussianInt as G, delta, root_to_representation


def test_roots_neg_square_from_factorization():
    from spinsieve.congruences import _roots_neg_square

    for d in range(1, 200):
        f = factorize(d)
        for ell in range(6):
            want = [nu for nu in range(d) if (nu * nu + ell * ell) % d == 0]
            assert _roots_neg_square(ell, f) == _roots_neg_square(ell, d) == want, (ell, d)


def test_roots_examples():
    assert roots_minus_one(5).roots == (2, 3)
    assert roots_minus_one(65).roots == (8, 18, 47, 57)
    assert roots_minus_one(12).roots == ()
    with pytest.raises(ValueError):
        RootSet(5, (1,))


def test_rho_matches_roots_exhaustive():
    for d in range(1, 10**5 + 1):
        assert rho(d) == len(roots_minus_one(d).roots), d


def test_rho_examples():
    assert rho(5) == 2 and rho(4) == 0 and rho(65) == 4 and rho(2) == 1


def test_rho_b_formula_vs_brute_exhaustive():
    # the residues suite counts rho_b(b, factorize(d)) against the squares
    # mod d for every b < d <= 2000; the int argument gives the same value
    assert identities.run("residues", 2000) == (sum(d + 1 for d in range(1, 2001)), 0, [])
    for d in range(1, 301):
        f = factorize(d)
        assert [rho_b(b, d) for b in range(d)] == [rho_b(b, f) for b in range(d)], d


def test_rho_b_examples():
    assert rho_b(2, 4) == 2 and rho_b(3, 9) == 3
    for d in (1, 2, 5, 13, 100):
        assert rho_b(1, d) == rho(d)


def test_rho_exp_examples():
    assert abs(rho_exp(0, 3, 9) - rho_b(3, 9)) < 1e-12
    v = rho_exp(1, 1, 5)
    assert abs(v - 2 * math.cos(4 * math.pi / 5)) < 1e-12
    assert rho_exp(1, 1, 3) == 0


def test_rho_exp_reduction_exhaustive():
    # formula route equals direct enumeration for all d <= 500, all k, ell;
    # FFT turns each (d, ell) into all-k values at once
    for d in range(1, 501):
        sq = {}
        for nu in range(d):
            sq.setdefault(nu * nu % d, []).append(nu)
        base = {}  # d' -> FFT of the root indicator of nu^2 + 1 mod d'
        for ell in range(1, d + 1):
            roots = sq.get((-ell * ell) % d, [])
            ind = np.zeros(d)
            for nu in roots:
                ind[nu] = 1.0
            direct = np.fft.fft(ind).conj()  # index k: sum e(+nu k/d)
            g = math.gcd(d, ell * ell)
            gamma = delta_ = 1
            for p, e in factorize(g).factors:
                gamma *= p ** (e % 2)
                delta_ *= p ** (e // 2)
            dp = d // g
            ellp = ell // (gamma * delta_)
            if dp not in base:
                ind2 = np.zeros(dp)
                for nu in range(dp):
                    if (nu * nu + 1) % dp == 0:
                        ind2[nu] = 1.0
                base[dp] = np.fft.fft(ind2).conj()
            for k in range(d):
                if k % delta_:
                    expect = 0.0
                else:
                    expect = delta_ * base[dp][(k // delta_ * ellp) % dp]
                assert abs(direct[k] - expect) < 1e-7, (k, ell, d)


def test_rho_exp_reduced_spot():
    rng = random.Random(13)
    for _ in range(500):
        d = rng.randrange(1, 400)
        ell = rng.randrange(1, d + 1)
        k = rng.randrange(0, d)
        assert abs(rho_exp(k, ell, d) - rho_exp_reduced(k, ell, d)) < 1e-9


def test_n_sqrt():
    assert n_sqrt(1, 5) == 2
    assert n_sqrt(9, 25) == 2
    for alpha, want in ((1, 1), (2, 2), (3, 4), (4, 4), (8, 4)):
        assert n_sqrt(1, 2**alpha) == want
    for b in range(1, 300):
        for a in (0, 1, 4, 7):
            assert n_sqrt(a, b) == sum(1 for w in range(b) if (w * w - a) % b == 0)


def test_N_examples():
    assert N_brute(1, 5) == 9
    assert N_brute(2, 5) == 1
    assert N_formula(1, 5) == 9
    assert N_formula(2, 5) == 1
    assert N_formula(1, 15) == 45
    with pytest.raises(ValueError):
        N_formula(1, 10)
    with pytest.raises(ValueError):
        N_formula(5, 15)


def test_N_brute_equals_double_loop():
    # every a mod q, even q and a sharing a factor with q included
    for q in range(1, 31):
        for a in range(-1, q):
            want = sum((a * g1 * g1 - g2 * g2) % q == 0 for g1 in range(q) for g2 in range(q))
            assert N_brute(a, q) == want, (a, q)


def test_N_formula_factorizes_once(monkeypatch):
    from spinsieve import arith, congruences

    calls = []
    real = arith.factorize

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "factorize", counted)
    monkeypatch.setattr(congruences, "factorize", counted)
    q = 3**6 * 5**2 * 7
    got = N_formula(2, q)
    assert calls == [q]
    monkeypatch.undo()
    assert got == N_brute(2, q)


def test_N_local():
    assert N_local(1, 5, 1) == Fraction(9, 5)
    assert N_local(1, 2, 5) == 5
    assert N_local(2, 5, 2) * 25 == N_brute(2, 25)
    for p in (3, 5, 7, 11, 13):
        for nu in range(1, 5):
            if p**nu > 4096:
                continue
            for a in (1, 2, 3, 5, 7, 11):
                if math.gcd(a, p) == 1:
                    assert N_local(a, p, nu) * p**nu == N_brute(a, p**nu)
    for nu in range(1, 13):
        assert N_local(1, 2, nu) * 2**nu == N_brute(1, 2**nu)
        assert N_local(17, 2, nu) * 2**nu == N_brute(17, 2**nu)
    with pytest.raises(ValueError):
        N_local(3, 2, 2)


def test_N2_and_lemma_9_1_bound():
    assert N2_brute(1, 1, 5) == 9
    assert N2_brute(0, 0, 7) == 49
    assert N2_brute(1, 2, 5) == 1
    for q in range(1, 501):
        sq = np.bincount((np.arange(q, dtype=np.int64) ** 2) % q, minlength=q).astype(
            np.float64
        )
        idx = np.arange(q, dtype=np.int64)
        C = np.empty((q, q))
        for a in range(q):
            C[a] = np.bincount(idx * a % q, weights=sq, minlength=q)
        N = C @ C.T  # N[a, b] = N2_brute(a, b, q), exact in float64
        aa, bb = np.meshgrid(idx, idx, indexing="ij")
        l = np.lcm(aa, bb)  # 0 when either argument is 0
        gcds = np.gcd(l, q)
        gcds[l == 0] = q
        bound = gcds.astype(np.float64) * q * tau(q)
        assert (N <= bound + 0.5).all(), q
    # spot-match the matrix method against the public function
    rng = random.Random(14)
    for _ in range(200):
        q = rng.randrange(1, 200)
        a, b = rng.randrange(q + 1), rng.randrange(q + 1)
        brute = sum(
            1
            for g1 in range(q)
            for g2 in range(q)
            if (a * g1 * g1 - b * g2 * g2) % q == 0
        )
        assert N2_brute(a, b, q) == brute


def test_G_sum():
    z1, z2 = G(1, 4), G(9, 4)
    assert abs(G_sum(0, 0, z1, z2) - float(G0_brute(z1, z2))) < 1e-9
    for h1, h2 in ((1, 0), (0, 1), (2, 3), (-1, 4)):
        v = G_sum(h1, h2, z1, z2)
        w = G_sum(-h1, -h2, z1, z2)
        assert abs(v - w.conjugate()) < 1e-12
    # exhaustive 32 x 32 oracle for one frequency
    q = 32
    t = 9
    total = 0j
    for g1 in range(q):
        for g2 in range(q):
            if (t * g1 * g1 - g2 * g2) % q == 0:
                total += cmath.exp(2j * cmath.pi * (g1 * 1 + g2 * 0) / q)
    assert abs(G_sum(1, 0, z1, z2) - total / q) < 1e-12
    with pytest.raises(ValueError):
        G_sum(0, 0, G(1, 0), G(3, 0))


def test_G_bound_random():
    # |G(h1,h2)| <= 4 tau3(Delta) |Delta|^-1 (Lambda, Delta) with the
    # componentwise gcd convention for the Gaussian Lambda
    from spinsieve.arith import tau_k
    from spinsieve.lattice import hypothesis_pairs

    pairs = list(hypothesis_pairs(800, delta_cap=256, limit=40))
    rng = random.Random(15)
    checked = 0
    while checked < 1000:
        z1, z2 = rng.choice(pairs)
        h1, h2 = rng.randrange(-6, 7), rng.randrange(-6, 7)
        d = abs(delta(z1, z2))
        lam_re = z1.re * h1 * h1 - z2.re * h2 * h2
        lam_im = z1.im * h1 * h1 - z2.im * h2 * h2
        gp = math.gcd(d, math.gcd(abs(lam_re), abs(lam_im)))
        val = abs(G_sum(h1, h2, z1, z2))
        assert val <= 4 * tau_k(d, 3) / d * gp + 1e-9, (z1, z2, h1, h2)
        checked += 1


def test_G0_spot_and_local_product():
    z1, z2 = G(1, 4), G(9, 4)
    assert G0_brute(z1, z2) == Fraction(5)
    assert G0_formula(z1, z2) == Fraction(5)
    # local-density product route agrees
    from spinsieve.gaussian import rational_residue

    # past int64 products, where the count cannot reach: an odd part of Delta
    # past 2^30, with coordinates below it and past it
    big = [(G(21331, 1584), G(53020227, 254015152)), (G(1, 8), G(25, 8 * 2**33 + 208))]
    for za, zb in [(G(1, 4), G(9, 4)), (G(-3, 2), G(5, 2)), (G(1, 2), G(9, 2))] + big:
        d = abs(delta(za, zb))
        t = rational_residue(za, zb, d)
        prod = Fraction(1)
        for p, e in factorize(d).factors:
            prod *= N_local(t, p, e)
        assert prod == G0_formula(za, zb), (za, zb)
        if (za, zb) not in big:
            assert prod == G0_brute(za, zb), (za, zb)


def test_G0_formula_domain():
    with pytest.raises(ValueError):
        G0_formula(G(1, 2), G(3, 2))  # z1 != z2 mod 8
    with pytest.raises(ValueError):
        G0_formula(G(3, 3), G(3, 11))  # not primitive
    with pytest.raises(ValueError):
        G0_formula(G(1, 0), G(1, 0))  # determinant zero
    # primitive, odd, congruent mod 8 and Delta = 136, but both divisible by 1+4i
    with pytest.raises(ValueError, match=r"\(z1, z2\) = 1 fails"):
        G0_formula(G(1, 4), G(-31, 12))
    with pytest.raises(ValueError, match="arguments must be odd"):
        G0_formula(G(1, 1), G(1, 9))
    # the norms 17 and 1105 share 17, but 1+4i and 1-4i are distinct primes:
    # coprimality is settled by the Gaussian gcd, not by the norms
    assert math.gcd(G(1, 4).norm(), G(33, 4).norm()) == 17
    assert G0_formula(G(1, 4), G(33, 4)) == G0_brute(G(1, 4), G(33, 4)) == 7


def test_root_to_representation():
    assert root_to_representation(2, 5) == (-1, 2)
    assert root_to_representation(3, 5) == (1, 2)
    assert root_to_representation(1, 2) == (1, 1)
    assert root_to_representation(0, 1) == (0, 1)
    with pytest.raises(ValueError):
        root_to_representation(1, 5)
    for d in range(2, 10**4 + 1):
        for nu in roots_minus_one(d).roots:
            r, s = root_to_representation(nu, d)
            assert r * r + s * s == d
            assert math.gcd(r, s) == 1
            assert -s < r <= s
            assert (nu * s - r) % d == 0


def test_root_spacing():
    for D in (100, 10**4):
        rep = root_spacing_check(D)
        assert rep.violations == [], D
    assert root_spacing_check(2).violations == []
