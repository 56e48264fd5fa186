"""Z[i] layer: ring operations, primary normalization, factorization."""

import math

import numpy as np
import pytest

from spinsieve import gaussian
from spinsieve.arith import is_prime, prime_range, primes_up_to
from spinsieve.gaussian import (
    GaussianInt as G,
    conj,
    delta,
    gaussian_factorize,
    gaussian_reps,
    ggcd,
    is_primary,
    is_primitive,
    primary_associate,
    prime_points,
    primary_reps,
    rational_residue,
    two_squares,
    up_to_norm,
    up_to_norm_rows,
)

UNITS = (G(1, 0), G(0, 1), G(-1, 0), G(0, -1))


def test_ring_ops():
    assert G(1, 4).norm() == 17
    assert G(-1, 2) * G(3, 2) == G(-7, 4)
    assert conj(G(9, 4)) == G(9, -4)
    assert G(2, 3) + G(1, -1) == G(3, 2)
    assert G(2, 3) - G(1, -1) == G(1, 4)


@pytest.mark.parametrize("max_norm, min_norm", [(0, 1), (1, 1), (2, 2), (500, 1), (1000, 1), (2500, 9)])
def test_up_to_norm_rows_equal_the_sorted_scan(max_norm, min_norm):
    # the plain scan of the square, sorted by (norm, re, im)
    m = math.isqrt(max(max_norm, 0))
    want = sorted(
        (G(r, s) for r in range(-m, m + 1) for s in range(-m, m + 1) if min_norm <= r * r + s * s <= max_norm),
        key=lambda z: (z.norm(), z.re, z.im),
    )
    rows = up_to_norm_rows(max_norm, min_norm)
    assert rows.dtype == np.int64 and rows.shape == (len(want), 2)
    assert rows.tolist() == [[z.re, z.im] for z in want]
    assert up_to_norm(max_norm, min_norm) == want


def test_primary_associate_examples():
    assert primary_associate(G(1, 0)) == (G(1, 0), G(1, 0))
    assert primary_associate(G(2, 1)) == (G(-1, 2), G(0, 1))
    assert primary_associate(G(1, 4)) == (G(1, 4), G(1, 0))
    with pytest.raises(ValueError):
        primary_associate(G(1, 1))


def test_primary_uniqueness_exhaustive():
    # exactly one associate of each odd z with norm <= 1e4 is primary
    m = 100
    for r in range(-m, m + 1):
        for s in range(-m, m + 1):
            z = G(r, s)
            n = z.norm()
            if n == 0 or n > 10**4 or n % 2 == 0:
                continue
            assert sum(is_primary(u * z) for u in UNITS) == 1


def test_primary_products_stay_primary():
    import random

    rng = random.Random(5)
    prims = [
        G(r, s)
        for r in range(-60, 61)
        if r % 2
        for s in range(-60, 61)
        if is_primary(G(r, s))
    ]
    for _ in range(10**4):
        z1, z2 = rng.choice(prims), rng.choice(prims)
        assert is_primary(z1 * z2)


def test_is_primitive():
    assert is_primitive(G(1, 4))
    assert not is_primitive(G(3, 3))
    assert is_primitive(G(0, 1))


def test_ggcd():
    # the primary associate of 1+2i is -(1+2i); -1+2i generates the
    # conjugate ideal and does not divide 1+2i
    assert ggcd(G(5, 0), G(1, 2)) == G(-1, -2)
    assert ggcd(G(3, 0), G(7, 0)) == G(1, 0)
    # 2 divides both 4+2i = 2(2+i) and 2, so the gcd has norm 4
    assert ggcd(G(4, 2), G(2, 0)) == G(2, 0)
    with pytest.raises(ValueError):
        ggcd(G(0, 0), G(0, 0))
    # divisibility oracle on random pairs
    import random

    rng = random.Random(6)
    for _ in range(2000):
        z1 = G(rng.randrange(-40, 41), rng.randrange(-40, 41))
        z2 = G(rng.randrange(-40, 41), rng.randrange(-40, 41))
        if z1 == G(0, 0) and z2 == G(0, 0):
            continue
        d = ggcd(z1, z2)
        nd = d.norm()
        for z in (z1, z2):
            t = z * d.conj()
            assert t.re % nd == 0 and t.im % nd == 0  # d divides z


def test_two_squares():
    assert two_squares(5) == (1, 2)
    assert two_squares(13) == (3, 2)
    assert two_squares(97) == (9, 4)
    with pytest.raises(ValueError):
        two_squares(7)
    with pytest.raises(ValueError):
        two_squares(25)
    # uniqueness cross-check for all p <= 1e5
    for p in primes_up_to(10**5):
        p = int(p)
        if p % 4 != 1:
            continue
        r, s = two_squares(p)
        assert r * r + s * s == p and r % 2 == 1 and r > 0 and s > 0
        brute = [
            (a, math.isqrt(p - a * a))
            for a in range(1, math.isqrt(p) + 1, 2)
            if math.isqrt(p - a * a) ** 2 == p - a * a
        ]
        assert brute == [(r, s)]


def test_gaussian_factorize_examples():
    assert gaussian_factorize(G(1, 0)) == []
    assert gaussian_factorize(G(-1, 2)) == [(G(-1, 2), 1)]
    assert gaussian_factorize(G(-3, -4)) == [(G(-1, 2), 2)]
    with pytest.raises(ValueError):
        gaussian_factorize(G(1, 2))  # not primary


def test_gaussian_factorize_roundtrip():
    # every primary z with norm <= 1e5 reconstructs exactly
    m = math.isqrt(10**5)
    count = 0
    for r in range(-m - 1, m + 2, 2):
        for s in range(-m - 1, m + 2):
            z = G(r, s)
            if z.norm() > 10**5 or not is_primary(z):
                continue
            w = G(1, 0)
            for pi, e in gaussian_factorize(z):
                assert is_primary(pi)
                for _ in range(e):
                    w = w * pi
            assert w == z
            count += 1
    assert count > 30000


def test_primary_reps_against_brute():
    for n in range(1, 2000):
        assert primary_reps(n) == sorted(
            z for z in gaussian_reps(n) if is_primary(z)
        )


def _points_by_norm(lo, hi):
    # prime_points(lo, hi) as a list of (r, s), sorted by r^2 + s^2
    r, s = (a.tolist() for a in prime_points(lo, hi))
    return sorted(zip(r, s), key=lambda t: t[0] ** 2 + t[1] ** 2)


def test_prime_points_match_two_squares():
    # every p = 1 (mod 4) up to 1e5, and every such p in [1e9 - 2e5, 1e9]
    for lo, hi in ((1, 10**5 + 1), (10**9 - 2 * 10**5, 10**9 + 1)):
        ps = [p for p in prime_range(lo, hi).tolist() if p % 4 == 1]
        assert _points_by_norm(lo, hi) == [two_squares(p) for p in ps], (lo, hi)
    assert _points_by_norm(999999937, 999999938) == [(8929, 30336)]
    r, s = prime_points(2, 100)
    assert r.dtype == s.dtype == np.int64
    assert list(zip(r.tolist(), s.tolist())) == [  # lattice order: by r, then s
        (1, 2), (1, 4), (1, 6), (3, 2), (3, 8), (5, 2), (5, 4), (5, 6), (5, 8), (7, 2), (9, 4)
    ]


def test_prime_points_regime_edges():
    # windows that start or end on a prime point, the window [2, 3), one-wide
    # windows and windows with no prime p = 1 (mod 4)
    assert _points_by_norm(5, 6) == [(1, 2)]
    assert _points_by_norm(2, 6) == [(1, 2)]
    assert _points_by_norm(2, 5) == []
    assert _points_by_norm(5, 14) == [(1, 2), (3, 2)]
    assert _points_by_norm(6, 14) == [(3, 2)]
    assert _points_by_norm(13, 30) == [(3, 2), (1, 4), (5, 2)]
    assert _points_by_norm(14, 29) == [(1, 4)]
    for lo, hi in ((2, 3), (1, 2), (0, 5), (29, 29), (30, 20), (6, 13), (30, 37), (114, 127)):
        assert _points_by_norm(lo, hi) == [], (lo, hi)
    for p in (5, 13, 29, 97, 10**9 - 63):
        assert _points_by_norm(p, p + 1) == [two_squares(p)], p
        assert _points_by_norm(p + 1, p + 2) == [], p


def test_prime_points_chunk_boundary(monkeypatch):
    # chunks far smaller than a row of r split rows anywhere; the points are
    # the same for every chunk size
    lo, hi = 10**6 - 5000, 10**6 + 3000
    r, s = prime_points(lo, hi)
    assert r.size > 100 and (r[1:] == r[:-1]).sum() > 50  # rows hold several points
    for chunk in (1, 2, 3, 37, r.size, 4 * r.size):
        monkeypatch.setattr(gaussian, "_POINT_CHUNK", chunk)
        rc, sc = prime_points(lo, hi)
        assert rc.tolist() == r.tolist() and sc.tolist() == s.tolist(), chunk
        assert _points_by_norm(2, 200) == [two_squares(p) for p in range(2, 200)
                                           if p % 4 == 1 and is_prime(p)], chunk


def test_prime_points_int32_cap():
    # r^2 + s^2 is held in int32, so hi is capped at 2^31 - 1
    top = (1 << 31) - 1
    assert _points_by_norm(top - 100, top) == [
        two_squares(p) for p in prime_range(top - 100, top).tolist() if p % 4 == 1
    ]
    for hi in (top + 1, 1 << 32, 10**12):
        with pytest.raises(ValueError):
            prime_points(hi - 10, hi)


def test_delta():
    assert delta(G(1, 4), G(9, 4)) == -32
    assert delta(G(2, 7), G(2, 7)) == 0
    assert delta(G(1, 0), G(0, 1)) == 1


def test_rational_residue():
    assert rational_residue(G(1, 4), G(9, 4), 32) == 9
    assert rational_residue(G(3, 2), G(3, 2), 11) == 1
    assert rational_residue(G(1, 0), G(5, 0), 7) == 5
    with pytest.raises(ValueError):
        rational_residue(G(1, 2), G(1, 1), 5)  # norm 5 shares a factor with m
    with pytest.raises(ValueError):
        rational_residue(G(1, 0), G(0, 1), 3)  # i is not rational mod 3
    # componentwise re-verification on valid triples
    import random

    rng = random.Random(7)
    for _ in range(500):
        z1 = G(rng.randrange(-30, 31), rng.randrange(-30, 31))
        z2 = G(rng.randrange(-30, 31), rng.randrange(-30, 31))
        d = delta(z1, z2)
        if d == 0:
            continue
        m = abs(d)
        if math.gcd(z1.norm(), m) != 1:
            continue
        t = rational_residue(z1, z2, m)
        assert (z2.re - t * z1.re) % m == 0 and (z2.im - t * z1.im) % m == 0
