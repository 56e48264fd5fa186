"""Separation-divisor decomposition and Vaughan's identity."""

import bisect
import itertools
import math
import random
from fractions import Fraction

import pytest

from spinsieve.arith import divisors, von_mangoldt
from spinsieve.decomp import (
    SeparationTriple,
    _squarefree_up_to,
    gamma_minus,
    gamma_plus,
    identity_structure,
    kth_root,
    nu,
    prop_24_2_check,
    separate,
    vaughan_terms,
)


def test_kth_root():
    for x in (0, 1, 63, 64, 65, 10**6, 10**12):
        for k in (1, 2, 3, 4, 9):
            t = kth_root(x, k)
            assert t**k <= x < (t + 1) ** k


def test_kth_root_matches_brute_force():
    for k in range(1, 20):
        powers = list(itertools.takewhile(lambda p: p < 5000, (t**k for t in itertools.count())))
        for x in range(5000):
            assert kth_root(x, k) == bisect.bisect_right(powers, x) - 1, (x, k)


def test_separate_examples():
    t = separate(30030, 2)
    assert (t.d_sep, t.m, t.n) == (1430, 7, 3)
    t = separate(1, 2)
    assert (t.d_sep, t.m, t.n) == (1, 1, 1)
    t = separate(101, 3)
    assert (t.d_sep, t.m, t.n) == (101, 1, 1)
    with pytest.raises(ValueError):
        separate(12, 2)  # not squarefree


def test_separate_roundtrip_and_bounds():
    # ell = d m n, n <= m <= d n, m, n <= sqrt(ell), d^r <= ell p1^(r(r-1));
    # the SeparationTriple validator enforces all of these on construction
    for r in (2, 3, 4):
        for ell in _squarefree_up_to(10**6):
            t = separate(ell, r)
            assert t.d_sep * t.m * t.n == ell


def test_gamma_examples():
    assert gamma_plus(7, 1430, 2)
    assert gamma_minus(3, 1430, 2)
    assert not gamma_plus(17, 1430, 2)
    assert gamma_plus(1, 1, 2) and gamma_minus(1, 1, 2)


def test_gamma_uniqueness_exhaustive():
    # the canonical triple is the unique gamma-valid ordered factorization
    for r in (2, 3):
        for ell in _squarefree_up_to(10**5):
            t = separate(ell, r)
            found = []
            for d in divisors(ell):
                rest = ell // d
                for m in divisors(rest):
                    if gamma_plus(m, d, r) and gamma_minus(rest // m, d, r):
                        found.append((d, m, rest // m))
            assert found == [(t.d_sep, t.m, t.n)], (ell, r)


def test_nu():
    assert nu(30030, 6) == 3
    assert nu(1, 10) == 0
    assert nu(97, 96) == 1


def test_identity_random_signs():
    rng = random.Random(17)
    for r in (2, 3):
        sup = _squarefree_up_to(10**4)
        struct = None
        for _ in range(5):
            f = {ell: rng.choice((-1, 1)) for ell in sup}
            lhs, rhs, eq = prop_24_2_check(f, 10**4, r)
            assert eq and lhs == rhs


def test_identity_at_1e5():
    rng = random.Random(20)
    sup = _squarefree_up_to(10**5)
    for trial in range(10):
        f = {ell: rng.choice((-1, 1)) for ell in sup}
        lhs, rhs, eq = prop_24_2_check(f, 10**5, 2)
        assert eq and lhs == rhs, trial


def test_identity_single_point_and_primes():
    for r in (2, 3):
        lhs, rhs, eq = prop_24_2_check({30030: 1}, 10**5, r)
        assert eq
        # f supported on primes only: the split-off terms carry everything
        ps = [p for p in (2, 3, 5, 7, 11, 101, 9973) if p <= 10**4]
        lhs, rhs, eq = prop_24_2_check({p: 1 for p in ps}, 10**4, r)
        assert eq


def test_identity_real_valued():
    rng = random.Random(18)
    sup = _squarefree_up_to(3000)
    f = {ell: rng.uniform(-1, 1) for ell in sup}
    lhs, rhs, eq = prop_24_2_check(f, 3000, 2)
    assert eq and abs(lhs - complex(rhs).real) <= 1e-9


def test_smooth_restriction_matches_triple_sum():
    # for f supported on z-smooth squarefree ell the triple sum alone is exact
    from spinsieve.arith import factorize

    x, r = 10**4, 2
    struct = identity_structure(x, r)
    smooth = [
        ell
        for ell in _squarefree_up_to(x)
        if all(p <= struct.z for p, _ in factorize(ell).factors)
    ]
    rng = random.Random(19)
    f = {ell: rng.choice((-1, 1)) for ell in smooth}
    lhs = sum(f.values())
    rhs = sum(struct.c1.get(ell, 0) * v for ell, v in f.items())
    assert lhs == rhs
    # every smooth ell is hit exactly once by the triple sum
    assert all(struct.c1.get(ell, 0) == 1 for ell in smooth)


def test_vaughan_identity():
    for n in range(1, 10**4 + 1):
        for y in (10, 100, max(1, kth_root(n, 3))):
            t1, t2, t3 = vaughan_terms(n, y)
            want = von_mangoldt(n) if n > y else 0.0
            assert abs(t1 - t2 + t3 - want) < 1e-9, (n, y)


def test_vaughan_examples():
    t1, t2, t3 = vaughan_terms(101, 10)
    assert t1 == pytest.approx(math.log(101)) and t2 == 0 and t3 == 0
    t1, t2, t3 = vaughan_terms(12, 2)
    assert t1 == pytest.approx(math.log(2))
    assert t2 == 0
    assert t3 == pytest.approx(-math.log(2))


def test_kth_root_is_exact_threshold():
    # p > x^(1/r^2) and p > kth_root(x, r^2) agree on integers
    x, r = 10**4, 2
    z = kth_root(x, r * r)
    assert z == 10
    struct = identity_structure(x, r)
    assert struct.z == 10 and struct.D == 10**4
