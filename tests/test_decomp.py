"""Separation-divisor decomposition and Vaughan's identity."""

import bisect
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from spinsieve import decomp
from spinsieve.arith import _smallest_prime_factors, divisors, factorize, mobius, von_mangoldt
from spinsieve.decomp import (
    IdentityStructure,
    SeparationTriple,
    gamma_minus,
    gamma_plus,
    identity_structure,
    kth_root,
    nu,
    prop_24_2_check,
    separate,
    squarefree_up_to,
    vaughan_check,
    vaughan_term_arrays,
    vaughan_terms,
)


def test_kth_root():
    # x past 2^1024 has no float root, and at 3^104 the float square root is
    # 3.6e8 below the integer one
    for x in (0, 1, 63, 64, 65, 10**6, 10**12, 3**100, 3**104, 10**400, 2**1100):
        for k in (1, 2, 3, 4, 7, 9):
            t = kth_root(x, k)
            assert t**k <= x < (t + 1) ** k, (x, k)


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
        for ell in squarefree_up_to(10**6):
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
        for ell in squarefree_up_to(10**5):
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


def test_split_off_weights_equal_nu_weights():
    # w2[ell] = sum over p | ell, p > z, ell / p > z of 1 / (1 + nu(ell / p, z))
    x = 10**4
    for r in (2, 3):
        struct = identity_structure(x, r)
        z = struct.z
        want = {}
        for ell in squarefree_up_to(x):
            for p, _ in factorize(ell).factors:
                if p > z and ell // p > z:
                    want[ell] = want.get(ell, Fraction(0)) + Fraction(1, 1 + nu(ell // p, z))
        got = {ell: Fraction(k[1], k[2]) for ell, k in struct.key.items() if k[1]}
        assert got == want, r
        assert all(math.gcd(k[1], k[2]) == 1 for k in struct.key.values()), r  # lowest terms


def test_identity_random_signs():
    rng = random.Random(17)
    for r in (2, 3):
        sup = squarefree_up_to(10**4)
        struct = None
        for _ in range(5):
            f = {ell: rng.choice((-1, 1)) for ell in sup}
            lhs, rhs, eq = prop_24_2_check(f, 10**4, r)
            assert eq and lhs == rhs


def test_prop_24_2_trials_draw_in_the_documented_order(monkeypatch):
    # Random(seed), then one choice((-1, 1)) per squarefree ell ascending, per
    # trial; every draw of +-1 has the same sum, so f itself is compared
    real, seen = prop_24_2_check, []

    def record(f, x, r):
        seen.append(list(f.items()))
        return real(f, x, r)

    monkeypatch.setattr(decomp, "prop_24_2_check", record)
    for x, r, cases, seed in ((300, 2, 3, 5), (2000, 3, 2, 60)):
        rng = random.Random(seed)
        want, fs = [], []
        for _ in range(cases):
            f = {ell: rng.choice((-1, 1)) for ell in squarefree_up_to(x)}
            fs.append(list(f.items()))
            want.append(real(f, x, r))
        seen.clear()
        assert list(decomp.prop_24_2_trials(x, r, cases, seed)) == want, (x, r)
        assert seen == fs, (x, r)
    with pytest.raises(ValueError):
        next(decomp.prop_24_2_trials(10, 1, 1, 0))


def test_identity_at_1e5():
    rng = random.Random(20)
    sup = squarefree_up_to(10**5)
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


def test_identity_rejects_support_outside_squarefree():
    for f in ({12: 1}, {101: 1}, {1: 1, 4: 1}):
        with pytest.raises(ValueError, match="squarefree ell <= x"):
            prop_24_2_check(f, 100, 2)


def test_identity_real_valued():
    rng = random.Random(18)
    sup = squarefree_up_to(3000)
    f = {ell: rng.uniform(-1, 1) for ell in sup}
    lhs, rhs, eq = prop_24_2_check(f, 3000, 2)
    assert eq and abs(lhs - complex(rhs).real) <= 1e-9


def _compared_exactly(monkeypatch, values):
    # One coefficient is 1 + 1e-12, so the exact comparison fails and the
    # 1e-9 one passes: equal tells which one prop_24_2_check made.
    key = {1: (1, 0, 1), 2: (1, 1, 10**12)}
    monkeypatch.setattr(decomp, "identity_structure",
                        lambda x, r: IdentityStructure(x=x, r=r, z=1, D=1, key=key))
    lhs, rhs, eq = prop_24_2_check(dict(zip(key, values)), 2, 2)
    assert abs(complex(lhs) - complex(rhs)) <= 1e-9
    return not eq


def test_identity_integer_valued_floats_compare_exactly(monkeypatch):
    for values in ((1.0, 1.0), (1, -1.0), (Fraction(1, 3), 2.0), (3, 4), (Fraction(1, 3), 1)):
        assert _compared_exactly(monkeypatch, values), values
    for values in ((0.5, 1.0), (1, 0.5), (Fraction(1, 3), 1e-3)):
        assert not _compared_exactly(monkeypatch, values), values


def test_identity_complex_values_compare_to_tolerance(monkeypatch):
    for values in ((1 + 0j, 1), (1j, 2.0), (Fraction(1, 2), 1 - 1j)):
        assert not _compared_exactly(monkeypatch, values), values
    monkeypatch.undo()
    rng = random.Random(19)
    f = {ell: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for ell in squarefree_up_to(3000)}
    lhs, rhs, eq = prop_24_2_check(f, 3000, 2)
    assert eq and abs(lhs - complex(rhs)) <= 1e-9


def test_identity_numpy_scalars(monkeypatch):
    # numpy integers are compared to 1e-9, also when their sum is a Fraction;
    # numpy floats are floats, exact when integer-valued
    for values in ((np.int64(1), np.int64(1)), (np.int64(1), 1), (np.int64(1), Fraction(1, 2)),
                   (Fraction(1, 2), np.int32(1)), (np.float64(0.5), 1), (np.bool_(True), 1)):
        assert not _compared_exactly(monkeypatch, values), values
    for values in ((np.float64(1.0), 1), (np.float64(2.0), np.float64(-1.0))):
        assert _compared_exactly(monkeypatch, values), values
    monkeypatch.undo()
    rng = random.Random(21)
    f = {ell: np.int64(rng.choice((-1, 1))) for ell in squarefree_up_to(3000)}
    lhs, rhs, eq = prop_24_2_check(f, 3000, 2)
    assert eq and lhs == rhs


def test_smooth_restriction_matches_triple_sum():
    # every z-smooth squarefree ell is hit exactly once by the triple sum and
    # by no split-off term, so for f supported on them the triple sum alone
    # is exact
    x = 10**4
    for r in (2, 3):
        struct = identity_structure(x, r)
        smooth = [
            ell
            for ell in squarefree_up_to(x)
            if all(p <= struct.z for p, _ in factorize(ell).factors)
        ]
        assert len(smooth) == {2: 16, 3: 2}[r]  # z = 10 and z = 2
        assert all(struct.key[ell] == (1, 0, 1) for ell in smooth), r


def test_vaughan_identity():
    for n in range(1, 10**4 + 1):
        for y in (10, 100, max(1, kth_root(n, 3))):
            t1, t2, t3 = vaughan_terms(n, y)
            want = von_mangoldt(n) if n > y else 0.0
            assert abs(t1 - t2 + t3 - want) < 1e-9, (n, y)


def test_vaughan_terms_equal_divisor_walk():
    for n in range(1, 3001):
        divs = divisors(n)
        mu = {d: mobius(d) for d in divs}
        lam = {d: von_mangoldt(d) for d in divs}
        for y in (1, 2, 10, 100, 3000):
            t1 = math.fsum(mu[a] * math.log(n / a) for a in divs if a <= y)
            t2 = math.fsum(
                mu[a] * lam[b] for a in divs if a <= y for b in divisors(n // a) if b <= y
            )
            t3 = math.fsum(
                mu[a] * lam[b] for a in divs if a > y for b in divisors(n // a) if b > y
            )
            assert vaughan_terms(n, y) == (t1, t2, t3), (n, y)


def test_mobius_mangoldt_tables_equal_scalar_functions():
    mu, lam = decomp._mobius_mangoldt(20000)
    assert not (mu.flags.writeable or lam.flags.writeable)
    assert mu[0] == 0 and lam[0] == 0
    assert mu[1:].tolist() == [mobius(n) for n in range(1, 20001)]
    assert lam[1:].tolist() == [von_mangoldt(n) for n in range(1, 20001)]


def test_vaughan_term_arrays_equal_vaughan_terms():
    for y in (1, 2, 10, 100, 3000):
        arrays = vaughan_term_arrays(3000, y)
        assert all(a.shape == (3001,) and a[0] == 0 for a in arrays)
        for n in range(1, 3001):
            got = [a[n] for a in arrays]
            assert all(abs(g - w) <= 1e-12 for g, w in zip(got, vaughan_terms(n, y))), (n, y)
    with pytest.raises(ValueError):
        vaughan_term_arrays(10, 0)


def _plain_vaughan_check(n_max, mu, lam):
    # vaughan_check one (n, y) at a time, by divisor walks over the tables
    checked, violations, first = 0, 0, []
    for n in range(1, n_max + 1):
        divs = divisors(n)
        for y in (10, 100):
            t1 = sum(mu[a] * math.log(n // a) for a in divs if a <= y)
            t2 = sum(mu[a] * lam[b] for a in divs if a <= y for b in divisors(n // a) if b <= y)
            t3 = sum(mu[a] * lam[b] for a in divs if a > y for b in divisors(n // a) if b > y)
            checked += 1
            if abs(t1 - t2 + t3 - (lam[n] if n > y else 0.0)) > 1e-9:
                violations += 1
                if len(first) < 3:
                    first.append((n, y))
    return checked, violations, first


def test_vaughan_check_reports_injected_lambda_faults_like_a_plain_loop(monkeypatch):
    assert vaughan_check(0) == (0, 0, []) and vaughan_check(1) == (2, 0, [])
    mu, lam = decomp._mobius_mangoldt(400)
    assert vaughan_check(400) == _plain_vaughan_check(400, mu, lam) == (800, 0, [])
    # faults at a prime power above both y, at a prime power between them,
    # and at a composite, which the sieves then read as a prime power
    bad = lam.copy()
    bad[[101, 49, 12]] += (0.5, 1.0, 0.25)
    monkeypatch.setattr(decomp, "_mobius_mangoldt", lambda n_max: (mu[: n_max + 1], bad[: n_max + 1]))
    got = vaughan_check(400)
    assert got == _plain_vaughan_check(400, mu, bad)
    assert got[1] > 3 and got[2][0] == (12, 10)


def test_vaughan_terms_factorizes_once(monkeypatch):
    from spinsieve import arith, decomp

    calls = []
    real = arith.factorize

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "factorize", counted)
    monkeypatch.setattr(decomp, "factorize", counted)
    n = 2**3 * 3**2 * 5 * 7 * 11
    for y in (1, 10, 100, n):
        calls.clear()
        t1, t2, t3 = vaughan_terms(n, y)
        assert calls == [n], y
        assert abs(t1 - t2 + t3) < 1e-9, y  # Lambda(n) = 0


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


def test_smallest_prime_factor_sieve_equals_factorize():
    spf = _smallest_prime_factors(20000)
    assert len(spf) == 20001
    assert all(spf[n] == factorize(n).factors[0][0] for n in range(2, 20001))
