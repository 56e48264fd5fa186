"""Sieve data for a_n = #{a^2 + c^4 = n}: counts, densities, experiments."""

import math
from fractions import Fraction

import pytest

from spinsieve import arith as ar
from spinsieve import sieve as sv


def test_a_n_examples():
    assert sv.a_n(1) == 4
    assert sv.a_n(5) == 4
    assert sv.a_n(17) == 8
    assert sv.a_n(3) == 0


def test_A_examples_and_consistency():
    assert sv.A(16) == 24
    assert sv.A(1) == 4
    for x in (1, 2, 17, 100, 10**4):
        assert sv.A(x) == sum(sv.a_n(n) for n in range(1, x + 1))
    # asymptotic sanity at 1e6
    x = 10**6
    assert abs(sv.A(x) - 4 * sv.kappa_closed_form() * x**0.75) <= 10 * math.sqrt(x)


def test_A_d_additivity_oracle():
    x = 10**4
    an = [0] + [sv.a_n(n) for n in range(1, x + 1)]
    for d in range(1, 51):
        want = sum(an[n] for n in range(d, x + 1, d))
        assert sv.A_d(x, d) == want, d
    assert sv.A_d(x, 1) == sv.A(x)


def test_g_h_values():
    assert sv.g(5) == Fraction(9, 25)
    assert sv.g(4) == Fraction(1, 4)
    assert sv.h(5) == 1
    assert sv.g(1) == 1 and sv.h(1) == 1
    assert sv.g(3) == Fraction(1, 9)  # inert primes force p | a, p | b
    with pytest.raises(ValueError):
        sv.g(8)
    with pytest.raises(ValueError):
        sv.h(27)


def test_M_d_main_term():
    # |M_d - 4 g(d) kappa x^(3/4)| <= 10 h(d) sqrt(x); the factor 4 is the
    # same normalization as A(x) = 4 kappa x^(3/4) + O(sqrt x), since
    # M_1 = A exactly
    kap = sv.kappa_closed_form()
    for x in (10**4, 10**5, 10**6):
        assert sv.M_d(x, 1) == float(sv.A(x))
        for d in range(1, 101):
            try:
                gd = sv.g(d)
            except ValueError:
                continue  # not cubefree
            err = abs(sv.M_d(x, d) - 4 * float(gd) * kap * x**0.75)
            assert err <= 10 * float(sv.h(d)) * math.sqrt(x), (d, x)


def test_M_d_uses_even_restriction_mod_4():
    # rho(c^2; 4) vanishes for odd c, so only even c contribute
    x = 10**4
    total = sv.rho_b(0, 4) * 2 * math.isqrt(x)
    c = 1
    while c**4 <= x:
        total += 2 * sv.rho_b(c * c, 4) * (2 * math.isqrt(x - c**4) + 1)
        assert c % 2 == 1 and sv.rho_b(c * c, 4) == 0 or c % 2 == 0
        c += 1
    assert sv.M_d(x, 4) == total / 4


def test_remainder_scan():
    rows, summary = sv.remainder_scan(10**4, 100)
    assert rows[0].d == 1 and rows[0].r_d == 0.0
    assert all(r.r_d == float(Fraction(r.A_d) - r.g_d * summary["A_x"]) for r in rows)
    assert summary["sum_abs_r"] > 0
    # single-modulus scan
    rows1, s1 = sv.remainder_scan(500, 1)
    assert len(rows1) == 1 and rows1[0].r_d == 0.0
    # growth stays below x^0.7 across three decades
    for x in (10**4, 10**5):
        _, s = sv.remainder_scan(x, math.isqrt(x))
        assert s["sum_abs_r"] <= x**0.7


def test_constants():
    assert sv.kappa() == pytest.approx(0.874019, abs=1e-5)
    assert abs(sv.kappa() - sv.kappa_closed_form()) < 1e-9
    assert sv.kappa() >= 2.0 / 3.0  # integrand dominates 1 - t^2
    assert sv.H_partial(2) == 1.0
    assert abs(sv.H_partial(10**6) - 4.0 / math.pi) < 0.01


def test_theorem1_hand_case():
    rep = sv.theorem1_experiment(100)
    hand = (
        2 * math.log(2)
        + 2 * math.log(5)
        + 2 * math.log(17)
        + math.log(37)
        + math.log(41)
        + 2 * math.log(97)
    )
    assert rep.observed == pytest.approx(hand, abs=1e-9)
    assert rep.pair_count == 22
    assert rep.ratio == pytest.approx(0.76, abs=0.01)
    assert sv.theorem1_experiment(1).observed == 0.0


def test_theorem1_summation_order_pinned():
    # exact values: observed is summed per block of b-lines, then fsum adds
    # the blocks; any other order changes the last digits
    for x, observed, pairs in ((10**5, 6152.78818473758, 4741),
                               (10**7, 196399.4088382073, 153890)):
        rep = sv.theorem1_experiment(x)
        assert rep.observed == observed and rep.pair_count == pairs, x


def _lines(x):
    """(b, amax) for every b-line of a^2 + b^4 <= x with a, b >= 1."""
    b = 1
    while b**4 < x:
        yield b, math.isqrt(x - b**4)
        b += 1


def _root_sieve(x):
    return sv._RootSieve(x, ar.primes_up_to(math.isqrt(x)))


def test_root_sieve_equals_is_prime_on_every_line():
    # x = 2, 3: sqrt(x) < 2, so p = 2 must not remove n = 2
    for x in (2, 3, 4, 5, 17, 18, 100, 257, 10**4, 10**6):
        rs = _root_sieve(x)
        lines = list(_lines(x))
        assert lines, x
        for b, amax in lines:
            want = [ar.is_prime(a * a + b**4) for a in range(1, amax + 1)]
            assert rs.line(b, amax).tolist() == want, (x, b)


def test_root_sieve_above_2_32():
    x = 2**32 + 10**6
    lo = 2**32 - 10**5
    rs = _root_sieve(x)
    checked = 0
    for b, amax in _lines(x):
        if b <= 2:
            assert amax**2 + b**4 > 2**32, b  # the line crosses 2^32
        mask = rs.line(b, amax)
        a0 = math.isqrt(max(lo - b**4, 0)) + 1  # least a with a^2 + b^4 > lo
        for a in range(a0, amax + 1):
            assert mask[a - 1] == ar.is_prime(a * a + b**4), (b, a)
            checked += 1
    assert checked > 3000


def test_root_sieve_last_line():
    # the last line, b^4 close to x, holds one or two values
    for b in (1, 2, 3, 10, 57, 300):
        for gap in (1, 2, 3, 4, 8):
            x = b**4 + gap
            amax = math.isqrt(gap)
            assert max(bl for bl, _ in _lines(x)) == b and amax in (1, 2)
            want = [ar.is_prime(a * a + b**4) for a in range(1, amax + 1)]
            assert _root_sieve(x).line(b, amax).tolist() == want, (b, gap)


def test_theorem1_equals_direct_lambda_sum():
    for x in (2, 3, 4, 5, 17, 18, 100, 257, 10**4, 10**5):
        values = [a * a + b**4 for b, amax in _lines(x) for a in range(1, amax + 1)]
        direct = math.fsum(ar.von_mangoldt(n) for n in values)
        rep = sv.theorem1_experiment(x)
        assert rep.pair_count == len(values), x
        assert abs(rep.observed - direct) <= 1e-12 * direct, x


def test_factorization_identity():
    assert sv.factorization_identity_check(1, 5)
    assert sv.factorization_identity_check(2, 17)
    assert sv.factorization_identity_check(9, 1)
    for m, n in ((1, 1), (4, 9), (8, 25), (5, 13), (16, 45), (50, 49), (13, 85)):
        assert sv.factorization_identity_check(m, n), (m, n)
    with pytest.raises(ValueError):
        sv.factorization_identity_check(2, 4)
    with pytest.raises(ValueError):
        sv.factorization_identity_check(3, 6)


def test_g_axioms():
    rep = sv.g_axioms_report(10**5, checkpoints=(10**4,))
    assert rep.violations == []
    # g(p) = 1/p^2 exactly for inert p (both coordinates divisible by p)
    for p in (3, 7, 11, 19, 10007):
        assert sv.g(p) == Fraction(1, p * p)
    # Mertens-type stabilization between 1e4 and 1e5
    vals = dict(rep.mertens_tail)
    assert abs(vals[10**4] - vals[10**5]) < 0.01
