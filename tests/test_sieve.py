"""Sieve data for a_n = #{a^2 + c^4 = n}: counts, densities, experiments."""

import math
from fractions import Fraction

import numpy as np
import pytest

from spinsieve import arith as ar
from spinsieve import congruences as cg
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


def test_M_d_exact_counts_roots_by_scan():
    # d M_d(x) = sum over (a, c) != (0, 0) with a^2 + c^4 <= x of
    # #{alpha mod d : alpha^2 + c^4 = 0 (mod d)}, alpha found by a scan
    for x in (1, 2, 17, 1000, 4097):
        cmax = math.isqrt(math.isqrt(x))
        for d in range(1, 121):
            total = 0
            for c in range(-cmax, cmax + 1):
                c4 = c**4
                roots = sum(1 for alpha in range(d) if (alpha * alpha + c4) % d == 0)
                L = math.isqrt(x - c4)
                total += roots * sum(1 for a in range(-L, L + 1) if (a, c) != (0, 0))
            assert d * sv.M_d_exact(x, d) == total, (x, d)


def test_remainder_scan():
    rows, summary = sv.remainder_scan(10**4, 100)
    assert rows[0]["d"] == 1 and rows[0]["r_d"] == 0.0
    assert all(r["r_d"] == float(Fraction(r["A_d"]) - sv.g(r["d"]) * summary["A_x"]) for r in rows)
    assert summary["sum_abs_r"] > 0
    # single-modulus scan
    rows1, s1 = sv.remainder_scan(500, 1)
    assert len(rows1) == 1 and rows1[0]["r_d"] == 0.0
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


def test_kappa_rule_reaches_closed_form():
    # the fixed Gauss-Legendre rule against Gamma(1/4)^2 / (6 sqrt(2 pi))
    assert abs(sv.kappa() - sv.kappa_closed_form()) <= 1e-14


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
    assert rep["observed"] == pytest.approx(hand, abs=1e-9)
    assert rep["pair_count"] == 22
    assert rep["ratio"] == pytest.approx(0.76, abs=0.01)
    assert sv.theorem1_experiment(1)["observed"] == 0.0


def test_theorem1_summation_order_pinned():
    # exact values: observed is summed per block of b-lines, then fsum adds
    # the blocks; any other order changes the last digits
    for x, observed, pairs in ((10**5, 6152.78818473758, 4741),
                               (10**7, 196399.4088382073, 153890)):
        rep = sv.theorem1_experiment(x)
        assert rep["observed"] == observed and rep["pair_count"] == pairs, x


def test_theorem1_walk_pinned_to_1e9():
    # exact values, as computed before the wheel and the square test
    assert list(sv.theorem1_walk([10**8, 10**9])) == [
        {"x": 10**8, "observed": 1105252.6793646512, "predicted": 1112835.7888987646,
         "ratio": 0.9931857785220787, "pair_count": 868545},
        {"x": 10**9, "observed": 6245396.512788453, "predicted": 6257935.522485789,
         "ratio": 0.9979963025102638, "pair_count": 4898636},
    ]


def test_theorem1_walk_rows_equal_one_checkpoint_runs(monkeypatch):
    # one sweep serves every checkpoint, and a smaller x reads a prefix of
    # each line; a one-checkpoint run reads no prefix, so it is the oracle
    edges = sorted(b**4 + gap for b in (2, 3, 10) for gap in (0, 1, 4))
    upto25 = list(range(1, 26))  # 25 = 3^2 + 2^4 = 5^2: a prime power at x
    for xs in ([10, 1000, 10**5], edges, [17, 100, 100, 10**4], upto25,
               [2**32 - 10**5, 2**32 + 10**6], [10**6, 10**7, 10**8, 10**9]):
        for x, rep in zip(xs, sv.theorem1_walk(xs), strict=True):
            one = sv.theorem1_experiment(x)
            assert rep == one and rep["x"] == x, (xs, x)
    for x, rep in zip(upto25, sv.theorem1_walk(upto25), strict=True):
        values = [a * a + b**4 for b, amax in _lines(x) for a in range(1, amax + 1)]
        direct = math.fsum(ar.von_mangoldt(n) for n in values)
        assert rep["pair_count"] == len(values) and abs(rep["observed"] - direct) <= 1e-12 * direct, x
    # the whole list is checked before the first sieve is built
    monkeypatch.setattr(sv, "_RootSieve", None)
    for xs in ([10, 10**11 + 1], [0, 10], [10**12], [10**5, 10]):
        with pytest.raises(ValueError):
            next(sv.theorem1_walk(xs))
    assert list(sv.theorem1_walk([])) == []


def _lines(x):
    """(b, amax) for every b-line of a^2 + b^4 <= x with a, b >= 1."""
    b = 1
    while b**4 < x:
        yield b, math.isqrt(x - b**4)
        b += 1


def _root_sieve(x):
    return sv._RootSieve(x, ar.primes_up_to(math.isqrt(x)))


def test_root_sieve_roots_equal_scalar_sqrt_mod():
    # the sieve reads nu_p = r/s off the Gaussian prime points; it must be
    # the root the scalar sqrt_mod gives, so the marked classes are
    # unchanged, and the split primes must be exactly the p = 1 (mod 4) up
    # to sqrt(x), the window end included (29 = 5^2 + 2^2)
    for x in (1, 24, 25, 28**2, 29**2 - 1, 29**2, 10**6, 10**10, 10**11):
        primes = ar.primes_up_to(math.isqrt(x))
        rs = sv._RootSieve(x, primes)
        assert rs.split.tolist() == primes[primes % 4 == 1].tolist(), x
        assert rs.nu.tolist() == [ar.sqrt_mod(-1, p)[0] for p in rs.split.tolist()]


def _prime_at(b, amax):
    """a - 1 at every prime a^2 + b^4, 1 <= a <= amax, by is_prime."""
    return [a - 1 for a in range(1, amax + 1) if ar.is_prime(a * a + b**4)]


def test_root_sieve_equals_is_prime_on_every_line():
    # x = 2, 3: sqrt(x) < 2, so p = 2 must not remove n = 2
    for x in (2, 3, 4, 5, 17, 18, 100, 257, 10**4, 10**6):
        rs = _root_sieve(x)
        lines = list(_lines(x))
        assert lines, x
        for b, amax in lines:
            assert rs.line(b, amax).tolist() == _prime_at(b, amax), (x, b)


def test_root_sieve_keeps_the_even_prime():
    # 2 = 1^2 + 1^4 is the one value off the odd half-lines the wheel sieves
    for x in (2, 3, 4):
        assert list(_lines(x)) == [(1, 1)]
        assert _root_sieve(x).line(1, 1).tolist() == [0], x
        assert sv.theorem1_experiment(x)["observed"] == math.log(2), x


def test_root_sieve_reuses_its_buffer_in_any_line_order():
    # the buffer of one line must leave no mark on the next, longer or shorter
    x = 10**6
    rs = _root_sieve(x)
    amax = dict(_lines(x))
    last = max(amax)
    for b in (3, 1, 3, last, 2, 1, last, 30, 2):
        assert rs.line(b, amax[b]).tolist() == _prime_at(b, amax[b]), b


def test_root_sieve_above_2_32():
    x = 2**32 + 10**6
    lo = 2**32 - 10**5
    rs = _root_sieve(x)
    checked = 0
    for b, amax in _lines(x):
        if b <= 2:
            assert amax**2 + b**4 > 2**32, b  # the line crosses 2^32
        at = set(rs.line(b, amax).tolist())
        a0 = math.isqrt(max(lo - b**4, 0)) + 1  # least a with a^2 + b^4 > lo
        for a in range(a0, amax + 1):
            assert (a - 1 in at) == ar.is_prime(a * a + b**4), (b, a)
            checked += 1
    assert checked > 3000


def test_root_sieve_last_line():
    # the last line, b^4 close to x, holds one or two values
    for b in (1, 2, 3, 10, 57, 300):
        for gap in (1, 2, 3, 4, 8):
            x = b**4 + gap
            amax = math.isqrt(gap)
            assert max(bl for bl, _ in _lines(x)) == b and amax in (1, 2)
            assert _root_sieve(x).line(b, amax).tolist() == _prime_at(b, amax), (b, gap)


def test_prime_power_table_equals_plain_loop():
    # one p at a time, with math.log's weights bit for bit: np.log differs
    # from them at some primes below sqrt(1e11)
    for x in (1, 4, 8, 9, 27, 28, 10**6, 4_400_000_000, 10**11):
        primes = ar.primes_up_to(math.isqrt(x))
        want = []
        for p in primes.tolist():
            v = p * p
            while v <= x:
                want.append((v, math.log(p)))
                v *= p
        want.sort()
        vals, logs = sv._prime_power_table(x, primes)
        assert vals.dtype == np.int64 and vals.tolist() == [v for v, _ in want], x
        assert logs.tobytes() == np.array([w for _, w in want], dtype=np.float64).tobytes(), x


def _line_prime_powers(x):
    """(b, the prime powers p^k, k >= 2, in (b^4, amax^2 + b^4], and the
    square test's mask over them) for every line of x."""
    pp, _ = sv._prime_power_table(x, ar.primes_up_to(math.isqrt(x)))
    for b, amax in _lines(x):
        lo, hi = np.searchsorted(pp, [b**4, amax * amax + b**4], side="right")
        yield b, pp[lo:hi], sv._is_square(pp[lo:hi] - b**4)


def test_square_test_finds_the_prime_powers_on_every_line():
    found = 0
    for b, vals, on in _line_prime_powers(10**9):
        want = [math.isqrt(v - b**4) ** 2 == v - b**4 for v in vals.tolist()]
        assert on.tolist() == want, b
        found += sum(want)
    assert found > 0
    # at the cap, against a search of the squares of the longest line
    x = 10**11
    a2 = np.arange(1, math.isqrt(x - 1) + 1, dtype=np.int64) ** 2
    for b, vals, on in _line_prime_powers(x):
        rest = vals - b**4
        assert (on == (a2[np.searchsorted(a2, rest)] == rest)).all(), b
    # exact at and next to the squares of the cap
    s = np.arange(math.isqrt(x) - 1000, math.isqrt(x) + 1, dtype=np.int64)
    assert sv._is_square(s * s).all()
    assert not sv._is_square(s * s - 1).any() and not sv._is_square(s * s + 1).any()


def test_theorem1_equals_direct_lambda_sum():
    for x in (2, 3, 4, 5, 17, 18, 100, 257, 10**4, 10**5):
        values = [a * a + b**4 for b, amax in _lines(x) for a in range(1, amax + 1)]
        direct = math.fsum(ar.von_mangoldt(n) for n in values)
        rep = sv.theorem1_experiment(x)
        assert rep["pair_count"] == len(values), x
        assert abs(rep["observed"] - direct) <= 1e-12 * direct, x


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


def _cubefree(d):
    return all(e <= 2 for _, e in ar.factorize(d).factors)


def test_remainder_scan_rows_equal_oracles():
    # every cubefree d <= 2000, with D = min(x, 2000) and D = x; the list of x
    # holds c^4 = x (16, 81) and its neighbours
    for x in (1, 2, 15, 16, 17, 81, 10**4, 10**6):
        want = [
            (d, sv.A_d(x, d), float(sv.M_d_exact(x, d)), float(sv.g(d)))
            for d in range(1, min(x, 2000) + 1)
            if _cubefree(d)
        ]
        for D in sorted({min(x, 2000), x}):
            rows, summary = sv.remainder_scan(x, D)
            head = [r for r in rows if r["d"] <= 2000]
            assert [(r["d"], r["A_d"], r["M_d"], r["g_d"]) for r in head] == want, (x, D)
            assert all(r["r_d"] == float(Fraction(r["A_d"]) - sv.g(r["d"]) * sv.A(x)) for r in head)
            # #{cubefree d <= D} = sum_k mu(k) [D / k^3]
            k3 = range(1, int(D ** (1 / 3)) + 2)  # k^3 > D adds 0
            assert summary["moduli"] == len(rows) == sum(ar.mobius(k) * (D // k**3) for k in k3)


def test_int8_a_n_equals_scalar_a_n():
    x = 2 * 10**5
    an = sv._an_array(x)
    assert an.dtype == np.int8 and an[0] == 0
    assert an[1:].tolist() == [sv.a_n(n) for n in range(1, x + 1)]


def test_int8_a_n_guard_raises_before_an_entry_passes_the_limit(monkeypatch):
    x = 10**4
    top = max(sv.a_n(n) for n in range(1, x + 1))
    monkeypatch.setattr(sv, "_AN_MAX", top)
    assert int(sv._an_array(x).max()) == top
    monkeypatch.setattr(sv, "_AN_MAX", top - 1)
    with pytest.raises(OverflowError):
        sv._an_array(x)


def test_cubefree_tables_equal_scalar_functions():
    D = 20000
    ds, rho, d2, rad, num = sv._cubefree_tables(D)
    assert ds.tolist() == [d for d in range(1, D + 1) if _cubefree(d)]
    for d in ds.tolist():
        f = ar.factorize(d).factors
        assert rho[d] == cg.rho(d), d
        assert d2[d] == math.prod(p ** (e // 2) for p, e in f), d
        assert rad[d] == math.prod(p for p, _ in f), d
        assert Fraction(int(num[d]), d * int(rad[d])) == sv.g(d), d


def test_remainder_scan_caps():
    for x, D in ((0, 1), (10, 0), (10**8 + 1, 10), (100, 101), (10**8, 10**6 + 1)):
        with pytest.raises(ValueError):
            sv.remainder_scan(x, D)
