"""Exact-arithmetic layer: spec'd values plus brute-force oracles."""

import math
import random

import numpy as np
import pytest

from spinsieve import arith as ar


def trial_division(n):
    out = []
    m = n
    p = 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def test_factorize_examples():
    assert ar.factorize(1).factors == ()
    assert ar.factorize(30030).factors == trial_division(30030)
    assert ar.factorize(2**40).factors == ((2, 40),)


def test_factorize_roundtrip_exhaustive():
    for n in range(1, 10**6 + 1, 1):
        f = ar.factorize(n)
        prod = 1
        for p, e in f.factors:
            prod *= p**e
        assert prod == n


def test_factorize_trusts_trial_division(monkeypatch):
    # a cofactor below the square of the next trial prime is prime without a
    # primality test; below 2e5 trial division always ends that way
    def refuse(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(ar, "is_prime", refuse)
    for n in range(1, 2 * 10**5 + 1):
        prod = 1
        for p, e in ar.factorize(n).factors:
            prod *= p**e
        assert prod == n, n


def test_factorize_cofactor_at_end_of_trial_primes():
    # 99991 is the last trial prime and 100003 the first prime past it
    for n, want in (
        (2 * 100003, ((2, 1), (100003, 1))),
        (99991**2, ((99991, 2),)),
        (99991 * 100003, ((99991, 1), (100003, 1))),
        (100003**2, ((100003, 2),)),
    ):
        f = ar.factorize(n)
        assert f.factors == want, n
        assert all(ar.is_prime(p) for p, _ in f.factors)


def test_factorize_random_63bit():
    rng = random.Random(0)
    for _ in range(10**4):
        n = rng.randrange(1, 2**63)
        f = ar.factorize(n)
        prod = 1
        for p, e in f.factors:
            assert ar.is_prime(p) and e >= 1
            prod *= p**e
        assert prod == n
        assert [p for p, _ in f.factors] == sorted(p for p, _ in f.factors)


def test_is_prime_examples_and_oracle():
    assert ar.is_prime(2) and ar.is_prime(97) and not ar.is_prime(91)
    sieve = set(ar.primes_up_to(50000).tolist())
    for n in range(50000):
        assert ar.is_prime(n) == (n in sieve)


def test_multiplicative_functions():
    assert ar.mobius(30) == -1
    assert ar.tau_k(12, 3) == 18
    assert ar.von_mangoldt(32) == pytest.approx(math.log(2), abs=1e-15)
    for n in range(1, 2000):
        f = trial_division(n)
        mu = 0 if any(e > 1 for _, e in f) else (-1) ** len(f)
        assert ar.mobius(n) == mu
        assert ar.euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    # tau_k against direct tuple enumeration
    for n in (1, 2, 12, 30, 64, 360):
        triples = sum(
            1
            for a in range(1, n + 1)
            for b in range(1, n // a + 1)
            if n % (a * b) == 0
        )
        assert ar.tau_k(n, 3) == triples


def test_jacobi_examples_and_multiplicativity():
    assert ar.jacobi(2, 1) == 1
    assert ar.jacobi(2, 3) == -1
    assert ar.jacobi(3, 5) == -1
    with pytest.raises(ValueError):
        ar.jacobi(3, 10)
    rng = random.Random(2)
    for _ in range(2000):
        m1 = rng.randrange(1, 10**5) * 2 + 1
        m2 = rng.randrange(1, 10**5) * 2 + 1
        a = rng.randrange(-(10**6), 10**6)
        assert ar.jacobi(a, m1 * m2) == ar.jacobi(a, m1) * ar.jacobi(a, m2)
        b = rng.randrange(-(10**6), 10**6)
        assert ar.jacobi(a * b, m1) == ar.jacobi(a, m1) * ar.jacobi(b, m1)
    # Legendre-symbol oracle on odd primes
    for p in (3, 5, 7, 11, 13, 101):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert ar.jacobi(a, p) == (1 if a in squares else -1)


def test_quadratic_reciprocity_with_hilbert():
    rng = random.Random(3)
    for _ in range(5000):
        a = rng.randrange(-500, 501) * 2 + 1
        b = rng.randrange(-500, 501) * 2 + 1
        if math.gcd(a, b) != 1:
            continue
        lhs = ar.jacobi(a, abs(b)) * ar.jacobi(b, abs(a))
        rhs = (-1) ** ((a - 1) // 2 * ((b - 1) // 2)) * ar.hilbert_infinity(a, b)
        assert lhs == rhs, (a, b)


def test_jacobi_two_supplement():
    # (2/d) equals the fourth root of unity i^((d^2-1)/4), which is +-1
    for d in range(1, 10**4, 2):
        k = (d * d - 1) // 4 % 4
        expect = {0: 1, 2: -1}[k]
        assert ar.jacobi(2, d) == expect


def test_jacobi_extended():
    assert ar.jacobi_extended(9, 32) == 1
    assert ar.jacobi_extended(3, 10) == -1
    assert ar.jacobi_extended(7, -3) == 1
    with pytest.raises(ValueError):
        ar.jacobi_extended(4, 5)
    with pytest.raises(ValueError):
        ar.jacobi_extended(3, 0)


def test_hilbert_infinity():
    assert ar.hilbert_infinity(-1, -1) == -1
    assert ar.hilbert_infinity(-1, 1) == 1
    assert ar.hilbert_infinity(5, 7) == 1
    with pytest.raises(ValueError):
        ar.hilbert_infinity(0, 3)


def test_chi4():
    assert ar.chi4(5) == 1 and ar.chi4(7) == -1 and ar.chi4(6) == 0
    for n in range(-50, 50):
        assert ar.chi4(n) == ar.chi4(n + 4)


def test_sqrt_mod_examples():
    assert ar.sqrt_mod(-1, 5, 2) == [7, 18]
    assert ar.sqrt_mod(9, 5, 2) == [3, 22]
    assert ar.sqrt_mod(2, 3) == []
    assert ar.sqrt_mod(-1, 5) == ar.sqrt_mod(-1, 5, 1) == [2, 3]
    # the last six are composite moduli: the search for a non-residue (25,
    # 9) and the squaring loop of Tonelli-Shanks (21, 33) stop at bounds
    # that hold for every prime, and for p = 3 (mod 4) the root
    # a^((p+1)/4) is checked (15, 35: 4^4 = 1 mod 15, 4^9 = 29 mod 35)
    for a, p, e in ((1, 1, 1), (1, 0, 3), (1, 5, 0), (1, -3, 1),
                    (24, 25, 1), (-1, 9, 1), (-1, 21, 1), (2, 33, 1),
                    (4, 15, 1), (4, 35, 1)):
        with pytest.raises(ValueError):
            ar.sqrt_mod(a, p, e)


def test_sqrt_mod_exhaustive():
    # complete agreement with a direct scan for every prime power <= 1e4
    powers = 0
    for p in ar.primes_up_to(10**4).tolist():
        e = 1
        while p**e <= 10**4:
            pk = p**e
            table = {}
            for x in range(pk):
                table.setdefault(x * x % pk, []).append(x)
            for a in range(pk):
                assert ar.sqrt_mod(a, p, e) == table.get(a, []), (a, p, e)
            powers += 1
            e += 1
    assert powers == 1280


def test_primes_up_to_every_small_n():
    # primes_up_to is the segmented sieve from 2, whose base primes come from itself
    flags = [ar.is_prime(n) for n in range(3000)]
    for n in range(-2, 3000):
        ps = ar.primes_up_to(n)
        assert ps.dtype == np.int64, n
        assert ps.tolist() == [p for p in range(max(n + 1, 0)) if flags[p]], n


def test_prime_range_matches_primes_up_to():
    table = ar.primes_up_to(3000).tolist()
    for lo in (-5, 0, 1, 2, 3, 4, 97, 1000, 2999):
        for hi in (lo - 1, lo, lo + 1, 2, 3, 100, 101, 3001):
            want = [p for p in table if lo <= p < hi]
            assert ar.prime_range(lo, hi).tolist() == want, (lo, hi)
    assert ar.prime_range(10**9 - 100, 10**9).tolist() == [
        n for n in range(10**9 - 100, 10**9) if ar.is_prime(n)
    ]


def _class_primes(lo, hi):
    # the n = 1 (mod 4) that _prime_mask(lo, hi, 4) marks prime
    mask = ar._prime_mask(lo, hi, 4)
    n0 = lo + (1 - lo) % 4
    assert mask.size == len(range(n0, hi, 4)), (lo, hi)
    return (n0 + 4 * np.flatnonzero(mask)).tolist()


def test_prime_mask_mod_4_equals_prime_range():
    # windows whose ends lie in every class mod 4, windows from lo <= 5, at
    # and next to the square of a base prime, and up to hi = 2^31 - 1
    windows = [(lo, hi) for lo in range(1000, 1004) for hi in range(1997, 2001)]
    windows += [(lo, hi) for lo in (2, 3, 4, 5) for hi in (3, 5, 6, 9, 10, 14, 100)]
    for p in (3, 5, 7, 11, 97, 1009):
        below = max(p * p - 40, 2)
        windows += [(p * p, p * p + 500), (p * p + 1, 2 * p * p), (below, p * p), (below, p * p + 1)]
    top = (1 << 31) - 1
    windows += [(top - 10**5 + d, top) for d in range(4)] + [(10**9 - 10**4, 10**9)]
    for lo, hi in windows:
        want = [p for p in ar.prime_range(lo, hi).tolist() if p % 4 == 1]
        assert _class_primes(lo, hi) == want, (lo, hi)
    # the class of every n keeps the plain sieve
    assert ar._prime_mask(90, 110).tolist() == [ar.is_prime(n) for n in range(90, 110)]


def test_jacobi_vec_matches_jacobi():
    # every (a, m) with odd m <= 1500 and a in [-m, 2m]: zero, negative and
    # non-coprime upper entries included.  The moduli run well past the
    # table bound, so chains that end in the table at once, after one round
    # and after several all appear
    assert ar._JACOBI_TABLE_M + 64 < 1500
    a = np.concatenate([np.arange(-m, 2 * m + 1) for m in range(1, 1500, 2)])
    m = np.concatenate([np.full(3 * m + 1, m) for m in range(1, 1500, 2)])
    got = ar.jacobi_vec(a, m)
    assert got.shape == a.shape
    assert got.tolist() == [ar.jacobi(x, y) for x, y in zip(a.tolist(), m.tolist())]
    assert ar.jacobi_vec(np.array([[2, 3], [5, 6]]), 7).tolist() == [[1, -1], [-1, -1]]
    assert ar.jacobi_vec([], []).size == 0
    for bad in (0, -3, 4):
        with pytest.raises(ValueError):
            ar.jacobi_vec([1, 2], [3, bad])


def test_bezout_vec_gives_nonnegative_gcd_and_its_pair():
    # every sign pattern and zero, int64 entries near 2^62, and Python ints
    # past int64 in an object array
    rng = random.Random(11)
    small = [(a, b) for a in range(-12, 13) for b in range(-12, 13)]
    big = [(rng.randrange(-(2**62), 2**62), rng.randrange(-(2**62), 2**62)) for _ in range(500)]
    huge = [(rng.randrange(-(10**40), 10**40), rng.randrange(-(2**70), 2**70)) for _ in range(200)]
    for cases, dtype in ((small + big, np.int64), (huge + small[:50], object)):
        a, b = (np.array(x, dtype=dtype) for x in zip(*cases))
        lam, mu, e = ar.bezout_vec(a, b)
        assert lam.dtype == mu.dtype == e.dtype == dtype
        for (x, y), l, m, g in zip(cases, lam.tolist(), mu.tolist(), e.tolist()):
            assert g == math.gcd(x, y) and l * x + m * y == g, (x, y)
    assert [x.tolist() for x in ar.bezout_vec([], [])] == [[], [], []]


def test_jacobi_vec_rejects_non_integers_and_int64_overflow():
    # numpy would truncate 1.5 and refuse 2^63 + 1 with OverflowError
    big = 2**63 + 1
    for bad in ([1.5], [1, 2.0], [big], [2**70], np.array([big], dtype=np.uint64), [-1, 2**63]):
        with pytest.raises(ValueError, match="integer entries within int64"):
            ar.jacobi_vec(bad, [3] * len(bad))
        with pytest.raises(ValueError, match="integer entries within int64"):
            ar.jacobi_vec([1] * len(bad), bad)
    # integer dtypes that fit, and empty input of any dtype, are accepted
    assert ar.jacobi_vec(np.array([2, 3], dtype=np.uint64), np.int32(7)).tolist() == [1, -1]
    assert ar.jacobi_vec([(1 << 63) - 1], [3]).tolist() == [ar.jacobi((1 << 63) - 1, 3)]
    assert ar.jacobi_vec(np.empty(0), np.empty(0)).size == 0


def test_jacobi_vec_chains_from_large_moduli():
    # chains that start near 2^31, near sqrt(2^63) and above 2^62 and
    # enter the table; consecutive Fibonacci numbers make the longest chains,
    # and a common factor above or below the bound ends a chain on a = 0 or
    # on a zero of the table
    rng = random.Random(24)
    T = ar._JACOBI_TABLE_M
    pairs = []
    for centre in (1 << 31, math.isqrt((1 << 63) - 1), 1 << 62, (1 << 63) - 1):
        for _ in range(400):
            m = min(centre + rng.randrange(-(1 << 20), 1 << 20), (1 << 63) - 1) | 1
            pairs.append((rng.randrange(-m, m), m))
    fib = [1, 2]
    while fib[-1] < 1 << 62:
        fib.append(fib[-1] + fib[-2])
    pairs += [(f, g) for f, g in zip(fib, fib[1:]) if g % 2]
    pairs += [(g, f) for f, g in zip(fib, fib[1:]) if f % 2]
    for g in (T // 2 - 1, T - 1, T + 1, 3 * T + 1, 2**31 - 1):
        pairs += [(g * rng.randrange(1, 1 << 20), g * (rng.randrange(1, 1 << 20) | 1)) for _ in range(50)]
    a, m = (np.array(c, dtype=np.int64) for c in zip(*pairs))
    got = ar.jacobi_vec(a, m).tolist()
    assert got == [ar.jacobi(x, y) for x, y in pairs]
    assert 0 < got.count(0) < len(got) and -1 in got


def test_jacobi_table_is_built_by_the_private_loop(monkeypatch):
    # a table built while jacobi_vec is patched neither calls the patch nor
    # keeps its values, and nothing can write to it afterwards
    kernel = ar.jacobi_vec
    calls = []

    def flipped(a, m):
        calls.append(m)
        return -kernel(a, m)

    ar._jacobi_table.cache_clear()
    monkeypatch.setattr(ar, "jacobi_vec", flipped)
    a = np.arange(-600, 1200)
    got = ar.jacobi_vec(a, 601)
    assert len(calls) == 1  # the kernel did not recurse through the patch
    assert got.tolist() == [-ar.jacobi(x, 601) for x in a.tolist()]
    monkeypatch.undo()
    table = ar._jacobi_table()
    assert not table.flags.writeable
    T = ar._JACOBI_TABLE_M
    assert table.size == (T // 2) ** 2
    want = [ar.jacobi(x, y) for y in range(1, T, 2) for x in range(y)]
    assert table.tolist() == want
    assert ar.jacobi_vec(a, 601).tolist() == [ar.jacobi(x, 601) for x in a.tolist()]


def test_divisor_witness():
    assert ar.divisor_witness(1, 2) == 1
    d = ar.divisor_witness(30030, 2)
    assert 30030 % d == 0 and d * d <= 30030
    assert ar.tau(30030) <= (2 * ar.tau(d)) ** 2
    assert ar.divisor_witness(101, 3) == 1
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randrange(1, 10**6)
        for k in (2, 3):
            d = ar.divisor_witness(n, k)
            assert n % d == 0 and d**k <= n
            assert ar.tau(n) <= (2 * ar.tau(d)) ** (k * math.log(k) / math.log(2)) + 1e-9
