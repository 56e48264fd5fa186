"""Biquadratic-ellipse counts: exact parameterization, elliptic integral."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from spinsieve.congruences import G0_formula, _lemma_84_admits, _lemma_84_failure
from spinsieve import lattice
from spinsieve.gaussian import GaussianInt as G, delta, ggcd, rational_residue, up_to_norm, up_to_norm_rows
from spinsieve.lattice import (
    C0,
    C_direct,
    C_param,
    E_gamma,
    _direct_weights,
    _param_weights,
    box_pairs,
    e_gamma_fixed,
    hypothesis_pairs,
    hypothesis_rows,
    weight_eval,
    weight_mass,
)


def test_weight_support():
    M = 64.0
    assert weight_eval(M, M) > 0
    assert weight_eval(M, M / 8) == 0.0
    assert weight_eval(M, 4 * M + 1) == 0.0
    with pytest.raises(ValueError):
        weight_eval(0.0, 1.0)


def test_weight_derivative_bounds():
    # |f^(j)| <= M^-j for j <= 4 on a fine grid; derivatives are evaluated
    # exactly from the smoothstep polynomial via the product rule (finite
    # differences of order four drown in rounding noise)
    from math import comb

    coeffs = np.array([70.0, -315.0, 540.0, -420.0, 126.0, 0, 0, 0, 0, 0])
    ders = [coeffs]
    for _ in range(4):
        ders.append(np.polyder(ders[-1]))

    def eta_j(x, j):
        inside = (x > 0) & (x < 1)
        out = np.zeros_like(x)
        out[inside] = np.polyval(ders[j], x[inside])
        if j == 0:
            out[x >= 1] = 1.0
        return out

    M = 1.0
    u = np.linspace(0.2, 4.2, 400001)
    x1 = (u - M / 4) / (0.75 * M)
    x2 = (4 * M - u) / (3 * M)
    a, b = 4.0 / (3 * M), -1.0 / (3 * M)
    # j = 0 also pins the implementation to the polynomial form
    f0 = eta_j(x1, 0) * eta_j(x2, 0) / 2048.0
    impl = np.array([weight_eval(M, t) for t in u])
    assert np.abs(f0 - impl).max() < 1e-15
    for j in range(5):
        d = sum(
            comb(j, i) * eta_j(x1, i) * a**i * eta_j(x2, j - i) * b ** (j - i)
            for i in range(j + 1)
        ) / 2048.0
        assert np.abs(d).max() <= M ** (-j), j


def test_weight_mass_sanity():
    M = 100.0
    fm = weight_mass(M)
    assert 0 < fm <= 4 * M * weight_eval(M, M * 1.0001) + 4 * M / 2048.0


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _exact_mass_constant():
    # int_{1/2}^{2} frak_1(t^2) dt in exact arithmetic: on [1/2, 1] the
    # profile is smoothstep(x) with x = (4 t^2 - 1)/3, on [1, 2] it is
    # smoothstep(x) with x = (4 - t^2)/3; both are polynomials in t
    step = {5: 126, 6: -420, 7: 540, 8: -315, 9: 70}
    total = Fraction(0)
    for x, lo, hi in (
        ([Fraction(-1, 3), 0, Fraction(4, 3)], Fraction(1, 2), Fraction(1)),
        ([Fraction(4, 3), 0, Fraction(-1, 3)], Fraction(1), Fraction(2)),
    ):
        poly, power = [Fraction(0)], [Fraction(1)]
        for k in range(10):
            if k in step:
                poly += [Fraction(0)] * (len(power) - len(poly))
                poly = [c + step[k] * p for c, p in zip(poly, power)]
            power = _poly_mul(power, x)
        total += sum(c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1) for i, c in enumerate(poly))
    return total / 2048


def test_weight_mass_equals_exact_scaling():
    c_w = _exact_mass_constant()
    for M in (1.0, 37.5, 400.0, 2500.0, 1e4):
        want = float(c_w) * math.sqrt(M)
        assert abs(weight_mass(M) - want) <= 1e-14 * want, M
    with pytest.raises(ValueError):
        weight_mass(0.0)


def test_E_gamma_closed_form_against_fixed_rule():
    # the AGM closed form against Gauss-Legendre; the rule loses accuracy
    # as gamma -> 1, where the integrand peaks at u = sqrt(gamma)
    grid = ((0.0, 1e-13), (0.3, 1e-13), (-0.6, 1e-13), (0.9, 1e-11), (0.99, 1e-9), (0.995, 1e-8))
    for gam, tol in grid:
        assert abs(E_gamma(gam) - e_gamma_fixed(gam, 2000)) <= tol, gam
    # E(-1) = 4 int_0^1 du / (1 + u^2) = pi, approached from above
    for h in (1e-3, 1e-6, 1e-9):
        assert 0.0 <= E_gamma(-1.0 + h) - math.pi <= math.pi * h / 4, h


def test_E_gamma_two_grids():
    for gam in (0.0, 0.3, -0.6, 0.9, 0.99, 0.995):
        a = E_gamma(gam)
        b = e_gamma_fixed(gam, 1500)
        c = e_gamma_fixed(gam, 2000)
        assert abs(a - b) <= 1e-8, gam
        assert abs(b - c) <= 1e-8, gam
    with pytest.raises(ValueError):
        E_gamma(1.0)
    with pytest.raises(ValueError):
        E_gamma(-1.5)


def test_E_gamma_log_asymptotic():
    # E(gamma) = log(64/delta^2) + O(delta^2 log(1/delta^2)): the constant
    # 64 is forced by E = 2K(sqrt((1+gamma)/2)) and K ~ log(4/k'), and is
    # confirmed at three scales with remainder constant 2
    for d in (0.1, 0.05, 0.02):
        gam = math.sqrt(1.0 - d * d)
        assert abs(E_gamma(gam) - math.log(64.0 / d**2)) <= 2 * d * d * math.log(
            1.0 / d**2
        )


def test_direct_equals_param_small():
    z1, z2 = G(1, 4), G(9, 4)
    for M in (16.0, 100.0, 1000.0):
        assert C_direct(z1, z2, M) == C_param(z1, z2, M)
    assert _direct_weights(z1, z2, 100.0) == _param_weights(z1, z2, 100.0)


def test_direct_equals_param_many_pairs():
    pairs = list(hypothesis_pairs(1600, delta_cap=200, limit=110, min_norm=9))
    assert len(pairs) >= 100
    for z1, z2 in pairs:
        dw = _direct_weights(z1, z2, 2500.0)
        pw = _param_weights(z1, z2, 2500.0)
        assert dw == pw, (z1, z2)
        assert C_direct(z1, z2, 2500.0) == C_param(z1, z2, 2500.0)


def _plain_direct_weights(z1, z2, M):
    # norm(w) -> total zweight product, one w of the disk |w|^2 <= 4M at a time
    def zw(b):
        return 0 if b < 0 or math.isqrt(b) ** 2 != b else 2 if b else 1

    R = math.isqrt(int(4 * M))
    out = {}
    for u in range(-R, R + 1):
        for v in range(-R, R + 1):
            nw = u * u + v * v
            if 4 * nw >= M and nw <= 4 * M and nw > 0:
                g = zw(u * z1.re + v * z1.im) * zw(u * z2.re + v * z2.im)
                if g:
                    out[nw] = out.get(nw, 0) + g
    return out


def _plain_param_weights(z1, z2, M):
    # the same weights one (c1, c2) at a time, in exact integers: c2 runs
    # over the square roots y of t c1^2 mod q and their shifts by q
    dd = delta(z1, z2)
    q = abs(dd)
    t = rational_residue(z1, z2, q)
    table = [[] for _ in range(q)]
    for y in range(q):
        table[y * y % q].append(y)
    c1max = math.isqrt(math.isqrt(int(4 * M * z1.norm())))
    c2max = math.isqrt(math.isqrt(int(4 * M * z2.norm())))
    out = {}
    for c1 in range(-c1max, c1max + 1):
        for y in table[t * c1 * c1 % q]:
            for c2 in range(y - (y + c2max) // q * q, c2max + 1, q):
                re = c1 * c1 * z2.re - c2 * c2 * z1.re
                im = c1 * c1 * z2.im - c2 * c2 * z1.im
                assert re % dd == 0 and im % dd == 0
                nw = (im // dd) ** 2 + (re // dd) ** 2  # w = (re + i im) / (i Delta)
                if 4 * nw >= M and nw <= 4 * M and nw > 0:
                    out[nw] = out.get(nw, 0) + 1
    return out


def _kernel_pairs():
    # A12's 120 pairs, and pairs with a zero coordinate
    pairs = list(hypothesis_pairs(1600, delta_cap=200, limit=120, min_norm=9))
    axes = [(z1, z2) for z1, z2 in hypothesis_pairs(1000, delta_cap=200)
            if 0 in (z1.re, z1.im, z2.re, z2.im)]
    assert len(pairs) == 120 and len(axes) >= 40
    return pairs + axes[::len(axes) // 20]


@pytest.mark.parametrize("M", [1.0, 16.0, 100.0, 2500.0, 1e4])
def test_count_kernels_equal_plain_loops(M):
    # the plain scan over w takes 0.16 s a pair at 10^4, so it reads every
    # tenth pair, and the plain parameterization every pair
    pairs = _kernel_pairs()
    for k, (z1, z2) in enumerate(pairs):
        pw = _plain_param_weights(z1, z2, M)
        assert _param_weights(z1, z2, M) == pw, (z1, z2)
        assert _direct_weights(z1, z2, M) == pw, (z1, z2)
        if k % 10 == 0:
            assert _plain_direct_weights(z1, z2, M) == pw, (z1, z2)


def test_param_kernel_chunks_hold_whole_c1_values(monkeypatch):
    pairs = _kernel_pairs()[::7]
    want = [_param_weights(z1, z2, 2500.0) for z1, z2 in pairs]
    for chunk in (1, 7, 300):
        monkeypatch.setattr(lattice, "_PARAM_CHUNK", chunk)
        assert [_param_weights(z1, z2, 2500.0) for z1, z2 in pairs] == want, chunk


def test_annulus_is_read_only_and_per_M():
    a, b = lattice._annulus(2500.0), lattice._annulus(2501.0)
    assert lattice._annulus(2500.0) is a and a is not b
    for arrays, M in ((a, 2500.0), (b, 2501.0)):
        uu, vv, nw = arrays
        assert all(x.dtype == np.int64 and not x.flags.writeable for x in arrays)
        with pytest.raises(ValueError):
            uu[0] = 0
        R = math.isqrt(int(4 * M))
        want = sorted((u, v) for u in range(-R, R + 1) for v in range(-R, R + 1)
                      if M <= 4 * (u * u + v * v) <= 16 * M)
        assert sorted(zip(uu.tolist(), vv.tolist())) == want
        assert (nw == uu * uu + vv * vv).all()
    assert len(b[0]) > len(a[0])  # |w|^2 = 10001 = 100^2 + 1^2 enters at 2501


def test_c_param_raises_where_delta_does_not_divide(monkeypatch):
    z1, z2 = G(1, 4), G(9, 4)
    assert C_param(z1, z2, 2500.0) == C_direct(z1, z2, 2500.0)
    real = lattice.rational_residue
    monkeypatch.setattr(lattice, "rational_residue", lambda a, b, m: (real(a, b, m) + 1) % m)
    with pytest.raises(ValueError, match="Delta does not divide"):
        C_param(z1, z2, 2500.0)


def test_param_kernel_refuses_rows_past_int64():
    assert _param_weights(G(1, 0), G(1, 2**16), 1e4) == _plain_param_weights(G(1, 0), G(1, 2**16), 1e4)
    for z2 in (G(1, 2**40), G(2**30, 1)):  # t (c1^2 mod q), and then |w|^2, would leave int64
        with pytest.raises(ValueError, match="int64"):
            _param_weights(G(1, 0), z2, 1e4)


def _brute_pairs(zs, delta_cap=None):
    # every ordered pair of zs that the raising G0_formula guard accepts
    out = []
    for z1 in zs:
        for z2 in zs:
            if delta_cap is not None and abs(delta(z1, z2)) > delta_cap:
                continue
            try:
                G0_formula(z1, z2)
            except ValueError:
                continue
            out.append((z1, z2))
    return out


def test_pair_streams_equal_brute_guard_loop():
    want = _brute_pairs(up_to_norm(300, 9), delta_cap=120)[:50]
    assert len(want) == 50
    assert list(hypothesis_pairs(300, delta_cap=120, limit=50, min_norm=9)) == want
    want = _brute_pairs(up_to_norm(100), delta_cap=32)
    assert (G(1, 4), G(9, 4)) in want  # |Delta| = 32 sits on the cap
    assert list(hypothesis_pairs(100, delta_cap=32)) == want
    want = _brute_pairs(up_to_norm(400))
    assert len(want) > 1000
    assert list(hypothesis_pairs(400)) == want
    box = [z for z in up_to_norm(1000, 250) if 0.35 <= math.atan2(z.im, z.re) < 0.35 + 0.45]
    want = _brute_pairs(box, delta_cap=300)
    assert len(want) >= 30
    assert list(box_pairs(250, 1000, 0.35, 0.45, delta_cap=300)) == want


def _plain_pairs(zs, delta_cap, limit):
    # the pair stream with one scalar predicate call per pair: z1 in list
    # order, z2 in list order within the class of z1 mod 8
    zs = [z for z in zs if _lemma_84_admits(z)]
    by_class = {}
    for z in zs:
        by_class.setdefault((z.re % 8, z.im % 8), []).append(z)
    pairs = (
        (z1, z2)
        for z1 in zs
        for z2 in by_class[z1.re % 8, z1.im % 8]
        if (delta_cap is None or abs(delta(z1, z2)) <= delta_cap)
        and _lemma_84_failure(z1, z2) is None
    )
    return list(itertools.islice(pairs, limit))


@pytest.mark.parametrize("bound", [1, 9, 50, 500, 1000])
def test_pair_stream_equals_plain_pairs(bound):
    want = _plain_pairs(up_to_norm(bound), None, None)
    assert list(hypothesis_pairs(bound)) == want
    if bound == 1000:
        assert len(want) > 40000


def test_pair_stream_options_equal_plain_pairs():
    zs = up_to_norm(500, 9)
    for delta_cap in (None, 0, 200):
        for limit in (None, 0, 1, 25):
            want = _plain_pairs(zs, delta_cap, limit)
            got = list(hypothesis_pairs(500, delta_cap=delta_cap, limit=limit, min_norm=9))
            assert got == want, (delta_cap, limit)
    box = [z for z in up_to_norm(1000, 250) if 0.35 <= math.atan2(z.im, z.re) < 0.35 + 0.45]
    want = _plain_pairs(box, 300, None)
    assert len(want) >= 30
    assert list(box_pairs(250, 1000, 0.35, 0.45, delta_cap=300)) == want


def _coords(pairs):
    return [(z1.re, z1.im, z2.re, z2.im) for z1, z2 in pairs]


@pytest.mark.parametrize("block", [1, 50, lattice._PAIR_BLOCK])
def test_hypothesis_rows_equal_pair_coordinates(monkeypatch, block):
    # the row blocks, concatenated, are the pair streams' coordinates in
    # order, whatever the block size; each block holds whole z1 rows
    monkeypatch.setattr(lattice, "_PAIR_BLOCK", block)
    settings = [(1, None, None, 1), (300, None, None, 1), (1000, None, None, 1),
                (500, 200, None, 9), (500, None, 0, 9), (500, 200, 1, 9), (500, 0, None, 9),
                (2500, 100, 25, 9), (800, 256, 40, 1)]
    for max_norm, delta_cap, limit, min_norm in settings:
        blocks = list(hypothesis_rows(max_norm, delta_cap, limit, min_norm))
        assert all(b.dtype == np.int64 and b.shape[1] == 4 and len(b) for b in blocks)
        rows = [tuple(r) for b in blocks for r in b.tolist()]
        want = _coords(_plain_pairs(up_to_norm(max_norm, min_norm), delta_cap, limit))
        assert rows == want == _coords(hypothesis_pairs(max_norm, delta_cap, limit, min_norm))
        firsts = [b[0, :2].tolist() for b in blocks[1:]]
        assert all(z != b[-1, :2].tolist() for z, b in zip(firsts, blocks)), "a z1 row split"
        if block == 1:  # one z1 at a time
            assert len(blocks) == len({r[:2] for r in rows})
    box = [z for z in up_to_norm(1000, 250) if 0.35 <= math.atan2(z.im, z.re) < 0.35 + 0.45]
    assert _coords(box_pairs(250, 1000, 0.35, 0.45, delta_cap=300)) == _coords(_plain_pairs(box, 300, None))


def test_admitted_rows_equal_the_scalar_filter():
    for max_norm, min_norm in ((1, 1), (100, 1), (2500, 9)):
        want = [[z.re, z.im] for z in up_to_norm(max_norm, min_norm) if _lemma_84_admits(z)]
        assert lattice._admitted(up_to_norm_rows(max_norm, min_norm)).tolist() == want
    # on the axes only the units pass, and the origin fails
    c = np.array([(0, 1), (0, -1), (0, 3), (2, 0), (1, 0), (-4, 3), (6, 3), (-5, -2), (0, 0)], dtype=np.int64)
    want = [[z.re, z.im] for z in map(G, *c.T.tolist()) if _lemma_84_admits(z)]
    assert lattice._admitted(c).tolist() == want == [[0, 1], [0, -1], [1, 0], [-4, 3], [-5, -2]]


def test_coprimality_as_rational_gcd():
    # for odd primitive z1, z2: (z1, z2) = 1 iff gcd(Re conj(z1) z2, Im conj(z1) z2) = 1
    zs = [z for z in up_to_norm(600) if _lemma_84_admits(z)]
    assert len(zs) ** 2 == 583696
    re = np.array([z.re for z in zs], dtype=np.int64)
    im = np.array([z.im for z in zs], dtype=np.int64)
    dot = re[:, None] * re + im[:, None] * im
    det = re[:, None] * im - re * im[:, None]
    coprime = np.array([[ggcd(z1, z2).norm() == 1 for z2 in zs] for z1 in zs])
    bad = np.argwhere((np.gcd(dot, det) == 1) != coprime)
    assert bad.size == 0, [(zs[i], zs[j]) for i, j in bad[:3]]


def test_hypothesis_pairs_limit():
    assert list(hypothesis_pairs(200, limit=0)) == []
    with pytest.raises(ValueError):
        next(hypothesis_rows(200, limit=-1))
    assert len(list(hypothesis_pairs(200, limit=1))) == 1
    assert list(hypothesis_pairs(200, limit=7)) == list(hypothesis_pairs(200))[:7]


def test_c_param_counts_match_weighted_w():
    # every contributing (c1, c2) corresponds to one w with multiplicity
    z1, z2 = G(1, 4), G(9, 4)
    dw = _direct_weights(z1, z2, 400.0)
    pw = _param_weights(z1, z2, 400.0)
    assert sum(dw.values()) == sum(pw.values())


def test_C0_pipeline():
    z1, z2 = G(1, 4), G(9, 4)
    v = C0(z1, z2, 1000.0)
    assert v > 0
    # gamma and delta satisfy gamma^2 + delta^2 = 1
    n1n2 = z1.norm() * z2.norm()
    gam = (z1.re * z2.re + z1.im * z2.im) / math.sqrt(n1n2)
    dlt = delta(z1, z2) / math.sqrt(n1n2)
    assert gam * gam + dlt * dlt == pytest.approx(1.0, abs=1e-12)


def test_C0_box_average():
    # individual pairs need not match; the box mean must be within 25%
    M = 6000.0
    pairs = [
        (z1, z2)
        for z1, z2 in box_pairs(250, 1000, 0.35, 0.45, delta_cap=300)
    ]
    assert len(pairs) >= 30
    direct = [C_direct(z1, z2, M) for z1, z2 in pairs]
    main = [C0(z1, z2, M) for z1, z2 in pairs]
    md, mm = sum(direct) / len(direct), sum(main) / len(main)
    assert abs(md - mm) <= 0.25 * mm, (md, mm)
