"""Biquadratic-ellipse counts: exact parameterization, elliptic integral."""

import math

import numpy as np
import pytest

from spinsieve.congruences import G0_formula
from spinsieve.gaussian import GaussianInt as G, delta, up_to_norm
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


def test_hypothesis_pairs_limit():
    assert list(hypothesis_pairs(200, limit=0)) == []
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
