"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here; the heavy sweeps are exhaustive over their stated ranges.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from spinsieve import arith, congruences, decomp, eigen, identities, lattice, sieve
from spinsieve.gaussian import GaussianInt as G


def report(tag: str, name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {tag} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_a01_zero_frequency_closed_form():
    t0 = time.perf_counter()
    assert congruences.G0_formula(G(1, 4), G(9, 4)) == Fraction(5)
    checked, violations, first = identities.run("g0", 5000)
    assert violations == 0, first
    dt = time.perf_counter() - t0
    report(
        "A01",
        "G0 closed form = enumeration, norms <= 5000",
        checked > 10**5 and dt <= 300,
        f"{checked} pairs, {dt:.1f}s",
    )


def test_a02_pair_count_closed_form():
    t0 = time.perf_counter()
    assert congruences.N_brute(1, 5) == 9 and congruences.N_brute(2, 5) == 1
    assert congruences.N_formula(1, 5) == 9 and congruences.N_formula(2, 5) == 1
    checked, violations, first = identities.run("counts", 2000)
    assert violations == 0, first
    dt = time.perf_counter() - t0
    report(
        "A02",
        "N(a; q) closed form = count, odd q <= 2000",
        checked > 10**5,
        f"{checked} (a, q) cases, {dt:.1f}s",
    )


def test_a03_multiplier_rule():
    t0 = time.perf_counter()
    checked, violations, first = identities.run("multiplier", 500)
    assert violations == 0, first
    dt = time.perf_counter() - t0
    report(
        "A03",
        "multiplier rule exact, norms <= 500",
        checked > 5 * 10**4,
        f"{checked} (w, z) cases, {dt:.1f}s",
    )


def test_a04_symbol_law_suite():
    t0 = time.perf_counter()
    checked, violations, first = identities.run("reciprocity", 2000)
    assert violations == 0, first
    law_cases, violations, first = identities.run("laws", 2000, 20000, 100)
    assert violations == 0, first
    checked += law_cases
    dt = time.perf_counter() - t0
    report(
        "A04",
        "Dirichlet-symbol law suite, norm(w) <= 2000 + 2e4 random",
        checked > 4 * 10**5,
        f"{checked} cases, {dt:.1f}s",
    )


def test_a05_determinant_symbol_transform():
    t0 = time.perf_counter()
    checked, violations, first = identities.run("transform", 5000)
    assert violations == 0, first
    dt = time.perf_counter() - t0
    report(
        "A05",
        "determinant symbol = coordinate symbols, norms <= 5000",
        checked > 3 * 10**4,
        f"{checked} pairs, {dt:.1f}s",
    )


def test_a06_combinatorial_identities():
    t0 = time.perf_counter()
    x = 10**4
    trials = {}
    for r in (2, 3):
        trials[r] = 0
        for lhs, rhs, eq in decomp.prop_24_2_trials(x, r, 100, 60):
            assert eq and lhs == rhs
            trials[r] += 1
    # Vaughan identity, exact for all n <= 1e5, y in {10, 100}
    vn, v_bad, v_first = decomp.vaughan_check(10**5)
    assert v_bad == 0, v_first
    dt = time.perf_counter() - t0
    report(
        "A06",
        "triple-sum identity (100 seeded f per r) + Vaughan to 1e5",
        trials == {2: 100, 3: 100} and vn == 2 * 10**5,
        f"{trials} f-trials per r, {vn} Vaughan cases, {dt:.1f}s",
    )


def test_a07_divisor_witness_suite():
    t0 = time.perf_counter()
    N = 10**6
    tau = np.zeros(N + 1, dtype=np.int32)
    for d in range(1, N + 1):
        tau[d::d] += 1
    # max tau(d) over d | n with d^2 <= n, and with d^3 <= n
    m2 = np.zeros(N + 1, dtype=np.int32)
    for d in range(1, math.isqrt(N) + 1):
        np.maximum(m2[d * d :: d], tau[d], out=m2[d * d :: d])
    m3 = np.zeros(N + 1, dtype=np.int32)
    for d in range(1, round(N ** (1 / 3)) + 2):
        if d**3 <= N:
            np.maximum(m3[d**3 :: d], tau[d], out=m3[d**3 :: d])
    n = np.arange(1, N + 1)
    tn = tau[1:].astype(np.float64)
    # statement 1: witness d <= n^(1/k) with tau(n) <= (2 tau(d))^(k lg k)
    e2 = 2.0
    e3 = 3 * math.log(3) / math.log(2)
    ok1 = (tn <= (2.0 * m2[1:]) ** e2 + 1e-9).all() and (
        tn <= (2.0 * m3[1:]) ** e3 + 1e-9
    ).all()
    # statement 2: squarefree strengthening tau(n) <= (2 tau(d))^k
    sq = np.ones(N + 1, dtype=bool)
    for p in range(2, math.isqrt(N) + 1):
        sq[p * p :: p * p] = False
    sf = sq[1:]
    ok2 = (tn[sf] <= (2.0 * m2[1:][sf]) ** 2).all() and (
        tn[sf] <= (2.0 * m3[1:][sf]) ** 3
    ).all()
    # statement 3: tau(n) <= 9 sum over d | n, d <= n^(1/3) of tau(d)
    s3 = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, 101):
        if d**3 <= N:
            s3[max(d**3, d) :: d] += int(tau[d])
    ok3 = (tau[1:] <= 9 * s3[1:]).all()
    # exercise the witness search itself on a deterministic sample
    ok4 = True
    for nn in range(1, N + 1, 997):
        for k in (2, 3):
            d = arith.divisor_witness(nn, k)
            ok4 &= nn % d == 0 and d**k <= nn
    dt = time.perf_counter() - t0
    report(
        "A07",
        "divisor-function suite exhaustive to 1e6",
        bool(ok1 and ok2 and ok3 and ok4),
        f"{dt:.1f}s",
    )


def test_a08_constants():
    kq = sieve.kappa()
    kc = sieve.kappa_closed_form()
    hp = sieve.H_partial(10**6)
    ok = abs(kq - kc) < 1e-9 and abs(hp - 4 / math.pi) < 0.01
    report(
        "A08",
        "area constant and Euler product",
        ok,
        f"|kappa_quad - closed| = {abs(kq - kc):.2e}, |H(1e6) - 4/pi| = {abs(hp - 4 / math.pi):.2e}",
    )


def test_a09_prime_values_experiment():
    t0 = time.perf_counter()
    rep100 = sieve.theorem1_experiment(100)
    hand = (
        2 * math.log(2)
        + 2 * math.log(5)
        + 2 * math.log(17)
        + math.log(37)
        + math.log(41)
        + 2 * math.log(97)
    )
    exact_ok = abs(rep100["observed"] - hand) <= 1e-9
    ratios = []
    t9 = 0.0
    for x in (10**6, 10**7, 10**8, 10**9):
        tx = time.perf_counter()
        r = sieve.theorem1_experiment(x)
        ratios.append(r["ratio"])
        if x == 10**9:
            t9 = time.perf_counter() - tx
    window_ok = 0.85 <= ratios[2] <= 1.15
    gaps = [abs(r - 1.0) for r in ratios]
    inversions = sum(1 for i in range(len(gaps) - 1) if gaps[i + 1] > gaps[i])
    trend_ok = inversions <= 1
    runtime_ok = t9 <= 600.0
    report(
        "A09",
        "Lambda-weighted a^2 + b^4 experiment",
        exact_ok and window_ok and trend_ok and runtime_ok,
        f"x=100 exact, ratios={[f'{r:.4f}' for r in ratios]}, "
        f"inversions={inversions}, t(1e9)={t9:.1f}s, total={time.perf_counter() - t0:.1f}s",
    )


def test_a10_spin_sums():
    assert eigen.spin_sum(30) == (0, 4)
    sums = {}
    t7 = 0.0
    for x in (10**5, 10**6, 10**7):
        t0 = time.perf_counter()
        s, c = eigen.spin_sum(x)
        dt = time.perf_counter() - t0
        sums[x] = (s, c)
        if x == 10**7:
            t7 = dt
        assert abs(s) <= x**0.75, (x, s)
    report(
        "A10",
        "spin cancellation |sum| <= x^0.75 at 1e5..1e7",
        t7 <= 300.0,
        f"sums={sums}, t(1e7)={t7:.1f}s",
    )


def test_a11_remainder_scan():
    details = []
    ok = True
    for x in (10**4, 10**5, 10**6):
        rows, summary = sieve.remainder_scan(x, math.isqrt(x))
        assert rows[0]["d"] == 1 and rows[0]["r_d"] == 0.0
        ok &= summary["sum_abs_r"] <= x**0.7
        details.append(f"x={x}: {summary['sum_abs_r']:.0f} <= {x**0.7:.0f}")
    report("A11", "remainder scan sum|r_d| <= x^0.7", ok, "; ".join(details))


def test_a12_lattice_counts():
    t0 = time.perf_counter()
    pairs = list(lattice.hypothesis_pairs(1600, delta_cap=200, limit=120, min_norm=9))
    assert len(pairs) >= 100
    M = 10**4
    for z1, z2 in pairs:
        assert lattice.C_direct(z1, z2, M) == lattice.C_param(z1, z2, M), (z1, z2)
    # elliptic-integral asymptotic with remainder constant 2; the constant
    # term log(64/delta^2) is forced by E = 2K(sqrt((1+gamma)/2)) together
    # with K ~ log(4/k') and is cross-checked by quadrature
    e_ok = True
    for d in (0.1, 0.05, 0.02):
        gam = math.sqrt(1.0 - d * d)
        e_ok &= abs(lattice.E_gamma(gam) - math.log(64 / d**2)) <= 2 * d * d * math.log(
            1 / d**2
        )
    dt = time.perf_counter() - t0
    report(
        "A12",
        "ellipse count parameterization exact on 100+ pairs",
        e_ok,
        f"{len(pairs)} pairs at M={M}, E-asymptotic ok={e_ok}, {dt:.1f}s",
    )


def _run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "spinsieve", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout


def test_a13_report_determinism():
    t0 = time.perf_counter()
    commands = [
        ("spin", "--x", "20000"),
        ("theorem1", "--x", "20000", "--checkpoints", "2"),
        ("remainder", "--x", "3000", "--d-max", "50"),
        ("identities", "--suite", "laws", "--bound", "100", "--seed", "7"),
        ("decomp", "--x", "500", "--cases", "2", "--seed", "1"),
        ("lattice", "--m", "400", "--bound", "100", "--cases", "10"),
    ]
    ok = True
    for cmd in commands:
        c1, out1 = _run_cli(*cmd)
        c2, out2 = _run_cli(*cmd)
        ok &= out1 == out2 and c1 == c2 == 0
        if cmd[0] in ("spin", "theorem1", "remainder"):
            _, o1 = _run_cli(*cmd, "--threads", "1", "--format", "json")
            _, on = _run_cli(*cmd, "--threads", "4", "--format", "json")
            ok &= o1 == on
    dt = time.perf_counter() - t0
    report("A13", "reports byte-identical across runs and threads", ok, f"{dt:.1f}s")
