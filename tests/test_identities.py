"""The suites against their plain loops: g0 chunked and per-|Delta|, counts
per modulus, laws on one table per w, residues on one count of squares per d."""

import ast
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from spinsieve import arith, congruences, identities, lattice
from spinsieve._util import Tally
from spinsieve.congruences import G0_brute, G0_formula
from spinsieve.gaussian import GaussianInt as G, delta
from spinsieve.symbols import dirichlet_symbol, dirichlet_symbol_via_root


def _plain_g0(bound):
    # the suite before chunking: one closed form and one count per pair
    checked, violations, first = 0, 0, []
    for z1, z2 in lattice.hypothesis_pairs(bound):
        checked += 1
        if G0_formula(z1, z2) != G0_brute(z1, z2):
            violations += 1
            if len(first) < 3:
                first.append((z1, z2))
    return checked, violations, first


def _double_loop(q, z1, z2):
    # #{(g1, g2) mod q : g1^2 z2 = g2^2 z1 (mod q)}, one (g1, g2) at a time
    sq = [g * g % q for g in range(q)]
    return sum(
        (s1 * z2.re - s2 * z1.re) % q == 0 and (s1 * z2.im - s2 * z1.im) % q == 0
        for s1 in sq
        for s2 in sq
    )


@pytest.mark.parametrize("chunk", [1, 7, identities._G0_CHUNK])
def test_g0_suite_equals_plain_loop(monkeypatch, chunk):
    monkeypatch.setattr(identities, "_G0_CHUNK", chunk)
    expected = _plain_g0(300)
    assert expected[0] > 3000
    assert identities.run("g0", 300) == expected


def test_g0_group_kernel_equals_double_loop():
    groups = defaultdict(list)
    for z1, z2 in lattice.hypothesis_pairs(500):
        groups[abs(delta(z1, z2))].append((z1, z2))
    # groups of one: a pair of each |Delta| class, and pairs off the closed
    # form's domain, one with a coordinate far past int64
    singles = [group[0] for group in groups.values()]
    singles += [(G(1, 0), G(1, 8)), (G(-3, 5), G(2, -7)), (G(1, 0), G(10**30 + 1, 8))]
    for z1, z2 in singles:
        q = abs(delta(z1, z2))
        counts = congruences._g0_brute_counts(q, [(z1, z2)])
        assert counts.tolist() == [_double_loop(q, z1, z2)], (z1, z2)
    q, group = max(groups.items(), key=lambda kv: len(kv[1]))
    assert len(group) == 600
    counts = congruences._g0_brute_counts(q, group)
    assert counts.tolist() == [_double_loop(q, z1, z2) for z1, z2 in group]


# (25, 27, 29, 31) spans three |Delta| classes, so only a tally in
# generator order reports pairs 25, 27 and 29 first.
@pytest.mark.parametrize("faults", [(1, 4, 8, 10), (25, 27, 29, 31)])
def test_g0_reports_injected_faults_in_generator_order(monkeypatch, faults):
    pairs = list(lattice.hypothesis_pairs(200))
    bad = {pairs[i] for i in faults}
    kernel = congruences._g0_brute_counts

    def off_by_one(q, group):
        return kernel(q, group) + np.array([pair in bad for pair in group], dtype=np.int64)

    monkeypatch.setattr(congruences, "_g0_brute_counts", off_by_one)
    checked, violations, first = identities.run("g0", 200)
    assert (checked, violations) == (len(pairs), 4)
    assert first == [pairs[i] for i in faults[:3]]


def test_g0_closed_forms_reject_a_pair_of_another_class():
    z1, z2 = G(1, 4), G(9, 4)
    q = abs(delta(z1, z2))
    assert congruences._g0_closed_forms(q, [(z1, z2)]) == [G0_formula(z1, z2)]
    with pytest.raises(ValueError):
        congruences._g0_closed_forms(q + 8, [(z1, z2)])


def _plain_counts(bound):
    # the counts suite one (a, q) at a time, through the per-value routes
    checked, violations, first = 0, 0, []
    for q in range(1, bound + 1, 2):
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1:
                checked += 1
                if congruences.N_formula(a, q) != congruences.N_brute(a, q):
                    violations += 1
                    if len(first) < 3:
                        first.append((a, q))
    return checked, violations, first


def test_counts_suite_equals_plain_loop():
    expected = _plain_counts(300)
    assert expected[0] > 18000
    assert identities.run("counts", 300) == expected


def test_counts_reports_injected_faults_in_order(monkeypatch):
    # faults in three moduli, injected into the closed forms out of order
    faults = {(4, 9), (2, 3), (7, 15), (1, 9)}
    kernel = congruences._n_closed_forms

    def off_by_one(q, avals):
        return [v + ((a, q) in faults) for a, v in zip(avals, kernel(q, avals))]

    monkeypatch.setattr(congruences, "_n_closed_forms", off_by_one)
    checked, violations, first = identities.run("counts", 15)
    assert (checked, violations) == (_plain_counts(15)[0], 4)
    assert first == [(2, 3), (1, 9), (4, 9)]


def _grid():
    # the laws grid in its order: Re z ascending, then Im z
    return [G(r, s) for r in range(-50, 51) for s in range(-50, 51)]


def test_laws_grid_equals_public_symbols():
    grid = _grid()
    r = np.array([z.re for z in grid])
    s = np.array([z.im for z in grid])
    for w in identities.primary_primitive(50):
        q = w.norm()
        omega = (-w.im * pow(w.re, -1, q)) % q
        via_root, via_re = identities._root_forms(w, r, s)
        assert via_root.tolist() == [dirichlet_symbol_via_root(z, q, omega) for z in grid], w
        assert via_re.tolist() == [dirichlet_symbol(z, w) for z in grid], w


def test_laws_reports_injected_table_fault_in_grid_order(monkeypatch):
    # (2/65) = 1 is read as -1: every z of a norm-65 w at which exactly one
    # of the two forms reads residue 2 fails.  For w = 1 +- 8i both forms
    # read the same residue, so only -7 +- 4i fail
    q0, a0 = 65, 2
    kernel = arith.jacobi_vec

    def flipped(a, m):
        table = kernel(a, m)
        if m == q0:
            table[a0] = -table[a0]
        return table

    monkeypatch.setattr(arith, "jacobi_vec", flipped)
    ws = identities.primary_primitive(100)
    bad = []
    for w in ws:
        if w.norm() != q0:
            continue
        omega = (-w.im * pow(w.re, -1, q0)) % q0
        bad += [
            ("root form", z, w)
            for z in _grid()
            if ((z.re + omega * z.im) % q0 == a0) != ((w * z).re % q0 == a0)
        ]
    assert {w for _, _, w in bad} == {G(-7, -4), G(-7, 4)}
    checked, violations, first = identities.run("laws", 100)
    assert checked > len(ws) * 101**2
    assert (violations, first) == (len(bad), bad[:3])


def _plain_residues(bound):
    # the residues suite one (b, d) at a time: count the a with a^2 + b^2 = 0
    t = Tally()
    for d in range(1, bound + 1):
        t.case(len(congruences.roots_minus_one(d).roots) == congruences.rho(d), d)
        for b in range(d):
            brute = sum(1 for a in range(d) if (a * a + b * b) % d == 0)
            t.case(congruences.rho_b(b, d) == brute, b, d)
    return t.result()


def test_residues_suite_equals_plain_loop():
    for bound in (1, 2, 100):
        expected = _plain_residues(bound)
        assert expected[0] == sum(d + 1 for d in range(1, bound + 1))
        assert identities.run("residues", bound) == expected


def test_residues_reports_injected_faults_in_order(monkeypatch):
    # faults in rho_b at three moduli and in rho at one, listed out of order
    faults = {(5, 12), (2, 7), (0, 9)}
    rho_b, rho = congruences.rho_b, congruences.rho

    def off_by_one_b(b, d):
        n = d if isinstance(d, int) else d.n
        return rho_b(b, d) + ((b, n) in faults)

    monkeypatch.setattr(congruences, "rho_b", off_by_one_b)
    monkeypatch.setattr(congruences, "rho", lambda d: rho(d) + (d == 9))
    checked, violations, first = identities.run("residues", 15)
    assert (checked, violations) == (sum(d + 1 for d in range(1, 16)), 4)
    assert first == [(2, 7), (9,), (0, 9)]
    assert _plain_residues(15) == (checked, violations, first)


def test_suites_match_the_benchmark_workloads():
    # bench/workloads.py pins the suite list and default bounds of
    # `identities --suite all`; a suite added here must be added there too
    source = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    pinned = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(source.read_text()).body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SUITE_NAMES", "DEFAULT_BOUNDS")
    }
    assert tuple(identities.SUITES) == pinned["SUITE_NAMES"]
    assert {name: b for name, (_, b) in identities.SUITES.items()} == pinned["DEFAULT_BOUNDS"]
