"""The suites against their plain loops: multiplier and reciprocity a block
of w rows at a time, g0 chunked and per-|Delta|, counts per modulus, laws on
one table per norm, transform a block of coordinate rows at a time, residues
on one count of squares per d."""

import ast
import itertools
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from spinsieve import arith, congruences, identities, lattice, symbols
from spinsieve._util import Tally
from spinsieve.congruences import G0_brute, G0_formula
from spinsieve.gaussian import GaussianInt as G, delta, rational_residue, up_to_norm
from spinsieve.symbols import dirichlet_symbol, dirichlet_symbol_via_root


def _multiplier_grid(bound):
    ws = identities.primary_primitive(bound)
    return ws, [z for z in up_to_norm(bound) if z.re % 2 and z.im % 2 == 0]


def _plain_multiplier(bound):
    # the multiplier suite one (w, z) at a time, through the scalar symbols
    t = Tally()
    ws, zs = _multiplier_grid(bound)
    for w in ws:
        for z in zs:
            if (w * z).re == 0:
                continue
            eps = symbols.epsilon_factor(w, z)
            rhs = G(eps * symbols.dirichlet_symbol(z, w), 0)
            rhs = rhs * symbols.jacobi_kubota(w) * symbols.jacobi_kubota(z)
            t.case(symbols.jacobi_kubota(w * z) == rhs, "multiplier rule", w, z)
            if w.im and z.re and eps != symbols.epsilon_factor_sign_form(w, z):
                t.fail("epsilon sign form", w, z)
    return t.result()


def _plain_reciprocity(bound):
    # the reciprocity suite one (w, z) at a time, through dirichlet_symbol
    t = Tally()
    ws = identities.primary_primitive(bound)
    for w in ws:
        for z in ws:
            t.case(symbols.dirichlet_symbol(z, w) == symbols.dirichlet_symbol(w, z), w, z)
    return t.result()


_BLOCKS = [1, 7, identities._PAIR_BLOCK]


def test_multiplier_and_reciprocity_equal_plain_loops(monkeypatch):
    for bound in (1, 5, 50, 500):
        expected = _plain_multiplier(bound), _plain_reciprocity(bound)
        for block in _BLOCKS:
            monkeypatch.setattr(identities, "_PAIR_BLOCK", block)
            got = identities.run("multiplier", bound), identities.run("reciprocity", bound)
            assert got == expected, (bound, block)
    assert expected[0][0] == 63_434 and expected[1][0] == 161**2


def _flip_eps(monkeypatch, quadrant_at, sign_form_at):
    # epsilon read with the wrong sign at the (w, z) of quadrant_at in the
    # quadrant rule, and at those of sign_form_at in the sign form: array
    # and scalar forms alike
    kernel = symbols.epsilon_factor_vec
    scalar, scalar_sf = symbols.epsilon_factor, symbols.epsilon_factor_sign_form

    def flipped_vec(u, v, r, s, sign_form=False):
        out = kernel(u, v, r, s, sign_form=sign_form)
        u, v, r, s = np.broadcast_arrays(u, v, r, s)
        for w, z in sign_form_at if sign_form else quadrant_at:
            out[(u == w.re) & (v == w.im) & (r == z.re) & (s == z.im)] *= -1
        return out

    monkeypatch.setattr(symbols, "epsilon_factor_vec", flipped_vec)
    monkeypatch.setattr(
        symbols, "epsilon_factor", lambda w, z: scalar(w, z) * (-1 if (w, z) in quadrant_at else 1)
    )
    monkeypatch.setattr(
        symbols, "epsilon_factor_sign_form",
        lambda w, z: scalar_sf(w, z) * (-1 if (w, z) in sign_form_at else 1),
    )


@pytest.mark.parametrize("block", _BLOCKS)
def test_multiplier_reports_injected_faults_in_pair_order(monkeypatch, block):
    # listed out of order: a rule fault alone (epsilon flipped in both forms),
    # a sign-form fault alone, and both at one (w, z), where the rule comes first
    monkeypatch.setattr(identities, "_PAIR_BLOCK", block)
    rule, sign, both = (G(3, 2), G(3, 2)), (G(-1, 2), G(-5, -4)), (G(-1, 2), G(3, 2))
    _flip_eps(monkeypatch, quadrant_at={rule, both}, sign_form_at={rule, sign})
    result = identities.run("multiplier", 50)
    assert result == _plain_multiplier(50)
    checked, violations, first = result
    assert violations == 4
    assert first == [
        ("multiplier rule", *both), ("epsilon sign form", *both), ("epsilon sign form", *sign),
    ]


@pytest.mark.parametrize("block", _BLOCKS)
def test_reciprocity_reports_injected_faults_in_pair_order(monkeypatch, block):
    # (37/65) read with the wrong sign on both sides: a pair fails when
    # exactly one of xi_w(z), xi_z(w) reads residue 37 mod 65
    monkeypatch.setattr(identities, "_PAIR_BLOCK", block)
    q0, a0 = 65, 37
    kernel, scalar = arith.jacobi_vec, symbols.jacobi

    def flipped(a, m):
        out = kernel(a, m)
        a, m = np.broadcast_arrays(a, m)
        out[(m == q0) & (a % q0 == a0)] *= -1
        return out

    monkeypatch.setattr(arith, "jacobi_vec", flipped)
    monkeypatch.setattr(
        symbols, "jacobi", lambda a, m: scalar(a, m) * (-1 if (m, a % m) == (q0, a0) else 1)
    )
    result = identities.run("reciprocity", 100)
    assert result[1] == 8
    assert result == _plain_reciprocity(100)


def test_symbol_suites_hold_one_block_per_kernel_call(monkeypatch):
    # every jacobi_vec call of either suite at bound 2000 takes at most one
    # block of entries, and together the calls cover every (w, z) entry
    sizes = []
    kernel = arith.jacobi_vec

    def recorded(a, m):
        out = kernel(a, m)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(arith, "jacobi_vec", recorded)
    monkeypatch.setattr(symbols, "jacobi_vec", recorded)
    for name in ("multiplier", "reciprocity"):
        sizes.clear()
        checked, violations, _ = identities.run(name, 2000)
        assert violations == 0
        assert max(sizes) <= identities._PAIR_BLOCK, name
        assert sum(sizes) >= 2 * checked, name


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
    # form's domain, one with a coordinate far past int64; z1, or both
    # members, not primitive mod q walk a coset of more than one candidate
    singles = [group[0] for group in groups.values()]
    singles += [(G(1, 0), G(1, 8)), (G(-3, 5), G(2, -7)), (G(1, 0), G(10**30 + 1, 8))]
    singles += [(G(3, 3), G(3, 11)), (G(3, 3), G(3, 9)), (G(9, 3), G(3, 12)), (G(4, 0), G(0, 6))]
    singles += [(G(4, 0), G(1, 1))]  # gcd(Re z1, Im z1) = |Delta|: every v is a candidate
    singles += [(G(6, 4), G(2, 10)), (G(2**64 + 1, 1), G(2**64 - 11, 1))]
    singles += [(G(3 * 2**64, 3), G(3 * 2**64 - 4, 3))]
    for z1, z2 in singles:
        q = abs(delta(z1, z2))
        counts = congruences._g0_brute_counts(q, congruences._pair_coords([(z1, z2)]))
        assert counts.tolist() == [_double_loop(q, z1, z2)], (z1, z2)
    q, group = max(groups.items(), key=lambda kv: len(kv[1]))
    assert len(group) == 600
    counts = congruences._g0_brute_counts(q, congruences._pair_coords(group))
    assert counts.tolist() == [_double_loop(q, z1, z2) for z1, z2 in group]
    # an even group in hypothesis pair order, not pair and swap in turn,
    # with two distinct counts
    group = groups[24]
    want = [_double_loop(24, z1, z2) for z1, z2 in group]
    assert len(group) % 2 == 0 and len(set(want)) == 2
    assert congruences._g0_brute_counts(24, congruences._pair_coords(group)).tolist() == want


def test_g0_kernel_counts_each_swapped_pair_once(monkeypatch):
    # one |Delta| = 24 group: hypothesis pairs in both orientations, one
    # left without its swap, a duplicate, rows with gcd(Re z1, Im z1) = 3,
    # and a coordinate past int64, which makes every row a Python int
    q = 24
    pairs = [pr for pr in lattice.hypothesis_pairs(500) if abs(delta(*pr)) == q]
    assert len(pairs) >= 6 and all((z2, z1) in pairs for z1, z2 in pairs)
    pairs = pairs[1:] + pairs[1:2]  # pairs[0] is unpaired, pairs[1] repeats
    pairs += [(G(3, 3), G(3, 11)), (G(3, 11), G(3, 3)), (G(9, 3), G(1, 3))]
    pairs += [(G(1, 0), G(10**30 + 1, 24)), (G(10**30 + 1, 24), G(1, 0))]
    assert all(abs(delta(*pr)) == q for pr in pairs)
    c = congruences._pair_coords(pairs)
    assert c.dtype == object
    inner = congruences._g0_coset_counts
    rows = []

    def recorded(q, c):
        rows.append(len(c))
        return inner(q, c)

    monkeypatch.setattr(congruences, "_g0_coset_counts", recorded)
    one_by_one = [int(congruences._g0_brute_counts(q, c[[k]])[0]) for k in range(len(c))]
    rows.clear()
    assert congruences._g0_brute_counts(q, c).tolist() == one_by_one
    assert rows == [len({frozenset(pr) for pr in pairs})]
    assert one_by_one[-2:] == [_double_loop(q, *pairs[-1])] * 2
    # the suite hands the kernel both orientations of every pair at bound
    # 1000, in one tile or in many
    for tile in (identities._G0_TILE, 300):
        monkeypatch.setattr(identities, "_G0_TILE", tile)
        rows.clear()
        assert identities.run("g0", 1000) == (45_968, 0, [])
        assert sum(rows) == 22_984, tile
    # a pair comes next to its swap, so chunks of two rows keep both
    monkeypatch.setattr(identities, "_G0_CHUNK", 2)
    rows.clear()
    assert identities.run("g0", 200)[:2] == (1856, 0)
    assert sum(rows) == 928


@pytest.mark.parametrize("tile", [3, 37, 1280])
def test_g0_suite_hands_over_each_pair_next_to_its_swap(monkeypatch, tile):
    # every |Delta| group the suite builds is (pair, swap) rows in turn, so
    # the brute count reads only its even rows, also when an odd chunk size
    # is asked for
    monkeypatch.setattr(identities, "_G0_TILE", tile)
    kernel, groups = congruences._g0_brute_counts, []

    def recorded(q, c):
        groups.append(c)
        return kernel(q, c)

    monkeypatch.setattr(congruences, "_g0_brute_counts", recorded)
    for chunk in (identities._G0_CHUNK, 7):
        monkeypatch.setattr(identities, "_G0_CHUNK", chunk)
        groups.clear()
        checked, violations, _ = identities.run("g0", 300)
        assert violations == 0 and sum(map(len, groups)) == checked > 3000
        for c in groups:
            assert len(c) % 2 == 0 and (c[1::2] == c[::2][:, [2, 3, 0, 1]]).all(), (tile, chunk)


def test_g0_gcd_form_equals_double_loop_off_the_domain():
    # z1 primitive: the one candidate v = u w (mod q) hits only for the u
    # that q / gcd(w Re z1 - Re z2, w Im z1 - Im z2, q) divides.  At
    # q = |Delta| that gcd is q, so moduli q != |Delta| test the other u.
    c = np.array([r for r in itertools.product(range(-4, 5), repeat=4) if math.gcd(*r[:2]) == 1])
    r1, s1, r2, s2 = c.T
    lam, mu, _ = arith.bezout_vec(r1, s1)
    w = lam * r2 + mu * s2
    checked = 0
    for q in range(1, 25):
        rows = c[np.gcd(np.gcd(w * r1 - r2, w * s1 - s2), q) < q][q % 5 :: 37].tolist()
        counts = congruences._g0_coset_counts(q, np.array(rows, dtype=np.int64).reshape(-1, 4))
        assert counts.tolist() == [_double_loop(q, G(*r[:2]), G(*r[2:])) for r in rows], q
        checked += len(rows)
    assert checked > 1000


@pytest.mark.parametrize("tile", [3, 37])
def test_g0_tiles_report_faults_in_generator_order(monkeypatch, tile):
    # faults in pairs whose z1 lie in different tiles, listed out of order
    monkeypatch.setattr(identities, "_G0_TILE", tile)
    pairs = list(lattice.hypothesis_pairs(200))
    faults = [1500, 3, 700, 1200]
    bad = {(z1.re, z1.im, z2.re, z2.im) for z1, z2 in (pairs[i] for i in faults)}
    kernel = congruences._g0_brute_counts

    def off_by_one(q, c):
        return kernel(q, c) + np.array([tuple(row) in bad for row in c.tolist()], dtype=np.int64)

    monkeypatch.setattr(congruences, "_g0_brute_counts", off_by_one)
    assert identities.run("g0", 200) == (len(pairs), 4, [pairs[i] for i in sorted(faults)[:3]])


# (25, 27, 29, 31) spans three |Delta| classes, so only a tally in
# generator order reports pairs 25, 27 and 29 first.
@pytest.mark.parametrize("faults", [(1, 4, 8, 10), (25, 27, 29, 31)])
def test_g0_reports_injected_faults_in_generator_order(monkeypatch, faults):
    pairs = list(lattice.hypothesis_pairs(200))
    bad = {(z1.re, z1.im, z2.re, z2.im) for z1, z2 in (pairs[i] for i in faults)}
    kernel = congruences._g0_brute_counts

    def off_by_one(q, c):
        return kernel(q, c) + np.array([tuple(row) in bad for row in c.tolist()], dtype=np.int64)

    monkeypatch.setattr(congruences, "_g0_brute_counts", off_by_one)
    checked, violations, first = identities.run("g0", 200)
    assert (checked, violations) == (len(pairs), 4)
    assert first == [pairs[i] for i in faults[:3]]


def test_g0_closed_forms_reject_a_pair_of_another_class():
    z1, z2 = G(1, 4), G(9, 4)
    q = abs(delta(z1, z2))
    c = congruences._pair_coords([(z1, z2)])
    assert congruences._g0_closed_forms(q, c).tolist() == [q * G0_formula(z1, z2)]
    with pytest.raises(ValueError):
        congruences._g0_closed_forms(q + 8, c)


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


def _plain_transform(bound):
    # the transform suite one pair at a time, through the scalar symbols
    t = Tally()
    for z1, z2 in lattice.hypothesis_pairs(bound):
        rr = z1.re * z2.re
        if rr <= 0 or rr % 8 != 1:
            continue
        dd = abs(delta(z1, z2))
        lhs = arith.jacobi_extended(rational_residue(z1, z2, dd), dd)
        rhs = arith.jacobi(z1.im, abs(z1.re)) * arith.jacobi(z2.im, abs(z2.re))
        t.case(lhs == rhs, z1, z2)
    return t.result()


def test_transform_suite_equals_plain_loop(monkeypatch):
    expected = _plain_transform(300)
    assert expected[0] > 900
    assert identities.run("transform", 300) == expected
    # (2/5) read as +1 in the array and scalar symbols alike: the pairs where
    # one side reads it fail
    m0, a0 = 5, 2
    kernel, scalar = arith.jacobi_vec, arith.jacobi

    def flipped(a, m):
        out = kernel(a, m)
        a, m = np.broadcast_arrays(a, m)
        out[(m == m0) & (a % m0 == a0)] *= -1
        return out

    monkeypatch.setattr(arith, "jacobi_vec", flipped)
    monkeypatch.setattr(arith, "jacobi", lambda a, m: scalar(a, m) * (-1 if (m, a % m) == (m0, a0) else 1))
    expected = _plain_transform(300)
    assert expected[1] > 3
    assert identities.run("transform", 300) == expected


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
