"""The g0 suite: chunked, per-|Delta| checking against the plain pair loop."""

import math
from collections import defaultdict

import numpy as np
import pytest

from spinsieve import congruences, identities, lattice
from spinsieve.congruences import G0_brute, G0_formula
from spinsieve.gaussian import GaussianInt as G, delta


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
