"""Identity suites: closed forms swept against their brute-force oracles.

Each suite takes (bound, cases, rng) and returns (checked, violations,
first), where first holds the first few failing inputs.  ``SUITES`` maps a
suite name to the suite and its default bound; the ``identities`` command
and the acceptance gate both run suites through ``run``.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from . import arith, congruences, lattice, symbols
from ._util import Tally
from .gaussian import (
    GaussianInt,
    conj,
    is_primary,
    is_primitive,
    up_to_norm,
    up_to_norm_rows,
)

__all__ = ["SUITES", "run", "primary_primitive"]


def primary_primitive(bound: int) -> list[GaussianInt]:
    """Primary primitive w with norm <= bound, ordered by (norm, re, im)."""
    return [w for w in up_to_norm(bound) if is_primary(w) and is_primitive(w)]


# (w, z) entries the multiplier and reciprocity suites hold at once, as
# whole w rows (at least one); their memory is bounded by one block.
_PAIR_BLOCK = 1 << 14


def _coords(zs: list[GaussianInt]) -> np.ndarray:
    """Re z and Im z of every z, as two int64 rows."""
    return np.array([(z.re, z.im) for z in zs], dtype=np.int64).reshape(-1, 2).T


def _row_blocks(nw: int, nz: int):
    """(w index, z index) arrays of every (w, z) entry in row-major order,
    max(1, _PAIR_BLOCK // nz) whole w rows at a time."""
    rows = max(1, _PAIR_BLOCK // max(nz, 1))
    for lo in range(0, nw, rows):
        hi = min(nw, lo + rows)
        yield np.repeat(np.arange(lo, hi), nz), np.tile(np.arange(nz), hi - lo)


def multiplier(bound: int, cases: int, rng: random.Random):
    """[wz] = eps [w][z] (z/w) for primary primitive w and z = 1 (mod 2),
    with the sign form of eps wherever it is defined; a block of w rows at
    a time, through the array forms of the symbols."""
    ws = primary_primitive(bound)
    zs = [z for z in up_to_norm(bound) if z.re % 2 and z.im % 2 == 0]
    wre, wim = _coords(ws)
    zre, zim = _coords(zs)
    jw_re, jw_im = symbols.jacobi_kubota_vec(wre, wim)
    jz_re, jz_im = symbols.jacobi_kubota_vec(zre, zim)
    kinds = ("multiplier rule", "epsilon sign form")
    t = Tally()
    for iw, iz in _row_blocks(len(ws), len(zs)):
        u, v, r, s = wre[iw], wim[iw], zre[iz], zim[iz]
        a = u * r - v * s  # Re wz
        keep = a != 0  # pairs with Re wz = 0 are skipped
        iw, iz, u, v, r, s, a = (x[keep] for x in (iw, iz, u, v, r, s, a))
        lhs_re, lhs_im = symbols.jacobi_kubota_vec(a, u * s + v * r)  # [wz]
        eps = symbols.epsilon_factor_vec(u, v, r, s)
        c = eps * arith.jacobi_vec(a, u * u + v * v)  # eps (z/w)
        # eps (z/w) [w] [z], the product of units written out
        rhs_re = c * (jw_re[iw] * jz_re[iz] - jw_im[iw] * jz_im[iz])
        rhs_im = c * (jw_re[iw] * jz_im[iz] + jw_im[iw] * jz_re[iz])
        ok = np.ones((a.size, 2), dtype=bool)  # per (w, z): the rule, then the sign form
        ok[:, 0] = (lhs_re == rhs_re) & (lhs_im == rhs_im)
        d = (v != 0) & (r != 0)  # where the sign form is defined
        ok[d, 1] = eps[d] == symbols.epsilon_factor_vec(u[d], v[d], r[d], s[d], sign_form=True)
        t.cases(ok, lambda i: (kinds[i % 2], ws[iw[i // 2]], zs[iz[i // 2]]))
    return t.result()


def reciprocity(bound: int, cases: int, rng: random.Random):
    """xi_w(z) = xi_z(w) for every pair of primary primitive w, z: both are
    (Re wz / .), read against |w|^2 and |z|^2, a block of w rows at a time."""
    ws = primary_primitive(bound)
    re, im = _coords(ws)
    q = re * re + im * im
    t = Tally()
    for iw, iz in _row_blocks(len(ws), len(ws)):
        a = re[iw] * re[iz] - im[iw] * im[iz]  # Re wz = Re zw
        ok = arith.jacobi_vec(a, q[iw]) == arith.jacobi_vec(a, q[iz])
        t.cases(ok, lambda i: (ws[iw[i]], ws[iz[i]]))
    return t.result()


def _root_forms(
    w: GaussianInt, r: np.ndarray, s: np.ndarray, table: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """xi_w(r + is) as ((r + omega s)/q) and as (Re wz / q), both read from
    one table of (a/q) over the residues a mod q = |w|^2, built here unless
    the caller holds it."""
    q = w.norm()
    omega = (-w.im * pow(w.re, -1, q)) % q
    if table is None:
        table = arith.jacobi_vec(np.arange(q), q)
    return table[(r + omega * s) % q], table[(w.re * r - w.im * s) % q]


def laws(bound: int, cases: int, rng: random.Random):
    """Root form of xi on the whole grid and on max(1, cases // #w) seeded z
    per w, the norm relation on those z, and the product and lower-entry
    laws on ``cases`` seeded (w1, w2, z); w primary primitive, norm <= bound."""
    ws = primary_primitive(bound)
    t = Tally()
    if not ws:
        return t.result()
    # every z with |Re z|, |Im z| <= 50, in grid order: Re z ascending, then Im z
    r, s = np.indices((101, 101)).reshape(2, -1) - 50
    for q, same_norm in itertools.groupby(ws, GaussianInt.norm):  # one table per norm
        table = arith.jacobi_vec(np.arange(q), q)
        for w in same_norm:
            via_root, via_re = _root_forms(w, r, s, table)
            t.cases(via_root == via_re,
                    lambda i: ("root form", GaussianInt(int(r[i]), int(s[i])), w))
    # the public symbols on seeded z, every w
    for w in ws:
        q = w.norm()
        omega = (-w.im * pow(w.re, -1, q)) % q
        for _ in range(max(1, cases // len(ws))):
            z = GaussianInt(rng.randrange(-50, 51), rng.randrange(-50, 51))
            xi = symbols.dirichlet_symbol(z, w)
            t.case(xi == symbols.dirichlet_symbol_via_root(z, q, omega), "root form", z, w)
            if z != GaussianInt(0, 0):
                t.case(
                    xi * symbols.dirichlet_symbol(z, conj(w)) == arith.jacobi(z.norm() % q, q),
                    "norm relation", z, w,
                )
    for _ in range(cases):
        w1, w2 = rng.choice(ws), rng.choice(ws)
        z = GaussianInt(rng.randrange(-40, 41), rng.randrange(-40, 41))
        if z == GaussianInt(0, 0):
            continue
        e, cof = symbols.primary_gcd_cofactor(w1, w2)
        d = e.norm()
        lhs = symbols.dirichlet_symbol(z, w1) * symbols.dirichlet_symbol(z, w2)
        t.case(
            lhs == arith.jacobi(z.norm() % d, d) * symbols.dirichlet_symbol(z, cof),
            "product law", z, w1, w2,
        )
        t.case(
            lhs
            == symbols.dirichlet_symbol(z, e)
            * symbols.dirichlet_symbol(z, conj(e))
            * symbols.dirichlet_symbol(z, cof),
            "lower-entry law", z, w1, w2,
        )
    return t.result()


# Candidates per side of a g0 tile.  About 1 in 35 ordered pairs of
# candidates is admissible, so a tile on the diagonal holds about
# 1280^2 / 35 = 47K pairs, under one _G0_CHUNK, and one off it twice that.
# Smaller tiles split the |Delta| classes into more, smaller groups, each
# with its own fixed cost.  Sides of 768, 1024 and 1280 gave traced peaks
# of 6.3, 9.0 and 10.5 MB in a sweep to bound 3000 (10.1 MB before the
# suite was tiled), and took 9.7, 7.2 and 6.6 s to bound 5000; a sweep to
# bound 1000 (1,268 candidates) is one tile with 1280, and three with 1024,
# which made the identity-sweep benchmark workload about 10% slower.
_G0_TILE = 1280

# Pairs of a tile the g0 suite checks at once.
_G0_CHUNK = 1 << 16


def g0(bound: int, cases: int, rng: random.Random):
    """G0 closed form = enumeration on every hypothesis pair with norms <= bound,
    read as coordinate rows, grouped by |Delta| in numpy and checked one
    |Delta| class at a time.  The pairs come a tile at a time, each pair
    next to its swap (z2, z1), whose brute count is the same, so the count
    is taken once for both; chunks hold an even number of pairs, so that no
    pair is split from its swap.  The first failures are those of the
    hypothesis pair order."""
    c = lattice._admitted(up_to_norm_rows(bound))
    chunk = _G0_CHUNK + _G0_CHUNK % 2
    checked = violations = 0
    firsts: list[int] = []  # the first failures as positions i * len(c) + j
    for i_tile, j_tile in lattice._swap_closed_tiles(c, _G0_TILE):
        for lo in range(0, len(i_tile), chunk):
            i, j = i_tile[lo : lo + chunk], j_tile[lo : lo + chunk]
            rows = np.hstack((c[i], c[j]))
            qs, at = np.unique(congruences._delta_abs(rows), return_inverse=True)
            ok = np.zeros(len(rows), dtype=bool)
            order = np.argsort(at, kind="stable")  # the pairs of each |Delta| class, in turn
            for q, idx in zip(qs.tolist(), np.split(order, np.cumsum(np.bincount(at))[:-1])):
                group = rows[idx]
                closed = congruences._g0_closed_forms(q, group)  # q G0
                ok[idx] = closed == congruences._g0_brute_counts(q, group)  # compared as integers
            bad = np.flatnonzero(~ok)
            checked += len(ok)
            violations += bad.size
            firsts = sorted(firsts + np.sort(i[bad] * len(c) + j[bad])[:3].tolist())[:3]
    pairs = (c[[k // len(c), k % len(c)]].tolist() for k in firsts)
    return checked, violations, [(GaussianInt(*z1), GaussianInt(*z2)) for z1, z2 in pairs]


def counts(bound: int, cases: int, rng: random.Random):
    """N(a; q) closed form = count for odd q <= bound and a coprime to q,
    every a of one modulus checked in one pass."""
    t = Tally()
    for q in range(1, bound + 1, 2):
        a = np.arange(1, q + 1)
        avals = a[np.gcd(a, q) == 1].tolist()
        closed = np.array(congruences._n_closed_forms(q, avals))
        t.cases(closed == congruences._n_brute_counts(q, avals), lambda i: (avals[i], q))
    return t.result()


def transform(bound: int, cases: int, rng: random.Random):
    """Symbol of the determinant = product of the coordinate symbols, on
    hypothesis pairs with 0 < r1 r2 = 1 (mod 8), a block of coordinate rows
    at a time.  The symbol of Delta is read at the rational residue
    t = z2/z1 mod |Delta|, from one array extended Euclid for 1/|z1|^2."""
    t = Tally()
    for c in lattice.hypothesis_rows(bound):
        rr = c[:, 0] * c[:, 2]
        c = c[(rr > 0) & (rr % 8 == 1)]
        r1, s1, r2, s2 = c.T
        dd = congruences._delta_abs(c)
        inv, _, g = arith.bezout_vec(r1 * r1 + s1 * s1, dd)
        res = (r1 * r2 + s1 * s2) * inv % dd
        # in the domain |z1|^2 is prime to Delta, z2 = t z1 (mod |Delta|)
        # componentwise, and t is odd, as z1 and z2 are
        if ((g != 1) | ((r2 - res * r1) % dd != 0) | ((s2 - res * s1) % dd != 0) | (res % 2 == 0)).any():
            raise ValueError("z2/z1 is not an odd rational residue modulo |Delta|")
        lhs = arith.jacobi_vec(res, dd // (dd & -dd))  # the symbol of the odd part
        rhs = arith.jacobi_vec(s1, np.abs(r1)) * arith.jacobi_vec(s2, np.abs(r2))
        t.cases(lhs == rhs, lambda i: tuple(GaussianInt(*z) for z in c[i].reshape(2, 2).tolist()))
    return t.result()


def residues(bound: int, cases: int, rng: random.Random):
    """Root counts of nu^2 + 1 = 0 and of a^2 + b^2 = 0 (mod d), d <= bound:
    rho(d) against the roots, then rho_b(b, d) for every b < d against one
    count of the squares mod d, so the suite is O(bound^2)."""
    t = Tally()
    for d in range(1, bound + 1):
        t.case(len(congruences.roots_minus_one(d).roots) == congruences.rho(d), d)
        b = np.arange(d, dtype=np.int64)
        squares = np.bincount(b * b % d, minlength=d)  # a^2 = -b^2 has squares[-b^2] roots
        f = arith.factorize(d)
        formula = np.array([congruences.rho_b(v, f) for v in range(d)])
        t.cases(formula == squares[-b * b % d], lambda v: (v, d))
    return t.result()


SUITES = {
    "multiplier": (multiplier, 500),
    "reciprocity": (reciprocity, 500),
    "laws": (laws, 500),
    "g0": (g0, 500),
    "counts": (counts, 300),
    "transform": (transform, 500),
    "residues": (residues, 150),
}


def run(name: str, bound: int, cases: int = 1000, seed: int = 0):
    """Suite ``name`` at ``bound`` with a fresh Random(seed): (checked,
    violations, first)."""
    fn, _ = SUITES[name]
    return fn(bound, cases, random.Random(seed))
