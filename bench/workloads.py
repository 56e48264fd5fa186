"""The workloads: fixed CLI invocations and the checks on their reports.

Every check compares a report with the independent oracles in ``oracles``
or with a property the method must have, never with a stored copy of an
earlier output.  The seed goes to ``--seed`` of ``identities`` and
``decomp`` and chooses the rows and pairs that the oracles sample; the
sizes below do not depend on it.
"""

from __future__ import annotations

import functools
import math
import random

import oracles

PRIME_VALUES_X = 4_400_000_000  # a little above 2^32: 1.8% of the values take the scalar path
PRIME_VALUES_CHECKPOINTS = 3  # 4.4e7 (checked against the oracle Lambda-sum), 4.4e8, 4.4e9
RATIO_BAND = 0.02  # |observed / predicted - 1| at every checkpoint >= 1e8
SPIN_X = 10_000_000
SPIN_CHECKPOINTS = 2  # 1e6 (checked against the brute-force spins) and 1e7
G0_BOUND = 1000
REMAINDER_X = 10_000_000
REMAINDER_D = 3162  # isqrt(REMAINDER_X)
G0_SAMPLE = 24
REMAINDER_SAMPLE = 48
SUITE_NAMES = ("multiplier", "reciprocity", "laws", "g0", "counts", "transform", "residues")
DEFAULT_BOUNDS = {"multiplier": 500, "reciprocity": 500, "laws": 500, "g0": 500,
                  "counts": 300, "transform": 500, "residues": 150}
LATTICE_CASES = 25
DECOMP_CASES = 5
VAUGHAN_CHECKED = 2000


def calls(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument lists of one round of ``workload``."""
    fmt = ["--format", "json"]
    one = ["--threads", "1"]
    if workload == "prime-values":
        return [["theorem1", "--x", str(PRIME_VALUES_X),
                 "--checkpoints", str(PRIME_VALUES_CHECKPOINTS)] + one + fmt]
    if workload == "spin-walk":
        return [["spin", "--x", str(SPIN_X), "--checkpoints", str(SPIN_CHECKPOINTS)] + one + fmt]
    if workload == "identity-sweep":
        return [
            ["identities", "--suite", "all", "--seed", str(seed)] + fmt,
            ["identities", "--suite", "g0", "--bound", str(G0_BOUND), "--seed", str(seed)] + fmt,
            ["lattice"] + fmt,
            ["decomp", "--seed", str(seed)] + fmt,
        ]
    if workload == "remainder-scan":
        return [["remainder", "--x", str(REMAINDER_X), "--d-max", str(REMAINDER_D)] + one + fmt]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("prime-values", "spin-walk", "identity-sweep", "remainder-scan")


# ---------------------------------------------------------------------------
# oracle values, computed once per process


@functools.cache
def _flags(n: int):
    return oracles.prime_flags(n)


@functools.cache
def _lambda_sum(x: int) -> float:
    return oracles.lambda_sum(x, _flags(x))


@functools.cache
def _spin_sum(x: int) -> tuple[int, int]:
    return oracles.spin_sum(x, _flags(x))


@functools.cache
def _pairs(bound: int):
    return oracles.admissible_pairs(bound)


@functools.cache
def _suite_cases(name: str, bound: int) -> int | None:
    if name == "counts":
        return oracles.counts_cases(bound)
    if name == "residues":
        return oracles.residues_cases(bound)
    if name == "g0":
        return len(_pairs(bound))
    if name == "transform":
        return oracles.transform_cases(_pairs(bound))
    if name == "reciprocity":
        return len(oracles.primary_primitive(bound)) ** 2
    if name == "multiplier":
        return oracles.multiplier_cases(bound)
    return None  # `laws` draws its cases at random


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages, empty when the report holds


def check(report: dict, seed: int) -> list[str]:
    return _CHECKS[report["command"]](report, seed)


def _check_theorem1(rep: dict, seed: int) -> list[str]:
    bad = []
    rows = rep["rows"]
    xs = [PRIME_VALUES_X // 10**k for k in range(PRIME_VALUES_CHECKPOINTS - 1, -1, -1)]
    if [r["x"] for r in rows] != xs:
        return [f"theorem1: checkpoints {[r['x'] for r in rows]} != {xs}"]
    for r in rows:
        x = r["x"]
        if r["pair_count"] != oracles.pair_count(x):
            bad.append(f"theorem1 x={x}: pair_count {r['pair_count']} != {oracles.pair_count(x)}")
        if not _close(r["predicted"], oracles.predicted(x), 1e-12):
            bad.append(f"theorem1 x={x}: predicted {r['predicted']} != {oracles.predicted(x)}")
        if not _close(r["ratio"], r["observed"] / oracles.predicted(x), 1e-12):
            bad.append(f"theorem1 x={x}: ratio {r['ratio']} != observed / predicted")
        if x >= 10**8 and not abs(r["ratio"] - 1.0) <= RATIO_BAND:
            bad.append(f"theorem1 x={x}: ratio {r['ratio']} outside 1 +- {RATIO_BAND}")
    x0 = rows[0]["x"]
    if not _close(rows[0]["observed"], _lambda_sum(x0), 1e-9):
        bad.append(f"theorem1 x={x0}: observed {rows[0]['observed']} != oracle {_lambda_sum(x0)}")
    if rep["summary"].get("final_ratio") != rows[-1]["ratio"]:
        bad.append("theorem1: summary final_ratio is not the last row's ratio")
    return bad


def _check_spin(rep: dict, seed: int) -> list[str]:
    bad = []
    rows = rep["rows"]
    xs = [SPIN_X // 10**k for k in range(SPIN_CHECKPOINTS - 1, -1, -1)]
    if [r["x"] for r in rows] != xs:
        return [f"spin: checkpoints {[r['x'] for r in rows]} != {xs}"]
    flags = _flags(SPIN_X)
    for r in rows:
        x, total, count = r["x"], r["spin_sum"], r["prime_count"]
        want = oracles.count_primes_1mod4(flags, x)
        if count != want:
            bad.append(f"spin x={x}: prime_count {count} != pi(x; 4, 1) = {want}")
        if abs(total) > count or (count - total) % 2:
            bad.append(f"spin x={x}: spin_sum {total} is not a sum of {count} signs")
    x0 = rows[0]["x"]
    want = _spin_sum(x0)
    if (rows[0]["spin_sum"], rows[0]["prime_count"]) != want:
        bad.append(f"spin x={x0}: (spin_sum, prime_count) {rows[0]['spin_sum'], rows[0]['prime_count']} != oracle {want}")
    if rep["summary"].get("final_sum") != rows[-1]["spin_sum"]:
        bad.append("spin: summary final_sum is not the last row's spin_sum")
    return bad


@functools.cache
def _program_G0():
    # The program's closed form, evaluated here on oracle-chosen pairs: the
    # suites report only case counts, not the values they compared.
    from spinsieve.congruences import G0_formula
    from spinsieve.gaussian import GaussianInt

    return lambda z1, z2: G0_formula(GaussianInt(*z1), GaussianInt(*z2))


def _check_identities(rep: dict, seed: int) -> list[str]:
    bad = []
    suite = rep["parameters"]["suite"]
    names = list(SUITE_NAMES) if suite == "all" else [suite]
    if [r["suite"] for r in rep["rows"]] != names:
        return [f"identities: suites {[r['suite'] for r in rep['rows']]} != {names}"]
    for r in rep["rows"]:
        name, bound = r["suite"], r["bound"]
        want_bound = rep["parameters"]["bound"] or DEFAULT_BOUNDS[name]
        if bound != want_bound:
            bad.append(f"identities {name}: bound {bound} != {want_bound}")
        if r["violations"] != 0 or r["cases"] <= 0:
            bad.append(f"identities {name}: {r['violations']} violations in {r['cases']} cases")
        want = _suite_cases(name, bound)
        if want is not None and r["cases"] != want:
            bad.append(f"identities {name} bound={bound}: cases {r['cases']} != {want}")
        if name == "g0":
            G0 = _program_G0()
            rng = random.Random(f"g0-{seed}-{bound}")
            for z1, z2 in rng.sample(_pairs(bound), G0_SAMPLE):
                if G0(z1, z2) != oracles.G0_naive(z1, z2):
                    bad.append(f"identities g0: G0{z1, z2} != naive count")
    if rep["summary"].get("violations") != 0:
        bad.append("identities: summary violations != 0")
    return bad


def _check_lattice(rep: dict, seed: int) -> list[str]:
    bad = []
    rows, summ = rep["rows"], rep["summary"]
    if not (summ["pairs"] == len(rows) == LATTICE_CASES and summ["exact_equal"] == summ["pairs"]):
        bad.append(f"lattice: {summ['exact_equal']} of {summ['pairs']} pairs exact, {len(rows)} rows")
    for r in rows:
        d = r["z1_re"] * r["z2_im"] - r["z2_re"] * r["z1_im"]
        if not (r["exact_equal"] and r["c_direct"] == r["c_param"] and r["delta"] == d):
            bad.append(f"lattice: row {r} inconsistent")
    return bad


def _check_decomp(rep: dict, seed: int) -> list[str]:
    summ = rep["summary"]
    bad = []
    if summ["identity_failures"] or summ["vaughan_failures"] or summ["vaughan_checked"] != VAUGHAN_CHECKED:
        bad.append(f"decomp: summary {summ}")
    if len(rep["rows"]) != DECOMP_CASES or not all(r["equal"] and r["lhs"] == r["rhs"] for r in rep["rows"]):
        bad.append("decomp: a trial row is missing or unequal")
    return bad


def _check_remainder(rep: dict, seed: int) -> list[str]:
    bad = []
    rows, summ = rep["rows"], rep["summary"]
    x, D = summ["x"], summ["D"]
    if (x, D) != (REMAINDER_X, REMAINDER_D):
        return [f"remainder: (x, D) = {x, D}"]
    Ax = oracles.divisible_pairs(x, 1)
    if summ["A_x"] != Ax:
        bad.append(f"remainder: A_x {summ['A_x']} != direct count {Ax}")
    ds = oracles.cubefree_up_to(D)
    if [r["d"] for r in rows] != ds or summ["moduli"] != len(ds):
        return bad + ["remainder: rows are not the cubefree d <= D in order"]
    for r in rows:
        want = r["A_d"] - r["g_d"] * Ax
        if not _close(r["r_d"], want, 1e-9):
            bad.append(f"remainder d={r['d']}: r_d {r['r_d']} != A_d - g_d A_x = {want}")
    rng = random.Random(f"remainder-{seed}")
    for r in rng.sample(rows, REMAINDER_SAMPLE):
        d = r["d"]
        if r["A_d"] != oracles.divisible_pairs(x, d):
            bad.append(f"remainder d={d}: A_d {r['A_d']} != direct count {oracles.divisible_pairs(x, d)}")
        if r["g_d"] != float(oracles.local_density(d)):
            bad.append(f"remainder d={d}: g_d {r['g_d']} != local density {oracles.local_density(d)}")
    total = math.fsum(abs(r["r_d"]) for r in rows)
    if not _close(summ["sum_abs_r"], total, 1e-12):
        bad.append(f"remainder: sum_abs_r {summ['sum_abs_r']} != {total}")
    if not _close(summ["bound_ratio"], total / (D**0.25 * x**0.5625), 1e-12):
        bad.append("remainder: bound_ratio != sum_abs_r / (D^(1/4) x^(9/16))")
    return bad


_CHECKS = {
    "theorem1": _check_theorem1,
    "spin": _check_spin,
    "identities": _check_identities,
    "lattice": _check_lattice,
    "decomp": _check_decomp,
    "remainder": _check_remainder,
}
