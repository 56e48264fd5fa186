"""Command-line surface: experiments and identity suites with CSV/JSON reports.

Exit codes: 0 success, 1 identity violation, 2 usage error.  Every command
runs in one thread, and reports are byte-identical across runs; wall-clock
timing columns are emitted only under --timing so that default output
stays reproducible.  --threads is accepted for compatibility and selects
nothing.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time

from . import decomp, eigen, identities, lattice, sieve
from .gaussian import delta
from .reports import Report

_X_MAX = 10**11


# ---------------------------------------------------------------------------
# commands


def _decades(x: int, checkpoints: int, least: int) -> list[int]:
    # x // 10^k for k < checkpoints, ascending, keeping those >= least; past
    # k = log10(x) every x // 10^k is 0, so k stops there.
    ks = range(min(checkpoints, len(str(x))) - 1, -1, -1)
    return [x // 10**k for k in ks if x // 10**k >= least]


def cmd_theorem1(x: int, checkpoints: int, timing: bool) -> Report:
    xs = _decades(x, checkpoints, 1)
    rows = []
    for xv in xs:
        rep = sieve.theorem1_experiment(xv)
        row = {
            "x": rep.x,
            "observed": rep.observed,
            "predicted": rep.predicted,
            "ratio": rep.ratio,
            "pair_count": rep.pair_count,
        }
        if timing:
            row["runtime_s"] = rep.runtime_seconds
        rows.append(row)
    return Report(
        command="theorem1",
        parameters={"x": x, "checkpoints": checkpoints},
        rows=rows,
        summary={"final_ratio": rows[-1]["ratio"] if rows else 0.0},
    )


def cmd_spin(x: int, checkpoints: int, timing: bool) -> Report:
    xs = _decades(x, checkpoints, 2)
    rows = []
    for xv in xs:
        t0 = time.perf_counter()
        total, count = eigen.spin_sum(xv)
        row = {"x": xv, "spin_sum": total, "prime_count": count}
        if timing:
            row["runtime_s"] = time.perf_counter() - t0
        rows.append(row)
    return Report(
        command="spin",
        parameters={"x": x, "checkpoints": checkpoints},
        rows=rows,
        summary={"final_sum": rows[-1]["spin_sum"] if rows else 0},
    )


def cmd_identities(suite: str, bound: int | None, cases: int, seed: int) -> Report:
    names = list(identities.SUITES) if suite == "all" else [suite]
    rows = []
    for name in names:
        b = bound or identities.SUITES[name][1]
        checked, violations, first = identities.run(name, b, cases, seed)
        if violations:
            sys.stderr.write(f"identities {name}: first failing inputs {first}\n")
        rows.append(
            {
                "suite": name,
                "bound": b,
                "cases": checked,
                "violations": violations,
            }
        )
    return Report(
        command="identities",
        parameters={"suite": suite, "bound": bound or 0, "cases": cases, "seed": seed},
        rows=rows,
        summary={"violations": sum(r["violations"] for r in rows)},
    )


def cmd_remainder(x: int, d_max: int) -> Report:
    rows_raw, summary = sieve.remainder_scan(x, d_max)
    rows = [
        {
            "d": r.d,
            "A_d": r.A_d,
            "M_d": r.M_d,
            "g_d": float(r.g_d),
            "r_d": r.r_d,
        }
        for r in rows_raw
    ]
    return Report(
        command="remainder",
        parameters={"x": x, "d_max": d_max},
        rows=rows,
        summary=summary,
    )


def cmd_lattice(M: float, bound: int, cases: int) -> Report:
    rows = []
    exact = 0
    for z1, z2 in lattice.hypothesis_pairs(2500, delta_cap=bound, limit=cases, min_norm=9):
        cd = lattice.C_direct(z1, z2, M)
        cp = lattice.C_param(z1, z2, M)
        c0 = lattice.C0(z1, z2, M)
        eq = cd == cp
        exact += eq
        rows.append(
            {
                "z1_re": z1.re,
                "z1_im": z1.im,
                "z2_re": z2.re,
                "z2_im": z2.im,
                "delta": delta(z1, z2),
                "c_direct": cd,
                "c_param": cp,
                "exact_equal": eq,
                "c0": c0,
            }
        )
    return Report(
        command="lattice",
        parameters={"M": M, "bound": bound, "cases": cases},
        rows=rows,
        summary={"pairs": len(rows), "exact_equal": exact},
    )


def cmd_constants() -> Report:
    rows = [
        {"name": "kappa_quadrature", "value": sieve.kappa()},
        {"name": "kappa_closed_form", "value": sieve.kappa_closed_form()},
        {"name": "four_over_pi", "value": 4.0 / math.pi},
        {"name": "euler_product_1e6", "value": sieve.H_partial(10**6)},
        {"name": "e_gamma_0", "value": lattice.E_gamma(0.0)},
    ]
    return Report(command="constants", parameters={}, rows=rows, summary={})


def cmd_decomp(x: int, r: int, cases: int, seed: int) -> Report:
    rng = random.Random(seed)
    from .decomp import _squarefree_up_to

    support = _squarefree_up_to(x)
    rows = []
    bad = 0
    for trial in range(cases):
        f = {ell: rng.choice((-1, 1)) for ell in support}
        lhs, rhs, eq = decomp.prop_24_2_check(f, x, r)
        bad += not eq
        rows.append(
            {
                "trial": trial,
                "r": r,
                "lhs": float(lhs),
                "rhs": float(rhs),
                "equal": eq,
            }
        )
    vx = min(x, 2000)
    _, v_bad, v_first = decomp.vaughan_check(vx)
    if v_bad:
        sys.stderr.write(f"decomp: Vaughan identity fails first at (n, y) in {v_first}\n")
    return Report(
        command="decomp",
        parameters={"x": x, "r": r, "cases": cases, "seed": seed},
        rows=rows,
        summary={
            "identity_failures": bad,
            "vaughan_checked": vx,
            "vaughan_failures": v_bad,
        },
    )


# ---------------------------------------------------------------------------


def _finite_positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _int_at_least(floor: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = floor - 1
        if value < floor:
            raise argparse.ArgumentTypeError(f"expected an integer >= {floor}, got {text!r}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spinsieve",
        description="Experiments and identity suites for the a^2 + b^4 machinery",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, threads=True):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if threads:
            sp.add_argument("--threads", type=_int_at_least(0), default=0,
                            help="accepted for compatibility; every command runs in one thread")

    sp = sub.add_parser("theorem1", help="Lambda-weighted count of a^2 + b^4 <= x")
    sp.add_argument("--x", type=_finite_positive, required=True)
    sp.add_argument("--checkpoints", type=_int_at_least(1), default=1)
    sp.add_argument("--timing", action="store_true")
    common(sp)

    sp = sub.add_parser("spin", help="spin sum over primes p = 1 (mod 4)")
    sp.add_argument("--x", type=_finite_positive, required=True)
    sp.add_argument("--checkpoints", type=_int_at_least(1), default=1)
    sp.add_argument("--timing", action="store_true")
    common(sp)

    sp = sub.add_parser("identities", help="exhaustive/seeded identity suites")
    sp.add_argument("--suite", choices=tuple(identities.SUITES) + ("all",), default="all")
    sp.add_argument("--bound", type=int, default=0)
    sp.add_argument("--cases", type=_int_at_least(1), default=1000)
    sp.add_argument("--seed", type=int, default=0)
    common(sp, threads=False)

    sp = sub.add_parser("remainder", help="sieve remainder scan r_d(x)")
    sp.add_argument("--x", type=_finite_positive, required=True)
    sp.add_argument("--d-max", type=int, default=0)
    common(sp)

    sp = sub.add_parser("lattice", help="direct vs parameterized ellipse counts")
    sp.add_argument("--m", type=_finite_positive, default=2500.0)
    sp.add_argument("--bound", type=int, default=200)
    sp.add_argument("--cases", type=_int_at_least(1), default=25)
    common(sp, threads=False)

    sp = sub.add_parser("constants", help="kappa, 4/pi, Euler products")
    common(sp, threads=False)

    sp = sub.add_parser("decomp", help="triple-sum and Vaughan identity trials")
    sp.add_argument("--x", type=int, default=2000)
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--cases", type=_int_at_least(1), default=5)
    sp.add_argument("--seed", type=int, default=0)
    common(sp, threads=False)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "theorem1":
            x = int(args.x)
            if not 1 <= x <= _X_MAX:
                parser.error(f"--x must be in [1, {_X_MAX}]")
            report = cmd_theorem1(x, args.checkpoints, args.timing)
        elif args.command == "spin":
            x = int(args.x)
            if not 1 <= x <= 10**9:
                parser.error("--x must be in [1, 1e9]")
            report = cmd_spin(x, args.checkpoints, args.timing)
        elif args.command == "identities":
            report = cmd_identities(
                args.suite, args.bound or None, args.cases, args.seed
            )
        elif args.command == "remainder":
            x = int(args.x)
            if not 1 <= x <= 10**8:
                parser.error("--x must be in [1, 1e8]")
            d_max = args.d_max or math.isqrt(x)
            if d_max > x:
                parser.error("--d-max must be at most x")
            report = cmd_remainder(x, d_max)
        elif args.command == "lattice":
            if args.m > 10**4:
                parser.error("--m must be in (0, 1e4]")
            report = cmd_lattice(args.m, args.bound, args.cases)
        elif args.command == "constants":
            report = cmd_constants()
        elif args.command == "decomp":
            if args.x < 1 or args.r < 2:
                parser.error("--x >= 1 and --r >= 2 required")
            if args.x > 10**6:
                parser.error("--x must be in [1, 1e6]")
            report = cmd_decomp(args.x, args.r, args.cases, args.seed)
        else:  # pragma: no cover
            parser.error("unknown command")
    except ValueError as exc:
        parser.error(str(exc))
    violations = report.summary.get("violations", 0)
    violations += report.summary.get("identity_failures", 0)
    violations += report.summary.get("vaughan_failures", 0)
    if report.command == "lattice" and report.summary["exact_equal"] != report.summary["pairs"]:
        violations += 1
    # a violation outranks the usage error of a suite that checked nothing
    if not violations and (
        not report.rows or any(row.get("cases") == 0 for row in report.rows)
    ):
        parser.error(f"{args.command}: these arguments leave nothing to report or check")

    sys.stdout.write(report.render(args.format))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
