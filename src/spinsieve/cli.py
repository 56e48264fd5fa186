"""Command-line surface: experiments and identity suites with CSV/JSON reports.

Each command returns its report and its checks, {label: (checked,
violations, first failing inputs)}; main alone turns the checks into the
exit code and the standard-error lines.  Exit codes: 0 success, 1 identity
violation (each violated check writes "<command> <label>: first failing
inputs [...]" to standard error), 2 usage error, which includes a run that
leaves no rows or has a check of 0 cases.  Every command runs in one
thread, and reports are byte-identical across runs; wall-clock timing
columns are emitted only under --timing so that default output stays
reproducible.  --threads is accepted for compatibility and selects nothing.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from collections.abc import Iterable

from . import decomp, eigen, identities, lattice, sieve
from ._util import Tally
from .gaussian import delta
from .reports import Report


# ---------------------------------------------------------------------------
# commands: each returns (report, checks), checks mapping a label to a
# Tally result (checked, violations, first failing inputs)

Checks = dict[str, tuple[int, int, list[tuple]]]


def _decades(x: int, checkpoints: int, least: int) -> list[int]:
    # x // 10^k for k < checkpoints, ascending, keeping those >= least; past
    # k = log10(x) every x // 10^k is 0, so k stops there.
    ks = range(min(checkpoints, len(str(x))) - 1, -1, -1)
    return [x // 10**k for k in ks if x // 10**k >= least]


def _sweep(walk: Iterable[dict], timing: bool) -> list[dict]:
    # one sweep serves every checkpoint; runtime_s is the time to reach it
    rows = []
    t0 = time.perf_counter()
    for row in walk:
        if timing:
            row["runtime_s"] = time.perf_counter() - t0
        rows.append(row)
    return rows


def cmd_theorem1(x: int, checkpoints: int, timing: bool) -> tuple[Report, Checks]:
    stats = {} if timing else None  # the walk's stage seconds and counters
    rows = _sweep(sieve.theorem1_walk(_decades(x, checkpoints, 1), stats=stats), timing)
    return Report(
        command="theorem1",
        parameters={"x": x, "checkpoints": checkpoints},
        rows=rows,
        summary={"final_ratio": rows[-1]["ratio"] if rows else 0.0, **(stats or {})},
    ), {}


def cmd_spin(x: int, checkpoints: int, timing: bool) -> tuple[Report, Checks]:
    stats = {} if timing else None  # the walk's stage seconds and counters
    rows = _sweep(eigen.spin_walk(_decades(x, checkpoints, 2), stats=stats), timing)
    return Report(
        command="spin",
        parameters={"x": x, "checkpoints": checkpoints},
        rows=rows,
        summary={"final_sum": rows[-1]["spin_sum"] if rows else 0, **(stats or {})},
    ), {}


def cmd_identities(suite: str, bound: int, cases: int, seed: int,
                   timing: bool) -> tuple[Report, Checks]:
    # bound 0 runs each suite at its own default bound; one check per suite
    names = list(identities.SUITES) if suite == "all" else [suite]
    rows = []
    checks = {}
    for name in names:
        b = bound or identities.SUITES[name][1]
        t0 = time.perf_counter()
        checks[name] = identities.run(name, b, cases, seed)
        checked, violations, _ = checks[name]
        row = {
            "suite": name,
            "bound": b,
            "cases": checked,
            "violations": violations,
        }
        if timing:
            row["runtime_s"] = time.perf_counter() - t0
        rows.append(row)
    return Report(
        command="identities",
        parameters={"suite": suite, "bound": bound, "cases": cases, "seed": seed},
        rows=rows,
        summary={"violations": sum(r["violations"] for r in rows)},
    ), checks


def cmd_remainder(x: int, d_max: int, timing: bool) -> tuple[Report, Checks]:
    d_max = d_max or math.isqrt(x)
    rows, summary = sieve.remainder_scan(x, d_max, timing)
    return Report(
        command="remainder",
        parameters={"x": x, "d_max": d_max},
        rows=rows,
        summary=summary,
    ), {}


def cmd_lattice(M: float, bound: int, cases: int, timing: bool) -> tuple[Report, Checks]:
    rows = []
    exact = 0
    t = Tally()
    seconds = dict.fromkeys(("direct_s", "param_s", "c0_s"), 0.0)
    for z1, z2 in lattice.hypothesis_pairs(2500, delta_cap=bound, limit=cases, min_norm=9):
        t0 = time.perf_counter()
        cd = lattice.C_direct(z1, z2, M)
        t1 = time.perf_counter()
        cp = lattice.C_param(z1, z2, M)
        t2 = time.perf_counter()
        c0 = lattice.C0(z1, z2, M)
        for key, dt in zip(seconds, (t1 - t0, t2 - t1, time.perf_counter() - t2)):
            seconds[key] += dt
        eq = cd == cp
        exact += eq
        if cd or cp:  # two empty counts check nothing
            t.case(eq, z1, z2)
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
    summary = {"pairs": len(rows), "exact_equal": exact}
    if timing:  # the seconds of each count over all pairs, and the w C_direct scans per pair
        summary |= seconds | {"annulus_points": len(lattice._annulus(M)[0])}
    return Report(
        command="lattice",
        parameters={"M": M, "bound": bound, "cases": cases},
        rows=rows,
        summary=summary,
    ), {"c_direct=c_param": t.result()}


def cmd_constants() -> tuple[Report, Checks]:
    rows = [
        {"name": "kappa_quadrature", "value": sieve.kappa()},
        {"name": "kappa_closed_form", "value": sieve.kappa_closed_form()},
        {"name": "four_over_pi", "value": 4.0 / math.pi},
        {"name": "euler_product_1e6", "value": sieve.H_partial(10**6)},
        {"name": "e_gamma_0", "value": lattice.E_gamma(0.0)},
    ]
    return Report(command="constants", parameters={}, rows=rows, summary={}), {}


def cmd_decomp(x: int, r: int, cases: int, seed: int, timing: bool) -> tuple[Report, Checks]:
    rows = []
    t = Tally()
    t0 = time.perf_counter()
    decomp.identity_structure(x, r)  # cached; the trials read it
    t1 = time.perf_counter()
    for trial, (lhs, rhs, eq) in enumerate(decomp.prop_24_2_trials(x, r, cases, seed)):
        t.case(eq, trial)
        rows.append(
            {
                "trial": trial,
                "r": r,
                "lhs": float(lhs),
                "rhs": float(rhs),
                "equal": eq,
            }
        )
    t2 = time.perf_counter()
    vx = min(x, 2000)
    vaughan = decomp.vaughan_check(vx)  # its inputs are (n, y)
    summary = {
        "identity_failures": t.violations,
        "vaughan_checked": vx,
        "vaughan_failures": vaughan[1],
    }
    if timing:
        summary |= {
            "structure_s": t1 - t0,
            "trials_s": t2 - t1,
            "vaughan_s": time.perf_counter() - t2,
            "vaughan_cases": vaughan[0],
        }
    return Report(
        command="decomp",
        parameters={"x": x, "r": r, "cases": cases, "seed": seed},
        rows=rows,
        summary=summary,
    ), {"prop_24_2": t.result(), "vaughan": vaughan}


# ---------------------------------------------------------------------------


def _finite_positive(hi: float = math.inf):
    """argparse type: a finite number in (0, hi].  Its name, which help
    shows as %(type)s, states the range."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and 0 < value <= hi):
            raise argparse.ArgumentTypeError(f"expected {parse.__name__}, got {text!r}")
        return value

    parse.__name__ = "a finite positive number" + (f" <= {hi}" if hi < math.inf else "")
    return parse


def _int_in(lo: float, hi: float = math.inf):
    """argparse type: an integer in [lo, hi], named like _finite_positive."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"expected {parse.__name__}, got {text!r}")
        return value

    sides = [f"{op} {v}" for op, v in ((">=", lo), ("<=", hi)) if abs(v) < math.inf]
    parse.__name__ = "an integer " + " and ".join(sides)
    return parse


def _build_parser() -> argparse.ArgumentParser:
    # The argparse types hold the CLI's own resource caps; the x caps and
    # every other domain are the library's, whose ValueError main reports as
    # a usage error before any work is done.
    p = argparse.ArgumentParser(
        prog="spinsieve",
        description="Experiments and identity suites for the a^2 + b^4 machinery",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, threads=True):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if threads:
            sp.add_argument("--threads", type=_int_in(0), default=0,
                            help="accepted for compatibility; every command runs in one thread")

    sp = sub.add_parser("theorem1", help="Lambda-weighted count of a^2 + b^4 <= x")
    sp.add_argument("--x", type=_finite_positive(), required=True)
    sp.add_argument("--checkpoints", type=_int_in(1), default=1)
    sp.add_argument("--timing", action="store_true")
    sp.set_defaults(run=lambda a: cmd_theorem1(int(a.x), a.checkpoints, a.timing))
    common(sp)

    sp = sub.add_parser("spin", help="spin sum over primes p = 1 (mod 4)")
    sp.add_argument("--x", type=_finite_positive(), required=True)
    sp.add_argument("--checkpoints", type=_int_in(1), default=1)
    sp.add_argument("--timing", action="store_true")
    sp.set_defaults(run=lambda a: cmd_spin(int(a.x), a.checkpoints, a.timing))
    common(sp)

    sp = sub.add_parser("identities", help="exhaustive/seeded identity suites")
    sp.add_argument("--suite", choices=tuple(identities.SUITES) + ("all",), default="all")
    sp.add_argument("--bound", type=_int_in(0, 10**4), default=0,
                    help="%(type)s; 0 runs each suite at its own default")
    sp.add_argument("--cases", type=_int_in(1, 10**5), default=1000,
                    help="%(type)s: seeded cases of the laws suite, the only suite that reads it: "
                         "max(1, cases // #w) z per w and cases (w1, w2, z) for the product laws")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--timing", action="store_true")
    sp.set_defaults(run=lambda a: cmd_identities(a.suite, a.bound, a.cases, a.seed, a.timing))
    common(sp, threads=False)

    sp = sub.add_parser("remainder", help="sieve remainder scan r_d(x)")
    sp.add_argument("--x", type=_finite_positive(), required=True)
    sp.add_argument("--d-max", type=int, default=0)
    sp.add_argument("--timing", action="store_true")
    sp.set_defaults(run=lambda a: cmd_remainder(int(a.x), a.d_max, a.timing))
    common(sp)

    sp = sub.add_parser("lattice", help="direct vs parameterized ellipse counts")
    sp.add_argument("--m", type=_finite_positive(10**4), default=2500.0, help="%(type)s")
    sp.add_argument("--bound", type=int, default=200)
    sp.add_argument("--cases", type=_int_in(1, 1000), default=25, help="%(type)s")
    sp.add_argument("--timing", action="store_true")
    sp.set_defaults(run=lambda a: cmd_lattice(a.m, a.bound, a.cases, a.timing))
    common(sp, threads=False)

    sp = sub.add_parser("constants", help="kappa, 4/pi, Euler products")
    sp.set_defaults(run=lambda a: cmd_constants())
    common(sp, threads=False)

    sp = sub.add_parser("decomp", help="triple-sum and Vaughan identity trials")
    sp.add_argument("--x", type=_int_in(-math.inf, 10**6), default=2000, help="%(type)s")
    sp.add_argument("--r", type=int, default=2)
    sp.add_argument("--cases", type=_int_in(1, 100), default=5, help="%(type)s")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--timing", action="store_true")
    sp.set_defaults(run=lambda a: cmd_decomp(a.x, a.r, a.cases, a.seed, a.timing))
    common(sp, threads=False)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report, checks = args.run(args)
    except ValueError as exc:
        parser.error(str(exc))
    failed = [(label, first) for label, (_, violations, first) in checks.items() if violations]
    for label, first in failed:
        sys.stderr.write(f"{args.command} {label}: first failing inputs {first}\n")
    # a violation outranks the usage error of a run that checked nothing
    if not failed and (not report.rows or any(checked == 0 for checked, _, _ in checks.values())):
        parser.error(f"{args.command}: these arguments leave nothing to report or check")
    try:
        report.render(args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early.  Point the stdout fd at devnull so
        # that the interpreter's final flush stays quiet; the verdict stands.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
