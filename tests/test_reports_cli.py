"""Report serialization contracts and the CLI exit-code surface."""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsieve import arith as ar
from spinsieve.cli import _build_parser, main
from spinsieve.reports import REPORT_SCHEMA, Report


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "spinsieve", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_report_csv_format(capsys):
    rep = Report(
        command="demo",
        parameters={"x": 1},
        rows=[{"a": 1, "b": 0.1234567890123456, "c": True}],
        summary={},
    )
    rep.render("csv")
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,0.123456789012,1"


def test_report_csv_streams_one_row_per_write(monkeypatch):
    # render writes into the sys.stdout of the moment, the header and then
    # each row on its own, so the text of a large report is never held whole
    class Recorder:
        def __init__(self):
            self.calls = []

        def write(self, text):
            self.calls.append(text)

    rep = Report(
        command="demo",
        parameters={"x": 1},
        rows=[{"a": 1, "b": 0.1234567890123456, "c": True},
              {"a": -2, "b": 1e300, "c": False},
              {"a": 3, "b": 0.5, "c": True}],
        summary={},
    )
    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    rep.render("csv")
    assert all(call.count("\n") <= 1 for call in out.calls), out.calls
    assert "".join(out.calls) == "a,b,c\n1,0.123456789012,1\n-2,1e+300,0\n3,0.5,1\n"


def test_report_json_schema(capsys):
    rep = Report(
        command="demo",
        parameters={"x": 1},
        rows=[{"a": 1}],
        summary={"ok": True, "g": 0.5},
    )
    rep.render("json")
    obj = json.loads(capsys.readouterr().out)
    jsonschema.validate(obj, REPORT_SCHEMA)
    assert obj["schema_version"] == 1
    assert obj["rows"] == [{"a": 1}]
    assert obj["summary"] == {"ok": True, "g": 0.5}
    # a value JSON has no type for raises, rather than being written as its str
    for stray in (Fraction(1, 3), np.int64(7)):
        with pytest.raises(TypeError):
            Report(command="demo", parameters={}, rows=[{"a": stray}]).render("json")


def test_report_json_streams_the_bytes_of_dumps(capsys):
    # render streams into the sys.stdout of the moment the bytes json.dumps
    # would build
    rep = Report(
        command="demo",
        parameters={"x": 1},
        rows=[{"a": 1, "b": 0.1}, {"a": 2, "b": 1e300}],
        summary={"g": 1 / 3, "n": 7},
    )
    want = json.dumps(
        {"command": "demo", "parameters": {"x": 1}, "rows": rep.rows,
         "summary": rep.summary, "schema_version": 1},
        indent=2) + "\n"
    rep.render("json")
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("argv", [
    ("theorem1", "--x", "10000", "--checkpoints", "2", "--timing"),
    ("spin", "--x", "10000", "--checkpoints", "2", "--timing"),
    ("identities", "--bound", "30", "--timing"),
    ("remainder", "--x", "3000", "--d-max", "50", "--timing"),
    ("lattice", "--m", "100", "--bound", "60", "--cases", "3"),
    ("constants",),
    ("decomp", "--x", "300", "--cases", "2"),
])
def test_cli_reports_render_as_plain_json(argv, capsys):
    # every value of every command's report is a JSON type: plain json.dump,
    # with no default, writes the bytes render writes
    args = _build_parser().parse_args([*argv, "--format", "json"])
    rep, _ = args.run(args)
    want = json.dumps(
        {"command": rep.command, "parameters": rep.parameters, "rows": rep.rows,
         "summary": rep.summary, "schema_version": rep.schema_version},
        indent=2) + "\n"
    rep.render("json")
    assert capsys.readouterr().out == want


def test_cli_reports_hold_the_scan_and_walk_rows(monkeypatch):
    # the report holds the row objects the library built, not copies of them
    from spinsieve import cli, eigen, sieve

    rows = [{"d": 1, "A_d": 4, "M_d": 4.0, "g_d": 1.0, "r_d": 0.0}]
    summary = {"moduli": 1}
    monkeypatch.setattr(sieve, "remainder_scan", lambda x, D, timing: (rows, summary))
    rep, _ = cli.cmd_remainder(100, 1, False)
    assert rep.rows is rows and rep.rows[0] is rows[0] and rep.summary is summary
    sweeps = (
        (sieve, "theorem1_walk", cli.cmd_theorem1,
         {"observed": 1.0, "predicted": 2.0, "ratio": 0.5, "pair_count": 3}),
        (eigen, "spin_walk", cli.cmd_spin, {"spin_sum": 1, "prime_count": 3}),
    )
    for module, name, cmd, fields in sweeps:
        walk = [{"x": x, **fields} for x in (10, 100)]
        monkeypatch.setattr(module, name, lambda xs, stats=None, walk=walk: iter(walk))
        for timing in (False, True):
            rep, _ = cmd(100, 2, timing)
            assert len(rep.rows) == len(walk) and all(a is b for a, b in zip(rep.rows, walk))
        assert all("runtime_s" in row for row in walk)  # --timing adds its column in place


def test_cli_constants():
    code, out, _ = run_cli("constants")
    assert code == 0
    assert out.splitlines()[0] == "name,value"


def test_cli_theorem1_hand_case():
    code, out, _ = run_cli("theorem1", "--x", "100", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, REPORT_SCHEMA)
    assert obj["rows"][0]["pair_count"] == 22
    assert abs(obj["rows"][0]["observed"] - 26.745508810) < 1e-6


def test_cli_spin():
    code, out, _ = run_cli("spin", "--x", "30")
    assert code == 0
    assert out.splitlines()[1].startswith("30,0,4")


def test_cli_spin_checkpoint_rows_equal_spin_sum():
    from spinsieve import cli, eigen

    rep, checks = cli.cmd_spin(3 * 10**6 + 17, 5, timing=True)
    assert checks == {}
    xs = [row["x"] for row in rep.rows]
    assert xs == [300, 3000, 30000, 300001, 3000017]
    assert [(r["spin_sum"], r["prime_count"]) for r in rep.rows] == [eigen.spin_sum(x) for x in xs]
    times = [row["runtime_s"] for row in rep.rows]
    assert times == sorted(times)  # elapsed time to reach each checkpoint
    assert rep.summary["final_sum"] == rep.rows[-1]["spin_sum"]


def test_cli_theorem1_runtime_only_under_timing():
    from spinsieve import cli

    (plain, _), (timed, checks) = (cli.cmd_theorem1(10**6, 3, t) for t in (False, True))
    assert checks == {}
    times = [row.pop("runtime_s") for row in timed.rows]
    assert times == sorted(times) and times[0] >= 0  # elapsed time to reach each checkpoint
    assert timed.rows == plain.rows
    # --timing adds exactly the walk's stage seconds and counters to the summary
    stages = ("sieve_setup_s", "line_sieve_s", "log_sums_s", "prime_powers_s")
    counters = ("lines", "prime_values", "prime_powers")
    extra = {k: timed.summary.pop(k) for k in stages + counters}
    assert timed.summary == plain.summary
    assert all(extra[k] >= 0 for k in stages)
    values = [a * a + b**4 for b in range(1, 32) for a in range(1, math.isqrt(10**6 - b**4) + 1)]
    lam = [(ar.is_prime(n), ar.von_mangoldt(n) > 0) for n in values]
    assert extra["lines"] == 31  # 31^4 < 10^6 < 32^4
    assert extra["prime_values"] == sum(p for p, _ in lam)
    assert extra["prime_powers"] == sum(pk and not p for p, pk in lam) > 0


def test_cli_spin_runtime_only_under_timing():
    from spinsieve import cli, eigen

    (plain, _), (timed, checks) = (cli.cmd_spin(10**6, 3, t) for t in (False, True))
    assert checks == {}
    times = [row.pop("runtime_s") for row in timed.rows]
    assert times == sorted(times) and times[0] >= 0  # elapsed time to reach each checkpoint
    assert timed.rows == plain.rows
    # --timing adds exactly the walk's stage seconds and counters to the summary
    stages = ("sieve_s", "points_s", "symbols_s")
    counters = ("segments", "lattice_points", "prime_points")
    extra = {k: timed.summary.pop(k) for k in stages + counters}
    assert timed.summary == plain.summary
    assert all(isinstance(extra[k], float) and extra[k] >= 0 for k in stages)
    # a segment stops at each checkpoint: one each to 1e4 and 1e5, then
    # ceil(9e5 / 128000) = 8 of _spin_segment(1e6) integers
    assert eigen._spin_segment(10**6) == 128000 and extra["segments"] == 10
    assert extra["prime_points"] == plain.rows[-1]["prime_count"] == 39175
    # the points r^2 + s^2 <= 1e6 with r odd, s even, both positive
    legs = range(1, 1001)
    assert extra["lattice_points"] == sum(
        r % 2 == 1 and s % 2 == 0 and r * r + s * s <= 10**6 for r in legs for s in legs
    )


def test_cli_lattice_stage_times_only_under_timing():
    from spinsieve import cli, lattice

    (plain, _), (timed, checks) = (cli.cmd_lattice(400.0, 100, 10, t) for t in (False, True))
    assert checks["c_direct=c_param"][:2] == (10, 0)
    assert timed.rows == plain.rows
    # --timing adds exactly the seconds of the three counts and the annulus size
    stages = ("direct_s", "param_s", "c0_s")
    extra = {k: timed.summary.pop(k) for k in stages + ("annulus_points",)}
    assert timed.summary == plain.summary and plain.summary["pairs"] == 10
    assert all(isinstance(extra[k], float) and extra[k] >= 0 for k in stages)
    # the w with 100 <= |w|^2 <= 1600
    legs = range(-40, 41)
    assert extra["annulus_points"] == sum(100 <= u * u + v * v <= 1600 for u in legs for v in legs)


def test_cli_decomp_stage_times_only_under_timing():
    from spinsieve import cli

    (plain, _), (timed, checks) = (cli.cmd_decomp(500, 2, 2, 1, t) for t in (False, True))
    assert checks["vaughan"] == (1000, 0, [])
    assert timed.rows == plain.rows
    # --timing adds exactly the seconds of the three stages and the Vaughan cases
    stages = ("structure_s", "trials_s", "vaughan_s")
    extra = {k: timed.summary.pop(k) for k in stages + ("vaughan_cases",)}
    assert timed.summary == plain.summary
    assert all(isinstance(extra[k], float) and extra[k] >= 0 for k in stages)
    assert extra["vaughan_cases"] == 2 * plain.summary["vaughan_checked"] == 1000


def test_cli_lattice_bytes_equal_under_python_O():
    # python -O strips asserts; the counts' checks are raises and stay
    runs = [
        subprocess.run([sys.executable, *opt, "-m", "spinsieve", "lattice"], capture_output=True, text=True)
        for opt in ((), ("-O",))
    ]
    assert runs[0].returncode == 0 and len(runs[0].stdout.splitlines()) == 26  # header and 25 pairs
    assert [(r.returncode, r.stdout, r.stderr) for r in runs[1:]] == [(0, runs[0].stdout, "")]


def test_cli_identities_runtime_only_under_timing():
    args = ("identities", "--suite", "all", "--bound", "30", "--format", "json")
    code, out, _ = run_cli(*args)
    assert code == 0
    assert all("runtime_s" not in row for row in json.loads(out)["rows"])
    code, out, _ = run_cli(*args, "--timing")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 7 and all(row["runtime_s"] >= 0 for row in rows)


def test_cli_remainder_stage_times_only_under_timing():
    args = ("remainder", "--x", "3000", "--d-max", "50", "--format", "json")
    code, out, _ = run_cli(*args)
    assert code == 0
    plain = json.loads(out)
    code, out, _ = run_cli(*args, "--timing")
    assert code == 0
    timed = json.loads(out)
    stages = ["a_n_s", "tables_s", "rows_s"]
    assert list(timed["summary"]) == list(plain["summary"]) + stages
    assert all(timed["summary"][k] >= 0 for k in stages)
    assert timed["rows"] == plain["rows"]


def test_cli_usage_errors_exit_2():
    for args in (
        ("theorem1", "--x", "1e13"),
        ("spin",),
        ("nonsense",),
        ("theorem1", "--x", "100", "--format", "xml"),
        ("theorem1", "--x", "inf"),
        ("spin", "--x", "1.9"),
        ("theorem1", "--x", "100", "--checkpoints", "0"),
        ("identities", "--bound", "3"),
        ("identities", "--suite", "all", "--bound", "1"),
        ("identities", "--bound", "10001"),
        ("lattice", "--m", "0.5"),
        ("lattice", "--bound", "0"),
        ("lattice", "--bound", "1"),
        ("lattice", "--cases", "0"),
        ("lattice", "--cases", "-3"),
        ("decomp", "--cases", "0"),
        ("decomp", "--x", "1000001"),
        ("decomp", "--cases", "101"),
        ("identities", "--suite", "laws", "--cases", "100001"),
        ("lattice", "--cases", "1001"),
        ("spin", "--x", "100", "--threads", "-3"),
        ("theorem1", "--x", "100", "--threads", "-3"),
        ("remainder", "--x", "100", "--d-max", "101"),
        ("remainder", "--x", "1e8", "--d-max", "1000001"),
        ("theorem1", "--x", "0.5"),
        ("remainder", "--x", "0.5"),
        ("identities", "--bound", "-1"),
        ("lattice", "--m", "10001"),
        ("decomp", "--r", "1"),
    ):
        code, out, err = run_cli(*args)
        assert code == 2 and out == "", args
        assert "usage:" in err and "Traceback" not in err, args


def test_cli_library_caps_refuse_before_any_work():
    # The x caps are the library's.  theorem1 checks its whole checkpoint list
    # first: sieving 1e9, 1e10 and 1e11 before the 1e12 raised takes about 4 s.
    for args in (
        ("theorem1", "--x", "1e12", "--checkpoints", "4"),
        ("spin", "--x", "2e9", "--checkpoints", "3"),
        ("remainder", "--x", "2e8"),
        ("decomp", "--x", "1000000", "--r", "1"),
    ):
        t0 = time.perf_counter()
        code, out, err = run_cli(*args)
        assert time.perf_counter() - t0 < 2.0, args
        assert code == 2 and out == "", args
        assert "usage:" in err and "Traceback" not in err, args


def test_cli_checkpoints_past_log10_x_add_no_rows():
    # k stops at log10(x), so a huge --checkpoints costs nothing and adds no row
    code, out, _ = run_cli("theorem1", "--x", "100", "--checkpoints", "100000")
    assert code == 0
    assert out == run_cli("theorem1", "--x", "100", "--checkpoints", "3")[1]
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["1", "10", "100"]


def test_cli_identity_suite_green():
    code, out, _ = run_cli("identities", "--suite", "residues", "--bound", "40")
    assert code == 0
    assert out.splitlines()[1].endswith(",0")


def test_cli_identity_violation_exit_1(monkeypatch, capsys):
    from spinsieve import identities

    monkeypatch.setitem(
        identities.SUITES, "residues", (lambda bound, cases, rng: (1, 1, [(bound,)]), 10)
    )
    assert main(["identities", "--suite", "residues"]) == 1
    assert capsys.readouterr().err.strip()
    # a violation outranks the usage error of g0 and transform checking 0 cases
    assert main(["identities", "--suite", "all", "--bound", "1"]) == 1
    assert capsys.readouterr().err.strip()


def test_cli_decomp_trial_violation_exit_1(monkeypatch, capsys):
    from spinsieve import decomp

    real = decomp.prop_24_2_check
    calls = []

    def second_trial_fails(f, x, r):
        lhs, rhs, eq = real(f, x, r)
        calls.append(eq)
        return (lhs, rhs + 1, False) if len(calls) == 2 else (lhs, rhs, eq)

    monkeypatch.setattr(decomp, "prop_24_2_check", second_trial_fails)
    assert main(["decomp", "--x", "300", "--cases", "3"]) == 1
    out, err = capsys.readouterr()
    assert err == "decomp prop_24_2: first failing inputs [(1,)]\n"
    assert [line.split(",")[-1] for line in out.splitlines()[1:]] == ["1", "0", "1"]


def test_cli_lattice_pair_violation_exit_1(monkeypatch, capsys):
    from spinsieve import lattice

    real = lattice.C_param
    z1, z2 = list(lattice.hypothesis_pairs(2500, delta_cap=60, limit=3, min_norm=9))[1]
    monkeypatch.setattr(lattice, "C_param", lambda a, b, M: real(a, b, M) + ((a, b) == (z1, z2)))
    assert main(["lattice", "--m", "100", "--bound", "60", "--cases", "3"]) == 1
    out, err = capsys.readouterr()
    assert err == f"lattice c_direct=c_param: first failing inputs [({z1!r}, {z2!r})]\n"
    assert len(out.splitlines()) == 4


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_closed_pipe_keeps_the_verdict(fmt):
    # a reader that stops early, as `| head -c 100` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "spinsieve", "remainder", "--x", "1e6", "--d-max", "100000",
         "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert len(head) == 100 and "Traceback" not in err and err == "", err


def test_cli_decomp_and_lattice_exit_0():
    code, out, _ = run_cli("decomp", "--x", "300", "--r", "2", "--cases", "1")
    assert code == 0
    code, out, _ = run_cli("lattice", "--m", "100", "--bound", "60", "--cases", "3")
    assert code == 0


def test_cli_decomp_huge_r_runs_in_bounded_memory():
    # kth_root(x, r^2) once built 2^(r^2): gigabytes and minutes for this call
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

    proc = subprocess.run(
        [sys.executable, "-m", "spinsieve", "decomp", "--x", "3", "--r", "1000000000000"],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "trial,r,lhs,rhs,equal"


def test_cli_import_leaves_scipy_unloaded():
    # the import and the two commands whose closed forms replaced quadrature
    script = (
        "import contextlib, io, sys, spinsieve.cli as cli\n"
        "loaded = 'scipy' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = (cli.main(['lattice', '--m', '400', '--bound', '100', '--cases', '3']),\n"
        "          cli.main(['constants']))\n"
        "print(loaded, rc, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "False (0, 0) False", proc.stderr


def test_cli_identities_and_lattice_leave_numpy_ma_unloaded():
    # numpy.ma costs about 10 ms to import; a bare np.unique can load it
    script = (
        "import contextlib, io, sys, spinsieve.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = (cli.main(['identities', '--suite', 'all']), cli.main(['lattice']))\n"
        "print(rc, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "(0, 0) False", proc.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
def test_import_runs_one_thread_and_keeps_a_preset_blas_setting():
    # numpy's OpenBLAS would start a second thread at import; the package
    # asks for one unless OPENBLAS_NUM_THREADS is already set
    script = (
        "import os, spinsieve\n"
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}

    def threads_and_setting(env):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    assert threads_and_setting(env) == ["1", "1"]
    assert threads_and_setting({**env, "OPENBLAS_NUM_THREADS": "2"})[1] == "2"


def test_cli_reports_byte_identical_across_threads():
    for cmd in (
        ("spin", "--x", "10000"),
        ("theorem1", "--x", "10000", "--checkpoints", "2"),
        ("remainder", "--x", "2000"),
    ):
        _, out1, _ = run_cli(*cmd, "--threads", "1")
        _, outn, _ = run_cli(*cmd, "--threads", "4")
        assert out1 == outn, cmd


def test_cli_reports_byte_identical_across_runs():
    for cmd in (
        ("identities", "--suite", "laws", "--bound", "80", "--seed", "3"),
        ("decomp", "--x", "200", "--cases", "2", "--seed", "5"),
        ("constants",),
    ):
        _, out1, _ = run_cli(*cmd)
        _, out2, _ = run_cli(*cmd)
        assert out1 == out2, cmd


# Edge tokens and small ints keep every drawn run fast.
EDGE_TOKENS = ("inf", "-inf", "nan", "0", "-3", "1.9", "1e30", "abc")
SMALL_INTS = tuple(str(i) for i in range(1, 51))


def _flags_by_command():
    """{subcommand: its flag actions}, read from argparse internals; {} when a
    later argparse no longer exposes them, which skips the fuzz test."""
    try:
        sub = next(
            a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        return {
            name: [a for a in p._actions if a.option_strings and a.dest != "help"]
            for name, p in sub.choices.items()
        }
    except (AttributeError, StopIteration):
        return {}


_FLAGS = _flags_by_command()


@st.composite
def cli_argv(draw):
    """A subcommand with a value for each of its flags and a random subset of
    its switches.  Flags with choices take one of them; of the others, at
    most one takes an edge token and the rest take small ints."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    actions = _FLAGS[command]
    edge = draw(st.sampled_from([None] + [a.dest for a in actions if a.nargs != 0 and not a.choices]))
    argv = [command]
    for action in actions:
        flag = action.option_strings[0]
        if action.nargs == 0:
            if draw(st.booleans()):
                argv.append(flag)
            continue
        pool = action.choices or (EDGE_TOKENS if action.dest == edge else SMALL_INTS)
        argv += [flag, draw(st.sampled_from(tuple(pool)))]
    return argv


@pytest.mark.skipif(not _FLAGS, reason="argparse internals changed")
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cli_argv())
def test_cli_fuzz_no_traceback(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), argv
