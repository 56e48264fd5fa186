"""Report serialization contracts and the CLI exit-code surface."""

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from spinsieve.cli import _build_parser, main
from spinsieve.reports import REPORT_SCHEMA, Report


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "spinsieve", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_report_csv_format():
    rep = Report(
        command="demo",
        parameters={"x": 1},
        rows=[{"a": 1, "b": 0.1234567890123456, "c": True}],
        summary={},
    )
    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,0.123456789012,1"


def test_report_json_schema():
    rep = Report(
        command="demo",
        parameters={"x": 1},
        rows=[{"a": 1}],
        summary={"ok": True},
    )
    obj = json.loads(rep.to_json())
    jsonschema.validate(obj, REPORT_SCHEMA)
    assert obj["schema_version"] == 1
    assert obj["rows"] == [{"a": 1}]


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
        ("lattice", "--bound", "0"),
        ("lattice", "--bound", "1"),
        ("lattice", "--cases", "0"),
        ("lattice", "--cases", "-3"),
        ("decomp", "--cases", "0"),
        ("decomp", "--x", "1000001"),
        ("spin", "--x", "100", "--threads", "-3"),
        ("theorem1", "--x", "100", "--threads", "-3"),
    ):
        code, out, err = run_cli(*args)
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
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, spinsieve.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False", proc.stderr


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
