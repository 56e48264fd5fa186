"""One round of a workload in a fresh interpreter.

    python3 bench/worker.py SRC CALLS TRACE_FILE

SRC is the directory holding the ``spinsieve`` package.  CALLS is a JSON
list of CLI argument lists, or ``[]`` to time the import only.  TRACE_FILE
is ``-`` for an untraced round, else the file the spans are written to.

The interpreter first imports spinsieve.cli, timed, before it imports
anything else, so the import time is that of a cold start and holds exactly
what the package imports (numpy and scipy today).  Then every argument list
goes to ``spinsieve.cli.main`` in this process, with standard output
captured.  Wall and CPU time run from the first call into ``main`` to the
last return.  The result is one JSON line on standard output.
"""

import sys
import time


def timed_import(src: str):
    """spinsieve.cli imported from ``src``, and the seconds the import took."""
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import spinsieve.cli

    return spinsieve.cli, time.perf_counter() - t0


def run_calls(cli, calls: list[list[str]]) -> tuple[list[dict], float, float]:
    import contextlib
    import io
    import traceback

    ops = []
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # reported as a failed operation
                rc = None
                error = traceback.format_exc()
        ops.append({"argv": argv, "rc": rc, "stdout": out.getvalue(),
                    "stderr": err.getvalue(), "error": error})
    return ops, time.perf_counter() - wall0, time.process_time() - cpu0


def main() -> None:
    src = sys.argv[1]
    cli, import_s = timed_import(src)

    import json
    import os
    import resource

    calls, trace_file = json.loads(sys.argv[2]), sys.argv[3]
    here = os.path.realpath(cli.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"spinsieve was imported from {here}, not from {src}")
    result = {"import_s": import_s}
    if calls:
        tracer = None
        if trace_file != "-":
            from spans import Tracer

            tracer = Tracer()
            tracer.install("spinsieve", methods=((sys.modules["spinsieve.reports"].Report, "render"),))
        ops, wall, cpu = run_calls(cli, calls)
        result.update(
            ops=ops,
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            with open(trace_file, "w") as fh:
                json.dump(tracer.dump(), fh)
            result["trace"] = tracer.totals()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
