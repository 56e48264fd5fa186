"""Benchmark of the spinsieve CLI: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root, which must hold ``src/spinsieve`` and
``BENCHMARK.json``; the metric names and units come from the latter.  Each
round of the workload runs in a fresh interpreter (``worker.py``) that calls
``spinsieve.cli.main`` in-process with ``--threads 1`` and ``--format json``.
Rounds repeat until their measured wall time reaches S seconds, at least
one round.  Every report is then checked against the independent oracles
(``workloads.py``, ``oracles.py``).

With ``--trace 0`` the last line of standard output is the result with the
end-to-end metrics (medians over the rounds; ``setup_s`` is the median of
``SETUP_SAMPLES`` cold imports of ``spinsieve.cli``).  With ``--trace 1`` the
run makes one untraced and one traced round and prints the per-layer metrics
instead; the split of the import time into numpy, scipy and spinsieve comes
from import-only workers run under ``python -X importtime``.
Run logs and span files go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
SPLIT_SAMPLES = 3  # import-only workers under -X importtime, traced run only
IMPORT_GROUPS = ("numpy", "scipy", "spinsieve")
RUN_LIMIT_S = 170.0  # the whole run, so that it ends within 180 s
RESERVE_S = 25.0  # kept back from the rounds for set-up samples and checks


class Run:
    """The worker processes of one benchmark run and what they reported."""

    def __init__(self, src: Path, deadline: float):
        self.src = src
        self.deadline = deadline
        self.import_samples: list[float] = []
        self.log: list[dict] = []

    def worker(self, calls: list[list[str]], trace_file: str = "-",
               python_flags: tuple[str, ...] = ()) -> dict | None:
        """One fresh interpreter; None when it crashed or ran out of time."""
        cmd = [sys.executable, *python_flags, str(HERE / "worker.py"), str(self.src),
               json.dumps(calls), trace_file]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            error = "timed out"
        else:
            lines = proc.stdout.strip().splitlines()
            error = proc.stderr[-4000:] if proc.returncode != 0 or not lines else None
        if error is not None:
            print(f"bench: worker failed: {error}", file=sys.stderr)
            self.log.append({"calls": calls, "error": error})
            return None
        res = json.loads(lines[-1])
        res["elapsed_s"] = time.monotonic() - t0
        res["stderr"] = proc.stderr
        if not python_flags:
            self.import_samples.append(res["import_s"])
        self.log.append({k: v for k, v in res.items() if k not in ("ops", "trace", "stderr")})
        return res

    def fill_setup_samples(self) -> None:
        while len(self.import_samples) < SETUP_SAMPLES and self.worker([]) is not None:
            pass

    def setup(self) -> float:
        """Median of the sampled cold-import times of spinsieve.cli."""
        return statistics.median(self.import_samples)

    def import_split(self) -> dict[str, float]:
        """Median seconds of the cold import spent in each of IMPORT_GROUPS,
        from import-only workers under ``-X importtime``."""
        samples = []
        for _ in range(SPLIT_SAMPLES):
            res = self.worker([], python_flags=("-X", "importtime"))
            if res is not None:
                samples.append(importtime_groups(res["stderr"]))
        return {g: statistics.median(s[g] for s in samples) if samples else 0.0
                for g in IMPORT_GROUPS}


def importtime_groups(stderr: str) -> dict[str, float]:
    """Seconds of an ``-X importtime`` log spent in each of IMPORT_GROUPS.

    The log lists each module after the modules it imported, indented one
    level deeper.  numpy and scipy get the cumulative time of their outermost
    modules, so what scipy pulls in (numpy submodules included) counts as
    scipy; spinsieve gets the rest of the import of ``spinsieve.cli``."""
    stack: list[tuple[int, str, int, list]] = []  # (depth, module, cumulative us, children)
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        depth = len(parts[2]) - len(parts[2].lstrip())
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        stack.append((depth, parts[2].strip(), int(parts[1]), children))

    totals = dict.fromkeys(IMPORT_GROUPS, 0)

    def walk(node) -> None:
        _, module, cumulative, children = node
        group = module.split(".")[0]
        if group in ("numpy", "scipy"):
            totals[group] += cumulative
        else:
            for child in children:
                walk(child)

    for root in stack:
        if root[1].split(".")[0] == "spinsieve":
            totals["spinsieve"] += root[2]
            walk(root)
    totals["spinsieve"] -= totals["numpy"] + totals["scipy"]
    return {g: us / 1e6 for g, us in totals.items()}


def check_ops(rounds: list[dict | None], n_calls: int, seed: int) -> tuple[int, list[str]]:
    """(attempted, failure messages) over every operation of the rounds.

    An operation is one CLI invocation with its checks; it fails on a
    non-zero exit, a traceback or a failed check, and gives one message.
    Exit 1 is how the CLI reports an identity violation; its report is
    checked too, so the message says which rows are wrong."""
    attempted = 0
    failures: list[str] = []
    for res in rounds:
        attempted += n_calls
        if res is None:
            failures += ["a worker crashed or timed out"] * n_calls
            continue
        for op in res["ops"]:
            label = " ".join(op["argv"])
            if op["error"] or op["rc"] not in (0, 1):
                failures.append(f"{label}: exit {op['rc']}\n{op['error'] or op['stderr']}")
                continue
            errs = ["exit 1, the program reports a violation"] if op["rc"] == 1 else []
            try:
                errs += workloads.check(json.loads(op["stdout"]), seed)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                errs.append(f"malformed report ({exc!r})")
            if errs:
                failures.append(f"{label}: " + "; ".join(errs))
    return attempted, failures


def layer_metrics(names: list[str], traced: dict, untraced: dict, split: dict[str, float]) -> dict:
    totals = traced["trace"]

    def get(fn: str, field: str) -> float:
        return totals.get(fn, {}).get(field, 0)

    reports = [json.loads(op["stdout"]) for op in traced["ops"] if op["rc"] == 0 and not op["error"]]
    moduli = sum(r["summary"]["moduli"] for r in reports if r["command"] == "remainder")
    derived = {
        "setup.numpy_import_s": split["numpy"],
        "setup.scipy_import_s": split["scipy"],
        "setup.spinsieve_import_s": split["spinsieve"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "arith.is_prime.calls_per_prime":
            get("arith.is_prime", "calls") / get("symbols.spin", "calls") if get("symbols.spin", "calls") else 0.0,
        "arith.factorize.calls_per_modulus": get("arith.factorize", "calls") / moduli if moduli else 0.0,
    }
    fields = {"calls": "calls", "self_s": "self_s", "values": "items", "pairs": "items"}
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        else:
            fn, field = name.rsplit(".", 1)
            out[name] = get(fn, fields[field])
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "spinsieve" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("bench: run from the repository root; src/spinsieve/cli.py or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    oracles.selftest()
    sys.path.insert(0, str(src))  # the identity checks evaluate the program's G0 closed form
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    compileall.compile_dir(str(src / "spinsieve"), quiet=1)

    run = Run(src, deadline)
    calls = workloads.calls(args.workload, args.seed)
    rounds: list[dict | None] = []
    if args.trace:
        rounds.append(run.worker(calls))
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        rounds.append(run.worker(calls, str(trace_file)))
    else:
        measured = 0.0
        while True:
            res = run.worker(calls)
            rounds.append(res)
            if res is None or any(op["rc"] or op["error"] for op in res["ops"]):
                break  # a crashed round's timings mean nothing; no need for more
            measured += res["wall_s"]
            left = run.deadline - time.monotonic() - RESERVE_S
            if measured >= args.seconds or left < 1.5 * res["elapsed_s"]:
                break
        run.fill_setup_samples()
    attempted, failures = check_ops(rounds, len(calls), args.seed)
    for msg in failures:
        print(msg, file=sys.stderr)

    done = [r for r in rounds if r is not None]
    if not done:
        print("bench: no round completed", file=sys.stderr)
        return 1
    if args.trace:
        specs = spec["per_layer"]
        values = (layer_metrics([m["name"] for m in specs], rounds[1], rounds[0], run.import_split())
                  if all(rounds) else {})
    else:
        specs = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in done),
            "cpu_s": statistics.median(r["cpu_s"] for r in done),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
            "setup_s": run.setup(),
        }
    # No operation of a workload is expected to fail, and one that failed
    # left no output that passed its checks, so any failure makes the run
    # incorrect.
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs if m["name"] in values},
    }
    log_file = out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    log_file.write_text(json.dumps({"args": vars(args), "workers": run.log,
                                    "failures": failures, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
