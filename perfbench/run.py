#!/usr/bin/env python3
"""Benchmark of montesinos-slopes: whole CLI runs, timed end to end.

    python3 perfbench/run.py --workload knot-mix --seed 1 --seconds 38 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``. One client in a closed loop, with no threads: each op (one knot)
is a ``montesinos.cli.main(argv)`` call, or a library ``enumerate_systems``
call, made in this process with stdout captured, and the next op starts
when it returns. A pass runs every op of the workload once, each after a
full garbage collection, and its time is the sum of its ops' times; passes
repeat while the time left covers another pass, and at least one runs.

Every op's stdout is checked against its SHA-256 in ``reference.json``,
recorded at the seed commit, and every ``verify-family`` row must read
PASS. An op that completed in the reference and now differs or fails is a
failure. An op the reference refused that now completes is counted as
unreferenced, not failed. Two known-defect probes run once per invocation,
outside the timed passes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` it carries the per-layer metrics instead: the run makes
two untraced passes (the first warms up), one pass with spans around each
layer's public functions (self times, call and outcome counts; the spans
are written to ``perfbench/out/``) and one pass that counts ``Frac``
constructions and diagram edges. Traced timings never feed the end-to-end
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from workloads import PROBES, WORKLOADS, Op, workload_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

SETUP_SAMPLES = 11
SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, {src!r})\n"
    "import montesinos.cli\n"
    "montesinos.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "wall_s": "s",
    "knots_per_s": "1/s",
    "knot_p50_ms": "ms",
    "knot_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "completed_share": "ratio",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "systems.solve_endpoints.calls": "count",
    "systems.solve_endpoints.self_s": "s",
    "systems.solve_endpoints.accepted": "count",
    "systems.solve_endpoints.rejected": "count",
    "systems.solve_endpoints.degenerate": "count",
    "systems.solve_endpoints.accept_ratio": "ratio",
    "rationals.frac_new": "count",
    "edgepaths.enumerate_skeletons.calls": "count",
    "edgepaths.enumerate_skeletons.self_s": "s",
    "edgepaths.skeletons": "count",
    "systems.find_seifert_system.calls": "count",
    "systems.find_seifert_system.self_s": "s",
    "systems.find_seifert_system.refused": "count",
    "farey.diagram_edge.calls": "count",
    "systems.enumerate_systems.calls": "count",
    "systems.enumerate_systems.self_s": "s",
    "systems.systems.type_I": "count",
    "systems.systems.type_II": "count",
    "systems.systems.type_III": "count",
    "surfaces.build_reports.calls": "count",
    "surfaces.build_reports.self_s": "s",
    "surfaces.reports": "count",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Span names whose self time is reported as "<name>.self_s"; cli.main's is
# reported as cli.self_s.
SPAN_LAYERS = (
    "systems.solve_endpoints",
    "edgepaths.enumerate_skeletons",
    "systems.find_seifert_system",
    "systems.enumerate_systems",
    "surfaces.build_reports",
)


# -- running and checking ops ----------------------------------------------------


@dataclass
class Outcome:
    seconds: float
    code: int | str  # exit code, or the class name of an exception main() let out
    stdout: str
    stderr: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()


def run_op(op: Op) -> Outcome:
    import montesinos
    from montesinos import cli

    out, err = io.StringIO(), io.StringIO()
    systems = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.library:
                systems = montesinos.enumerate_systems(montesinos.MontesinosKnot.parse(op.argv[0]))
                code = 0
            else:
                code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the outcome is recorded by class, not raised
        code = type(exc).__name__
    seconds = time.perf_counter() - start
    stdout = out.getvalue()
    if systems is not None:
        stdout = json.dumps([s.to_dict() for s in systems], indent=1) + "\n"
    return Outcome(seconds, code, stdout, err.getvalue())


def describe_code(code) -> str:
    return f"exit {code}" if isinstance(code, int) else str(code)


def judge(op: Op, outcome: Outcome, reference: dict) -> str:
    """'ok', 'wrong' (broke the correctness gate), 'refused' (a nonzero
    exit or an exception, as in the reference) or 'unreferenced' (completed
    where the reference did not)."""
    completed = outcome.code == 0
    if completed and op.argv[0] == "verify-family":
        rows = outcome.stdout.splitlines()
        if not rows or any(row.split()[1:2] != ["PASS"] for row in rows):
            return "wrong"
    if completed and "--cross-check" in op.argv and ", 0 mismatches" not in outcome.stderr:
        return "wrong"
    expected = reference.get(op.key)
    if expected is None or expected[0] != 0:
        return "unreferenced" if completed else "refused"
    return "ok" if completed and outcome.digest == expected[1] else "wrong"


class Ledger:
    """Outcome counts over every op run in one invocation."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.status = Counter()
        self.failures = Counter()  # breakdown of failed_share's numerator

    def record(self, op: Op, outcome: Outcome) -> str:
        status = judge(op, outcome, self.reference)
        self.attempted += 1
        self.status[status] += 1
        if status == "wrong":
            self.failures[f"gate ({describe_code(outcome.code)})"] += 1
        elif status == "refused":
            self.failures[describe_code(outcome.code)] += 1
        return status

    @property
    def failed(self) -> int:
        return self.status["wrong"]

    @property
    def failed_share(self) -> float:
        return sum(self.failures.values()) / self.attempted


def run_pass(ops, ledger: Ledger, on_op=None):
    """One pass over ``ops``: the seconds its ops took together, and each
    op's (seconds, status). The checks and collections between ops are
    not part of the pass's time.

    Each op starts from an empty garbage collector, as a fresh CLI process
    would, so that its time does not depend on the ops run before it.
    """
    results = []
    for index, op in enumerate(ops):
        if on_op is not None:
            on_op(index)
        gc.collect()
        outcome = run_op(op)
        results.append((outcome.seconds, ledger.record(op, outcome)))
    return sum(seconds for seconds, _ in results), results


def run_probes(workload: str, ledger: Ledger) -> list[dict]:
    """Every probe once; only the probe owned by ``workload`` enters its ledger."""
    listed = []
    for owner, op in PROBES.items():
        outcome = run_op(op)
        entry = {"op": op.key, "workload": owner, "outcome": describe_code(outcome.code)}
        if owner == workload:
            entry["status"] = ledger.record(op, outcome)
        summary = [line for line in outcome.stderr.splitlines() if line.startswith("cross-check:")]
        if summary:
            entry["cross_check"] = summary[-1]
        listed.append(entry)
    return listed


# -- metrics ---------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile (nearest rank) with at least
    TAIL_BEYOND values above its rank, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct
    return ordered[-1], 100


def measure_setup() -> float:
    """Median seconds for a fresh interpreter to import montesinos.cli and
    build its parser, after one unmeasured start that fills the bytecode cache."""
    code = SETUP_CODE.format(src=str(SRC))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
        )
        if i:
            samples.append(float(done.stdout))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(ops, ledger: Ledger, seconds: float) -> tuple[dict, dict]:
    latencies = [[] for _ in ops]
    walls = []
    rss = None
    completed = 0
    start = time.perf_counter()
    while True:
        wall, results = run_pass(ops, ledger)
        walls.append(wall)
        if rss is None:
            rss = peak_rss_mb()  # this process is fresh and has run exactly one pass
        for index, (op_seconds, status) in enumerate(results):
            if status in ("ok", "unreferenced"):
                latencies[index].append(op_seconds)
                completed += 1
        if time.perf_counter() - start + wall > seconds:
            break
    per_op = [statistics.median(lat) for lat in latencies if lat]
    tail_s, pct = tail(per_op)
    metrics = {
        "wall_s": statistics.median(walls),
        "knots_per_s": completed / sum(walls),
        "knot_p50_ms": 1000 * statistics.median(per_op),
        "knot_tail_ms": 1000 * tail_s,
        "peak_rss_mb": rss,
    }
    detail = {
        "passes": len(walls),
        "pass_walls_s": walls,
        "ops_per_pass": len(ops),
        "knot_tail_percentile": pct,
        "knot_latency_samples": len(per_op),
    }
    return metrics, detail


def traced_run(ops, ledger: Ledger, workload: str, seed: int) -> tuple[dict, dict]:
    from tracing import CallCounter, Tracer

    run_pass(ops, ledger)  # the first pass in a process runs slower than the rest
    untraced_wall, _ = run_pass(ops, ledger)
    with Tracer() as tracer:
        traced_wall, _ = run_pass(ops, ledger, on_op=lambda i: setattr(tracer, "op", i))
    with CallCounter() as counter:
        run_pass(ops, ledger)
    counts = dict(tracer.counts)
    counts.update(counter.counts)
    metrics = {name: counts.get(name, 0) for name, unit in PER_LAYER_UNITS.items() if unit == "count"}
    for layer in SPAN_LAYERS:
        metrics[layer + ".self_s"] = tracer.self_s.get(layer, 0.0)
    metrics["cli.self_s"] = tracer.self_s.get("cli.main", 0.0)
    calls = metrics["systems.solve_endpoints.calls"]
    metrics["systems.solve_endpoints.accept_ratio"] = (
        metrics["systems.solve_endpoints.accepted"] / calls if calls else 0.0
    )
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    self_sum = sum(tracer.self_s.values())
    detail = {
        "untraced_wall_s": untraced_wall,
        "self_times_sum_s": self_sum,
        "self_times_account_for_wall": abs(traced_wall - self_sum) <= abs(metrics["trace.overhead_s"]),
        "spans": len(tracer.spans),
        "spans_file": str(write_spans(tracer, ops, workload, seed).relative_to(ROOT)),
    }
    return {name: metrics[name] for name in PER_LAYER_UNITS}, detail


def write_spans(tracer, ops, workload: str, seed: int) -> Path:
    """Spans as JSON lines [op, parent span, name index, start ns, end ns],
    after a header naming the ops and the span names."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    names = sorted({span[2] for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    origin = min((span[3] for span in tracer.spans), default=0.0)
    with path.open("w") as handle:
        handle.write(json.dumps({"ops": [op.key for op in ops], "names": names}) + "\n")
        for op, parent, name, start, end in tracer.spans:
            begin = round((start - origin) * 1e9)
            handle.write(f"[{op},{parent},{index[name]},{begin},{begin + round((end - start) * 1e9)}]\n")
    return path


# -- run record and output ---------------------------------------------------------


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def run_record(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "note": "one in-process client, closed loop, no threads; timings from a shared "
        f"{os.cpu_count()}-core host carry run-to-run noise from other tenants",
    }


def print_table(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "montesinos" / "cli.py").is_file() or not REFERENCE.is_file():
        print(f"error: needs the package source under {SRC} and {REFERENCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads(REFERENCE.read_text())["ops"]
    ops = workload_ops(args.workload, args.seed, reference)
    ledger = Ledger(reference)
    gc.collect()
    gc.freeze()  # the collections before each op then skip the harness's own objects

    if args.trace:
        metrics, detail = traced_run(ops, ledger, args.workload, args.seed)
        units = PER_LAYER_UNITS
    else:
        metrics, detail = timed_run(ops, ledger, args.seconds)
        units = END_TO_END_UNITS
    probes = run_probes(args.workload, ledger)
    if not args.trace:
        metrics["completed_share"] = 1 - ledger.failed_share
        metrics["setup_s"] = measure_setup()
        metrics = {name: metrics[name] for name in END_TO_END_UNITS}

    record = run_record(args.workload, args.seed)
    detail.update(
        failed_share=ledger.failed_share,
        failures=dict(ledger.failures),
        statuses=dict(ledger.status),
        probes=probes,
    )
    print(" ".join(f"{key}={value}" for key, value in record.items() if key != "note"))
    print_table(metrics, units)
    if not args.trace:
        print(
            f"  knot_tail_ms is p{detail['knot_tail_percentile']} of "
            f"{detail['knot_latency_samples']} completed ops; {detail['passes']} passes"
        )
    print(f"  failed_share {ledger.failed_share:.6g} ratio, by outcome: {dict(ledger.failures) or 'none'}")
    for probe in probes:
        print(f"  probe [{probe['workload']}] {probe['op']}: {probe['outcome']} {probe.get('cross_check', '')}")
    print("detail " + json.dumps({"record": record, **detail}))
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
