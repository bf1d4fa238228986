"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from montesinos import MontesinosKnot  # noqa: E402

SMALL_OPS = [
    workloads.cli_op("verify-family", "--from", "11", "--to", "13"),
    workloads.cli_op("enumerate", "--all-types", "--json", "-1/2,2/5,1/11"),
    workloads.cli_op("seifert", "1/3,1/3,1/3"),
    workloads.cli_op("enumerate", "--cross-check", "-1/2,2/5,1/11"),
    workloads.Op(("-1/2,2/5,1/13",), library=True),
]


def test_knot_generator_is_deterministic_and_parser_safe():
    knots = workloads.random_knots(7, 200)
    assert knots == workloads.random_knots(7, 200)
    assert knots != workloads.random_knots(8, 200)
    for spec in knots:
        tangles = MontesinosKnot.parse(spec).tangles
        assert len(tangles) in (3, 4)
        assert all(2 <= f.den <= 12 for f in tangles)
    all_odd = [spec for spec in knots if all(f.den % 2 for f in MontesinosKnot.parse(spec).tangles)]
    assert len(all_odd) == round(200 * workloads.ALL_ODD_SHARE)


def test_workloads_are_deterministic_and_referenced():
    reference = json.loads(run.REFERENCE.read_text())["ops"]
    for name in workloads.WORKLOADS:
        ops = workloads.workload_ops(name, 3, reference)
        assert ops == workloads.workload_ops(name, 3, reference)
        assert ops != workloads.workload_ops(name, 4, reference)
        assert all(op.key in reference for op in ops)
    assert all(op.key in reference for op in workloads.PROBES.values())


def test_judge_separates_failures_from_unreferenced_completions():
    reference = {"a": [0, run.Outcome(0, 0, "x\n", "").digest], "b": [1, run.Outcome(0, 1, "", "").digest]}
    op_a, op_b = workloads.cli_op("a"), workloads.cli_op("b")
    assert run.judge(op_a, run.Outcome(0, 0, "x\n", ""), reference) == "ok"
    assert run.judge(op_a, run.Outcome(0, 0, "y\n", ""), reference) == "wrong"
    assert run.judge(op_a, run.Outcome(0, "RecursionError", "", ""), reference) == "wrong"
    assert run.judge(op_b, run.Outcome(0, 1, "", ""), reference) == "refused"
    assert run.judge(op_b, run.Outcome(0, 0, "new\n", ""), reference) == "unreferenced"
    family = workloads.cli_op("verify-family", "--from", "11")
    assert run.judge(family, run.Outcome(0, 0, "n=11 FAIL gap slopes=\n", ""), {}) == "wrong"


def test_tail_is_highest_percentile_with_ten_values_beyond():
    assert run.tail([float(i) for i in range(96)]) == (85.0, 89)
    assert run.tail([float(i) for i in range(746)])[1] == 98


def _package_bindings():
    return {
        (name, attr): value
        for name, module in sorted(sys.modules.items())
        if name == "montesinos" or name.startswith("montesinos.")
        for attr, value in vars(module).items()
    }


def test_wrappers_are_installed_everywhere_and_removed_after_a_traced_run():
    from montesinos import cli, edgepaths, systems
    from montesinos.rationals import Frac

    before = _package_bindings()
    frac_init = Frac.__init__
    ledger = run.Ledger(json.loads(run.REFERENCE.read_text())["ops"])
    with tracing.Tracer() as tracer:
        assert cli.solve_endpoints is systems.solve_endpoints is not before[("montesinos.systems", "solve_endpoints")]
        assert edgepaths.enumerate_skeletons is systems.enumerate_skeletons
        assert edgepaths.enumerate_skeletons.__wrapped__ is before[("montesinos.edgepaths", "enumerate_skeletons")]
        run.run_pass(SMALL_OPS, ledger)
    with tracing.CallCounter() as counter:
        assert Frac.__init__ is not frac_init
        run.run_pass(SMALL_OPS, ledger)
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert Frac.__init__ is frac_init
    assert tracer.counts["cli.main.calls"] == 4
    assert tracer.counts["systems.solve_endpoints.calls"] > 0
    assert counter.counts["rationals.frac_new"] > 0
    assert ledger.failed == 0


def test_anchor_counts_repeat_exactly_across_two_traced_runs():
    ops = list(workloads.ANCHORS)
    first, first_detail = run.traced_run(ops, run.Ledger({}), "anchors", 0)
    second, _ = run.traced_run(ops, run.Ledger({}), "anchors", 0)
    counts = [name for name, unit in run.PER_LAYER_UNITS.items() if unit == "count"]
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}
    assert first_detail["self_times_account_for_wall"]


def test_benchmark_json_names_the_metrics_run_py_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
