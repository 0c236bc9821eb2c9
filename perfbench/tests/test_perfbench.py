"""Tests of the benchmark itself: output checks, span arithmetic, inputs.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import run_cli  # noqa: E402


def _bounds_payload(min_ratio: str) -> str:
    return json.dumps({"min_ratio": min_ratio, "floor": "2105/3147", "passed": True})


def _worst_case_payload(min_ratio: str) -> str:
    return json.dumps({"min_ratio": min_ratio, "graphs_checked": 15625})


@pytest.mark.parametrize("results, failed", [
    ([(0, _bounds_payload("34175/50352")), (0, _worst_case_payload("163/240"))], []),
    ([(0, _bounds_payload("34175/50353")), (0, _worst_case_payload("163/240"))], [0]),
    ([(0, _bounds_payload("34175/50352")), (1, _worst_case_payload("163/240"))], [1]),
    ([(0, "Traceback"), (0, _worst_case_payload("1/2"))], [0, 1]),
])
def test_corrupted_payload_counts_as_failed(tmp_path, results, failed):
    commands = workloads.build("sweep", workloads.DEFAULT_SEED, tmp_path)
    failures = workloads.check_all(commands, results)
    assert [i for i, _ in failures] == failed
    report = {"failures": failures, "digests": ["same"] * len(commands)}
    assert run.failed_commands([report]) == len(failed)


def test_changed_output_between_passes_counts_as_failed():
    first = {"failures": [], "digests": ["a", "b"]}
    second = {"failures": [(1, "b: wrong")], "digests": ["a", "c"]}
    third = {"failures": [], "digests": ["x", "b"]}
    assert run.failed_commands([first, second, third]) == 2


def test_self_time_of_hand_built_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.x", 1.5, 2.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b.x", 5.0, 7.0, 3),
        ("b.y", 6.0, 8.0, 3),   # overlaps b.x: 5..8 covered once
        ("c", 9.5, 12.0, 0),    # runs past its parent: only 9.5..10 counts
        ("other", 20.0, 21.0, -1),
    ]
    assert tracer.self_times(spans) == pytest.approx([2.5, 2.5, 0.5, 1.0, 2.0, 2.0, 2.5, 1.0])


def test_second_seed_changes_exact_and_sample_inputs_not_sweep(tmp_path):
    def inputs(workload, seed):
        folder = tmp_path / workload / str(seed)
        commands = workloads.build(workload, seed, folder)
        files = {p.name: p.read_text() for p in sorted(folder.glob("*"))}
        return [c.argv for c in commands], files

    for workload in ("exact", "sample"):
        _, files0 = inputs(workload, 0)
        _, files1 = inputs(workload, 1)
        assert files0.keys() == files1.keys()
        assert files0 != files1
        assert inputs(workload, 0)[1] == files0  # same seed, same inputs
    argv0, files0 = inputs("sweep", 0)
    argv1, files1 = inputs("sweep", 1)
    assert argv0 == argv1 and files0 == files1 == {}


def test_traced_eval_counts_exact_calls_and_restores_the_program(tmp_path):
    from impartial import cli, mechanisms

    graph = tmp_path / "g.txt"
    graph.write_text(workloads.LB_2_1 + "\n")
    original = mechanisms.Mechanism.exact
    t = tracer.Tracer()
    tracer.install(t)
    try:
        rc, stdout = run_cli(cli.main, ["eval", "--mech", "perm", "--graph", str(graph)])
    finally:
        t.uninstall()
    assert mechanisms.Mechanism.exact is original
    assert rc == 0 and json.loads(stdout)["total"] == "1/1"
    metrics, per_name = tracer.layer_metrics(t)
    assert metrics["cli.eval.exact_calls_per_cmd"] == 2
    assert metrics["mechanisms.exact.perm.n5.calls"] == 2
    assert metrics["engine.selection_counts.orderings"] == 2 * 120
    assert per_name["cli.main"]["calls"] == 1
    assert 0 <= metrics["cli.main.self_s"] <= per_name["cli.main"]["total_s"]


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted, _ = tracer.layer_metrics(tracer.Tracer())
    names = list(emitted) + list(tracer.frontier_metric_names())
    names += ["trace.overhead_s", "trace.overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == names
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
