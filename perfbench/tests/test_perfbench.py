"""Tests of the benchmark itself: fixed inputs, repeatable counts, a real check.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from perfbench import measure, run
from perfbench.tracer import SpanTracer, _union_within
from perfbench.workloads import WORKLOADS, class_counts
from repro.serve import QueryService

SHORT = 0.5  # --seconds for the short runs below


def declared(section):
    """Metric names one section of ``BENCHMARK.json`` declares."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[section]}


def op_key(op):
    """Everything that defines an op, in comparable form."""
    if op.kind == "read":
        q = op.query
        area = (q.area.lo, q.area.hi) if q.area is not None else None
        return (op.kind, op.cls, q.point, area, tuple(q.keywords), q.k,
                q.ranking is not None)
    if op.kind == "add":
        return (op.kind, op.obj.oid, op.obj.point, op.obj.text)
    return (op.kind, op.oid)


@pytest.fixture(scope="module", params=["serial_tree", "selective_service", "write_mix"])
def workload_state(request):
    workload = WORKLOADS[request.param]
    state = workload.setup(run.OUT_DIR)
    yield workload, state
    state.close()


def test_same_seed_gives_identical_ops(workload_state):
    workload, state = workload_state
    first = workload.make_ops(state, 7, SHORT)
    second = workload.make_ops(state, 7, SHORT)
    for a, b in zip(first, second):
        assert [op_key(op) for op in a] == [op_key(op) for op in b]


def test_other_seed_gives_other_ops(workload_state):
    workload, state = workload_state
    _, timed_a = workload.make_ops(state, 7, SHORT)
    _, timed_b = workload.make_ops(state, 8, SHORT)
    assert [op_key(op) for op in timed_a] != [op_key(op) for op in timed_b]


def test_class_counts_are_exact(workload_state):
    workload, state = workload_state
    _, timed = workload.make_ops(state, 3, SHORT)
    counts: dict[str, int] = {}
    for op in timed:
        counts[op.cls] = counts.get(op.cls, 0) + 1
    expected: dict[str, int] = {}
    for block in workload.block_counts(SHORT):
        for cls, n in block.items():
            expected[cls] = expected.get(cls, 0) + n
    assert counts == expected
    assert sum(expected.values()) == workload.op_count(SHORT)


def test_class_counts_sum_to_total():
    counts = class_counts(101, {"a": 0.5, "b": 0.3, "c": 0.2})
    assert sum(counts.values()) == 101
    assert counts == {"a": 51, "b": 30, "c": 20}


def _short_serial_pass():
    workload = WORKLOADS["serial_tree"]
    state = workload.setup(run.OUT_DIR)
    try:
        _, result, problems = run._measure(workload, state, 5, SHORT)
    finally:
        state.close()
    return result, problems


def test_serial_tree_counts_repeat_exactly():
    first, problems_a = _short_serial_pass()
    second, problems_b = _short_serial_pass()
    assert not problems_a and not problems_b
    assert first.read_blocks == second.read_blocks
    assert first.sim_ms / first.reads == second.sim_ms / second.reads


def test_corrupted_answer_fails_the_command(monkeypatch, capsys):
    original = QueryService.search

    def corrupted(self, query, *args, **kwargs):
        execution = original(self, query, *args, **kwargs)
        execution.results = execution.results[1:]
        return execution

    monkeypatch.setattr(QueryService, "search", corrupted)
    code = run.main(["--workload", "serial_tree", "--seed", "2",
                     "--seconds", str(SHORT), "--trace", "0"])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert set(summary["metrics"]) == declared("end_to_end")
    assert summary["correct"] is False
    assert summary["failed"] > 0
    assert summary["metrics"]["success_rate"]["value"] < 1.0


def test_clean_run_prints_every_metric(capsys):
    code = run.main(["--workload", "serial_tree", "--seed", "2",
                     "--seconds", str(SHORT), "--trace", "1"])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and summary["correct"] is True
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert set(summary["metrics"]) == declared("per_layer")
    assert summary["metrics"]["storage.decode_node_calls_per_op"]["value"] > 0


def test_write_mix_pays_its_final_flush(capsys):
    code = run.main(["--workload", "write_mix", "--seed", "2",
                     "--seconds", str(SHORT), "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    info = json.loads(lines[-2][len("info: "):])
    assert code == 0 and summary["correct"] is True
    assert set(summary["metrics"]) == declared("end_to_end")
    # qps and cpu cover the whole pass, flush included, on a workload that writes.
    assert summary["metrics"]["qps"]["value"] == info["whole_pass"]["qps"]
    assert summary["metrics"]["write_mean_ms"]["value"] > 0


def test_timing_uses_the_faster_half_only_without_writes():
    result = measure.PassResult(ops=40, read_ms=[1.0] * 10 + [3.0] * 10
                                + [2.0] * 10 + [9.0] * 10)
    # (ops, wall s, cpu s, reads) per block; the second and last are slow.
    result.blocks = [(10, 1.0, 0.5, slice(0, 10)), (10, 3.0, 1.5, slice(10, 20)),
                     (10, 2.0, 1.0, slice(20, 30)), (10, 9.0, 4.5, slice(30, 40))]
    fast, reads = measure.timing(result, writes=False)
    assert reads == 20
    assert fast["qps"] == 20 / 3.0
    assert fast["cpu_ms_per_op"] == 1.5e3 / 20
    assert fast["p95_ms"] == 2.0
    whole, reads = measure.timing(result, writes=True)
    assert reads == 40
    assert whole["qps"] == 40 / 15.0
    assert whole["p95_ms"] == 9.0


def test_union_within_merges_overlaps_and_clips():
    assert _union_within([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert _union_within([(-1, 2), (8, 12)], 0, 10) == 4
    assert _union_within([], 0, 10) == 0


class _Toy:
    def outer(self):
        time.sleep(0.02)
        self.inner()
        return "done"

    def inner(self):
        time.sleep(0.03)


def test_self_time_subtracts_wrapped_children():
    module = __name__
    original_outer = _Toy.__dict__["outer"]
    tracer = SpanTracer(targets=(
        (module, "_Toy.outer", "core", "span"),
        (module, "_Toy.inner", "text", "span"),
    ))
    with tracer:
        tracer.begin_op(0)
        assert _Toy().outer() == "done"
    own = tracer.self_ms_by_name()
    total = {k: v * 1e3 for k, v in tracer.sum_by_name("total").items()}
    assert own["_Toy.inner"] == pytest.approx(total["_Toy.inner"])
    assert own["_Toy.outer"] == pytest.approx(
        total["_Toy.outer"] - total["_Toy.inner"])
    assert 15 < own["_Toy.outer"] < 28
    assert _Toy.__dict__["outer"] is original_outer  # wrappers removed
    assert measure.percentile([1.0, 2.0, 3.0], 50) == 2.0
