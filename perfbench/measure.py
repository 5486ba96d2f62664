"""The closed loop, the answer check and the metrics built from them."""

from __future__ import annotations

import gc
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

from perfbench.workloads import Op, State, Workload, block_bounds, same_answer

#: Objects that :func:`write_sample` deletes and re-adds (the same ones
#: for every seed: what a write costs depends on the object's text), and
#: the delete/re-add cycles over them per window: 19,200 calls, about
#: 0.1 s.  A pass takes one window before each block and one after the
#: last, so the windows span the whole pass.
SAMPLE_OBJECTS = 16
SAMPLE_CYCLES = 600


@dataclass
class PassResult:
    """Everything one timed pass measured."""

    ops: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    read_ms: list = field(default_factory=list)
    read_blocks: list = field(default_factory=list)
    write_ms: list = field(default_factory=list)
    failed: int = 0
    errors: list = field(default_factory=list)
    sim_ms: float = 0.0
    block_reads: int = 0
    nodes: int = 0
    inspected: int = 0
    false_pos: int = 0
    loaded: int = 0
    useful: int = 0
    fanout: int = 0
    shard_rows: int = 0
    keyword_pruned: int = 0
    cache_hits: int = 0
    queue_wait_ms: float = 0.0
    kept: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    merge_ms: float = 0.0
    phases: dict = field(default_factory=dict)
    #: (ops, wall s, cpu s, slice of ``read_ms``) of each block.
    blocks: list = field(default_factory=list)

    @property
    def reads(self) -> int:
        return len(self.read_ms)


def counter_snapshot(service) -> tuple[dict, float]:
    snap = service.metrics.snapshot()
    merge = snap["histograms"].get("maintenance.merge_ms")
    return snap["counters"], (merge["sum"] if merge else 0.0)


def run_ops(service, ops: list[Op]) -> None:
    """Run ops untimed (the warm-up)."""
    for op in ops:
        apply_op(service, op)


def apply_op(service, op: Op):
    if op.kind == "read":
        return service.search(op.query)
    if op.kind == "add":
        service.add(op.obj)
        return None
    if not service.delete(op.oid):
        raise RuntimeError(f"delete of live oid {op.oid} found nothing")
    return None


def timed_pass(workload: Workload, state: State, ops: list[Op],
               keep: set[int], tracer=None, between=None) -> PassResult:
    """One closed-loop pass: each op is sent when the previous one returned.

    The list runs block by block.  A workload that writes ends its last
    block with ``service.flush()``, so the final merge is paid inside it.
    ``between``, if given, is called before each block and after the
    last one, outside the blocks' timers.
    """
    service = state.service
    result = PassResult(ops=len(ops))
    before, merge_before = counter_snapshot(service)
    gc.collect()
    perf, cpu = time.perf_counter, time.process_time
    bounds = block_bounds(len(ops))
    for lo, hi in zip(bounds, bounds[1:]):
        if between is not None:
            between()
        first_read = len(result.read_ms)
        wall0, cpu0 = perf(), cpu()
        for i in range(lo, hi):
            if tracer is not None:
                tracer.begin_op(i)
            start = perf()
            try:
                execution = apply_op(service, ops[i])
            except Exception as exc:  # counted, reported, and the loop goes on
                result.failed += 1
                if len(result.errors) < 5:
                    result.errors.append(
                        f"op {i} ({ops[i].cls}): {type(exc).__name__}: {exc}")
                continue
            elapsed = (perf() - start) * 1e3
            if execution is None:
                result.write_ms.append(elapsed)
            else:
                result.read_ms.append(elapsed)
                _note_read(result, execution)
                if i in keep:
                    result.kept[i] = execution
        if hi == len(ops) and workload.writes:
            service.flush()
        wall, used = perf() - wall0, cpu() - cpu0
        result.wall_s += wall
        result.cpu_s += used
        result.blocks.append(
            (hi - lo, wall, used, slice(first_read, len(result.read_ms))))
    if between is not None:
        between()
    after, merge_after = counter_snapshot(service)
    result.counters = {
        name: value - before.get(name, 0) for name, value in after.items()
    }
    result.merge_ms = merge_after - merge_before
    return result


def _note_read(result: PassResult, execution) -> None:
    """Fold one read's counts into the pass totals."""
    io = execution.io
    result.sim_ms += execution.simulated_ms()
    result.block_reads += io.total_reads
    result.read_blocks.append(io.total_reads)
    result.nodes += execution.nodes_visited
    result.inspected += execution.objects_inspected
    result.false_pos += execution.false_positive_candidates
    result.loaded += io.objects_loaded
    span = execution.trace
    if span is not None:
        result.queue_wait_ms += span.queue_wait_ms
        if span.cache == "hit":
            result.cache_hits += 1
        else:
            result.useful += len(execution.results)
    for row in execution.shards or ():
        result.shard_rows += 1
        result.fanout += not row["pruned"]
        result.keyword_pruned += bool(row["pruned_by_keywords"])


def check_sample(ops: list[Op], seed: int, size: int) -> set[int]:
    """Seeded choice of the read ops whose answers get checked."""
    reads = [i for i, op in enumerate(ops) if op.kind == "read"]
    return set(random.Random(seed ^ 0x5EED).sample(reads, min(size, len(reads))))


def check_answers(workload: Workload, state: State, ops: list[Op],
                  result: PassResult, keep: set[int]) -> list[str]:
    """Compare checked reads with the brute-force oracle; list mismatches.

    Read-only workloads check the answers the timed pass returned.  A
    workload with writes re-asks the sampled reads after its final flush
    and first checks that the live objects are exactly those the op list
    leaves.
    """
    oracle = workload.oracle(state)
    problems = []
    expected_live = state.expected_live
    if expected_live is not None:
        expected_live = set(expected_live)
        live = {obj.oid for obj in oracle.objects}
        if live != expected_live:
            problems.append(
                f"live set differs: {len(live - expected_live)} extra, "
                f"{len(expected_live - live)} missing"
            )
    for i in sorted(keep):
        query = ops[i].query
        if expected_live is not None:
            got = state.service.search(query)
        elif i in result.kept:
            got = result.kept[i]
        else:
            continue  # the op itself failed and is already counted
        want = oracle.answer(query)
        if not same_answer(got.results, want):
            problems.append(
                f"op {i} ({ops[i].cls}): got {got.oids}, "
                f"expected {[r.obj.oid for r in want]}"
            )
    return problems


def write_sample(state: State) -> tuple[float, int]:
    """``(total ms, calls)`` of one window of write calls on an idle set-up.

    Deletes and re-adds a fixed few objects.  The buffer stays below the
    merge threshold, so these calls price the write path itself (version
    publication and cache invalidation), not merges.
    """
    service = state.service
    victims = random.Random(0x3817E).sample(state.objects, SAMPLE_OBJECTS)
    perf = time.perf_counter
    total = 0.0
    for _ in range(SAMPLE_CYCLES):
        for obj in victims:
            start = perf()
            if not service.delete(obj.oid):
                raise RuntimeError(f"delete of live oid {obj.oid} found nothing")
            service.add(obj)
            total += perf() - start
    return total * 1e3, 2 * SAMPLE_CYCLES * SAMPLE_OBJECTS


def faster_half(items: list, key) -> list:
    """The half of ``items`` (rounded up) with the smallest ``key``."""
    return sorted(items, key=key)[:(len(items) + 1) // 2]


def timing(result: PassResult, writes: bool) -> tuple[dict, int]:
    """``qps``, ``p50_ms``, ``p95_ms``, ``cpu_ms_per_op`` and reads behind them.

    Every block carries the same op mix.  On a workload that only reads,
    the figures come from the faster half of the blocks (by wall time per
    op): the slower half is where a shared VM's slow stretches of a few
    seconds land.  On a workload that writes they cover the whole pass,
    whose last block carries the final flush.
    """
    blocks = result.blocks if writes else faster_half(
        result.blocks, key=lambda b: b[1] / b[0])
    ops = sum(b[0] for b in blocks)
    reads = [ms for b in blocks for ms in result.read_ms[b[3]]]
    return {
        "qps": ops / sum(b[1] for b in blocks),
        "p50_ms": percentile(reads, 50),
        "p95_ms": percentile(reads, 95),
        "cpu_ms_per_op": sum(b[2] for b in blocks) * 1e3 / ops,
    }, len(reads)


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method of ``statistics.quantiles``)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: str) -> str:
    """The checkout's commit from ``.git`` (``unknown`` outside a repository)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, seed: int, warm: list[Op], timed: list[Op]) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    gil = getattr(sys, "_is_gil_enabled", None)
    classes: dict[str, int] = {}
    for op in timed:
        classes[op.cls] = classes.get(op.cls, 0) + 1
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil_enabled": gil() if gil is not None else None,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "numpy": numpy_version,
        "git_commit": git_commit(root),
        "seed": seed,
        "warmup_ops": len(warm),
        "timed_ops": len(timed),
        "op_classes": dict(sorted(classes.items())),
    }
