"""Per-layer metrics of a traced pass and the "where each ms went" report."""

from __future__ import annotations

from perfbench.measure import PassResult
from perfbench.tracer import TARGETS, SpanTracer, layer_of


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(traced: PassResult, untraced: PassResult,
                      tracer: SpanTracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass (0 where a layer is idle)."""
    ops = traced.ops
    own = tracer.self_ms_by_name()
    total = {name: ms * 1e3 for name, ms in tracer.sum_by_name("total").items()}
    calls = tracer.sum_by_name("count")
    counters = traced.counters
    plan_hits = counters.get("planner.cache.hits", 0)
    plan_misses = counters.get("planner.cache.misses", 0)
    merges = counters.get("maintenance.merges", 0)
    # The final flush folds on the client thread (an op's record), earlier
    # merges on the merge thread (no op): copies run in both.
    copy_ms = 1e3 * sum(
        tracer.sum_by_name("total", foreground).get("copy_built_engine", 0.0)
        for foreground in (True, False))

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    return {
        "storage.block_reads_per_op": per_op(traced.block_reads),
        "storage.decode_node_calls_per_op": per_op(calls.get("decode_node", 0)),
        "storage.decode_node_ms_per_op": per_op(own.get("decode_node", 0.0)),
        "storage.object_loads_per_op": per_op(calls.get("ObjectStore.load", 0)),
        "storage.object_load_ms_per_op": per_op(own.get("ObjectStore.load", 0.0)),
        "spatial.nodes_visited_per_op": per_op(traced.nodes),
        "spatial.load_node_ms_per_op": per_op(own.get("RTree.load_node", 0.0)),
        "spatial.traverse_ms_per_op": per_op(own.get("incremental_nearest", 0.0)),
        "text.signature_tests_per_op": per_op(calls.get("Signature.matches", 0)),
        "text.signature_ms_per_op": per_op(own.get("Signature.matches", 0.0)),
        "text.verify_ms_per_op": per_op(own.get("Analyzer.contains_all", 0.0)),
        "text.false_positive_ratio": _ratio(traced.false_pos, traced.inspected),
        "text.postings_ms_per_op": per_op(
            own.get("InvertedIndex.retrieve_conjunction", 0.0)),
        "core.search_self_ms_per_op": per_op(
            own.get("SpatialKeywordEngine.search", 0.0)
            + own.get("SpatialKeywordEngine.stream_results", 0.0)),
        "core.useful_load_ratio": _ratio(traced.useful, traced.loaded),
        "plan.decide_ms_per_op": per_op(own.get("QueryPlanner.decide", 0.0)),
        "plan.cache_hit_ratio": _ratio(plan_hits, plan_hits + plan_misses),
        "shard.fanout_per_op": per_op(traced.fanout),
        "shard.keyword_pruned_ratio": _ratio(traced.keyword_pruned, traced.shard_rows),
        "shard.search_self_ms_per_op": per_op(own.get("ShardedEngine.search", 0.0)),
        "serve.overhead_ms_per_op": per_op(own.get("QueryService.search", 0.0)),
        "serve.cache_hit_ratio": _ratio(traced.cache_hits, traced.reads),
        "serve.queue_wait_ms_per_op": per_op(traced.queue_wait_ms),
        "serve.overlay_ms_per_op": per_op(own.get("EngineVersion.search", 0.0)),
        "serve.write_ms_per_op": per_op(
            total.get("QueryService.add", 0.0) + total.get("QueryService.delete", 0.0)),
        "serve.merges_per_kop": per_op(merges * 1000.0),
        "serve.merge_ms_per_op": per_op(traced.merge_ms),
        "persist.copy_ms_per_merge": _ratio(
            copy_ms, counters.get("maintenance.incremental_merges", 0)),
        "obs.querylog_ms_per_op": per_op(total.get("QueryLogWriter.offer", 0.0)),
        "obs.querylog_dropped": float(counters.get("querylog.dropped", 0)),
        "trace.overhead_ratio": _ratio(traced.cpu_s, untraced.cpu_s),
        "trace.coverage_ratio": _ratio(sum(own.values()) / 1e3, traced.wall_s),
    }


def report(workload: str, traced: PassResult, untraced: PassResult,
           tracer: SpanTracer, metrics: dict[str, float]) -> str:
    """Plain-text split of a traced op's wall time by layer and function."""
    ops = traced.ops
    wall_ms = traced.wall_s * 1e3 / ops
    own = tracer.self_ms_by_name()
    calls = tracer.sum_by_name("count")
    by_layer: dict[str, float] = {}
    for name, ms in own.items():
        by_layer[layer_of(name)] = by_layer.get(layer_of(name), 0.0) + ms
    lines = [
        f"where each ms went: {workload}, {ops} ops "
        f"({traced.reads} reads, {len(traced.write_ms)} writes)",
        f"traced wall per op {wall_ms:.3f} ms; untraced cpu per op "
        f"{untraced.cpu_s * 1e3 / ops:.3f} ms, traced {traced.cpu_s * 1e3 / ops:.3f} ms "
        f"(overhead ratio {metrics['trace.overhead_ratio']:.3f})",
        f"coverage ratio {metrics['trace.coverage_ratio']:.3f} "
        "(sum of op spans' self times / traced wall: below 1 by the client "
        "loop between ops, above 1 where fan-out threads overlap)",
        "",
        f"{'layer':<10}{'self ms/op':>12}{'share':>9}",
    ]
    for layer, ms in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<10}{ms / ops:>12.4f}{ms / ops / wall_ms:>9.1%}")
    lines += ["", f"{'function':<40}{'layer':<9}{'calls/op':>10}{'self ms/op':>12}"]
    for _module, name, layer, _mode in TARGETS:
        if name in own:
            lines.append(
                f"{name:<40}{layer:<9}{calls[name] / ops:>10.2f}{own[name] / ops:>12.4f}"
            )
    background = tracer.self_ms_by_name(foreground=False)
    if background:
        lines += ["", "background (no op; merge threads), self ms total:"]
        for name, ms in sorted(background.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:<38}{ms:>12.2f}")
    lines += ["", "per-layer metrics:"]
    lines += [f"  {name:<36}{value:>14.4f}" for name, value in metrics.items()]
    return "\n".join(lines) + "\n"
