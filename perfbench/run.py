"""The repository's benchmark: one closed-loop workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serial_tree --seed 1 --seconds 25 --trace 0

``--trace 0`` sets up the workload three times (``setup_s`` is the
median), warms up on an untimed prefix, runs the seeded op list once as
a closed loop with one client, checks a seeded sample of the answers
against the brute-force oracle and prints the end-to-end metrics.  The
metric names and units are those ``BENCHMARK.json`` declares.
``--trace 1`` runs the op list of half the seconds untraced and then,
on a fresh set-up, traced by the benchmark's own wrappers, and prints
the per-layer metrics.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every op succeeded and every checked
answer matched.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one section of ``BENCHMARK.json``, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _import_program():
    """Put ``src`` on the path; fail (exit 2) where the program is absent."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup(workload, times: list):
    """One set-up of the workload; its wall time is appended to ``times``."""
    gc.collect()
    start = time.perf_counter()
    state = workload.setup(OUT_DIR)
    times.append(time.perf_counter() - start)
    return state


def _measure(workload, state, seed, seconds, tracer=None, between=None):
    """Warm up, run the timed pass, check answers: ``(ops, result, problems)``."""
    from perfbench import measure

    start = time.perf_counter()
    warm, timed = workload.make_ops(state, seed, seconds)
    measure.run_ops(state.service, warm)
    warmed = time.perf_counter()
    keep = measure.check_sample(timed, seed, workload.check_sample)
    if tracer is not None:
        with tracer:
            result = measure.timed_pass(workload, state, timed, keep, tracer)
    else:
        result = measure.timed_pass(workload, state, timed, keep, between=between)
    passed = time.perf_counter()
    problems = measure.check_answers(workload, state, timed, result, keep)
    result.phases = {"ops_and_warmup": warmed - start,
                     "timed_pass": passed - warmed,
                     "answer_check": time.perf_counter() - passed}
    return (warm, timed), result, problems


def _end_to_end(workload, args):
    """A ``--trace 0`` run: set-ups, warm-up, timed pass, answer check.

    The run sets the workload up three times (``setup_s`` is the median):
    once before the measured set-up, the measured one, and once after
    its pass, so the set-ups span the run.  The timing figures come from
    :func:`measure.timing`.  ``write_mean_ms`` is the mean of the pass's
    own write calls.  A workload that only reads has none: it keeps its
    first set-up idle and times a window of :func:`measure.write_sample`
    on it before each block of the pass and after the last one, and
    reports the mean call of the faster half of the windows.  The
    windows span the pass, and the measured service never sees a write.
    """
    from perfbench import measure

    setup_times: list[float] = []
    samples = []
    idle = _setup(workload, setup_times)
    if workload.writes:
        idle.close()
        idle = None
    between = None if idle is None else (
        lambda: samples.append(measure.write_sample(idle)))
    try:
        state = _setup(workload, setup_times)
        try:
            index_mb = state.engine.index_size_mb()
            ops, result, problems = _measure(
                workload, state, args.seed, args.seconds, between=between)
            peak_rss_mb = measure.peak_rss_mb()
        finally:
            state.close()
    finally:
        if idle is not None:
            idle.close()
    _setup(workload, setup_times).close()
    if workload.writes:
        windows = [(sum(result.write_ms), len(result.write_ms))]
    else:
        windows = measure.faster_half(samples, key=lambda w: w[0] / w[1])
    writes = sum(calls for _, calls in windows)
    write_mean = sum(ms for ms, _ in windows) / writes
    failed = min(result.ops, result.failed + len(problems))
    timing, timed_reads = measure.timing(result, workload.writes)
    values = {
        **timing,
        "sim_io_ms_per_query": result.sim_ms / max(1, result.reads),
        "success_rate": (result.ops - failed) / result.ops,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "index_mb": index_mb,
        "write_mean_ms": write_mean,
    }
    extra = {
        "samples": {"p50_ms/p95_ms reads": timed_reads,
                    "write_mean_ms writes": writes},
        "setup_s_each": setup_times,
        "write_ms_each_sample": [ms / calls for ms, calls in samples],
        "phase_s": result.phases,
        "whole_pass": {"qps": result.ops / result.wall_s,
                       "cpu_ms_per_op": result.cpu_s * 1e3 / result.ops},
    }
    return ops, result, problems, values, declared_units("end_to_end"), extra


def _traced(workload, args):
    """A ``--trace 1`` run: the list untraced, then traced on a fresh set-up.

    Both passes run the op list of ``--seconds / 2``, so the traced run
    takes about as long as an untraced one.
    """
    from perfbench import layers
    from perfbench.tracer import SpanTracer

    seconds = args.seconds / 2
    state = _setup(workload, [])
    try:
        _, untraced, problems = _measure(workload, state, args.seed, seconds)
    finally:
        state.close()
    state = _setup(workload, [])
    tracer = SpanTracer()
    try:
        ops, result, more = _measure(
            workload, state, args.seed, seconds, tracer=tracer)
    finally:
        state.close()
    values = layers.per_layer_metrics(result, untraced, tracer)
    origin = min((r.start for r in tracer.records if r.start is not None),
                 default=0.0)
    spans_path = os.path.join(OUT_DIR, f"{workload.name}-spans.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   **tracer.spans_payload(origin)}, fh)
    report_path = os.path.join(OUT_DIR, f"{workload.name}-report.txt")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(layers.report(workload.name, result, untraced, tracer, values))
    extra = {"spans": os.path.relpath(spans_path, ROOT),
             "report": os.path.relpath(report_path, ROOT)}
    return ops, result, problems + more, values, declared_units("per_layer"), extra


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    from perfbench import measure
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    mode = _traced if args.trace else _end_to_end
    (warm, timed), result, problems, values, units, extra = mode(workload, args)
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} are not both "
              "measured and declared in BENCHMARK.json", file=sys.stderr)
        return 2
    for line in result.errors + problems[:10]:
        print(f"problem: {line}", file=sys.stderr)
    summary = {
        "correct": not problems and result.failed == 0,
        "attempted": result.ops,
        "failed": min(result.ops, result.failed + len(problems)),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    env = measure.environment(ROOT, args.seed, warm, timed)
    with open(os.path.join(
            OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
            "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "env": env, **extra, **summary},
                  fh, indent=2)
    print("env: " + json.dumps(env, sort_keys=True))
    print("info: " + json.dumps(extra, sort_keys=True))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
