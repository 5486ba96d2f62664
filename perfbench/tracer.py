"""Benchmark-side span tracer for the traced run.

The tracer wraps public functions of the program's layer modules from
the outside (nothing under ``src/`` changes) and keeps spans in memory:
name, start, end, parent and op id.  A layer's *self time* is a span's
duration minus the part of that interval its wrapped children cover.

Children on the caller's own thread run strictly inside the parent, so
their durations add up; children on other threads (the service worker
answering a client call, the shard fan-out pool) can overlap each other,
so the union of their intervals is taken.  Context crosses threads
through ``ThreadPoolExecutor.submit``, which the tracer patches while
installed: the submitting thread's innermost span becomes the parent of
whatever the pool thread runs.

Hot functions (thousands of calls per query) would blow up memory as
individual spans, so one *record* folds every call of one function made
under the same parent record on the same thread: it carries the call
count, the first start, the last end, and the summed duration and self
time.  A function called once per parent gives a record that is exactly
one span.  Calls made with no parent on a thread other than the client's
(background merges) go to records with op id ``None``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

#: Wrapped functions: (module, attribute path, layer, mode).  ``span``
#: functions may have wrapped children; ``leaf`` functions never do and
#: take a cheaper wrapper; ``iter`` functions return an iterator whose
#: every ``next()`` is timed as one call.  ``decode_node`` and
#: ``incremental_nearest`` are wrapped at their bindings in the modules
#: that call them (``RTree.load_node`` and the distance-first searches).
TARGETS = (
    ("repro.serve.service", "QueryService.search", "serve", "span"),
    ("repro.serve.service", "QueryService.add", "serve", "span"),
    ("repro.serve.service", "QueryService.delete", "serve", "span"),
    ("repro.serve.maintenance", "EngineVersion.search", "serve", "span"),
    ("repro.shard.engine", "ShardedEngine.search", "shard", "span"),
    ("repro.core.engine", "SpatialKeywordEngine.search", "core", "span"),
    ("repro.core.engine", "SpatialKeywordEngine.stream_results", "core", "iter"),
    ("repro.plan.planner", "QueryPlanner.decide", "plan", "span"),
    ("repro.core.search", "incremental_nearest", "spatial", "iter"),
    ("repro.spatial.rtree", "RTree.load_node", "spatial", "span"),
    ("repro.spatial.rtree", "decode_node", "storage", "leaf"),
    ("repro.storage.objectstore", "ObjectStore.load", "storage", "leaf"),
    ("repro.text.signature", "Signature.matches", "text", "leaf"),
    ("repro.text.analyzer", "Analyzer.contains_all", "text", "leaf"),
    ("repro.text.inverted_index", "InvertedIndex.retrieve_conjunction", "text", "span"),
    ("repro.persist", "copy_built_engine", "persist", "span"),
    ("repro.obs.querylog", "QueryLogWriter.offer", "obs", "span"),
)


class Record:
    """All calls of one function under one parent record on one thread."""

    __slots__ = ("rid", "name", "op", "parent", "thread", "count", "total",
                 "self_time", "start", "end", "children")

    def __init__(self, rid, name, op, parent, thread):
        self.rid = rid
        self.name = name
        self.op = op
        self.parent = parent
        self.thread = thread
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.start = None
        self.end = 0.0
        self.children = {}

    def add(self, start: float, end: float, self_time: float) -> None:
        self.count += 1
        self.total += end - start
        self.self_time += self_time
        if self.start is None:
            self.start = start
        self.end = end


class _Frame:
    """One open call: its record and the child time it covers."""

    __slots__ = ("record", "covered", "remote")

    def __init__(self, record):
        self.record = record
        self.covered = 0.0  # same-thread children (sequential, summed)
        self.remote = []  # (start, end) of children on other threads


def _union_within(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


class SpanTracer:
    """Installs the wrappers, keeps records, and removes the wrappers.

    The client loop calls :meth:`begin_op` before each op so records
    rooted on the client thread carry that op's id.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.records: list[Record] = []
        self._roots: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []
        self._lock = threading.Lock()
        self.op = None
        self._client = None

    # -- Installation -----------------------------------------------------------

    def install(self) -> None:
        self._client = threading.get_ident()
        for module_name, path, _layer, mode in self.targets:
            module = importlib.import_module(module_name)
            owner = module
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = self._wrap(path, original, mode)
            setattr(owner, parts[-1], wrapper)
            self._patches.append((owner, parts[-1], original))
        original_submit = ThreadPoolExecutor.submit
        tracer = self

        def submit(pool, fn, /, *args, **kwargs):
            parent = tracer._innermost()
            if parent is None:
                return original_submit(pool, fn, *args, **kwargs)
            return original_submit(
                pool, tracer._run_under, parent, fn, args, kwargs
            )

        ThreadPoolExecutor.submit = submit
        self._patches.append((ThreadPoolExecutor, "submit", original_submit))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    # -- Context ----------------------------------------------------------------

    def _stack(self) -> list:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.remote = None
            return local.stack

    def _innermost(self):
        stack = self._stack()
        return stack[-1] if stack else self._local.remote

    def _run_under(self, parent, fn, args, kwargs):
        """Pool-thread side of a submit: run ``fn`` with ``parent`` as context."""
        self._stack()
        local = self._local
        saved = (local.stack, local.remote)
        local.stack, local.remote = [], parent
        try:
            return fn(*args, **kwargs)
        finally:
            local.stack, local.remote = saved

    def _record_for(self, parent, name: str) -> Record:
        thread = threading.get_ident()
        if parent is not None:
            children = parent.record.children
            record = children.get((name, thread))
            if record is None:
                record = Record(next(self._ids), name, parent.record.op,
                                parent.record.rid, thread)
                children[(name, thread)] = record
                with self._lock:
                    self.records.append(record)
            return record
        op = self.op if thread == self._client else None
        key = (op, name, thread)
        record = self._roots.get(key)
        if record is None:
            record = Record(next(self._ids), name, op, None, thread)
            with self._lock:
                self._roots[key] = record
                self.records.append(record)
        return record

    # -- Wrappers ---------------------------------------------------------------

    def _wrap(self, name: str, original, mode: str):
        if mode == "leaf":
            call = self._leaf_call
        elif mode == "iter":
            call = self._iter_call
        else:
            call = self._span_call

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return call(name, original, args, kwargs)

        return wrapper

    def _span_call(self, name, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent, same_thread = stack[-1], True
        else:
            parent, same_thread = self._local.remote, False
        frame = _Frame(self._record_for(parent, name))
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            covered = frame.covered
            if frame.remote:
                covered += _union_within(frame.remote, start, end)
            frame.record.add(start, end, max(0.0, end - start - covered))
            if parent is not None:
                if same_thread:
                    parent.covered += end - start
                else:
                    parent.remote.append((start, end))

    def _leaf_call(self, name, fn, args, kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack = self._stack()
            if stack:
                parent = stack[-1]
                parent.covered += end - start
            else:
                parent = self._local.remote
                if parent is not None:
                    parent.remote.append((start, end))
            self._record_for(parent, name).add(start, end, end - start)

    def _iter_call(self, name, fn, args, kwargs):
        iterator = fn(*args, **kwargs)
        tracer = self

        def traced():
            while True:
                try:
                    yield tracer._span_call(name, next, (iterator,), {})
                except StopIteration:
                    return

        return traced()

    # -- Results ----------------------------------------------------------------

    def sum_by_name(self, field: str, foreground: bool = True) -> dict[str, float]:
        """``field`` of the records summed per wrapped function.

        ``foreground`` keeps records attributed to an op; otherwise only
        the background ones (op id None).
        """
        totals: dict[str, float] = {}
        for record in self.records:
            if (record.op is not None) != foreground:
                continue
            totals[record.name] = totals.get(record.name, 0.0) + getattr(record, field)
        return totals

    def self_ms_by_name(self, foreground: bool = True) -> dict[str, float]:
        """Summed self time (ms) per wrapped function."""
        return {name: s * 1e3
                for name, s in self.sum_by_name("self_time", foreground).items()}

    def spans_payload(self, origin: float) -> dict:
        """JSON-ready records; times in ms relative to ``origin``."""
        columns = ["id", "name", "layer", "op", "parent", "thread", "count",
                   "start_ms", "end_ms", "total_ms", "self_ms"]
        threads: dict[int, int] = {}
        rows = []
        for r in self.records:
            if r.count == 0:
                continue
            rows.append([
                r.rid, r.name, layer_of(r.name), r.op, r.parent,
                threads.setdefault(r.thread, len(threads)), r.count,
                round((r.start - origin) * 1e3, 4),
                round((r.end - origin) * 1e3, 4),
                round(r.total * 1e3, 4), round(r.self_time * 1e3, 4),
            ])
        return {"columns": columns, "records": rows}


_LAYERS = {path: layer for _module, path, layer, _mode in TARGETS}


def layer_of(name: str) -> str:
    return _LAYERS.get(name, "other")
