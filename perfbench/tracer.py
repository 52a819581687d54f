"""In-memory span recorder and the layer wrappers of the traced run.

A span is one call into a layer: name, start, end, parent span and
thread.  Spans are kept in a list while the workload runs and written
out once, at exit, as a Chrome trace-event JSON file (load it in
``chrome://tracing`` or Perfetto).

The wrappers are installed only in the traced run (``--trace 1``); the
untraced run imports nothing from here that touches the program, so its
timings carry no wrapper cost.  Every wrapper sits on a *public* entry
point of one layer, replaced where its callers look it up:

============================  ==========================================
span                          entry point
============================  ==========================================
``plan.normalize``            every ``repro.plan.executor.NORMALIZE_KINDS``
                              entry
``kernels.<name>``            the kernels as bound in
                              ``repro.plan.executor``, plus ``spgemm``
                              where ``repro.core.models.gcn`` binds it
``plan.execute``              ``PlanExecutor.run``
``frameworks.build``          ``build`` of every registered backend
``cache.get`` / ``cache.put`` ``TraceCache.get`` / ``TraceCache.put``
``serve.exec``                ``InferenceService._execute_group`` (the
                              worker's whole group: padding, solo or
                              batched build plus run)
``gpu.hierarchy``             ``simulate_hierarchy`` as bound in
                              ``repro.gpu.simulator`` and
                              ``repro.gpu.profiler``
``gpu.warps``                 ``simulate_warps`` in ``repro.gpu.simulator``
``gpu.simulate``              ``GpuSimulator.simulate``
``gpu.profile``               ``NvprofProfiler.profile``
``kernels.record``            ``GNNPipeline.record``
``datasets.load``             ``load_dataset`` in ``repro.datasets`` and
                              ``repro.core.pipeline``
============================  ==========================================
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, \
    Tuple

Interval = Tuple[float, float]


@dataclass(frozen=True)
class Span:
    """One finished span; times are ``time.perf_counter`` seconds.

    ``count`` is the work counted at this boundary: 1 for a cache hit,
    the trace accesses of a hierarchy simulation, the requests of a
    serving group.
    """

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """The union of ``intervals`` as sorted, disjoint intervals."""
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def covered(intervals: Iterable[Interval], window: Interval) -> float:
    """Length of ``window`` covered by the union of ``intervals``."""
    lo, hi = window
    return sum(max(0.0, min(e, hi) - max(s, lo))
               for s, e in merge_intervals(intervals))


def overlap(a: Sequence[Interval], b: Sequence[Interval]) -> float:
    """Length of the intersection of two unions of intervals."""
    return sum(covered(a, window) for window in merge_intervals(b))


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Interval]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {span.id: span.duration
            - covered(children.get(span.id, ()), (span.start, span.end))
            for span in spans}


class SpanRecorder:
    """Collects spans from any thread; nesting is tracked per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable[[tuple, Any], int]] = None) -> Callable:
        """``fn`` inside a ``name`` span.

        ``count(args, result)`` gives the span's :attr:`Span.count`, so
        work is counted where it happens.
        """
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = self.clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = self.clock()
                stack.pop()
                self.spans.append(Span(
                    span_id, name, start, end, parent, threading.get_ident(),
                    count(args, result) if count is not None else 0))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def in_window(self, window: Interval) -> List[Span]:
        """Spans that started inside ``window``."""
        lo, hi = window
        return [s for s in self.spans if lo <= s.start < hi]

    def write_chrome_trace(self, path, pid: int = 0) -> None:
        """Write every span as a Chrome trace-event ``X`` event."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [{
            "name": s.name, "ph": "X", "pid": pid, "tid": s.thread,
            "ts": round((s.start - origin) * 1e6, 3),
            "dur": round(s.duration * 1e6, 3),
            "args": {"id": s.id, "parent": s.parent, "count": s.count},
        } for s in self.spans]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


def _patch(owner, attribute: str, replacement: Callable) -> None:
    setattr(owner, attribute, replacement(getattr(owner, attribute)))


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point listed in the module docstring.

    Process-wide and never undone: only the traced workload process
    calls it.
    """
    import repro.core.models.gcn as gcn_module
    import repro.core.pipeline as pipeline_module
    import repro.datasets as datasets_module
    import repro.gpu.profiler as profiler_module
    import repro.gpu.simulator as simulator_module
    import repro.plan.executor as executor_module
    import repro.serve.service as service_module
    from repro.cache import TraceCache
    from repro.frameworks import BACKENDS

    wrap = recorder.wrap

    for kind, fn in list(executor_module.NORMALIZE_KINDS.items()):
        executor_module.NORMALIZE_KINDS[kind] = wrap("plan.normalize", fn)
    for attribute, name in (("sgemm", "sgemm"), ("spmm", "spmm"),
                            ("index_select", "index_select"),
                            ("scatter", "scatter"),
                            ("fused_gather_scatter", "fused"),
                            ("transform_spmm", "fused")):
        _patch(executor_module, attribute,
               lambda fn, n=name: wrap(f"kernels.{n}", fn))
    _patch(gcn_module, "spgemm", lambda fn: wrap("kernels.spgemm", fn))
    _patch(executor_module.PlanExecutor, "run",
           lambda fn: wrap("plan.execute", fn))
    for backend_class in {type(backend) for backend in BACKENDS.values()}:
        _patch(backend_class, "build",
               lambda fn: wrap("frameworks.build", fn))

    def hit(args, result):
        return int(result is not None)

    def members(args, result):
        return len(args[1].entries)

    def accesses(args, result):
        return len(args[0]) + len(args[1])

    _patch(TraceCache, "get", lambda fn: wrap("cache.get", fn, count=hit))
    _patch(TraceCache, "put", lambda fn: wrap("cache.put", fn))
    _patch(service_module.InferenceService, "_execute_group",
           lambda fn: wrap("serve.exec", fn, count=members))
    for module in (simulator_module, profiler_module):
        _patch(module, "simulate_hierarchy",
               lambda fn: wrap("gpu.hierarchy", fn, count=accesses))
    _patch(simulator_module, "simulate_warps",
           lambda fn: wrap("gpu.warps", fn))
    _patch(simulator_module.GpuSimulator, "simulate",
           lambda fn: wrap("gpu.simulate", fn))
    _patch(profiler_module.NvprofProfiler, "profile",
           lambda fn: wrap("gpu.profile", fn))
    _patch(pipeline_module.GNNPipeline, "record",
           lambda fn: wrap("kernels.record", fn))
    for module in (datasets_module, pipeline_module):
        _patch(module, "load_dataset", lambda fn: wrap("datasets.load", fn))


#: Per-layer metrics that are the self time of one span, per op.
SELF_TIME = {
    "plan.normalize.ms": "plan.normalize",
    "kernels.sgemm.ms": "kernels.sgemm",
    "kernels.spmm.ms": "kernels.spmm",
    "kernels.index_select.ms": "kernels.index_select",
    "kernels.scatter.ms": "kernels.scatter",
    "kernels.fused.ms": "kernels.fused",
    "kernels.spgemm.ms": "kernels.spgemm",
    "plan.execute.self_ms": "plan.execute",
    "frameworks.build.self_ms": "frameworks.build",
    "cache.get.ms": "cache.get",
    "cache.put.ms": "cache.put",
    "gpu.hierarchy.ms": "gpu.hierarchy",
    "gpu.warps.ms": "gpu.warps",
    "gpu.simulate.self_ms": "gpu.simulate",
    "gpu.profile.self_ms": "gpu.profile",
}
#: Per-layer metrics that are the whole duration of one span, per op:
#: recording and serving execution contain the other layers' spans.
INCLUSIVE_TIME = {
    "kernels.record.ms": "kernels.record",
    "serve.exec_ms": "serve.exec",
}
#: Per-layer call counts, per op.
CALLS = {f"{span}.calls": span for span in (
    "plan.normalize", "kernels.sgemm", "kernels.spmm", "kernels.index_select",
    "kernels.scatter", "kernels.fused", "kernels.spgemm", "cache.get",
    "cache.put", "gpu.hierarchy")}


def layer_metrics(recorder: SpanRecorder, measurement) -> Dict[str, float]:
    """Per-layer figures of one traced measurement window.

    Times and counts are per op over the spans that started inside the
    window; ``datasets.load.s`` is the whole process's total, set-up
    included.
    """
    window = measurement.window
    ops = max(1, measurement.attempted)
    spans = recorder.in_window(window)
    own = self_times(spans)
    self_ms: Counter = Counter()
    total_ms: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    for span in spans:
        self_ms[span.name] += own[span.id] * 1e3
        total_ms[span.name] += span.duration * 1e3
        calls[span.name] += 1
        counts[span.name] += span.count
    loads = self_times([s for s in recorder.spans
                        if s.name == "datasets.load"])
    out: Dict[str, float] = {}
    out.update({m: self_ms[s] / ops for m, s in SELF_TIME.items()})
    out.update({m: total_ms[s] / ops for m, s in INCLUSIVE_TIME.items()})
    out.update({m: calls[s] / ops for m, s in CALLS.items()})
    gets = calls["cache.get"]
    out["cache.hit_ratio"] = counts["cache.get"] / gets if gets else 0.0
    out["gpu.accesses"] = counts["gpu.hierarchy"] / ops
    out["datasets.load.s"] = sum(loads.values())
    # Each request spends its whole group's execution being executed.
    executing_ms = sum(s.duration * 1e3 * s.count for s in spans
                       if s.name == "serve.exec")
    latencies = measurement.latencies_ms
    out["serve.wait_ms"] = (sum(latencies) - executing_ms) / len(latencies) \
        if calls["serve.exec"] else 0.0
    length = window[1] - window[0]
    out["serve.worker_busy_frac"] = \
        total_ms["serve.exec"] / 1e3 / length if length > 0 else 0.0
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    busy = covered(measurement.op_intervals, window)
    out["trace.coverage_frac"] = \
        overlap(roots, measurement.op_intervals) / busy if busy else 0.0
    return out
