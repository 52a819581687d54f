"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
from stats import percentile, poisson_schedule  # noqa: E402
from tracer import Span, SpanRecorder, covered, merge_intervals, overlap, \
    self_times  # noqa: E402


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.5) == 50
        assert percentile(values, 0.9) == 90
        assert percentile(values, 1.0) == 100

    def test_p90_of_100_leaves_ten_above(self):
        values = [float(v) for v in range(100)]
        p90 = percentile(values, 0.9)
        assert sum(v > p90 for v in values) == 10

    def test_order_does_not_matter(self):
        assert percentile([5, 1, 4, 2, 3], 0.5) == 3

    def test_single_sample(self):
        assert percentile([7.5], 0.9) == 7.5

    def test_refuses_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)


class TestSchedule:
    def test_same_seed_same_schedule(self):
        assert poisson_schedule(20, 25, 3) == poisson_schedule(20, 25, 3)

    def test_other_seed_other_schedule(self):
        assert poisson_schedule(20, 25, 3) != poisson_schedule(20, 25, 4)

    def test_count_and_range(self):
        offsets = poisson_schedule(20, 25, 0)
        assert len(offsets) == 500
        assert offsets == sorted(offsets)
        assert 0.0 <= offsets[0] and offsets[-1] < 25.0

    def test_gaps_look_exponential(self):
        offsets = poisson_schedule(20, 500, 1)
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        mean = statistics.fmean(gaps)
        assert mean == pytest.approx(1 / 20, rel=0.05)
        # An exponential's standard deviation equals its mean.
        assert statistics.pstdev(gaps) == pytest.approx(mean, rel=0.1)

    def test_refuses_non_positive(self):
        with pytest.raises(ValueError):
            poisson_schedule(0, 10, 0)


class TestIntervals:
    def test_merge(self):
        assert merge_intervals([(3, 4), (0, 1), (0.5, 2), (5, 5)]) == \
            [(0, 2), (3, 4)]

    def test_covered_clips_to_window(self):
        assert covered([(0, 2), (1, 3), (5, 9)], (1, 6)) == 3

    def test_overlap_of_unions(self):
        assert overlap([(0, 2), (4, 6)], [(1, 5)]) == 2


def _span(id, start, end, parent=None, thread=1, name="x"):
    return Span(id, name, start, end, parent, thread)


class TestSelfTime:
    def test_children_are_subtracted(self):
        spans = [_span(0, 0, 10), _span(1, 1, 3, parent=0),
                 _span(2, 5, 6, parent=0), _span(3, 1.5, 2, parent=1)]
        own = self_times(spans)
        assert own == {0: 7, 1: 1.5, 2: 1, 3: 0.5}

    def test_overlapping_children_count_once(self):
        spans = [_span(0, 0, 10), _span(1, 2, 6, parent=0),
                 _span(2, 4, 8, parent=0)]
        assert self_times(spans)[0] == 4

    def test_self_times_sum_to_root_duration(self):
        spans = [_span(0, 0, 10), _span(1, 1, 4, parent=0),
                 _span(2, 2, 3, parent=1), _span(3, 6, 9, parent=0)]
        assert sum(self_times(spans).values()) == pytest.approx(10)


class TestRecorder:
    def test_nesting_and_threads(self):
        ticks = iter(range(100))
        recorder = SpanRecorder(clock=lambda: next(ticks))
        inner = recorder.wrap("inner", lambda: None)
        outer = recorder.wrap("outer", lambda: inner())
        outer()
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        first_inner, first_outer, thread_inner = recorder.spans
        assert first_inner.parent == first_outer.id
        assert first_outer.parent is None
        assert thread_inner.parent is None
        assert thread_inner.thread != first_outer.thread

    def test_count_is_taken_from_args_and_result(self):
        recorder = SpanRecorder()
        lookup = recorder.wrap("get", lambda key: None if key else 1,
                               count=lambda args, result: int(bool(result)))
        lookup(0)
        lookup(1)
        assert [s.count for s in recorder.spans] == [1, 0]

    def test_span_recorded_when_call_raises(self):
        recorder = SpanRecorder()

        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            recorder.wrap("boom", boom)()
        assert [s.name for s in recorder.spans] == ["boom"]

    def test_chrome_trace(self, tmp_path):
        ticks = iter([1.0, 1.5, 2.0, 4.0])
        recorder = SpanRecorder(clock=lambda: next(ticks))
        recorder.wrap("outer", recorder.wrap("inner", lambda: None))()
        path = tmp_path / "trace.json"
        recorder.write_chrome_trace(path)
        events = json.loads(path.read_text())["traceEvents"]
        assert [(e["name"], e["ph"], e["ts"], e["dur"]) for e in events] == \
            [("inner", "X", 500000.0, 500000.0),
             ("outer", "X", 0.0, 3000000.0)]
        assert events[0]["args"]["parent"] == events[1]["args"]["id"]


class TestDeclaredMetrics:
    def test_every_per_layer_metric_is_produced(self):
        units = run.metric_units(BENCH_DIR.parent)
        produced = set(tracer.SELF_TIME) | set(tracer.INCLUSIVE_TIME) \
            | set(tracer.CALLS) | {
                "cache.hit_ratio", "gpu.accesses", "datasets.load.s",
                "serve.wait_ms", "serve.worker_busy_frac",
                "trace.coverage_frac",
                # workload extras and the parent's two comparisons
                "serve.batched_frac", "serve.batch_size.mean",
                "serve.pad_useful_frac", "loadgen.late_max_ms",
                "trace.overhead_frac", "sim_maccess_per_s"}
        declared = set(units["per_layer"]) | set(run.SERVING_UNITS)
        assert declared == produced
        assert not set(units["per_layer"]) & set(run.SERVING_UNITS)

    def test_end_to_end_rows_cover_the_declaration(self):
        units = run.metric_units(BENCH_DIR.parent)["end_to_end"]
        report = {"latencies_ms": [1.0, 2.0, 3.0], "window_s": 1.5,
                  "peak_rss_mb": 100.0, "rss_samples": 2}
        rows = run.end_to_end(report, [1.0, 3.0, 2.0], units)
        assert set(rows) == set(units)
        assert rows["setup_s"] == (2.0, "s", 3)
        assert rows["ops_per_s"][0] == 2.0
