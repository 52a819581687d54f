"""The per-graph memo of graph-only ``Normalize`` work.

A second run over the same graph object must skip structure preparation
and stay bit-for-bit equal to the first; recorded runs, the PyG-like and
DGL-like flavors, feature-dependent kinds and the Fig. 3 timed repeats
must keep paying for it.
"""

import gc
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.core.config import SuiteConfig
from repro.core.kernels import record_launches
from repro.core.pipeline import GNNPipeline
from repro.datasets import load_dataset
from repro.frameworks import PipelineSpec, get_backend, time_end_to_end
from repro.graph import BatchedGraph, CSRMatrix
from repro.plan import (
    NORMALIZE_KINDS,
    GraphStats,
    ShardingPolicy,
    forget_graph,
    graph_memo,
    register_normalize,
)

#: (backend, model, compute model) combos whose plans memoise.
MEMOISING = (("gsuite", "gcn", "MP"), ("gsuite", "gcn", "SpMM"),
             ("gsuite", "gin", "MP"), ("gsuite", "gin", "SpMM"),
             ("gsuite", "sage", "MP"), ("gsuite", "gat", "MP"),
             ("gsuite-adaptive", "gcn", "MP"),
             ("gsuite-adaptive", "sage", "MP"))


@pytest.fixture()
def graph():
    """A graph object no other test has run on (an empty memo)."""
    return load_dataset("cora", scale=0.15, seed=1).copy()


@pytest.fixture()
def calls(monkeypatch):
    """Per-kind count of ``Normalize`` callable invocations."""
    counts = Counter()

    def counting(kind, fn):
        def wrapper(*args):
            counts[kind] += 1
            return fn(*args)
        return wrapper

    for kind, fn in list(NORMALIZE_KINDS.items()):
        monkeypatch.setitem(NORMALIZE_KINDS, kind, counting(kind, fn))
    return counts


def _spec(model, compute_model):
    return PipelineSpec(model=model, compute_model=compute_model, seed=5)


def _build(backend, model, cm, graph):
    return get_backend(backend).build(_spec(model, cm), graph)


def _trace(recorder):
    return [launch.fingerprint() for launch in recorder.launches]


def _normalize_outputs(graph):
    return [value for key, values in graph_memo(graph).items()
            if isinstance(key, tuple) for value in values]


class TestWarmRuns:
    @pytest.mark.parametrize("backend,model,cm", MEMOISING)
    def test_second_run_skips_graph_only_work_bitwise(self, graph, calls,
                                                      backend, model, cm):
        cold = _build(backend, model, cm, graph).run()
        first = sum(calls.values())
        assert first > 0
        calls.clear()
        warm = _build(backend, model, cm, graph).run()
        # GAT's attention depends on features and reruns every time.
        assert set(calls) <= {"gat_attention"}
        assert np.array_equal(warm, cold)

    def test_memoised_arrays_are_read_only(self, graph):
        _build("gsuite", "gcn", "MP", graph).run()
        _build("gsuite", "gcn", "SpMM", graph).run()
        values = _normalize_outputs(graph)
        arrays = [v for v in values if isinstance(v, np.ndarray)]
        matrices = [v for v in values if isinstance(v, CSRMatrix)]
        assert arrays and matrices
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 0
        for matrix in matrices:
            for array in (matrix.indptr, matrix.indices, matrix.data):
                with pytest.raises(ValueError):
                    array[0] = 0
        # The graph's own arrays keep their write access.
        assert graph.edge_index.flags.writeable

    def test_stored_matrix_keeps_one_narrow_structure(self, graph):
        _build("gsuite", "gcn", "SpMM", graph).run()
        _build("gsuite", "gin", "SpMM", graph).run()
        gcn, gin = [v for v in _normalize_outputs(graph)
                    if isinstance(v, CSRMatrix)]
        assert gcn.indices.dtype == np.int32
        # Both aggregate over the nonzeros of A + I: one stored copy.
        assert gcn.indices is gin.indices and gcn.indptr is gin.indptr
        # The SciPy view computes on the same arrays.
        assert np.shares_memory(gcn._vendor().indices, gcn.indices)

    def test_graph_stats_measured_once_per_graph(self, graph):
        stats = GraphStats.from_graph(graph)
        assert GraphStats.from_graph(graph) is stats
        forget_graph(graph)
        again = GraphStats.from_graph(graph)
        assert again is not stats and again == stats


class TestWhatStaysCold:
    def test_recorded_run_reexecutes_prologue(self, graph, calls):
        reference = graph.copy()
        with record_launches() as cold:
            _build("gsuite", "gcn", "SpMM", reference).run()
        _build("gsuite", "gcn", "SpMM", graph).run()
        calls.clear()
        with record_launches() as warm:
            _build("gsuite", "gcn", "SpMM", graph).run()
        assert calls["gcn_propagation"] == 1
        assert "SpGEMM" in {launch.kernel for launch in warm.launches}
        assert _trace(warm) == _trace(cold)

    @pytest.mark.parametrize("backend,model,cm", [
        ("pyg", "gcn", "MP"), ("pyg", "sage", "MP"),
        ("dgl", "gcn", "SpMM"), ("dgl", "sage", "SpMM")])
    def test_framework_flavors_rebuild_every_run(self, graph, calls,
                                                 backend, model, cm):
        _build(backend, model, cm, graph).run()
        first = Counter(calls)
        calls.clear()
        _build(backend, model, cm, graph).run()
        assert calls == first
        assert not _normalize_outputs(graph)

    def test_feature_dependent_kinds_never_memoise(self, graph):
        _build("gsuite", "gat", "MP", graph).run()
        kinds = {key[0] for key in graph_memo(graph)
                 if isinstance(key, tuple)}
        assert kinds == {"self_loop_endpoints"}

    def test_overwritten_kind_misses_the_memo(self, graph, calls,
                                              monkeypatch):
        cold = _build("gsuite", "gin", "SpMM", graph).run()
        replaced = []
        original = NORMALIZE_KINDS["gin_aggregate"]

        def replacement(*args):
            replaced.append(args[1])
            return original(*args)

        monkeypatch.setitem(NORMALIZE_KINDS, "gin_aggregate", original)
        register_normalize("gin_aggregate", replacement, overwrite=True)
        warm = _build("gsuite", "gin", "SpMM", graph).run()
        assert len(replaced) == 1
        assert np.array_equal(warm, cold)

    def test_entries_die_with_the_graph(self):
        graph = load_dataset("cora", scale=0.15, seed=1).copy()
        _build("gsuite", "gcn", "SpMM", graph).run()
        matrix, = [v for v in _normalize_outputs(graph)
                   if isinstance(v, CSRMatrix)]
        graph_ref, matrix_ref = weakref.ref(graph), weakref.ref(matrix)
        del graph, matrix
        gc.collect()
        assert graph_ref() is None
        assert matrix_ref() is None

    def test_measure_times_structure_cold_every_repeat(self, graph, calls):
        config = SuiteConfig(model="gcn", compute_model="SpMM",
                             dataset="cora", scale=0.15, seed=5)
        pipeline = GNNPipeline(config, graph=graph)
        pipeline.build().run()
        per_run = calls["gcn_propagation"]
        assert per_run == 1
        calls.clear()
        pipeline.measure(repeats=3)
        assert calls["gcn_propagation"] == 3 * per_run

    def test_time_end_to_end_times_structure_cold(self, graph, calls):
        spec = _spec("gin", "SpMM")
        get_backend("gsuite").build(spec, graph).run()
        calls.clear()
        time_end_to_end(get_backend("gsuite"), spec, graph, repeats=2)
        assert calls["gin_aggregate"] == 2


class TestComposition:
    @pytest.mark.parametrize("model,cm", [("gcn", "SpMM"), ("gin", "MP"),
                                          ("sage", "MP")])
    def test_sharded_runs_stay_bitwise_when_warm(self, graph, model, cm):
        reference = _build("gsuite", model, cm, graph.copy()).run()
        for _ in range(2):
            sharded = _build("gsuite", model, cm, graph).configure_sharding(
                ShardingPolicy(num_shards=2))
            assert np.array_equal(sharded.run(), reference)

    @pytest.mark.parametrize("model,cm", [("gcn", "SpMM"), ("gin", "SpMM"),
                                          ("gat", "MP")])
    def test_batched_runs_stay_bitwise_when_warm(self, model, cm):
        members = [load_dataset("cora", scale=0.15, seed=s).copy()
                   for s in (1, 2)]
        batched = BatchedGraph(members)
        solo = [_build("gsuite", model, cm, m.copy()).run() for m in members]
        for _ in range(2):
            packed = _build("gsuite", model, cm, batched).run()
            for block, reference in zip(batched.unpack(packed), solo):
                assert np.array_equal(block, reference)


class TestConcurrency:
    def test_threads_sharing_one_graph_stay_bitwise(self, graph):
        """Runs, stats reads and memo drops race on one graph's memo."""
        combos = (("gcn", "SpMM"), ("gin", "SpMM"), ("gcn", "MP"))
        reference = {combo: _build("gsuite", *combo, graph.copy()).run()
                     for combo in combos}
        errors = []

        def worker(index):
            try:
                for step in range(12):
                    combo = combos[(index + step) % len(combos)]
                    out = _build("gsuite", *combo, graph).run()
                    if not np.array_equal(out, reference[combo]):
                        errors.append(f"{combo} differs")
                    GraphStats.from_graph(graph)
                    if index == 0 and step % 3 == 0:
                        forget_graph(graph)
            except Exception as exc:  # reported by the assertion below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
