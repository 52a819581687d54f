"""Plan execution through the instrumented core kernels.

:class:`PlanExecutor` walks an :class:`~repro.plan.ir.ExecutionPlan`
op by op, binding the workload graph and runtime inputs, and dispatches
every operator to the instrumented kernels (``index_select`` /
``scatter`` / ``spmm`` / ``sgemm``, the fusion pass's streaming
``fused_gather_scatter`` — plus whatever kernels a
:class:`~repro.plan.ir.Normalize` kind launches internally, e.g. GCN's
SpGEMM normalisation chain).  Because the kernels are the same
functions the legacy direct paths called, kernel-level recording,
simulation and profiling keep working unchanged, and plan execution is
bit-for-bit identical to the direct code it replaced.

Two execution modes layer on top of the plain op walk, composably:

* **sharded** — a :class:`~repro.plan.sharding.ShardingPolicy` routes
  the plan's aggregation groups through the
  :class:`~repro.plan.sharding.ShardDispatcher` (see :class:`PlanExecutor`);
* **batched** — a plan carrying a
  :class:`~repro.plan.ir.BatchSegmentMap` binds a block-diagonal
  :class:`~repro.graph.BatchedGraph` and runs its dense transforms
  segment-local (see :meth:`PlanExecutor.run`).

``Normalize`` kinds are pluggable: backends register structure-
preparation callables in :data:`NORMALIZE_KINDS` via
:func:`register_normalize`.  Each callable receives
``(graph, params, inputs, tag)`` and returns a tuple with one entry per
declared output; it must be a pure function of those arguments, because
graph-only results are memoised per graph (:func:`graph_memo`).
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.core.kernels import (
    active_recorder,
    fused_gather_scatter,
    index_select,
    scatter,
    sgemm,
    spmm,
    transform_spmm,
)
from repro.core.models.activations import get_activation
from repro.errors import PlanError
from repro.graph import CSRMatrix, Graph, add_self_loops, gcn_edge_weights
from repro.plan.ir import (
    Activation,
    Elementwise,
    ExecutionPlan,
    FusedElementwise,
    FusedGatherScatter,
    FusedTransformSpMM,
    Gather,
    Normalize,
    ScatterReduce,
    SGEMM,
    SpMM,
)

__all__ = ["PlanExecutor", "NORMALIZE_KINDS", "apply_elementwise_stage",
           "forget_graph", "graph_memo", "register_normalize"]


def apply_elementwise_stage(stage, resolve):
    """Evaluate one ``Elementwise`` / ``Activation`` stage.

    ``resolve`` maps a :class:`~repro.plan.ir.ValueRef` to its value.
    Shared by the executor's op dispatch and the sharding dispatcher's
    in-process tail replay (:func:`repro.plan.sharding._apply_tail`),
    so the two can never diverge on stage semantics.
    """
    if isinstance(stage, Activation):
        return get_activation(stage.function)(resolve(stage.source))
    a, b = resolve(stage.a), resolve(stage.b)
    if stage.kind in ("add", "add_bias"):
        return a + b
    return (1.0 + stage.alpha) * a + b  # combine

#: Kind name -> ``fn(graph, params, inputs, tag) -> tuple`` registry.
NORMALIZE_KINDS: Dict[str, Callable] = {}


def register_normalize(kind: str, fn: Callable, overwrite: bool = False) -> None:
    """Register a structure-preparation callable for ``Normalize`` ops."""
    if kind in NORMALIZE_KINDS and not overwrite:
        raise PlanError(f"normalize kind {kind!r} already registered")
    NORMALIZE_KINDS[kind] = fn


# ---------------------------------------------------------------------------
# Per-graph memo of graph-only work
# ---------------------------------------------------------------------------

#: Plan flavors whose graph-only ``Normalize`` outputs are memoised.  The
#: PyG-like and DGL-like flavors rebuild their structures every run on
#: purpose: that rebuild is the framework overhead Fig. 3 measures.
_MEMO_FLAVORS = frozenset({"native", "adaptive"})

_GRAPH_MEMO: "weakref.WeakKeyDictionary[Graph, Dict[Hashable, Any]]" = \
    weakref.WeakKeyDictionary()


def graph_memo(graph: Graph) -> Dict[Hashable, Any]:
    """The memo of results that depend only on ``graph``.

    Entries live as long as the graph object does.  Holds the outputs of
    graph-only ``Normalize`` ops (see :class:`PlanExecutor`) and the
    planner's :class:`~repro.plan.planner.GraphStats`.
    """
    return _GRAPH_MEMO.setdefault(graph, {})


def forget_graph(graph: Graph) -> None:
    """Drop every memoised result of ``graph`` (the next run is cold)."""
    _GRAPH_MEMO.pop(graph, None)


def _memo_arrays(memo: Dict[Hashable, Any]):
    """Every array held by ``memo``'s ``Normalize`` entries."""
    # A snapshot: another thread may add entries (e.g. GraphStats).
    for values in list(memo.values()):
        for value in values if isinstance(values, tuple) else ():
            if isinstance(value, CSRMatrix):
                yield from (value.indptr, value.indices, value.data)
            elif isinstance(value, np.ndarray):
                yield value


def _share(array: np.ndarray, memo: Dict[Hashable, Any]) -> np.ndarray:
    """An array equal to ``array`` that ``memo`` already holds, else
    ``array`` itself."""
    for stored in _memo_arrays(memo):
        if (stored.dtype == array.dtype and stored.shape == array.shape
                and np.array_equal(stored, array)):
            return stored
    return array


def _freeze(value, memo: Dict[Hashable, Any]):
    """Read-only form of one ``Normalize`` output about to join ``memo``.

    Arrays equal to one the memo already holds are replaced by it, so
    each is stored once: GCN's and SAGE's MP endpoints are both the edge
    list of ``A + I``, and GCN's and GIN's SpMM matrices share the
    structure of ``A + I``.
    """
    if isinstance(value, CSRMatrix):
        return value.freeze(share=lambda array: _share(array, memo))
    if isinstance(value, np.ndarray):
        value = value.view()
        value.flags.writeable = False
        return _share(value, memo)
    return value


# ---------------------------------------------------------------------------
# Built-in normalize kinds (model-zoo structure preparation)
# ---------------------------------------------------------------------------

def _norm_edge_endpoints(graph: Graph, params, inputs, tag):
    """Raw COO endpoints — GIN-MP aggregates over the plain edge list."""
    return graph.src, graph.dst


def _norm_self_loop_endpoints(graph: Graph, params, inputs, tag):
    """Endpoints of the self-loop-augmented edge list (SAGE / GAT)."""
    edge_index = add_self_loops(graph).edge_index
    return edge_index[0], edge_index[1]


def _norm_gcn_edge_weights(graph: Graph, params, inputs, tag):
    """GCN-MP per-edge ``1/sqrt(du dv)`` weights over ``A + I``."""
    edge_index, weight = gcn_edge_weights(graph)
    return edge_index[0], edge_index[1], weight


def _norm_gcn_propagation(graph: Graph, params, inputs, tag):
    """GCN-SpMM propagation matrix via the traced SpGEMM chain."""
    from repro.core.models.gcn import gcn_propagation_matrix
    return (gcn_propagation_matrix(graph, tag=tag),)


def _norm_gin_aggregate(graph: Graph, params, inputs, tag):
    """GIN-SpMM aggregation matrix ``A + (1 + eps) I`` in CSR form."""
    from repro.core.models.gin import gin_aggregate_matrix
    return (gin_aggregate_matrix(graph, float(params["epsilon"])),)


def _norm_mean_adjacency(graph: Graph, params, inputs, tag):
    """Row-normalised ``A-hat`` realising mean over ``N(v) + v``."""
    from repro.core.models.sage import mean_adjacency_matrix
    return (mean_adjacency_matrix(graph),)


def _norm_gat_attention(graph: Graph, params, inputs, tag):
    """Edge-softmax attention coefficients (kernel-composed).

    On a batched workload the score matvecs run segment-local (see
    :func:`~repro.core.models.gat.attention_coefficients`), keeping
    batched GAT plans bit-for-bit with their per-member runs.
    """
    from repro.core.models.gat import attention_coefficients
    from repro.graph import BatchedGraph
    h, src, dst, a_src, a_dst = inputs
    segments = graph.node_segments() \
        if isinstance(graph, BatchedGraph) else None
    return (attention_coefficients(h, src, dst, a_src, a_dst,
                                   graph.num_nodes, tag,
                                   segments=segments),)


def _norm_split_edges(graph: Graph, params, inputs, tag):
    """Split a runtime ``(2, E)`` edge index into endpoint arrays."""
    edge_index, = inputs
    return edge_index[0], edge_index[1]


# ---------------------------------------------------------------------------
# Backend-flavoured normalize kinds (PyG-like / DGL-like structures)
# ---------------------------------------------------------------------------

def _norm_pyg_gcn_norm(graph: Graph, params, inputs, tag):
    """PyG's uncached per-forward ``gcn_norm`` over a runtime edge index."""
    from repro.frameworks.pyg_like import _gcn_norm
    edge_index, = inputs
    full, weight = _gcn_norm(edge_index, graph.num_nodes)
    return full[0], full[1], weight


def _norm_pyg_sage_endpoints(graph: Graph, params, inputs, tag):
    """PyG SAGEConv's per-forward diagonal augmentation."""
    edge_index, = inputs
    diag = np.arange(graph.num_nodes, dtype=np.int64)
    full = np.hstack([edge_index, np.vstack([diag, diag])])
    return full[0], full[1]


def _norm_dgl_graph(graph: Graph, params, inputs, tag):
    """DGL's up-front multi-format graph object (built per run)."""
    from repro.frameworks.dgl_like import DGLGraphLike
    return (DGLGraphLike(graph),)


def _norm_dgl_normalized(graph: Graph, params, inputs, tag):
    dgl_graph, = inputs
    return (dgl_graph.normalized(),)


def _norm_dgl_mean_adjacency(graph: Graph, params, inputs, tag):
    dgl_graph, = inputs
    return (dgl_graph.mean_adjacency(),)


def _norm_dgl_plain(graph: Graph, params, inputs, tag):
    dgl_graph, = inputs
    return (dgl_graph.plain(),)


for _kind, _fn in (
        ("edge_endpoints", _norm_edge_endpoints),
        ("self_loop_endpoints", _norm_self_loop_endpoints),
        ("gcn_edge_weights", _norm_gcn_edge_weights),
        ("gcn_propagation", _norm_gcn_propagation),
        ("gin_aggregate", _norm_gin_aggregate),
        ("mean_adjacency", _norm_mean_adjacency),
        ("gat_attention", _norm_gat_attention),
        ("split_edges", _norm_split_edges),
        ("pyg_gcn_norm", _norm_pyg_gcn_norm),
        ("pyg_sage_endpoints", _norm_pyg_sage_endpoints),
        ("dgl_graph", _norm_dgl_graph),
        ("dgl_normalized", _norm_dgl_normalized),
        ("dgl_mean_adjacency", _norm_dgl_mean_adjacency),
        ("dgl_plain", _norm_dgl_plain),
):
    register_normalize(_kind, _fn)


class PlanExecutor:
    """Interprets :class:`ExecutionPlan` values over a bound graph.

    Graph-only structure preparation runs once per graph: a
    ``Normalize`` op with no inputs, or whose inputs are all outputs of
    such ops, has its outputs stored read-only in :func:`graph_memo`,
    and later runs over the same graph object reuse them.  The key is
    the kind, its registered callable, the params and the keys of the
    inputs, so re-registering a kind never serves stale values.  Only
    ``native`` and ``adaptive`` plans use the memo, and no run does while a
    launch recorder is active, so recorded traces still carry the
    preparation launches.

    Parameters
    ----------
    on_op:
        Optional ``fn(op, result)`` observer invoked after each op —
        the PyG-like backend uses it to keep its autograd-style tape
        recording per-op bookkeeping exactly as before.
    sharding:
        Optional :class:`~repro.plan.sharding.ShardingPolicy` (or plain
        shard count) enabling sharded execution: the plan's aggregation
        ops (adjacent ``Gather``/``ScatterReduce`` pairs and ``SpMM``
        ops) are partitioned by destination-node range into shard
        sub-plans, dispatched over a worker pool, and merged through
        the scatter kernel.  Outputs and the ambient recorder's trace
        are bit-for-bit identical to unsharded execution; the shard-
        local captures of the last run are kept on
        :attr:`shard_trace` / :attr:`shard_report`.  Mutually exclusive
        with ``on_op`` (the observer would see shard-order
        intermediates).
    """

    def __init__(self, on_op: Optional[Callable] = None, sharding=None):
        from repro.plan.sharding import ShardingPolicy
        if isinstance(sharding, int):
            sharding = ShardingPolicy(num_shards=sharding)
        if sharding is not None and on_op is not None:
            raise PlanError(
                "sharded execution does not support per-op observers"
            )
        self.on_op = on_op
        self.sharding = sharding
        #: Node segments of the currently bound batched plan (``None``
        #: while running unbatched plans — set per :meth:`run`).
        self._segments = None
        #: Memo keys of the current run's graph-only values, by value
        #: id (``None`` when the plan's flavor does not memoise).
        self._graph_keys: Optional[Dict[int, Hashable]] = None
        #: Shard-local + merge launches of the last sharded run.
        #: Populated while an ambient recorder is active (or while the
        #: shard cache stores entries); un-instrumented runs skip the
        #: capture work entirely, like the kernels themselves do.
        self.shard_trace: list = []
        #: Per-group :class:`~repro.plan.sharding.ShardDispatch` records.
        self.shard_report: list = []
        #: :class:`~repro.bench.pool.DispatchReport` of the last sharded
        #: run's worker pool (``None`` until a sharded run happens).
        #: Records supervision events — retries, timeouts, worker
        #: deaths, degradations — none of which affect results.
        self.dispatch_report = None

    def run(self, plan: ExecutionPlan, graph: Graph,
            inputs: Dict[str, Any]) -> np.ndarray:
        """Execute ``plan`` over ``graph``; returns the output array.

        A plan carrying a :class:`~repro.plan.ir.BatchSegmentMap`
        expects the matching block-diagonal packed graph: the sparse
        aggregation ops run once over the packed operands (their block
        structure already factors per member — same per-destination
        reduction order, hence bit-for-bit member outputs), while
        ``SGEMM`` launches run *segment-local* per member row range,
        because BLAS blocking varies with the row count and a packed
        GEMM is not guaranteed bitwise against the per-member launches
        (the measured caveat behind
        :attr:`~repro.plan.sharding.ShardingPolicy.local_tails`).
        """
        self._segments = None
        self._graph_keys = {} if plan.flavor in _MEMO_FLAVORS else None
        if plan.batch is None and getattr(graph, "num_graphs", 1) > 1:
            # The converse of the checks below: an unstamped plan over
            # a packed workload would run its dense transforms packed
            # (and GAT's graph-keyed attention matvecs segmented) —
            # a silent, half-segmented break of member parity.  Lower
            # through cached_plan (which stamps the map) or stamp
            # explicitly with ExecutionPlan.with_batch.
            raise PlanError(
                f"a BatchedGraph packing {graph.num_graphs} members "
                f"requires a batch-stamped plan, got one with batch=None"
            )
        if plan.batch is not None:
            if plan.batch.num_nodes != graph.num_nodes:
                raise PlanError(
                    f"batched plan packs {plan.batch.num_nodes} nodes "
                    f"but the bound graph has {graph.num_nodes}"
                )
            offsets = getattr(graph, "node_offsets", None)
            if offsets is None and plan.batch.num_graphs > 1:
                # A plain graph of coincidentally matching size would
                # pass the totals check, but graph-derived segmentation
                # (GAT's attention-score matvecs) would then run
                # packed — refuse rather than break member parity.
                raise PlanError(
                    f"batched plan ({plan.batch.num_graphs} members) "
                    f"must bind its matching BatchedGraph, got a plain "
                    f"{type(graph).__name__}"
                )
            if offsets is not None and tuple(
                    int(o) for o in offsets) != plan.batch.node_offsets:
                # A total-preserving repack would silently segment the
                # dense transforms at the wrong rows, voiding the
                # bit-for-bit member contract — refuse at bind time.
                raise PlanError(
                    f"batched plan member boundaries "
                    f"{plan.batch.node_offsets} do not match the bound "
                    f"graph's packing {tuple(int(o) for o in offsets)}"
                )
            if (self.sharding is not None
                    and self.sharding.num_shards > 1
                    and self.sharding.partitioner == "degree"):
                # The degree partitioner regroups rows by in-degree —
                # shard row lists cut across member boundaries in an
                # order the segment map does not describe.  Refuse at
                # bind time rather than silently merging packed
                # segments under a permuted row order.
                raise PlanError(
                    "the 'degree' partitioner permutes shard row order "
                    "and does not compose with a batched plan's packed "
                    "member segments; use the 'rows' or 'edges' "
                    "partitioner for batched execution")
            if plan.batch.num_graphs > 1:
                self._segments = plan.batch.node_segments()
        env: Dict[int, Any] = dict(plan.constants)
        for ref in plan.inputs:
            if ref.name not in inputs:
                raise PlanError(
                    f"plan requires input {ref.name!r}; got "
                    f"{sorted(inputs)}"
                )
            env[ref.vid] = inputs[ref.name]
        unknown = set(inputs) - {ref.name for ref in plan.inputs}
        if unknown:
            raise PlanError(f"unexpected plan inputs: {sorted(unknown)}")

        group_at = self._shard_groups(plan, graph)
        if group_at:
            return self._run_sharded(plan, env, graph, group_at)
        for op in plan.ops:
            result = self._execute(op, env, graph)
            if self.on_op is not None:
                self.on_op(op, result)
        return env[plan.output.vid]

    # -- sharded execution -------------------------------------------------
    def _shard_groups(self, plan: ExecutionPlan, graph: Graph) -> Dict:
        """``{start position: ShardGroup}`` when sharding applies."""
        if self.sharding is None or self.sharding.num_shards <= 1:
            return {}
        from repro.plan.sharding import find_shard_groups, shard_ranges
        if len(shard_ranges(graph.num_nodes, self.sharding.num_shards)) < 2:
            return {}
        groups = find_shard_groups(
            plan, local_tails=self.sharding.local_tails)
        return {group.start: group for group in groups}

    def _run_sharded(self, plan: ExecutionPlan, env: Dict[int, Any],
                     graph: Graph, group_at: Dict) -> np.ndarray:
        """The sharded op walk: groups dispatch, everything else inline."""
        from repro.bench.pool import WorkerPool
        from repro.plan.sharding import ShardDispatcher
        dispatcher = ShardDispatcher(self.sharding)
        recorder = active_recorder()
        skip: set = set()
        pool = WorkerPool(self.sharding.jobs,
                          task_timeout=self.sharding.task_timeout,
                          max_retries=self.sharding.max_retries)
        try:
            with pool:
                for position, op in enumerate(plan.ops):
                    if position in skip:
                        continue
                    group = group_at.get(position)
                    if group is not None:
                        env[group.out_vid] = dispatcher.execute_group(
                            group, env, graph, pool, recorder)
                        skip.update(group.positions)
                        continue
                    self._execute(op, env, graph)
        finally:
            self.shard_trace = dispatcher.trace
            self.shard_report = dispatcher.report
            self.dispatch_report = pool.report
        return env[plan.output.vid]

    # -- batched execution -------------------------------------------------
    def _segmented_sgemm(self, op: SGEMM, a, b, bias) -> np.ndarray:
        """Run one node-aligned ``SGEMM`` per member of a batched plan.

        Each launch sees exactly the row count the member's unbatched
        run would — the property that keeps batched dense transforms
        bit-for-bit — and carries a ``@graphI/B`` tag suffix so the
        per-member launches stay distinguishable in recorded traces.
        Zero-node members contribute an empty block and no arithmetic.
        """
        total = len(self._segments)
        parts = []
        for i, (lo, hi) in enumerate(self._segments):
            parts.append(sgemm(
                a[lo:hi], b, bias=bias,
                tag=f"{op.tag}@graph{i + 1}/{total}",
                activation=op.activation or None))
        return np.concatenate(parts, axis=0)

    # -- op dispatch -------------------------------------------------------
    def _execute(self, op, env: Dict[int, Any], graph: Graph):
        if isinstance(op, Gather):
            out = index_select(env[op.source.vid], env[op.index.vid],
                               tag=op.tag)
            if op.scale is not None:
                scale = env[op.scale.vid][:, None]
                # index_select returns a fresh array: scale it in place
                # unless the product would promote its dtype.
                if np.result_type(out, scale) == out.dtype:
                    out *= scale
                else:
                    out = out * scale
            env[op.out.vid] = out
            return out
        if isinstance(op, ScatterReduce):
            out = scatter(env[op.source.vid], env[op.index.vid],
                          dim_size=graph.num_nodes, reduce=op.reduce,
                          tag=op.tag)
            env[op.out.vid] = out
            return out
        if isinstance(op, SpMM):
            bias = env[op.bias.vid] if op.bias is not None else None
            out = spmm(env[op.matrix.vid], env[op.dense.vid], bias=bias,
                       tag=op.tag, activation=op.activation or None)
            env[op.out.vid] = out
            return out
        if isinstance(op, FusedTransformSpMM):
            bias = env[op.bias.vid] if op.bias is not None else None
            out = transform_spmm(
                env[op.a.vid], env[op.b.vid], env[op.matrix.vid],
                bias=bias, activation=op.activation or None,
                sgemm_tag=op.sgemm_tag, tag=op.tag)
            env[op.out.vid] = out
            return out
        if isinstance(op, FusedGatherScatter):
            scale = env[op.scale.vid] if op.scale is not None else None
            out = fused_gather_scatter(
                env[op.source.vid], env[op.src_index.vid],
                env[op.dst_index.vid], dim_size=graph.num_nodes,
                scale=scale, reduce=op.reduce, tag=op.tag,
                gather_tag=op.gather_tag)
            env[op.out.vid] = out
            return out
        if isinstance(op, SGEMM):
            bias = env[op.bias.vid] if op.bias is not None else None
            a = env[op.a.vid]
            if (self._segments is not None
                    and np.asarray(a).shape[0] == graph.num_nodes):
                out = self._segmented_sgemm(op, a, env[op.b.vid], bias)
            else:
                out = sgemm(a, env[op.b.vid], bias=bias, tag=op.tag,
                            activation=op.activation or None)
            env[op.out.vid] = out
            return out
        if isinstance(op, Activation):
            out = get_activation(op.function)(env[op.source.vid])
            env[op.out.vid] = out
            return out
        if isinstance(op, (Elementwise, FusedElementwise)):
            stages = op.stages if isinstance(op, FusedElementwise) else (op,)
            local: Dict[int, Any] = {}

            def _resolve(ref):
                return local[ref.vid] if ref.vid in local else env[ref.vid]

            out = None
            for stage in stages:
                out = apply_elementwise_stage(stage, _resolve)
                local[stage.out.vid] = out
            env[op.out.vid] = out
            return out
        if isinstance(op, Normalize):
            return self._normalize(op, env, graph)
        raise PlanError(f"unknown plan op {type(op).__name__}")

    def _normalize(self, op: Normalize, env: Dict[int, Any], graph: Graph):
        """Run one ``Normalize`` op, through the graph memo when the op
        is graph-only (see the class docstring)."""
        try:
            fn = NORMALIZE_KINDS[op.kind]
        except KeyError:
            raise PlanError(
                f"unknown normalize kind {op.kind!r}; known: "
                f"{sorted(NORMALIZE_KINDS)}"
            ) from None
        keys = self._graph_keys
        key = memo = values = None
        if keys is not None and all(ref.vid in keys for ref in op.inputs):
            key = (op.kind, fn, tuple(sorted(op.params)),
                   tuple(keys[ref.vid] for ref in op.inputs))
            if active_recorder() is None:
                memo = graph_memo(graph)
                values = memo.get(key)
        if values is None:
            resolved: Tuple = tuple(env[ref.vid] for ref in op.inputs)
            values = fn(graph, op.param_dict(), resolved, op.tag)
            if len(values) != len(op.outs):
                raise PlanError(
                    f"normalize {op.kind!r} produced {len(values)} values "
                    f"for {len(op.outs)} outputs"
                )
            if memo is not None:
                values = memo[key] = tuple(_freeze(v, memo) for v in values)
        for index, (ref, value) in enumerate(zip(op.outs, values)):
            env[ref.vid] = value
            if key is not None:
                keys[ref.vid] = (key, index)
        return values
