"""The execution-plan layer: one operator IR shared by every backend,
and the passes and planners that transform and execute it.

Five subsystems compose here (see ``docs/architecture.md`` for the
full dataflow):

:mod:`~repro.plan.ir`
    The SSA operator vocabulary (``Gather`` / ``ScatterReduce`` /
    ``SpMM`` / ``SGEMM`` / ``Activation`` / ``Elementwise`` /
    ``Normalize`` plus the fused ops), the :class:`ExecutionPlan`
    container, the :class:`PlanBuilder` the lowering hooks drive, and
    the :class:`BatchSegmentMap` that marks batched multi-graph plans.
:mod:`~repro.plan.lowering`
    :func:`cached_plan` — the content-addressed plan store (cache kind
    ``"plan"``; batched geometry is a distinct flavor of the same
    kind) — and :func:`graph_signature`, the geometry a plan key
    depends on.
:mod:`~repro.plan.planner`
    The cost-model decision procedures, one ``choose_*`` entry point
    per knob: :func:`choose_formats` (MP vs SpMM per layer),
    :func:`choose_fusion` (which fusion patterns pay),
    :func:`choose_shards` (destination-range shard count) and
    :func:`choose_batching` (packed sweep width).  All four consume
    the same :class:`GraphStats` and the same :class:`CostProfile` of
    planner constants.
:mod:`~repro.plan.costprofile`
    :class:`CostProfile` — the versioned, persistable set of planner
    cost constants (``CostProfile.paper()`` is the static default;
    :func:`resolve_cost_profile` implements the *path > env > default
    file > paper* precedence) — and :mod:`~repro.plan.calibrate`,
    the ``gsuite calibrate`` sweep that fits one against the cycle
    simulator and this host's measured budgets.
:mod:`~repro.plan.fusion`
    :func:`fuse_plan`, the liveness/single-consumer rewrite merging
    gather+scatter pairs, SGEMM epilogues and elementwise chains, with
    :func:`legacy_trace` mapping fused launch streams back onto the
    unfused ``(kernel, tag)`` sequence.
:mod:`~repro.plan.sharding`
    Destination-range sharding: :func:`find_shard_groups`,
    :func:`build_shard_subplan`, the :class:`ShardingPolicy` contract
    and the :class:`ShardDispatcher` that executes groups over a
    worker pool with canonical trace emission.

The :class:`~repro.plan.executor.PlanExecutor` ties them together: it
interprets any (fused, sharded, batched — in any combination) plan
through the instrumented core kernels, bit-for-bit identical to the
direct legacy paths, which is the contract the ``tests/plan`` parity
suites pin.
"""

from repro.plan.executor import (
    NORMALIZE_KINDS,
    PlanExecutor,
    forget_graph,
    graph_memo,
    register_normalize,
)
from repro.plan.fusion import (
    FusionPolicy,
    describe_fusion,
    fuse_plan,
    fusion_summary,
    legacy_trace,
)
from repro.plan.ir import (
    Activation,
    BatchSegmentMap,
    Elementwise,
    ExecutionPlan,
    FORMATS,
    FusedElementwise,
    FusedGatherScatter,
    FusedTransformSpMM,
    Gather,
    Normalize,
    PlanBuilder,
    ScatterReduce,
    SGEMM,
    SpMM,
    ValueRef,
)
from repro.plan.costprofile import (
    CostProfile,
    PROFILE_SCHEMA_VERSION,
    calibration_dir,
    default_profile_path,
    host_key,
    resolve_cost_profile,
)
from repro.plan.lowering import cached_plan, graph_signature
from repro.plan.planner import (
    BatchDecision,
    GraphStats,
    PlannerDecisions,
    batch_member_bytes,
    batch_member_footprint,
    choose_batching,
    choose_formats,
    choose_fusion,
    choose_partitioner,
    choose_shards,
    explain_choice,
    fusion_gain,
    mp_layer_cost,
    partition_balance_cost,
    shard_setup_cost,
    spmm_layer_cost,
    spmm_setup_cost,
)
from repro.plan.sharding import (
    PARTITIONERS,
    ShardDispatcher,
    ShardGroup,
    ShardingPolicy,
    build_shard_subplan,
    degree_grouped_rows,
    edge_balanced_ranges,
    find_shard_groups,
    shard_ranges,
)

__all__ = [
    "Activation",
    "BatchDecision",
    "BatchSegmentMap",
    "CostProfile",
    "Elementwise",
    "ExecutionPlan",
    "FORMATS",
    "FusedElementwise",
    "FusedGatherScatter",
    "FusedTransformSpMM",
    "FusionPolicy",
    "Gather",
    "GraphStats",
    "NORMALIZE_KINDS",
    "Normalize",
    "PARTITIONERS",
    "PROFILE_SCHEMA_VERSION",
    "PlanBuilder",
    "PlanExecutor",
    "PlannerDecisions",
    "SGEMM",
    "ScatterReduce",
    "ShardDispatcher",
    "ShardGroup",
    "ShardingPolicy",
    "SpMM",
    "ValueRef",
    "batch_member_bytes",
    "batch_member_footprint",
    "build_shard_subplan",
    "cached_plan",
    "calibration_dir",
    "choose_batching",
    "choose_formats",
    "choose_fusion",
    "choose_partitioner",
    "choose_shards",
    "default_profile_path",
    "degree_grouped_rows",
    "describe_fusion",
    "edge_balanced_ranges",
    "explain_choice",
    "find_shard_groups",
    "forget_graph",
    "fuse_plan",
    "fusion_gain",
    "fusion_summary",
    "graph_memo",
    "graph_signature",
    "host_key",
    "legacy_trace",
    "mp_layer_cost",
    "partition_balance_cost",
    "register_normalize",
    "resolve_cost_profile",
    "shard_ranges",
    "shard_setup_cost",
    "spmm_layer_cost",
    "spmm_setup_cost",
]
