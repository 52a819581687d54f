"""Backend abstraction for the framework-comparison experiments.

Fig. 3/4 compare four execution paths over the *same* GNN function:
PyG, DGL, gSuite-MP and gSuite-SpMM.  Here each path is a
:class:`Backend` that turns a :class:`PipelineSpec` plus a graph into a
:class:`BuiltPipeline`.  All backends route their math through the
instrumented core kernels (so kernel-level recording works everywhere)
and produce numerically identical outputs for the same spec — the
differences are the *execution structures*: per-call dispatch and
re-validation (PyG-like), up-front graph object construction with fused
SpMM (DGL-like), or the minimal direct path (native gSuite).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import BackendError
from repro.graph import Graph

__all__ = ["PipelineSpec", "BuiltPipeline", "Backend", "time_end_to_end"]


@dataclass(frozen=True)
class PipelineSpec:
    """Everything needed to build one GNN inference pipeline.

    This is the paper's "user parameters" bundle: model, computational
    model, stack geometry and seed.  Dataset choice lives outside (the
    graph is passed separately) so one spec can sweep datasets.
    """

    model: str = "gcn"
    compute_model: str = "MP"
    hidden: int = 16
    out_features: int = 7
    num_layers: int = 2
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        if self.num_layers < 1:
            raise BackendError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.hidden < 1 or self.out_features < 1:
            raise BackendError(
                f"hidden and out_features must be positive, got "
                f"{self.hidden} and {self.out_features}"
            )


class BuiltPipeline:
    """A ready-to-run inference pipeline bound to one graph."""

    def __init__(self, backend_name: str, spec: PipelineSpec, graph: Graph):
        self.backend_name = backend_name
        self.spec = spec
        self.graph = graph
        #: The ShardingPolicy applied via configure_sharding (None =
        #: unsharded execution).
        self.sharding = None
        #: The FusionPolicy applied via configure_fusion (None =
        #: unfused plan).
        self.fusion = None
        #: The pre-fusion plan kept for inspection/parity when
        #: configure_fusion rewrote ``plan``.
        self.plan_unfused = None

    def run(self, features: Optional[np.ndarray] = None) -> np.ndarray:
        """Execute inference, returning ``[num_nodes, out_features]``."""
        raise NotImplementedError

    def can_fuse(self) -> bool:
        """Whether this pipeline's plan can take the fusion pass.

        Mirrors :meth:`can_shard`: the plan must exist and execute
        through a plain :class:`~repro.plan.executor.PlanExecutor` —
        an op-observing tape (PyG-like) would see fused ops instead of
        the per-op stream it records.
        """
        return self.can_shard()

    def configure_fusion(self, policy) -> "BuiltPipeline":
        """Rewrite the plan through the fusion pass
        (:func:`repro.plan.fusion.fuse_plan`).

        ``policy`` is a :class:`~repro.plan.fusion.FusionPolicy`.
        Pipelines for which :meth:`can_fuse` is false refuse, so a
        *forced* fusion request is never silently ignored
        (planner-sourced policies are filtered by the caller, like
        sharding — see :meth:`repro.core.pipeline.GNNPipeline.build`).
        Outputs stay bit-for-bit identical to the unfused plan; the
        original plan is kept on :attr:`plan_unfused`.
        """
        from repro.plan import fuse_plan
        if not self.can_fuse():
            raise BackendError(
                f"backend {self.backend_name!r} does not support plan "
                f"fusion"
            )
        self.plan_unfused = self.plan
        self.plan = fuse_plan(self.plan, policy)
        self.fusion = policy
        return self

    def can_shard(self) -> bool:
        """Whether this pipeline can execute its plan sharded.

        True for pipelines that run a lowered plan through a plain
        :class:`~repro.plan.executor.PlanExecutor` (native, adaptive,
        DGL-like); false when the plan layer is bypassed (unlowered
        extension models) or every op is observed (the PyG-like tape).
        """
        executor = getattr(self, "_executor", None)
        return (executor is not None and executor.on_op is None
                and getattr(self, "plan", None) is not None)

    def configure_sharding(self, policy) -> "BuiltPipeline":
        """Switch plan execution to destination-range sharding.

        ``policy`` is a :class:`~repro.plan.sharding.ShardingPolicy`.
        Pipelines for which :meth:`can_shard` is false refuse, so a
        *forced* ``--shards K`` request is never silently ignored
        (planner-sourced policies are filtered by the caller instead —
        see :meth:`repro.core.pipeline.GNNPipeline.build`).
        """
        from repro.plan import PlanExecutor
        if not self.can_shard():
            raise BackendError(
                f"backend {self.backend_name!r} does not support sharded "
                f"plan execution"
            )
        self._executor = PlanExecutor(sharding=policy)
        self.sharding = policy
        return self

    @property
    def shard_report(self):
        """Per-group dispatch accounting of the last sharded run."""
        executor = getattr(self, "_executor", None)
        return [] if executor is None else executor.shard_report

    @property
    def dispatch_report(self):
        """Pool supervision record of the last sharded run (or ``None``).

        A :class:`~repro.bench.pool.DispatchReport`: attempts, retries,
        timeouts, worker deaths and degradations.  ``None`` until a
        sharded run happens; a clean run reports ``faulted == False``.
        """
        executor = getattr(self, "_executor", None)
        return None if executor is None else getattr(
            executor, "dispatch_report", None)


class Backend:
    """A framework execution path.

    Subclasses set ``name`` (the label used in figures) and implement
    :meth:`build`.  ``supported_compute_models`` documents which side of
    the MP/SpMM split the framework realises (PyG is MP-based, DGL is
    SpMM-based, gSuite does both).
    """

    name: str = "base"
    supported_compute_models = ("MP", "SpMM")

    def build(self, spec: PipelineSpec, graph: Graph,
              cost_profile=None) -> BuiltPipeline:
        """Construct a pipeline for ``spec`` over ``graph``.

        ``cost_profile`` is the planner's
        :class:`~repro.plan.costprofile.CostProfile` (``None`` = the
        paper constants).  Only backends that *plan* consume it — the
        adaptive path prices its per-layer format choice with it; the
        fixed paths execute the spec as given and ignore it.
        """
        raise NotImplementedError

    def check_spec(self, spec: PipelineSpec) -> None:
        """Reject specs whose compute model this backend cannot realise."""
        if spec.compute_model not in self.supported_compute_models:
            raise BackendError(
                f"backend {self.name!r} does not support the "
                f"{spec.compute_model} computational model"
            )


def time_end_to_end(backend: Backend, spec: PipelineSpec, graph: Graph,
                    repeats: int = 3) -> List[float]:
    """Wall-clock end-to-end times (build + inference), one per repeat.

    This is the paper's Fig. 3 measurement: each repeat pays the
    framework's full pipeline-construction cost, which is exactly where
    PyG-style initialization overheads show up.  The graph's memo is
    dropped before each repeat, so gSuite's structure preparation is
    timed cold too.
    """
    from repro.plan.executor import forget_graph
    if repeats < 1:
        raise BackendError(f"repeats must be >= 1, got {repeats}")
    times = []
    for _ in range(repeats):
        forget_graph(graph)
        start = time.perf_counter()
        pipeline = backend.build(spec, graph)
        pipeline.run()
        times.append(time.perf_counter() - start)
    return times
