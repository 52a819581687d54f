"""The three benchmark workloads.

Each workload builds its inputs from a seed in :meth:`setup` (dataset
generation, warm-up, reference outputs), then :meth:`measure` runs ops
for a fixed number of seconds and checks every output.  An op is one
inference (``infer-social``), one served request (``serve-open``) or one
kernel launch simulated and profiled (``reproduce-cold``).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from stats import poisson_schedule

PINNED = Path(__file__).resolve().parent / "pinned.json"


@dataclass
class Measurement:
    """What one measured window produced."""

    latencies_ms: List[float] = field(default_factory=list)
    #: ``(start, end)`` of every op, ``time.perf_counter`` seconds.
    op_intervals: List[Tuple[float, float]] = field(default_factory=list)
    window: Tuple[float, float] = (0.0, 0.0)
    attempted: int = 0
    failed: int = 0
    #: Descriptions of failed ops and failed checks (first few kept).
    problems: List[str] = field(default_factory=list)
    #: Workload-specific figures (serving shape, trace accesses, digest).
    extra: Dict[str, object] = field(default_factory=dict)
    correct: bool = True

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(problem)


class Workload:
    """Set up from a seed, then measure for a number of seconds."""

    #: Closed-loop windows run on past ``seconds`` until they hold this
    #: many ops, so that at least ten samples lie beyond the p90.
    MIN_OPS = 100

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` started."""


# ---------------------------------------------------------------------------
# infer-social: closed-loop inference on the two social graphs
# ---------------------------------------------------------------------------

class InferSocial(Workload):
    """One caller running ``GNNPipeline(...).build().run()`` round-robin
    over gcn, gin and sage on reddit@0.05 and livejournal@0.01 with the
    adaptive backend, which plans these graphs onto SpMM."""

    GRAPHS = (("reddit", 0.05), ("livejournal", 0.01))
    MODELS = ("gcn", "gin", "sage")
    #: MP and SpMM reduce in different orders in float32; errors scale
    #: with the output's magnitude, hence the max-relative ``atol``.
    RTOL, ATOL_OF_MAX = 1e-4, 1e-5

    def __init__(self, seed: int):
        from repro.core.config import SuiteConfig
        self.configs = [
            SuiteConfig(model=model, dataset=dataset, scale=scale,
                        framework="gsuite-adaptive", profile_costs="paper",
                        out_features=8, seed=seed)
            for dataset, scale in self.GRAPHS for model in self.MODELS]
        self.warm: List[np.ndarray] = []
        self.reference: List[np.ndarray] = []

    @staticmethod
    def _label(config) -> str:
        return f"{config.model}/{config.dataset}@{config.scale:g}"

    def setup(self) -> None:
        from repro.core.pipeline import GNNPipeline
        for config in self.configs:
            self.warm.append(GNNPipeline(config).build().run())
            fixed = replace(config, framework="gsuite", compute_model="MP")
            self.reference.append(GNNPipeline(fixed).build().run())

    def _check(self, index: int, out: np.ndarray) -> Optional[str]:
        label = self._label(self.configs[index])
        if not np.array_equal(out, self.warm[index]):
            return f"{label}: output differs from its warm-up output"
        ref = self.reference[index]
        if not np.allclose(out, ref, rtol=self.RTOL,
                           atol=self.ATOL_OF_MAX * float(np.abs(ref).max())):
            return f"{label}: output outside tolerance of the MP reference"
        return None

    def measure(self, seconds: float) -> Measurement:
        from repro.core.pipeline import GNNPipeline
        from repro.errors import GSuiteError
        result = Measurement()
        start = time.perf_counter()
        index = 0
        while True:
            cell = index % len(self.configs)
            index += 1
            t0 = time.perf_counter()
            try:
                out = GNNPipeline(self.configs[cell]).build().run()
            except GSuiteError as exc:
                out, problem = None, f"{self._label(self.configs[cell])}: {exc}"
            t1 = time.perf_counter()
            if out is not None:
                problem = self._check(cell, out)
            result.attempted += 1
            result.latencies_ms.append((t1 - t0) * 1e3)
            result.op_intervals.append((t0, t1))
            if problem:
                result.fail(1, problem)
            # Whole rounds only, so every run weighs the cells alike.
            if (t1 - start >= seconds and result.attempted >= self.MIN_OPS
                    and index % len(self.configs) == 0):
                break
        result.window = (start, t1)
        return result


# ---------------------------------------------------------------------------
# serve-open: Poisson arrivals into one InferenceService
# ---------------------------------------------------------------------------

class ServeOpen(Workload):
    """Open-loop Poisson arrivals into one ``InferenceService`` with the
    default serving config; requests cycle through cora, citeseer and
    pubmed at scale 0.25 (gcn, head width 8)."""

    RATE = 20.0               # offered requests per second
    DATASETS = ("cora", "citeseer", "pubmed")
    SCALE = 0.25
    #: Requests still unanswered this long after the last due time
    #: count as failed.
    DRAIN_LIMIT_S = 5.0

    def __init__(self, seed: int):
        from repro.core.config import SuiteConfig
        from repro.serve.loadgen import dataset_mix
        self.seed = seed
        self.config = SuiteConfig(profile_costs="paper")
        self.templates = dataset_mix(list(self.DATASETS), out_features=8,
                                     model="gcn", scale=self.SCALE,
                                     seed=seed)
        self.widths = [t.resolve_graph().num_features for t in self.templates]
        #: (template index, pad width) -> solo output at that width.
        self.references: Dict[Tuple[int, int], np.ndarray] = {}
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.service = None

    def _reference(self, template: int, pad_to: int) -> np.ndarray:
        from repro.serve import solo_reference
        key = (template, pad_to)
        if key not in self.references:
            self.references[key] = solo_reference(self.templates[template],
                                                  pad_to=pad_to)
        return self.references[key]

    def setup(self) -> None:
        from repro.serve import InferenceService
        self.loop = asyncio.new_event_loop()
        self.service = InferenceService(self.config)

        async def warm_up():
            await self.service.start()
            for i, template in enumerate(self.templates):
                await self.service.submit(
                    replace(template, request_id=f"warm-{i}"))

        self.loop.run_until_complete(warm_up())
        # A group pads to its widest member, so a request can run at its
        # own width or at any wider template's width.
        for i, width in enumerate(self.widths):
            for pad in set(self.widths):
                if pad >= width:
                    self._reference(i, pad)

    def measure(self, seconds: float) -> Measurement:
        return self.loop.run_until_complete(self._drive(seconds))

    def close(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self.service.close())
            self.loop.close()

    async def _drive(self, seconds: float) -> Measurement:
        from repro.errors import GSuiteError
        service = self.service
        schedule = poisson_schedule(self.RATE, seconds, self.seed)
        result = Measurement()

        async def one(request, due):
            try:
                response = await service.submit(request)
            except GSuiteError as exc:
                return request, due, None, exc, time.perf_counter()
            return request, due, response, None, time.perf_counter()

        tasks = []
        late_max = 0.0
        start = time.perf_counter()
        for i, offset in enumerate(schedule):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late_max = max(late_max, time.perf_counter() - due)
            request = replace(self.templates[i % len(self.templates)],
                              request_id=f"r{i}")
            tasks.append(asyncio.ensure_future(one(request, due)))
        last_due = start + schedule[-1]
        done, pending = await asyncio.wait(
            tasks, timeout=max(0.0, last_due + self.DRAIN_LIMIT_S
                               - time.perf_counter()))
        for task in pending:
            task.cancel()
        end = time.perf_counter()
        result.attempted = len(tasks)
        if pending:
            result.fail(len(pending), f"{len(pending)} request(s) unanswered "
                        f"{self.DRAIN_LIMIT_S:g} s after the last due time")

        answered = [task.result() for task in tasks if task in done]
        real_cols = padded_cols = groups = batched = served = 0
        for request, due, response, error, finished in answered:
            result.latencies_ms.append((finished - due) * 1e3)
            result.op_intervals.append((due, finished))
            if error is not None:
                result.fail(1, f"{request.request_id}: {error}")
                continue
            template = self.DATASETS.index(request.dataset)
            if not np.array_equal(response.output, self._reference(
                    template, response.padded_to)):
                result.fail(1, f"{request.request_id}: response differs from "
                            f"solo_reference at width {response.padded_to}")
            served += 1
            real_cols += self.widths[template]
            padded_cols += response.padded_to
            groups += 1.0 / response.batch_size
            batched += response.source == "batched"
        result.window = (start, end)
        result.extra.update({
            "loadgen.late_max_ms": late_max * 1e3,
            "serve.batched_frac": batched / served if served else 0.0,
            "serve.batch_size.mean": served / groups if groups else 0.0,
            "serve.pad_useful_frac":
                real_cols / padded_cols if padded_cols else 0.0,
        })
        return result


# ---------------------------------------------------------------------------
# reproduce-cold: the figure engine's calls from an empty cache
# ---------------------------------------------------------------------------

class ReproduceCold(Workload):
    """Record, simulate and profile the figure cells under the ``ci``
    profile, each pass from an empty persistent cache and memo."""

    CELLS = (("gcn", "cora", "MP"), ("gcn", "cora", "SpMM"),
             ("gin", "pubmed", "MP"), ("sage", "citeseer", "MP"),
             ("gcn", "reddit", "SpMM"), ("gcn", "livejournal", "MP"))

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        from repro.bench import common
        from repro.bench.profiles import active_profile
        from repro.cache import code_version
        from repro.core.pipeline import GNNPipeline
        from repro.datasets import load_dataset
        self.common = common
        self.profile = active_profile("ci")
        unseeded = common.pipeline_for

        def seeded(*args, **kwargs):
            config = unseeded(*args, **kwargs).config
            return GNNPipeline(replace(config, seed=self.seed))

        # The figure engine builds every pipeline at the default seed;
        # the benchmark's seed reaches the generated graphs through here.
        common.pipeline_for = seeded
        for dataset in sorted({cell[1] for cell in self.CELLS}):
            load_dataset(dataset, scale=self.profile.scale_of(dataset),
                         seed=self.seed)
        code_version()

    @staticmethod
    def _stats(sims, profs) -> List[tuple]:
        return [(s.kernel, s.cycles, s.issued_instructions, s.l1_hit_rate,
                 s.l2_hit_rate, p.l1_hit_rate, p.l2_hit_rate)
                for s, p in zip(sims, profs)]

    def measure(self, seconds: float) -> Measurement:
        from repro.cache import get_cache
        common, profile = self.common, self.profile
        result = Measurement()
        first_pass: Dict[tuple, List[tuple]] = {}
        accesses = 0
        start = t1 = time.perf_counter()
        # Whole passes only: the cells' per-launch costs differ by 5x, so
        # a partial pass would shift every figure with where it stopped.
        while t1 - start < seconds or result.attempted < self.MIN_OPS:
            get_cache().clear()
            common.clear_bench_cache()
            for cell in self.CELLS:
                t0 = time.perf_counter()
                launches = common.recorded_launches(*cell, profile)
                sims = common.sim_results(*cell, profile)
                profs = common.profile_results(*cell, profile)
                t1 = time.perf_counter()
                count = len(launches)
                result.attempted += count
                result.latencies_ms += [(t1 - t0) * 1e3 / count] * count
                result.op_intervals.append((t0, t1))
                accesses += sum(len(launch.loads) + len(launch.stores)
                                for launch in launches)
                stats = self._stats(sims, profs)
                if len(sims) != count or len(profs) != count:
                    result.fail(count, f"{cell}: {count} launches but "
                                f"{len(sims)} sims / {len(profs)} profiles")
                elif cell not in first_pass:
                    first_pass[cell] = stats
                else:
                    bad = sum(a != b for a, b in zip(stats, first_pass[cell]))
                    if bad:
                        result.fail(bad, f"{cell}: {bad} launch(es) differ "
                                    f"from the first pass")
        result.window = (start, t1)
        result.extra["sim_maccess_per_s"] = accesses / (t1 - start) / 1e6
        digest = self.digest(first_pass)
        result.extra["digest"] = digest
        pinned = json.loads(PINNED.read_text())["reproduce-cold"]
        if self.seed == pinned["seed"]:
            if digest != pinned["digest"]:
                result.correct = False
                result.problems.append(
                    f"digest {digest} != pinned {pinned['digest']}")
        return result

    @staticmethod
    def digest(per_cell: Dict[tuple, List[tuple]]) -> str:
        """SHA-256 over every cell's per-launch simulated statistics."""
        payload = [[list(cell), [list(map(repr, stats)) for stats in rows]]
                   for cell, rows in per_cell.items()]
        return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


WORKLOADS = {
    "infer-social": InferSocial,
    "serve-open": ServeOpen,
    "reproduce-cold": ReproduceCold,
}
