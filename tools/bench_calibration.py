#!/usr/bin/env python3
"""Benchmark the calibrated cost profile against the paper constants.

``gsuite calibrate`` fits this host's :class:`~repro.plan.costprofile.
CostProfile` from simulated micro-workloads; this tool measures what
that buys.  Two comparisons, on the scaled citation + Reddit cells:

1. **Decision accuracy** — the planner's MP-vs-SpMM preference under
   each profile, scored against the *measured-best* side of the cached
   wall-clock grid (the same gate ``gsuite calibrate --check`` runs).
2. **End-to-end timing** — the adaptive backend built and run under
   each profile (best-of-``--repeats`` build + inference seconds), so
   a profile that flips a decision shows up as wall-clock, not just as
   a table entry.

The calibrated profile is fitted fresh (its fit time is reported) and
persisted next to the host defaults so the run is reproducible.
Results land in ``BENCH_calibration.json`` at the repository root; the
exit status enforces the regression contract — nonzero when the
calibrated profile matches *fewer* measured-best decisions than the
paper constants.

Usage::

    PYTHONPATH=src python tools/bench_calibration.py --profile ci  # CI smoke
    PYTHONPATH=src python tools/bench_calibration.py --repeats 5   # full bench
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.profiles import PROFILES  # noqa: E402
from repro.core import GNNPipeline  # noqa: E402
from repro.plan.calibrate import check_decisions, fit_profile  # noqa: E402
from repro.plan.costprofile import CostProfile, calibration_dir  # noqa: E402

from _timing import best_seconds  # noqa: E402

#: (model, dataset) end-to-end cells: the citation trio plus Reddit —
#: the regimes where the MP/SpMM decision actually swings (sparse wide
#: rows vs dense narrow ones).
WORKLOADS = (
    ("gcn", "cora"),
    ("gcn", "citeseer"),
    ("gin", "pubmed"),
    ("gcn", "reddit"),
)



def _accuracy(cells) -> int:
    return sum(1 for cell in cells if cell.correct)


def run(profile_name: str, repeats: int, out_path: Path) -> int:
    bench = PROFILES[profile_name]

    start = time.perf_counter()
    calibrated = fit_profile(profile_name)
    fit_seconds = time.perf_counter() - start
    profile_path = calibration_dir() / "bench-calibrated.json"
    calibrated.save(profile_path)
    print(calibrated.describe())
    print(f"fitted in {fit_seconds:.1f}s -> {profile_path}")

    paper_cells = check_decisions(CostProfile.paper(), profile_name)
    calib_cells = check_decisions(calibrated, profile_name)
    paper_acc, calib_acc = _accuracy(paper_cells), _accuracy(calib_cells)
    print(f"decision accuracy vs measured best: "
          f"paper {paper_acc}/{len(paper_cells)}, "
          f"calibrated {calib_acc}/{len(calib_cells)}")

    rows = []
    for model, dataset in WORKLOADS:
        scale = bench.scale_of(dataset)

        def sweep(costs):
            pipeline = GNNPipeline.from_params(
                model=model, dataset=dataset, scale=scale,
                framework="gsuite-adaptive", profile_costs=costs)
            return best_seconds(lambda: pipeline.build().run(), repeats)

        paper_s = sweep("paper")
        calib_s = sweep(str(profile_path))
        decision = next(c for c in calib_cells
                        if c.model == model and c.dataset == dataset)
        print(f"{model:4s} {dataset:8s}@{scale:g}  "
              f"paper {paper_s * 1e3:8.1f} ms  "
              f"calibrated {calib_s * 1e3:8.1f} ms  "
              f"(planner: {decision.planner_choice}, "
              f"measured best: {decision.measured_choice})")
        rows.append({
            "model": model, "dataset": dataset, "scale": scale,
            "seconds": {"paper": paper_s, "calibrated": calib_s},
            "planner_choice": decision.planner_choice,
            "measured_best": decision.measured_choice,
        })

    payload = {
        "description": "Calibrated cost profile vs the paper's static "
                       "constants.  'accuracy' scores each profile's "
                       "MP-vs-SpMM planner preference against the "
                       "measured-best side of the cached wall-clock "
                       "grid over (gcn,gin) x (cora, citeseer, pubmed, "
                       f"reddit); 'results' are best-of-{repeats} "
                       "end-to-end seconds (adaptive-backend build + "
                       "inference, warm plan cache) on the host CPU "
                       "under each profile.  The calibrated profile is "
                       "fitted fresh from the simulated micro-workload "
                       "sweep (fit_seconds) and must match at least as "
                       "many measured-best decisions as the paper "
                       "profile (the gsuite calibrate --check gate).",
        "profile": profile_name,
        "calibration": {
            "path": str(profile_path),
            "fit_seconds": round(fit_seconds, 3),
            "cost_profile": calibrated.to_dict()["profile"],
        },
        "accuracy": {
            "paper": paper_acc,
            "calibrated": calib_acc,
            "cells": [{
                "model": c.model, "dataset": c.dataset,
                "planner_choice": c.planner_choice,
                "measured_best": c.measured_choice,
                "seconds": {"MP": c.mp_seconds, "SpMM": c.spmm_seconds},
            } for c in calib_cells],
        },
        "results": rows,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    if calib_acc < paper_acc:
        print("FAIL: calibrated profile diverges from measured-best more "
              "often than the paper constants")
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="ci", choices=sorted(PROFILES))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=str(REPO_ROOT /
                                             "BENCH_calibration.json"))
    args = parser.parse_args()
    return run(args.profile, args.repeats, Path(args.out))


if __name__ == "__main__":
    raise SystemExit(main())
