#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload infer-social --seed 0 --seconds 20
    python3 perfbench/run.py --workload all --trace 1

Each workload runs in processes of its own (``worker.py``) with a
hermetic environment.  ``--trace 0`` reports the end-to-end metrics; the
workload is set up :data:`SETUP_REPEATS` times, in as many processes,
and ``setup_s`` is the median.  ``--trace 1`` runs the workload once
untraced and once with every layer wrapped, and reports the per-layer
metrics; the trace is written to ``.perfbench/``.  A table with units
and sample counts is printed first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from stats import percentile

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("infer-social", "serve-open", "reproduce-cold")
SETUP_REPEATS = 3
#: Every process of one run must end within this many seconds.
RUN_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Settings that would make a run depend on the host's state.
UNSET_VARS = ("GSUITE_COST_PROFILE", "GSUITE_FAULTS", "GSUITE_PROFILE",
              "GSUITE_CACHE")


#: Per-layer figures of ``serve-open``, which BENCHMARK.json leaves out
#: as unsteady: they are printed and kept in the result file only.
SERVING_UNITS = {"serve.exec_ms": "ms/op", "serve.wait_ms": "ms/op",
                 "serve.worker_busy_frac": "fraction",
                 "serve.batch_size.mean": "requests",
                 "serve.batched_frac": "fraction",
                 "serve.pad_useful_frac": "fraction",
                 "loadgen.late_max_ms": "ms"}


class BenchError(RuntimeError):
    """A workload process failed or the checkout is not runnable."""


def hermetic_env(root: Path, cache_dir: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_VARS}
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["GSUITE_CACHE_DIR"] = cache_dir
    # Unset, the calibration directory defaults to one inside the
    # checkout, which may hold a profile fitted on another host.
    env["GSUITE_CALIBRATION_DIR"] = os.path.join(cache_dir, "calibration")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return env


def spawn(root: Path, out_dir: Path, deadline: float, workload: str,
          seed: int, seconds: float, trace: int = 0, mode: str = "measure",
          trace_out: str = "") -> dict:
    """Run one workload process to completion; returns its report."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=out_dir)
    try:
        command = [sys.executable, str(BENCH_DIR / "worker.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace),
                   "--mode", mode, "--trace-out", trace_out]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                command + ["--t0", repr(t0)], cwd=root,
                env=hermetic_env(root, cache_dir), stdout=subprocess.PIPE,
                text=True, timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} ({mode}) did not finish within "
                             f"{RUN_LIMIT_S:g} s of the run's start") from None
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} ({mode}) exited with code "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def source_identity(root: Path) -> dict:
    """The git commit (when the checkout is a repository) and a digest
    of the sources the workloads import."""
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def metric_units(root: Path) -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` as
    declared in ``BENCHMARK.json``."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def end_to_end(report: dict, setups: list, units: dict) -> dict:
    """name -> (value, unit, samples) of the untraced run."""
    latencies = report["latencies_ms"]
    n = len(latencies)
    rows = {
        "setup_s": (statistics.median(setups), len(setups)),
        "op_p50_ms": (percentile(latencies, 0.5), n),
        "op_p90_ms": (percentile(latencies, 0.9), n),
        "ops_per_s": (n / report["window_s"], n),
        "peak_rss_mb": (report["peak_rss_mb"], report["rss_samples"]),
    }
    return {name: (rows[name][0], unit, rows[name][1])
            for name, unit in units.items()}


def per_layer(traced: dict, untraced: dict, units: dict) -> dict:
    """name -> (value, unit, samples) of the traced run, for every name
    in ``units``."""
    values = {**traced["layers"], **traced["extra"]}
    rate = len(traced["latencies_ms"]) / traced["window_s"]
    base = len(untraced["latencies_ms"]) / untraced["window_s"]
    values["trace.overhead_frac"] = 1.0 - rate / base
    values["sim_maccess_per_s"] = \
        untraced["extra"].get("sim_maccess_per_s", 0.0)
    n = len(traced["latencies_ms"])
    return {name: (values.get(name, 0.0), unit, n)
            for name, unit in units.items()}


def run_workload(root: Path, out_dir: Path, deadline: float, name: str,
                 seed: int, seconds: float, trace: int) -> dict:
    units = metric_units(root)
    common = dict(workload=name, seed=seed, seconds=seconds)
    serving = {}
    if trace:
        untraced = spawn(root, out_dir, deadline, **common)
        trace_path = out_dir / f"trace-{name}-seed{seed}.json"
        report = spawn(root, out_dir, deadline, trace=1,
                       trace_out=str(trace_path), **common)
        metrics = per_layer(report, untraced, units["per_layer"])
        if name == "serve-open":
            serving = per_layer(report, untraced, SERVING_UNITS)
    else:
        setups = [spawn(root, out_dir, deadline, mode="setup", **common)
                  ["setup_s"] for _ in range(SETUP_REPEATS - 1)]
        report = spawn(root, out_dir, deadline, **common)
        setups.append(report["setup_s"])
        metrics = end_to_end(report, setups, units["end_to_end"])
    attempted, failed = report["attempted"], report["failed"]
    summary = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "host": {"nproc": len(os.sched_getaffinity(0)), **report["host"],
                 **source_identity(root)},
        "correct": bool(report["correct"]) and failed == 0,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": report["problems"],
        "digest": report["extra"].get("digest"),
        "steal_frac": report["steal_frac"],
        "process_peak_rss_mb": report["process_peak_rss_mb"],
        "sim_maccess_per_s": report["extra"].get("sim_maccess_per_s"),
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "serving": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in serving.items()},
    }
    (out_dir / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(summary, indent=2) + "\n")
    return summary


def print_summary(summary: dict) -> None:
    host = summary["host"]
    print(f"== {summary['workload']}  seed {summary['seed']}  "
          f"{summary['seconds']:g} s  trace {summary['trace']}")
    print(f"host: nproc {host['nproc']}, python {host['python']}, numpy "
          f"{host['numpy']}, blas {host['blas']}, git "
          f"{host['git_sha'] or 'n/a'}, src {host['src_sha256'][:16]}, "
          f"cpu steal {summary['steal_frac']:.1%} while measuring")
    print(f"  {'metric':28s} {'value':>14s}  {'unit':12s} samples")
    rows = list(summary["metrics"].items()) \
        + list(summary["serving"].items())
    rows.append(("failed_frac", {"value": summary["failed_frac"],
                                 "unit": "fraction",
                                 "samples": summary["attempted"]}))
    if summary["sim_maccess_per_s"] is not None and not summary["trace"]:
        rows.append(("sim_maccess_per_s",
                     {"value": summary["sim_maccess_per_s"],
                      "unit": "Maccess/s", "samples": summary["attempted"]}))
    for name, row in rows:
        print(f"  {name:28s} {row['value']:14.6g}  {row['unit']:12s} "
              f"{row['samples']}")
    if summary["digest"]:
        print(f"  simulated-statistics digest {summary['digest']}")
    for problem in summary["problems"]:
        print(f"  problem: {problem}")


def _terminate(signum, frame):
    # Unwinding through subprocess.run kills and reaps the running
    # workload process, and the finally blocks remove its cache.
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be > 0 and --seed >= 0")

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir() \
            or not (root / "BENCHMARK.json").is_file():
        print(f"error: {root} lacks src/repro or BENCHMARK.json; "
              f"run from the repository root", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    summaries = []
    try:
        for name in names:
            summaries.append(run_workload(root, out_dir, deadline, name,
                                          args.seed, args.seconds,
                                          args.trace))
            print_summary(summaries[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prefix = len(summaries) > 1
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {(f"{s['workload']}.{k}" if prefix else k):
                    {"value": m["value"], "unit": m["unit"]}
                    for s in summaries for k, m in s["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
