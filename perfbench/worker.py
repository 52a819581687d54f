"""One workload process: set up, optionally measure, report one JSON line.

Started by ``run.py`` with a hermetic environment (private cache
directory, BLAS pinned to one thread, ``src`` on ``PYTHONPATH``).
``--t0`` is the parent's ``time.monotonic()`` just before the process
was spawned, so ``setup_s`` covers interpreter start and imports too.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import threading
import time


def host_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def cpu_times() -> list:
    """The host's aggregate CPU jiffies from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        return [int(v) for v in handle.readline().split()[1:]]


class PeakRss:
    """Peak resident memory per interval, sampled by a thread.

    Each sample reads the kernel's high-water mark (``VmHWM``) and then
    resets it, so every interval reports its own peak.
    """

    def __init__(self, interval: float = 1.0):
        self.interval = interval
        self.peaks = []
        self.before = self._high_water()
        self._stop = threading.Event()
        self._reset()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    @staticmethod
    def _high_water() -> float:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc/self/status")

    @staticmethod
    def _reset() -> None:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")

    def _sample(self) -> None:
        self.peaks.append(self._high_water())
        self._reset()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"),
                        default="measure")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    from workloads import WORKLOADS

    recorder = None
    if args.trace:
        import tracer
        recorder = tracer.SpanRecorder()
        tracer.install(recorder)
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    report = {"setup_s": time.monotonic() - args.t0, "host": host_info()}
    try:
        if args.mode == "measure":
            cpu_before = cpu_times()
            rss = PeakRss()
            try:
                measurement = workload.measure(args.seconds)
            finally:
                rss.stop()
            cpu_delta = [b - a for a, b in zip(cpu_before, cpu_times())]
            report.update({
                "peak_rss_mb": statistics.median(rss.peaks),
                "rss_samples": len(rss.peaks),
                "process_peak_rss_mb": max([rss.before] + rss.peaks),
                "steal_frac": cpu_delta[7] / max(1, sum(cpu_delta)),
                "latencies_ms": measurement.latencies_ms,
                "window_s": measurement.window[1] - measurement.window[0],
                "attempted": measurement.attempted,
                "failed": measurement.failed,
                "problems": measurement.problems,
                "extra": measurement.extra,
                "correct": measurement.correct,
            })
            if recorder is not None:
                report["layers"] = tracer.layer_metrics(recorder, measurement)
                recorder.write_chrome_trace(args.trace_out)
    finally:
        workload.close()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
