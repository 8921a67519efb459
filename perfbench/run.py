"""Benchmark of the relevance-comparison platform.

Run from the root of a checkout::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median of
several set-ups, each including the workload's fill of the scheduler's
finished-task table), per-op latency p50/p95, throughput and CPU per op
over the whole op list, and the serving process's peak RSS.  ``--trace 1``
runs the op list once untraced and once with :mod:`tracing` wrapped around
every platform layer, and reports the per-layer metrics of :mod:`ledger`.
Every op's output is checked; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The lines before it are a human-readable report (metric,
value, unit, sample count).

The op list is generated from ``--seed`` and sized to ``--seconds`` times
the workload's nominal rate; the run ends when the list is done.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
SHM = Path("/dev/shm")
#: Executor workers of the deployments (the gateway's default).
WORKERS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_ops_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
}


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q))


def _live_children() -> List[int]:
    children = []
    for task in Path("/proc/self/task").iterdir():
        text = (task / "children").read_text().split()
        children.extend(int(pid) for pid in text)
    return children


def _host_ticks() -> List[int]:
    """Steal and total CPU ticks of the host so far, from ``/proc/stat``."""
    ticks = [int(value) for value in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return [ticks[7], sum(ticks)]


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


class Run:
    """One invocation: set-ups, the timed loop(s), verification, report."""

    def __init__(self, workload, seed: int, seconds: int) -> None:
        self.workload = workload
        n_ops = max(4, round(seconds * workload.ops_per_second))
        self.inputs = workload.generate(seed, n_ops)
        self.records: List[Any] = []
        self.report: List[tuple] = []

    def timed(self, deployment, tracer=None) -> Dict[str, Any]:
        """Run the op list on ``deployment``: its records, wall and CPU seconds."""
        from workloads import process_cpu_seconds

        pids = [pid for pid in self.workload.serving_pids(deployment) if pid != os.getpid()]
        cpu_before = time.process_time() + sum(process_cpu_seconds(p) for p in pids)
        host_before = _host_ticks()
        started = time.perf_counter()
        records = self.workload.run(deployment, self.inputs, tracer)
        wall = time.perf_counter() - started
        cpu = time.process_time() + sum(process_cpu_seconds(p) for p in pids) - cpu_before
        steal, total = (after - before for after, before in zip(_host_ticks(), host_before))
        self.records.extend(records)
        # The share of CPU time the hypervisor gave to other guests: a run
        # with a high share was slowed by its neighbours, not by the program.
        self.report.append(("host_steal_share", steal / max(1, total), "ratio", total))
        return {"records": records, "wall": wall, "cpu": cpu}

    def setup(self, **options):
        started = time.perf_counter()
        deployment = self.workload.setup(self.inputs, **options)
        return deployment, time.perf_counter() - started

    # ---- modes ----------------------------------------------------------- #
    def end_to_end(self) -> List[str]:
        """Measure and report; returns the names the result line carries."""
        from workloads import SETUPS, peak_rss_mb

        setups = []
        deployment = None
        try:
            for _ in range(SETUPS):
                if deployment is not None:
                    self.workload.close(deployment)
                    deployment = None
                deployment, elapsed = self.setup()
                setups.append(elapsed)
            timed = self.timed(deployment)
            rss = max(peak_rss_mb(pid) for pid in self.workload.serving_pids(deployment))
        finally:
            if deployment is not None:
                self.workload.close(deployment)
        records = timed["records"]
        self.workload.verify(self.inputs, records)
        latencies = self._latencies(records)
        metrics = {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": _percentile(latencies, 50),
            "latency_p95_ms": _percentile(latencies, 95),
            "throughput_ops_s": len(records) / timed["wall"],
            "cpu_ms_per_op": timed["cpu"] * 1000.0 / len(records),
            "peak_rss_mb": rss,
        }
        reads = len(latencies)
        samples = {
            "setup_s": len(setups), "latency_p50_ms": reads, "latency_p95_ms": reads,
            "throughput_ops_s": len(records), "cpu_ms_per_op": len(records), "peak_rss_mb": 1,
        }
        for name, value in metrics.items():
            self.report.append((name, value, END_TO_END_UNITS[name], samples[name]))
        writes = [r.latency_ms for r in records if r.kind == "write"]
        if writes:
            self.report.append(("write_latency_p50_ms", _percentile(writes, 50), "ms", len(writes)))
            self.report.append(("write_latency_p90_ms", _percentile(writes, 90), "ms", len(writes)))
        else:
            self.report.append(("write_latency_p50_ms", "n/a", "ms", 0))
            self.report.append(("write_latency_p90_ms", "n/a", "ms", 0))
        return list(metrics)

    def per_layer(self) -> List[str]:
        """Untraced, then traced; returns the names the result line carries."""
        from ledger import PER_LAYER, UNITS, match_requests, reduce
        from tracing import LayerTracer

        deployment, _ = self.setup()
        try:
            untraced = self.timed(deployment)["records"]
        finally:
            self.workload.close(deployment)
        self.workload.verify(self.inputs, untraced)
        untraced_p50 = _percentile(self._latencies(untraced), 50)

        trace_file = WORK_DIR / "trace.json"
        if self.workload.name == "explore":
            tracer = None
            deployment, _ = self.setup(trace_out=trace_file)
        else:
            tracer = LayerTracer()
            tracer.install()
            deployment, _ = self.setup()
        try:
            timed = self.timed(deployment, tracer)
        finally:
            self.workload.close(deployment)
        traced = timed["records"]
        # A failed op has no complete trace; it still counts in error_rate.
        records = [record for record in traced if record.trace is not None]
        if tracer is None:
            requests = json.loads(trace_file.read_text())
            ops = match_requests(requests, [record.trace for record in records])
        else:
            tracer.uninstall()
            ops = [record.trace for record in records]
        reads = [op for op, record in zip(ops, records) if record.kind != "write"]
        metrics, bases = reduce(
            ops, reads, wall_seconds=timed["wall"],
            workers=WORKERS, untraced_p50_ms=untraced_p50,
        )
        self.workload.verify(self.inputs, traced)
        for name, value in metrics.items():
            self.report.append((name, value, UNITS[name], bases[name]))
        return PER_LAYER

    @staticmethod
    def _latencies(records) -> List[float]:
        return [record.latency_ms for record in records if record.kind != "write"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if arguments.workload not in WORKLOADS:
        print(f"error: unknown workload {arguments.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _on_sigterm)
    # A shell starts background jobs with SIGINT ignored, and children keep
    # ignored signals: catch it here so the server children (stopped with
    # SIGINT) get the default disposition back, and so a SIGINT to this
    # process runs the cleanup below.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    shm_before = set(os.listdir(SHM)) if SHM.is_dir() else set()
    WORK_DIR.mkdir(exist_ok=True)
    try:
        run = Run(WORKLOADS[arguments.workload](ROOT), arguments.seed, arguments.seconds)
        result_names = run.per_layer() if arguments.trace else run.end_to_end()
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    leaked = sorted(set(os.listdir(SHM)) - shm_before) if SHM.is_dir() else []
    children = _live_children()
    if children or leaked:
        print(f"error: left behind child processes {children} and /dev/shm segments {leaked}",
              file=sys.stderr)
        return 3

    attempted = len(run.records)
    failed = sum(1 for record in run.records if not record.ok)
    print(f"workload {arguments.workload}  seed {arguments.seed}  "
          f"inputs {json.dumps(run.inputs.properties)}")
    for name, value, unit, samples in run.report:
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"  {name:36s} {shown:>14s} {unit:9s} n={samples}")
    print(f"  {'error_rate':36s} {failed / attempted:>14.4f} {'ratio':9s} "
          f"n={attempted} ({failed} failed)")
    for record in run.records:
        if not record.ok:
            print(f"  failed op {record.index} ({record.kind}): {record.error}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, value, unit, _ in run.report
            if name in result_names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
