"""Reduce traced ops to the benchmark's per-layer metrics.

Every metric is computed over the timed ops only (warm-up ops carry no
trace context).  Per-op self times are p50s over ops; per-call timings
(``cache.get``, ``datastore.fetch``, ...) are p50s over calls; ``*_per_op``
counts divide by the number of ops.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from tracing import OpContext

#: Layers whose per-op self time is reported as ``<layer>.self_ms.p50``.
LAYERS = (
    "http", "restapi", "gateway", "tasks", "scheduler", "cache", "datastore", "sharding",
    "replication", "executor", "algorithms", "jobs", "telemetry", "status",
    "resilience",
)

#: Times of layers that only some workloads have (REST on ``explore``, the
#: replicated store on ``replicated-churn``, queue waits on the asynchronous
#: ``cyclerank-batch``).  The report prints them for every workload; the
#: result line leaves them out, since elsewhere they read 0 on every run.
WORKLOAD_SPECIFIC = frozenset({
    "http.self_ms.p50", "restapi.self_ms.p50", "sharding.self_ms.p50",
    "replication.self_ms.p50", "resilience.self_ms.p50", "status.self_ms.p50",
    "gateway.table_ms.p50", "scheduler.queue_wait_ms.p50", "scheduler.queue_wait_ms.p95",
    "datastore.store_dataset_ms.p50",
})

#: Per-layer metric name -> unit, in report order.
UNITS = {f"{layer}.self_ms.p50": "ms" for layer in LAYERS}
UNITS.update({
    "gateway.table_ms.p50": "ms",
    "scheduler.queue_wait_ms.p50": "ms",
    "scheduler.queue_wait_ms.p95": "ms",
    "cache.get_ms.p50": "ms",
    "cache.hit_ratio": "ratio",
    "cache.lookups": "count",
    "cache.invalidations": "count",
    "datastore.fetch_ms.p50": "ms",
    "datastore.fetches_per_op": "count/op",
    "datastore.version_polls_per_fetch": "count",
    "datastore.store_dataset_ms.p50": "ms",
    "datastore.put_result_ms.p50": "ms",
    "datastore.retained_results": "count",
    "datastore.result_bytes_per_op": "B/op",
    "datastore.append_log_per_op": "count/op",
    "executor.batch_ms.p50": "ms",
    "executor.queries_per_batch": "count",
    "executor.busy_share": "ratio",
    "algorithms.kernel_ms.p50": "ms",
    "algorithms.kernel_share": "ratio",
    "jobs.events_per_op": "count/op",
    "telemetry.spans_per_op": "count/op",
    "ledger.traced_latency_p50_ms": "ms",
    "ledger.unattributed_ms.p50": "ms",
    "ledger.attributed_share": "ratio",
    "ledger.trace_overhead_ratio": "ratio",
})
#: The per-layer metrics of the result line (``BENCHMARK.json``'s per_layer).
PER_LAYER = [name for name in UNITS if name not in WORKLOAD_SPECIFIC]


def _p(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def reduce(
    ops: List[OpContext],
    timed: List[OpContext],
    *,
    wall_seconds: float,
    workers: int,
    untraced_p50_ms: float,
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-layer metrics of ``ops`` (each with its end-to-end interval).

    Counts and per-call timings cover every op; per-op self times and the
    ledger cover the ``timed`` subset, the ops whose latency the end-to-end
    metrics report (reads only on ``replicated-churn``).  Returns the
    metrics and the sample count behind each.
    """
    count = len(ops)
    e2e_ms = [(op.end - op.start) * 1000.0 for op in timed]
    counts: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}
    for op in ops:
        for name, value in op.counts.items():
            counts[name] = counts.get(name, 0) + value
        for name, values in op.samples.items():
            samples.setdefault(name, []).extend(values)

    def ms(name: str, q: float = 50) -> float:
        return _p([value * 1000.0 for value in samples.get(name, [])], q)

    metrics = {
        f"{layer}.self_ms.p50": _p([op.self_s.get(layer, 0.0) * 1000.0 for op in timed], 50)
        for layer in LAYERS
    }
    attributed_ms = [sum(op.self_s.values()) * 1000.0 for op in timed]
    fetches = counts.get("datastore.fetches", 0)
    puts = counts.get("datastore.put_results", 0)
    result_bytes = samples.get("datastore.result_bytes", [])
    batch_seconds = sum(samples.get("executor.batch", []))
    metrics.update({
        "gateway.table_ms.p50": ms("gateway.table"),
        "scheduler.queue_wait_ms.p50": ms("scheduler.queue_wait"),
        "scheduler.queue_wait_ms.p95": ms("scheduler.queue_wait", 95),
        "cache.get_ms.p50": ms("cache.get"),
        "cache.hit_ratio": _ratio(counts.get("cache.hits", 0), counts.get("cache.lookups", 0)),
        "cache.lookups": float(counts.get("cache.lookups", 0)),
        "cache.invalidations": float(counts.get("cache.invalidations", 0)),
        "datastore.fetch_ms.p50": ms("datastore.fetch"),
        "datastore.fetches_per_op": _ratio(fetches, count),
        "datastore.version_polls_per_fetch": _ratio(
            counts.get("datastore.version_polls", 0), fetches
        ),
        "datastore.store_dataset_ms.p50": ms("datastore.store_dataset"),
        "datastore.put_result_ms.p50": ms("datastore.put_result"),
        "datastore.retained_results": float(puts),
        "datastore.result_bytes_per_op": _ratio(
            float(np.mean(result_bytes)) * puts if result_bytes else 0.0, count
        ),
        "datastore.append_log_per_op": _ratio(counts.get("datastore.append_logs", 0), count),
        "executor.batch_ms.p50": ms("executor.batch"),
        "executor.queries_per_batch": float(np.mean(samples["executor.batch_queries"]))
        if samples.get("executor.batch_queries") else 0.0,
        "executor.busy_share": _ratio(batch_seconds, wall_seconds * workers),
        "algorithms.kernel_ms.p50": ms("algorithms.kernel"),
        "algorithms.kernel_share": _ratio(
            sum(samples.get("algorithms.kernel", [])) * 1000.0, sum(e2e_ms)
        ),
        "jobs.events_per_op": _ratio(counts.get("jobs.events", 0), count),
        "telemetry.spans_per_op": _ratio(counts.get("telemetry.spans", 0), count),
        "ledger.traced_latency_p50_ms": _p(e2e_ms, 50),
        "ledger.unattributed_ms.p50": _p(
            [total - attributed for total, attributed in zip(e2e_ms, attributed_ms)], 50
        ),
        "ledger.attributed_share": _ratio(sum(attributed_ms), sum(e2e_ms)),
        "ledger.trace_overhead_ratio": _ratio(_p(e2e_ms, 50), untraced_p50_ms),
    })
    # Sample count behind each metric, for the report.
    bases = {name: len(timed) for name in metrics}
    bases.update({name: count for name in metrics if name.endswith("_per_op")})
    for name, sample in (
        ("gateway.table_ms.p50", "gateway.table"),
        ("scheduler.queue_wait_ms.p50", "scheduler.queue_wait"),
        ("scheduler.queue_wait_ms.p95", "scheduler.queue_wait"),
        ("cache.get_ms.p50", "cache.get"),
        ("datastore.fetch_ms.p50", "datastore.fetch"),
        ("datastore.store_dataset_ms.p50", "datastore.store_dataset"),
        ("datastore.put_result_ms.p50", "datastore.put_result"),
        ("executor.batch_ms.p50", "executor.batch"),
        ("executor.queries_per_batch", "executor.batch"),
        ("algorithms.kernel_ms.p50", "algorithms.kernel"),
    ):
        bases[name] = len(samples.get(sample, []))
    bases["cache.hit_ratio"] = int(counts.get("cache.lookups", 0))
    bases["datastore.version_polls_per_fetch"] = int(fetches)
    return metrics, bases


def match_requests(records: List[dict], calls: List[List[tuple]]) -> List[OpContext]:
    """Fold server-side request contexts into the client ops they belong to.

    ``records`` are serialised REST request contexts; ``calls`` holds, per
    client op, the ``(start, end)`` of each HTTP call it made, on the same
    monotonic clock.  A request belongs to the call whose interval contains
    its start.  Each call is a client span: its duration minus the server's
    request span is the ``http`` layer's self time (client library, socket,
    and the server's accept and dispatch before the handler runs).
    """
    records = sorted(records, key=lambda record: record["start"])
    ops = []
    cursor = 0
    for op_calls in calls:
        mine = []
        http_s = 0.0
        for start, end in op_calls:
            while cursor < len(records) and records[cursor]["start"] < start:
                cursor += 1
            served = 0.0
            while cursor < len(records) and records[cursor]["start"] <= end:
                served += records[cursor]["end"] - records[cursor]["start"]
                mine.append(records[cursor])
                cursor += 1
            http_s += (end - start) - served
        op = OpContext.merged(mine, op_calls[0][0], op_calls[-1][1])
        op.self_s["http"] += http_s
        ops.append(op)
    return ops
