"""Gateway serving throughput: blocking vs non-blocking submission.

The serving-layer trajectory for the event-driven job refactor: a mixed
hot/cold comparison workload (repeat sources hit the platform result cache,
fresh sources force batched executions) is pushed through the gateway twice —

* ``blocking``      — the seed request path: every comparison submitted with
  ``synchronous=True``, the caller pinned for the full run;
* ``non_blocking``  — the job path: every comparison submitted with
  ``synchronous=False`` (the id returns immediately), then awaited through
  the event cursor (``wait_for``).

The point of the non-blocking path is *latency decoupling*, not raw
throughput: submission cost must not scale with comparison cost.  The
measured trajectories (per-submission latency percentiles, end-to-end wall
clock, comparisons/second) are written to
``benchmarks/output/BENCH_gateway_throughput.json`` so future serving-layer
PRs have a baseline to diff against.  Set ``REPRO_BENCH_NODES`` to shrink
the graph (the CI smoke run uses 1000).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.datasets.catalog import DatasetCatalog
from repro.graph.generators import preferential_attachment_graph
from repro.platform.gateway import ApiGateway
from repro.version import __version__

from _harness import write_report

NUM_NODES = int(os.environ.get("REPRO_BENCH_NODES", "5000"))
NUM_COMPARISONS = 12
QUERIES_PER_COMPARISON = 4
NUM_WORKERS = 4
#: Fraction of comparisons whose sources repeat an earlier comparison's
#: (served from the result cache — the "hot" half of the mixed workload).
HOT_EVERY = 2


def _labelled_bench_graph():
    graph = preferential_attachment_graph(
        NUM_NODES, out_degree=6, reciprocation_probability=0.3, seed=7,
        name=f"gateway-bench-{NUM_NODES}",
    )
    # Generated nodes are unlabelled; personalized queries address their
    # sources by label, so give every node a resolvable one.
    for node in range(graph.number_of_nodes()):
        graph.set_label(node, f"n{node}")
    return graph


@pytest.fixture(scope="module")
def bench_graph():
    return _labelled_bench_graph()


def _workload(graph):
    """Build the mixed hot/cold comparison payloads (deterministic)."""
    in_degrees = np.asarray(graph.in_degrees())
    hubs = [int(node) for node in np.argsort(in_degrees)[::-1]]
    comparisons = []
    for index in range(NUM_COMPARISONS):
        if index % HOT_EVERY == 1:
            # Hot: repeat the previous comparison's sources verbatim.
            comparisons.append(list(comparisons[-1]))
            continue
        base = (index // HOT_EVERY) * QUERIES_PER_COMPARISON
        sources = hubs[base : base + QUERIES_PER_COMPARISON]
        comparisons.append(
            [
                {
                    "dataset_id": "bench",
                    "algorithm": "personalized-pagerank",
                    "source": graph.label_of(source),
                }
                for source in sources
            ]
        )
    return comparisons


def _fresh_gateway(graph):
    catalog = DatasetCatalog()
    catalog.register_graph("bench", graph, description="gateway throughput bench")
    return ApiGateway(catalog=catalog, num_workers=NUM_WORKERS)


def _run_blocking(graph, comparisons):
    with _fresh_gateway(graph) as gateway:
        # Warm the dataset/artifact so both paths measure serving, not the
        # first-use materialisation.
        gateway.run_queries(
            [{"dataset_id": "bench", "algorithm": "pagerank"}], synchronous=True
        )
        submit_seconds = []
        began = time.perf_counter()
        ids = []
        for queries in comparisons:
            started = time.perf_counter()
            ids.append(gateway.run_queries(queries, synchronous=True))
            submit_seconds.append(time.perf_counter() - started)
        wall = time.perf_counter() - began
        rankings = [gateway.get_rankings(comparison_id) for comparison_id in ids]
    return submit_seconds, wall, rankings


def _run_non_blocking(graph, comparisons):
    with _fresh_gateway(graph) as gateway:
        gateway.run_queries(
            [{"dataset_id": "bench", "algorithm": "pagerank"}], synchronous=True
        )
        # Warm the asynchronous machinery too (pool threads, job registry),
        # so the timed submissions measure steady-state dispatch.
        warmup = gateway.run_queries(
            [{"dataset_id": "bench", "algorithm": "cheirank"}], synchronous=False
        )
        gateway.wait_for(warmup, timeout_seconds=600.0)
        submit_seconds = []
        began = time.perf_counter()
        ids = []
        for queries in comparisons:
            started = time.perf_counter()
            ids.append(gateway.run_queries(queries, synchronous=False))
            submit_seconds.append(time.perf_counter() - started)
        for comparison_id in ids:
            gateway.wait_for(comparison_id, timeout_seconds=600.0)
        wall = time.perf_counter() - began
        rankings = [gateway.get_rankings(comparison_id) for comparison_id in ids]
    return submit_seconds, wall, rankings


def _summary(seconds):
    ordered = sorted(seconds)
    return {
        "mean": float(np.mean(ordered)),
        "p50": float(ordered[len(ordered) // 2]),
        "max": float(ordered[-1]),
        "total": float(np.sum(ordered)),
    }


@pytest.mark.benchmark(group="gateway-throughput")
def test_bench_gateway_throughput_trajectory(bench_graph):
    """Measure both request paths and write BENCH_gateway_throughput.json."""
    comparisons = _workload(bench_graph)
    blocking_submits, blocking_wall, blocking_rankings = _run_blocking(
        bench_graph, comparisons
    )
    nonblocking_submits, nonblocking_wall, nonblocking_rankings = _run_non_blocking(
        bench_graph, comparisons
    )

    # Correctness before timing claims: the two request paths must produce
    # bit-identical rankings for every comparison of the workload.
    assert len(blocking_rankings) == len(nonblocking_rankings) == NUM_COMPARISONS
    for blocking, nonblocking in zip(blocking_rankings, nonblocking_rankings):
        assert len(blocking) == len(nonblocking) == QUERIES_PER_COMPARISON
        for blocking_ranking, nonblocking_ranking in zip(blocking, nonblocking):
            assert np.array_equal(blocking_ranking.scores, nonblocking_ranking.scores)

    # The structural guarantee of the job path (robust even on shared CI
    # runners and on the shrunken smoke graph): submission latency is
    # decoupled from comparison cost — the *median* non-blocking submission
    # returns faster than the *average* blocking one, which pays for its
    # comparison inline.  The worst case is recorded in the trajectory.
    nonblocking_p50 = sorted(nonblocking_submits)[len(nonblocking_submits) // 2]
    assert nonblocking_p50 < float(np.mean(blocking_submits)), (
        f"non-blocking submission is not decoupled from comparison cost "
        f"(p50 submit {nonblocking_p50:.4f}s vs blocking mean "
        f"{float(np.mean(blocking_submits)):.4f}s)"
    )

    payload = {
        "benchmark": "gateway-throughput",
        "version": __version__,
        "graph": {
            "generator": "preferential_attachment_graph",
            "nodes": bench_graph.number_of_nodes(),
            "edges": bench_graph.number_of_edges(),
        },
        "workload": {
            "comparisons": NUM_COMPARISONS,
            "queries_per_comparison": QUERIES_PER_COMPARISON,
            "hot_fraction": 1.0 / HOT_EVERY,
            "algorithm": "personalized-pagerank",
            "workers": NUM_WORKERS,
        },
        "blocking": {
            "submit_seconds": _summary(blocking_submits),
            "wall_seconds": blocking_wall,
            "comparisons_per_second": NUM_COMPARISONS / blocking_wall,
        },
        "non_blocking": {
            "submit_seconds": _summary(nonblocking_submits),
            "wall_seconds": nonblocking_wall,
            "comparisons_per_second": NUM_COMPARISONS / nonblocking_wall,
        },
        "submit_latency_decoupling": {
            "blocking_mean_over_nonblocking_max": (
                float(np.mean(blocking_submits)) / max(nonblocking_submits)
                if max(nonblocking_submits)
                else None
            ),
        },
    }
    path = write_report("BENCH_gateway_throughput.json", json.dumps(payload, indent=2))
    assert path.exists()

