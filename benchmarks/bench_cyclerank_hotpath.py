"""CycleRank hot path: seed vs CSR-native, single vs batched.

Times the three ways of answering the same 16-reference CycleRank workload
(K=3) on a heavy-tailed generated graph:

* ``seed``   — the dict-based enumeration looped per reference (the
  pre-CSR implementation, kept as
  :func:`~repro.algorithms.cycle_enumeration.enumerate_cycles_through_dict`);
* ``single`` — the CSR-native :func:`~repro.algorithms.cyclerank.cyclerank`
  looped per reference;
* ``batch``  — one :func:`~repro.algorithms.cyclerank.cyclerank_batch` call
  sharing the compiled structures across the whole batch.

A second section measures the ``K >= 5`` regime, where the closed-form
counting kernel (``K <= 4``) does not apply and the engine's bounded-BFS
prunings carry the cost: seed walk vs engine, and the engine with the NumPy
frontier-gather BFS against the per-node walk (isolating the gather's delta).

The measured trajectories are written to
``benchmarks/output/BENCH_cyclerank.json`` and
``BENCH_cyclerank_deep_k.json`` as a perf baseline to diff against.  Set
``REPRO_BENCH_NODES`` to shrink the graph (the CI smoke run uses 1000).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.algorithms.cyclerank import cyclerank, cyclerank_batch, cyclerank_reference
from repro.graph.generators import preferential_attachment_graph
from repro.version import __version__

from _harness import write_report

NUM_NODES = int(os.environ.get("REPRO_BENCH_NODES", "5000"))
NUM_REFERENCES = 16
K = 3
ROUNDS = 3
#: The deep-K section runs fewer references: the seed baseline's cost grows
#: steeply with K and the point is the engine-vs-seed (and frontier-gather
#: on/off) delta, not a long wait.
K_DEEP = 5
NUM_REFERENCES_DEEP = 8


@pytest.fixture(scope="module")
def hotpath_graph():
    return preferential_attachment_graph(
        NUM_NODES, out_degree=10, reciprocation_probability=0.5, seed=11,
        name=f"cyclerank-hotpath-{NUM_NODES}",
    )


@pytest.fixture(scope="module")
def hub_references(hotpath_graph):
    in_degrees = np.asarray(hotpath_graph.in_degrees())
    return [int(node) for node in np.argsort(in_degrees)[::-1][:NUM_REFERENCES]]


@pytest.fixture(scope="module")
def deep_k_graph():
    """The pruning-bound graph of the deep-K section: sparse reciprocation.

    With reciprocation at 2% the K-hop neighbourhood of a node is large but
    short round trips are rare, so the bounded-BFS prunings — not the DFS
    enumeration — carry the cost, which is the regime the frontier gather
    accelerates.
    """
    return preferential_attachment_graph(
        2 * NUM_NODES, out_degree=10, reciprocation_probability=0.02, seed=11,
        name=f"cyclerank-deep-k-{2 * NUM_NODES}",
    )


@pytest.fixture(scope="module")
def median_references(deep_k_graph):
    """Mid-degree references (hub-rooted searches are enumeration-bound)."""
    in_degrees = np.asarray(deep_k_graph.in_degrees())
    order = np.argsort(in_degrees)[::-1]
    middle = len(order) // 2
    return [int(node) for node in order[middle : middle + NUM_REFERENCES_DEEP]]


def _best_of(rounds, body):
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        result = body()
        times.append(time.perf_counter() - started)
    return min(times), times, result


@pytest.mark.benchmark(group="cyclerank-hotpath")
def test_bench_cyclerank_hotpath_trajectory(hotpath_graph, hub_references):
    """Measure the three configurations and write BENCH_cyclerank.json."""
    graph, references = hotpath_graph, hub_references
    cyclerank_batch(graph, references[:1])  # warm-up

    seed_best, seed_rounds, seed_rankings = _best_of(
        ROUNDS,
        lambda: [cyclerank_reference(graph, r, max_cycle_length=K) for r in references],
    )
    single_best, single_rounds, single_rankings = _best_of(
        ROUNDS, lambda: [cyclerank(graph, r, max_cycle_length=K) for r in references]
    )
    batch_best, batch_rounds, batch_rankings = _best_of(
        ROUNDS, lambda: cyclerank_batch(graph, references, max_cycle_length=K)
    )

    # Correctness before timing claims: batched == single bit for bit, and
    # both agree with the seed scores to rounding.
    for single_ranking, batch_ranking in zip(single_rankings, batch_rankings):
        assert np.array_equal(single_ranking.scores, batch_ranking.scores)
    for seed_ranking, batch_ranking in zip(seed_rankings, batch_rankings):
        assert np.allclose(seed_ranking.scores, batch_ranking.scores, rtol=1e-12, atol=0)

    payload = {
        "benchmark": "cyclerank-hotpath",
        "version": __version__,
        "graph": {
            "generator": "preferential_attachment_graph",
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
        },
        "workload": {
            "references": NUM_REFERENCES,
            "reference_selection": "top in-degree (hubs)",
            "k": K,
            "sigma": "exp",
            "rounds": ROUNDS,
        },
        "seconds": {
            "seed_per_reference_loop": seed_best,
            "csr_single_loop": single_best,
            "csr_batch": batch_best,
        },
        "rounds_seconds": {
            "seed_per_reference_loop": seed_rounds,
            "csr_single_loop": single_rounds,
            "csr_batch": batch_rounds,
        },
        "speedups_vs_seed": {
            "csr_single_loop": seed_best / single_best if single_best else None,
            "csr_batch": seed_best / batch_best if batch_best else None,
        },
    }
    path = write_report("BENCH_cyclerank.json", json.dumps(payload, indent=2))
    assert path.exists()
    # The trajectory is informational only: this module also runs as a CI
    # smoke step on shared runners, where wall-clock ratios are meaningless.
    # The hard ratio gates live in tests/test_cyclerank_batch.py, which
    # skips them when CI=true.


@pytest.mark.benchmark(group="cyclerank-hotpath")
def test_bench_cyclerank_deep_k_frontier_gather(deep_k_graph, median_references):
    """Measure the K>=5 engine path and the NumPy frontier-gather delta.

    ``K <= 4`` is answered by the closed-form counting kernel, so the
    bounded-BFS prunings only matter from ``K = 5`` up.  This section times
    the seed dict walk against the engine, and the engine against itself
    with the frontier gather disabled (``FRONTIER_GATHER_MIN`` pushed above
    any frontier size), isolating what the concatenate-and-mask level
    expansion buys on the pruning-bound deep-K workload (mid-degree
    references; hub-rooted searches are enumeration-bound instead and gain
    from the engine itself, not the BFS).  Written to
    ``BENCH_cyclerank_deep_k.json`` next to the K=3 trajectory.
    """
    import repro.algorithms.cycle_enumeration as cycle_enumeration

    graph = deep_k_graph
    references = median_references
    cyclerank_batch(graph, references[:1], max_cycle_length=K_DEEP)  # warm-up

    seed_best, _, seed_rankings = _best_of(
        ROUNDS,
        lambda: [
            cyclerank_reference(graph, r, max_cycle_length=K_DEEP) for r in references
        ],
    )
    gather_best, _, gather_rankings = _best_of(
        ROUNDS, lambda: cyclerank_batch(graph, references, max_cycle_length=K_DEEP)
    )
    threshold = cycle_enumeration.FRONTIER_GATHER_MIN
    cycle_enumeration.FRONTIER_GATHER_MIN = 1 << 60  # per-node walk on every level
    try:
        walk_best, _, walk_rankings = _best_of(
            ROUNDS, lambda: cyclerank_batch(graph, references, max_cycle_length=K_DEEP)
        )
    finally:
        cycle_enumeration.FRONTIER_GATHER_MIN = threshold

    # The gather must change timings only: identical scores either way, and
    # both agree with the seed walk to rounding.
    for gather_ranking, walk_ranking in zip(gather_rankings, walk_rankings):
        assert np.array_equal(gather_ranking.scores, walk_ranking.scores)
    for seed_ranking, gather_ranking in zip(seed_rankings, gather_rankings):
        assert np.allclose(seed_ranking.scores, gather_ranking.scores, rtol=1e-12, atol=0)

    payload = {
        "benchmark": "cyclerank-hotpath-deep-k",
        "version": __version__,
        "graph": {
            "generator": "preferential_attachment_graph",
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
        },
        "workload": {
            "references": NUM_REFERENCES_DEEP,
            "reference_selection": "median in-degree (pruning-bound)",
            "k": K_DEEP,
            "sigma": "exp",
            "rounds": ROUNDS,
            "frontier_gather_min": threshold,
        },
        "seconds": {
            "seed_per_reference_loop": seed_best,
            "csr_batch_frontier_gather": gather_best,
            "csr_batch_per_node_walk": walk_best,
        },
        "speedups": {
            "engine_vs_seed": seed_best / gather_best if gather_best else None,
            "frontier_gather_vs_walk": walk_best / gather_best if gather_best else None,
        },
    }
    path = write_report("BENCH_cyclerank_deep_k.json", json.dumps(payload, indent=2))
    assert path.exists()
