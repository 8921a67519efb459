"""Hypothesis property tests: closed-form CycleRank against the DFS oracle.

For ``K <= 4`` CycleRank counts cycles in closed form and never enumerates
them.  On random small digraphs *with* self-loops and reciprocal edges, the
per-node counts must equal the ones read off the enumerated cycles, and the
scores must be bit-identical to the enumeration path, whichever row source
(a compiled CSR artifact or a bare graph) the kernel reads.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.cycle_enumeration import CycleSearchEngine
from repro.algorithms.cyclerank import (
    CycleRankStatistics,
    _cycle_counts,
    _cycle_counts_short,
    _validate_cyclerank_parameters,
    _weighted_scores,
    cyclerank,
    cyclerank_batch,
)
from repro.graph.compiled import CompiledGraph, compiled_of
from repro.graph.digraph import DirectedGraph


@st.composite
def looped_graphs(draw, max_nodes: int = 12):
    """Strategy: a labelled random digraph, self-loops and reciprocal edges included.

    Every ordered pair (``u == v`` too) is an edge with the drawn density, so
    reciprocal pairs — the ``a = c`` walks the length-4 form subtracts — are
    common rather than rare.
    """
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    density = draw(st.sampled_from([0.15, 0.3, 0.6]))
    rng = draw(st.randoms(use_true_random=False))
    graph = DirectedGraph(name="looped")
    for index in range(num_nodes):
        graph.add_node(f"node-{index}")
    graph.add_edges_from(
        (source, target)
        for source in range(num_nodes)
        for target in range(num_nodes)
        if rng.random() < density
    )
    return graph


def _row_sources(graph):
    """The two row sources of the counting kernel: CSR artifact and bare graph."""
    warmed = CompiledGraph(graph)
    warmed.to_csr()
    return [warmed, graph]


def _oracle_counts(graph, root, k):
    """``{length: {node: count}}`` read off the enumerated cycles."""
    counts = {}
    for cycle in CycleSearchEngine.for_graph(graph).cycles_from(root, k):
        counts.setdefault(len(cycle), Counter()).update(cycle)
    return counts


@given(looped_graphs(), st.sampled_from([2, 3, 4]))
@settings(max_examples=60, deadline=None)
def test_closed_form_counts_equal_enumerated_counts(graph, k):
    for source in _row_sources(graph):
        for root in graph.nodes():
            oracle = _oracle_counts(graph, root, k)
            counts = _cycle_counts_short(compiled_of(source), root, k)
            assert sorted(counts) == sorted(oracle)
            for length, per_node in counts.items():
                assert per_node.dtype.kind == "i"
                nonzero = {node: int(count) for node, count in enumerate(per_node) if count}
                assert nonzero == dict(oracle[length])


@given(looped_graphs(), st.sampled_from([2, 3, 4]))
@settings(max_examples=60, deadline=None)
def test_scores_and_statistics_match_enumeration_bit_for_bit(graph, k):
    _, weights = _validate_cyclerank_parameters(k, "exp")
    num_nodes = graph.number_of_nodes()
    engine = CycleSearchEngine.for_graph(graph)
    for source in _row_sources(graph):
        singles = []
        for root in graph.nodes():
            cycles = list(engine.cycles_from(root, k))
            expected = _weighted_scores(_cycle_counts(cycles, num_nodes), weights, num_nodes)
            statistics = CycleRankStatistics()
            ranking = cyclerank(source, root, max_cycle_length=k, statistics=statistics)
            assert np.array_equal(ranking.scores, expected)
            singles.append(ranking)

            lengths = Counter(len(cycle) for cycle in cycles)
            assert statistics.cycles_by_length == dict(sorted(lengths.items()))
            assert statistics.total_cycles == len(cycles)
            assert statistics.nodes_on_cycles == len({n for cycle in cycles for n in cycle})

        batched = cyclerank_batch(source, list(graph.nodes()), max_cycle_length=k)
        for batch_ranking, single_ranking in zip(batched, singles):
            assert np.array_equal(batch_ranking.scores, single_ranking.scores)
            assert batch_ranking.ordered_nodes() == single_ranking.ordered_nodes()
