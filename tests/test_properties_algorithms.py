"""Hypothesis property tests for the relevance algorithms (DESIGN.md §5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.cheirank import cheirank
from repro.algorithms.cycle_enumeration import enumerate_cycles_through
from repro.algorithms.cyclerank import cyclerank
from repro.algorithms.pagerank import pagerank
from repro.algorithms.personalized_pagerank import personalized_pagerank
from repro.algorithms.registry import (
    available_algorithms,
    get_algorithm,
    run_algorithm,
    run_batch,
)
from repro.algorithms.twodrank import twodrank, two_dimensional_order
from repro.graph.components import strongly_connected_component_of
from repro.graph.digraph import DirectedGraph


@st.composite
def graphs_with_reference(draw, max_nodes: int = 10, max_edges: int = 35):
    """Strategy: a small labelled directed graph plus a reference node in it."""
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_nodes - 1),
                st.integers(min_value=0, max_value=num_nodes - 1),
            ).filter(lambda pair: pair[0] != pair[1]),
            max_size=max_edges,
        )
    )
    graph = DirectedGraph(name="hypothesis")
    for node in range(num_nodes):
        graph.add_node(f"node-{node}")
    graph.add_edges_from(edges)
    reference = draw(st.integers(min_value=0, max_value=num_nodes - 1))
    return graph, reference


@st.composite
def alphas(draw):
    return draw(st.floats(min_value=0.0, max_value=0.95, allow_nan=False))


class TestPageRankFamilyInvariants:
    @given(graphs_with_reference(), alphas())
    @settings(max_examples=40, deadline=None)
    def test_pagerank_is_a_distribution(self, graph_and_reference, alpha):
        graph, _ = graph_and_reference
        ranking = pagerank(graph, alpha=alpha)
        assert np.all(ranking.scores >= 0)
        assert ranking.total() == np.float64(1.0) or abs(ranking.total() - 1.0) < 1e-8

    @given(graphs_with_reference(), alphas())
    @settings(max_examples=40, deadline=None)
    def test_ppr_is_a_distribution(self, graph_and_reference, alpha):
        graph, reference = graph_and_reference
        ranking = personalized_pagerank(graph, reference, alpha=alpha)
        assert np.all(ranking.scores >= 0)
        assert abs(ranking.total() - 1.0) < 1e-8

    @given(graphs_with_reference(), alphas())
    @settings(max_examples=40, deadline=None)
    def test_cheirank_equals_pagerank_of_transpose(self, graph_and_reference, alpha):
        graph, _ = graph_and_reference
        chei = cheirank(graph, alpha=alpha)
        pr_of_transpose = pagerank(graph.transpose(), alpha=alpha)
        assert np.allclose(chei.scores, pr_of_transpose.scores, atol=1e-9)

    @given(graphs_with_reference())
    @settings(max_examples=30, deadline=None)
    def test_twodrank_is_a_permutation(self, graph_and_reference):
        graph, _ = graph_and_reference
        ranking = twodrank(graph, alpha=0.85)
        assert sorted(ranking.ordered_nodes()) == list(graph.nodes())
        order = two_dimensional_order(pagerank(graph), cheirank(graph))
        assert sorted(order) == list(graph.nodes())


class TestCycleRankInvariants:
    @given(graphs_with_reference(), st.integers(min_value=2, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_reference_has_maximum_score(self, graph_and_reference, k):
        graph, reference = graph_and_reference
        ranking = cyclerank(graph, reference, max_cycle_length=k)
        assert ranking.score_of(reference) == max(ranking.scores)

    @given(graphs_with_reference(), st.integers(min_value=2, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_scores_non_negative_and_zero_outside_scc(self, graph_and_reference, k):
        graph, reference = graph_and_reference
        ranking = cyclerank(graph, reference, max_cycle_length=k)
        assert np.all(ranking.scores >= 0)
        scc = strongly_connected_component_of(graph, reference)
        for node in graph.nodes():
            if node not in scc:
                assert ranking.score_of(node) == 0.0

    @given(graphs_with_reference(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_scores_monotone_in_k(self, graph_and_reference, k):
        graph, reference = graph_and_reference
        smaller = cyclerank(graph, reference, max_cycle_length=k)
        larger = cyclerank(graph, reference, max_cycle_length=k + 1)
        assert np.all(larger.scores >= smaller.scores - 1e-12)

    @given(graphs_with_reference(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_positive_score_iff_on_some_cycle(self, graph_and_reference, k):
        graph, reference = graph_and_reference
        ranking = cyclerank(graph, reference, max_cycle_length=k)
        on_cycle = set()
        for cycle in enumerate_cycles_through(graph, reference, k):
            on_cycle.update(cycle)
        for node in graph.nodes():
            assert (ranking.score_of(node) > 0) == (node in on_cycle)

    @given(graphs_with_reference(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_enumerated_cycles_are_simple_and_valid(self, graph_and_reference, k):
        graph, reference = graph_and_reference
        seen = set()
        for cycle in enumerate_cycles_through(graph, reference, k):
            assert 2 <= len(cycle) <= k
            assert cycle[0] == reference
            assert len(set(cycle)) == len(cycle)
            assert cycle not in seen
            seen.add(cycle)
            for first, second in zip(cycle, cycle[1:]):
                assert graph.has_edge(first, second)
            assert graph.has_edge(cycle[-1], reference)

    @given(graphs_with_reference())
    @settings(max_examples=30, deadline=None)
    def test_cyclerank_symmetric_under_relabelling_of_k2(self, graph_and_reference):
        # With K=2 the score of every non-reference node is sigma(2) times the
        # indicator of a reciprocated edge with the reference.
        graph, reference = graph_and_reference
        ranking = cyclerank(graph, reference, max_cycle_length=2, scoring="const")
        for node in graph.nodes():
            if node == reference:
                continue
            reciprocated = graph.has_edge(reference, node) and graph.has_edge(node, reference)
            assert ranking.score_of(node) == (1.0 if reciprocated else 0.0)


@st.composite
def graphs_with_seed_sets(draw, max_nodes: int = 10, max_edges: int = 30, max_seeds: int = 4):
    """Strategy: a small labelled directed graph plus 1..max_seeds seed labels.

    Seeds may repeat, exercising the scheduler-style deduplicated workload.
    """
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_nodes - 1),
                st.integers(min_value=0, max_value=num_nodes - 1),
            ).filter(lambda pair: pair[0] != pair[1]),
            max_size=max_edges,
        )
    )
    graph = DirectedGraph(name="hypothesis-batch")
    for node in range(num_nodes):
        graph.add_node(f"node-{node}")
    graph.add_edges_from(edges)
    seeds = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_nodes - 1),
            min_size=1,
            max_size=max_seeds,
        )
    )
    return graph, [f"node-{seed}" for seed in seeds]


#: Cheap parameter overrides so the batched property sweep stays fast.
_BATCH_TEST_PARAMETERS = {
    "ppr-montecarlo": {"num_walks": 200},
    "hits": {"max_iter": 2000},
    "personalized-hits": {"max_iter": 2000},
}


class TestRunBatchMatchesSingleRuns:
    """`run_batch` must be observationally equivalent to per-seed `run` calls."""

    @pytest.mark.parametrize("name", available_algorithms())
    @given(graph_and_seeds=graphs_with_seed_sets())
    @settings(max_examples=10, deadline=None)
    def test_batch_equals_singles(self, name, graph_and_seeds):
        graph, seeds = graph_and_seeds
        algorithm = get_algorithm(name)
        parameters = _BATCH_TEST_PARAMETERS.get(name)
        sources = seeds if algorithm.is_personalized else [None] * len(seeds)
        batched = run_batch(name, graph, sources=sources, parameters=parameters)
        assert len(batched) == len(sources)
        for source, batch_ranking in zip(sources, batched):
            single = algorithm.run(graph, source=source, parameters=parameters)
            assert batch_ranking.algorithm == single.algorithm
            assert batch_ranking.reference == single.reference
            if name in ("2drank", "personalized-2drank"):
                # 2DRank encodes only an ordering; compare it directly.
                assert batch_ranking.ordered_nodes() == single.ordered_nodes()
            else:
                assert np.allclose(
                    batch_ranking.scores, single.scores, atol=1e-6
                ), f"batch diverges from single run for {name} (source={source!r})"

    @pytest.mark.parametrize("name", available_algorithms(personalized=True))
    def test_empty_batch_returns_empty_list(self, name):
        graph = DirectedGraph(name="empty-batch")
        graph.add_node("only")
        assert run_batch(name, graph, sources=[]) == []


class TestBatchInvariance:
    """A query's ranking must not depend on what it was batched with.

    The scheduler batches only a group's cache misses, so the batch a query
    rides in depends on the cache.  Column ``j`` of ``run_batch(S)`` must
    equal ``run_batch([s_j])`` and ``run_algorithm(s_j)`` bit for bit,
    iteration counts included; a global algorithm runs as a batch of one.
    The random graphs routinely contain dangling nodes.
    """

    @pytest.mark.parametrize("name", available_algorithms())
    @given(graph_and_seeds=graphs_with_seed_sets())
    @settings(max_examples=15, deadline=None)
    def test_rankings_do_not_depend_on_the_batch(self, name, graph_and_seeds):
        graph, seeds = graph_and_seeds
        parameters = _BATCH_TEST_PARAMETERS.get(name)
        sources = seeds if get_algorithm(name).is_personalized else [None]
        batched = run_batch(name, graph, sources=sources, parameters=parameters)
        for source, batch_ranking in zip(sources, batched):
            alone = run_batch(name, graph, sources=[source], parameters=parameters)[0]
            single = run_algorithm(name, graph, source=source, parameters=parameters)
            assert batch_ranking.to_dict() == alone.to_dict() == single.to_dict()


class TestCsrEnumerationMatchesDictReference:
    """The CSR-native engine must reproduce the seed dict-based enumeration."""

    @given(graphs_with_reference(), st.integers(min_value=2, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_same_cycles_in_the_same_order(self, graph_and_reference, k):
        from repro.algorithms.cycle_enumeration import enumerate_cycles_through_dict
        from repro.graph.compiled import compiled_of

        graph, reference = graph_and_reference
        # A warmed artifact routes through the CSR engine; a bare graph takes
        # the dictionary walk.  Both must produce the identical sequence.
        compiled = compiled_of(graph)
        compiled.to_csr()
        csr_native = list(enumerate_cycles_through(compiled, reference, k))
        bare_graph = list(enumerate_cycles_through(graph, reference, k))
        dict_based = list(enumerate_cycles_through_dict(graph, reference, k))
        assert csr_native == dict_based
        assert bare_graph == dict_based

    @given(graphs_with_reference(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_whole_graph_cycles_match_rooted_reference(self, graph_and_reference, k):
        from repro.algorithms.cycle_enumeration import (
            enumerate_cycles_through_dict,
            simple_cycles_up_to_length,
        )

        graph, _ = graph_and_reference
        # Reference enumeration: every rooted cycle whose minimum node is the
        # root, collected with the dict-based seed implementation.
        expected = set()
        for pivot in graph.nodes():
            for cycle in enumerate_cycles_through_dict(graph, pivot, k):
                if min(cycle) == pivot:
                    expected.add(cycle)
        assert set(simple_cycles_up_to_length(graph, k)) == expected


class TestBatchExactnessForPersonalizedKernels:
    """CycleRank/HITS/Katz batches must equal per-reference runs bit for bit."""

    @given(graphs_with_seed_sets())
    @settings(max_examples=15, deadline=None)
    def test_cyclerank_batch_is_bit_identical(self, graph_and_seeds):
        from repro.algorithms.cyclerank import cyclerank_batch

        graph, seeds = graph_and_seeds
        for k in (2, 3, 4):
            batched = cyclerank_batch(graph, seeds, max_cycle_length=k)
            for seed, batch_ranking in zip(seeds, batched):
                single = cyclerank(graph, seed, max_cycle_length=k)
                assert np.array_equal(batch_ranking.scores, single.scores)
                assert batch_ranking.ordered_nodes() == single.ordered_nodes()

    @given(graphs_with_seed_sets())
    @settings(max_examples=10, deadline=None)
    def test_personalized_hits_batch_is_bit_identical(self, graph_and_seeds):
        from repro.algorithms.hits import personalized_hits, personalized_hits_batch

        graph, seeds = graph_and_seeds
        batched = personalized_hits_batch(graph, seeds, max_iter=20000)
        for seed, batch_ranking in zip(seeds, batched):
            single = personalized_hits(graph, seed, max_iter=20000)
            assert np.array_equal(batch_ranking.scores, single.scores)
            assert batch_ranking.parameters["iterations"] == single.parameters["iterations"]

    @given(graphs_with_seed_sets())
    @settings(max_examples=10, deadline=None)
    def test_personalized_katz_batch_is_bit_identical(self, graph_and_seeds):
        from repro.algorithms.katz import personalized_katz, personalized_katz_batch

        graph, seeds = graph_and_seeds
        batched = personalized_katz_batch(graph, seeds, beta=0.01)
        for seed, batch_ranking in zip(seeds, batched):
            single = personalized_katz(graph, seed, beta=0.01)
            assert np.array_equal(batch_ranking.scores, single.scores)
            assert batch_ranking.parameters["iterations"] == single.parameters["iterations"]
