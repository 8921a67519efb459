"""Unit tests for :mod:`repro.algorithms.twodrank`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.cheirank import cheirank, personalized_cheirank
from repro.algorithms.pagerank import pagerank
from repro.algorithms.personalized_pagerank import personalized_pagerank
from repro.algorithms.twodrank import (
    _tie_aware_ranks,
    personalized_twodrank,
    personalized_twodrank_batch,
    twodrank,
    two_dimensional_order,
)
from repro.graph.digraph import DirectedGraph
from repro.graph.generators import star_graph
from repro.ranking.result import Ranking


def _square_scan_oracle(pagerank_ranking, cheirank_ranking):
    """The square-scanning rule node by node, as a plain loop."""
    pagerank_ranks = _tie_aware_ranks(pagerank_ranking).tolist()
    cheirank_ranks = _tie_aware_ranks(cheirank_ranking).tolist()
    entries = []
    for node, (k, k_star) in enumerate(zip(pagerank_ranks, cheirank_ranks)):
        r = max(k, k_star)
        if k == r and k_star == r:
            side, offset = 2, 0  # the corner of the square enters last
        elif k == r:
            side, offset = 0, k_star  # vertical side, scanned by increasing K*
        else:
            side, offset = 1, k  # horizontal side, scanned by increasing K
        entries.append((r, side, offset, node))
    return [node for _, _, _, node in sorted(entries)]


class TestTwoDimensionalOrder:
    def test_order_is_a_permutation(self, community_graph):
        pr = pagerank(community_graph)
        chei = cheirank(community_graph)
        order = two_dimensional_order(pr, chei)
        assert sorted(order) == list(range(len(pr)))

    def test_node_best_in_both_dimensions_comes_first(self):
        # A node that both receives and emits many links dominates both
        # rankings, hence the 2DRank order.
        graph = DirectedGraph()
        for leaf in ["A", "B", "C", "D"]:
            graph.add_edge("center", leaf)
            graph.add_edge(leaf, "center")
        graph.add_edge("A", "B")
        pr = pagerank(graph)
        chei = cheirank(graph)
        order = two_dimensional_order(pr, chei)
        assert graph.label_of(order[0]) == "center"

    def test_mismatched_rankings_rejected(self, triangle, community_graph):
        with pytest.raises(ValueError):
            two_dimensional_order(pagerank(triangle), cheirank(community_graph))

    def test_entry_order_follows_square_rule(self):
        # Build rankings by hand: node 0 has (K=1, K*=3), node 1 has (2, 2),
        # node 2 has (3, 1).  All enter at r = max(K, K*); ties broken by
        # vertical side first (K = r), then horizontal (K* = r).
        pr = Ranking([3.0, 2.0, 1.0], labels=["n0", "n1", "n2"])  # ranks 1, 2, 3
        chei = Ranking([1.0, 2.0, 3.0], labels=["n0", "n1", "n2"])  # ranks 3, 2, 1
        order = two_dimensional_order(pr, chei)
        # Node 1 enters at r=2 (corner), nodes 0 and 2 at r=3.
        assert order[0] == 1
        # At r=3: node 2 (K=3, the vertical side) precedes node 0 (K*=3).
        assert order[1:] == [2, 0]

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from("abc")),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_square_scan_loop(self, nodes):
        # Small integer scores and repeated labels exercise every tie rule.
        labels = [label for _, _, label in nodes]
        pr = Ranking([float(score) for score, _, _ in nodes], labels=labels)
        chei = Ranking([float(score) for _, score, _ in nodes], labels=labels)
        assert two_dimensional_order(pr, chei) == _square_scan_oracle(pr, chei)

    def test_ulp_split_ties_are_read_as_ties(self):
        # Nodes 0 and 1 tie exactly in theory; the sparse product can split
        # the tie by an ulp either way, which must not reorder.
        pr_tie, chei_tie = 0.2580536346790024, 0.2451509529451092
        labels = ["a", "b", "c"]
        for direction in (1.0, 0.0):
            pr = Ranking([pr_tie, np.nextafter(pr_tie, direction), 0.1], labels=labels)
            chei = Ranking(
                [chei_tie, np.nextafter(chei_tie, direction), 0.1], labels=labels
            )
            assert two_dimensional_order(pr, chei) == [0, 1, 2]

    def test_batched_and_single_personalized_runs_agree_on_ties(self):
        # Nodes 0 and 3 are symmetric here, so their scores can tie or split
        # by an ulp; a batch and a single run must still agree.
        graph = DirectedGraph()
        for node in range(4):
            graph.add_node(f"node-{node}")
        graph.add_edges_from(
            [(1, 3), (0, 3), (3, 2), (2, 0), (0, 1), (2, 1),
             (0, 2), (3, 0), (2, 3), (3, 1), (1, 0)]
        )
        [batched] = personalized_twodrank_batch(graph, ["node-1"])
        single = personalized_twodrank(graph, "node-1")
        assert batched.ordered_nodes() == single.ordered_nodes()


class TestTwoDRank:
    def test_produces_ranking_without_meaningful_scores(self, community_graph):
        ranking = twodrank(community_graph)
        assert ranking.algorithm == "2DRank"
        # Scores encode only the position (1/position), so they are a strictly
        # decreasing sequence over the ranking order.
        ordered_scores = [ranking.score_of(node) for node in ranking.ordered_nodes()]
        assert all(a > b for a, b in zip(ordered_scores, ordered_scores[1:]))

    def test_balances_in_and_out_importance(self):
        graph = star_graph(6, reciprocal=False)
        # Add a node that both points to the hub and is pointed at by a leaf,
        # making it decent in both dimensions.
        graph.add_edge(1, 0)
        ranking = twodrank(graph)
        assert len(ranking) == len(graph)

    def test_deterministic(self, community_graph):
        assert twodrank(community_graph).ordered_nodes() == twodrank(community_graph).ordered_nodes()


class TestPersonalizedTwoDRank:
    def test_reference_recorded_and_ranked_first(self, small_enwiki):
        ranking = personalized_twodrank(small_enwiki, "Freddie Mercury", alpha=0.3)
        assert ranking.algorithm == "Personalized 2DRank"
        assert ranking.reference == "Freddie Mercury"
        assert ranking.top_labels(1) == ["Freddie Mercury"]

    def test_consistent_with_component_rankings(self, mixed_graph):
        ranking = personalized_twodrank(mixed_graph, "X", alpha=0.6)
        ppr = personalized_pagerank(mixed_graph, "X", alpha=0.6)
        pchei = personalized_cheirank(mixed_graph, "X", alpha=0.6)
        order = two_dimensional_order(ppr, pchei)
        assert ranking.ordered_nodes() == order
