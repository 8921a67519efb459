"""Unit tests for :mod:`repro.algorithms.cyclerank`."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms.cyclerank import CycleRankStatistics, cyclerank
from repro.exceptions import InvalidParameterError, NodeNotFoundError
from repro.graph.components import strongly_connected_component_of
from repro.graph.digraph import DirectedGraph
from repro.graph.generators import complete_graph, cycle_graph, layered_dag
from repro.scoring import ConstantScoring, LinearScoring


class TestBasicProperties:
    def test_reference_node_has_maximum_score(self, two_triangles):
        ranking = cyclerank(two_triangles, "R", max_cycle_length=3)
        assert ranking.top_labels(1) == ["R"]
        assert ranking.score_of("R") == max(ranking.scores)

    def test_scores_are_non_negative(self, community_graph):
        ranking = cyclerank(community_graph, 0, max_cycle_length=3)
        assert all(score >= 0 for score in ranking.scores)

    def test_dag_gives_zero_to_everything(self):
        graph = layered_dag([3, 3, 3], seed=5)
        ranking = cyclerank(graph, 0, max_cycle_length=5)
        assert ranking.total() == 0.0

    def test_nodes_outside_reference_scc_score_zero(self, mixed_graph):
        ranking = cyclerank(mixed_graph, "X", max_cycle_length=4)
        scc = strongly_connected_component_of(mixed_graph, "X")
        for node in mixed_graph.nodes():
            if node not in scc:
                assert ranking.score_of(node) == 0.0

    def test_positive_score_means_node_on_cycle_with_reference(self, community_graph):
        ranking = cyclerank(community_graph, 0, max_cycle_length=3)
        scc = strongly_connected_component_of(community_graph, 0)
        for node in community_graph.nodes():
            if ranking.score_of(node) > 0:
                assert node in scc

    def test_triangle_scores_match_equation_one(self, triangle):
        # One cycle of length 3 through every node: each node scores e^-3.
        ranking = cyclerank(triangle, "A", max_cycle_length=3)
        for label in ["A", "B", "C"]:
            assert ranking.score_of(label) == pytest.approx(math.exp(-3))

    def test_reciprocal_star_hub_score(self, reciprocal_star):
        # The hub lies on five 2-cycles, each leaf on exactly one.
        ranking = cyclerank(reciprocal_star, "H", max_cycle_length=2)
        assert ranking.score_of("H") == pytest.approx(5 * math.exp(-2))
        for leaf in ["A", "B", "C", "D", "E"]:
            assert ranking.score_of(leaf) == pytest.approx(math.exp(-2))

    def test_complete_graph_scores_match_closed_form(self):
        # In K_4 with K=3: through the reference there are 3 two-cycles and
        # 6 three-cycles.  Reference score = 3e^-2 + 6e^-3; every other node
        # lies on 1 two-cycle and 4 three-cycles (2 per ordering) -> e^-2 + 4e^-3.
        graph = complete_graph(4)
        ranking = cyclerank(graph, 0, max_cycle_length=3)
        assert ranking.score_of(0) == pytest.approx(3 * math.exp(-2) + 6 * math.exp(-3))
        for node in range(1, 4):
            assert ranking.score_of(node) == pytest.approx(math.exp(-2) + 4 * math.exp(-3))

    @pytest.mark.parametrize("k", [4, 5])
    def test_equal_cycle_counts_tie_exactly(self, k):
        # x and y are mirror images: each lies on one 3-cycle and two
        # 4-cycles through r, met in a different order by the DFS.  Equal
        # counts must give equal scores, so the label tie-break applies.
        graph = DirectedGraph(name="mirror")
        for label in ["r", "x", "y", "z"]:
            graph.add_node(label)
        graph.add_edges_from(
            [("r", "x"), ("r", "y"), ("x", "y"), ("y", "x"),
             ("x", "z"), ("y", "z"), ("z", "r")]
        )
        ranking = cyclerank(graph, "r", max_cycle_length=k)
        assert ranking.score_of("x") == ranking.score_of("y")
        assert ranking.score_of("r") == ranking.score_of("z")
        assert ranking.top_labels(4) == ["r", "z", "x", "y"]


class TestParameters:
    def test_scores_monotonically_non_decreasing_in_k(self, community_graph):
        small = cyclerank(community_graph, 0, max_cycle_length=2)
        medium = cyclerank(community_graph, 0, max_cycle_length=3)
        large = cyclerank(community_graph, 0, max_cycle_length=4)
        assert np.all(medium.scores >= small.scores - 1e-12)
        assert np.all(large.scores >= medium.scores - 1e-12)

    def test_directed_cycle_needs_full_k(self):
        graph = cycle_graph(4)
        assert cyclerank(graph, 0, max_cycle_length=3).total() == 0.0
        assert cyclerank(graph, 0, max_cycle_length=4).total() > 0.0

    def test_scoring_function_changes_scores_not_support(self, community_graph):
        exponential = cyclerank(community_graph, 0, max_cycle_length=3, scoring="exp")
        constant = cyclerank(community_graph, 0, max_cycle_length=3, scoring=ConstantScoring())
        assert (exponential.scores > 0).tolist() == (constant.scores > 0).tolist()
        assert constant.total() > exponential.total()

    def test_scoring_by_name_and_instance_agree(self, two_triangles):
        by_name = cyclerank(two_triangles, "R", max_cycle_length=3, scoring="lin")
        by_instance = cyclerank(two_triangles, "R", max_cycle_length=3, scoring=LinearScoring())
        assert np.allclose(by_name.scores, by_instance.scores)

    def test_constant_scoring_counts_cycles(self, two_triangles):
        ranking = cyclerank(two_triangles, "R", max_cycle_length=3, scoring="const")
        assert ranking.score_of("R") == pytest.approx(2.0)
        assert ranking.score_of("A") == pytest.approx(1.0)

    def test_invalid_k_rejected(self, triangle):
        with pytest.raises(InvalidParameterError):
            cyclerank(triangle, "A", max_cycle_length=1)
        with pytest.raises(InvalidParameterError):
            cyclerank(triangle, "A", max_cycle_length=0)

    def test_unknown_scoring_rejected(self, triangle):
        with pytest.raises(InvalidParameterError):
            cyclerank(triangle, "A", scoring="no-such-sigma")

    def test_unknown_reference_rejected(self, triangle):
        with pytest.raises(NodeNotFoundError):
            cyclerank(triangle, "missing")


class TestStatisticsAndProvenance:
    def test_statistics_populated(self, two_triangles):
        statistics = CycleRankStatistics()
        cyclerank(two_triangles, "R", max_cycle_length=3, statistics=statistics)
        assert statistics.total_cycles == 2
        assert statistics.cycles_by_length == {3: 2}
        assert statistics.nodes_on_cycles == 5

    def test_provenance_fields(self, two_triangles):
        ranking = cyclerank(two_triangles, "R", max_cycle_length=4, scoring="exp")
        assert ranking.algorithm == "CycleRank"
        assert ranking.reference == "R"
        assert ranking.parameters == {"k": 4, "sigma": "exp"}
        assert ranking.graph_name == "two-triangles"

    def test_deterministic(self, community_graph):
        first = cyclerank(community_graph, 5, max_cycle_length=3)
        second = cyclerank(community_graph, 5, max_cycle_length=3)
        assert np.array_equal(first.scores, second.scores)


class TestQualitativeBehaviour:
    def test_ignores_popular_but_unreciprocated_nodes(self):
        """The motivating example of the paper: a node linked from the
        reference that never links back gets no CycleRank score, no matter how
        globally popular it is."""
        graph = DirectedGraph()
        # A tight topical community around the reference.
        for first, second in [("ref", "peer1"), ("peer1", "peer2"), ("peer2", "ref")]:
            graph.add_edge(first, second)
            graph.add_edge(second, first)
        # A hugely popular hub that everything links to (including the
        # reference) but that links back to nothing.
        for node in ["ref", "peer1", "peer2", "other1", "other2", "other3"]:
            graph.add_edge(node, "hub")
        ranking = cyclerank(graph, "ref", max_cycle_length=4)
        assert ranking.score_of("hub") == 0.0
        assert ranking.score_of("peer1") > 0.0
        assert ranking.score_of("peer2") > 0.0

    def test_topical_community_outranks_rest(self, small_enwiki):
        ranking = cyclerank(small_enwiki, "Freddie Mercury", max_cycle_length=3)
        top = ranking.top_labels(5, exclude=("Freddie Mercury",))
        topical = {
            "Queen (band)", "Brian May", "Roger Taylor", "John Deacon",
            "Bohemian Rhapsody", "A Night at the Opera",
        }
        assert set(top) <= topical
