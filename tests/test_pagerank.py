"""Unit tests for :mod:`repro.algorithms.pagerank`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.pagerank import pagerank, power_iteration_batch, transition_matrix
from repro.exceptions import ConvergenceError, InvalidParameterError
from repro.graph.compiled import compiled_of
from repro.graph.digraph import DirectedGraph
from repro.graph.generators import complete_graph, cycle_graph, star_graph


class TestTransitionMatrix:
    def test_rows_are_stochastic_for_non_dangling_nodes(self, mixed_graph):
        matrix = transition_matrix(mixed_graph.to_csr())
        row_sums = np.asarray(matrix.sum(axis=1)).ravel()
        out_degrees = np.asarray(mixed_graph.out_degrees())
        for node, degree in enumerate(out_degrees):
            if degree > 0:
                assert row_sums[node] == pytest.approx(1.0)
            else:
                assert row_sums[node] == pytest.approx(0.0)


class TestPageRank:
    def test_scores_sum_to_one(self, mixed_graph):
        ranking = pagerank(mixed_graph)
        assert ranking.total() == pytest.approx(1.0)
        assert all(score >= 0 for score in ranking.scores)

    def test_uniform_on_symmetric_cycle(self):
        ranking = pagerank(cycle_graph(8))
        assert np.allclose(ranking.scores, 1 / 8, atol=1e-8)

    def test_uniform_on_complete_graph(self):
        ranking = pagerank(complete_graph(5))
        assert np.allclose(ranking.scores, 0.2, atol=1e-8)

    def test_hub_of_star_outranks_leaves(self):
        ranking = pagerank(star_graph(10, reciprocal=True))
        hub_score = ranking.score_of(0)
        assert all(hub_score > ranking.score_of(leaf) for leaf in range(1, 11))
        assert ranking.rank_of(0) == 1

    def test_dangling_nodes_handled(self):
        graph = DirectedGraph()
        graph.add_edge("A", "B")  # B has no outgoing edges
        ranking = pagerank(graph)
        assert ranking.total() == pytest.approx(1.0)
        assert ranking.score_of("B") > ranking.score_of("A")

    def test_alpha_zero_gives_uniform_scores(self, mixed_graph):
        ranking = pagerank(mixed_graph, alpha=0.0)
        assert np.allclose(ranking.scores, 1 / len(ranking), atol=1e-10)

    def test_higher_in_degree_wins_with_default_alpha(self, small_enwiki):
        ranking = pagerank(small_enwiki)
        top_label = ranking.top_labels(1)[0]
        in_degrees = small_enwiki.in_degrees()
        top_in_degree = small_enwiki.in_degree(top_label)
        assert top_in_degree >= 0.5 * max(in_degrees)

    def test_empty_graph(self):
        ranking = pagerank(DirectedGraph())
        assert len(ranking) == 0
        assert ranking.total() == 0.0

    def test_single_node_graph(self):
        graph = DirectedGraph()
        graph.add_node("only")
        ranking = pagerank(graph)
        assert ranking.score_of("only") == pytest.approx(1.0)

    def test_invalid_alpha_rejected(self, triangle):
        with pytest.raises(InvalidParameterError):
            pagerank(triangle, alpha=1.5)
        with pytest.raises(InvalidParameterError):
            pagerank(triangle, alpha=-0.1)

    def test_provenance_recorded(self, triangle):
        ranking = pagerank(triangle, alpha=0.85)
        assert ranking.algorithm == "PageRank"
        assert ranking.parameters["alpha"] == 0.85
        assert ranking.parameters["iterations"] >= 1
        assert ranking.graph_name == "triangle"
        assert ranking.reference is None

    def test_deterministic_across_runs(self, community_graph):
        first = pagerank(community_graph)
        second = pagerank(community_graph)
        assert np.array_equal(first.scores, second.scores)


def _folded(graph, alpha):
    return compiled_of(graph).folded_transition_transpose(alpha)


class TestPowerIteration:
    def test_respects_custom_teleport(self, triangle):
        teleport = np.array([[1.0], [0.0], [0.0]])
        scores, _ = power_iteration_batch(_folded(triangle, 0.5), teleport)
        assert scores[0, 0] == scores[:, 0].max()

    def test_teleport_shape_mismatch_fails(self, triangle):
        with pytest.raises(ValueError):
            power_iteration_batch(_folded(triangle, 0.5), np.array([[1.0], [0.0]]))

    def test_negative_teleport_fails(self, triangle):
        with pytest.raises(ValueError):
            power_iteration_batch(_folded(triangle, 0.5), np.array([[1.0], [-1.0], [0.0]]))

    def test_zero_mass_teleport_fails(self, triangle):
        with pytest.raises(ValueError):
            power_iteration_batch(_folded(triangle, 0.5), np.zeros((3, 1)))

    def test_non_convergence_raises(self, community_graph):
        n = community_graph.number_of_nodes()
        with pytest.raises(ConvergenceError) as excinfo:
            power_iteration_batch(
                _folded(community_graph, 0.99), np.ones((n, 2)), tol=1e-16, max_iter=2
            )
        assert excinfo.value.iterations == 2
        assert excinfo.value.residual is not None

    def test_iteration_count_reported(self, triangle):
        _, iterations = power_iteration_batch(_folded(triangle, 0.85), np.ones((3, 1)))
        assert iterations.shape == (1,)
        assert iterations[0] >= 1
