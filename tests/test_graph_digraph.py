"""Unit tests for :mod:`repro.graph.digraph`."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph.digraph import DirectedGraph, Edge


class TestNodeCreation:
    def test_add_node_returns_dense_ids(self):
        graph = DirectedGraph()
        assert graph.add_node("A") == 0
        assert graph.add_node("B") == 1
        assert graph.add_node() == 2
        assert graph.number_of_nodes() == 3

    def test_add_node_with_existing_label_is_idempotent(self):
        graph = DirectedGraph()
        first = graph.add_node("A")
        second = graph.add_node("A")
        assert first == second
        assert graph.number_of_nodes() == 1

    def test_add_nodes_bulk(self):
        graph = DirectedGraph()
        ids = graph.add_nodes(5)
        assert ids == [0, 1, 2, 3, 4]
        assert graph.number_of_nodes() == 5

    def test_add_negative_number_of_nodes_fails(self):
        graph = DirectedGraph()
        with pytest.raises(GraphError):
            graph.add_nodes(-1)

    def test_unlabelled_node_gets_synthetic_display_label(self):
        graph = DirectedGraph()
        node = graph.add_node()
        assert graph.label_of(node) == f"#{node}"
        assert graph.raw_label_of(node) is None


class TestEdges:
    def test_add_edge_by_label_creates_nodes(self):
        graph = DirectedGraph()
        assert graph.add_edge("A", "B") is True
        assert graph.number_of_nodes() == 2
        assert graph.number_of_edges() == 1
        assert graph.has_edge("A", "B")
        assert not graph.has_edge("B", "A")

    def test_duplicate_edge_is_not_counted_twice(self):
        graph = DirectedGraph()
        assert graph.add_edge("A", "B") is True
        assert graph.add_edge("A", "B") is False
        assert graph.number_of_edges() == 1

    def test_add_edge_by_unknown_id_fails(self):
        graph = DirectedGraph()
        graph.add_node("A")
        with pytest.raises(NodeNotFoundError):
            graph.add_edge(0, 5)

    def test_remove_edge(self):
        graph = DirectedGraph()
        graph.add_edge("A", "B")
        assert graph.remove_edge("A", "B") is True
        assert graph.number_of_edges() == 0
        assert graph.remove_edge("A", "B") is False

    def test_add_edges_from_returns_inserted_count(self):
        graph = DirectedGraph()
        inserted = graph.add_edges_from([("A", "B"), ("B", "C"), ("A", "B")])
        assert inserted == 2

    def test_self_loop_allowed_and_detected(self):
        graph = DirectedGraph()
        graph.add_edge("A", "A")
        assert graph.has_self_loop("A")
        assert graph.self_loops() == [0]

    def test_edges_iteration_is_sorted_and_complete(self, triangle):
        edges = list(triangle.edges())
        assert all(isinstance(edge, Edge) for edge in edges)
        assert len(edges) == 3
        assert triangle.edge_list() == sorted(triangle.edge_list())


class TestResolution:
    def test_resolve_label_and_id(self):
        graph = DirectedGraph()
        node = graph.add_node("A")
        assert graph.resolve("A") == node
        assert graph.resolve(node) == node

    def test_resolve_unknown_label_fails(self):
        graph = DirectedGraph()
        with pytest.raises(NodeNotFoundError):
            graph.resolve("missing")

    def test_resolve_out_of_range_id_fails(self):
        graph = DirectedGraph()
        graph.add_node("A")
        with pytest.raises(NodeNotFoundError):
            graph.resolve(3)

    def test_resolve_accepts_the_display_label_of_an_unlabelled_node(self):
        graph = DirectedGraph()
        for _ in range(4):
            graph.add_node()
        assert graph.labels()[2] == "#2"
        assert graph.resolve("#2") == 2
        assert graph.resolve(graph.label_of(3)) == 3
        for ref in ("#4", "#02", "#", "#-1", "#+1", "# 1", "2"):
            with pytest.raises(NodeNotFoundError):
                graph.resolve(ref)

    def test_explicit_hash_label_keeps_priority(self):
        graph = DirectedGraph()
        for _ in range(3):
            graph.add_node()
        graph.set_label(0, "#2")
        graph.set_label(1, "B")
        assert graph.resolve("#2") == 0
        # A labelled node is no longer reachable through "#<id>".
        with pytest.raises(NodeNotFoundError):
            graph.resolve("#1")

    def test_resolve_bool_is_rejected(self):
        graph = DirectedGraph()
        graph.add_node("A")
        with pytest.raises(NodeNotFoundError):
            graph.resolve(True)

    def test_node_for_label_and_has_label(self):
        graph = DirectedGraph()
        graph.add_node("A")
        assert graph.has_label("A")
        assert not graph.has_label("B")
        assert graph.node_for_label("A") == 0
        with pytest.raises(NodeNotFoundError):
            graph.node_for_label("B")

    def test_set_label(self):
        graph = DirectedGraph()
        node = graph.add_node()
        graph.set_label(node, "renamed")
        assert graph.label_of(node) == "renamed"
        assert graph.node_for_label("renamed") == node

    def test_set_label_conflict_fails(self):
        graph = DirectedGraph()
        graph.add_node("A")
        other = graph.add_node("B")
        with pytest.raises(GraphError):
            graph.set_label(other, "A")


class TestDegreesAndNeighbourhoods:
    def test_successors_and_predecessors(self, triangle):
        a = triangle.resolve("A")
        b = triangle.resolve("B")
        c = triangle.resolve("C")
        assert triangle.successors(a) == {b}
        assert triangle.predecessors(a) == {c}

    def test_degrees(self, reciprocal_star):
        hub = reciprocal_star.resolve("H")
        assert reciprocal_star.out_degree(hub) == 5
        assert reciprocal_star.in_degree(hub) == 5
        assert reciprocal_star.out_degrees()[hub] == 5
        assert sum(reciprocal_star.in_degrees()) == reciprocal_star.number_of_edges()

    def test_successor_lists_are_sorted(self, reciprocal_star):
        lists = reciprocal_star.successor_lists()
        for entries in lists:
            assert list(entries) == sorted(entries)

    def test_degree_sums_equal_edge_count(self, community_graph):
        assert sum(community_graph.out_degrees()) == community_graph.number_of_edges()
        assert sum(community_graph.in_degrees()) == community_graph.number_of_edges()


class TestCopiesAndConversions:
    def test_copy_is_deep(self, triangle):
        clone = triangle.copy()
        clone.add_edge("A", "C")
        assert not triangle.has_edge("A", "C")
        assert clone.number_of_edges() == triangle.number_of_edges() + 1

    def test_copy_preserves_equality(self, triangle):
        assert triangle.copy() == triangle

    def test_transpose_reverses_every_edge(self, mixed_graph):
        transposed = mixed_graph.transpose()
        assert transposed.number_of_edges() == mixed_graph.number_of_edges()
        for edge in mixed_graph.edges():
            assert transposed.has_edge(edge.target, edge.source)

    def test_transpose_twice_restores_graph(self, mixed_graph):
        assert mixed_graph.transpose().transpose() == mixed_graph

    def test_from_edges_with_labels(self):
        graph = DirectedGraph.from_edges([("A", "B"), ("B", "C")], name="path")
        assert graph.number_of_nodes() == 3
        assert graph.name == "path"

    def test_from_edges_with_integer_ids_grows_capacity(self):
        graph = DirectedGraph.from_edges([(0, 4), (4, 2)])
        assert graph.number_of_nodes() == 5
        assert graph.has_edge(0, 4)

    def test_from_edges_with_preallocated_nodes(self):
        graph = DirectedGraph.from_edges([(0, 1)], num_nodes=10)
        assert graph.number_of_nodes() == 10

    def test_to_networkx_round_trip(self, triangle):
        nx = pytest.importorskip("networkx")
        nx_graph = triangle.to_networkx()
        assert isinstance(nx_graph, nx.DiGraph)
        back = DirectedGraph.from_networkx(nx_graph)
        assert back.number_of_nodes() == triangle.number_of_nodes()
        assert back.number_of_edges() == triangle.number_of_edges()


class TestDunderProtocol:
    def test_len_iter_contains(self, triangle):
        assert len(triangle) == 3
        assert list(triangle) == [0, 1, 2]
        assert "A" in triangle
        assert 0 in triangle
        assert "missing" not in triangle
        assert 99 not in triangle
        assert 3.5 not in triangle

    def test_repr_mentions_counts(self, triangle):
        text = repr(triangle)
        assert "3 nodes" in text
        assert "3 edges" in text

    def test_equality_with_non_graph(self, triangle):
        assert triangle != 42

    def test_edge_helpers(self):
        edge = Edge(1, 2)
        assert edge.as_tuple() == (1, 2)
        assert edge.reversed() == Edge(2, 1)
