"""Hypothesis property tests for the graph substrate and file formats."""

from __future__ import annotations

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.analysis import GraphSummary, density, graph_summary, reciprocity
from repro.graph.components import (
    condensation,
    strongly_connected_components,
    weakly_connected_components,
)
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DirectedGraph
from repro.graph.views import simplified, transpose
from repro.io.asd import parse_asd, format_asd
from repro.io.edgelist import format_edgelist, parse_edgelist
from repro.io.pajek import format_pajek, parse_pajek


@st.composite
def directed_graphs(draw, max_nodes: int = 12, max_edges: int = 40) -> DirectedGraph:
    """Strategy: a small directed graph with labelled nodes and no self loops."""
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
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
    return graph


class TestGraphInvariants:
    @given(directed_graphs())
    @settings(max_examples=60, deadline=None)
    def test_transpose_is_involution(self, graph):
        assert transpose(transpose(graph)) == graph

    @given(directed_graphs())
    @settings(max_examples=60, deadline=None)
    def test_transpose_swaps_degree_sequences(self, graph):
        reversed_graph = transpose(graph)
        assert graph.in_degrees() == reversed_graph.out_degrees()
        assert graph.out_degrees() == reversed_graph.in_degrees()

    @given(directed_graphs())
    @settings(max_examples=60, deadline=None)
    def test_copy_equals_original(self, graph):
        assert graph.copy() == graph

    @given(directed_graphs())
    @settings(max_examples=60, deadline=None)
    def test_degree_sums_equal_edge_count(self, graph):
        assert sum(graph.out_degrees()) == graph.number_of_edges()
        assert sum(graph.in_degrees()) == graph.number_of_edges()

    @given(directed_graphs())
    @settings(max_examples=60, deadline=None)
    def test_simplified_is_idempotent(self, graph):
        once = simplified(graph)
        assert simplified(once) == once


class TestComponentInvariants:
    @given(directed_graphs())
    @settings(max_examples=60, deadline=None)
    def test_sccs_partition_the_nodes(self, graph):
        components = strongly_connected_components(graph)
        all_nodes = sorted(node for component in components for node in component)
        assert all_nodes == list(graph.nodes())

    @given(directed_graphs())
    @settings(max_examples=40, deadline=None)
    def test_condensation_is_acyclic(self, graph):
        dag, membership = condensation(graph)
        assert all(len(c) == 1 for c in strongly_connected_components(dag))
        assert set(membership) == set(graph.nodes())


class TestCsrInvariants:
    @given(directed_graphs())
    @settings(max_examples=60, deadline=None)
    def test_csr_round_trip(self, graph):
        assert CSRGraph.from_directed_graph(graph).to_directed_graph() == graph

    @given(directed_graphs())
    @settings(max_examples=60, deadline=None)
    def test_csr_preserves_counts_and_degrees(self, graph):
        csr = graph.to_csr()
        assert csr.number_of_nodes() == graph.number_of_nodes()
        assert csr.number_of_edges() == graph.number_of_edges()
        assert csr.out_degrees().tolist() == graph.out_degrees()
        assert csr.in_degrees().tolist() == graph.in_degrees()

    @given(directed_graphs())
    @settings(max_examples=40, deadline=None)
    def test_csr_transpose_matches_graph_transpose(self, graph):
        assert graph.to_csr().transpose() == graph.transpose().to_csr()


class TestFormatRoundTrips:
    @given(directed_graphs())
    @settings(max_examples=40, deadline=None)
    def test_edgelist_round_trip(self, graph):
        # The edgelist format cannot represent isolated nodes, so only the
        # labels of nodes with at least one edge are expected to survive.
        text = format_edgelist(graph)
        reparsed, _ = parse_edgelist(io.StringIO(text))
        connected_labels = sorted(
            graph.label_of(node)
            for node in graph.nodes()
            if graph.out_degree(node) + graph.in_degree(node) > 0
        )
        assert sorted(reparsed.labels()) == connected_labels
        assert reparsed.number_of_edges() == graph.number_of_edges()

    @given(directed_graphs())
    @settings(max_examples=40, deadline=None)
    def test_pajek_round_trip(self, graph):
        text = format_pajek(graph)
        reparsed, _ = parse_pajek(text.splitlines())
        assert reparsed.number_of_nodes() == graph.number_of_nodes()
        assert reparsed.number_of_edges() == graph.number_of_edges()
        assert sorted(reparsed.labels()) == sorted(graph.labels())

    @given(directed_graphs())
    @settings(max_examples=40, deadline=None)
    def test_asd_round_trip(self, graph):
        text = format_asd(graph)
        reparsed, _ = parse_asd(text.splitlines())
        assert reparsed.number_of_nodes() == graph.number_of_nodes()
        assert reparsed.number_of_edges() == graph.number_of_edges()
        assert sorted(reparsed.labels()) == sorted(graph.labels())

    @given(directed_graphs())
    @settings(max_examples=40, deadline=None)
    def test_edge_sets_preserved_by_every_format(self, graph):
        original_edges = {
            (graph.label_of(edge.source), graph.label_of(edge.target))
            for edge in graph.edges()
        }
        for text, parser in [
            (format_edgelist(graph), lambda t: parse_edgelist(io.StringIO(t))[0]),
            (format_pajek(graph), lambda t: parse_pajek(t.splitlines())[0]),
            (format_asd(graph), lambda t: parse_asd(t.splitlines())[0]),
        ]:
            reparsed = parser(text)
            reparsed_edges = {
                (reparsed.label_of(edge.source), reparsed.label_of(edge.target))
                for edge in reparsed.edges()
            }
            assert reparsed_edges == original_edges


@st.composite
def graphs_with_loops(draw, max_nodes: int = 14, max_edges: int = 50) -> DirectedGraph:
    """Strategy: a directed graph that may carry self-loops, isolated nodes
    (ids no edge touches) and no nodes at all."""
    num_nodes = draw(st.integers(min_value=0, max_value=max_nodes))
    graph = DirectedGraph(name="loops")
    graph.add_nodes(num_nodes)
    if num_nodes:
        node = st.integers(min_value=0, max_value=num_nodes - 1)
        graph.add_edges_from(draw(st.lists(st.tuples(node, node), max_size=max_edges)))
    return graph


def _summary_from_node_walks(graph: DirectedGraph) -> GraphSummary:
    """The summary assembled from the public per-statistic functions."""
    sccs = strongly_connected_components(graph)
    return GraphSummary(
        name=graph.name,
        num_nodes=graph.number_of_nodes(),
        num_edges=graph.number_of_edges(),
        density=density(graph),
        reciprocity=reciprocity(graph),
        num_self_loops=len(graph.self_loops()),
        max_in_degree=max(graph.in_degrees(), default=0),
        max_out_degree=max(graph.out_degrees(), default=0),
        num_weakly_connected_components=len(weakly_connected_components(graph)),
        num_strongly_connected_components=len(sccs),
        largest_scc_size=max((len(component) for component in sccs), default=0),
    )


class TestGraphSummary:
    @given(graphs_with_loops())
    @settings(max_examples=150, deadline=None)
    def test_csr_summary_equals_the_per_statistic_functions(self, graph):
        summary = graph_summary(graph)
        assert summary == _summary_from_node_walks(graph)
        assert all(
            type(value) in (int, float, str) for value in summary.as_dict().values()
        )
