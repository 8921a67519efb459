"""Descriptive statistics over directed graphs.

Used by the dataset catalog (each pre-loaded dataset carries a summary), the
text Web UI (dataset cards) and the dataset-comparison use case of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .components import strongly_connected_components
from .digraph import DirectedGraph

__all__ = [
    "density",
    "reciprocity",
    "degree_histogram",
    "top_nodes_by_degree",
    "GraphSummary",
    "graph_summary",
]


def density(graph: DirectedGraph) -> float:
    """Return the edge density ``m / (n * (n - 1))`` of a directed graph.

    Graphs with fewer than two nodes have density 0 by convention.
    """
    n = graph.number_of_nodes()
    if n < 2:
        return 0.0
    return graph.number_of_edges() / (n * (n - 1))


def reciprocity(graph: DirectedGraph) -> float:
    """Return the fraction of edges whose reverse edge also exists.

    Reciprocity is the single strongest structural predictor of where
    CycleRank and Personalized PageRank diverge: CycleRank only rewards nodes
    connected to the reference by paths in *both* directions.
    """
    m = graph.number_of_edges()
    if m == 0:
        return 0.0
    reciprocated = sum(
        1 for edge in graph.edges() if graph.has_edge(edge.target, edge.source)
    )
    return reciprocated / m


def degree_histogram(graph: DirectedGraph, *, direction: str = "in") -> Dict[int, int]:
    """Return a ``{degree: count}`` histogram of in- or out-degrees."""
    if direction not in ("in", "out"):
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    degrees = graph.in_degrees() if direction == "in" else graph.out_degrees()
    histogram: Dict[int, int] = {}
    for degree in degrees:
        histogram[degree] = histogram.get(degree, 0) + 1
    return dict(sorted(histogram.items()))


def top_nodes_by_degree(
    graph: DirectedGraph,
    k: int = 10,
    *,
    direction: str = "in",
) -> List[Tuple[str, int]]:
    """Return the ``k`` nodes with the highest in- or out-degree as (label, degree)."""
    if direction not in ("in", "out"):
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    degrees = graph.in_degrees() if direction == "in" else graph.out_degrees()
    ranked = sorted(range(graph.number_of_nodes()), key=lambda u: (-degrees[u], u))
    return [(graph.label_of(u), degrees[u]) for u in ranked[:k]]


@dataclass(frozen=True)
class GraphSummary:
    """A compact structural summary of a directed graph."""

    name: str
    num_nodes: int
    num_edges: int
    density: float
    reciprocity: float
    num_self_loops: int
    max_in_degree: int
    max_out_degree: int
    num_weakly_connected_components: int
    num_strongly_connected_components: int
    largest_scc_size: int

    def as_dict(self) -> Dict[str, object]:
        """Return the summary as a plain dictionary (for JSON serialisation)."""
        return {
            "name": self.name,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "density": self.density,
            "reciprocity": self.reciprocity,
            "num_self_loops": self.num_self_loops,
            "max_in_degree": self.max_in_degree,
            "max_out_degree": self.max_out_degree,
            "num_weakly_connected_components": self.num_weakly_connected_components,
            "num_strongly_connected_components": self.num_strongly_connected_components,
            "largest_scc_size": self.largest_scc_size,
        }


def graph_summary(graph: DirectedGraph) -> GraphSummary:
    """Compute a :class:`GraphSummary` for ``graph``.

    Degrees, self-loops, reciprocity and the weak components are array
    operations on the graph's CSR snapshot; only the strong components
    walk the graph (Tarjan, :func:`strongly_connected_components`).  The
    result equals a summary built from :func:`reciprocity` and the
    per-node component walks.
    """
    csr = graph.to_csr()
    num_nodes = csr.number_of_nodes()
    num_edges = csr.number_of_edges()
    if num_nodes == 0:
        return GraphSummary(graph.name, 0, 0, 0.0, 0.0, 0, 0, 0, 0, 0, 0)
    out_degrees = np.diff(csr.indptr)
    sources = np.repeat(np.arange(num_nodes), out_degrees)
    targets = csr.indices
    sccs = strongly_connected_components(graph)
    return GraphSummary(
        name=graph.name,
        num_nodes=num_nodes,
        num_edges=num_edges,
        density=density(graph),
        reciprocity=(
            _reciprocated_edges(num_nodes, sources, targets) / num_edges
            if num_edges
            else 0.0
        ),
        num_self_loops=int(np.count_nonzero(sources == targets)),
        max_in_degree=int(np.bincount(targets, minlength=num_nodes).max()),
        max_out_degree=int(out_degrees.max()),
        num_weakly_connected_components=_weak_component_count(
            num_nodes, sources, targets
        ),
        num_strongly_connected_components=len(sccs),
        largest_scc_size=max(len(component) for component in sccs),
    )


def _reciprocated_edges(n: int, sources: np.ndarray, targets: np.ndarray) -> int:
    """Count the CSR edges whose reverse edge exists (a self-loop counts).

    CSR order makes the edge keys ``u * n + v`` ascending, so each reverse
    key is one binary search away.
    """
    keys = sources * n + targets
    reverse = targets * n + sources
    found = np.searchsorted(keys, reverse)
    found[found == keys.size] = 0
    return int(np.count_nonzero(keys[found] == reverse))


def _weak_component_count(n: int, sources: np.ndarray, targets: np.ndarray) -> int:
    """Count weak components by union-find over the edge arrays.

    Each round hooks every root touched by a cross-component edge onto the
    smallest root it meets, then jumps pointers until every node points at
    its root.  A root only ever points to a lower label, so no cycle forms;
    every round hooks at least one root, so the loop ends after at most
    ``n`` rounds (far fewer on the graphs measured, but no tighter bound is
    claimed).
    """
    parent = np.arange(n)
    while True:
        source_roots, target_roots = parent[sources], parent[targets]
        cross = source_roots != target_roots
        if not cross.any():
            return int(np.count_nonzero(parent == np.arange(n)))
        source_roots, target_roots = source_roots[cross], target_roots[cross]
        np.minimum.at(
            parent,
            np.maximum(source_roots, target_roots),
            np.minimum(source_roots, target_roots),
        )
        while True:
            grandparent = parent[parent]
            if np.array_equal(grandparent, parent):
                break
            parent = grandparent
