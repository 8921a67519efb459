"""Mutable directed graph with labelled nodes.

:class:`DirectedGraph` is the workhorse data structure of the library.  It is
an adjacency-list directed graph whose nodes are dense integer identifiers
(``0 .. n-1``) optionally associated with a human-readable label (an article
title, a product name, a Twitter handle).  All relevance algorithms accept a
:class:`DirectedGraph` and refer to nodes either by id or by label.

Design notes
------------
* Node ids are dense and never reused; this keeps conversion to array-based
  representations (:class:`~repro.graph.csr.CSRGraph`, ``scipy.sparse``)
  trivial and cheap.
* Successor and predecessor lists are both maintained so that algorithms that
  need reverse edges (CheiRank, CycleRank's backward pruning) do not have to
  build a transpose.
* The graph is *simple* by default: parallel edges are ignored on insertion
  (``add_edge`` returns ``False`` for a duplicate).  Self loops are allowed
  but can be stripped with :func:`repro.graph.views.simplified` — the ranking
  algorithms of the paper are defined on graphs without parallel edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..exceptions import GraphError, NodeNotFoundError

__all__ = ["DirectedGraph", "Edge", "NodeRef"]

#: A node reference accepted by the public API: either a dense integer id or a
#: string label previously registered with the graph.
NodeRef = Union[int, str]


@dataclass(frozen=True)
class Edge:
    """A directed edge ``source -> target`` (by node id)."""

    source: int
    target: int

    def reversed(self) -> "Edge":
        """Return the edge pointing in the opposite direction."""
        return Edge(self.target, self.source)

    def as_tuple(self) -> Tuple[int, int]:
        """Return the edge as a plain ``(source, target)`` tuple."""
        return (self.source, self.target)


class DirectedGraph:
    """A simple directed graph with optional node labels.

    Parameters
    ----------
    name:
        Optional human-readable name of the graph (e.g. the dataset id it was
        loaded from).  Purely informational.

    Examples
    --------
    >>> g = DirectedGraph(name="toy")
    >>> a = g.add_node("A")
    >>> b = g.add_node("B")
    >>> g.add_edge(a, b)
    True
    >>> g.add_edge("B", "A")
    True
    >>> sorted(g.successors(a))
    [1]
    >>> g.number_of_edges()
    2
    """

    __slots__ = ("name", "_succ", "_pred", "_labels", "_label_index", "_num_edges")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._succ: List[Set[int]] = []
        self._pred: List[Set[int]] = []
        self._labels: List[Optional[str]] = []
        self._label_index: Dict[str, int] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, label: Optional[str] = None) -> int:
        """Add a node and return its dense integer id.

        If ``label`` is given and already present, the existing node id is
        returned instead of creating a duplicate node.
        """
        if label is not None:
            existing = self._label_index.get(label)
            if existing is not None:
                return existing
        node_id = len(self._succ)
        self._succ.append(set())
        self._pred.append(set())
        self._labels.append(label)
        if label is not None:
            self._label_index[label] = node_id
        return node_id

    def add_nodes(self, count: int) -> List[int]:
        """Add ``count`` unlabelled nodes and return their ids."""
        if count < 0:
            raise GraphError(f"cannot add a negative number of nodes: {count}")
        return [self.add_node() for _ in range(count)]

    def add_edge(self, source: NodeRef, target: NodeRef) -> bool:
        """Add the directed edge ``source -> target``.

        Unknown *labels* are created on the fly (convenient for loaders and
        generators); unknown integer ids raise :class:`NodeNotFoundError`.
        Returns ``True`` if the edge was inserted, ``False`` if it already
        existed (parallel edges are collapsed).
        """
        u = self._resolve_or_create(source)
        v = self._resolve_or_create(target)
        if v in self._succ[u]:
            return False
        self._succ[u].add(v)
        self._pred[v].add(u)
        self._num_edges += 1
        return True

    def add_edges_from(self, edges: Iterable[Tuple[NodeRef, NodeRef]]) -> int:
        """Add every edge in ``edges``; return the number actually inserted."""
        added = 0
        for source, target in edges:
            if self.add_edge(source, target):
                added += 1
        return added

    def remove_edge(self, source: NodeRef, target: NodeRef) -> bool:
        """Remove the edge ``source -> target``; return ``True`` if it existed."""
        u = self.resolve(source)
        v = self.resolve(target)
        if v not in self._succ[u]:
            return False
        self._succ[u].discard(v)
        self._pred[v].discard(u)
        self._num_edges -= 1
        return True

    def _resolve_or_create(self, ref: NodeRef) -> int:
        if isinstance(ref, str):
            existing = self._label_index.get(ref)
            if existing is not None:
                return existing
            return self.add_node(ref)
        return self._check_id(ref)

    # ------------------------------------------------------------------ #
    # node / label resolution
    # ------------------------------------------------------------------ #
    def resolve(self, ref: NodeRef) -> int:
        """Resolve a node reference (id or label) to a node id.

        A string is first looked up among the assigned labels; failing that,
        ``"#<id>"`` names node ``<id>`` when that node is unlabelled — the
        display label :meth:`label_of` and :meth:`labels` show for it.

        Raises
        ------
        NodeNotFoundError
            If the id is out of range or the label is unknown.
        """
        if isinstance(ref, str):
            node_id = self._label_index.get(ref)
            if node_id is None:
                node_id = self._unlabelled_node(ref)
            if node_id is None:
                raise NodeNotFoundError(ref)
            return node_id
        return self._check_id(ref)

    def _unlabelled_node(self, display_label: str) -> Optional[int]:
        """Return the unlabelled node whose display label is ``"#<id>"``."""
        digits = display_label[1:]
        if not (display_label.startswith("#") and digits.isdecimal()):
            return None
        node_id = int(digits)
        if display_label != f"#{node_id}" or node_id >= len(self._labels):
            return None
        return node_id if self._labels[node_id] is None else None

    def _check_id(self, node_id: int) -> int:
        if isinstance(node_id, bool) or not isinstance(node_id, int):
            raise NodeNotFoundError(node_id)
        if not 0 <= node_id < len(self._succ):
            raise NodeNotFoundError(node_id)
        return node_id

    def label_of(self, node_id: int) -> str:
        """Return the label of ``node_id``, or ``"#<id>"`` if it is unlabelled."""
        self._check_id(node_id)
        label = self._labels[node_id]
        return label if label is not None else f"#{node_id}"

    def raw_label_of(self, node_id: int) -> Optional[str]:
        """Return the stored label of ``node_id`` (``None`` if unlabelled)."""
        self._check_id(node_id)
        return self._labels[node_id]

    def raw_labels(self) -> List[Optional[str]]:
        """Return the stored labels of all nodes (``None`` where unlabelled)."""
        return list(self._labels)

    def set_label(self, node_id: int, label: str) -> None:
        """Assign or replace the label of an existing node."""
        self._check_id(node_id)
        if label in self._label_index and self._label_index[label] != node_id:
            raise GraphError(f"label {label!r} is already assigned to another node")
        old = self._labels[node_id]
        if old is not None:
            del self._label_index[old]
        self._labels[node_id] = label
        self._label_index[label] = node_id

    def has_label(self, label: str) -> bool:
        """Return ``True`` if some node carries ``label``."""
        return label in self._label_index

    def node_for_label(self, label: str) -> int:
        """Return the node id carrying ``label`` (raises if unknown)."""
        node_id = self._label_index.get(label)
        if node_id is None:
            raise NodeNotFoundError(label)
        return node_id

    def labels(self) -> List[str]:
        """Return the display labels of all nodes, indexed by node id."""
        return [
            label if label is not None else f"#{node}"
            for node, label in enumerate(self._labels)
        ]

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def number_of_nodes(self) -> int:
        """Return the number of nodes."""
        return len(self._succ)

    def number_of_edges(self) -> int:
        """Return the number of directed edges."""
        return self._num_edges

    def nodes(self) -> range:
        """Return the node ids as a :class:`range`."""
        return range(len(self._succ))

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in node-id order."""
        for u, targets in enumerate(self._succ):
            for v in sorted(targets):
                yield Edge(u, v)

    def edge_list(self) -> List[Tuple[int, int]]:
        """Return all edges as a sorted list of ``(source, target)`` tuples."""
        return [edge.as_tuple() for edge in self.edges()]

    def has_node(self, ref: NodeRef) -> bool:
        """Return ``True`` if the node reference exists in the graph."""
        try:
            self.resolve(ref)
        except NodeNotFoundError:
            return False
        return True

    def has_edge(self, source: NodeRef, target: NodeRef) -> bool:
        """Return ``True`` if the edge ``source -> target`` exists."""
        try:
            u = self.resolve(source)
            v = self.resolve(target)
        except NodeNotFoundError:
            return False
        return v in self._succ[u]

    def successors(self, ref: NodeRef) -> Set[int]:
        """Return the set of nodes reachable by one edge from ``ref``."""
        return set(self._succ[self.resolve(ref)])

    def predecessors(self, ref: NodeRef) -> Set[int]:
        """Return the set of nodes with an edge into ``ref``."""
        return set(self._pred[self.resolve(ref)])

    def out_degree(self, ref: NodeRef) -> int:
        """Return the number of outgoing edges of ``ref``."""
        return len(self._succ[self.resolve(ref)])

    def in_degree(self, ref: NodeRef) -> int:
        """Return the number of incoming edges of ``ref``."""
        return len(self._pred[self.resolve(ref)])

    def out_degrees(self) -> List[int]:
        """Return the out-degree of every node, indexed by node id."""
        return [len(s) for s in self._succ]

    def flattened_successors(self) -> List[int]:
        """Return every node's successors concatenated in node-id order.

        Within one node's block the order is arbitrary (sets are unordered);
        pair with :meth:`out_degrees` to recover the per-node boundaries.
        This is the zero-copy-per-node feed for CSR conversion.
        """
        from itertools import chain

        return list(chain.from_iterable(self._succ))

    def in_degrees(self) -> List[int]:
        """Return the in-degree of every node, indexed by node id."""
        return [len(p) for p in self._pred]

    def has_self_loop(self, ref: NodeRef) -> bool:
        """Return ``True`` if ``ref`` has an edge to itself."""
        node = self.resolve(ref)
        return node in self._succ[node]

    def self_loops(self) -> List[int]:
        """Return the ids of all nodes carrying a self loop."""
        return [u for u in self.nodes() if u in self._succ[u]]

    # ------------------------------------------------------------------ #
    # copies and conversions
    # ------------------------------------------------------------------ #
    def copy(self, name: Optional[str] = None) -> "DirectedGraph":
        """Return a deep copy of the graph (labels included)."""
        clone = DirectedGraph(name=self.name if name is None else name)
        clone._succ = [set(s) for s in self._succ]
        clone._pred = [set(p) for p in self._pred]
        clone._labels = list(self._labels)
        clone._label_index = dict(self._label_index)
        clone._num_edges = self._num_edges
        return clone

    def transpose(self, name: Optional[str] = None) -> "DirectedGraph":
        """Return a new graph with every edge reversed (labels preserved)."""
        reversed_graph = DirectedGraph(
            name=(self.name + "-transposed") if name is None else name
        )
        reversed_graph._succ = [set(p) for p in self._pred]
        reversed_graph._pred = [set(s) for s in self._succ]
        reversed_graph._labels = list(self._labels)
        reversed_graph._label_index = dict(self._label_index)
        reversed_graph._num_edges = self._num_edges
        return reversed_graph

    def to_csr(self):
        """Return an immutable :class:`~repro.graph.csr.CSRGraph` view."""
        from .csr import CSRGraph

        return CSRGraph.from_directed_graph(self)

    def to_networkx(self):
        """Return a :class:`networkx.DiGraph` copy (requires networkx).

        Nodes of the returned graph are the display labels, which is the most
        convenient form for interoperability and plotting.
        """
        import networkx as nx

        nx_graph = nx.DiGraph(name=self.name)
        for node in self.nodes():
            nx_graph.add_node(self.label_of(node))
        for edge in self.edges():
            nx_graph.add_edge(self.label_of(edge.source), self.label_of(edge.target))
        return nx_graph

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[NodeRef, NodeRef]],
        *,
        name: str = "",
        num_nodes: Optional[int] = None,
    ) -> "DirectedGraph":
        """Build a graph from an iterable of edges.

        String endpoints become labelled nodes; integer endpoints index into a
        dense id space that is grown as needed (``num_nodes`` pre-allocates).
        """
        graph = cls(name=name)
        if num_nodes is not None:
            graph.add_nodes(num_nodes)
        for source, target in edges:
            graph._ensure_capacity(source)
            graph._ensure_capacity(target)
            graph.add_edge(source, target)
        return graph

    def _ensure_capacity(self, ref: NodeRef) -> None:
        if isinstance(ref, int) and not isinstance(ref, bool) and ref >= len(self._succ):
            while len(self._succ) <= ref:
                self.add_node()

    @classmethod
    def from_networkx(cls, nx_graph, *, name: Optional[str] = None) -> "DirectedGraph":
        """Build a :class:`DirectedGraph` from a :class:`networkx.DiGraph`.

        Node objects are converted to their ``str()`` form and used as labels.
        """
        graph = cls(name=name if name is not None else str(nx_graph.name or ""))
        for node in nx_graph.nodes():
            graph.add_node(str(node))
        for source, target in nx_graph.edges():
            graph.add_edge(str(source), str(target))
        return graph

    # ------------------------------------------------------------------ #
    # dunder protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, ref: object) -> bool:
        if isinstance(ref, (int, str)):
            return self.has_node(ref)
        return False

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (
            self._labels == other._labels
            and self._succ == other._succ
        )

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return (
            f"<DirectedGraph{name} with {self.number_of_nodes()} nodes "
            f"and {self.number_of_edges()} edges>"
        )

    # ------------------------------------------------------------------ #
    # convenience accessors used across the library
    # ------------------------------------------------------------------ #
    def successor_lists(self) -> List[Sequence[int]]:
        """Return, for each node, a sorted tuple of its successors.

        This is the representation most traversal-heavy algorithms (CycleRank's
        cycle enumeration) iterate over; sorting makes runs deterministic.
        """
        return [tuple(sorted(s)) for s in self._succ]

    def predecessor_lists(self) -> List[Sequence[int]]:
        """Return, for each node, a sorted tuple of its predecessors."""
        return [tuple(sorted(p)) for p in self._pred]
