"""Bounded-length simple-cycle enumeration through a reference node.

CycleRank (Equation 1 of the paper) needs, for a reference node ``r`` and a
maximum length ``K``, every *simple* cycle of length 2..K that passes through
``r``.  The enumeration is a depth-first search rooted at ``r`` with the
pruning borrowed from the original CycleRank article: a reverse breadth-first
search from ``r`` (bounded by ``K - 1``) precomputes ``dist_to_r[v]``, the
length of the shortest path from ``v`` back to ``r``, and a partial path of
length ``d`` ending at ``v`` is cut whenever ``d + dist_to_r[v] > K``.  (The
article's separate reachability pruning is subsumed: a node that cannot
return to ``r`` within ``K - 1`` hops has no finite ``dist_to_r`` and every
branch into it is cut immediately, and the DFS itself never walks further
from ``r`` than the distance bound allows.)

This module is CSR-native: the search runs over flat ``indptr``/``indices``
adjacency arrays (plus their transpose for the reverse BFS) held as plain
Python lists, with preallocated distance/on-path/alive arrays — no per-node
dict lookups, set copies or ``sorted(...)`` calls on the hot path.  The
reusable search state lives in :class:`CycleSearchEngine`, so a batch of
references against one graph (or repeated queries against a cached
:class:`~repro.graph.compiled.CompiledGraph` artifact) pays the conversion
once; between references only the entries actually touched are reset, keeping
the per-reference cost proportional to the explored neighbourhood.

The enumeration is exhaustive and exact: every simple cycle through ``r`` of
length at most ``K`` is produced exactly once, as a tuple of node ids
beginning with ``r`` (the closing edge back to ``r`` is implicit), in the
same deterministic order as the original dictionary-based implementation
(which is kept as :func:`enumerate_cycles_through_dict`, the reference the
property tests and benchmarks compare against).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .._validation import require_positive_int
from ..exceptions import InvalidParameterError
from ..graph.compiled import compiled_of
from ..graph.digraph import DirectedGraph, NodeRef
from ..graph.traversal import shortest_path_lengths

__all__ = [
    "CycleSearchEngine",
    "enumerate_cycles_through",
    "enumerate_cycles_through_dict",
    "count_cycles_by_length",
    "simple_cycles_up_to_length",
]


def _validate_max_length(max_length: int) -> None:
    require_positive_int(max_length, "max_length")
    if max_length < 2:
        raise InvalidParameterError(f"max_length must be >= 2, got {max_length}")


#: Below this frontier size the per-node Python walk beats the vectorised
#: gather (array construction overhead dominates tiny levels); above it the
#: BFS level expands as one concatenate-and-mask sweep over NumPy CSR arrays.
FRONTIER_GATHER_MIN = 16


def gather_csr_rows(
    indptr: np.ndarray, indices: np.ndarray, owners: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR rows of ``owners`` (a non-empty id array) in one sweep.

    Returns ``(counts, neighbours)``: each owner's row length and the rows'
    entries, owner by owner.  One repeat/arange gather generates every
    owner's ``[start, start + count)`` index range.
    """
    starts = indptr[owners]
    counts = indptr[owners + 1] - starts
    ends = np.cumsum(counts)
    gather = np.arange(int(ends[-1]), dtype=np.int64) + np.repeat(starts - (ends - counts), counts)
    return counts, indices[gather]


class CycleSearchEngine:
    """Reusable CSR search state for rooted bounded-length cycle enumeration.

    One engine serves many references against the same graph: the adjacency
    lists are shared (and typically come precompiled from a
    :class:`~repro.graph.compiled.CompiledGraph`), while the per-reference
    BFS/DFS scratch arrays are preallocated once and reset incrementally —
    only the entries a search actually touched are cleared afterwards.

    An engine is *not* reentrant: consume (or close) the generator returned
    by :meth:`cycles_from` before starting the next search, and do not share
    one engine between threads.  :meth:`eliminate` supports the classic
    vertex-elimination scheme used by :func:`simple_cycles_up_to_length`.
    """

    __slots__ = (
        "_indptr",
        "_indices",
        "_t_indptr",
        "_t_indices",
        "_np_indptr",
        "_np_indices",
        "_np_t_indptr",
        "_np_t_indices",
        "_np_alive",
        "_num_nodes",
        "_dist_to",
        "_dist_from",
        "_dist_to_py",
        "_touched_to",
        "_touched_from",
        "_candidate",
        "_on_path",
    )

    def __init__(
        self,
        indptr: Sequence[int],
        indices: Sequence[int],
        t_indptr: Sequence[int],
        t_indices: Sequence[int],
        *,
        csr_arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None,
    ) -> None:
        # Flat Python lists for the DFS hot loop and the small-frontier BFS
        # walk (list indexing beats NumPy scalar access there) ...
        self._indptr = indptr
        self._indices = indices
        self._t_indptr = t_indptr
        self._t_indices = t_indices
        self._num_nodes = len(indptr) - 1
        # ... and NumPy views of the same adjacency for the frontier-gather
        # BFS.  A compiled artifact shares its CSR arrays directly; a
        # hand-built engine converts the lists once here.
        if csr_arrays is None:
            csr_arrays = (
                np.asarray(indptr, dtype=np.int64),
                np.asarray(indices, dtype=np.int64),
                np.asarray(t_indptr, dtype=np.int64),
                np.asarray(t_indices, dtype=np.int64),
            )
        self._np_indptr, self._np_indices, self._np_t_indptr, self._np_t_indices = csr_arrays
        self._np_alive = np.ones(self._num_nodes, dtype=bool)
        self._dist_to = np.full(self._num_nodes, -1, dtype=np.int64)
        self._dist_from = np.full(self._num_nodes, -1, dtype=np.int64)
        #: Python-list mirror of ``_dist_to``, filled only for the candidate
        #: nodes of the current search — the DFS pruning reads it once per
        #: visited edge, where list indexing matters.
        self._dist_to_py: List[int] = [-1] * self._num_nodes
        #: Per-level node arrays each BFS touched, for O(touched) resets.
        self._touched_to: List[np.ndarray] = []
        self._touched_from: List[np.ndarray] = []
        self._candidate = bytearray(self._num_nodes)
        self._on_path = bytearray(self._num_nodes)

    @classmethod
    def for_graph(cls, graph) -> "CycleSearchEngine":
        """Build an engine for a :class:`DirectedGraph` or compiled artifact."""
        compiled = compiled_of(graph)
        csr = compiled.to_csr()
        transpose = compiled.transpose_csr()
        lists = compiled.adjacency_lists()
        return cls(
            *lists,
            csr_arrays=(csr.indptr, csr.indices, transpose.indptr, transpose.indices),
        )

    def eliminate(self, node: int) -> None:
        """Permanently remove ``node`` from every future search."""
        self._np_alive[node] = False

    def _bounded_bfs(
        self,
        root: int,
        cutoff: int,
        indptr: Sequence[int],
        indices: Sequence[int],
        np_indptr: np.ndarray,
        np_indices: np.ndarray,
        dist: np.ndarray,
        touched_levels: List[np.ndarray],
    ) -> None:
        """Frontier-gather BFS: fill ``dist`` for alive nodes within ``cutoff`` hops.

        Each level is appended to ``touched_levels`` so the distance array
        resets in time proportional to the visited neighbourhood, not the
        graph.  A level below :data:`FRONTIER_GATHER_MIN` nodes expands with
        a per-node walk (array overhead dominates tiny frontiers); from there
        up the whole next level is produced by one NumPy sweep — the
        frontier's adjacency rows are concatenated with a repeat/arange
        gather, masked against the alive and distance arrays, and
        deduplicated with ``np.unique``.  That sweep carries the prunings
        over large neighbourhoods for the ``K >= 5`` searches CycleRank
        enumerates (``K <= 4`` is counted in closed form, with no search).
        """
        np_alive = self._np_alive
        dist[root] = 0
        frontier = np.array([root], dtype=np.int64)
        touched_levels.append(frontier)
        depth = 0
        while frontier.size and depth < cutoff:
            depth += 1
            if frontier.size < FRONTIER_GATHER_MIN:
                # NumPy scalar access here is slower per edge than the old
                # pure-list walk, a measured sub-millisecond cost on tiny
                # graphs that buys the shared ndarray state the gather and
                # the vectorised candidate selection need at scale.
                level: List[int] = []
                for node in frontier.tolist():
                    for neighbour in indices[indptr[node] : indptr[node + 1]]:
                        if dist[neighbour] < 0 and np_alive[neighbour]:
                            dist[neighbour] = depth
                            level.append(neighbour)
                if not level:
                    return
                fresh = np.asarray(level, dtype=np.int64)
            else:
                _, neighbours = gather_csr_rows(np_indptr, np_indices, frontier)
                if neighbours.size == 0:
                    return
                fresh = neighbours[np_alive[neighbours] & (dist[neighbours] < 0)]
                if fresh.size == 0:
                    return
                fresh = np.unique(fresh)
                dist[fresh] = depth
            touched_levels.append(fresh)
            frontier = fresh

    def cycles_from(self, root: int, max_length: int) -> Iterator[Tuple[int, ...]]:
        """Yield every simple cycle of length ``2..max_length`` through ``root``.

        Cycles are tuples of node ids starting with ``root``; the closing
        edge back to ``root`` is implicit.  Nodes removed with
        :meth:`eliminate` participate in no cycle.
        """
        if not self._np_alive[root]:
            return
        indptr = self._indptr
        indices = self._indices
        dist_to = self._dist_to
        dist_from = self._dist_from
        dist_to_py = self._dist_to_py
        candidate = self._candidate
        on_path = self._on_path
        path: List[int] = []
        candidates: List[int] = []
        try:
            # Distance pruning data: how far every nearby node is from the
            # root (forward BFS) and how fast it can return to it (BFS on the
            # transpose), both bounded by K - 1.
            self._bounded_bfs(root, max_length - 1, self._t_indptr, self._t_indices,
                              self._np_t_indptr, self._np_t_indices,
                              dist_to, self._touched_to)
            self._bounded_bfs(root, max_length - 1, indptr, indices,
                              self._np_indptr, self._np_indices,
                              dist_from, self._touched_from)
            # Only nodes on some short enough round trip can participate in a
            # cycle; select them in one vectorised sweep over everything the
            # forward BFS reached (the old per-node Python pass over the
            # touched set dominated pruning-bound searches).
            reached = np.concatenate(self._touched_from)
            return_distances = dist_to[reached]
            keep = (return_distances >= 0) & (
                dist_from[reached] + return_distances <= max_length
            )
            candidate_nodes = reached[keep]
            candidates = candidate_nodes.tolist()
            # The DFS reads the return distance once per visited edge; give
            # it Python-list indexing by mirroring just the candidates.
            for node, shortest_return in zip(candidates, dist_to[candidate_nodes].tolist()):
                candidate[node] = 1
                dist_to_py[node] = shortest_return
            # Keep, per candidate, the successors that are themselves
            # candidates — the only edges the DFS ever walks.
            rows: Dict[int, List[int]] = {}
            for node in candidates:
                rows[node] = [
                    neighbour
                    for neighbour in indices[indptr[node] : indptr[node + 1]]
                    if candidate[neighbour]
                ]
            # Iterative DFS; each stack frame is (node, iterator over its
            # filtered successors), resuming in O(1) after every descent.
            # `depth` tracks len(path) incrementally: the pruning test runs
            # once per edge visited, where a len() call is measurable.
            path.append(root)
            depth = 1
            on_path[root] = 1
            stack: List[Tuple[int, Iterator[int]]] = [(root, iter(rows.get(root, ())))]
            while stack:
                node, neighbours = stack[-1]
                advanced = False
                for neighbour in neighbours:
                    if neighbour == root:
                        if depth >= 2:
                            yield tuple(path)
                        continue
                    if on_path[neighbour]:
                        continue
                    # Appending `neighbour` makes the partial path use
                    # `depth` edges; the cheapest way to close the cycle
                    # from there adds dist_to_py[neighbour] more.  Prune if
                    # even that exceeds K.
                    if depth + dist_to_py[neighbour] > max_length:
                        continue
                    path.append(neighbour)
                    depth += 1
                    on_path[neighbour] = 1
                    stack.append((neighbour, iter(rows[neighbour])))
                    advanced = True
                    break
                if not advanced:
                    stack.pop()
                    depth -= 1
                    on_path[path.pop()] = 0
        finally:
            # Reset only what this search touched, whether it ran to
            # completion or the caller closed the generator early.
            for node in path:
                on_path[node] = 0
            for node in candidates:
                candidate[node] = 0
                dist_to_py[node] = -1
            for level in self._touched_from:
                dist_from[level] = -1
            self._touched_from.clear()
            for level in self._touched_to:
                dist_to[level] = -1
            self._touched_to.clear()


def _has_compiled_csr(graph) -> bool:
    """Return ``True`` if ``graph`` is a compiled artifact with its CSR built."""
    return getattr(graph, "csr_ready", False)


def enumerate_cycles_through(
    graph: DirectedGraph,
    reference: NodeRef,
    max_length: int,
) -> Iterator[Tuple[int, ...]]:
    """Yield every simple cycle of length ``2..max_length`` through ``reference``.

    Each cycle is yielded as a tuple of node ids starting with the reference
    node; its length equals ``len(cycle)`` (the closing edge back to the
    reference is implicit, not repeated).

    A :class:`~repro.graph.compiled.CompiledGraph` whose CSR is already
    built searches through the :class:`CycleSearchEngine` over the shared
    arrays.  A bare graph (or a cold artifact) takes the dictionary walk
    instead: one rooted query touches only the reference's ``K``-hop
    neighbourhood, and paying an O(n + m) conversion for an O(local) answer
    would be a net loss — the engine earns its conversion when the platform
    (or a batch) reuses it across many references.  Both paths produce the
    identical cycle sequence.

    Parameters
    ----------
    graph:
        The directed graph to search (a
        :class:`~repro.graph.compiled.CompiledGraph` artifact is accepted
        too and reuses its compiled adjacency).
    reference:
        The reference node, by id or label.
    max_length:
        Maximum cycle length ``K`` (must be at least 2).

    Yields
    ------
    tuple of int
        Node ids along the cycle, reference first.
    """
    if _has_compiled_csr(graph):
        _validate_max_length(max_length)
        root = graph.resolve(reference)
        engine = CycleSearchEngine.for_graph(graph)
        yield from engine.cycles_from(root, max_length)
    else:
        yield from enumerate_cycles_through_dict(graph, reference, max_length)


def enumerate_cycles_through_dict(
    graph: DirectedGraph,
    reference: NodeRef,
    max_length: int,
) -> Iterator[Tuple[int, ...]]:
    """Dictionary-based reference implementation of :func:`enumerate_cycles_through`.

    This is the original (pre-CSR) enumeration, kept verbatim as the ground
    truth the property tests and the hot-path benchmark compare the
    CSR-native engine against.  Semantics and yield order are identical; only
    the data layout differs (per-node dict/set lookups instead of flat
    arrays).
    """
    _validate_max_length(max_length)
    root = graph.resolve(reference)

    # Distance from each node back to the root, following edges forward
    # (i.e. length of the shortest path v -> ... -> root).
    dist_to_root = shortest_path_lengths(graph, root, reverse=True, cutoff=max_length - 1)
    # Distance from the root to each node.
    dist_from_root = shortest_path_lengths(graph, root, cutoff=max_length - 1)

    # Only nodes on some short enough round trip can participate in a cycle.
    candidates: Set[int] = {
        node
        for node in dist_from_root
        if node in dist_to_root and dist_from_root[node] + dist_to_root[node] <= max_length
    }
    if root not in candidates:
        return

    successors: Dict[int, Sequence[int]] = {}
    for node in candidates:
        successors[node] = tuple(
            sorted(v for v in graph.successors(node) if v in candidates or v == root)
        )

    path: List[int] = [root]
    on_path: Set[int] = {root}

    # Iterative DFS; each stack frame is (node, iterator over its successors).
    stack: List[Tuple[int, Iterator[int]]] = [(root, iter(successors.get(root, ())))]
    while stack:
        node, neighbours = stack[-1]
        advanced = False
        for neighbour in neighbours:
            if neighbour == root:
                if len(path) >= 2:
                    yield tuple(path)
                continue
            if neighbour in on_path:
                continue
            edges_after_append = len(path)
            shortest_return = dist_to_root.get(neighbour, max_length + 1)
            if edges_after_append + shortest_return > max_length:
                continue
            path.append(neighbour)
            on_path.add(neighbour)
            stack.append((neighbour, iter(successors.get(neighbour, ()))))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if path:
                removed = path.pop()
                on_path.discard(removed)


def count_cycles_by_length(
    graph: DirectedGraph,
    reference: NodeRef,
    max_length: int,
) -> Dict[int, int]:
    """Return ``{cycle length: number of cycles}`` through ``reference``."""
    counts: Dict[int, int] = {}
    for cycle in enumerate_cycles_through(graph, reference, max_length):
        counts[len(cycle)] = counts.get(len(cycle), 0) + 1
    return dict(sorted(counts.items()))


def simple_cycles_up_to_length(graph: DirectedGraph, max_length: int) -> List[Tuple[int, ...]]:
    """Return every simple cycle of length ``<= max_length`` in the whole graph.

    Each cycle is reported once, rotated so its smallest node id comes first:
    cycles through node ``0`` are enumerated, node ``0`` is eliminated,
    cycles through node ``1`` in the remaining graph are enumerated, and so
    on — the classic vertex-elimination scheme.  Elimination is an O(1) flip
    of the engine's alive mask (the previous implementation rebuilt edge sets
    by removing every edge of the pivot from a full graph copy, which was
    quadratic on dense graphs).
    """
    _validate_max_length(max_length)
    engine = CycleSearchEngine.for_graph(graph)
    cycles: List[Tuple[int, ...]] = []
    for pivot in graph.nodes():
        # Every smaller node is already eliminated, so each cycle found here
        # has the pivot as its minimum member and is reported exactly once.
        cycles.extend(engine.cycles_from(pivot, max_length))
        engine.eliminate(pivot)
    return cycles
