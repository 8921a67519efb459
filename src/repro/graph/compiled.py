"""Compiled graph artifact: every derived structure the executors need, built once.

Each relevance algorithm derives the same handful of structures from a
:class:`~repro.graph.digraph.DirectedGraph` before doing any real work — the
CSR adjacency (and its transpose), the out-degree vector, the transition
matrix the power iteration multiplies by, the :mod:`scipy.sparse` adjacency
matrix, and (for CycleRank) flat adjacency lists the cycle-search engine can
walk without per-node dict lookups.  Rebuilding them per query is pure
overhead: on the platform's dominant workload (many queries against the same
dataset) the conversions can cost more than the algorithms themselves.

:class:`CompiledGraph` bundles those structures as a frozen, lazily-built,
thread-safe artifact.  It is a drop-in stand-in for the source graph —
attribute access falls through to the wrapped :class:`DirectedGraph`, and
``to_csr()`` returns the cached snapshot — so every algorithm (including
user-registered ones that know nothing about artifacts) runs unchanged while
the ones on the hot path pick up the precompiled structures automatically.

The platform caches one ``CompiledGraph`` per dataset version in the
:class:`~repro.platform.datastore.DataStore` and keys cached rankings by the
artifact's :meth:`~CompiledGraph.content_digest`, so a ranking is only ever
served for the exact graph it was computed on.  Mutating the source graph
after compilation is not supported: every upload gets a new artifact.
"""

from __future__ import annotations

import hashlib
import json
import threading
import weakref
from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from .._validation import require_probability
from .csr import CSRGraph
from .digraph import DirectedGraph

__all__ = ["CompiledGraph", "compiled_of"]

#: Distinct (alpha, direction) folded transition matrices retained per
#: artifact; production traffic uses one or two alphas, so a handful covers
#: every realistic workload while bounding an alpha-sweeping client.
MAX_FOLDED_TRANSITIONS = 8

#: Flat adjacency lists: (indptr, indices) for the forward graph followed by
#: (indptr, indices) for the transpose, all as plain Python int lists.
AdjacencyLists = Tuple[List[int], List[int], List[int], List[int]]

#: Content digest -> the label array every artifact of that content shares,
#: so the cached rankings of one graph pin one array however many uploads
#: carried it.  Weak values: an array lives as long as a ranking holds it.
_INTERNED_LABELS: "weakref.WeakValueDictionary[bytes, np.ndarray]" = (
    weakref.WeakValueDictionary()
)
_INTERN_LOCK = threading.Lock()


class CompiledGraph:
    """Frozen, lazily-built bundle of the derived structures of one graph.

    Every structure is computed at most once (under a lock, so concurrent
    executor threads share a single build) and is immutable afterwards:

    * :meth:`to_csr` — the CSR adjacency snapshot;
    * :meth:`transpose_csr` — the CSR snapshot of the reversed graph;
    * :meth:`out_degrees` — the out-degree of every node;
    * :meth:`adjacency` / :meth:`adjacency_transpose` — ``scipy.sparse``
      matrices for the matrix-shaped kernels (HITS, Katz);
    * :meth:`adjacency_lists` — flat Python-list CSR for the cycle engine;
    * :meth:`folded_transition_transpose` — the alpha-folded transposed
      transition matrix plus its mass row, which the power iteration
      multiplies by, cached per ``(alpha, direction)`` so repeat
      PageRank-family queries skip the rebuild.

    Any other attribute (``resolve``, ``labels``, ``successors``, ...) is
    delegated to the wrapped :class:`DirectedGraph`, so a ``CompiledGraph``
    can be handed to any algorithm in place of the graph itself.
    """

    def __init__(self, graph: DirectedGraph, *, csr: Optional[CSRGraph] = None) -> None:
        self._graph = graph
        self._build_lock = threading.Lock()
        #: ``csr`` pre-seeds the snapshot — file-backed datastores recover a
        #: persisted CSR on restart instead of reconverting the graph.
        self._csr: Optional[CSRGraph] = csr
        self._transpose: Optional[CSRGraph] = None
        self._out_degrees: Optional[np.ndarray] = None
        self._scipy_adjacency = None
        self._scipy_transpose = None
        self._lists: Optional[AdjacencyLists] = None
        self._labels_array: Optional[np.ndarray] = None
        self._content_digest: Optional[bytes] = None
        #: (alpha, reverse) -> folded matrix ``[alpha * P^T ; alpha * nd]``;
        #: the power iteration fetches these instead of rebuilding per
        #: query group.  Bounded LRU: each entry is an |E|-sized matrix and
        #: the artifact lives as long as the dataset, so a client sweeping
        #: alphas must not grow it without limit.
        self._folded_transitions: "OrderedDict[Tuple[float, bool], object]" = OrderedDict()

    @property
    def graph(self) -> DirectedGraph:
        """Return the wrapped source graph."""
        return self._graph

    @property
    def csr_ready(self) -> bool:
        """Return ``True`` if the CSR snapshot has already been built.

        Kernels with a cheaper direct-from-graph path for one-off queries
        (e.g. CycleRank's short-cycle counting) use this to avoid forcing a
        full compilation on a throwaway artifact while still reusing the CSR
        when the platform hands them a warmed cached one.
        """
        return self._csr is not None

    # ------------------------------------------------------------------ #
    # compiled structures
    # ------------------------------------------------------------------ #
    def to_csr(self) -> CSRGraph:
        """Return the (cached) CSR snapshot of the graph."""
        if self._csr is None:
            with self._build_lock:
                if self._csr is None:
                    self._csr = self._graph.to_csr()
        return self._csr

    def transpose_csr(self) -> CSRGraph:
        """Return the (cached) CSR snapshot of the reversed graph."""
        if self._transpose is None:
            csr = self.to_csr()
            with self._build_lock:
                if self._transpose is None:
                    self._transpose = csr.transpose()
        return self._transpose

    def out_degrees(self) -> np.ndarray:
        """Return the out-degree of every node (cached, do not mutate)."""
        if self._out_degrees is None:
            csr = self.to_csr()
            with self._build_lock:
                if self._out_degrees is None:
                    self._out_degrees = csr.out_degrees()
        return self._out_degrees

    def adjacency(self):
        """Return the ``scipy.sparse.csr_matrix`` adjacency (cached, read-only)."""
        if self._scipy_adjacency is None:
            csr = self.to_csr()
            with self._build_lock:
                if self._scipy_adjacency is None:
                    self._scipy_adjacency = csr.to_scipy()
        return self._scipy_adjacency

    def adjacency_transpose(self):
        """Return the ``scipy.sparse.csr_matrix`` of the reversed graph (cached)."""
        if self._scipy_transpose is None:
            transpose = self.transpose_csr()
            with self._build_lock:
                if self._scipy_transpose is None:
                    self._scipy_transpose = transpose.to_scipy()
        return self._scipy_transpose

    def adjacency_lists(self) -> AdjacencyLists:
        """Return flat-list CSR arrays ``(indptr, indices, t_indptr, t_indices)``.

        Plain Python lists index faster than NumPy scalars inside the cycle
        engine's tight search loops; the one-off conversion is cached here so
        a batch (or a cached artifact) pays it a single time.
        """
        if self._lists is None:
            csr = self.to_csr()
            transpose = self.transpose_csr()
            with self._build_lock:
                if self._lists is None:
                    self._lists = (
                        csr.indptr.tolist(),
                        csr.indices.tolist(),
                        transpose.indptr.tolist(),
                        transpose.indices.tolist(),
                    )
        return self._lists

    def folded_transition_transpose(self, alpha: float, *, reverse: bool = False):
        """Return ``[alpha * P^T ; alpha * nd]`` in CSR form, cached per alpha.

        ``P`` is the row-stochastic transition matrix of the graph (rows of
        dangling nodes all-zero) — of the *reversed* graph when ``reverse``
        is true, which is what CheiRank iterates on — and ``nd`` is the row
        that is 1 on every node with out-edges.  The matrix has ``n + 1``
        rows and ``n`` columns: the power iteration multiplies its scores by
        it every step, and the last row of the product is the mass each
        column kept, so the mass lost to dangling nodes and teleportation
        comes out of the same sparse product.  Matrices are cached per
        ``(alpha, reverse)``; at most :data:`MAX_FOLDED_TRANSITIONS` are
        retained (least recently used evicted), bounding the artifact's
        footprint against alpha-sweeping clients.  The returned matrix is
        shared: treat it as read-only.
        """
        alpha = require_probability(alpha, "alpha")
        key = (alpha, bool(reverse))
        with self._build_lock:
            cached = self._folded_transitions.get(key)
            if cached is not None:
                self._folded_transitions.move_to_end(key)
                return cached
        # Function-local import: repro.algorithms imports this module at
        # package-init time, so a top-level import would be circular.
        from ..algorithms.pagerank import transition_matrix

        csr = self.transpose_csr() if reverse else self.to_csr()
        transposed = transition_matrix(csr).transpose().tocsr()
        # The mass row is appended to the CSR arrays directly.
        leaving = np.flatnonzero(csr.out_degrees())
        folded = csr_matrix(
            (
                np.append(transposed.data * alpha, np.full(leaving.size, alpha)),
                np.append(transposed.indices, leaving),
                np.append(transposed.indptr, transposed.nnz + leaving.size),
            ),
            shape=(csr.number_of_nodes() + 1, csr.number_of_nodes()),
        )
        with self._build_lock:
            existing = self._folded_transitions.setdefault(key, folded)
            self._folded_transitions.move_to_end(key)
            while len(self._folded_transitions) > MAX_FOLDED_TRANSITIONS:
                self._folded_transitions.popitem(last=False)
            return existing

    def content_digest(self) -> bytes:
        """Return a BLAKE2b digest of the graph's name, raw labels and CSR.

        Two artifacts share a digest exactly when they hold the same graph:
        the same name, the same stored label (or none) on every node id, and
        the same successors of every node.  Edge insertion order does not
        matter (CSR rows are sorted).  The result cache keys rankings by it.
        """
        if self._content_digest is None:
            csr = self.to_csr()
            with self._build_lock:
                if self._content_digest is None:
                    hasher = hashlib.blake2b(digest_size=16)
                    hasher.update(
                        json.dumps([self._graph.name, self._graph.raw_labels()]).encode()
                    )
                    hasher.update(csr.indptr.tobytes())
                    hasher.update(csr.indices.tobytes())
                    self._content_digest = hasher.digest()
        return self._content_digest

    def labels_array(self) -> np.ndarray:
        """Return the node labels as a (cached, read-only) NumPy string array.

        Batch kernels attach this one shared array to every
        :class:`~repro.ranking.result.Ranking` they produce (views, no copies).
        The array is interned per :meth:`content_digest`, so artifacts of
        equal content (re-uploads of one graph) hand out the same array.
        """
        if self._labels_array is None:
            digest = self.content_digest()
            with self._build_lock:
                if self._labels_array is None:
                    with _INTERN_LOCK:
                        labels = _INTERNED_LABELS.get(digest)
                        if labels is None:
                            labels = np.asarray(self._graph.labels(), dtype=str)
                            labels.setflags(write=False)
                            _INTERNED_LABELS[digest] = labels
                    self._labels_array = labels
        return self._labels_array

    # ------------------------------------------------------------------ #
    # graph facade
    # ------------------------------------------------------------------ #
    def __getattr__(self, name: str):
        # Fallback for everything DirectedGraph offers (resolve, labels,
        # successors, number_of_nodes, name, ...): the artifact is usable
        # wherever a graph is expected.
        return getattr(self._graph, name)

    def __len__(self) -> int:
        return len(self._graph)

    def __contains__(self, ref: object) -> bool:
        return ref in self._graph

    def __iter__(self):
        return iter(self._graph)

    def __repr__(self) -> str:
        return f"<CompiledGraph of {self._graph!r}>"


def compiled_of(graph) -> CompiledGraph:
    """Return ``graph`` as a :class:`CompiledGraph`, wrapping it if needed.

    Algorithms call this on their ``graph`` argument: when the platform hands
    them a cached artifact the precompiled structures are reused, and a bare
    :class:`DirectedGraph` still works (a throwaway artifact is built for the
    duration of the call).
    """
    if isinstance(graph, CompiledGraph):
        return graph
    return CompiledGraph(graph)
