"""CycleRank: personalized relevance from cyclic paths (the paper's contribution).

Given a directed graph ``G``, a reference node ``r`` and a maximum cycle
length ``K``, the CycleRank score of node ``i`` is (Equation 1)::

    CR_{r,K}(i) = sum_{n=2}^{K} sigma(n) * c_{r,n}(i)

where ``c_{r,n}(i)`` is the number of simple cycles of length ``n`` that
contain both ``r`` and ``i``, and ``sigma`` is a non-increasing scoring
function that rewards shorter cycles (the paper uses ``sigma(n) = e^{-n}``).

Intuition: a node linked *from* the reference but not back is probably
globally relevant yet unrelated; a node linking *to* the reference but not
linked back is related but not relevant; only nodes connected in both
directions — directly or through short indirect paths — are both related and
relevant, and those are exactly the nodes lying on short cycles through the
reference.  By construction the reference node participates in every counted
cycle and therefore receives the maximum score.

For ``K <= 4`` the per-node counts ``c_{r,n}(i)`` have a closed form over
the rows of ``succ(r)`` and ``pred(r)`` (:func:`_cycle_counts_short`, the
local form of cycle counting by adjacency products of Alon, Yuster & Zwick,
"Finding and counting given length cycles", Algorithmica 1997), so no cycle
is enumerated.  Longer cycles are enumerated on the CSR-native
:class:`~repro.algorithms.cycle_enumeration.CycleSearchEngine` and tallied
into the same integer counts.  Both kernels feed one weighted sum, so equal
counts give bit-identical scores (nodes with equal count vectors tie
exactly), and :func:`cyclerank_batch` — which shares the compiled arrays and
one label array across a batch of references, per query group on the
platform — is bit-identical to per-reference :func:`cyclerank` calls.  The
scores follow Consonni, Laniado & Montresor, "Discovering topical contexts
from links in Wikipedia" (2020).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .._validation import require_positive_int
from ..exceptions import InvalidParameterError
from ..graph.compiled import compiled_of
from ..graph.digraph import DirectedGraph, NodeRef
from ..ranking.result import Ranking
from ..scoring import ScoringFunction, get_scoring_function
from .cycle_enumeration import (
    CycleSearchEngine,
    enumerate_cycles_through_dict,
    gather_csr_rows,
)

__all__ = [
    "cyclerank",
    "cyclerank_batch",
    "cyclerank_reference",
    "CycleRankStatistics",
]

#: Default maximum cycle length; the paper uses K=3 for Wikipedia and K=5 for
#: the sparser Amazon co-purchase graph.
DEFAULT_MAX_CYCLE_LENGTH = 3


@dataclass
class CycleRankStatistics:
    """Diagnostics collected during a CycleRank run.

    Attributes
    ----------
    cycles_by_length:
        ``{cycle length: number of cycles}`` enumerated through the reference.
    total_cycles:
        Total number of cycles enumerated.
    nodes_on_cycles:
        Number of distinct nodes (including the reference) lying on at least
        one counted cycle — exactly the nodes with a positive score.
    """

    cycles_by_length: Dict[int, int] = field(default_factory=dict)
    total_cycles: int = 0
    nodes_on_cycles: int = 0


def _validate_cyclerank_parameters(
    max_cycle_length: int, scoring: ScoringFunction | str
) -> Tuple[ScoringFunction, Dict[int, float]]:
    """Validate K, resolve sigma and precompute its weight per cycle length."""
    require_positive_int(max_cycle_length, "max_cycle_length")
    if max_cycle_length < 2:
        raise InvalidParameterError(
            f"max_cycle_length must be >= 2, got {max_cycle_length}"
        )
    scoring_function = get_scoring_function(scoring)
    weights = {
        length: weight
        for length, weight in zip(
            range(2, max_cycle_length + 1),
            scoring_function.weights_up_to(max_cycle_length),
        )
    }
    return scoring_function, weights


#: Up to this cycle length the per-reference counts come from the closed-form
#: counting kernel instead of the DFS enumeration.
_SHORT_KERNEL_MAX_K = 4


def _gather_rows(owners: np.ndarray, csr, neighbours_of) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(owner, neighbour)`` pairs for every entry of the owners' rows.

    ``csr`` is a compiled CSR (or its transpose) read with one vectorised
    gather; without it the rows come from ``neighbours_of`` (the graph's
    successor or predecessor sets), so a one-off query never pays an O(m)
    conversion.  Both sources give the same pairs as multisets.
    """
    if csr is not None:
        counts, neighbours = gather_csr_rows(csr.indptr, csr.indices, owners)
    else:
        rows = []
        for owner in owners.tolist():
            row = neighbours_of(owner)
            rows.append(np.fromiter(row, dtype=np.int64, count=len(row)))
        counts = [row.size for row in rows]
        neighbours = np.concatenate(rows)
    return np.repeat(owners, counts), neighbours


def _cycle_counts_short(compiled, root: int, max_cycle_length: int) -> Dict[int, np.ndarray]:
    """Closed-form per-node cycle counts for ``K <= 4`` — no enumeration.

    Returns ``{length: counts}`` where ``counts[i]`` is the number of simple
    cycles of that length through ``root`` that contain ``i`` (the root's
    entry is the total), for every length with at least one cycle.  With
    ``S = succ(r) \\ {r}`` and ``P = pred(r) \\ {r}``, and every self-loop and
    every other edge touching ``r`` dropped:

    * length 2, ``r -> a -> r``: one count per node of ``S ∩ P``;
    * length 3, ``r -> a -> b -> r``: the pairs ``a ∈ S``, ``b ∈ P`` with
      ``a -> b`` (``a ≠ b``), counted at both ends;
    * length 4, ``r -> a -> b -> c -> r``: with ``u_b = #{a ∈ S : a -> b}``,
      ``v_b = #{c ∈ P : b -> c}``, ``R(a)`` the reciprocal neighbours of
      ``a ∈ S ∩ P`` and ``ρ_b = #{a ∈ S ∩ P : b ∈ R(a)}`` (which removes the
      non-simple ``a = c`` walks),

      - ``mid_b = u_b·v_b − ρ_b``,
      - ``first_a = Σ_{a -> b} v_b − |R(a)|`` for ``a ∈ S``,
      - ``last_c = Σ_{b -> c} u_b − |R(c)|`` for ``c ∈ P``,

      and the root's count is ``Σ mid``.  This is the local form of cycle
      counting by adjacency products (Alon, Yuster & Zwick, "Finding and
      counting given length cycles", Algorithmica 1997).

    Everything is integer gathers over the rows of ``S`` (in the CSR) and of
    ``P`` (in the transpose); ``R`` is found by matching ``(a, b)`` keys
    between the two gathers.  A warmed artifact (``csr_ready``) serves rows
    from its compiled arrays, a bare graph from its adjacency sets; both
    yield identical counts.
    """
    num_nodes = compiled.number_of_nodes()
    counts: Dict[int, np.ndarray] = {}
    if compiled.csr_ready:
        csr = compiled.to_csr()
        successors_of_root = csr.indices[csr.indptr[root] : csr.indptr[root + 1]]
    else:
        csr = None
        root_successors = compiled.successors(root)
        successors_of_root = np.sort(
            np.fromiter(root_successors, dtype=np.int64, count=len(root_successors))
        )
    root_predecessors = compiled.predecessors(root)
    predecessors_of_root = np.sort(
        np.fromiter(root_predecessors, dtype=np.int64, count=len(root_predecessors))
    )
    first_nodes = successors_of_root[successors_of_root != root]
    last_nodes = predecessors_of_root[predecessors_of_root != root]
    if not (first_nodes.size and last_nodes.size):
        return counts
    in_last = np.zeros(num_nodes, dtype=bool)
    in_last[last_nodes] = True

    # Length 2: reciprocated edges with the root.
    reciprocal = first_nodes[in_last[first_nodes]]
    if reciprocal.size:
        counts[2] = np.zeros(num_nodes, dtype=np.int64)
        counts[2][reciprocal] = 1
        counts[2][root] = reciprocal.size
    if max_cycle_length < 3:
        return counts

    # Edges a -> b out of S, without self-loops and edges into the root.
    graph = compiled.graph
    a_nodes, ab_nodes = _gather_rows(first_nodes, csr, graph.successors)
    keep = (ab_nodes != root) & (ab_nodes != a_nodes)
    a_nodes, ab_nodes = a_nodes[keep], ab_nodes[keep]

    # Length 3: the a -> b edges that land in P.
    closing = in_last[ab_nodes]
    triangles = int(np.count_nonzero(closing))
    if triangles:
        counts[3] = np.bincount(a_nodes[closing], minlength=num_nodes) + np.bincount(
            ab_nodes[closing], minlength=num_nodes
        )
        counts[3][root] = triangles
    if max_cycle_length < 4:
        return counts

    # Edges b -> c into P, without self-loops and edges out of the root.
    transpose = compiled.transpose_csr() if csr is not None else None
    c_nodes, bc_nodes = _gather_rows(last_nodes, transpose, graph.predecessors)
    keep = (bc_nodes != root) & (bc_nodes != c_nodes)
    c_nodes, bc_nodes = c_nodes[keep], bc_nodes[keep]

    into = np.bincount(ab_nodes, minlength=num_nodes)  # u_b
    out_of = np.bincount(bc_nodes, minlength=num_nodes)  # v_b
    # Reciprocal pairs a <-> b for a ∈ S ∩ P: an a -> b edge of the S gather
    # whose (a, b) key also appears as a b -> a edge of the P gather.
    in_first = np.zeros(num_nodes, dtype=bool)
    in_first[first_nodes] = True
    from_both = in_last[a_nodes]
    to_both = in_first[c_nodes]
    matched = np.intersect1d(
        a_nodes[from_both] * num_nodes + ab_nodes[from_both],
        c_nodes[to_both] * num_nodes + bc_nodes[to_both],
        assume_unique=True,
    )
    reciprocal_owner, reciprocal_other = np.divmod(matched, num_nodes)
    reciprocal_count = np.bincount(reciprocal_owner, minlength=num_nodes)  # |R(a)|
    middle = into * out_of - np.bincount(reciprocal_other, minlength=num_nodes)
    quadrilaterals = int(middle.sum())
    if quadrilaterals:
        # Weighted bincounts sum integers far below 2**53, so the float64
        # round trip is exact.
        first = np.bincount(a_nodes, weights=out_of[ab_nodes], minlength=num_nodes)
        last = np.bincount(c_nodes, weights=into[bc_nodes], minlength=num_nodes)
        counts[4] = (
            first.astype(np.int64) + last.astype(np.int64) - 2 * reciprocal_count + middle
        )
        counts[4][root] = quadrilaterals
    return counts


def _cycle_counts(cycles: Iterable[Tuple[int, ...]], num_nodes: int) -> Dict[int, np.ndarray]:
    """Per-node integer cycle counts, by length, over a stream of cycles.

    The stream may come from a shared :class:`CycleSearchEngine` (batches,
    warmed artifacts) or from the dictionary walk (one-off queries on a bare
    graph); both enumerate the same cycles.  The result has the shape of
    :func:`_cycle_counts_short`, which agrees with it exactly for ``K <= 4``.
    """
    members: Dict[int, List[int]] = {}
    for cycle in cycles:
        nodes = members.get(len(cycle))
        if nodes is None:
            nodes = members[len(cycle)] = []
        nodes.extend(cycle)
    return {
        length: np.bincount(np.asarray(nodes, dtype=np.int64), minlength=num_nodes)
        for length, nodes in sorted(members.items())
    }


def _weighted_scores(
    counts: Dict[int, np.ndarray], weights: Dict[int, float], num_nodes: int
) -> np.ndarray:
    """Equation 1: ``Σ_n sigma(n) * c_n``, summed in increasing length order.

    Both kernels go through this one sum, so equal counts give bit-identical
    scores, and nodes with equal count vectors tie exactly.
    """
    if not counts:
        return np.zeros(num_nodes, dtype=np.float64)
    lengths = sorted(counts)
    scores = weights[lengths[0]] * counts[lengths[0]]
    for length in lengths[1:]:
        scores += weights[length] * counts[length]
    return scores


def _fill_statistics(
    statistics: Optional[CycleRankStatistics], counts: Dict[int, np.ndarray], root: int
) -> None:
    if statistics is None:
        return
    # The root lies on every counted cycle, so its entries are the totals.
    statistics.cycles_by_length = {
        length: int(per_node[root]) for length, per_node in counts.items()
    }
    statistics.total_cycles = sum(statistics.cycles_by_length.values())
    statistics.nodes_on_cycles = int(np.count_nonzero(sum(counts.values())))


def cyclerank(
    graph: DirectedGraph,
    reference: NodeRef,
    *,
    max_cycle_length: int = DEFAULT_MAX_CYCLE_LENGTH,
    scoring: ScoringFunction | str = "exp",
    statistics: Optional[CycleRankStatistics] = None,
) -> Ranking:
    """Compute CycleRank scores with respect to ``reference``.

    Parameters
    ----------
    graph:
        The directed graph to rank (a compiled artifact is accepted too).
    reference:
        The reference (query) node, by id or label.
    max_cycle_length:
        The parameter ``K`` of Equation 1 — only cycles of length 2..K are
        counted.  Must be at least 2.
    scoring:
        The scoring function σ, either a
        :class:`~repro.scoring.ScoringFunction` instance or a registry name
        (``"exp"``, ``"lin"``, ``"quad"``, ``"const"``).
    statistics:
        Optional :class:`CycleRankStatistics` instance that will be filled
        with run diagnostics (cycle counts per length).

    Returns
    -------
    Ranking
        Non-negative scores; nodes on no qualifying cycle score 0 and the
        reference node holds the maximum score.
    """
    scoring_function, weights = _validate_cyclerank_parameters(max_cycle_length, scoring)
    compiled = compiled_of(graph)
    root = compiled.resolve(reference)
    num_nodes = compiled.number_of_nodes()
    if max_cycle_length <= _SHORT_KERNEL_MAX_K:
        counts = _cycle_counts_short(compiled, root, max_cycle_length)
    else:
        if compiled.csr_ready:
            # A warmed artifact (platform cache): reuse its compiled arrays.
            cycles = CycleSearchEngine.for_graph(compiled).cycles_from(
                root, max_cycle_length
            )
        else:
            # One-off query on a bare graph: the dictionary walk touches only
            # the reference's K-hop neighbourhood, so it beats paying an
            # O(n + m) conversion; the cycle sequence is identical.
            cycles = enumerate_cycles_through_dict(
                compiled.graph, root, max_cycle_length
            )
        counts = _cycle_counts(cycles, num_nodes)
    _fill_statistics(statistics, counts, root)
    scores = _weighted_scores(counts, weights, num_nodes)
    return Ranking(
        scores,
        labels=compiled.labels(),
        algorithm="CycleRank",
        parameters={
            "k": max_cycle_length,
            "sigma": scoring_function.name,
        },
        graph_name=compiled.name,
        reference=compiled.label_of(root),
    )


def cyclerank_batch(
    graph: DirectedGraph,
    references: Sequence[NodeRef],
    *,
    max_cycle_length: int = DEFAULT_MAX_CYCLE_LENGTH,
    scoring: ScoringFunction | str = "exp",
) -> List[Ranking]:
    """Compute CycleRank for many references against one graph.

    The graph-shaped structures — the CSR and its transpose (read by the
    closed-form kernel for ``K <= 4``), the search engine with its
    preallocated scratch arrays (``K >= 5``), and the shared label array —
    are built once and reused by every reference.  Scores are bit-identical
    to per-reference :func:`cyclerank` calls.

    Parameters
    ----------
    graph:
        The directed graph to rank (a compiled artifact is accepted too).
    references:
        One reference node (id or label) per query.
    max_cycle_length, scoring:
        As in :func:`cyclerank`, shared by the whole batch.

    Returns
    -------
    list of Ranking
        One ranking per reference, in input order.
    """
    scoring_function, weights = _validate_cyclerank_parameters(max_cycle_length, scoring)
    references = list(references)
    if not references:
        return []
    compiled = compiled_of(graph)
    roots = [compiled.resolve(reference) for reference in references]
    num_nodes = compiled.number_of_nodes()
    short_kernel = max_cycle_length <= _SHORT_KERNEL_MAX_K
    if short_kernel:
        # Compile the shared CSR up front: the whole batch reads rows from it.
        compiled.to_csr()
        engine = None
    else:
        engine = CycleSearchEngine.for_graph(compiled)
    labels = compiled.labels_array()
    rankings: List[Ranking] = []
    for root in roots:
        if short_kernel:
            counts = _cycle_counts_short(compiled, root, max_cycle_length)
        else:
            counts = _cycle_counts(engine.cycles_from(root, max_cycle_length), num_nodes)
        rankings.append(
            Ranking(
                _weighted_scores(counts, weights, num_nodes),
                labels=labels,
                algorithm="CycleRank",
                parameters={
                    "k": max_cycle_length,
                    "sigma": scoring_function.name,
                },
                graph_name=compiled.name,
                reference=compiled.label_of(root),
            )
        )
    return rankings


def cyclerank_reference(
    graph: DirectedGraph,
    reference: NodeRef,
    *,
    max_cycle_length: int = DEFAULT_MAX_CYCLE_LENGTH,
    scoring: ScoringFunction | str = "exp",
) -> Ranking:
    """The seed CycleRank implementation, kept as a comparison baseline.

    Dictionary-based enumeration (:func:`enumerate_cycles_through_dict`) with
    per-cycle score accumulation — exactly the pre-CSR code path.  The
    equivalence tests and the hot-path benchmark
    (``benchmarks/bench_cyclerank_hotpath.py``) measure the optimised
    kernels against this single shared baseline; it is not meant for
    production use.
    """
    scoring_function, weights = _validate_cyclerank_parameters(max_cycle_length, scoring)
    root = graph.resolve(reference)
    scores = np.zeros(graph.number_of_nodes(), dtype=np.float64)
    for cycle in enumerate_cycles_through_dict(graph, root, max_cycle_length):
        weight = weights[len(cycle)]
        for node in cycle:
            scores[node] += weight
    return Ranking(
        scores,
        labels=graph.labels(),
        algorithm="CycleRank",
        parameters={
            "k": max_cycle_length,
            "sigma": scoring_function.name,
        },
        graph_name=graph.name,
        reference=graph.label_of(root),
    )
