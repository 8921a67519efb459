"""CheiRank: PageRank computed on the transposed graph.

Chepelianskii (2010) observed that running PageRank on the graph with every
edge reversed measures how "communicative" a node is — how many relevant
nodes it points *to* rather than how many point to it.  Zhirov et al. later
combined CheiRank with PageRank into the two-dimensional ranking (2DRank)
also included in the demo.

The implementation is intentionally a thin wrapper: ``CheiRank(G, ...) ==
PageRank(Gᵀ, ...)`` by definition, and the equality is asserted exactly by a
property test.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..graph.compiled import compiled_of
from ..graph.digraph import DirectedGraph
from ..ranking.result import Ranking
from .pagerank import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    power_iteration,
    power_iteration_batch,
)
from .personalized_pagerank import (
    DEFAULT_PPR_ALPHA,
    ReferenceSpec,
    _reference_label_for,
    teleport_vector_for,
)

__all__ = ["cheirank", "personalized_cheirank", "personalized_cheirank_batch"]


def cheirank(
    graph: DirectedGraph,
    *,
    alpha: float = DEFAULT_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Ranking:
    """Compute the global CheiRank of every node.

    Parameters mirror :func:`~repro.algorithms.pagerank.pagerank`; the only
    difference is that the random surfer follows edges backwards.
    """
    transposed = graph.transpose()
    csr = transposed.to_csr()
    scores, iterations = power_iteration(csr, alpha=alpha, tol=tol, max_iter=max_iter)
    return Ranking(
        scores,
        labels=graph.labels(),
        algorithm="CheiRank",
        parameters={"alpha": alpha, "tol": tol, "max_iter": max_iter, "iterations": iterations},
        graph_name=graph.name,
    )


def personalized_cheirank(
    graph: DirectedGraph,
    reference: ReferenceSpec,
    *,
    alpha: float = DEFAULT_PPR_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Ranking:
    """Compute Personalized CheiRank: PPR on the transposed graph.

    The teleport is concentrated on ``reference`` exactly as in
    :func:`~repro.algorithms.personalized_pagerank.personalized_pagerank`,
    but the walk follows reversed edges, measuring relevance through
    *outgoing* connectivity of the reference node.
    """
    transposed = graph.transpose()
    teleport = teleport_vector_for(transposed, reference)
    csr = transposed.to_csr()
    scores, iterations = power_iteration(
        csr, alpha=alpha, teleport=teleport, tol=tol, max_iter=max_iter
    )
    reference_label = _reference_label_for(graph, reference)
    return Ranking(
        scores,
        labels=graph.labels(),
        algorithm="Personalized CheiRank",
        parameters={"alpha": alpha, "tol": tol, "max_iter": max_iter, "iterations": iterations},
        graph_name=graph.name,
        reference=reference_label,
    )


def personalized_cheirank_batch(
    graph: DirectedGraph,
    references: Sequence[ReferenceSpec],
    *,
    alpha: float = DEFAULT_PPR_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> List[Ranking]:
    """Compute Personalized CheiRank for many references in one pass.

    The reversed-graph CSR and the alpha-folded transition matrix come from
    the graph's :class:`~repro.graph.compiled.CompiledGraph` artifact
    (``reverse=True`` direction), so a batch shares them across every
    reference — and repeat batches on a platform-cached artifact skip the
    build entirely; all teleport vectors then power-iterate together (the
    batched analogue of :func:`personalized_cheirank`).
    """
    references = list(references)
    if not references:
        return []
    compiled = compiled_of(graph)
    teleports = np.column_stack(
        [teleport_vector_for(graph, reference) for reference in references]
    )
    scores, iterations = power_iteration_batch(
        compiled.transpose_csr(),
        alpha=alpha,
        teleports=teleports,
        tol=tol,
        max_iter=max_iter,
        transition_t=compiled.folded_transition_transpose(alpha, reverse=True),
    )
    # One shared label array for the whole batch (Ranking reuses it as-is).
    labels = compiled.labels_array()
    return [
        Ranking(
            scores[:, column],
            labels=labels,
            algorithm="Personalized CheiRank",
            parameters={
                "alpha": alpha,
                "tol": tol,
                "max_iter": max_iter,
                "iterations": iterations,
            },
            graph_name=graph.name,
            reference=_reference_label_for(graph, reference),
        )
        for column, reference in enumerate(references)
    ]
