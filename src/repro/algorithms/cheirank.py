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
    _power_iteration_rankings,
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
    compiled = compiled_of(graph)
    return _power_iteration_rankings(
        compiled,
        np.ones((compiled.number_of_nodes(), 1)),
        algorithm="CheiRank",
        alpha=alpha,
        tol=tol,
        max_iter=max_iter,
        reverse=True,
    )[0]


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
    return personalized_cheirank_batch(
        graph, [reference], alpha=alpha, tol=tol, max_iter=max_iter
    )[0]


def personalized_cheirank_batch(
    graph: DirectedGraph,
    references: Sequence[ReferenceSpec],
    *,
    alpha: float = DEFAULT_PPR_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> List[Ranking]:
    """Compute Personalized CheiRank for many references in one pass.

    The reversed-graph folded transition matrix comes from the graph's
    :class:`~repro.graph.compiled.CompiledGraph` artifact (``reverse=True``
    direction), so a batch shares it across every reference — and repeat
    batches on a platform-cached artifact skip the build entirely; all
    teleport vectors then power-iterate together, each column bit for bit as
    :func:`personalized_cheirank` computes it alone.
    """
    references = list(references)
    if not references:
        return []
    teleports = np.column_stack(
        [teleport_vector_for(graph, reference) for reference in references]
    )
    return _power_iteration_rankings(
        compiled_of(graph),
        teleports,
        algorithm="Personalized CheiRank",
        alpha=alpha,
        tol=tol,
        max_iter=max_iter,
        reverse=True,
        references=[_reference_label_for(graph, reference) for reference in references],
    )
