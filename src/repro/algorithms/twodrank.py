"""2DRank: the two-dimensional combination of PageRank and CheiRank.

Zhirov, Zhirov & Shepelyansky (2010) place every node in the plane spanned by
its PageRank rank ``K`` and its CheiRank rank ``K*`` and read off a single
combined ranking by scanning squares of growing side length: a node enters
the 2DRank order when the square ``[1..r] × [1..r]`` first contains its
``(K, K*)`` point, i.e. at ``r = max(K, K*)``.  Nodes entering at the same
``r`` are ordered along the two new sides of the square — first down the
vertical side (``K = r``, increasing ``K*``), then along the horizontal side
(``K* = r``, increasing ``K``), with the corner ``(r, r)`` last.

As the paper notes, 2DRank "does not assign a score to each node, but just
produces a ranking"; the returned :class:`Ranking` therefore carries a
synthetic score of ``1 / position`` purely so it can flow through the same
comparison machinery as the score-based algorithms.

2DRank is thus a function of two other rankings and computes nothing of its
own.  :func:`combine_twodrank` is that function, and the only place a 2DRank
ranking is built: the library calls below compute their PageRank and
CheiRank and pass them to it, and the registry's ``2drank`` and
``personalized-2drank`` declare those two rankings as their ``inputs`` and
``combine`` them with it.  The platform resolves declared inputs through its
result cache, so a comparison asking for PPR, CheiRank and 2DRank on one
source runs each power iteration once.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..graph.compiled import compiled_of
from ..graph.digraph import DirectedGraph
from ..ranking.result import Ranking
from .cheirank import cheirank, personalized_cheirank_batch
from .pagerank import DEFAULT_ALPHA, DEFAULT_MAX_ITER, DEFAULT_TOL, pagerank
from .personalized_pagerank import (
    DEFAULT_PPR_ALPHA,
    ReferenceSpec,
    personalized_pagerank_batch,
)

__all__ = [
    "twodrank",
    "personalized_twodrank",
    "personalized_twodrank_batch",
    "two_dimensional_order",
    "combine_twodrank",
]


#: Relative gap within which two scores are one tie when 2DRank reads the
#: ranks ``K`` and ``K*``.  Structurally tied nodes (say, two leaves of the
#: same hub) can come out of one power iteration split by an ulp, because
#: their sums run over different rows of the sparse product.  Reading that
#: split as an order would rank them by rounding noise, not by structure;
#: without this re-sort the order changes in 6 of 1,000 catalog queries
#: (20 sources on each of the 50 catalog graphs).
TIE_RTOL = 1e-9


def _tie_aware_ranks(ranking: Ranking) -> np.ndarray:
    """Return each node's 1-based rank, breaking near-ties by label then id.

    Exact ties already follow that rule in :class:`Ranking`; scores within
    :data:`TIE_RTOL` of each other are re-sorted the same way.
    """
    order = np.asarray(ranking.ordered_nodes(), dtype=np.int64)
    ranks = np.empty(order.size, dtype=np.int64)
    ordered = ranking.scores[order]
    split = ~np.isclose(ordered[1:], ordered[:-1], rtol=TIE_RTOL, atol=0.0)
    if not np.array_equal(split, ordered[1:] != ordered[:-1]):
        group = np.concatenate(([0], np.cumsum(split)))
        order = order[np.lexsort((order, ranking.labels[order], group))]
    ranks[order] = np.arange(1, order.size + 1)
    return ranks


def two_dimensional_order(pagerank_ranking: Ranking, cheirank_ranking: Ranking) -> List[int]:
    """Return node ids in 2DRank order given a PageRank and a CheiRank ranking.

    Both rankings must cover the same node set (same length, same labels).
    """
    if len(pagerank_ranking) != len(cheirank_ranking):
        raise ValueError(
            "PageRank and CheiRank rankings cover different node sets "
            f"({len(pagerank_ranking)} vs {len(cheirank_ranking)} nodes)"
        )
    k = _tie_aware_ranks(pagerank_ranking)
    k_star = _tie_aware_ranks(cheirank_ranking)
    r = np.maximum(k, k_star)
    # A node enters at r = max(K, K*): down the vertical side (K = r) by
    # increasing K*, then along the horizontal side by increasing K, and the
    # corner (r, r) last.
    corner = k == k_star
    side = np.where(corner, 2, np.where(k == r, 0, 1))
    offset = np.where(corner, 0, np.minimum(k, k_star))
    node = np.arange(k.size)
    return np.lexsort((node, offset, side, r)).tolist()


def combine_twodrank(
    pagerank_ranking: Ranking,
    cheirank_ranking: Ranking,
    *,
    algorithm: str,
    parameters: dict,
) -> Ranking:
    """Return the 2DRank of a PageRank and a CheiRank ranking of one graph.

    The scores encode only the position in :func:`two_dimensional_order`
    (``1 / position``); labels, graph name and reference come from the
    PageRank ranking.
    """
    order = two_dimensional_order(pagerank_ranking, cheirank_ranking)
    scores = np.zeros(len(order), dtype=np.float64)
    scores[order] = 1.0 / np.arange(1, len(order) + 1)
    return Ranking(
        scores,
        labels=pagerank_ranking.labels,
        algorithm=algorithm,
        parameters=parameters,
        graph_name=pagerank_ranking.graph_name,
        reference=pagerank_ranking.reference,
    )


def twodrank(
    graph: DirectedGraph,
    *,
    alpha: float = DEFAULT_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Ranking:
    """Compute the global 2DRank ordering of every node.

    Parameters
    ----------
    alpha, tol, max_iter:
        Passed to the underlying PageRank and CheiRank computations (both use
        the same damping factor, as in the original 2DRank formulation).
    """
    compiled = compiled_of(graph)
    return combine_twodrank(
        pagerank(compiled, alpha=alpha, tol=tol, max_iter=max_iter),
        cheirank(compiled, alpha=alpha, tol=tol, max_iter=max_iter),
        algorithm="2DRank",
        parameters={"alpha": alpha, "tol": tol, "max_iter": max_iter},
    )


def personalized_twodrank(
    graph: DirectedGraph,
    reference: ReferenceSpec,
    *,
    alpha: float = DEFAULT_PPR_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Ranking:
    """Compute the personalized 2DRank ordering with respect to ``reference``.

    The two underlying rankings are Personalized PageRank and Personalized
    CheiRank with the same reference node, combined with the same
    square-scanning rule as the global variant.
    """
    return personalized_twodrank_batch(
        graph, [reference], alpha=alpha, tol=tol, max_iter=max_iter
    )[0]


def personalized_twodrank_batch(
    graph: DirectedGraph,
    references: Sequence[ReferenceSpec],
    *,
    alpha: float = DEFAULT_PPR_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> List[Ranking]:
    """Compute personalized 2DRank for many references in one pass.

    Both underlying rankings come from the one power-iteration kernel over
    the graph's compiled artifact, so the graph and its transpose are each
    compiled once for the whole batch.
    """
    references = list(references)
    if not references:
        return []
    graph = compiled_of(graph)
    pprs = personalized_pagerank_batch(
        graph, references, alpha=alpha, tol=tol, max_iter=max_iter
    )
    pcrs = personalized_cheirank_batch(
        graph, references, alpha=alpha, tol=tol, max_iter=max_iter
    )
    parameters = {"alpha": alpha, "tol": tol, "max_iter": max_iter}
    return [
        combine_twodrank(
            ppr, pcr, algorithm="Personalized 2DRank", parameters=parameters
        )
        for ppr, pcr in zip(pprs, pcrs)
    ]
