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
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..graph.digraph import DirectedGraph
from ..ranking.result import Ranking
from .cheirank import cheirank, personalized_cheirank, personalized_cheirank_batch
from .pagerank import DEFAULT_ALPHA, DEFAULT_MAX_ITER, DEFAULT_TOL, pagerank
from .personalized_pagerank import (
    DEFAULT_PPR_ALPHA,
    ReferenceSpec,
    personalized_pagerank,
    personalized_pagerank_batch,
)

__all__ = [
    "twodrank",
    "personalized_twodrank",
    "personalized_twodrank_batch",
    "two_dimensional_order",
]


#: Relative gap within which two scores are one tie when 2DRank reads the
#: ranks ``K`` and ``K*``.  The batched and single-source kernels sum in
#: different orders, so an exact tie can come out split by an ulp either way;
#: reading that split as an order would make the two paths disagree.
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
    n = len(pagerank_ranking)
    order: List[int] = []
    entries = []
    pagerank_ranks = _tie_aware_ranks(pagerank_ranking).tolist()
    cheirank_ranks = _tie_aware_ranks(cheirank_ranking).tolist()
    for node in range(n):
        k = pagerank_ranks[node]
        k_star = cheirank_ranks[node]
        r = max(k, k_star)
        if k == r and k_star == r:
            side, offset = 2, 0  # the corner of the square enters last
        elif k == r:
            side, offset = 0, k_star  # vertical side, scanned by increasing K*
        else:
            side, offset = 1, k  # horizontal side, scanned by increasing K
        entries.append((r, side, offset, node))
    for _, _, _, node in sorted(entries):
        order.append(node)
    return order


def _ranking_from_order(
    order: List[int],
    template: Ranking,
    *,
    algorithm: str,
    parameters: dict,
    reference: str | None = None,
) -> Ranking:
    """Build a Ranking whose scores encode only the position in ``order``."""
    scores = np.zeros(len(order), dtype=np.float64)
    scores[order] = 1.0 / np.arange(1, len(order) + 1)
    return Ranking(
        scores,
        labels=template.labels,
        algorithm=algorithm,
        parameters=parameters,
        graph_name=template.graph_name,
        reference=reference,
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
    pr = pagerank(graph, alpha=alpha, tol=tol, max_iter=max_iter)
    cr = cheirank(graph, alpha=alpha, tol=tol, max_iter=max_iter)
    order = two_dimensional_order(pr, cr)
    return _ranking_from_order(
        order,
        pr,
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
    ppr = personalized_pagerank(graph, reference, alpha=alpha, tol=tol, max_iter=max_iter)
    pcr = personalized_cheirank(graph, reference, alpha=alpha, tol=tol, max_iter=max_iter)
    order = two_dimensional_order(ppr, pcr)
    return _ranking_from_order(
        order,
        ppr,
        algorithm="Personalized 2DRank",
        parameters={"alpha": alpha, "tol": tol, "max_iter": max_iter},
        reference=ppr.reference,
    )


def personalized_twodrank_batch(
    graph: DirectedGraph,
    references: Sequence[ReferenceSpec],
    *,
    alpha: float = DEFAULT_PPR_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> List[Ranking]:
    """Compute personalized 2DRank for many references in one pass.

    Both underlying rankings come from the batched kernels, so the graph and
    its transpose are each converted to CSR once for the whole batch.
    """
    references = list(references)
    if not references:
        return []
    pprs = personalized_pagerank_batch(
        graph, references, alpha=alpha, tol=tol, max_iter=max_iter
    )
    pcrs = personalized_cheirank_batch(
        graph, references, alpha=alpha, tol=tol, max_iter=max_iter
    )
    results = []
    for ppr, pcr in zip(pprs, pcrs):
        order = two_dimensional_order(ppr, pcr)
        results.append(
            _ranking_from_order(
                order,
                ppr,
                algorithm="Personalized 2DRank",
                parameters={"alpha": alpha, "tol": tol, "max_iter": max_iter},
                reference=ppr.reference,
            )
        )
    return results
