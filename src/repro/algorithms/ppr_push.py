"""Approximate Personalized PageRank via forward push (Andersen–Chung–Lang).

The forward-push (a.k.a. local push) algorithm maintains, for every node, an
*estimate* ``p`` and a *residual* ``r`` such that the exact PPR vector equals
``p`` plus the PPR of ``r``.  It repeatedly picks a node whose residual
exceeds ``epsilon * outdeg`` and pushes a ``(1 - alpha)`` fraction of it into
the estimate, spreading the rest over the node's successors.  The result is a
sparse, local approximation whose support stays near the reference node —
exactly the regime the demo needs for interactive queries on large graphs.

The approximation guarantee is the classic one: for every node ``v``,
``|ppr(v) - p(v)| <= epsilon * outdeg(v)``.

Note on convention: this implementation uses ``alpha`` as the *damping*
factor (probability of continuing the walk), matching the rest of the
library, rather than the restart-probability convention of the original
paper.
"""

from __future__ import annotations

from collections import deque
from typing import List, Sequence, Tuple

import numpy as np

from .._validation import require_positive_float, require_positive_int, require_probability
from ..graph.compiled import compiled_of
from ..graph.digraph import DirectedGraph
from ..ranking.result import Ranking
from .personalized_pagerank import (
    DEFAULT_PPR_ALPHA,
    ReferenceSpec,
    _reference_label_for,
    teleport_vector_for,
)

__all__ = ["ppr_push", "ppr_push_batch"]

DEFAULT_EPSILON = 1e-6
DEFAULT_MAX_PUSHES = 10_000_000


def ppr_push(
    graph: DirectedGraph,
    reference: ReferenceSpec,
    *,
    alpha: float = DEFAULT_PPR_ALPHA,
    epsilon: float = DEFAULT_EPSILON,
    max_pushes: int = DEFAULT_MAX_PUSHES,
) -> Ranking:
    """Approximate Personalized PageRank by forward push.

    Parameters
    ----------
    graph:
        The directed graph to rank.
    reference:
        The query node (id or label), node set, or weighted teleport mapping.
    alpha:
        Damping factor (probability of following an edge).
    epsilon:
        Per-out-degree residual threshold controlling the accuracy/locality
        trade-off; smaller values give estimates closer to exact PPR.
    max_pushes:
        Safety cap on the number of push operations.

    Returns
    -------
    Ranking
        Approximate PPR scores normalised to sum to 1 (so they are directly
        comparable with the exact solver's output).
    """
    alpha = require_probability(alpha, "alpha")
    epsilon = require_positive_float(epsilon, "epsilon")
    require_positive_int(max_pushes, "max_pushes")

    teleport = teleport_vector_for(graph, reference)
    out_degrees = np.asarray(graph.out_degrees(), dtype=np.float64)
    successor_lists = graph.successor_lists()
    estimate, pushes = _push_core(
        teleport,
        out_degrees,
        successor_lists,
        alpha=alpha,
        epsilon=epsilon,
        max_pushes=max_pushes,
    )
    return Ranking(
        estimate,
        labels=graph.labels(),
        algorithm="PPR (forward push)",
        parameters={"alpha": alpha, "epsilon": epsilon, "pushes": pushes},
        graph_name=graph.name,
        reference=_reference_label_for(graph, reference),
    )


def _push_core(
    teleport: np.ndarray,
    out_degrees: np.ndarray,
    successor_lists,
    *,
    alpha: float,
    epsilon: float,
    max_pushes: int,
) -> Tuple[np.ndarray, int]:
    """Run the forward-push loop for one teleport vector.

    Shared by the single-query and the batched entry points so both produce
    bit-identical estimates; returns the normalised estimate and the number
    of pushes performed.
    """
    n = teleport.size
    estimate = np.zeros(n, dtype=np.float64)
    residual = teleport.copy()

    # Work queue of nodes whose residual may exceed the push threshold.
    queue = deque(int(node) for node in np.nonzero(residual)[0])
    queued = set(queue)
    pushes = 0
    while queue and pushes < max_pushes:
        node = queue.popleft()
        queued.discard(node)
        degree = out_degrees[node]
        threshold = epsilon * max(degree, 1.0)
        if residual[node] < threshold:
            continue
        pushes += 1
        mass = residual[node]
        residual[node] = 0.0
        estimate[node] += (1.0 - alpha) * mass
        if degree > 0:
            share = alpha * mass / degree
            for successor in successor_lists[node]:
                residual[successor] += share
                if successor not in queued and residual[successor] >= epsilon * max(
                    out_degrees[successor], 1.0
                ):
                    queue.append(successor)
                    queued.add(successor)
        else:
            # Dangling node: its continued mass restarts at the teleport
            # distribution, mirroring the exact solver's dangling fix.
            restart = alpha * mass
            residual += restart * teleport
            for target in np.nonzero(teleport)[0]:
                target = int(target)
                if target not in queued:
                    queue.append(target)
                    queued.add(target)
        # Re-examine the node itself if teleport pushed mass back onto it.
        if residual[node] >= threshold and node not in queued:
            queue.append(node)
            queued.add(node)

    total = estimate.sum()
    if total > 0:
        estimate = estimate / total
    return estimate, pushes


def ppr_push_batch(
    graph: DirectedGraph,
    references: Sequence[ReferenceSpec],
    *,
    alpha: float = DEFAULT_PPR_ALPHA,
    epsilon: float = DEFAULT_EPSILON,
    max_pushes: int = DEFAULT_MAX_PUSHES,
) -> List[Ranking]:
    """Approximate Personalized PageRank by forward push for many references.

    The push loop is inherently per-reference, but the out-degree vector and
    the successor lists (the expensive graph-shaped precomputation) are built
    once and shared by the whole batch.  Each result is bit-identical to the
    corresponding single :func:`ppr_push` call.
    """
    references = list(references)
    if not references:
        return []
    alpha = require_probability(alpha, "alpha")
    epsilon = require_positive_float(epsilon, "epsilon")
    require_positive_int(max_pushes, "max_pushes")

    out_degrees = np.asarray(graph.out_degrees(), dtype=np.float64)
    successor_lists = graph.successor_lists()
    labels = compiled_of(graph).labels_array()
    results = []
    for reference in references:
        teleport = teleport_vector_for(graph, reference)
        estimate, pushes = _push_core(
            teleport,
            out_degrees,
            successor_lists,
            alpha=alpha,
            epsilon=epsilon,
            max_pushes=max_pushes,
        )
        results.append(
            Ranking(
                estimate,
                labels=labels,
                algorithm="PPR (forward push)",
                parameters={"alpha": alpha, "epsilon": epsilon, "pushes": pushes},
                graph_name=graph.name,
                reference=_reference_label_for(graph, reference),
            )
        )
    return results
