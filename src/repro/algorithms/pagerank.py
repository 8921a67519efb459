"""PageRank by power iteration on the column-stochastic transition matrix.

PageRank models a random surfer who, at every step, follows a uniformly
random outgoing edge with probability ``alpha`` (the damping factor, 0.85 in
the paper's global-ranking columns) and teleports to a random node with
probability ``1 - alpha``.  Dangling nodes (no outgoing edges) redistribute
their mass according to the teleport distribution, the standard fix that
keeps the iteration stochastic.

One power-iteration kernel (:func:`power_iteration_batch`) serves the whole
family.  Global PageRank is a batch of one with a uniform teleport,
Personalized PageRank puts the teleport on the reference, and CheiRank runs
either on the reversed graph.  Every column of a batch iterates exactly as it
would alone, so a query's scores do not depend on what it was batched with.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
# Private SciPy API (checked against SciPy 1.17): imported here so that a
# SciPy without it fails at import rather than mid-query.
from scipy.sparse import _sparsetools

from .._validation import require_positive_int
from ..exceptions import ConvergenceError
from ..graph.compiled import CompiledGraph, compiled_of
from ..graph.csr import CSRGraph
from ..graph.digraph import DirectedGraph
from ..ranking.result import Ranking

__all__ = ["pagerank", "power_iteration_batch", "transition_matrix"]

#: Damping factor used by the paper for the global PageRank columns.
DEFAULT_ALPHA = 0.85
DEFAULT_TOL = 1e-10
# The power iteration contracts at rate alpha per step, so reaching a 1e-10
# residual at alpha = 0.95 takes ~450 iterations; 1000 leaves ample headroom.
DEFAULT_MAX_ITER = 1000


def transition_matrix(csr: CSRGraph):
    """Return the row-stochastic transition matrix ``P`` of a graph.

    ``P[u, v] = 1 / outdeg(u)`` for each edge ``u -> v``; rows of dangling
    nodes are left all-zero (the mass they lose goes back through the
    teleport in :func:`power_iteration_batch`).
    """
    adjacency = csr.to_scipy(dtype=np.float64)
    out_degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    inverse_out = np.zeros_like(out_degrees)
    nonzero = out_degrees > 0
    inverse_out[nonzero] = 1.0 / out_degrees[nonzero]
    from scipy.sparse import diags

    return diags(inverse_out) @ adjacency


def _csr_product(
    matrix: Tuple[np.ndarray, np.ndarray, np.ndarray], block: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Write ``matrix @ block`` into ``out`` with every column summed in row order.

    ``matrix`` is a CSR ``(indptr, indices, data)`` triple; ``block`` and
    ``out`` are C-ordered ``(columns, k)`` and ``(rows, k)`` arrays.  SciPy's
    ``csr_matvec`` (``k == 1``) and ``csr_matvecs`` (``k >= 2``) accumulate
    each output entry over the row's nonzeros in storage order, column by
    column, so a column of the result is bit-identical whatever the width of
    the block it rode in.  Calling them directly also skips SciPy's operator
    dispatch and lets the loop reuse its buffers.
    """
    indptr, indices, data = matrix
    rows, k = out.shape
    out.fill(0.0)
    if k == 1:
        _sparsetools.csr_matvec(
            rows, block.shape[0], indptr, indices, data, block.ravel(), out.ravel()
        )
    else:
        _sparsetools.csr_matvecs(
            rows, block.shape[0], k, indptr, indices, data, block.ravel(), out.ravel()
        )
    return out


def power_iteration_batch(
    transition,
    teleports: np.ndarray,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the PageRank power iteration for ``k`` teleport vectors at once.

    Every column iterates exactly as it would alone: each step multiplies the
    still-running columns by the folded transition matrix, adds back through
    the teleport the mass each column lost (to dangling nodes and to
    teleportation), and sums each column's L1 residual in row order.  A
    column that converges is frozen and stops being multiplied.  A query's
    scores and iteration count therefore do not depend on the other columns
    of its batch.

    Parameters
    ----------
    transition:
        The ``(n + 1) x n`` ``scipy.sparse`` CSR matrix ``[alpha * P^T ;
        alpha * nd]`` that
        :meth:`~repro.graph.compiled.CompiledGraph.folded_transition_transpose`
        builds and caches: ``P`` is the row-stochastic transition matrix and
        ``nd`` is 1 on every node with out-edges.  Row ``n`` of the product is
        the mass each column keeps.
    teleports:
        ``(n, k)`` matrix whose columns are teleport (personalization)
        distributions; each column is normalised to sum to 1.
    tol:
        L1 convergence threshold between successive iterates, per column.
    max_iter:
        Maximum number of iterations before raising
        :class:`~repro.exceptions.ConvergenceError`.

    Returns
    -------
    (scores, iterations):
        ``scores`` is an ``(n, k)`` matrix whose columns are probability
        vectors; ``iterations[j]`` is the number of steps column ``j`` took
        to converge.
    """
    require_positive_int(max_iter, "max_iter")
    n = transition.shape[1]
    teleport_matrix = np.ascontiguousarray(teleports, dtype=np.float64)
    if teleport_matrix.ndim != 2 or teleport_matrix.shape[0] != n:
        raise ValueError(
            f"teleports has shape {teleport_matrix.shape}, expected ({n}, k)"
        )
    k = teleport_matrix.shape[1]
    scores = np.zeros((n, k), dtype=np.float64)
    iterations = np.zeros(k, dtype=np.int64)
    if n == 0 or k == 0:
        return scores, iterations
    if np.any(teleport_matrix < 0):
        raise ValueError("teleport vectors must be non-negative")
    # A 1 x n row of ones: its product sums each column in row order.
    ones_row = (np.array([0, n]), np.arange(n), np.ones(n))
    column_mass = _csr_product(ones_row, teleport_matrix, np.empty((1, k)))[0]
    if np.any(column_mass <= 0):
        raise ValueError("every teleport vector must have positive mass")
    teleport_matrix = teleport_matrix / column_mass

    folded = (transition.indptr, transition.indices, transition.data)
    running = np.arange(k)
    current = teleport_matrix
    width = 0
    for step in range(1, max_iter + 1):
        if current.shape[1] != width:
            # First step, or columns froze: size the buffers to the running
            # columns.  Two product buffers take turns holding the iterate.
            width = current.shape[1]
            product, spare = np.empty((n + 1, width)), np.empty((n + 1, width))
            scratch = np.empty((n, width))
            # The teleport is added through its nonzeros only (one per column
            # for a single reference node); adding zeros would change no bit.
            rows, columns = np.nonzero(teleport_matrix)
            weights = teleport_matrix[rows, columns]
            positions = rows * width + columns
        _csr_product(folded, current, product)
        updated = product[:n]
        updated.ravel()[positions] += weights * (1.0 - product[n])[columns]
        np.subtract(updated, current, out=scratch)
        np.abs(scratch, out=scratch)
        residual = _csr_product(ones_row, scratch, np.empty((1, width)))[0]
        converged = residual < tol
        if np.count_nonzero(converged):
            scores[:, running[converged]] = updated[:, converged]
            iterations[running[converged]] = step
            if converged.all():
                return scores, iterations
            still = ~converged
            running = running[still]
            teleport_matrix = teleport_matrix.compress(still, axis=1)
            updated = updated.compress(still, axis=1)
        current = updated
        product, spare = spare, product
    raise ConvergenceError(
        f"power iteration did not converge within {max_iter} iterations "
        f"(worst residual {float(residual.max()):.3e}, tol {tol:.3e})",
        iterations=max_iter,
        residual=float(residual.max()),
    )


def _power_iteration_rankings(
    compiled: CompiledGraph,
    teleports: np.ndarray,
    *,
    algorithm: str,
    alpha: float,
    tol: float,
    max_iter: int,
    reverse: bool = False,
    references: Sequence[Optional[str]] = (None,),
) -> List[Ranking]:
    """Run :func:`power_iteration_batch` on an artifact; one ranking per column.

    ``reverse`` walks the reversed graph (CheiRank); ``references`` holds
    the display label of each column's reference node, ``None`` for a
    global ranking.
    """
    scores, iterations = power_iteration_batch(
        compiled.folded_transition_transpose(alpha, reverse=reverse),
        teleports,
        tol=tol,
        max_iter=max_iter,
    )
    # One shared label array for the whole batch (Ranking reuses it as-is).
    labels = compiled.labels_array()
    return [
        Ranking(
            scores[:, column],
            labels=labels,
            algorithm=algorithm,
            parameters={
                "alpha": alpha,
                "tol": tol,
                "max_iter": max_iter,
                "iterations": int(iterations[column]),
            },
            graph_name=compiled.name,
            reference=reference,
        )
        for column, reference in enumerate(references)
    ]


def pagerank(
    graph: DirectedGraph,
    *,
    alpha: float = DEFAULT_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Ranking:
    """Compute the global PageRank of every node.

    Parameters
    ----------
    graph:
        The directed graph to rank.
    alpha:
        Damping factor (probability of following an edge instead of
        teleporting); the paper uses 0.85.
    tol, max_iter:
        Power-iteration convergence controls.

    Returns
    -------
    Ranking
        Scores summing to 1, with provenance ``algorithm="PageRank"``.
    """
    compiled = compiled_of(graph)
    return _power_iteration_rankings(
        compiled,
        np.ones((compiled.number_of_nodes(), 1)),
        algorithm="PageRank",
        alpha=alpha,
        tol=tol,
        max_iter=max_iter,
    )[0]
