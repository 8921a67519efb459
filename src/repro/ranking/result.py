"""The :class:`Ranking` result type shared by every relevance algorithm.

A ranking is a mapping ``node id -> score`` over the nodes of one graph,
together with enough provenance (algorithm name, parameters, graph name,
optional reference node) to reproduce the run and to render it in the demo's
comparison tables.  Ties are broken deterministically by node label so the
same inputs always produce exactly the same ordered output.

Rankings are immutable and columnar: a score array plus a label array that
all rankings of one graph share (``CompiledGraph.labels_array()``), sorted
lazily, once.  The task, the result cache and the stored result share one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import NodeNotFoundError

__all__ = ["ScoredNode", "Ranking"]


@dataclass(frozen=True)
class ScoredNode:
    """A node with its score and 1-based rank inside a :class:`Ranking`."""

    node: int
    label: str
    score: float
    rank: int

    def as_tuple(self) -> Tuple[int, str, float, int]:
        """Return ``(node, label, score, rank)``."""
        return (self.node, self.label, self.score, self.rank)


class Ranking:
    """Scores assigned to the nodes of a graph by one algorithm run.

    Parameters
    ----------
    scores:
        Mapping from node id to score, or a dense sequence indexed by node id.
    labels:
        Display labels indexed by node id (defaults to ``"#<id>"``); a string
        ndarray is kept as a read-only view, so rankings can share one array.
    algorithm:
        Name of the algorithm that produced the ranking.
    parameters:
        The parameters the algorithm ran with (damping factor, K, ...).
    graph_name:
        Name of the graph the algorithm ran on.
    reference:
        Label of the reference (query) node for personalized algorithms.
    """

    __slots__ = ("_scores", "_labels", "_sorted", "algorithm", "parameters",
                 "graph_name", "reference")

    def __init__(
        self,
        scores: Mapping[int, float] | Sequence[float] | np.ndarray,
        *,
        labels: Optional[Sequence[str]] = None,
        algorithm: str = "",
        parameters: Optional[Mapping[str, object]] = None,
        graph_name: str = "",
        reference: Optional[str] = None,
    ) -> None:
        if isinstance(scores, Mapping):
            size = (max(scores) + 1) if scores else 0
            dense = np.zeros(size, dtype=np.float64)
            for node, score in scores.items():
                if node < 0:
                    raise NodeNotFoundError(node)
                dense[node] = float(score)
        else:
            dense = np.asarray(scores, dtype=np.float64).copy()
        if labels is not None and len(labels) < dense.size:
            raise ValueError(
                f"labels has length {len(labels)} but scores cover {dense.size} nodes"
            )
        self._scores = dense
        if labels is None:
            labels = [f"#{i}" for i in range(dense.size)]
        if isinstance(labels, np.ndarray):
            self._labels = labels[: dense.size]
        else:
            self._labels = np.array(list(map(str, labels[: dense.size])), dtype=object)
        self._labels.setflags(write=False)
        self.algorithm = algorithm
        self.parameters = dict(parameters or {})
        self.graph_name = graph_name
        self.reference = reference
        self._sorted: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _ordering(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(node ids in order, 1-based rank per id)``, sorted on first use.

        lexsort applies keys last-first, stably over ascending ids: descending
        score, then label, then id.  Racing threads store equal arrays.
        """
        if self._sorted is None:
            order = np.lexsort((self._labels, -self._scores))
            ranks = np.empty(order.size, dtype=np.int64)
            ranks[order] = np.arange(1, order.size + 1)
            self._sorted = (order, ranks)
        return self._sorted

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self._scores.size)

    def __iter__(self) -> Iterator[ScoredNode]:
        return iter(self.top(len(self)))

    def __contains__(self, node: object) -> bool:
        if isinstance(node, int) and not isinstance(node, bool):
            return 0 <= node < len(self)
        if isinstance(node, str):
            return node in self._labels
        return False

    def score_of(self, node: int | str) -> float:
        """Return the score of a node (by id or label)."""
        return float(self._scores[self._resolve(node)])

    def rank_of(self, node: int | str) -> int:
        """Return the 1-based rank of a node (by id or label)."""
        return int(self._ordering()[1][self._resolve(node)])

    def label_of(self, node: int) -> str:
        """Return the display label of a node id."""
        if not 0 <= node < len(self):
            raise NodeNotFoundError(node)
        return str(self._labels[node])

    def _resolve(self, node: int | str) -> int:
        if isinstance(node, str):
            matches = np.flatnonzero(self._labels == node)
            if matches.size == 0:
                raise NodeNotFoundError(node)
            return int(matches[0])
        if isinstance(node, bool) or not isinstance(node, int) or not 0 <= node < len(self):
            raise NodeNotFoundError(node)
        return node

    @property
    def scores(self) -> np.ndarray:
        """Return a copy of the dense score vector, indexed by node id."""
        return self._scores.copy()

    @property
    def labels(self) -> np.ndarray:
        """Return the read-only label array, indexed by node id (shared, not copied)."""
        return self._labels

    def as_dict(self) -> Dict[int, float]:
        """Return the scores as a ``{node id: score}`` dictionary."""
        return dict(enumerate(self._scores.tolist()))

    def as_label_dict(self) -> Dict[str, float]:
        """Return the scores as a ``{label: score}`` dictionary."""
        return dict(zip(self._labels.tolist(), self._scores.tolist()))

    # ------------------------------------------------------------------ #
    # top-k queries
    # ------------------------------------------------------------------ #
    def top(self, k: int = 10, *, exclude: Iterable[str] = ()) -> List[ScoredNode]:
        """Return the ``k`` highest-scoring nodes as :class:`ScoredNode` entries.

        Parameters
        ----------
        exclude:
            Labels to skip (the demo's tables exclude nothing, but the
            comparison helpers use it to drop the reference node on demand).
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        excluded = set(exclude)
        order = self._ordering()[0]
        result: List[ScoredNode] = []
        for position, node in enumerate((order if excluded else order[:k]).tolist()):
            if len(result) == k:
                break
            label = str(self._labels[node])
            if label in excluded:
                continue
            result.append(
                ScoredNode(node=node, label=label, score=float(self._scores[node]),
                           rank=position + 1)
            )
        return result

    def top_labels(self, k: int = 10, *, exclude: Iterable[str] = ()) -> List[str]:
        """Return the labels of the ``k`` highest-scoring nodes."""
        return [entry.label for entry in self.top(k, exclude=exclude)]

    def ordered_nodes(self) -> List[int]:
        """Return every node id in ranking order (best first)."""
        return self._ordering()[0].tolist()

    def nonzero_count(self) -> int:
        """Return the number of nodes with a strictly positive score."""
        return int(np.count_nonzero(self._scores > 0.0))

    def total(self) -> float:
        """Return the sum of all scores (1.0 for PageRank-family algorithms)."""
        return float(self._scores.sum())

    # ------------------------------------------------------------------ #
    # transformations / serialisation
    # ------------------------------------------------------------------ #
    def normalized(self) -> "Ranking":
        """Return a copy whose scores sum to 1 (no-op for an all-zero ranking)."""
        total = self._scores.sum()
        scores = self._scores / total if total > 0 else self._scores
        return Ranking(
            scores,
            labels=self._labels,
            algorithm=self.algorithm,
            parameters=self.parameters,
            graph_name=self.graph_name,
            reference=self.reference,
        )

    def describe(self) -> str:
        """Return a one-line human-readable description of the run."""
        parts = [self.algorithm or "ranking"]
        if self.reference:
            parts.append(f"reference={self.reference!r}")
        if self.parameters:
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
            parts.append(f"({rendered})")
        if self.graph_name:
            parts.append(f"on {self.graph_name}")
        return " ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        """Serialise the ranking (provenance + scores) to plain Python types."""
        return {
            "algorithm": self.algorithm,
            "parameters": dict(self.parameters),
            "graph_name": self.graph_name,
            "reference": self.reference,
            "labels": self._labels.tolist(),
            "scores": self._scores.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Ranking":
        """Reconstruct a ranking serialised with :meth:`to_dict`."""
        return cls(
            list(payload["scores"]),  # type: ignore[arg-type]
            labels=list(payload["labels"]),  # type: ignore[arg-type]
            algorithm=str(payload.get("algorithm", "")),
            parameters=dict(payload.get("parameters", {})),  # type: ignore[arg-type]
            graph_name=str(payload.get("graph_name", "")),
            reference=payload.get("reference"),  # type: ignore[arg-type]
        )

    def __repr__(self) -> str:
        head = ", ".join(
            f"{entry.label}={entry.score:.4g}" for entry in self.top(3)
        )
        return f"<Ranking {self.describe()}: {head}{', ...' if len(self) > 3 else ''}>"
