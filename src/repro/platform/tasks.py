"""Tasks, query sets and the task builder (Figure 2 of the paper).

A *query* is one (dataset, algorithm, source, parameters) quadruple — one row
of the task-builder interface.  A *query set* is the ordered collection of
queries the user has assembled; it is identified by a UUID that doubles as a
permalink for retrieving the results later ("Comparison id" in Figure 2).
:meth:`TaskBuilder.build_task` turns a query set into the comparison's one
record, a :class:`~repro.platform.jobs.JobRecord`, whose event log decides
its lifecycle.  :class:`TaskState` is only the status vocabulary the Status
component projects that lifecycle onto.

The :class:`TaskBuilder` validates each query against the dataset catalog and
the algorithm registry *before* it enters the query set, mirroring the web
form's client-side validation: unknown datasets, unknown algorithms, missing
reference nodes for personalized algorithms and malformed parameters are all
rejected at build time rather than at execution time.
"""

from __future__ import annotations

import enum
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from ..algorithms.registry import get_algorithm
from ..datasets.catalog import DatasetCatalog
from ..exceptions import InvalidParameterError, TaskError
from .jobs import JobRecord
from .resilience import Deadline

__all__ = ["Query", "QuerySet", "TaskState", "TaskBuilder"]


@dataclass(frozen=True)
class Query:
    """One (dataset, algorithm, source, parameters) row of a query set.

    Attributes
    ----------
    dataset_id:
        Identifier of the dataset in the catalog (e.g. ``"enwiki-2018"``).
    algorithm:
        Registry name of the algorithm (e.g. ``"cyclerank"``).
    source:
        Reference node label for personalized algorithms; ``None`` for global
        ones.
    parameters:
        Validated algorithm parameters.
    """

    dataset_id: str
    algorithm: str
    source: Optional[str] = None
    parameters: Mapping[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """Return the one-line rendering used by the task-builder view."""
        rendered_parameters = ", ".join(
            f"{key}={value}" for key, value in sorted(self.parameters.items())
        )
        source = self.source if self.source is not None else "-"
        return (
            f"{self.dataset_id} | {self.algorithm} | source: {source} | "
            f"{rendered_parameters or 'defaults'}"
        )

    def as_dict(self) -> Dict[str, Any]:
        """Serialise the query to plain Python types."""
        return {
            "dataset_id": self.dataset_id,
            "algorithm": self.algorithm,
            "source": self.source,
            "parameters": dict(self.parameters),
        }


class QuerySet:
    """An ordered, mutable collection of queries with a permalink identifier."""

    def __init__(self, queries: Optional[List[Query]] = None) -> None:
        self.comparison_id = str(uuid.uuid4())
        self._queries: List[Query] = list(queries or [])

    def add(self, query: Query) -> int:
        """Append a query; return its index within the set."""
        self._queries.append(query)
        return len(self._queries) - 1

    def remove(self, index: int) -> Query:
        """Remove and return the query at ``index`` (the per-row ✕ button)."""
        try:
            return self._queries.pop(index)
        except IndexError:
            raise TaskError(
                f"query set has {len(self._queries)} queries; cannot remove index {index}"
            ) from None

    def clear(self) -> None:
        """Remove every query (the trash-bin button of Figure 2)."""
        self._queries.clear()

    @property
    def queries(self) -> List[Query]:
        """Return the queries in insertion order (a copy)."""
        return list(self._queries)

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self):
        return iter(self._queries)

    def as_dict(self) -> Dict[str, Any]:
        """Serialise the query set (id + queries) to plain Python types."""
        return {
            "comparison_id": self.comparison_id,
            "queries": [query.as_dict() for query in self._queries],
        }


class TaskState(enum.Enum):
    """The status vocabulary of a comparison (Section III, steps 1-5).

    REST bodies, the CLI and stored results report these values; the Status
    component maps each :class:`~repro.platform.jobs.JobState` onto one.
    """

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    def is_terminal(self) -> bool:
        """Return ``True`` for the states a comparison never leaves."""
        return self in (TaskState.COMPLETED, TaskState.FAILED, TaskState.CANCELLED)


class TaskBuilder:
    """Builds validated queries and query sets from raw user input.

    Parameters
    ----------
    catalog:
        The dataset catalog queries are validated against.
    """

    def __init__(self, catalog: DatasetCatalog) -> None:
        self._catalog = catalog

    def build_query(
        self,
        dataset_id: str,
        algorithm: str,
        *,
        source: Optional[str] = None,
        parameters: Optional[Mapping[str, Any]] = None,
    ) -> Query:
        """Validate raw inputs and return a :class:`Query`.

        Validation covers: the dataset exists in the catalog, the algorithm is
        registered, the source is present exactly when the algorithm is
        personalized, and each parameter passes the algorithm's
        :class:`~repro.algorithms.base.ParameterSpec`.
        """
        if dataset_id not in self._catalog:
            raise TaskError(
                f"unknown dataset {dataset_id!r}; use the catalog identifiers "
                f"(e.g. {', '.join(self._catalog.identifiers()[:3])}, ...)"
            )
        algorithm_impl = get_algorithm(algorithm)
        if algorithm_impl.is_personalized and not source:
            raise TaskError(
                f"{algorithm_impl.display_name} requires a source (reference) node"
            )
        if not algorithm_impl.is_personalized and source:
            raise TaskError(
                f"{algorithm_impl.display_name} is a global algorithm; do not pass a source"
            )
        try:
            validated = algorithm_impl.validate_parameters(parameters)
        except InvalidParameterError as exc:
            raise TaskError(str(exc)) from exc
        return Query(
            dataset_id=dataset_id,
            algorithm=algorithm_impl.name,
            source=source,
            parameters=validated,
        )

    def new_query_set(self) -> QuerySet:
        """Return an empty query set with a fresh comparison id."""
        return QuerySet()

    def build_task(
        self, query_set: QuerySet, *, deadline_ms: Optional[int] = None
    ) -> JobRecord:
        """Wrap a non-empty query set into its comparison record, ready for scheduling.

        ``deadline_ms``, when given, starts the submission's deadline clock
        here — validation errors from a non-positive value surface as
        :class:`TaskError` so callers see one exception family.
        """
        if len(query_set) == 0:
            raise TaskError("cannot submit an empty query set")
        try:
            deadline = Deadline.from_ms(deadline_ms) if deadline_ms is not None else None
        except (TypeError, ValueError) as exc:
            raise TaskError(f"invalid deadline_ms: {exc}") from exc
        return JobRecord(
            query_set.comparison_id,
            len(query_set),
            query_set=query_set,
            deadline=deadline,
        )
