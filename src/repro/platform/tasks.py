"""Tasks, query sets and the task builder (Figure 2 of the paper).

A *query* is one (dataset, algorithm, source, parameters) quadruple — one row
of the task-builder interface.  A *query set* is the ordered collection of
queries the user has assembled; it is identified by a UUID that doubles as a
permalink for retrieving the results later ("Comparison id" in Figure 2).
A *task* is a query set submitted for execution, carrying its lifecycle
state.

The :class:`TaskBuilder` validates each query against the dataset catalog and
the algorithm registry *before* it enters the query set, mirroring the web
form's client-side validation: unknown datasets, unknown algorithms, missing
reference nodes for personalized algorithms and malformed parameters are all
rejected at build time rather than at execution time.
"""

from __future__ import annotations

import enum
import threading
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..algorithms.registry import get_algorithm
from ..datasets.catalog import DatasetCatalog
from ..exceptions import InvalidParameterError, TaskError
from ..ranking.result import Ranking
from .resilience import Deadline

__all__ = ["Query", "QuerySet", "Task", "TaskState", "TaskBuilder"]


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
    """Lifecycle of a submitted task (Section III, steps 1-5)."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    def is_terminal(self) -> bool:
        """Return ``True`` once the task can no longer change state."""
        return self in (TaskState.COMPLETED, TaskState.FAILED, TaskState.CANCELLED)


class Task:
    """A query set submitted for execution, with per-query progress.

    Parameters
    ----------
    query_set:
        The validated queries to execute.
    deadline_ms:
        Optional overall deadline in milliseconds, counted from task
        construction (submission time).  The scheduler refuses to start
        work for an expired task and settles it with a typed
        ``deadline_exceeded`` event instead of occupying a worker.

    The gateway additionally attaches ``trace_span`` — the telemetry root
    span of the submission — before handing the task to the scheduler, which
    re-installs it (alongside the deadline) on whatever pool thread picks a
    group up, exactly the way the deadline rides along.
    """

    def __init__(self, query_set: QuerySet, *, deadline_ms: Optional[int] = None) -> None:
        self.task_id = query_set.comparison_id
        self.query_set = query_set
        self.deadline: Optional[Deadline] = (
            Deadline.from_ms(deadline_ms) if deadline_ms is not None else None
        )
        self.trace_span: Optional[Any] = None
        self._lock = threading.RLock()
        self._state = TaskState.PENDING
        self._completed_queries = 0
        self._error: Optional[str] = None
        self._rankings: Dict[int, Ranking] = {}
        #: Called once, outside the task lock, when the task becomes terminal.
        self.on_terminal: Optional[Callable[["Task"], None]] = None

    # ------------------------------------------------------------------ #
    # state transitions (called by the scheduler / executors)
    # ------------------------------------------------------------------ #
    def mark_running(self) -> None:
        """Transition PENDING -> RUNNING."""
        with self._lock:
            if self._state is TaskState.PENDING:
                self._state = TaskState.RUNNING

    def record_query_result(self, index: int, ranking: Ranking) -> None:
        """Record the ranking produced for the query at ``index``."""
        with self._lock:
            self._rankings[index] = ranking
            self._completed_queries += 1
            finished = (
                self._completed_queries >= len(self.query_set)
                and not self._state.is_terminal()
            )
            if finished:
                self._state = TaskState.COMPLETED
        self._notify_terminal(finished)

    def mark_failed(self, error: str) -> None:
        """Transition to FAILED with an error message."""
        with self._lock:
            finished = not self._state.is_terminal()
            if self._state is not TaskState.CANCELLED:
                self._state = TaskState.FAILED
                self._error = error
        self._notify_terminal(finished)

    def mark_cancelled(self) -> None:
        """Transition to CANCELLED (a no-op once the task is terminal)."""
        with self._lock:
            finished = not self._state.is_terminal()
            if finished:
                self._state = TaskState.CANCELLED
        self._notify_terminal(finished)

    def _notify_terminal(self, finished: bool) -> None:
        if finished and self.on_terminal is not None:
            self.on_terminal(self)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> TaskState:
        """Return the current lifecycle state."""
        with self._lock:
            return self._state

    @property
    def error(self) -> Optional[str]:
        """Return the failure message, if the task failed."""
        with self._lock:
            return self._error

    @property
    def completed_queries(self) -> int:
        """Return how many queries have finished."""
        with self._lock:
            return self._completed_queries

    @property
    def total_queries(self) -> int:
        """Return how many queries the task contains."""
        return len(self.query_set)

    @property
    def trace_id(self) -> Optional[str]:
        """Return the telemetry trace id, when the gateway attached a span."""
        span = self.trace_span
        return span.trace_id if span is not None else None

    def rankings(self) -> Dict[int, Ranking]:
        """Return the rankings computed so far, keyed by query index."""
        with self._lock:
            return dict(self._rankings)

    def deadline_expired(self) -> bool:
        """Return ``True`` when the task carries a deadline that has passed."""
        return self.deadline is not None and self.deadline.expired()

    def is_done(self) -> bool:
        """Return ``True`` once the task reached a terminal state."""
        return self.state.is_terminal()

    def __repr__(self) -> str:
        return (
            f"<Task {self.task_id[:8]} {self.state.value} "
            f"{self.completed_queries}/{self.total_queries}>"
        )


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

    def build_task(self, query_set: QuerySet, *, deadline_ms: Optional[int] = None) -> Task:
        """Wrap a non-empty query set into a :class:`Task` ready for scheduling.

        ``deadline_ms``, when given, starts the submission's deadline clock
        here — validation errors from a non-positive value surface as
        :class:`TaskError` so callers see one exception family.
        """
        if len(query_set) == 0:
            raise TaskError("cannot submit an empty query set")
        try:
            return Task(query_set, deadline_ms=deadline_ms)
        except (TypeError, ValueError) as exc:
            raise TaskError(f"invalid deadline_ms: {exc}") from exc
