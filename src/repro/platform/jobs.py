"""The job/event subsystem: one record per comparison over an append-only event log.

The demo is interactive — the Web UI submits a comparison, keeps the
permalink and *watches* progress — so the platform needs a first-class
notion of a long-running job that can be observed incrementally and
cancelled, not just a counter that callers busy-poll.  This module provides
that seam:

:class:`JobRecord`
    One submitted comparison (or any other long-running platform job, e.g. a
    replication or spill migration) and the only record kept for it.  It
    carries an explicit lifecycle (``QUEUED → RUNNING → DONE | FAILED |
    CANCELLED``), a per-query sub-state vector, and an **append-only event
    log** of typed :class:`JobEvent` entries with a per-job monotonic
    ``seq``.  A comparison's record also holds what its execution needs:
    the query set, the deadline, the telemetry root span and the rankings
    recorded so far.  Consumers read the log either through callback
    subscription (:meth:`JobRecord.subscribe`) or through blocking cursor
    reads (:meth:`JobRecord.events_since`), which is what the Status
    component, the REST long-poll/SSE endpoints and the CLI ``--follow``
    renderer are built on.  The record is itself a *projection* over its
    log: every counter (completed queries, per-query states, rankings,
    terminal state) is derived from the events as they are appended, so any
    other projection reading the same log sees exactly the same history.

:class:`JobRegistry`
    The bounded table of job records keyed by the comparison id, and the
    platform's one retention bound.  Active jobs are never evicted; beyond
    the bound, the earliest-finished records are dropped at O(1) cost.  An
    evicted record is always terminal, and it takes the comparison's
    rankings and event log with it: a DONE comparison's permalink keeps
    resolving only through a result file on a datastore with a disk tier.

:func:`describe_event`
    The one event renderer: the CLI ``--follow`` lines and every execution
    log (``gateway.get_logs``, ``GET /api/comparisons/<id>/logs``, the web
    UI) are a comparison's events rendered with it.

Cancellation is cooperative: :meth:`JobRecord.request_cancel` raises a flag
and appends a ``cancelled`` event; the scheduler checks the flag at every
group-dispatch boundary and stops dispatching further work, after which the
job is finished with state ``CANCELLED``.

Event types
-----------
``submitted``        the job entered the registry (payload: total queries)
``query_started``    a query was handed to an executor (or joined an
                     in-flight identical computation, ``joined=True``)
``query_cached``     a query was answered from the result cache
``query_completed``  a query's ranking was recorded
``query_failed``     a query raised (payload carries the error)
``progress``         incremental progress of a storage maintenance job
                     (replicate / spill / rebalance; payload: kind, item,
                     completed, total)
``cancelled``        cancellation was requested
``task_done``        the job reached a terminal state (payload: the state)
``shed``             admission control refused a submission before it was
                     enqueued (payload: comparison id, estimated cost,
                     computed retry-after) — emitted on the gateway's
                     overload job, never on the shed submission itself,
                     which was not admitted and has no job
``deadline_exceeded``  the job's deadline expired before its work ran;
                     the job settles FAILED without occupying a worker
"""

from __future__ import annotations

import enum
import functools
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional

from ..exceptions import TaskNotFoundError

if TYPE_CHECKING:
    from ..ranking.result import Ranking
    from .resilience import Deadline
    from .tasks import QuerySet

__all__ = [
    "EVENT_TYPES",
    "JobEvent",
    "JobRecord",
    "JobRegistry",
    "JobState",
    "QueryState",
    "describe_event",
]

#: The typed vocabulary of the per-job event log.
EVENT_TYPES = frozenset(
    {
        "submitted",
        "query_started",
        "query_cached",
        "query_completed",
        "query_failed",
        "progress",
        "task_done",
        "cancelled",
        # Storage-health transitions (emitted on the gateway's health job by
        # the replicated store's failure detector).
        "shard_down",
        "shard_up",
        # Overload protection: admission-control refusals land on the
        # gateway's overload job; expired deadlines settle the job itself.
        "shed",
        "deadline_exceeded",
    }
)


class JobState(enum.Enum):
    """Lifecycle of a job: ``QUEUED → RUNNING → DONE | FAILED | CANCELLED``."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    def is_terminal(self) -> bool:
        """Return ``True`` once the job can no longer change state."""
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


class QueryState(enum.Enum):
    """Per-query sub-state within a job."""

    PENDING = "pending"
    RUNNING = "running"
    CACHED = "cached"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    def is_settled(self) -> bool:
        """Return ``True`` once the query has an answer (or never will)."""
        return self not in (QueryState.PENDING, QueryState.RUNNING)


@dataclass(frozen=True)
class JobEvent:
    """One immutable entry of a job's append-only event log.

    ``seq`` is monotonic *per job*, starting at 1; a consumer that remembers
    the last ``seq`` it saw can resume the stream exactly where it left off
    (``events_since(seq)``), which is what makes the REST long-poll and SSE
    endpoints deliver every event exactly once.
    """

    seq: int
    type: str
    timestamp: float
    payload: Mapping[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        """Serialise the event to plain Python types (the wire format)."""
        return {
            "seq": self.seq,
            "type": self.type,
            "timestamp": self.timestamp,
            **dict(self.payload),
        }


#: Map an event type to the query sub-state it settles (if any).
_QUERY_EVENT_STATES = {
    "query_started": QueryState.RUNNING,
    "query_cached": QueryState.CACHED,
    "query_completed": QueryState.COMPLETED,
    "query_failed": QueryState.FAILED,
}

#: Map a terminal ``task_done`` payload state to the job state.
_TERMINAL_STATES = {
    "done": JobState.DONE,
    "failed": JobState.FAILED,
    "cancelled": JobState.CANCELLED,
}


def describe_event(event: Mapping[str, Any]) -> str:
    """Render one job event (its :meth:`JobEvent.as_dict` form) as a log line."""
    kind = event.get("type")
    index = event.get("query")
    if kind == "submitted":
        return f"submitted {event.get('total_queries')} queries"
    if kind == "query_started":
        joined = " (joined in-flight twin)" if event.get("joined") else ""
        return (
            f"query {index} started: {event.get('algorithm')} "
            f"on {event.get('dataset_id')}{joined}"
        )
    if kind == "query_cached":
        return (
            f"query {index} served from cache "
            f"({event.get('completed_queries')}/{event.get('total_queries')} done)"
        )
    if kind == "query_completed":
        return (
            f"query {index} completed "
            f"({event.get('completed_queries')}/{event.get('total_queries')} done)"
        )
    if kind == "query_failed":
        return f"query {index} FAILED: {event.get('error')}"
    if kind == "progress":
        return (
            f"{event.get('kind')}: {event.get('item')} "
            f"({event.get('completed')}/{event.get('total')})"
        )
    if kind == "cancelled":
        return "cancellation requested"
    if kind == "shed":
        return (
            f"submission shed by admission control "
            f"(cost {event.get('cost')}, retry after {event.get('retry_after')}s)"
        )
    if kind == "deadline_exceeded":
        return (
            f"deadline exceeded after {event.get('deadline_ms')}ms "
            f"({event.get('completed_queries')}/{event.get('total_queries')} done)"
        )
    if kind == "task_done":
        return (
            f"comparison {event.get('state')} "
            f"({event.get('completed_queries')}/{event.get('total_queries')} queries)"
        )
    return f"{kind}"


class JobRecord:
    """One job: lifecycle, per-query sub-states and the append-only event log.

    Parameters
    ----------
    job_id:
        The comparison id (doubles as the permalink).
    total_queries:
        Number of queries the job carries; sizes the sub-state vector.
    description:
        Optional human-readable summary shown by job listings.
    query_set:
        The validated queries of a comparison (``None`` for storage jobs
        and event sinks, which the scheduler never dispatches).
    deadline:
        Optional :class:`~repro.platform.resilience.Deadline` of the
        submission; the scheduler refuses to start work once it expired.

    The gateway sets ``trace_span`` — the telemetry root span of the
    submission — before handing the record to the scheduler, which
    re-installs it (alongside the deadline) on whatever pool thread picks a
    group up.  While a span is attached, every appended event is stamped
    with its ``trace_id``, so SSE/long-poll consumers can correlate the
    event stream with the span tree served by
    ``GET /api/comparisons/<id>/trace``.
    """

    def __init__(
        self,
        job_id: str,
        total_queries: int,
        *,
        description: str = "",
        query_set: Optional[QuerySet] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        self.job_id = job_id
        self.total_queries = total_queries
        self.description = description
        self.query_set = query_set
        self.deadline = deadline
        self.trace_span: Optional[Any] = None
        self.created_at = time.time()
        self._cond = threading.Condition()
        self._events: List[JobEvent] = []
        self._state = JobState.QUEUED
        self._query_states = [QueryState.PENDING] * total_queries
        self._completed = 0
        self._error: Optional[str] = None
        self._rankings: Dict[int, Ranking] = {}
        self._cancel_requested = False
        self._finished_at: Optional[float] = None
        self._callbacks: List[Callable[[JobEvent], None]] = []
        #: Called once, outside the record lock, when ``task_done`` lands.
        self.on_terminal: Optional[Callable[["JobRecord"], None]] = None

    # ------------------------------------------------------------------ #
    # appending
    # ------------------------------------------------------------------ #
    @property
    def trace_id(self) -> Optional[str]:
        """Return the telemetry trace id, when the gateway attached a span."""
        span = self.trace_span
        return span.trace_id if span is not None else None

    def append(
        self, event_type: str, *, ranking: Optional[Ranking] = None, **payload: Any
    ) -> Optional[JobEvent]:
        """Append one typed event, update the projection, wake cursor readers.

        Appends after the job reached a terminal state are dropped (and
        ``None`` is returned): ``task_done`` is always the last event of a
        log, so a follower can stop reading the moment it sees one.

        ``ranking`` rides on a ``query_cached``/``query_completed`` event
        into the record's rankings (:meth:`rankings`), never into the
        payload.

        Subscribed callbacks run synchronously, in ``seq`` order, while the
        record lock is held — they must be fast and must not block on the
        record (cursor reads from a callback would deadlock).
        """
        if event_type not in EVENT_TYPES:
            raise ValueError(f"unknown job event type {event_type!r}")
        with self._cond:
            if self._state.is_terminal():
                return None
            if event_type == "cancelled" and self._cancel_requested:
                return None
            event = JobEvent(
                seq=len(self._events) + 1,
                type=event_type,
                timestamp=time.time(),
                payload=dict(payload),
            )
            self._apply(event, ranking)
            trace_id = self.trace_id
            if trace_id is not None:
                event.payload.setdefault("trace_id", trace_id)  # type: ignore[attr-defined]
            self._events.append(event)
            self._cond.notify_all()
            callbacks = list(self._callbacks)
            for callback in callbacks:
                callback(event)
        # Appends after task_done are dropped above, so this runs once.
        if event_type == "task_done" and self.on_terminal is not None:
            self.on_terminal(self)
        return event

    def _apply(self, event: JobEvent, ranking: Optional[Ranking] = None) -> None:
        """Fold one event into the projected state (called under the lock)."""
        query_state = _QUERY_EVENT_STATES.get(event.type)
        if query_state is not None:
            index = event.payload.get("query")
            if isinstance(index, int) and 0 <= index < self.total_queries:
                self._query_states[index] = query_state
            if query_state in (QueryState.CACHED, QueryState.COMPLETED):
                self._completed += 1
                if ranking is not None:
                    self._rankings[index] = ranking
                # Stamp the projected counters into the payload under the
                # record lock: each completion event carries a unique,
                # monotonic count, so exactly one event per job reports
                # completed_queries == total_queries.
                event.payload["completed_queries"] = self._completed  # type: ignore[index]
                event.payload["total_queries"] = self.total_queries  # type: ignore[index]
            if query_state is QueryState.FAILED and self._error is None:
                self._error = str(event.payload.get("error", "query failed"))
            if self._state is JobState.QUEUED:
                self._state = JobState.RUNNING
        elif event.type == "progress":
            if self._state is JobState.QUEUED:
                self._state = JobState.RUNNING
            # Storage maintenance jobs register with total_queries=0 and
            # report their work-item counts through the event payload; fold
            # them into the projected counters so listings and progress
            # fragments show real x/y progress instead of 0/0.
            completed = event.payload.get("completed")
            total = event.payload.get("total")
            if isinstance(completed, int) and completed >= 0:
                self._completed = completed
            if isinstance(total, int) and total >= 0:
                self.total_queries = max(self.total_queries, total)
        elif event.type == "cancelled":
            self._cancel_requested = True
        elif event.type == "task_done":
            self._state = _TERMINAL_STATES.get(str(event.payload.get("state")), JobState.DONE)
            if self._state is JobState.FAILED:
                # The terminal event's error is the job's error, so every
                # surface reports the one that settled it.
                self._error = str(event.payload.get("error", self._error or "job failed"))
            if self._state is JobState.CANCELLED:
                for index, state in enumerate(self._query_states):
                    if not state.is_settled():
                        self._query_states[index] = QueryState.CANCELLED
            self._finished_at = event.timestamp

    def finish(self, state: JobState, *, error: Optional[str] = None) -> bool:
        """Transition to a terminal state exactly once (emits ``task_done``).

        Returns ``False`` when the job was already terminal — concurrent
        finishers (e.g. a cancel racing the last group) settle on whichever
        got there first, and the log carries exactly one ``task_done``.
        """
        if not state.is_terminal():
            raise ValueError(f"finish() requires a terminal state, got {state}")
        with self._cond:
            if self._state.is_terminal():
                return False
            payload: Dict[str, Any] = {
                "state": state.value,
                "completed_queries": self._completed,
                "total_queries": self.total_queries,
            }
            if error is not None:
                payload["error"] = error
        return self.append("task_done", **payload) is not None

    # ------------------------------------------------------------------ #
    # cancellation
    # ------------------------------------------------------------------ #
    def request_cancel(self) -> bool:
        """Raise the cooperative cancel flag (idempotent).

        Returns ``True`` if the request was recorded (the job was not yet
        terminal and this was the first request).  The scheduler observes the
        flag at its group-dispatch boundaries and finishes the job with
        :attr:`JobState.CANCELLED` once outstanding work has stopped.
        """
        with self._cond:
            if self._state.is_terminal() or self._cancel_requested:
                return False
        return self.append("cancelled") is not None

    @property
    def cancel_requested(self) -> bool:
        """Return ``True`` once cancellation has been requested."""
        with self._cond:
            return self._cancel_requested

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> JobState:
        """Return the current lifecycle state."""
        with self._cond:
            return self._state

    @property
    def error(self) -> Optional[str]:
        """Return the first recorded failure message, if any."""
        with self._cond:
            return self._error

    @property
    def completed_queries(self) -> int:
        """Return how many queries have an answer (cached or computed)."""
        with self._cond:
            return self._completed

    @property
    def last_seq(self) -> int:
        """Return the sequence number of the newest event (0 when empty)."""
        with self._cond:
            return len(self._events)

    def rankings(self) -> Dict[int, Ranking]:
        """Return the rankings recorded so far, keyed by query index."""
        with self._cond:
            return dict(self._rankings)

    def query_states(self) -> List[QueryState]:
        """Return a snapshot of the per-query sub-states."""
        with self._cond:
            return list(self._query_states)

    def events(self) -> List[JobEvent]:
        """Return a snapshot of the full event log."""
        with self._cond:
            return list(self._events)

    def events_since(
        self, after: int, *, timeout: Optional[float] = None
    ) -> List[JobEvent]:
        """Blocking cursor read: events with ``seq > after``.

        Blocks until at least one newer event exists, the job is terminal
        (terminal jobs return immediately — possibly with an empty list when
        the cursor is already at the end), or ``timeout`` seconds elapsed
        (returning an empty list).  ``timeout=None`` waits indefinitely for
        a non-terminal job.
        """
        if after < 0:
            raise ValueError(f"cursor must be >= 0, got {after}")
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while len(self._events) <= after and not self._state.is_terminal():
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return []
                self._cond.wait(remaining)
            return list(self._events[after:])

    def wait_done(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal; return whether it finished in time."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._state.is_terminal():
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)
            return True

    # ------------------------------------------------------------------ #
    # subscription
    # ------------------------------------------------------------------ #
    def subscribe(self, callback: Callable[[JobEvent], None]) -> Callable[[], None]:
        """Register a callback invoked for every subsequent event, in order.

        Returns an unsubscribe function.  Callbacks run under the record
        lock (see :meth:`append`); use the cursor API for anything that
        needs to block.
        """
        with self._cond:
            self._callbacks.append(callback)

        def unsubscribe() -> None:
            with self._cond:
                try:
                    self._callbacks.remove(callback)
                except ValueError:
                    pass

        return unsubscribe

    # ------------------------------------------------------------------ #
    # summaries
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, Any]:
        """Return the job-listing payload (one row of ``GET /api/comparisons``)."""
        with self._cond:
            return {
                "comparison_id": self.job_id,
                "state": self._state.value,
                "completed_queries": self._completed,
                "total_queries": self.total_queries,
                "error": self._error,
                "cancel_requested": self._cancel_requested,
                "created_at": self.created_at,
                "finished_at": self._finished_at,
                "events": len(self._events),
                "description": self.description,
                "trace_id": self.trace_id,
            }

    def __repr__(self) -> str:
        return (
            f"<JobRecord {self.job_id[:8]} {self.state.value} "
            f"{self.completed_queries}/{self.total_queries} events={self.last_seq}>"
        )


class JobRegistry:
    """The bounded, thread-safe table of :class:`JobRecord`\\ s, keyed by id.

    Parameters
    ----------
    max_finished_jobs:
        How many *terminal* jobs to retain: the platform's one retention
        bound.  Active jobs are never evicted; once more than the bound are
        terminal, the earliest-finished records are dropped.  A record calls
        its ``on_terminal`` attribute, outside its own lock, when it becomes
        terminal, so eviction reads no record's state and costs O(1)
        amortised.  A record is a finished comparison's only in-memory
        copy, so this bound is the bound on everything a comparison leaves
        in memory; a DONE comparison's result file outlives it where the
        datastore has a disk tier.
    """

    def __init__(self, *, max_finished_jobs: int = 256) -> None:
        if max_finished_jobs < 1:
            raise ValueError(
                f"max_finished_jobs must be a positive integer, got {max_finished_jobs}"
            )
        self.max_finished = max_finished_jobs
        self.evicted = 0
        self._lock = threading.Lock()
        self._jobs: "OrderedDict[str, JobRecord]" = OrderedDict()
        self._finish_order: "OrderedDict[str, None]" = OrderedDict()
        #: Long-lived event sinks (storage health, overload sheds): found by
        #: id like any job, but never listed, counted or evicted.
        self._sinks: Dict[str, JobRecord] = {}

    def register(self, record: JobRecord) -> JobRecord:
        """Insert ``record``, newest last; a stale same-id record is replaced.

        The replaced record's later finish is ignored.
        """
        job_id = record.job_id
        record.on_terminal = functools.partial(self._finished, job_id)
        with self._lock:
            self._jobs.pop(job_id, None)
            self._finish_order.pop(job_id, None)
            self._jobs[job_id] = record
        return record

    def _finished(self, job_id: str, record: JobRecord) -> None:
        with self._lock:
            if self._jobs.get(job_id) is not record:
                return
            self._finish_order[job_id] = None
            while len(self._finish_order) > self.max_finished:
                evicted_id, _ = self._finish_order.popitem(last=False)
                if self._jobs.pop(evicted_id, None) is not None:
                    self.evicted += 1

    def create(self, job_id: str, total_queries: int, *, description: str = "") -> JobRecord:
        """Create and register a fresh record (replaces a stale same-id record)."""
        return self.register(JobRecord(job_id, total_queries, description=description))

    def create_sink(self, job_id: str, *, description: str = "") -> JobRecord:
        """Create an unlisted record whose events stay reachable by id.

        For streams that are not comparisons and only end at shutdown:
        :meth:`list_records` and :meth:`stats` never see them.
        """
        record = JobRecord(job_id, 0, description=description)
        with self._lock:
            self._sinks[job_id] = record
        return record

    def find(self, job_id: str) -> Optional[JobRecord]:
        """Return the record for ``job_id``, or ``None`` if absent/evicted."""
        with self._lock:
            record = self._jobs.get(job_id)
            return record if record is not None else self._sinks.get(job_id)

    def get(self, job_id: str) -> JobRecord:
        """Return the record for ``job_id`` (raises :class:`TaskNotFoundError`)."""
        record = self.find(job_id)
        if record is None:
            raise TaskNotFoundError(job_id)
        return record

    def list_records(self) -> List[JobRecord]:
        """Return every registered record, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def __contains__(self, job_id: str) -> bool:
        return self.find(job_id) is not None

    def stats(self) -> Dict[str, Any]:
        """Return occupancy counters (for ``platform_stats()``)."""
        records = self.list_records()
        return {
            "jobs": len(records),
            "by_state": dict(Counter(record.state.value for record in records)),
            "evicted": self.evicted,
            "max_finished_jobs": self.max_finished,
        }
