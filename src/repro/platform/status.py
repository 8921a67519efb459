"""The Status component: a projection of job event logs into progress snapshots.

Section III, step 3: "while the computation is running, the Status component
polls the Executor node to monitor its progress"; step 4: "the Status
component can access [results and logs] in response to user requests."
The log is the record's event log rendered with
:func:`~repro.platform.jobs.describe_event` (:meth:`StatusComponent.logs`),
so it lives and expires with the record.

The component busy-polls nothing: each submitted comparison has one
record, a :class:`~repro.platform.jobs.JobRecord` whose append-only event
log decides its state, and :meth:`StatusComponent.poll` *projects* that
record into a :class:`TaskProgress` snapshot in the
:class:`~repro.platform.tasks.TaskState` vocabulary.  A record evicted from
the bounded registry is always terminal, so the only fallback is one read
of the result file: a DONE permalink keeps resolving where the datastore
has a disk tier, a FAILED or CANCELLED one expires with its record.
:meth:`poll_until_done` blocks on the job's event cursor, and
:meth:`events_since` exposes the raw cursor read that the REST
long-poll/SSE endpoints and the CLI ``--follow`` renderer consume.

The component also hosts pluggable *stats sections* via
:meth:`StatusComponent.register_section`: the gateway registers its
``overload`` (admission/deadline/retry counters) and ``telemetry``
(tracer + metrics snapshot, see :mod:`repro.platform.telemetry`) sections
here, so ``platform_stats()`` / ``GET /api/stats`` surface them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..exceptions import TaskError
from .datastore import DataStore
from .jobs import JobEvent, JobRecord, JobState, describe_event
from .scheduler import Scheduler
from .tasks import TaskState

__all__ = ["TaskProgress", "StatusComponent"]

#: Projection of job lifecycle states onto the task-level states the
#: gateway, REST layer and CLI have always reported.
_JOB_TO_TASK_STATE = {
    JobState.QUEUED: TaskState.PENDING,
    JobState.RUNNING: TaskState.RUNNING,
    JobState.DONE: TaskState.COMPLETED,
    JobState.FAILED: TaskState.FAILED,
    JobState.CANCELLED: TaskState.CANCELLED,
}


@dataclass(frozen=True)
class TaskProgress:
    """A snapshot of one task's progress."""

    task_id: str
    state: TaskState
    completed_queries: int
    total_queries: int
    error: Optional[str] = None

    @property
    def fraction_done(self) -> float:
        """Return the completed fraction in [0, 1]."""
        if self.total_queries == 0:
            return 1.0
        return self.completed_queries / self.total_queries

    def describe(self) -> str:
        """Return a one-line progress summary for the UI."""
        line = (
            f"task {self.task_id[:8]}: {self.state.value} "
            f"({self.completed_queries}/{self.total_queries} queries)"
        )
        if self.error:
            line += f" — error: {self.error}"
        return line


class StatusComponent:
    """Projects job event logs into progress snapshots, results and logs."""

    def __init__(self, scheduler: Scheduler, datastore: DataStore) -> None:
        self._scheduler = scheduler
        self._datastore = datastore
        self._registry = scheduler.jobs
        self._sections: Dict[str, Callable[[], Dict[str, Any]]] = {}

    def register_section(
        self, name: str, provider: Callable[[], Dict[str, Any]]
    ) -> None:
        """Register an extra top-level ``platform_stats`` section.

        ``provider`` is called on every stats read; components that carry
        their own counters (e.g. the gateway's overload-protection layer)
        register here instead of the status component reaching into them.
        Registering the same name again replaces the provider.
        """
        self._sections[name] = provider

    # ------------------------------------------------------------------ #
    # progress
    # ------------------------------------------------------------------ #
    @staticmethod
    def _project(job: JobRecord) -> TaskProgress:
        """Fold one job record (itself a fold of its event log) into a snapshot."""
        summary = job.summary()
        return TaskProgress(
            task_id=job.job_id,
            state=_JOB_TO_TASK_STATE[JobState(summary["state"])],
            completed_queries=summary["completed_queries"],
            total_queries=summary["total_queries"],
            error=summary["error"],
        )

    def poll(self, task_id: str) -> TaskProgress:
        """Return the current progress snapshot of ``task_id``."""
        job = self._registry.find(task_id)
        if job is not None:
            return self._project(job)
        # The record was evicted from the bounded registry, hence terminal:
        # a completed comparison's result file (on a store with a disk tier)
        # keeps the permalink resolving.
        payload = self._scheduler.stored_result(task_id)
        rankings = payload.get("rankings", {})
        return TaskProgress(
            task_id=task_id,
            state=TaskState(str(payload.get("state", TaskState.COMPLETED.value))),
            completed_queries=len(rankings),
            total_queries=len(payload.get("queries", rankings)),
            error=None,
        )

    def poll_until_done(self, task_id: str, *, timeout_seconds: float = 60.0) -> TaskProgress:
        """Block on the job's event cursor until the comparison is terminal.

        An evicted record was terminal already, so its snapshot is returned
        at once.

        Raises
        ------
        TaskError
            If the timeout expires before the comparison finishes.
        """
        job = self._registry.find(task_id)
        if job is None:
            return self.poll(task_id)
        if not job.wait_done(timeout_seconds):
            progress = self._project(job)
            raise TaskError(
                f"task {task_id} did not finish within {timeout_seconds} seconds "
                f"({progress.completed_queries}/{progress.total_queries} queries done)"
            )
        return self._project(job)

    # ------------------------------------------------------------------ #
    # event cursors
    # ------------------------------------------------------------------ #
    def events_since(
        self, task_id: str, *, after: int = 0, timeout: Optional[float] = None
    ) -> List[JobEvent]:
        """Blocking cursor read over a job's event log (``seq > after``).

        Raises :class:`~repro.exceptions.TaskNotFoundError` when the job is
        unknown or its record was evicted from the bounded registry.
        """
        return self._registry.get(task_id).events_since(after, timeout=timeout)

    # ------------------------------------------------------------------ #
    # results and logs
    # ------------------------------------------------------------------ #
    def logs(self, task_id: str) -> List[str]:
        """Return the execution log of ``task_id``: its events, one line each.

        Raises :class:`~repro.exceptions.TaskNotFoundError` when the job is
        unknown or its record was evicted, like :meth:`events_since`.
        """
        return [
            describe_event(event.as_dict())
            for event in self._registry.get(task_id).events()
        ]

    def platform_stats(self) -> Dict[str, Any]:
        """Return the platform-wide serving counters.

        ``cache`` holds the result-cache hit/miss/eviction counters,
        ``batches`` the scheduler's batched-dispatch summary,
        ``artifacts`` the compiled-graph artifact cache counters and
        ``jobs`` the job-registry occupancy (states, evictions) — together
        they show how much of the workload was answered without
        recomputation (of rankings and of graph structure alike).  When the
        platform runs on a ring store
        (:class:`~repro.platform.replication.ReplicatedShardedDataStore`)
        a ``shards`` section is added: ring topology, per-shard health,
        occupancy and hit rates (the cache/artifact sections then aggregate
        across shards and carry their own per-shard breakdowns).  Sections
        registered with :meth:`register_section` — such as the gateway's
        ``overload`` section (deadline, admission and storage-retry
        counters) — are merged in last.
        """
        stats = {
            "cache": self._scheduler.cache_stats(),
            "batches": self._scheduler.batch_stats(),
            "artifacts": self._scheduler.artifact_stats(),
            "jobs": self._registry.stats(),
        }
        shard_stats = getattr(self._datastore, "shard_stats", None)
        if callable(shard_stats):
            # On a ring store the section also carries
            # ``replication`` (quorum, failovers, lag, read-repair and
            # tombstone counters), ``spill`` (file-tier occupancy, resident
            # bytes) and ``health`` (failure-detector streaks and automatic
            # transition counts) subsections.
            stats["shards"] = shard_stats()
        for name, provider in self._sections.items():
            stats[name] = provider()
        return stats

    def stored_result(self, task_id: str) -> dict:
        """Return the serialised results stored in the datastore for ``task_id``."""
        return self._datastore.get_result(task_id)
