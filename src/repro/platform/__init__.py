"""The demo platform of Section III, reproduced as an in-process system.

The paper's deployment consists of four containerized components — the
Datastore, the API gateway, the Computational nodes and the Web UI — and a
five-step task lifecycle (build task → schedule → execute on workers → write
results and logs to the datastore → return results to the UI).  This package
reproduces the same component decomposition with in-process equivalents:

``datastore``
    Stores datasets, results and logs; in-memory by default with optional
    directory persistence.
``sharding``
    The consistent-hash :class:`HashRing` that places keys on shards.
``replication``
    The ring store, :class:`ReplicatedShardedDataStore`: it spreads datasets
    (with their result caches and compiled artifacts) across N backend
    datastores while keeping the scheduler and gateway oblivious, writes
    every key to R ring successors (quorum-acked; ``R = 1`` is the
    unreplicated ring), reads with transparent failover, spills cold
    datasets to a file-backed tier (:class:`FileBackedDataStore`), and runs
    replicate/spill/rebalance as cancellable jobs on the job registry.
``cache``
    The platform-wide LRU :class:`ResultCache` of finished rankings, owned
    by the datastore and consulted by the scheduler before any dispatch.
``tasks``
    :class:`Query`, :class:`QuerySet` and :class:`TaskBuilder` — the task
    builder of Figure 2, producing (dataset, algorithm, parameters) triples
    identified by a permalink id — and the :class:`TaskState` status
    vocabulary.
``jobs``
    The job/event subsystem: :class:`JobRegistry` of :class:`JobRecord`\\ s,
    one per comparison, each carrying an explicit lifecycle and an
    append-only event log with blocking cursor reads — the seam the
    non-blocking submission, streamed progress and cooperative cancellation
    are built on.
``resilience``
    The overload-protection primitives shared by the gateway, scheduler and
    replicated storage: :class:`Deadline` propagation, the
    :class:`AdmissionController` (load shedding with Retry-After hints),
    and the :class:`RetryPolicy`/:class:`TokenBucket` retry discipline.
``telemetry``
    The observability layer: a process-wide :class:`MetricsRegistry`
    (counters, gauges, log-bucket latency histograms with a Prometheus
    text exposition) and a :class:`Tracer` minting one trace per
    comparison, with spans propagated through the same thread-local seam
    deadlines use (``trace_scope`` / ``child_span``).
``executor``
    Executor (worker) nodes running queries on a thread pool that can be
    scaled up or down.
``scheduler``
    Receives tasks, fetches datasets, dispatches queries to executors and
    tracks progress.
``status``
    The polling component the UI uses to monitor running tasks.
``gateway``
    The API gateway: the single entry point the Web UI (and the CLI) talks
    to.
``webui``
    A deterministic text/HTML renderer of the task-builder view and of the
    comparison tables — the presentation half of the demo, minus the browser.
"""

from __future__ import annotations

from .cache import ResultCache
from .datastore import DataStore, FileBackedDataStore
from .executor import BatchExecutionOutcome, ExecutionOutcome, ExecutorNode, ExecutorPool
from .gateway import ApiGateway
from .jobs import JobEvent, JobRecord, JobRegistry, JobState, QueryState
from .replication import ReplicatedResultCache, ReplicatedShardedDataStore
from .resilience import (
    AdmissionController,
    Deadline,
    RetryPolicy,
    TokenBucket,
    current_deadline,
    deadline_scope,
    estimate_cost,
)
from .restapi import RestApiServer
from .scheduler import Scheduler
from .sharding import HashRing
from .status import StatusComponent, TaskProgress
from .tasks import Query, QuerySet, TaskBuilder, TaskState
from .telemetry import (
    MetricsRegistry,
    Span,
    Tracer,
    add_span_event,
    child_span,
    current_span,
    trace_scope,
)
from .webui import WebUI

__all__ = [
    "DataStore",
    "FileBackedDataStore",
    "HashRing",
    "ReplicatedResultCache",
    "ReplicatedShardedDataStore",
    "ResultCache",
    "Query",
    "QuerySet",
    "TaskState",
    "TaskBuilder",
    "ExecutorNode",
    "ExecutorPool",
    "ExecutionOutcome",
    "BatchExecutionOutcome",
    "JobEvent",
    "JobRecord",
    "JobRegistry",
    "JobState",
    "QueryState",
    "AdmissionController",
    "Deadline",
    "RetryPolicy",
    "TokenBucket",
    "current_deadline",
    "deadline_scope",
    "estimate_cost",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "add_span_event",
    "child_span",
    "current_span",
    "trace_scope",
    "Scheduler",
    "StatusComponent",
    "TaskProgress",
    "ApiGateway",
    "RestApiServer",
    "WebUI",
]
