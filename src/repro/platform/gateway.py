"""The API gateway: the single entry point the Web UI (and the CLI) talks to.

The paper: "The API gateway acts as a mediator between the computational
nodes and the web user interface.  It acts as entry point for all incoming
requests from the Web UI and routes them to the relevant computational
nodes."

:class:`ApiGateway` wires the whole platform together (catalog, datastore,
executor pool, scheduler, status component) and exposes the operations the
demo's REST API offers: list datasets and algorithms, upload a dataset,
build and submit a comparison, check its status, retrieve its results as a
comparison table, and fetch its logs.  The comparison id returned by
:meth:`submit_comparison` is the permalink of Figure 2.

Submission is non-blocking by default: the scheduler registers a job (see
:mod:`repro.platform.jobs`) and returns the comparison id immediately, and
the gateway exposes the job-centric surface on top — list running and
finished comparisons (:meth:`list_comparisons`), cancel one
(:meth:`cancel_comparison`), and follow per-query progress either as one
blocking cursor read (:meth:`get_events`, the REST long-poll) or as a
generator that yields events until the job is terminal
(:meth:`stream_events`, the SSE/CLI ``--follow`` feed).  The blocking
helpers (:meth:`wait_for`, ``synchronous=True``) are implemented on the
same event cursor.
"""

from __future__ import annotations

import threading
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Union

from ..algorithms.registry import available_algorithms, get_algorithm
from ..datasets.catalog import DatasetCatalog, default_catalog
from ..exceptions import (
    GatewayOverloadedError,
    InvalidParameterError,
    TaskNotFoundError,
)
from ..graph.analysis import graph_summary
from ..graph.digraph import DirectedGraph
from ..ranking.comparison import ComparisonTable
from ..ranking.result import Ranking
from .datastore import DataStore
from .executor import ExecutorPool
from .jobs import JobRecord, JobState
from .replication import ReplicatedShardedDataStore
from .resilience import AdmissionController, estimate_cost
from .scheduler import Scheduler
from .status import StatusComponent, TaskProgress
from .tasks import Query, QuerySet, TaskBuilder
from .telemetry import MetricsRegistry, Tracer, child_span, trace_scope

__all__ = ["ApiGateway"]


class ApiGateway:
    """Facade over the whole platform.

    Parameters
    ----------
    catalog:
        Dataset catalog; defaults to the 50 pre-loaded datasets.
    datastore:
        Result/log storage; defaults to a fresh in-memory datastore.  May be
        a :class:`~repro.platform.replication.ReplicatedShardedDataStore` —
        the scheduler and executors work against the abstract store either
        way.
    num_workers:
        Number of executor threads in the
        :class:`~repro.platform.executor.ExecutorPool`; resize it later with
        ``executor_pool.scale_to``.
    shards:
        Shard the storage layer on a ring store
        (:class:`~repro.platform.replication.ReplicatedShardedDataStore`): an
        integer builds that many in-memory backends behind a consistent-hash
        ring, a sequence of :class:`DataStore` instances shards across the
        provided backends.  Mutually exclusive with ``datastore``.
    replicas:
        Keep R copies of every dataset and result on the ring (quorum-acked
        writes, failover reads; every dataset read is a version-quorum
        read that never serves a copy below the acked version floor);
        ``1`` (the default with ``shards`` or ``spill_dir``) keeps each key
        on its primary only.  Builds the ring
        store with ``replicas + 1`` backends when ``shards`` is omitted;
        mutually exclusive with ``datastore``.
    spill_dir:
        Directory of the cold file tier: :meth:`spill_storage` demotes cold
        datasets there, reads fail over to it transparently, and its content
        survives restarts.  Builds the ring store like ``shards``.
    spill_budget_bytes:
        Automatic spill policy: whenever the estimated bytes of graph data
        resident on the memory shards exceed this budget, the gateway
        launches a coalesced spill job (``max_resident_bytes=budget``) from
        the scheduler's maintenance hook and the background prober — no
        operator POST required.  Requires a spill tier (``spill_dir``).
    probe_interval_seconds:
        Cadence of the background health prober on a ring store
        (default 5 seconds; ``0`` disables it).  Each tick pings every
        shard — driving automatic ``mark_down``/``mark_up`` through the
        store's failure detector — then re-checks the spill budget and
        kicks the read-repair drain if keys are queued, so self-healing
        continues through idle periods.
    max_finished_tasks:
        The platform's one retention bound: how many finished comparisons
        (and storage jobs) the job registry keeps, 256 by default.  Beyond
        it the earliest-finished records are evicted, at O(1) cost each.  A
        DONE comparison's permalink keeps resolving through its persisted
        result payload; a FAILED or CANCELLED one expires with its record.
    default_deadline_ms:
        Deadline applied to submissions that do not carry their own
        ``deadline_ms``: an expired job settles with a typed
        ``deadline_exceeded`` event instead of occupying a worker.
        ``None`` (the default) applies no deadline.
    admission_max_cost:
        Enable admission control: the estimated-cost budget of in-flight
        work (CycleRank queries weigh more than the light algorithms —
        see :func:`~repro.platform.resilience.estimate_cost`).  A
        submission that would exceed it is *shed before enqueueing* with
        :class:`~repro.exceptions.GatewayOverloadedError` carrying a
        computed retry-after (REST turns it into ``429`` +
        ``Retry-After``), so accepted work is never dropped.  ``None``
        disables shedding.
    admission_retry_after_seconds:
        Base of the computed retry-after; scaled with the overshoot and
        clamped to 8x.
    retry_budget_capacity:
        Tokens in the store-wide budget the ring store's storage retries
        draw from (``None`` keeps the store's default).  It configures the
        ring the gateway builds, so it needs ``shards``, ``replicas`` or
        ``spill_dir`` and is rejected with ``datastore``.
    telemetry_enabled:
        Build the gateway's :class:`~repro.platform.telemetry.MetricsRegistry`
        and :class:`~repro.platform.telemetry.Tracer` in recording mode (the
        default).  ``False`` turns every span/metric call into a no-op —
        the uninstrumented arm of ``benchmarks/bench_telemetry_overhead.py``.
    slow_span_threshold_ms:
        Spans slower than this land in the tracer's bounded slow-request
        ring, surfaced through the ``telemetry`` stats section.
    """

    #: Default background-prober cadence on ring stores, seconds.
    DEFAULT_PROBE_INTERVAL_SECONDS = 5.0

    def __init__(
        self,
        *,
        catalog: Optional[DatasetCatalog] = None,
        datastore: Optional[DataStore] = None,
        num_workers: int = 2,
        shards: Optional[Union[int, Sequence[DataStore]]] = None,
        replicas: Optional[int] = None,
        spill_dir: Optional[Union[str, Path]] = None,
        spill_budget_bytes: Optional[int] = None,
        probe_interval_seconds: Optional[float] = None,
        max_finished_tasks: Optional[int] = None,
        default_deadline_ms: Optional[int] = None,
        admission_max_cost: Optional[int] = None,
        admission_retry_after_seconds: float = 1.0,
        retry_budget_capacity: Optional[int] = None,
        telemetry_enabled: bool = True,
        slow_span_threshold_ms: float = 500.0,
    ) -> None:
        if shards is not None or replicas is not None or spill_dir is not None:
            if datastore is not None:
                raise InvalidParameterError(
                    "`shards`/`replicas`/`spill_dir` build the datastore; provide "
                    "either them or `datastore`, not both"
                )
            resolved_replicas = replicas if replicas is not None else 1
            ring_options: Dict[str, Any] = {
                "replicas": resolved_replicas,
                "spill_dir": str(spill_dir) if spill_dir is not None else None,
            }
            if retry_budget_capacity is not None:
                if retry_budget_capacity < 0:
                    raise InvalidParameterError(
                        f"retry_budget_capacity must be >= 0, got {retry_budget_capacity}"
                    )
                ring_options["retry_budget_capacity"] = retry_budget_capacity
            if shards is None or isinstance(shards, int):
                num_shards = shards if isinstance(shards, int) else max(
                    resolved_replicas + 1, 2
                )
                datastore = ReplicatedShardedDataStore(
                    num_shards=num_shards, **ring_options
                )
            else:
                datastore = ReplicatedShardedDataStore(
                    shards=list(shards), **ring_options
                )
        elif retry_budget_capacity is not None:
            raise InvalidParameterError(
                "retry_budget_capacity configures the ring store the gateway "
                "builds; pass shards=N or replicas=R, not datastore="
            )
        if not (
            isinstance(slow_span_threshold_ms, (int, float))
            and not isinstance(slow_span_threshold_ms, bool)
            and slow_span_threshold_ms > 0
        ):
            raise InvalidParameterError(
                f"slow_span_threshold_ms must be > 0, got {slow_span_threshold_ms!r}"
            )
        self.metrics = MetricsRegistry(enabled=bool(telemetry_enabled))
        self.tracer = Tracer(
            self.metrics,
            enabled=bool(telemetry_enabled),
            slow_threshold_ms=slow_span_threshold_ms,
        )
        self.catalog = catalog if catalog is not None else default_catalog()
        self.datastore = datastore if datastore is not None else DataStore()
        self.executor_pool = ExecutorPool(
            self.datastore, num_workers=num_workers, metrics=self.metrics
        )
        self.scheduler = Scheduler(
            self.datastore,
            self.catalog,
            self.executor_pool,
            max_finished_tasks=max_finished_tasks,
        )
        self.status = StatusComponent(self.scheduler, self.datastore)
        self.task_builder = TaskBuilder(self.catalog)
        # ---- self-healing storage wiring (ring stores only) ---------------- #
        if probe_interval_seconds is None:
            probe_interval_seconds = self.DEFAULT_PROBE_INTERVAL_SECONDS
        if probe_interval_seconds < 0:
            raise InvalidParameterError(
                f"probe_interval_seconds must be >= 0, got {probe_interval_seconds}"
            )
        if spill_budget_bytes is not None and spill_budget_bytes < 0:
            raise InvalidParameterError(
                f"spill_budget_bytes must be >= 0, got {spill_budget_bytes}"
            )
        ring = isinstance(self.datastore, ReplicatedShardedDataStore)
        if spill_budget_bytes is not None and (
            not ring or self.datastore.spill_store is None
        ):
            raise InvalidParameterError(
                "spill_budget_bytes requires a spill tier; build the gateway "
                "with spill_dir=..."
            )
        self._spill_budget = spill_budget_bytes
        self._probe_interval = probe_interval_seconds
        self._maintenance_lock = threading.Lock()
        self._repair_job_active = False
        self._spill_job_active = False
        self._shutting_down = False
        self._health_job: Optional[JobRecord] = None
        self._prober: Optional[threading.Thread] = None
        self._prober_stop = threading.Event()
        if ring:
            store = self.datastore
            # One long-lived, unlisted registry sink collects the failure
            # detector's typed transitions, so shard_down/shard_up stream over
            # the same long-poll/SSE surface as every other event.
            self._health_job = self.scheduler.jobs.create_sink(
                f"storage-health-{uuid.uuid4()}", description="storage health"
            )
            self._health_job.append("submitted", total_queries=0, kind="health")
            store.add_health_listener(self._on_health_transition)
            store.set_repair_launcher(self._launch_read_repair)
            self.scheduler.register_maintenance_hook(self._storage_maintenance)
            if probe_interval_seconds > 0:
                self._prober = threading.Thread(
                    target=self._probe_loop, name="storage-prober", daemon=True
                )
                self._prober.start()
        # ---- overload protection wiring ---------------------------------- #
        if default_deadline_ms is not None and (
            not isinstance(default_deadline_ms, int)
            or isinstance(default_deadline_ms, bool)
            or default_deadline_ms <= 0
        ):
            raise InvalidParameterError(
                f"default_deadline_ms must be a positive int, got {default_deadline_ms!r}"
            )
        self._default_deadline_ms = default_deadline_ms
        self._admission: Optional[AdmissionController] = None
        self._overload_job: Optional[JobRecord] = None
        if admission_max_cost is not None:
            if admission_max_cost < 0:
                raise InvalidParameterError(
                    f"admission_max_cost must be >= 0, got {admission_max_cost}"
                )
            if admission_retry_after_seconds <= 0:
                raise InvalidParameterError(
                    "admission_retry_after_seconds must be > 0, got "
                    f"{admission_retry_after_seconds}"
                )
            self._admission = AdmissionController(
                max_cost=admission_max_cost,
                retry_after_seconds=admission_retry_after_seconds,
            )
            # Shed submissions were never enqueued, so they have no job of
            # their own; a long-lived, unlisted registry sink carries the typed
            # ``shed`` events onto the same long-poll/SSE surface as everything
            # else.
            self._overload_job = self.scheduler.jobs.create_sink(
                f"gateway-overload-{uuid.uuid4()}", description="gateway overload"
            )
            self._overload_job.append("submitted", total_queries=0, kind="overload")
        self.status.register_section("overload", self._overload_stats)
        self.status.register_section("telemetry", self._telemetry_stats)
        self.status.register_section("executors", self._executor_stats)

    # ------------------------------------------------------------------ #
    # discovery endpoints
    # ------------------------------------------------------------------ #
    def list_datasets(self, *, family: Optional[str] = None) -> List[Dict[str, Any]]:
        """Return the dataset picker payload: id, family, description, tags."""
        return [
            {
                "dataset_id": descriptor.dataset_id,
                "family": descriptor.family,
                "description": descriptor.description,
                "tags": dict(descriptor.tags),
            }
            for descriptor in self.catalog.list(family=family)
        ]

    def list_algorithms(self) -> List[Dict[str, Any]]:
        """Return the algorithm picker payload: name, personalization, parameters."""
        payload = []
        for name in available_algorithms():
            algorithm = get_algorithm(name)
            payload.append(
                {
                    "name": algorithm.name,
                    "display_name": algorithm.display_name,
                    "personalized": algorithm.is_personalized,
                    "description": algorithm.spec.description,
                    "parameters": [
                        {
                            "name": spec.name,
                            "kind": spec.kind,
                            "default": spec.default,
                            "description": spec.description,
                        }
                        for spec in algorithm.spec.parameters
                    ],
                }
            )
        return payload

    def dataset_summary(self, dataset_id: str) -> Dict[str, Any]:
        """Return the structural summary card of one dataset."""
        graph = self.catalog.load(dataset_id)
        return graph_summary(graph).as_dict()

    # ------------------------------------------------------------------ #
    # dataset upload
    # ------------------------------------------------------------------ #
    def upload_dataset(
        self,
        dataset_id: str,
        source: Union[DirectedGraph, str, Path],
        *,
        format: Optional[str] = None,
        description: str = "",
        replace: bool = False,
    ) -> Dict[str, Any]:
        """Register a user-provided dataset (an in-memory graph or a file path).

        Re-uploading (``replace=True``) drops the previously materialised
        graph from the datastore and invalidates every cached ranking for the
        dataset, so subsequent queries always run against the new upload.
        """
        if isinstance(source, DirectedGraph):
            self.catalog.register_graph(
                dataset_id, source, description=description, replace=replace
            )
        else:
            self.catalog.register_file(
                dataset_id, source, format=format, description=description, replace=replace
            )
        self.datastore.drop_dataset(dataset_id)
        return self.dataset_summary(dataset_id)

    # ------------------------------------------------------------------ #
    # query sets and submission
    # ------------------------------------------------------------------ #
    def new_query_set(self) -> QuerySet:
        """Return an empty query set (a fresh comparison with its permalink id)."""
        return self.task_builder.new_query_set()

    def add_query(
        self,
        query_set: QuerySet,
        dataset_id: str,
        algorithm: str,
        *,
        source: Optional[str] = None,
        parameters: Optional[Mapping[str, Any]] = None,
    ) -> Query:
        """Validate and append one query to ``query_set``."""
        query = self.task_builder.build_query(
            dataset_id, algorithm, source=source, parameters=parameters
        )
        query_set.add(query)
        return query

    def submit_comparison(
        self,
        query_set: QuerySet,
        *,
        synchronous: bool = False,
        deadline_ms: Optional[int] = None,
    ) -> str:
        """Submit a query set for execution and return its comparison id.

        With ``synchronous=True`` the call blocks until every query has run
        (useful for scripting); otherwise queries execute on the worker pool
        and progress can be polled through :meth:`get_status`.

        ``deadline_ms`` bounds the submission end to end (defaulting to the
        gateway's ``default_deadline_ms``); with admission control enabled
        the submission may be shed *before* enqueueing with
        :class:`~repro.exceptions.GatewayOverloadedError` — nothing was
        accepted, so the caller simply retries after its ``retry_after``.
        """
        if deadline_ms is None:
            deadline_ms = self._default_deadline_ms
        job = self.task_builder.build_task(query_set, deadline_ms=deadline_ms)
        # Root span of the submission: a REST request span already on this
        # thread makes the comparison a child sharing its trace id, so one
        # HTTP request and the work it triggers form a single trace.  The
        # span stays open until the job settles (see _arm_trace_finish).
        span = self.tracer.start_trace(
            "comparison",
            comparison_id=job.job_id,
            queries=job.total_queries,
            synchronous=synchronous,
        )
        job.trace_span = span if span.recording else None
        self.metrics.counter_inc(
            "submissions_total", help="Comparisons submitted to the gateway"
        )
        cost = estimate_cost(query_set.queries)
        with trace_scope(job.trace_span):
            try:
                with child_span("admission", cost=cost):
                    admitted = self._admit(job, cost)
            except GatewayOverloadedError:
                self.metrics.counter_inc(
                    "shed_total", help="Submissions refused by admission control"
                )
                span.annotate(shed=True)
                span.finish()
                raise
            try:
                if synchronous:
                    self.scheduler.run_synchronously(job)
                else:
                    self.scheduler.submit(job)
            except BaseException:
                if admitted:
                    self._admission.release(cost)
                span.finish()
                raise
        self._arm_trace_finish(job.job_id, span)
        if admitted:
            self._arm_admission_release(job.job_id, cost)
        return job.job_id

    def run_queries(
        self,
        queries: Sequence[Mapping[str, Any]],
        *,
        synchronous: bool = True,
        deadline_ms: Optional[int] = None,
    ) -> str:
        """Build a query set from plain dictionaries and submit it.

        Each mapping must provide ``dataset_id`` and ``algorithm`` and may
        provide ``source`` and ``parameters`` — the JSON body of the demo's
        submission endpoint.  ``deadline_ms`` is forwarded to
        :meth:`submit_comparison`.
        """
        query_set = self.new_query_set()
        for raw in queries:
            self.add_query(
                query_set,
                raw["dataset_id"],
                raw["algorithm"],
                source=raw.get("source"),
                parameters=raw.get("parameters"),
            )
        return self.submit_comparison(
            query_set, synchronous=synchronous, deadline_ms=deadline_ms
        )

    # ------------------------------------------------------------------ #
    # admission control (load shedding before enqueue)
    # ------------------------------------------------------------------ #
    def _admit(self, job: JobRecord, cost: int) -> bool:
        """Reserve ``cost`` against the admission budget, or shed the submission.

        Returns whether a reservation was made (``False`` when admission
        control is disabled).  Shedding happens before the scheduler ever
        sees the comparison: a typed ``shed`` event lands on the overload job and
        :class:`GatewayOverloadedError` carries the computed retry-after.
        """
        if self._admission is None:
            return False
        admitted, retry_after = self._admission.try_admit(cost)
        if admitted:
            return True
        if self._overload_job is not None:
            self._overload_job.append(
                "shed",
                comparison_id=job.job_id,
                cost=cost,
                retry_after=round(retry_after, 3),
            )
        raise GatewayOverloadedError(
            f"gateway over admission budget (estimated cost {cost}); "
            f"retry after {retry_after:.2f}s",
            retry_after=retry_after,
        )

    def _arm_admission_release(self, task_id: str, cost: int) -> None:
        """Release the admission reservation exactly once, when the job settles.

        Subscribes to the job's event stream for ``task_done`` and then
        covers the finished-before-subscribe race with a terminal-state
        check; the once-guard makes the two paths (and any duplicate
        callbacks) idempotent.
        """
        admission = self._admission
        if admission is None:
            return
        job = self.scheduler.jobs.find(task_id)
        if job is None:
            admission.release(cost)
            return
        released = [False]
        release_lock = threading.Lock()

        def release_once() -> None:
            with release_lock:
                if released[0]:
                    return
                released[0] = True
            admission.release(cost)

        def on_event(event) -> None:
            if event.type == "task_done":
                release_once()

        job.subscribe(on_event)
        if job.state.is_terminal():
            release_once()

    def _arm_trace_finish(self, task_id: str, span: Any) -> None:
        """Finish the submission's root span exactly once, when the job settles.

        Mirrors :meth:`_arm_admission_release`: subscribe for ``task_done``,
        then cover the finished-before-subscribe race with a terminal-state
        check; the span's own ``finish()`` idempotence absorbs duplicates.
        """
        if not span.recording:
            return
        job = self.scheduler.jobs.find(task_id)
        if job is None:
            span.finish()
            return

        def finish_span() -> None:
            span.annotate(state=job.state.value)
            span.finish()

        def on_event(event) -> None:
            if event.type == "task_done":
                finish_span()

        job.subscribe(on_event)
        if job.state.is_terminal():
            finish_span()

    def shed_events(self, *, after: int = 0) -> List[Dict[str, Any]]:
        """Return the typed ``shed`` events admission control has recorded."""
        job = self._overload_job
        if job is None:
            return []
        return [
            event.as_dict()
            for event in job.events()
            if event.seq > after and event.type == "shed"
        ]

    def _overload_stats(self) -> Dict[str, Any]:
        """The ``overload`` section of :meth:`get_platform_stats`."""
        payload: Dict[str, Any] = {
            "deadlines": {
                "default_deadline_ms": self._default_deadline_ms,
                **self.scheduler.overload_stats(),
            }
        }
        if self._admission is not None:
            payload["admission"] = {"enabled": True, **self._admission.stats()}
        else:
            payload["admission"] = {"enabled": False}
        store = self.datastore
        if isinstance(store, ReplicatedShardedDataStore):
            replication = store.replication_stats()
            payload["storage"] = {
                "retries": replication["retries"],
                "stale_reads_prevented": replication["stale_reads_prevented"],
                "digest_reads": replication["digest_reads"],
                "version_conflicts_resolved": replication[
                    "version_conflicts_resolved"
                ],
            }
        return payload

    # ------------------------------------------------------------------ #
    # status / results
    # ------------------------------------------------------------------ #
    def get_status(self, comparison_id: str) -> TaskProgress:
        """Return the progress snapshot of a submitted comparison."""
        return self.status.poll(comparison_id)

    def list_comparisons(self) -> List[Dict[str, Any]]:
        """Return one summary row per known comparison job, oldest first.

        The listing is bounded: the registry retains every active job but
        only the most recent finished ones (their results remain retrievable
        by permalink after the row ages out).
        """
        return [record.summary() for record in self.scheduler.jobs.list_records()]

    def cancel_comparison(self, comparison_id: str) -> Dict[str, Any]:
        """Request cooperative cancellation of a running comparison.

        Returns ``{"comparison_id", "cancelled", "state"}`` where
        ``cancelled`` says whether the request was recorded (``False`` for
        an already-finished job) and ``state`` is the state observed right
        after the request.  Raises
        :class:`~repro.exceptions.TaskNotFoundError` for unknown ids.
        """
        cancelled = self.scheduler.cancel(comparison_id)
        progress = self.get_status(comparison_id)
        return {
            "comparison_id": comparison_id,
            "cancelled": cancelled,
            "state": progress.state.value,
        }

    def get_events(
        self,
        comparison_id: str,
        *,
        after: int = 0,
        timeout: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """One blocking cursor read over a comparison's event log.

        Returns every event with ``seq > after`` as plain dictionaries,
        blocking up to ``timeout`` seconds for the first new one (a finished
        job returns immediately).  This is the REST long-poll primitive.
        """
        return [
            event.as_dict()
            for event in self.status.events_since(
                comparison_id, after=after, timeout=timeout
            )
        ]

    def stream_events(
        self,
        comparison_id: str,
        *,
        after: int = 0,
        poll_timeout: float = 1.0,
    ) -> Iterator[Dict[str, Any]]:
        """Yield a comparison's events in ``seq`` order until it finishes.

        The generator blocks on the event cursor between batches
        (``poll_timeout`` bounds each wait) and terminates after yielding
        the ``task_done`` event, so ``for event in stream_events(...)``
        renders live progress and ends by itself — the SSE endpoint and the
        CLI ``--follow`` flag are thin loops over this.
        """
        cursor = after
        while True:
            events = self.status.events_since(
                comparison_id, after=cursor, timeout=poll_timeout
            )
            for event in events:
                cursor = event.seq
                yield event.as_dict()
                if event.type == "task_done":
                    return
            if not events and self.get_status(comparison_id).state.is_terminal():
                return

    def get_platform_stats(self) -> Dict[str, Any]:
        """Return the serving counters: result-cache stats and batch sizes."""
        return self.status.platform_stats()

    # ------------------------------------------------------------------ #
    # telemetry surface (traces, /metrics, the telemetry stats section)
    # ------------------------------------------------------------------ #
    def get_trace(self, comparison_id: str) -> Dict[str, Any]:
        """Return the reconstructed span tree of a submitted comparison.

        The payload carries the job state, the trace id and a ``trace``
        tree (``None`` when telemetry is disabled or the trace aged out of
        the tracer's bounded store).  Unknown comparison ids raise
        :class:`~repro.exceptions.TaskNotFoundError`.
        """
        job = self.scheduler.jobs.get(comparison_id)
        trace_id = job.trace_id
        tree = self.tracer.trace_tree(trace_id) if trace_id else None
        return {
            "comparison_id": comparison_id,
            "state": job.state.value,
            "trace_id": trace_id,
            "trace": tree,
        }

    def render_metrics(self) -> str:
        """Render the registry as a Prometheus text exposition (``GET /metrics``).

        A handful of platform counters are mirrored as scrape-time gauges so
        one scrape answers the basic capacity questions without walking the
        JSON stats surface.
        """
        self._refresh_runtime_gauges()
        return self.metrics.render_prometheus()

    def _refresh_runtime_gauges(self) -> None:
        if not self.metrics.enabled:
            return
        cache = self.scheduler.cache_stats()
        self.metrics.gauge_set(
            "result_cache_hits", cache.get("hits", 0),
            help="Result-cache hits since start",
        )
        self.metrics.gauge_set(
            "result_cache_misses", cache.get("misses", 0),
            help="Result-cache misses since start",
        )
        batches = self.scheduler.batch_stats()
        self.metrics.gauge_set(
            "batches_dispatched", batches.get("batches", 0),
            help="Batched executions dispatched since start",
        )
        self.metrics.gauge_set(
            "inflight_queries", batches.get("inflight_queries", 0),
            help="Single-flight table occupancy",
        )
        for state, count in self.scheduler.jobs.stats().get("by_state", {}).items():
            self.metrics.gauge_set(
                "jobs", count, help="Registered jobs by lifecycle state",
                state=state,
            )
        if self._admission is not None:
            self.metrics.gauge_set(
                "admission_in_flight_cost",
                self._admission.stats().get("inflight_cost", 0),
                help="Reserved admission cost of in-flight work",
            )
        self.metrics.gauge_set(
            "executor_busy_workers", self.executor_pool.busy_workers,
            help="Executor workers currently running a batch",
        )
        if isinstance(self.datastore, ReplicatedShardedDataStore):
            replication = self.datastore.replication_stats()
            self.metrics.gauge_set(
                "storage_stale_reads_prevented",
                replication["stale_reads_prevented"],
                help="Below-floor replica answers withheld by the read path",
            )
            self.metrics.gauge_set(
                "storage_digest_reads", replication["digest_reads"],
                help="Version-digest quorum rounds run by the replicated store",
            )
            self.metrics.gauge_set(
                "storage_version_conflicts_resolved",
                replication["version_conflicts_resolved"],
                help="Replica version divergences resolved by digest rounds",
            )

    def _executor_stats(self) -> Dict[str, Any]:
        """The ``executors`` section of :meth:`get_platform_stats`."""
        return self.executor_pool.stats()

    def _telemetry_stats(self) -> Dict[str, Any]:
        """The ``telemetry`` section of :meth:`get_platform_stats`."""
        return {
            "tracer": self.tracer.stats(),
            "metrics": self.metrics.snapshot(),
        }

    # ------------------------------------------------------------------ #
    # storage maintenance jobs (replication / spill / rebalance)
    # ------------------------------------------------------------------ #
    def _ring_store(self) -> ReplicatedShardedDataStore:
        if not isinstance(self.datastore, ReplicatedShardedDataStore):
            raise InvalidParameterError(
                "this operation requires a ring datastore; build the gateway "
                "with shards=N or replicas=R (and optionally spill_dir=...)"
            )
        return self.datastore

    def _launch_storage_job(
        self, kind: str, runner: Callable[[JobRecord], Any], *, wait: bool
    ) -> str:
        """Register a maintenance job and run ``runner`` on the worker pool.

        The job lives in the same registry as comparison jobs, so the whole
        observation surface comes for free: it shows up in
        :meth:`list_comparisons`, streams ``progress`` events over
        :meth:`get_events`/:meth:`stream_events` (REST long-poll and SSE),
        and :meth:`cancel_comparison` requests cooperative cancellation —
        the migration loop stops at its next item boundary and the job
        finishes ``CANCELLED``.
        """
        job_id = str(uuid.uuid4())
        job = self.scheduler.jobs.create(job_id, 0, description=f"storage {kind}")
        job.append("submitted", total_queries=0, kind=kind)

        def body() -> None:
            try:
                runner(job)
            except Exception as exc:
                job.finish(JobState.FAILED, error=str(exc))
                return
            if job.cancel_requested:
                job.finish(JobState.CANCELLED)
            else:
                job.finish(JobState.DONE)

        self.executor_pool.submit_work(body)
        if wait:
            job.wait_done()
        return job_id

    def replicate_storage(self, *, wait: bool = False) -> str:
        """Start a replication-repair job; return its job id.

        The job scans the ring and restores R copies of every dataset and
        result (after a shard outage or a topology change), updating the
        replication-lag figure in :meth:`get_platform_stats`.
        """
        store = self._ring_store()
        return self._launch_storage_job(
            "replicate", lambda job: store.replicate(job=job), wait=wait
        )

    def spill_storage(
        self,
        *,
        max_resident: Optional[int] = None,
        max_resident_bytes: Optional[int] = None,
        dataset_ids: Optional[Sequence[str]] = None,
        wait: bool = False,
    ) -> str:
        """Start a spill job demoting cold datasets to the file tier.

        Provide exactly one of ``max_resident`` (keep at most that many
        datasets on the memory shards; coldest spill first),
        ``max_resident_bytes`` (spill coldest-first until the estimated
        resident graph bytes fit the budget) or ``dataset_ids`` (explicit
        victims).
        """
        store = self._ring_store()
        if store.spill_store is None:
            raise InvalidParameterError(
                "no spill tier is configured; build the gateway with spill_dir=..."
            )
        policies = [
            policy
            for policy in (max_resident, max_resident_bytes, dataset_ids)
            if policy is not None
        ]
        if len(policies) != 1:
            raise InvalidParameterError(
                "provide exactly one of `max_resident`, `max_resident_bytes` "
                "or `dataset_ids`"
            )
        victims = list(dataset_ids) if dataset_ids is not None else None
        return self._launch_storage_job(
            "spill",
            lambda job: store.spill(
                max_resident=max_resident,
                max_resident_bytes=max_resident_bytes,
                dataset_ids=victims,
                job=job,
            ),
            wait=wait,
        )

    def rebalance_storage(self, *, wait: bool = False) -> str:
        """Start a rebalance job restoring canonical placement (and R copies)."""
        store = self._ring_store()
        return self._launch_storage_job(
            "rebalance", lambda job: store.rebalance(job=job), wait=wait
        )

    def read_repair_storage(self, *, wait: bool = False) -> str:
        """Start a job draining the read-repair queue; return its job id.

        Failover reads enqueue their keys automatically (and the gateway
        normally launches this job by itself through the store's repair
        launcher); the explicit entry point exists for operators and the
        ``POST /api/storage/read-repair`` endpoint.
        """
        store = self._ring_store()
        return self._launch_storage_job(
            "read-repair", lambda job: store.drain_read_repairs(job=job), wait=wait
        )

    # ------------------------------------------------------------------ #
    # self-healing wiring (health prober, repair launcher, spill budget)
    # ------------------------------------------------------------------ #
    def _on_health_transition(self, shard_id: str, transition: str, streak: int) -> None:
        """Store health listener: record the transition as a typed job event.

        Runs under the store's routing lock, so it only appends to the
        long-lived health job record (never calls back into the store).
        """
        job = self._health_job
        if job is not None:
            job.append(
                "shard_down" if transition == "down" else "shard_up",
                shard=shard_id,
                failures=streak,
            )

    def health_events(self, *, after: int = 0) -> List[Dict[str, Any]]:
        """Return the recorded shard health transitions (typed job events)."""
        job = self._health_job
        if job is None:
            return []
        return [
            event.as_dict()
            for event in job.events()
            if event.seq > after and event.type in ("shard_down", "shard_up")
        ]

    def _launch_read_repair(self) -> None:
        """Launch a coalesced background drain of the read-repair queue.

        Called by the store whenever a failover read queues a key, and by
        the prober when keys are pending.  At most one drain job runs at a
        time; keys queued while it runs are picked up by its loop, and a
        key that slips in exactly as the drain finishes is caught by the
        re-kick below.
        """
        store = self.datastore
        if not isinstance(store, ReplicatedShardedDataStore):
            return
        if store.pending_read_repairs() == 0:
            return
        with self._maintenance_lock:
            if self._repair_job_active or self._shutting_down:
                return
            self._repair_job_active = True

        def runner(job: JobRecord) -> Any:
            try:
                return store.drain_read_repairs(job=job)
            finally:
                with self._maintenance_lock:
                    self._repair_job_active = False
                if store.pending_read_repairs():
                    self._launch_read_repair()

        try:
            self._launch_storage_job("read-repair", runner, wait=False)
        except BaseException:
            with self._maintenance_lock:
                self._repair_job_active = False
            raise

    def _check_spill_budget(self) -> None:
        """Launch a coalesced spill job when resident bytes exceed the budget."""
        budget = self._spill_budget
        store = self.datastore
        if budget is None or not isinstance(store, ReplicatedShardedDataStore):
            return
        try:
            resident = store.resident_dataset_bytes()
        except Exception:
            return
        if resident <= budget:
            return
        with self._maintenance_lock:
            if self._spill_job_active or self._shutting_down:
                return
            self._spill_job_active = True

        def runner(job: JobRecord) -> Any:
            try:
                return store.spill(max_resident_bytes=budget, job=job)
            finally:
                with self._maintenance_lock:
                    self._spill_job_active = False

        try:
            self._launch_storage_job("spill", runner, wait=False)
        except BaseException:
            with self._maintenance_lock:
                self._spill_job_active = False
            raise

    def _storage_maintenance(self) -> None:
        """Scheduler maintenance hook: runs after every settled work unit."""
        self._check_spill_budget()
        store = self.datastore
        if (
            isinstance(store, ReplicatedShardedDataStore)
            and store.pending_read_repairs()
        ):
            self._launch_read_repair()

    def _probe_loop(self) -> None:
        """Background prober: ping shards, then re-run the maintenance checks."""
        store = self.datastore
        while not self._prober_stop.wait(self._probe_interval):
            try:
                store.probe_shards()
            except Exception:
                pass
            try:
                self._storage_maintenance()
            except Exception:
                pass

    def wait_for(self, comparison_id: str, *, timeout_seconds: float = 60.0) -> TaskProgress:
        """Block until a comparison finishes; return the final progress.

        Blocks on the job's event cursor (``task_done`` is emitted after the
        results are persisted), so the pre-refactor contract — results are
        readable the moment this returns — still holds.
        """
        return self.status.poll_until_done(comparison_id, timeout_seconds=timeout_seconds)

    def get_task(self, comparison_id: str) -> JobRecord:
        """Return the comparison's record (mostly for tests and tooling)."""
        return self.scheduler.get_task(comparison_id)

    def get_rankings(self, comparison_id: str) -> List[Ranking]:
        """Return the rankings of a finished comparison, in query order."""
        rankings = self.scheduler.rankings_for(comparison_id)
        return [rankings[index] for index in sorted(rankings)]

    def get_logs(self, comparison_id: str) -> List[str]:
        """Return the execution log of a comparison."""
        return self.status.logs(comparison_id)

    def get_comparison_table(
        self,
        comparison_id: str,
        *,
        k: int = 5,
        title: str = "",
    ) -> ComparisonTable:
        """Assemble the top-k comparison table of a finished comparison.

        Column headers combine the algorithm display name with the dataset
        when the comparison spans several datasets (the dataset-comparison
        use case) and just the display name otherwise (algorithm comparison).

        A comparison whose record aged out of the bounded job registry is
        reassembled from the result payload persisted in the datastore, so
        permalinks outlive the in-memory record.
        """
        try:
            queries = self.scheduler.get_task(comparison_id).query_set.queries
        except TaskNotFoundError:
            payload = self.scheduler.stored_result(comparison_id)
            queries = [Query(**raw) for raw in payload.get("queries", [])]
        rankings = self.scheduler.rankings_for(comparison_id)
        datasets = {query.dataset_id for query in queries}
        named: Dict[str, Ranking] = {}
        for index in sorted(rankings):
            query = queries[index]
            algorithm = get_algorithm(query.algorithm)
            header = algorithm.display_name
            if len(datasets) > 1:
                header = f"{header} @ {query.dataset_id}"
            if header in named:
                header = f"{header} #{index}"
            named[header] = rankings[index]
        return ComparisonTable.from_rankings(
            named,
            k=k,
            title=title or f"Comparison {comparison_id}",
            metadata={
                "comparison_id": comparison_id,
                "datasets": sorted(datasets),
                "queries": [query.as_dict() for query in queries],
            },
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Stop the prober and health job, then shut down the executor pool."""
        with self._maintenance_lock:
            self._shutting_down = True
        self._prober_stop.set()
        if self._prober is not None:
            self._prober.join(timeout=5.0)
            self._prober = None
        if isinstance(self.datastore, ReplicatedShardedDataStore):
            self.datastore.set_repair_launcher(None)
        if self._health_job is not None:
            self._health_job.finish(JobState.DONE)
        if self._overload_job is not None:
            self._overload_job.finish(JobState.DONE)
        self.executor_pool.shutdown()

    def __enter__(self) -> "ApiGateway":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()
