"""The Scheduler: fetches datasets and dispatches queries to executor nodes.

Section III, step 2: "when the Scheduler receives the task, it fetches the
dataset and invokes an Executor node"; step 3: "the computation needed to
perform the task is off-loaded to the worker nodes"; step 4: "when the
computation is completed, results and logs are written to the datastore".

The scheduler owns the job registry, which holds the one record per
comparison (so the Status component and the gateway can look comparisons up
by id), materialises datasets from the catalog into the datastore on first
use and, when the last query finishes, hands the result payload to the
datastore under the comparison id.  The record is the comparison's one
in-memory copy: its rankings and its event log (which the Status component
renders as the execution log) live there, and the datastore writes the
payload to disk only when it has a directory.

Dispatch is *batched and cached*: the queries of a comparison are grouped by
``(dataset, algorithm, parameters)``, queries whose ranking is already in the
platform-wide :class:`~repro.platform.cache.ResultCache` are answered without
touching an executor, and the remainder of each group is submitted as one
batched execution so the per-dataset work (CSR build, transition matrix) is
paid once per group instead of once per query.  Identical queries that are
in flight — whether from the same comparison or from concurrently submitted ones —
are deduplicated through a single-flight table, so the platform never
computes the same ranking twice concurrently.

A *derived* algorithm (one declaring ``inputs``, such as 2DRank built from a
PPR and a CheiRank) computes nothing of its own.  Its groups run after every
other group of the comparison, and each of its misses resolves each input as
an ordinary query — same dataset, source and parameters — through the same
cache keys and single-flight table: a cached input is used, an in-flight one
is joined, and a missing one is computed on the group's own thread and
cached under its own key before the algorithm's ``combine`` runs.  So a
comparison asking for PPR, CheiRank and 2DRank on one source runs each power
iteration once, and a later PPR query hits the ranking a 2DRank computed.

Dispatch is also *event-driven*: every submission registers its
:class:`~repro.platform.jobs.JobRecord` in the scheduler's
:class:`~repro.platform.jobs.JobRegistry` and emits a typed event at every
state transition (``submitted``, ``query_started``, ``query_cached``,
``query_completed``, ``query_failed``, ``cancelled``, ``task_done``), so the
Status component, the REST long-poll/SSE endpoints and the CLI ``--follow``
renderer observe progress by reading the append-only per-job event log
instead of busy-polling counters.  :meth:`Scheduler.submit` returns as soon
as the job is registered — dataset materialisation, cache lookup and batch
execution all happen on the worker pool — and cancellation is cooperative:
:meth:`Scheduler.cancel` raises the job's flag, which is checked before
each batch group is dispatched.  A cancelled group's single-flight entries
are only abandoned when no *other* live job has joined them; shared keys
keep computing so one user's cancel can never poison a concurrent identical
query.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..algorithms.registry import get_algorithm
from ..datasets.catalog import DatasetCatalog
from ..exceptions import (
    AlgorithmNotFoundError,
    DeadlineExceededError,
    JobCancelledError,
    StorageError,
    TaskNotFoundError,
)
from ..ranking.result import Ranking
from .cache import CacheKey, ResultCache, _canonical_parameters
from .datastore import DataStore
from .executor import ExecutorPool
from .jobs import JobRecord, JobRegistry, JobState
from .resilience import deadline_scope
from .tasks import Query, QuerySet, TaskState
from .telemetry import add_span_event, child_span, trace_scope

__all__ = ["Scheduler"]

#: A group of same-(dataset, algorithm, parameters) queries: the group key
#: plus the (query index, query) members in query-set order.
GroupKey = Tuple[str, str, Tuple[Tuple[str, Any], ...]]


def _inputs_of(algorithm: str) -> Tuple[str, ...]:
    """Return the declared inputs of ``algorithm`` (none if it is unknown)."""
    try:
        return get_algorithm(algorithm).spec.inputs
    except AlgorithmNotFoundError:
        return ()


class Scheduler:
    """Dispatches comparisons to the executor pool and records results.

    Parameters
    ----------
    datastore:
        Destination for result payloads; also owns the platform-wide
        :class:`~repro.platform.cache.ResultCache` consulted before any
        dispatch.  The scheduler works against the abstract store surface, so
        a :class:`~repro.platform.replication.ReplicatedShardedDataStore`
        (whose ``result_cache`` routes each key to the shard preferred for
        its dataset) drops in without any scheduling change.
    catalog:
        Source of datasets referenced by the queries.
    executor_pool:
        The pool of computational nodes that actually run the algorithms.
    max_finished_tasks:
        Retention bound of the job registry (``None``: the registry's
        default of 256).  Active comparisons stay; beyond the bound the
        earliest-finished records are dropped at O(1) amortised cost.  A
        DONE comparison's permalink then resolves through its result file
        where the datastore has a disk tier, and expires otherwise.
    """

    def __init__(
        self,
        datastore: DataStore,
        catalog: DatasetCatalog,
        executor_pool: ExecutorPool,
        *,
        max_finished_tasks: Optional[int] = None,
    ) -> None:
        self._datastore = datastore
        self._catalog = catalog
        self._pool = executor_pool
        self._cache = datastore.result_cache
        self.jobs = (
            JobRegistry()
            if max_finished_tasks is None
            else JobRegistry(max_finished_jobs=max_finished_tasks)
        )
        self._lock = threading.RLock()
        #: Single-flight table: cache key -> future of the ranking being
        #: computed right now, so concurrent identical queries never compute
        #: twice.  Entries are published here before dispatch and moved into
        #: the cache before removal, leaving no window to sneak a duplicate in.
        self._inflight: Dict[CacheKey, "Future[Ranking]"] = {}
        #: Which jobs are waiting on each single-flight key; consulted at the
        #: cancellation boundary so only exclusively-owned keys are abandoned.
        self._inflight_jobs: Dict[CacheKey, Set[str]] = {}
        #: Outstanding work units (group dispatches + fallback sub-dispatches)
        #: per job; when a cancelled job's count drains to zero it is
        #: finalised with state CANCELLED.
        self._outstanding: Dict[str, int] = {}
        self._batches_dispatched = 0
        self._queries_batched = 0
        self._largest_batch = 0
        #: Jobs settled with a typed ``deadline_exceeded`` event instead of
        #: ever occupying a worker (see :meth:`overload_stats`).
        self._deadlines_exceeded = 0
        #: Callbacks run after each settled work unit (see
        #: :meth:`register_maintenance_hook`).
        self._maintenance_hooks: List[Callable[[], None]] = []
        # Serialises first-use dataset materialisation so concurrent cold
        # starts don't double-store (store_dataset treats a re-store as a
        # re-upload and would needlessly drop a freshly compiled artifact).
        self._materialise_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # comparison lookup
    # ------------------------------------------------------------------ #
    def get_task(self, task_id: str) -> JobRecord:
        """Return the comparison record ``task_id`` (raises if unknown or evicted).

        Storage jobs and event sinks share the registry but carry no query
        set; they are not comparisons and raise like unknown ids.
        """
        record = self.jobs.find(task_id)
        if record is None or record.query_set is None:
            raise TaskNotFoundError(task_id)
        return record

    def stored_result(self, task_id: str) -> dict:
        """Return the persisted result payload of a comparison (permalink fallback).

        Raises :class:`TaskNotFoundError` when the datastore holds no result
        under the id: evicted FAILED/CANCELLED comparisons never stored one,
        and a store without a disk tier keeps none, so those permalinks
        expire with the record.
        """
        try:
            return self._datastore.get_result(task_id)
        except StorageError:
            raise TaskNotFoundError(task_id) from None

    # ------------------------------------------------------------------ #
    # dataset materialisation
    # ------------------------------------------------------------------ #
    def _fetch_dataset(self, dataset_id: str):
        """Return the compiled graph of ``dataset_id``, materialising on first use.

        Executors receive the datastore's cached
        :class:`~repro.graph.compiled.CompiledGraph` artifact rather than the
        raw :class:`DirectedGraph`, so the CSR/transpose/dangling structures
        are compiled once per dataset version instead of once per dispatch.
        On a ring store the artifact is the one the version-quorum read
        returned, so its content digest — the cache key's last element — is
        that of a copy at or above the acked version floor.
        """
        if not self._datastore.has_dataset(dataset_id):
            with self._materialise_lock:
                if not self._datastore.has_dataset(dataset_id):
                    graph = self._catalog.load(dataset_id)
                    self._datastore.store_dataset(dataset_id, graph)
        return self._datastore.fetch_compiled_with_version(dataset_id)[0]

    # ------------------------------------------------------------------ #
    # grouping
    # ------------------------------------------------------------------ #
    @staticmethod
    def _group_queries(query_set: QuerySet) -> "OrderedDict[GroupKey, List[Tuple[int, Query]]]":
        """Group a query set by (dataset, algorithm, canonical parameters).

        Groups of derived algorithms (those declaring ``inputs``) come after
        every other group, in a stable order, so that a synchronous run has
        computed and cached the comparison's own inputs (its PPR and
        CheiRank, say) by the time it combines them.
        """
        groups: "OrderedDict[GroupKey, List[Tuple[int, Query]]]" = OrderedDict()
        for index, query in enumerate(query_set):
            group_key: GroupKey = (
                query.dataset_id,
                query.algorithm,
                _canonical_parameters(query.parameters),
            )
            groups.setdefault(group_key, []).append((index, query))
        for group_key in [key for key in groups if _inputs_of(key[1])]:
            groups.move_to_end(group_key)
        return groups

    def _register(self, job: JobRecord) -> "OrderedDict[GroupKey, List[Tuple[int, Query]]]":
        """Register the comparison record and count its work units."""
        self.jobs.register(job)
        groups = self._group_queries(job.query_set)
        with self._lock:
            self._outstanding[job.job_id] = len(groups)
        job.append("submitted", total_queries=job.total_queries)
        return groups

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, job: JobRecord) -> str:
        """Schedule every query of the comparison ``job`` for asynchronous execution.

        Returns the comparison id as soon as the job is registered: dataset
        materialisation, cache lookups and batch execution all run on the
        worker pool, so submission never blocks on the comparison itself.
        Progress is observable through the job's event log (the Status
        component, :meth:`events_since` cursors) or :meth:`wait`.
        """
        groups = self._register(job)
        for (dataset_id, algorithm, _), members in groups.items():
            self._pool.submit_work(
                self._run_group_async, job, dataset_id, algorithm, members
            )
        return job.job_id

    def run_synchronously(self, job: JobRecord) -> JobRecord:
        """Execute every query of ``job`` on the calling thread (no concurrency).

        Useful for the CLI, for tests and for benchmarks where deterministic
        single-threaded timing is preferable.  The result cache is consulted
        and populated exactly as in :meth:`submit`, each group's misses run
        as one batched execution, and the same lifecycle events are emitted,
        so a synchronous run is observable (and cancellable from another
        thread) exactly like an asynchronous one.
        """
        groups = self._register(job)
        try:
            for (dataset_id, algorithm, _), members in groups.items():
                try:
                    # The trace span rides along with the deadline: whatever
                    # thread serves the group re-installs both, so spans
                    # opened deep in storage land under the submission root.
                    with trace_scope(job.trace_span), deadline_scope(job.deadline):
                        proceed = self._process_group(
                            job, dataset_id, algorithm, members, synchronous=True
                        )
                finally:
                    self._work_unit_done(job)
                if not proceed or job.state.is_terminal():
                    break
        finally:
            # Breaking out early (cancellation, failed dataset load) leaves
            # the skipped groups' work units undrained — reconcile so a
            # cancelled synchronous run still finalises to CANCELLED.
            with self._lock:
                self._outstanding.pop(job.job_id, None)
            if job.cancel_requested and not job.state.is_terminal():
                self._finalise_cancelled(job)
        # The per-future waits inside the groups unblock on set_result,
        # which *precedes* the done-callbacks that record rankings and
        # persist results (they run on the settling thread).  Block on the
        # job's terminal event — emitted after persistence — so a
        # synchronous caller always returns with the step-4 state readable,
        # exactly like wait_for.
        job.wait_done()
        return job

    def _run_group_async(
        self,
        job: JobRecord,
        dataset_id: str,
        algorithm: str,
        members: List[Tuple[int, Query]],
    ) -> None:
        """Pool entry point for one group: process it, then settle the unit."""
        try:
            with trace_scope(job.trace_span), deadline_scope(job.deadline):
                self._process_group(
                    job, dataset_id, algorithm, members, synchronous=False
                )
        finally:
            self._work_unit_done(job)

    def _process_group(
        self,
        job: JobRecord,
        dataset_id: str,
        algorithm: str,
        members: List[Tuple[int, Query]],
        *,
        synchronous: bool,
    ) -> bool:
        """Serve one (dataset, algorithm, parameters) group of ``job``.

        Cache hits are recorded immediately, identical in-flight queries are
        joined, and the remaining misses execute as one batched run on the
        current thread (a pool worker for :meth:`submit`, the caller for
        :meth:`run_synchronously`).  The cooperative cancel flag is checked
        at the two dispatch boundaries: before any work, and again after the
        single-flight registration just before the batch executes.

        Returns ``False`` when the remaining groups of the job should not
        be processed (cancellation observed, the job already terminal —
        e.g. a sibling group failed — or the dataset failed to load).
        """
        with child_span(
            "group_dispatch",
            dataset=dataset_id,
            algorithm=algorithm,
            queries=len(members),
        ):
            if job.cancel_requested or job.state.is_terminal():
                return False
            # Deadline boundary, mirroring the cancel boundary above: an
            # expired job's group returns without computing, so the deadline
            # costs no worker time beyond this check.
            if job.deadline is not None and job.deadline.expired():
                self._settle_deadline_exceeded(job)
                return False
            try:
                with child_span("dataset_fetch", dataset=dataset_id):
                    graph = self._fetch_dataset(dataset_id)
            except DeadlineExceededError:
                # The deadline ran out mid-storage-IO (the replicated store
                # checks it between failover sources): settle typed, not as
                # a dataset-load failure.
                self._settle_deadline_exceeded(job)
                return False
            except Exception as exc:
                message = f"cannot load dataset {dataset_id!r}: {exc}"
                job.finish(JobState.FAILED, error=message)
                return False
            hits: List[Tuple[int, Ranking]] = []
            waiters: List[Tuple["Future[Ranking]", int, bool]] = []
            to_compute: List[Tuple[CacheKey, Query, int]] = []
            with child_span(
                "cache_lookup", dataset=dataset_id, algorithm=algorithm
            ) as lookup:
                # Content-addressed keys: a hit (or a single-flight join) can
                # only serve a ranking of exactly the graph this read resolved.
                digest = graph.content_digest()
                with self._lock:
                    for index, query in members:
                        key = ResultCache.key_for(
                            query.dataset_id, query.algorithm, query.parameters,
                            query.source, digest=digest,
                        )
                        cached = self._cache.get(key)
                        if cached is not None:
                            hits.append((index, cached))
                            continue
                        future = self._inflight.get(key)
                        joined = future is not None
                        if future is None:
                            future = Future()
                            self._inflight[key] = future
                            to_compute.append((key, query, index))
                        self._inflight_jobs.setdefault(key, set()).add(job.job_id)
                        waiters.append((future, index, joined))
                lookup.annotate(
                    hits=len(hits),
                    joined=sum(1 for _, _, was_joined in waiters if was_joined),
                    misses=len(to_compute),
                )
            for index, ranking in hits:
                self._record_ranking(job, index, ranking, event="query_cached")
            for _, index, joined in waiters:
                payload: Dict[str, Any] = {
                    "query": index, "algorithm": algorithm, "dataset_id": dataset_id,
                }
                if joined:
                    payload["joined"] = True
                    # The group span records each single-flight join: this query
                    # rides a computation some other group already dispatched.
                    add_span_event("singleflight_join", query=index)
                job.append("query_started", **payload)
            for future, index, _ in waiters:
                future.add_done_callback(
                    lambda finished, index=index: self._on_ranking_ready(
                        job, index, finished
                    )
                )
            if to_compute:
                # Second cancellation boundary: the single-flight entries are
                # published, so a concurrent identical query may already depend
                # on them — abandon only the keys no other job has joined.
                if job.cancel_requested:
                    to_compute = self._abandon_exclusive_keys(job, to_compute)
                if to_compute:
                    self._execute_group(job, to_compute, graph, algorithm, digest)
            if synchronous:
                with child_span("singleflight_wait", waiters=len(waiters)):
                    for future, _, _ in waiters:
                        try:
                            future.result()
                        except Exception:
                            # The per-query error was recorded by the
                            # done-callback; a synchronous run reports it via
                            # the job state.
                            pass
            return True

    def _abandon_exclusive_keys(
        self,
        job: JobRecord,
        to_compute: List[Tuple[CacheKey, Query, int]],
    ) -> List[Tuple[CacheKey, Query, int]]:
        """Settle this job's exclusively-owned keys as cancelled; keep the rest.

        The ownership decision and the removal from the single-flight table
        happen under one lock acquisition: a concurrent identical query must
        either join *before* (making the key shared, so it keeps computing)
        or find the table empty *after* and compute it itself — there is no
        window in which it can join a key that is about to be settled with
        this job's cancellation.
        """
        keep: List[Tuple[CacheKey, Query, int]] = []
        abandoned: List["Future[Ranking]"] = []
        with self._lock:
            for key, query, index in to_compute:
                if self._inflight_jobs.get(key, set()) - {job.job_id}:
                    keep.append((key, query, index))
                    continue
                future = self._inflight.pop(key, None)
                self._inflight_jobs.pop(key, None)
                if future is not None:
                    abandoned.append(future)
        error = JobCancelledError(job.job_id)
        for future in abandoned:
            future.set_exception(error)
        return keep

    def _execute_group(
        self,
        job: JobRecord,
        to_compute: List[Tuple[CacheKey, Query, int]],
        graph,
        algorithm: str,
        digest: bytes,
    ) -> None:
        """Execute one group's cache misses and publish their rankings.

        Algorithms with a native batch kernel run as one batched execution on
        the current thread; fallback algorithms (user-registered ones without
        a kernel) gain nothing from a grouped dispatch, so their queries
        spread across the pool as size-1 sub-batches instead.  A failed
        multi-query batch degrades to per-query execution so one bad query
        cannot poison siblings joined by concurrent comparisons.  A derived
        algorithm combines its inputs' rankings (:meth:`_combine_group`).
        """
        with child_span(
            "batch_execute", algorithm=algorithm, batch=len(to_compute)
        ) as span:
            try:
                spec_algorithm = get_algorithm(algorithm)
            except Exception:
                # Let the executor's error machinery surface unknown algorithms
                # through the normal failure path.
                spec_algorithm = None
            if spec_algorithm is not None and spec_algorithm.spec.inputs:
                self._combine_group(job, span, spec_algorithm, to_compute, graph, digest)
                return
            if (
                len(to_compute) > 1
                and spec_algorithm is not None
                and not spec_algorithm.has_native_batch
            ):
                with self._lock:
                    self._outstanding[job.job_id] = (
                        self._outstanding.get(job.job_id, 0) + len(to_compute)
                    )
                for key, query, _ in to_compute:
                    try:
                        single = self._pool.submit_batch([query], graph)
                    except Exception as exc:
                        self._settle_inflight([key], error=exc)
                        self._work_unit_done(job)
                        continue
                    self._note_batch(1)
                    single.add_done_callback(
                        lambda finished, key=key: self._resolve_sub_batch(
                            job, key, finished
                        )
                    )
                return
            self._compute_inline([(key, query) for key, query, _ in to_compute], graph)

    def _compute_inline(self, entries: List[Tuple[CacheKey, Query]], graph) -> None:
        """Run one same-group batch on this thread; cache and settle every key.

        Every key is settled whatever happens: with its ranking, or with the
        error of its query (a failed multi-query batch is retried query by
        query, so one bad query cannot fail its siblings).
        """
        keys = [key for key, _ in entries]
        batch = [query for _, query in entries]
        self._note_batch(len(batch))
        try:
            outcome = self._pool.execute_batch_sync(batch, graph)
        except Exception as exc:
            if len(batch) == 1:
                self._settle_inflight(keys, error=exc)
                return
            for key, query in entries:
                try:
                    single = self._pool.execute_batch_sync([query], graph)
                except Exception as single_exc:
                    self._settle_inflight([key], error=single_exc)
                    continue
                self._cache.put(key, single.rankings[0])
                self._settle_inflight([key], rankings=[single.rankings[0]])
            return
        for key, ranking in zip(keys, outcome.rankings):
            self._cache.put(key, ranking)
        self._settle_inflight(keys, rankings=outcome.rankings)

    def _combine_group(
        self,
        job: JobRecord,
        span,
        algorithm,
        to_compute: List[Tuple[CacheKey, Query, int]],
        graph,
        digest: bytes,
    ) -> None:
        """Build a derived group's rankings from its inputs' rankings.

        Each input of each miss is one ordinary query (same dataset, source
        and parameters, the input's algorithm) resolved through the result
        cache and the single-flight table: a cached ranking is used as is,
        an in-flight one is joined, and anything else is published here and
        computed on this thread, batched per input algorithm, then cached
        under its own key, so a later query for it is a cache hit.
        """
        rows: List[List[Any]] = []
        owned: Dict[str, List[Tuple[CacheKey, Query]]] = {}
        published: List[Tuple[CacheKey, "Future[Ranking]"]] = []
        hit = joined = 0
        with self._lock:
            for _, query, _ in to_compute:
                row: List[Any] = []
                for name in algorithm.spec.inputs:
                    key = ResultCache.key_for(
                        query.dataset_id, name, query.parameters, query.source,
                        digest=digest,
                    )
                    cached = self._cache.get(key)
                    if cached is not None:
                        hit += 1
                        row.append(cached)
                        continue
                    future = self._inflight.get(key)
                    if future is not None:
                        # Joining cannot deadlock.  Inputs have native batch
                        # kernels (register_algorithm checks), and an
                        # in-flight future of a native-batch algorithm is
                        # always owned by a thread computing it inline, which
                        # waits on nothing: so waits are at most two deep (a
                        # synchronous joiner of this group, then this group).
                        # Registering the job keeps the owner's cancellation
                        # from abandoning a key this group still needs.
                        joined += 1
                        self._inflight_jobs.setdefault(key, set()).add(job.job_id)
                    else:
                        future = Future()
                        self._inflight[key] = future
                        published.append((key, future))
                        owned.setdefault(name, []).append((
                            key,
                            Query(
                                dataset_id=query.dataset_id, algorithm=name,
                                source=query.source, parameters=query.parameters,
                            ),
                        ))
                    row.append(future)
                rows.append(row)
        span.annotate(
            inputs_hit=hit, inputs_joined=joined, inputs_computed=len(published)
        )
        try:
            # Every owned input is computed before any joined one is awaited,
            # so two groups joining each other's inputs cannot deadlock.
            for entries in owned.values():
                self._compute_inline(entries, graph)
            parameters = algorithm.validate_parameters(to_compute[0][1].parameters)
        except BaseException as exc:
            # Nothing may stay in flight: settle the inputs published here
            # and this group's own keys with the error.
            with self._lock:
                stranded = [
                    key for key, future in published if self._inflight.get(key) is future
                ]
            self._settle_inflight(
                stranded + [key for key, _, _ in to_compute], error=exc
            )
            raise
        self._note_batch(len(to_compute))
        for (key, _, _), row in zip(to_compute, rows):
            try:
                inputs = [
                    item if isinstance(item, Ranking) else item.result() for item in row
                ]
                ranking = algorithm.combine(inputs, parameters)
            except Exception as exc:
                self._settle_inflight([key], error=exc)
                continue
            self._cache.put(key, ranking)
            self._settle_inflight([key], rankings=[ranking])

    def _resolve_sub_batch(self, job: JobRecord, key: CacheKey, future: Future) -> None:
        """Publish one finished size-1 sub-batch of a spread fallback group."""
        try:
            error = future.exception()
            if error is not None:
                self._settle_inflight([key], error=error)
                return
            ranking = future.result().rankings[0]
            self._cache.put(key, ranking)
            self._settle_inflight([key], rankings=[ranking])
        finally:
            self._work_unit_done(job)

    # ------------------------------------------------------------------ #
    # completion handling
    # ------------------------------------------------------------------ #
    def _settle_inflight(
        self,
        keys: List[CacheKey],
        *,
        rankings: Optional[List[Ranking]] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Remove single-flight entries and settle their per-key futures.

        Callers populate the cache *before* settling on success; a concurrent
        submitter checks the cache first, so every moment in time has each
        key either cached or in flight.
        """
        with self._lock:
            settled = [self._inflight.pop(key, None) for key in keys]
            for key in keys:
                self._inflight_jobs.pop(key, None)
        if error is not None:
            for per_key in settled:
                if per_key is not None:
                    per_key.set_exception(error)
            return
        for per_key, ranking in zip(settled, rankings or []):
            if per_key is not None:
                per_key.set_result(ranking)

    def _on_ranking_ready(self, job: JobRecord, index: int, future: Future) -> None:
        error = future.exception()
        if error is None:
            self._record_ranking(job, index, future.result())
            return
        if isinstance(error, JobCancelledError) and error.job_id == job.job_id:
            # Our own cancellation abandoning the key; the finaliser settles
            # the job when the outstanding work drains.
            return
        message = str(error)
        job.append("query_failed", query=index, error=message)
        job.finish(JobState.FAILED, error=message)

    def _record_ranking(
        self,
        job: JobRecord,
        index: int,
        ranking: Ranking,
        *,
        event: str = "query_completed",
    ) -> None:
        appended = job.append(event, ranking=ranking, query=index)
        # The job stamps its own projected counter into the event under the
        # record lock, so exactly one completion event per job reports the
        # full count — that appender (and only it) persists the results and
        # finishes the job, after every sibling's event is already in the
        # log.  A failed query never completes, so a job with a failure
        # never reaches the full count.
        if (
            appended is not None
            and appended.payload.get("completed_queries") == job.total_queries
        ):
            self._store_results(job)
            job.finish(JobState.DONE)

    def _store_results(self, job: JobRecord) -> None:
        rankings = job.rankings()
        state = TaskState.COMPLETED.value
        payload = {
            "comparison_id": job.job_id,
            "state": state,
            "queries": [query.as_dict() for query in job.query_set],
            "rankings": {str(index): ranking for index, ranking in sorted(rankings.items())},
        }
        # The settling thread may be a pool worker inside the group span or a
        # foreign thread resolving a join: re-install the job's root span so
        # the persistence write (and any replicated per-replica spans under
        # it) always lands in this comparison's trace, not the joiner's.
        with trace_scope(job.trace_span), child_span(
            "store_results", rankings=len(rankings)
        ):
            self._datastore.put_result(job.job_id, payload)

    # ------------------------------------------------------------------ #
    # cancellation
    # ------------------------------------------------------------------ #
    def cancel(self, task_id: str) -> bool:
        """Request cooperative cancellation of a submitted comparison.

        Returns ``True`` if the request was recorded (the job was still
        live).  Groups not yet dispatched are skipped at their next
        boundary check; batches already executing run to completion (their
        results still populate the cache), and the job is finished with
        state ``CANCELLED`` once the outstanding work has drained.  A
        ``True`` answer does not promise that end state: when the job's last
        group is already executing, its rankings complete every query first
        and the job finishes ``DONE``.

        Registry jobs without a query set — the storage maintenance jobs
        (replicate/spill/rebalance) the gateway runs on this registry — are
        purely cooperative: the flag is raised here and the migration loop
        finishes the job at its next item boundary.
        """
        job = self.jobs.get(task_id)
        if job.query_set is None:
            return job.request_cancel()
        if not job.request_cancel():
            return False
        with self._lock:
            outstanding = self._outstanding.get(task_id, 0)
        if outstanding == 0:
            # Nothing left on the pool (only joins on other jobs' in-flight
            # computations, or nothing at all): finalise immediately.
            self._finalise_cancelled(job)
        return True

    def _work_unit_done(self, job: JobRecord) -> None:
        """Settle one outstanding work unit; finalise a drained cancelled job."""
        with self._lock:
            remaining = self._outstanding.get(job.job_id, 0) - 1
            if remaining > 0:
                self._outstanding[job.job_id] = remaining
            else:
                self._outstanding.pop(job.job_id, None)
        if remaining <= 0 and job.cancel_requested and not job.state.is_terminal():
            self._finalise_cancelled(job)
        self._run_maintenance_hooks()

    # ------------------------------------------------------------------ #
    # maintenance hooks
    # ------------------------------------------------------------------ #
    def register_maintenance_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` after every settled work unit (exceptions swallowed).

        The gateway points one at its storage-budget check, so policies like
        the automatic spill piggyback on scheduling activity instead of
        waiting for an operator request; its background prober covers idle
        periods.  Hooks run on whatever thread settled the unit and must be
        quick — launch a job for anything heavier.
        """
        with self._lock:
            self._maintenance_hooks.append(hook)

    def _run_maintenance_hooks(self) -> None:
        with self._lock:
            hooks = list(self._maintenance_hooks)
        for hook in hooks:
            try:
                hook()
            except Exception:
                continue  # maintenance must never fail the dispatch path

    def _settle_deadline_exceeded(self, job: JobRecord) -> None:
        """Settle a job whose deadline expired before (or during) dispatch.

        Mirrors :meth:`_finalise_cancelled`: the typed event is appended
        *before* the terminal transition (terminal jobs drop appends), the
        job fails with a deadline message, and sibling groups observe the
        terminal job at their own boundary check and return immediately.
        """
        deadline_ms = job.deadline.deadline_ms if job.deadline is not None else None
        message = "deadline expired before execution" + (
            f" (deadline_ms={deadline_ms})" if deadline_ms is not None else ""
        )
        job.append(
            "deadline_exceeded",
            deadline_ms=deadline_ms,
            completed_queries=job.completed_queries,
            total_queries=job.total_queries,
        )
        if job.finish(JobState.FAILED, error=message):
            with self._lock:
                self._deadlines_exceeded += 1

    def _finalise_cancelled(self, job: JobRecord) -> None:
        job.finish(JobState.CANCELLED)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def _note_batch(self, size: int) -> None:
        with self._lock:
            self._batches_dispatched += 1
            self._queries_batched += size
            self._largest_batch = max(self._largest_batch, size)

    def batch_stats(self) -> Dict[str, Any]:
        """Return a snapshot of the batched-dispatch counters.

        ``batches`` counts dispatched batch executions, ``batched_queries``
        the queries they carried (cache hits never reach a batch), and
        ``largest_batch``/``mean_batch_size`` summarise how much per-dataset
        work the grouping amortised.
        """
        with self._lock:
            batches = self._batches_dispatched
            batched_queries = self._queries_batched
            largest = self._largest_batch
            inflight = len(self._inflight)
        return {
            "batches": batches,
            "batched_queries": batched_queries,
            "largest_batch": largest,
            "mean_batch_size": (batched_queries / batches) if batches else 0.0,
            "inflight_queries": inflight,
        }

    def cache_stats(self) -> Dict[str, Any]:
        """Return the result-cache counters (delegates to the datastore's cache)."""
        return self._cache.stats()

    def artifact_stats(self) -> Dict[str, Any]:
        """Return the compiled-artifact cache counters (delegates to the datastore)."""
        return self._datastore.artifact_stats()

    def overload_stats(self) -> Dict[str, Any]:
        """Return the scheduler's overload-protection counters."""
        with self._lock:
            return {"deadline_exceeded": self._deadlines_exceeded}

    # ------------------------------------------------------------------ #
    # waiting
    # ------------------------------------------------------------------ #
    def wait(self, task_id: str, *, timeout: Optional[float] = None) -> JobRecord:
        """Block until the comparison is terminal (or the timeout expires).

        Implemented on the job's event cursor: ``task_done`` is emitted
        *after* the results are persisted, so a caller unblocked here always
        observes the complete step-4 state in the datastore.
        """
        job = self.get_task(task_id)
        job.wait_done(timeout)
        return job

    def rankings_for(self, task_id: str) -> Dict[int, Ranking]:
        """Return the rankings computed so far for ``task_id``.

        A live record serves its own rankings.  A record evicted from the
        registry (always a terminal one) falls back to the result file, so
        old permalinks keep serving their rankings wherever the datastore
        has a disk tier.
        """
        try:
            return self.get_task(task_id).rankings()
        except TaskNotFoundError:
            payload = self.stored_result(task_id)
            return {
                int(index): Ranking.from_dict(ranking)
                for index, ranking in payload.get("rankings", {}).items()
            }
