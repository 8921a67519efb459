"""Executor (computational) nodes and the worker pool.

The paper's computational nodes "are responsible for processing data
requests and can be scaled up or down depending on the system's workload.
They interact with the data stores to retrieve or store data and then return
the results to the API gateway."

:class:`ExecutorNode` runs a query or a batch — run the algorithm inside an
``executor_run`` span and time it — and :class:`ExecutorPool` manages a
configurable number of worker threads that execute queries concurrently.
The pool is the platform's only executor tier: workers run in-process and
share each dataset's cached :class:`~repro.graph.compiled.CompiledGraph`
directly, and :meth:`ExecutorPool.scale_to` resizes the pool at runtime.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from .._validation import require_positive_int
from ..algorithms.registry import get_algorithm
from ..exceptions import ExecutorError
from ..graph.digraph import DirectedGraph
from ..ranking.result import Ranking
from .tasks import Query
from .telemetry import child_span

__all__ = ["BatchExecutionOutcome", "ExecutionOutcome", "ExecutorNode", "ExecutorPool"]

#: Prometheus-style histogram of batch round-trip latency (exposed as
#: ``repro_executor_batch_ms`` — the registry adds the prefix).
BATCH_LATENCY_METRIC = "executor_batch_ms"


@dataclass
class ExecutionOutcome:
    """The result of executing one query on an executor node."""

    query: Query
    ranking: Ranking
    elapsed_seconds: float
    executor_name: str


@dataclass
class BatchExecutionOutcome:
    """The result of executing one batched group of queries on a node.

    ``rankings`` is aligned with ``queries``: the i-th ranking answers the
    i-th query of the batch.
    """

    queries: List[Query]
    rankings: List[Ranking]
    elapsed_seconds: float
    executor_name: str


class ExecutorNode:
    """One computational node: executes queries against datasets.

    Parameters
    ----------
    name:
        Executor name carried by the ``executor_run`` span (``"executor-0"``
        by default).
    """

    def __init__(self, *, name: str = "executor-0") -> None:
        self.name = name
        self._executed = 0
        self._lock = threading.Lock()

    @property
    def executed_queries(self) -> int:
        """Return how many queries this node has executed."""
        with self._lock:
            return self._executed

    def execute(self, query: Query, graph: DirectedGraph) -> ExecutionOutcome:
        """Run ``query`` against ``graph`` and return the outcome.

        Raises
        ------
        ExecutorError
            If the algorithm raises; the original error message is preserved.
        """
        algorithm = get_algorithm(query.algorithm)
        started = time.perf_counter()
        try:
            with child_span(
                "executor_run", executor=self.name, algorithm=algorithm.name,
                dataset=query.dataset_id,
            ):
                ranking = algorithm.run(
                    graph, source=query.source, parameters=dict(query.parameters)
                )
        except Exception as exc:
            raise ExecutorError(
                f"{algorithm.display_name} failed on {query.dataset_id}: {exc}"
            ) from exc
        elapsed = time.perf_counter() - started
        with self._lock:
            self._executed += 1
        return ExecutionOutcome(
            query=query, ranking=ranking, elapsed_seconds=elapsed, executor_name=self.name
        )

    def execute_batch(
        self,
        queries: Sequence[Query],
        graph: DirectedGraph,
    ) -> BatchExecutionOutcome:
        """Run a group of same-(dataset, algorithm, parameters) queries at once.

        The whole group is handed to the algorithm's
        :meth:`~repro.algorithms.base.Algorithm.run_batch`, so algorithms with
        a native batch kernel amortise the per-graph work across the group.

        Raises
        ------
        ExecutorError
            If the queries disagree on algorithm or parameters, or if the
            algorithm raises (the original error message is preserved).
        """
        queries = list(queries)
        if not queries:
            raise ExecutorError("cannot execute an empty batch of queries")
        first = queries[0]
        for query in queries[1:]:
            if (
                query.dataset_id != first.dataset_id
                or query.algorithm != first.algorithm
                or dict(query.parameters) != dict(first.parameters)
            ):
                raise ExecutorError(
                    "batched queries must share one dataset, algorithm and parameter "
                    f"set; got ({first.dataset_id!r}, {first.algorithm!r}) vs "
                    f"({query.dataset_id!r}, {query.algorithm!r})"
                )
        algorithm = get_algorithm(first.algorithm)
        started = time.perf_counter()
        try:
            with child_span(
                "executor_run", executor=self.name, algorithm=algorithm.name,
                dataset=first.dataset_id, batch=len(queries),
            ):
                rankings = algorithm.run_batch(
                    graph,
                    sources=[query.source for query in queries],
                    parameters=dict(first.parameters),
                )
        except Exception as exc:
            raise ExecutorError(
                f"{algorithm.display_name} batch failed on {first.dataset_id}: {exc}"
            ) from exc
        if len(rankings) != len(queries):
            # A miscounting third-party batch kernel must surface as an error
            # here; silently truncated results would leave scheduler waiters
            # hanging on rankings that never arrive.
            raise ExecutorError(
                f"{algorithm.display_name} batch returned {len(rankings)} rankings "
                f"for {len(queries)} queries"
            )
        elapsed = time.perf_counter() - started
        with self._lock:
            self._executed += len(queries)
        return BatchExecutionOutcome(
            queries=queries,
            rankings=rankings,
            elapsed_seconds=elapsed,
            executor_name=self.name,
        )


class ExecutorPool:
    """A scalable pool of executor nodes backed by a thread pool.

    Parameters
    ----------
    num_workers:
        Number of executor nodes (threads); can be changed later with
        :meth:`scale_to`, reproducing the "scaled up or down depending on the
        system's workload" property.
    metrics:
        Optional :class:`~repro.platform.telemetry.MetricsRegistry`; when
        given, batch round-trip latency is recorded in the
        ``repro_executor_batch_ms`` histogram.
    """

    def __init__(self, *, num_workers: int = 2, metrics: Any = None) -> None:
        require_positive_int(num_workers, "num_workers")
        self._metrics = metrics
        self._lock = threading.Lock()
        self._num_workers = num_workers
        self._nodes = [
            ExecutorNode(name=f"executor-{index}") for index in range(num_workers)
        ]
        self._pool = ThreadPoolExecutor(max_workers=num_workers, thread_name_prefix="executor")
        self._round_robin = 0
        self._busy_lock = threading.Lock()
        self._busy = 0

    @property
    def num_workers(self) -> int:
        """Return the current number of executor nodes."""
        with self._lock:
            return self._num_workers

    @property
    def busy_workers(self) -> int:
        """Return how many workers are executing a batch right now."""
        with self._busy_lock:
            return self._busy

    def _run_batch_tracked(
        self,
        node: ExecutorNode,
        queries: Sequence[Query],
        graph: DirectedGraph,
    ) -> BatchExecutionOutcome:
        with self._busy_lock:
            self._busy += 1
        started = time.perf_counter()
        try:
            return node.execute_batch(queries, graph)
        finally:
            with self._busy_lock:
                self._busy -= 1
            if self._metrics is not None:
                self._metrics.observe(
                    BATCH_LATENCY_METRIC,
                    (time.perf_counter() - started) * 1000.0,
                    help="Executor batch round-trip latency in milliseconds.",
                )

    def stats(self) -> Dict[str, Any]:
        """Structured readout for the ``executors`` stats section."""
        return {
            "num_workers": self.num_workers,
            "busy_workers": self.busy_workers,
            "executed_queries": self.total_executed(),
        }

    def scale_to(self, num_workers: int) -> None:
        """Change the number of executor nodes (takes effect for new submissions)."""
        require_positive_int(num_workers, "num_workers")
        with self._lock:
            old_pool = self._pool
            self._num_workers = num_workers
            self._nodes = [
                ExecutorNode(name=f"executor-{index}") for index in range(num_workers)
            ]
            self._pool = ThreadPoolExecutor(
                max_workers=num_workers, thread_name_prefix="executor"
            )
        old_pool.shutdown(wait=True)

    def _next_node(self) -> "Tuple[ExecutorNode, ThreadPoolExecutor]":
        """Pick the next node round-robin; returns it with the current pool."""
        with self._lock:
            node = self._nodes[self._round_robin % len(self._nodes)]
            self._round_robin += 1
            return node, self._pool

    def submit(self, query: Query, graph: DirectedGraph) -> "Future[ExecutionOutcome]":
        """Submit a query for asynchronous execution; returns a future."""
        node, pool = self._next_node()
        return pool.submit(node.execute, query, graph)

    def submit_work(self, fn, /, *args, **kwargs) -> Future:
        """Run an arbitrary callable on the worker pool; returns a future.

        Used by the scheduler to off-load whole group dispatches (dataset
        materialisation, cache lookups, batched execution) so that task
        submission returns immediately instead of pinning the caller.
        """
        with self._lock:
            pool = self._pool
        return pool.submit(fn, *args, **kwargs)

    def execute_sync(self, query: Query, graph: DirectedGraph) -> ExecutionOutcome:
        """Execute a query synchronously on the calling thread."""
        node, _ = self._next_node()
        return node.execute(query, graph)

    def submit_batch(
        self, queries: Sequence[Query], graph: DirectedGraph
    ) -> "Future[BatchExecutionOutcome]":
        """Submit a batched group of queries for asynchronous execution."""
        node, pool = self._next_node()
        return pool.submit(self._run_batch_tracked, node, queries, graph)

    def execute_batch_sync(
        self, queries: Sequence[Query], graph: DirectedGraph
    ) -> BatchExecutionOutcome:
        """Execute a batched group synchronously on the calling thread."""
        node, _ = self._next_node()
        return self._run_batch_tracked(node, queries, graph)

    def shutdown(self) -> None:
        """Shut the thread pool down, waiting for in-flight queries."""
        with self._lock:
            pool = self._pool
        pool.shutdown(wait=True)

    def total_executed(self) -> int:
        """Return the number of queries executed across all nodes."""
        with self._lock:
            return sum(node.executed_queries for node in self._nodes)

