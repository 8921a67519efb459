"""Unit tests for :mod:`repro.platform.executor`, ``scheduler`` and ``status``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.registry import available_algorithms, get_algorithm
from repro.datasets.catalog import DatasetCatalog
from repro.exceptions import ExecutorError, InvalidParameterError, TaskError, TaskNotFoundError
from repro.graph.digraph import DirectedGraph
from repro.platform.datastore import DataStore
from repro.platform.executor import ExecutorNode, ExecutorPool
from repro.platform.gateway import ApiGateway
from repro.platform.scheduler import Scheduler
from repro.platform.status import StatusComponent
from repro.platform.jobs import JobRecord, JobState
from repro.platform.tasks import Query, QuerySet, TaskBuilder, TaskState
from repro.ranking.result import Ranking


@pytest.fixture
def catalog(triangle, community_graph, two_triangles) -> DatasetCatalog:
    catalog = DatasetCatalog()
    catalog.register_graph("triangle", triangle)
    catalog.register_graph("communities", community_graph)
    catalog.register_graph("two-triangles", two_triangles)
    return catalog


@pytest.fixture
def platform(catalog, tmp_path):
    datastore = DataStore(tmp_path)
    pool = ExecutorPool(num_workers=2)
    scheduler = Scheduler(datastore, catalog, pool)
    status = StatusComponent(scheduler, datastore)
    builder = TaskBuilder(catalog)
    yield datastore, pool, scheduler, status, builder
    pool.shutdown()


def make_task(builder, *specs) -> JobRecord:
    query_set = builder.new_query_set()
    for dataset_id, algorithm, source, parameters in specs:
        query_set.add(
            builder.build_query(dataset_id, algorithm, source=source, parameters=parameters)
        )
    return builder.build_task(query_set)


class TestExecutorNode:
    def test_execute_produces_ranking(self, triangle):
        node = ExecutorNode(name="executor-7")
        outcome = node.execute(
            Query("triangle", "pagerank", parameters={"alpha": 0.5}), triangle
        )
        assert outcome.ranking.algorithm == "PageRank"
        assert outcome.elapsed_seconds >= 0
        assert outcome.executor_name == "executor-7"
        assert node.executed_queries == 1

    def test_execute_failure_raises(self, triangle):
        node = ExecutorNode()
        bad_query = Query("triangle", "cyclerank", source="not-a-node", parameters={"k": 3})
        with pytest.raises(ExecutorError, match="not-a-node"):
            node.execute(bad_query, triangle)
        assert node.executed_queries == 0


class TestExecutorPool:
    def test_submit_and_result(self, triangle):
        pool = ExecutorPool(num_workers=2)
        try:
            future = pool.submit(Query("triangle", "pagerank"), triangle)
            outcome = future.result(timeout=30)
            assert outcome.ranking.total() == pytest.approx(1.0)
            assert pool.total_executed() == 1
        finally:
            pool.shutdown()

    def test_scale_to_changes_worker_count(self, triangle):
        pool = ExecutorPool(num_workers=1)
        try:
            assert pool.num_workers == 1
            pool.scale_to(3)
            assert pool.num_workers == 3
            future = pool.submit(Query("triangle", "cheirank"), triangle)
            assert future.result(timeout=30).ranking.algorithm == "CheiRank"
        finally:
            pool.shutdown()

    def test_invalid_worker_count(self):
        with pytest.raises(InvalidParameterError):
            ExecutorPool(num_workers=0)
        pool = ExecutorPool(num_workers=1)
        try:
            with pytest.raises(InvalidParameterError):
                pool.scale_to(0)
        finally:
            pool.shutdown()

    def test_execute_sync(self, triangle):
        pool = ExecutorPool(num_workers=1)
        try:
            outcome = pool.execute_sync(Query("triangle", "pagerank"), triangle)
            assert outcome.ranking.algorithm == "PageRank"
        finally:
            pool.shutdown()


def _six_node_graph() -> DirectedGraph:
    """Six labelled nodes with cycles of length 2-4 and no dangling node."""
    graph = DirectedGraph(name="six-node")
    edges = [
        ("A", "B"), ("B", "C"), ("C", "A"), ("C", "D"), ("D", "A"),
        ("B", "A"), ("D", "E"), ("E", "B"), ("A", "E"), ("E", "F"),
        ("F", "C"), ("F", "A"),
    ]
    for source, target in edges:
        graph.add_edge(source, target)
    return graph


@pytest.fixture
def six_node_pool():
    datastore = DataStore()
    datastore.store_dataset("toy", _six_node_graph())
    pool = ExecutorPool(num_workers=2)
    graph, _ = datastore.fetch_compiled_with_version("toy")
    yield pool, graph
    pool.shutdown()


class TestBitIdentity:
    """The pool is a pure transport: the sequential registry path's bits."""

    def test_every_registry_algorithm_is_bit_identical(self, six_node_pool):
        pool, graph = six_node_pool
        personalized = set(available_algorithms(personalized=True))
        for name in available_algorithms():
            source = "A" if name in personalized else None
            query = [Query(dataset_id="toy", algorithm=name, source=source, parameters={})]
            via_pool = pool.execute_batch_sync(query, graph)
            sequential = get_algorithm(name).run_batch(
                graph, sources=[source], parameters={}
            )
            assert np.array_equal(
                via_pool.rankings[0].scores, sequential[0].scores
            ), f"{name} diverged from the sequential registry path"
            assert list(via_pool.rankings[0]) == list(sequential[0]), name

    def test_batched_sources_stay_aligned(self, six_node_pool):
        pool, graph = six_node_pool
        sources = ["A", "B", "C", "D"]
        queries = [
            Query(dataset_id="toy", algorithm="personalized-pagerank",
                  source=source, parameters={})
            for source in sources
        ]
        via_pool = pool.execute_batch_sync(queries, graph)
        sequential = get_algorithm("personalized-pagerank").run_batch(
            graph, sources=sources, parameters={}
        )
        assert [r.reference for r in via_pool.rankings] == sources
        for ours, theirs in zip(via_pool.rankings, sequential):
            assert np.array_equal(ours.scores, theirs.scores)
            assert list(ours) == list(theirs)


class TestExecutorObservability:
    def test_batch_histogram_and_stats_after_a_comparison(self, two_triangles):
        catalog = DatasetCatalog()
        catalog.register_graph("toy", two_triangles, description="two triangles")
        with ApiGateway(catalog=catalog, num_workers=2) as gateway:
            comparison_id = gateway.run_queries(
                [{"dataset_id": "toy", "algorithm": "pagerank"}], synchronous=True
            )
            gateway.wait_for(comparison_id, timeout_seconds=60.0)
            executors = gateway.get_platform_stats()["executors"]
            assert executors["num_workers"] == 2
            assert executors["executed_queries"] >= 1
            exposition = gateway.render_metrics()
            assert "repro_executor_batch_ms_bucket{" in exposition
            assert "repro_executor_busy_workers " in exposition


class TestScheduler:
    def test_asynchronous_submission_completes(self, platform):
        datastore, _, scheduler, status, builder = platform
        task = make_task(
            builder,
            ("triangle", "pagerank", None, {"alpha": 0.85}),
            ("two-triangles", "cyclerank", "R", {"k": 3}),
        )
        task_id = scheduler.submit(task)
        scheduler.wait(task_id, timeout=30)
        progress = status.poll_until_done(task_id, timeout_seconds=30)
        assert progress.state is TaskState.COMPLETED
        assert progress.completed_queries == 2
        assert progress.fraction_done == 1.0
        rankings = scheduler.rankings_for(task_id)
        assert rankings[0].algorithm == "PageRank"
        assert rankings[1].algorithm == "CycleRank"

    def test_results_and_logs_written_to_datastore(self, platform):
        datastore, _, scheduler, status, builder = platform
        task = make_task(builder, ("triangle", "pagerank", None, None))
        scheduler.submit(task)
        scheduler.wait(task.job_id, timeout=30)
        status.poll_until_done(task.job_id, timeout_seconds=30)
        stored = datastore.get_result(task.job_id)
        assert stored["comparison_id"] == task.job_id
        assert stored["state"] == "completed"
        assert "0" in stored["rankings"]
        logs = status.logs(task.job_id)
        assert logs[0] == "submitted 1 queries"
        assert logs[-1] == "comparison done (1/1 queries)"

    def test_stored_rankings_match_computed_ones(self, platform):
        datastore, _, scheduler, status, builder = platform
        task = make_task(builder, ("two-triangles", "cyclerank", "R", {"k": 3}))
        scheduler.run_synchronously(task)
        stored = Ranking.from_dict(datastore.get_result(task.job_id)["rankings"]["0"])
        computed = task.rankings()[0]
        assert list(stored) == list(computed)
        assert np.array_equal(stored.scores, computed.scores)

    def test_synchronous_run(self, platform):
        _, _, scheduler, _, builder = platform
        task = make_task(builder, ("communities", "personalized-pagerank", "c0-n0", None))
        finished = scheduler.run_synchronously(task)
        assert finished.state is JobState.DONE
        assert finished.rankings()[0].reference == "c0-n0"

    def test_failing_query_marks_task_failed(self, platform):
        _, _, scheduler, status, builder = platform
        # Build a structurally valid task, then sabotage the catalog lookup by
        # using a source node that does not exist in the dataset.
        task = make_task(builder, ("triangle", "cyclerank", "ghost-node", {"k": 3}))
        scheduler.submit(task)
        scheduler.wait(task.job_id, timeout=30)
        progress = status.poll_until_done(task.job_id, timeout_seconds=30)
        assert progress.state is TaskState.FAILED
        assert progress.error

    def test_unknown_task_lookup_fails(self, platform):
        _, _, scheduler, _, _ = platform
        with pytest.raises(TaskNotFoundError):
            scheduler.get_task("does-not-exist")

    def test_list_tasks(self, platform):
        _, _, scheduler, _, builder = platform
        task = make_task(builder, ("triangle", "pagerank", None, None))
        scheduler.run_synchronously(task)
        assert task in scheduler.jobs.list_records()


class TestStatusComponent:
    def test_poll_reports_progress_fields(self, platform):
        _, _, scheduler, status, builder = platform
        task = make_task(builder, ("triangle", "pagerank", None, None))
        scheduler.run_synchronously(task)
        progress = status.poll(task.job_id)
        assert progress.task_id == task.job_id
        assert progress.total_queries == 1
        assert "completed" in progress.describe()

    def test_poll_until_done_times_out(self, platform):
        _, _, scheduler, status, builder = platform
        # A record that is registered but never scheduled stays queued forever.
        task = make_task(builder, ("triangle", "pagerank", None, None))
        scheduler.jobs.register(task)
        with pytest.raises(TaskError):
            status.poll_until_done(task.job_id, timeout_seconds=0.05)

    def test_stored_result_accessible_via_status(self, platform):
        _, _, scheduler, status, builder = platform
        task = make_task(builder, ("triangle", "cheirank", None, None))
        scheduler.run_synchronously(task)
        assert status.stored_result(task.job_id)["state"] == "completed"

    def test_empty_task_progress_fraction(self):
        from repro.platform.status import TaskProgress

        progress = TaskProgress("id", TaskState.COMPLETED, 0, 0)
        assert progress.fraction_done == 1.0
