"""Unit tests for :mod:`repro.platform.tasks`."""

from __future__ import annotations

import uuid

import pytest

from repro.datasets.catalog import DatasetCatalog
from repro.exceptions import TaskError
from repro.platform.jobs import JobRecord, JobState
from repro.platform.status import StatusComponent
from repro.platform.tasks import Query, QuerySet, TaskBuilder, TaskState
from repro.ranking.result import Ranking


@pytest.fixture
def catalog(triangle, community_graph) -> DatasetCatalog:
    catalog = DatasetCatalog()
    catalog.register_graph("triangle", triangle)
    catalog.register_graph("communities", community_graph)
    return catalog


@pytest.fixture
def builder(catalog) -> TaskBuilder:
    return TaskBuilder(catalog)


class TestQuery:
    def test_describe_includes_every_field(self):
        query = Query("enwiki-2018", "cyclerank", source="Pasta", parameters={"k": 3})
        description = query.describe()
        assert "enwiki-2018" in description
        assert "cyclerank" in description
        assert "Pasta" in description
        assert "k=3" in description

    def test_describe_for_global_algorithm(self):
        query = Query("enwiki-2018", "pagerank")
        assert "source: -" in query.describe()
        assert "defaults" in query.describe()

    def test_as_dict(self):
        query = Query("d", "a", source="s", parameters={"k": 3})
        assert query.as_dict() == {
            "dataset_id": "d", "algorithm": "a", "source": "s", "parameters": {"k": 3}
        }


class TestQuerySet:
    def test_has_uuid_permalink(self):
        query_set = QuerySet()
        assert uuid.UUID(query_set.comparison_id)

    def test_ids_are_unique(self):
        assert QuerySet().comparison_id != QuerySet().comparison_id

    def test_add_remove_clear(self):
        query_set = QuerySet()
        index = query_set.add(Query("d", "pagerank"))
        assert index == 0
        assert len(query_set) == 1
        removed = query_set.remove(0)
        assert removed.algorithm == "pagerank"
        assert len(query_set) == 0
        query_set.add(Query("d", "pagerank"))
        query_set.clear()
        assert len(query_set) == 0

    def test_remove_out_of_range_fails(self):
        with pytest.raises(TaskError):
            QuerySet().remove(0)

    def test_iteration_and_serialisation(self):
        query_set = QuerySet([Query("d", "pagerank"), Query("d", "cheirank")])
        assert [q.algorithm for q in query_set] == ["pagerank", "cheirank"]
        payload = query_set.as_dict()
        assert payload["comparison_id"] == query_set.comparison_id
        assert len(payload["queries"]) == 2


class TestTaskBuilder:
    def test_build_valid_personalized_query(self, builder):
        query = builder.build_query(
            "triangle", "cyclerank", source="A", parameters={"k": "4"}
        )
        assert query.parameters["k"] == 4
        assert query.parameters["sigma"] == "exp"

    def test_build_valid_global_query(self, builder):
        query = builder.build_query("triangle", "pagerank", parameters={"alpha": 0.5})
        assert query.source is None
        assert query.parameters["alpha"] == 0.5

    def test_unknown_dataset_rejected(self, builder):
        with pytest.raises(TaskError):
            builder.build_query("nope", "pagerank")

    def test_unknown_algorithm_rejected(self, builder):
        with pytest.raises(KeyError):
            builder.build_query("triangle", "simrank")

    def test_missing_source_for_personalized_rejected(self, builder):
        with pytest.raises(TaskError):
            builder.build_query("triangle", "cyclerank")

    def test_unexpected_source_for_global_rejected(self, builder):
        with pytest.raises(TaskError):
            builder.build_query("triangle", "pagerank", source="A")

    def test_bad_parameter_rejected(self, builder):
        with pytest.raises(TaskError):
            builder.build_query("triangle", "cyclerank", source="A", parameters={"k": "one"})
        with pytest.raises(TaskError):
            builder.build_query("triangle", "pagerank", parameters={"beta": 0.1})

    def test_build_task_requires_nonempty_query_set(self, builder):
        with pytest.raises(TaskError):
            builder.build_task(builder.new_query_set())

    def test_build_task_shares_comparison_id(self, builder):
        query_set = builder.new_query_set()
        query_set.add(builder.build_query("triangle", "pagerank"))
        task = builder.build_task(query_set)
        assert task.job_id == query_set.comparison_id
        assert task.query_set is query_set


class TestTaskLifecycle:
    """The comparison record's lifecycle, in the status vocabulary."""

    def _task(self, n_queries: int = 2) -> JobRecord:
        query_set = QuerySet([Query("d", "pagerank") for _ in range(n_queries)])
        return TaskBuilder(DatasetCatalog()).build_task(query_set)

    @staticmethod
    def _state(task: JobRecord) -> TaskState:
        return StatusComponent._project(task).state

    def test_initial_state_is_pending(self):
        task = self._task()
        assert self._state(task) is TaskState.PENDING
        assert not task.state.is_terminal()
        assert task.total_queries == 2

    def test_running_then_completed(self):
        task = self._task(2)
        task.append("submitted", total_queries=2)
        task.append("query_completed", ranking=Ranking([1.0]), query=0)
        assert self._state(task) is TaskState.RUNNING
        assert task.completed_queries == 1
        task.append("query_completed", ranking=Ranking([1.0]), query=1)
        task.finish(JobState.DONE)
        assert self._state(task) is TaskState.COMPLETED
        assert task.state.is_terminal()
        assert set(task.rankings()) == {0, 1}

    def test_failure_is_terminal(self):
        task = self._task(2)
        task.append("submitted", total_queries=2)
        task.finish(JobState.FAILED, error="boom")
        assert self._state(task) is TaskState.FAILED
        assert task.error == "boom"
        assert task.state.is_terminal()
        # A late result does not resurrect a failed comparison.
        task.append("query_completed", ranking=Ranking([1.0]), query=0)
        task.append("query_completed", ranking=Ranking([1.0]), query=1)
        assert self._state(task) is TaskState.FAILED
        assert task.rankings() == {}

    def test_mark_running_only_from_pending(self):
        task = self._task(1)
        task.finish(JobState.FAILED, error="boom")
        assert task.append("query_started", query=0) is None
        assert self._state(task) is TaskState.FAILED

    def test_terminal_state_helper(self):
        assert TaskState.COMPLETED.is_terminal()
        assert TaskState.FAILED.is_terminal()
        assert not TaskState.PENDING.is_terminal()
        assert not TaskState.RUNNING.is_terminal()

    def test_repr_shows_progress(self):
        task = self._task(2)
        assert "0/2" in repr(task)
