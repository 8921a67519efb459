"""Finish-order retention of the job registry and the scheduler's task table.

Both tables share :class:`~repro.platform.jobs.BoundedRecordTable`: active
records are never evicted, and once more than the bound are terminal the
earliest-finished ones are dropped.  A property test drives both tables
against a two-list oracle; a regression test checks that registering a
record does not read the state of the records already retained.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.catalog import DatasetCatalog
from repro.platform.datastore import DataStore
from repro.platform.executor import ExecutorPool
from repro.platform.jobs import JobRecord, JobRegistry, JobState
from repro.platform.scheduler import Scheduler
from repro.platform.tasks import Query, QuerySet, Task


class RegistryTable:
    """Drives a :class:`JobRegistry` through its public surface."""

    def __init__(self, bound: int) -> None:
        self.registry = JobRegistry(max_finished_jobs=bound)

    def create(self, record_id: str) -> JobRecord:
        return self.registry.create(record_id, total_queries=1)

    @staticmethod
    def finish(record: JobRecord) -> None:
        record.finish(JobState.DONE)

    def retained(self) -> dict:
        return {record.job_id: record for record in self.registry.list_records()}

    def evicted(self) -> int:
        return self.registry.stats()["evicted"]

    def close(self) -> None:
        pass


class TaskTable:
    """Drives a :class:`Scheduler`'s task table: registration, then a settle."""

    def __init__(self, bound: int) -> None:
        datastore = DataStore()
        self.pool = ExecutorPool(datastore, num_workers=1)
        self.scheduler = Scheduler(
            datastore, DatasetCatalog(), self.pool, max_finished_tasks=bound
        )

    def create(self, record_id: str) -> Task:
        query_set = QuerySet([Query("unused", "pagerank")])
        query_set.comparison_id = record_id
        task = Task(query_set)
        self.scheduler._register(task)
        return task

    @staticmethod
    def finish(task: Task) -> None:
        task.mark_failed("settled by the test")

    def retained(self) -> dict:
        return {task.task_id: task for task in self.scheduler.list_tasks()}

    def evicted(self) -> int:
        return self.scheduler.task_table_stats()["evicted"]

    def close(self) -> None:
        self.pool.shutdown()


TABLES = [RegistryTable, TaskTable]

#: A move creates (or re-creates) one of a few ids, or finishes a record by
#: its creation index — possibly a replaced, finished or evicted one.
moves = st.lists(
    st.one_of(
        st.tuples(st.just("create"), st.integers(min_value=0, max_value=5)),
        st.tuples(st.just("finish"), st.integers(min_value=0, max_value=40)),
    ),
    max_size=40,
)


@pytest.mark.parametrize("table_class", TABLES, ids=lambda cls: cls.__name__)
@given(bound=st.integers(min_value=1, max_value=4), steps=moves)
@settings(max_examples=150, deadline=None)
def test_retention_matches_a_two_list_oracle(table_class, bound, steps):
    table = table_class(bound)
    try:
        handles = []  # (id, record) in creation order
        current = {}  # id -> the record now registered under it
        active, finished = [], []  # the oracle
        evicted = 0
        for move, value in steps:
            if move == "create":
                record_id = f"r{value}"
                for ids in (active, finished):
                    if record_id in ids:
                        ids.remove(record_id)
                record = table.create(record_id)
                handles.append((record_id, record))
                current[record_id] = record
                active.append(record_id)
            else:
                if not handles:
                    continue
                record_id, record = handles[value % len(handles)]
                table.finish(record)
                if current.get(record_id) is record and record_id in active:
                    active.remove(record_id)
                    finished.append(record_id)
                    while len(finished) > bound:
                        del current[finished.pop(0)]
                        evicted += 1

            retained = table.retained()
            assert set(retained) == set(active) | set(finished)
            for record_id in active:
                assert retained[record_id] is current[record_id]
                assert not retained[record_id].state.is_terminal()
            terminal = [r for r in retained.values() if r.state.is_terminal()]
            assert len(terminal) == len(finished) <= bound
            assert table.evicted() == evicted
    finally:
        table.close()


@pytest.mark.parametrize("table_class", TABLES, ids=lambda cls: cls.__name__)
def test_registration_reads_no_retained_record_state(table_class, monkeypatch):
    """Registering one record costs the same at bound 8 and at bound 1024."""
    reads = {"count": 0}

    def counting(record_class):
        original = record_class.state

        def state(record):
            reads["count"] += 1
            return original.fget(record)

        monkeypatch.setattr(record_class, "state", property(state))

    counting(Task)
    counting(JobRecord)
    for bound in (8, 1024):
        table = table_class(bound)
        try:
            for index in range(bound):
                table.finish(table.create(f"old-{index}"))
            reads["count"] = 0
            table.create("new")
            assert reads["count"] <= 2, f"bound {bound}: {reads['count']} state reads"
            assert len(table.retained()) == bound + 1
        finally:
            table.close()
