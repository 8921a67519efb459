"""Finish-order retention of the job registry, the one table of records.

Active records are never evicted, and once more than the bound are terminal
the earliest-finished ones are dropped.  A property test drives the registry
against a two-list oracle, both directly and through the scheduler's
registration path; a regression test checks that registering a record does
not read the state of the records already retained.  The permalink tests
check that an evicted DONE comparison keeps serving the same bytes from its
result file on a store with a disk tier, that it expires with its record on
an in-memory store, and that a FAILED one expires with its record.
"""

from __future__ import annotations

import contextlib
import gc
import json
import tracemalloc
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.catalog import DatasetCatalog
from repro.exceptions import TaskNotFoundError
from repro.platform.datastore import DataStore
from repro.platform.executor import ExecutorPool
from repro.platform.gateway import ApiGateway
from repro.platform.jobs import JobRecord, JobRegistry, JobState
from repro.platform.replication import ReplicatedShardedDataStore
from repro.platform.restapi import RestApiServer
from repro.platform.scheduler import Scheduler
from repro.platform.tasks import Query, QuerySet, TaskBuilder
from repro.platform.webui import WebUI


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


class SchedulerTable:
    """Registers comparison records through a :class:`Scheduler`, then fails them."""

    def __init__(self, bound: int) -> None:
        datastore = DataStore()
        self.pool = ExecutorPool(num_workers=1)
        self.scheduler = Scheduler(
            datastore, DatasetCatalog(), self.pool, max_finished_tasks=bound
        )
        self.builder = TaskBuilder(DatasetCatalog())

    def create(self, record_id: str) -> JobRecord:
        query_set = QuerySet([Query("unused", "pagerank")])
        query_set.comparison_id = record_id
        record = self.builder.build_task(query_set)
        self.scheduler._register(record)
        return record

    @staticmethod
    def finish(record: JobRecord) -> None:
        record.finish(JobState.FAILED, error="settled by the test")

    def retained(self) -> dict:
        return {record.job_id: record for record in self.scheduler.jobs.list_records()}

    def evicted(self) -> int:
        return self.scheduler.jobs.stats()["evicted"]

    def close(self) -> None:
        self.pool.shutdown()


TABLES = [RegistryTable, SchedulerTable]

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
    original = JobRecord.state

    def state(record):
        reads["count"] += 1
        return original.fget(record)

    monkeypatch.setattr(JobRecord, "state", property(state))
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


def test_the_default_bound_is_the_registrys():
    with ApiGateway(catalog=DatasetCatalog()) as gateway:
        assert gateway.get_platform_stats()["jobs"]["max_finished_jobs"] == 256
        assert "tasks" not in gateway.get_platform_stats()


@contextlib.contextmanager
def _serving(graph, datastore):
    """A gateway that keeps one finished comparison, served over REST."""
    catalog = DatasetCatalog()
    catalog.register_graph("toy", graph, description="two triangles")
    with ApiGateway(
        catalog=catalog, datastore=datastore, num_workers=1, max_finished_tasks=1
    ) as gateway:
        server = RestApiServer(gateway)
        server.start()
        try:
            yield gateway, server.url
        finally:
            server.stop()


@pytest.fixture
def evicting_gateway(two_triangles, disk_datastore):
    """The evicting gateway on a store with a disk tier."""
    with _serving(two_triangles, disk_datastore) as served:
        yield served


@pytest.fixture
def memory_evicting_gateway(two_triangles):
    """The evicting gateway on its default, in-memory store."""
    with _serving(two_triangles, None) as served:
        yield served


def _http_status(url: str) -> int:
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status
    except urllib.error.HTTPError as error:
        error.close()
        return error.code


THREE_QUERIES = [
    {"dataset_id": "toy", "algorithm": "cyclerank", "source": "R", "parameters": {"k": 3}},
    {"dataset_id": "toy", "algorithm": "personalized-pagerank", "source": "R"},
    {"dataset_id": "toy", "algorithm": "personalized-2drank", "source": "R"},
]


def _surfaces(gateway: ApiGateway, url: str, comparison_id: str) -> dict:
    with urllib.request.urlopen(
        f"{url}/api/comparisons/{comparison_id}/results?k=10", timeout=30
    ) as response:
        body = response.read()
    return {
        "status": gateway.get_status(comparison_id),
        "rankings": [ranking.to_dict() for ranking in gateway.get_rankings(comparison_id)],
        "table": json.dumps(
            gateway.get_comparison_table(comparison_id).as_dict(), default=str
        ),
        "rest_results": body,
    }


def test_an_evicted_done_permalink_serves_the_same_bytes(evicting_gateway):
    gateway, url = evicting_gateway
    done = gateway.run_queries(THREE_QUERIES, synchronous=True)
    before = _surfaces(gateway, url, done)
    gateway.run_queries([{"dataset_id": "toy", "algorithm": "pagerank"}])
    assert gateway.scheduler.jobs.find(done) is None, "the bound of 1 evicts it"
    with pytest.raises(TaskNotFoundError):
        gateway.get_task(done)
    assert _surfaces(gateway, url, done) == before
    # The execution log is the record's events, so it leaves with the record.
    with pytest.raises(TaskNotFoundError):
        gateway.get_logs(done)
    assert _http_status(f"{url}/api/comparisons/{done}/logs") == 404
    view = WebUI(gateway).render_results(done, include_logs=True)
    assert view.endswith("(expired with the comparison's job record)")


def test_an_evicted_done_permalink_expires_on_an_in_memory_store(memory_evicting_gateway):
    gateway, url = memory_evicting_gateway
    done = gateway.run_queries(THREE_QUERIES, synchronous=True)
    for resource in ("results", "status", "logs"):
        assert _http_status(f"{url}/api/comparisons/{done}/{resource}") == 200
    gateway.run_queries([{"dataset_id": "toy", "algorithm": "pagerank"}])
    assert gateway.scheduler.jobs.find(done) is None, "the bound of 1 evicts it"
    for resource in ("results", "status", "logs"):
        assert _http_status(f"{url}/api/comparisons/{done}/{resource}") == 404, resource
    with pytest.raises(TaskNotFoundError):
        gateway.get_rankings(done)


def test_an_evicted_failed_permalink_expires(memory_evicting_gateway):
    gateway, _ = memory_evicting_gateway
    failed = gateway.run_queries(
        [{"dataset_id": "toy", "algorithm": "personalized-pagerank", "source": "ghost"}]
    )
    assert gateway.get_status(failed).state.value == "failed"
    gateway.run_queries([{"dataset_id": "toy", "algorithm": "pagerank"}])
    with pytest.raises(TaskNotFoundError):
        gateway.get_status(failed)
    with pytest.raises(TaskNotFoundError):
        gateway.wait_for(failed)


#: The soak's traced-heap tolerance per comparison.  A comparison that left a
#: result payload or a log stream behind cost about 2 KB here; the flat
#: residue after every bound has filled is about 0.1 KB.
SOAK_TOLERANCE_BYTES_PER_OP = 512


@pytest.mark.parametrize("topology", ["memory", "ring-4x2"])
def test_a_soak_past_every_bound_leaves_the_heap_flat(two_triangles, topology):
    """After the bounds fill, more comparisons leave nothing behind.

    The warm-up runs past the job bound (256) and the tracer's 256 traces,
    and every query repeats one of ten cached ones, so neither the result
    cache nor any other bounded table is still growing when the measured
    comparisons run.
    """
    catalog = DatasetCatalog()
    catalog.register_graph("toy", two_triangles, description="two triangles")
    datastore = (
        ReplicatedShardedDataStore(num_shards=4, replicas=2) if topology != "memory" else None
    )
    sources = ["R", "A", "B", "C", "D"]
    warm, measured = 300, 300

    def compare(count: int) -> None:
        for index in range(count):
            source = sources[index % len(sources)]
            gateway.run_queries([
                {"dataset_id": "toy", "algorithm": "cyclerank", "source": source,
                 "parameters": {"k": 3}},
                {"dataset_id": "toy", "algorithm": "personalized-pagerank",
                 "source": source},
            ])

    with ApiGateway(
        catalog=catalog, datastore=datastore, probe_interval_seconds=0
    ) as gateway:
        tracemalloc.start()
        try:
            compare(warm)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            compare(measured)
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        growth = (after - before) / measured
        assert growth < SOAK_TOLERANCE_BYTES_PER_OP, f"{growth:.0f} B per comparison"
        occupancy = gateway.datastore.occupancy()
        assert occupancy["results"] == 0
        assert "logs" not in occupancy
        assert len(gateway.scheduler.jobs) == 256
        assert occupancy["cached_rankings"] == 10
