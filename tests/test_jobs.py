"""Unit and integration tests for the job/event subsystem (:mod:`repro.platform.jobs`).

Covers the record/registry mechanics in isolation (monotonic ``seq``,
blocking cursor reads, callback subscription, terminal-state projection,
bounded eviction) and the scheduler integration: every submission emits the
typed lifecycle events in order, non-blocking submission returns while the
comparison runs, cooperative cancellation stops remaining groups, and the
blocking entry points (``wait_for``, ``synchronous=True``) — now implemented
on the event cursor — return results bit-identical to the event-driven path.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.algorithms import registry as algorithm_registry
from repro.algorithms.base import Algorithm, AlgorithmSpec
from repro.algorithms.personalized_pagerank import personalized_pagerank
from repro.datasets.catalog import DatasetCatalog
from repro.exceptions import TaskNotFoundError
from repro.platform.gateway import ApiGateway
from repro.platform.jobs import (
    JobEvent,
    JobRecord,
    JobRegistry,
    JobState,
    QueryState,
)
from repro.platform.tasks import TaskState


# ---------------------------------------------------------------------- #
# JobRecord unit tests
# ---------------------------------------------------------------------- #
class TestJobRecord:
    def test_sequence_numbers_are_monotonic_from_one(self):
        record = JobRecord("job-1", total_queries=2)
        first = record.append("submitted", total_queries=2)
        second = record.append("query_started", query=0)
        assert (first.seq, second.seq) == (1, 2)
        assert [event.seq for event in record.events()] == [1, 2]

    def test_unknown_event_type_is_rejected(self):
        record = JobRecord("job-1", total_queries=1)
        with pytest.raises(ValueError, match="unknown job event type"):
            record.append("telemetry")

    def test_projection_tracks_query_states_and_completion(self):
        record = JobRecord("job-1", total_queries=3)
        record.append("submitted", total_queries=3)
        assert record.state is JobState.QUEUED
        record.append("query_started", query=0)
        assert record.state is JobState.RUNNING
        record.append("query_completed", query=0)
        record.append("query_cached", query=1)
        assert record.completed_queries == 2
        assert record.query_states()[:2] == [QueryState.COMPLETED, QueryState.CACHED]
        assert record.query_states()[2] is QueryState.PENDING

    def test_finish_emits_task_done_exactly_once(self):
        record = JobRecord("job-1", total_queries=1)
        assert record.finish(JobState.DONE) is True
        assert record.finish(JobState.DONE) is False
        assert [event.type for event in record.events()] == ["task_done"]
        assert record.state is JobState.DONE

    def test_appends_after_terminal_state_are_dropped(self):
        record = JobRecord("job-1", total_queries=1)
        record.finish(JobState.DONE)
        assert record.append("query_completed", query=0) is None
        assert record.last_seq == 1

    def test_finish_requires_a_terminal_state(self):
        record = JobRecord("job-1", total_queries=1)
        with pytest.raises(ValueError):
            record.finish(JobState.RUNNING)

    def test_cancelled_finish_settles_unsettled_queries(self):
        record = JobRecord("job-1", total_queries=2)
        record.append("query_completed", query=0)
        record.finish(JobState.CANCELLED)
        assert record.query_states() == [QueryState.COMPLETED, QueryState.CANCELLED]

    def test_request_cancel_is_idempotent_and_refused_after_terminal(self):
        record = JobRecord("job-1", total_queries=1)
        assert record.request_cancel() is True
        assert record.request_cancel() is False
        assert [event.type for event in record.events()] == ["cancelled"]
        done = JobRecord("job-2", total_queries=1)
        done.finish(JobState.DONE)
        assert done.request_cancel() is False

    def test_failed_projection_records_the_error(self):
        record = JobRecord("job-1", total_queries=1)
        record.append("query_failed", query=0, error="node not found")
        record.finish(JobState.FAILED, error="node not found")
        assert record.state is JobState.FAILED
        assert record.error == "node not found"

    def test_event_as_dict_is_the_wire_format(self):
        record = JobRecord("job-1", total_queries=1)
        event = record.append("query_started", query=0, algorithm="pagerank")
        payload = event.as_dict()
        assert payload["seq"] == 1
        assert payload["type"] == "query_started"
        assert payload["query"] == 0
        assert payload["algorithm"] == "pagerank"
        assert isinstance(payload["timestamp"], float)


class TestEventCursor:
    def test_events_since_returns_existing_events_immediately(self):
        record = JobRecord("job-1", total_queries=1)
        record.append("submitted", total_queries=1)
        record.append("query_started", query=0)
        events = record.events_since(0, timeout=0.0)
        assert [event.seq for event in events] == [1, 2]
        assert record.events_since(2, timeout=0.01) == []

    def test_events_since_rejects_negative_cursor(self):
        record = JobRecord("job-1", total_queries=1)
        with pytest.raises(ValueError):
            record.events_since(-1)

    def test_events_since_blocks_until_an_event_arrives(self):
        record = JobRecord("job-1", total_queries=1)

        def appender():
            time.sleep(0.05)
            record.append("submitted", total_queries=1)

        thread = threading.Thread(target=appender)
        started = time.monotonic()
        thread.start()
        events = record.events_since(0, timeout=5.0)
        elapsed = time.monotonic() - started
        thread.join()
        assert [event.type for event in events] == ["submitted"]
        assert 0.03 <= elapsed < 5.0

    def test_events_since_returns_immediately_on_terminal_jobs(self):
        record = JobRecord("job-1", total_queries=1)
        record.finish(JobState.DONE)
        started = time.monotonic()
        # A cursor already past the end would otherwise block for the full
        # timeout; terminal jobs must never make a reader wait.
        assert record.events_since(record.last_seq, timeout=5.0) == []
        assert time.monotonic() - started < 1.0

    def test_wait_done_times_out_and_succeeds(self):
        record = JobRecord("job-1", total_queries=1)
        assert record.wait_done(0.02) is False

        def finisher():
            time.sleep(0.05)
            record.finish(JobState.DONE)

        thread = threading.Thread(target=finisher)
        thread.start()
        assert record.wait_done(5.0) is True
        thread.join()

    def test_subscription_sees_every_event_in_order(self):
        record = JobRecord("job-1", total_queries=2)
        seen: list[JobEvent] = []
        unsubscribe = record.subscribe(seen.append)
        record.append("submitted", total_queries=2)
        record.append("query_started", query=0)
        unsubscribe()
        record.append("query_completed", query=0)
        assert [event.seq for event in seen] == [1, 2]


# ---------------------------------------------------------------------- #
# JobRegistry unit tests
# ---------------------------------------------------------------------- #
class TestJobRegistry:
    def test_create_find_get_and_contains(self):
        registry = JobRegistry()
        record = registry.create("job-1", total_queries=2)
        assert registry.find("job-1") is record
        assert registry.get("job-1") is record
        assert "job-1" in registry
        assert registry.find("missing") is None
        with pytest.raises(TaskNotFoundError):
            registry.get("missing")

    def test_rejects_a_nonpositive_bound(self):
        with pytest.raises(ValueError):
            JobRegistry(max_finished_jobs=0)

    def test_terminal_jobs_are_evicted_beyond_the_bound(self):
        registry = JobRegistry(max_finished_jobs=2)
        for index in range(4):
            registry.create(f"done-{index}", total_queries=1).finish(JobState.DONE)
        registry.create("live", total_queries=1)
        assert registry.find("done-0") is None
        assert registry.find("done-1") is None
        assert registry.find("done-2") is not None
        assert registry.find("done-3") is not None
        assert registry.stats()["evicted"] == 2

    def test_active_jobs_are_never_evicted(self):
        registry = JobRegistry(max_finished_jobs=1)
        active = [registry.create(f"active-{index}", total_queries=1) for index in range(5)]
        registry.create("one-more", total_queries=1)
        for record in active:
            assert registry.find(record.job_id) is record

    def test_stats_reports_states(self):
        registry = JobRegistry()
        registry.create("running", total_queries=1).append("query_started", query=0)
        registry.create("done", total_queries=1).finish(JobState.DONE)
        stats = registry.stats()
        assert stats["jobs"] == 2
        assert stats["by_state"] == {"running": 1, "done": 1}


# ---------------------------------------------------------------------- #
# scheduler integration
# ---------------------------------------------------------------------- #
@pytest.fixture
def toy_gateway(two_triangles):
    catalog = DatasetCatalog()
    catalog.register_graph("toy", two_triangles, description="two triangles")
    with ApiGateway(catalog=catalog, num_workers=2) as gateway:
        yield gateway


def _event_types(events):
    return [event["type"] for event in events]


class TestSchedulerEvents:
    def test_lifecycle_events_are_emitted_in_order(self, toy_gateway):
        queries = [
            {"dataset_id": "toy", "algorithm": "personalized-pagerank", "source": "R"},
            {"dataset_id": "toy", "algorithm": "personalized-pagerank", "source": "A"},
        ]
        comparison = toy_gateway.run_queries(queries, synchronous=False)
        toy_gateway.wait_for(comparison, timeout_seconds=30.0)
        events = toy_gateway.get_events(comparison)
        assert [event["seq"] for event in events] == list(range(1, len(events) + 1))
        types = _event_types(events)
        assert types[0] == "submitted"
        assert types[-1] == "task_done"
        assert types.count("query_started") == 2
        assert types.count("query_completed") == 2
        started_at = {e["query"]: i for i, e in enumerate(events) if e["type"] == "query_started"}
        for position, event in enumerate(events):
            if event["type"] == "query_completed":
                assert started_at[event["query"]] < position

    def test_synchronous_run_emits_the_same_event_shape(self, toy_gateway):
        queries = [
            {"dataset_id": "toy", "algorithm": "personalized-pagerank", "source": "B"}
        ]
        comparison = toy_gateway.run_queries(queries, synchronous=True)
        types = _event_types(toy_gateway.get_events(comparison))
        assert types[0] == "submitted"
        assert "query_started" in types
        assert "query_completed" in types
        assert types[-1] == "task_done"

    def test_cache_hits_emit_query_cached(self, toy_gateway):
        query = [{"dataset_id": "toy", "algorithm": "personalized-pagerank", "source": "R"}]
        toy_gateway.run_queries(query, synchronous=True)
        second = toy_gateway.run_queries(query, synchronous=True)
        types = _event_types(toy_gateway.get_events(second))
        assert "query_cached" in types
        assert "query_started" not in types

    def test_failed_query_emits_query_failed_and_failed_task_done(self, toy_gateway):
        query = [{"dataset_id": "toy", "algorithm": "cyclerank", "source": "ghost"}]
        comparison = toy_gateway.run_queries(query, synchronous=False)
        toy_gateway.wait_for(comparison, timeout_seconds=30.0)
        events = toy_gateway.get_events(comparison)
        types = _event_types(events)
        assert "query_failed" in types
        assert events[-1]["type"] == "task_done"
        assert events[-1]["state"] == "failed"
        assert toy_gateway.get_status(comparison).state is TaskState.FAILED

    def test_task_done_is_emitted_after_results_are_stored(
        self, two_triangles, disk_datastore
    ):
        catalog = DatasetCatalog()
        catalog.register_graph("toy", two_triangles, description="two triangles")
        with ApiGateway(
            catalog=catalog, datastore=disk_datastore, num_workers=2
        ) as toy_gateway:
            query = [{"dataset_id": "toy", "algorithm": "pagerank"}]
            comparison = toy_gateway.run_queries(query, synchronous=False)
            # Block directly on the cursor until task_done, then read the
            # result: the ordering contract says it must already be persisted.
            for event in toy_gateway.stream_events(comparison):
                if event["type"] == "task_done":
                    assert toy_gateway.datastore.has_result(comparison)
            assert toy_gateway.status.stored_result(comparison)["state"] == "completed"

    def test_list_comparisons_reports_jobs(self, toy_gateway):
        assert toy_gateway.list_comparisons() == []
        comparison = toy_gateway.run_queries(
            [{"dataset_id": "toy", "algorithm": "pagerank"}], synchronous=True
        )
        rows = toy_gateway.list_comparisons()
        assert len(rows) == 1
        assert rows[0]["comparison_id"] == comparison
        assert rows[0]["state"] == "done"
        assert rows[0]["completed_queries"] == rows[0]["total_queries"] == 1

    def test_events_of_unknown_comparison_raise(self, toy_gateway):
        with pytest.raises(TaskNotFoundError):
            toy_gateway.get_events("no-such-comparison")

    def test_platform_stats_contains_the_job_registry_section(self, toy_gateway):
        toy_gateway.run_queries(
            [{"dataset_id": "toy", "algorithm": "pagerank"}], synchronous=True
        )
        stats = toy_gateway.get_platform_stats()
        assert stats["jobs"]["jobs"] == 1
        assert stats["jobs"]["by_state"] == {"done": 1}

    def test_internal_event_sinks_are_not_listed_as_comparisons(self, two_triangles):
        """The storage-health and overload streams are not comparisons.

        A replicated gateway with admission control owns both never-ending
        event sinks; neither may show up in the listing, the job count or
        the web UI, yet both stay reachable by id.
        """
        from repro.platform.webui import WebUI

        catalog = DatasetCatalog()
        catalog.register_graph("toy", two_triangles, description="two triangles")
        with ApiGateway(
            catalog=catalog, shards=2, replicas=2, admission_max_cost=1000,
            probe_interval_seconds=0,
        ) as gateway:
            assert gateway.list_comparisons() == []
            stats = gateway.get_platform_stats()
            assert stats["jobs"]["jobs"] == 0
            assert stats["jobs"]["by_state"] == {}
            assert "no comparisons submitted yet" in WebUI(gateway).render_job_list()
            for sink in (gateway._health_job, gateway._overload_job):
                events = gateway.get_events(sink.job_id)
                assert events[0]["type"] == "submitted"
            comparison = gateway.run_queries(
                [{"dataset_id": "toy", "algorithm": "pagerank"}], synchronous=True
            )
            rows = gateway.list_comparisons()
            assert [row["comparison_id"] for row in rows] == [comparison]
            assert gateway.get_platform_stats()["jobs"]["jobs"] == 1


class TestProjectedCompletionCounter:
    def test_completion_events_carry_the_jobs_own_monotonic_count(self):
        # The record stamps its projected counter into each completion
        # event under its lock, so exactly one event reports the full count
        # even when callers race between recording and appending.
        record = JobRecord("job-1", total_queries=3)
        record.append("query_completed", query=0, completed_queries=99)
        record.append("query_cached", query=1, completed_queries=99)
        record.append("query_completed", query=2, completed_queries=99)
        counts = [
            event.payload["completed_queries"]
            for event in record.events()
            if event.type in ("query_completed", "query_cached")
        ]
        assert counts == [1, 2, 3]
