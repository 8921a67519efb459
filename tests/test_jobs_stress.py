"""Concurrency and end-to-end stress tests for the job/event request path.

The acceptance criteria of the event-driven refactor, asserted end to end:

* submitting with ``"synchronous": false`` returns while a gated multi-query
  comparison is still running (non-blocking submission);
* the REST long-poll cursor and the SSE stream both deliver every per-query
  event exactly once and in ``seq`` order, under concurrent submitters;
* ``DELETE`` on a running comparison stops the remaining groups and yields
  state ``cancelled`` — without poisoning an identical in-flight query that
  a concurrent comparison joined;
* blocking ``wait_for`` results are bit-identical to the streamed path.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.algorithms import registry as algorithm_registry
from repro.datasets.catalog import DatasetCatalog
from repro.platform.gateway import ApiGateway
from repro.platform.restapi import RestApiServer
from repro.platform.tasks import TaskState

from conftest import register_gated_algorithm

NUM_SUBMITTERS = 6


@pytest.fixture
def gated_algorithm():
    started, release = register_gated_algorithm("gated-ppr")
    try:
        yield started, release
    finally:
        release.set()
        algorithm_registry._REGISTRY.pop("gated-ppr", None)


@pytest.fixture
def toy_gateway(community_graph):
    catalog = DatasetCatalog()
    catalog.register_graph("stress", community_graph, description="planted communities")
    with ApiGateway(catalog=catalog, num_workers=2) as gateway:
        yield gateway


@pytest.fixture
def single_worker_gateway(community_graph):
    catalog = DatasetCatalog()
    catalog.register_graph("stress", community_graph, description="planted communities")
    with ApiGateway(catalog=catalog, num_workers=1) as gateway:
        yield gateway


class TestNonBlockingSubmission:
    def test_submission_returns_fast_while_the_comparison_runs(
        self, toy_gateway, gated_algorithm
    ):
        started, release = gated_algorithm
        queries = [
            {"dataset_id": "stress", "algorithm": "gated-ppr", "source": f"c0-n{i}"}
            for i in range(4)
        ]
        # Warm the dataset so the timed submission measures dispatch, not
        # first-use materialisation of the catalog graph.
        toy_gateway.run_queries(
            [{"dataset_id": "stress", "algorithm": "pagerank"}], synchronous=True
        )
        began = time.perf_counter()
        comparison = toy_gateway.run_queries(queries, synchronous=False)
        submit_seconds = time.perf_counter() - began
        assert submit_seconds < 0.05, (
            f"non-blocking submission took {submit_seconds * 1000:.1f}ms"
        )
        assert started.wait(timeout=10.0)
        progress = toy_gateway.get_status(comparison)
        assert not progress.state.is_terminal()
        release.set()
        final = toy_gateway.wait_for(comparison, timeout_seconds=30.0)
        assert final.state is TaskState.COMPLETED
        assert final.completed_queries == 4


class TestCancellation:
    def test_cancel_stops_remaining_groups(self, single_worker_gateway, gated_algorithm):
        started, release = gated_algorithm
        gateway = single_worker_gateway
        # Two distinct (dataset, algorithm, parameters) groups: the gated one
        # occupies the single worker, the pagerank group waits behind it.
        queries = [
            {"dataset_id": "stress", "algorithm": "gated-ppr", "source": "c0-n0"},
            {"dataset_id": "stress", "algorithm": "pagerank"},
        ]
        comparison = gateway.run_queries(queries, synchronous=False)
        assert started.wait(timeout=10.0)
        outcome = gateway.cancel_comparison(comparison)
        assert outcome["cancelled"] is True
        release.set()
        gateway.wait_for(comparison, timeout_seconds=30.0)
        progress = gateway.get_status(comparison)
        assert progress.state is TaskState.CANCELLED
        # The gated group was already executing and ran to completion; the
        # pagerank group hit the dispatch boundary after the cancel.
        assert progress.completed_queries < progress.total_queries
        events = gateway.get_events(comparison)
        assert events[-1]["type"] == "task_done"
        assert events[-1]["state"] == "cancelled"
        assert any(event["type"] == "cancelled" for event in events)

    def test_cancel_of_a_finished_comparison_is_refused(self, toy_gateway):
        comparison = toy_gateway.run_queries(
            [{"dataset_id": "stress", "algorithm": "pagerank"}], synchronous=True
        )
        outcome = toy_gateway.cancel_comparison(comparison)
        assert outcome["cancelled"] is False
        assert outcome["state"] == "completed"

    def test_cancel_does_not_poison_a_joined_identical_query(
        self, toy_gateway, gated_algorithm
    ):
        started, release = gated_algorithm
        query = [{"dataset_id": "stress", "algorithm": "gated-ppr", "source": "c1-n1"}]
        first = toy_gateway.run_queries(query, synchronous=False)
        assert started.wait(timeout=10.0)
        # An identical comparison joins the in-flight computation...
        second = toy_gateway.run_queries(query, synchronous=False)

        def second_joined():
            events = toy_gateway.get_events(second)
            return any(event.get("joined") for event in events)

        deadline = time.monotonic() + 10.0
        while not second_joined() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert second_joined(), "the second comparison never joined the in-flight key"
        # ... so cancelling the first must not abandon the shared key.
        assert toy_gateway.cancel_comparison(first)["cancelled"] is True
        release.set()
        final = toy_gateway.wait_for(second, timeout_seconds=30.0)
        assert final.state is TaskState.COMPLETED
        ranking = toy_gateway.get_rankings(second)[0]
        assert ranking.reference == "c1-n1"


class TestBitIdenticalResults:
    def test_streamed_and_blocking_paths_agree_exactly(self, community_graph):
        queries = [
            {"dataset_id": "stress", "algorithm": "personalized-pagerank", "source": "c0-n0"},
            {"dataset_id": "stress", "algorithm": "personalized-pagerank", "source": "c1-n0"},
            {"dataset_id": "stress", "algorithm": "cyclerank", "source": "c0-n0",
             "parameters": {"k": 3}},
            {"dataset_id": "stress", "algorithm": "pagerank"},
        ]

        def fresh_gateway():
            catalog = DatasetCatalog()
            catalog.register_graph("stress", community_graph, description="communities")
            return ApiGateway(catalog=catalog, num_workers=2)

        with fresh_gateway() as blocking_gateway:
            blocking_id = blocking_gateway.run_queries(queries, synchronous=True)
            blocking_rankings = blocking_gateway.get_rankings(blocking_id)
        with fresh_gateway() as streaming_gateway:
            streamed_id = streaming_gateway.run_queries(queries, synchronous=False)
            events = list(streaming_gateway.stream_events(streamed_id))
            assert events[-1]["type"] == "task_done"
            streamed_rankings = streaming_gateway.get_rankings(streamed_id)
        assert len(blocking_rankings) == len(streamed_rankings) == len(queries)
        for blocking, streamed in zip(blocking_rankings, streamed_rankings):
            assert blocking.algorithm == streamed.algorithm
            assert blocking.top_labels(20) == streamed.top_labels(20)
            assert np.array_equal(blocking.scores, streamed.scores)


# ---------------------------------------------------------------------- #
# REST-level delivery guarantees under concurrent submitters
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def rest_server():
    from repro.graph.generators import reciprocal_communities_graph

    catalog = DatasetCatalog()
    catalog.register_graph(
        "stress",
        reciprocal_communities_graph(4, 8, seed=11, name="communities"),
        description="planted communities",
    )
    gateway = ApiGateway(catalog=catalog, num_workers=4)
    server = RestApiServer(gateway)
    server.start()
    yield server
    server.stop()
    gateway.shutdown()


def _post_json(server, path, payload):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def _get_json(server, path):
    with urllib.request.urlopen(server.url + path, timeout=35) as response:
        return json.loads(response.read().decode("utf-8"))


def _follow_longpoll(server, comparison_id, collected):
    """Drain a comparison's event stream through the long-poll endpoint."""
    cursor = 0
    while True:
        payload = _get_json(
            server,
            f"/api/comparisons/{comparison_id}/events?after={cursor}&timeout=5",
        )
        events = payload["events"]
        collected.extend(events)
        if events:
            cursor = payload["next_after"]
        if any(event["type"] == "task_done" for event in events):
            return
        if not events and payload["state"] in ("completed", "failed", "cancelled"):
            return


def _follow_sse(server, comparison_id, collected):
    """Drain a comparison's event stream through the SSE endpoint."""
    url = f"{server.url}/api/comparisons/{comparison_id}/events?stream=sse"
    with urllib.request.urlopen(url, timeout=60) as response:
        assert response.headers["Content-Type"].startswith("text/event-stream")
        for raw in response:
            line = raw.decode("utf-8").strip()
            if line.startswith("data: "):
                collected.append(json.loads(line[len("data: "):]))


def _assert_exactly_once_in_order(events, expected_queries):
    seqs = [event["seq"] for event in events]
    assert seqs == sorted(seqs), "events arrived out of seq order"
    assert len(seqs) == len(set(seqs)), "an event was delivered more than once"
    assert events[0]["type"] == "submitted"
    assert events[-1]["type"] == "task_done"
    # Every event of a comparison is stamped with the one trace id the
    # gateway minted at submission, so a stream consumer can join the
    # event log against GET /api/comparisons/<id>/trace.
    trace_ids = {event.get("trace_id") for event in events}
    assert len(trace_ids) == 1, f"events carried mixed trace ids: {trace_ids}"
    (trace_id,) = trace_ids
    assert trace_id, "events were not stamped with a trace id"
    per_query = {}
    for event in events:
        if event["type"] in ("query_started", "query_cached", "query_completed"):
            per_query.setdefault(event["query"], []).append(event["type"])
    assert set(per_query) == set(range(expected_queries))
    for history in per_query.values():
        # Each query either ran (started then completed) or was served from
        # the cache — exactly one terminal per-query event either way.
        assert history in (
            ["query_started", "query_completed"],
            ["query_cached"],
        ), history


class TestConcurrentStreamDelivery:
    @pytest.mark.parametrize("transport", ["longpoll", "sse"])
    def test_every_event_is_delivered_exactly_once_in_seq_order(
        self, rest_server, transport
    ):
        follow = _follow_longpoll if transport == "longpoll" else _follow_sse
        results: dict = {}
        errors: list = []

        def submitter(worker: int):
            try:
                # Distinct sources per worker so every comparison carries a
                # mix of fresh computations (and, across workers, repeats
                # that may resolve as cache hits or in-flight joins).
                queries = [
                    {
                        "dataset_id": "stress",
                        "algorithm": "personalized-pagerank",
                        "source": f"c{worker % 4}-n{offset}",
                    }
                    for offset in range(3)
                ]
                submitted = _post_json(
                    rest_server, "/api/comparisons",
                    {"queries": queries, "synchronous": False},
                )
                comparison_id = submitted["comparison_id"]
                collected: list = []
                follow(rest_server, comparison_id, collected)
                results[worker] = (comparison_id, collected)
            except Exception as exc:  # pragma: no cover - surfaced via errors
                errors.append((worker, exc))

        threads = [
            threading.Thread(target=submitter, args=(worker,))
            for worker in range(NUM_SUBMITTERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, f"submitters failed: {errors}"
        assert len(results) == NUM_SUBMITTERS
        for worker, (comparison_id, events) in results.items():
            _assert_exactly_once_in_order(events, expected_queries=3)
            status = _get_json(rest_server, f"/api/comparisons/{comparison_id}/status")
            assert status["state"] == "completed"

    def test_late_cursor_replays_the_full_log(self, rest_server):
        submitted = _post_json(
            rest_server, "/api/comparisons",
            {
                "queries": [{"dataset_id": "stress", "algorithm": "cheirank"}],
                "synchronous": True,
            },
        )
        comparison_id = submitted["comparison_id"]
        # A reader that arrives after completion must still see the whole
        # history from any cursor, with no blocking.
        collected: list = []
        _follow_longpoll(rest_server, comparison_id, collected)
        _assert_exactly_once_in_order(collected, expected_queries=1)
        tail = _get_json(
            rest_server,
            f"/api/comparisons/{comparison_id}/events?after={collected[-1]['seq']}",
        )
        assert tail["events"] == []
        assert tail["state"] == "completed"


class TestRestNonBlockingSubmission:
    def test_post_returns_in_under_50ms_while_the_comparison_runs(
        self, rest_server, gated_algorithm
    ):
        started, release = gated_algorithm
        # Warm the dataset and the HTTP path outside the timed window.
        _post_json(
            rest_server, "/api/comparisons",
            {"queries": [{"dataset_id": "stress", "algorithm": "pagerank"}],
             "synchronous": True},
        )
        queries = [
            {"dataset_id": "stress", "algorithm": "gated-ppr", "source": f"c2-n{i}"}
            for i in range(4)
        ]
        began = time.perf_counter()
        submitted = _post_json(
            rest_server, "/api/comparisons",
            {"queries": queries, "synchronous": False},
        )
        elapsed = time.perf_counter() - began
        comparison_id = submitted["comparison_id"]
        assert elapsed < 0.05, f"POST took {elapsed * 1000:.1f}ms"
        assert started.wait(timeout=10.0)
        status = _get_json(rest_server, f"/api/comparisons/{comparison_id}/status")
        assert status["state"] in ("pending", "running")
        release.set()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status = _get_json(rest_server, f"/api/comparisons/{comparison_id}/status")
            if status["state"] in ("completed", "failed"):
                break
            time.sleep(0.02)
        assert status["state"] == "completed"
        assert status["completed_queries"] == 4


class TestSynchronousCancellation:
    def test_cancel_from_another_thread_stops_a_synchronous_run(
        self, single_worker_gateway, gated_algorithm
    ):
        started, release = gated_algorithm
        gateway = single_worker_gateway
        queries = [
            {"dataset_id": "stress", "algorithm": "gated-ppr", "source": "c3-n0"},
            {"dataset_id": "stress", "algorithm": "cheirank"},
        ]
        outcome: dict = {}

        def runner():
            outcome["id"] = gateway.run_queries(queries, synchronous=True)

        thread = threading.Thread(target=runner)
        thread.start()
        assert started.wait(timeout=10.0)
        # The synchronous runner is blocked inside the first group; find the
        # job through the listing and cancel it mid-run.
        comparisons = gateway.list_comparisons()
        assert len(comparisons) == 1
        assert gateway.cancel_comparison(comparisons[0]["comparison_id"])["cancelled"]
        release.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        progress = gateway.get_status(outcome["id"])
        assert progress.state is TaskState.CANCELLED
        # The cheirank group was skipped at the dispatch boundary.
        assert progress.completed_queries == 1
        events = gateway.get_events(outcome["id"])
        assert events[-1]["type"] == "task_done"
        assert events[-1]["state"] == "cancelled"


class TestTerminalJobSkipsQueuedGroups:
    def test_groups_queued_behind_a_failed_group_never_execute(
        self, gated_algorithm, community_graph
    ):
        started, _ = gated_algorithm
        catalog = DatasetCatalog()
        catalog.register_graph("stress", community_graph, description="communities")
        catalog.register_file("broken", "/nonexistent/edges.txt", format="edgelist",
                              description="unloadable dataset")
        with ApiGateway(catalog=catalog, num_workers=1) as gateway:
            comparison = gateway.run_queries(
                [
                    {"dataset_id": "broken", "algorithm": "pagerank"},
                    {"dataset_id": "stress", "algorithm": "gated-ppr",
                     "source": "c0-n0"},
                ],
                synchronous=False,
            )
            final = gateway.wait_for(comparison, timeout_seconds=30.0)
            assert final.state is TaskState.FAILED
            # The gated group was queued behind the failing one on the
            # single worker; once the job is terminal it must be skipped at
            # the dispatch boundary, not executed into a dropped event.
            assert not started.wait(timeout=0.3)


class TestSynchronousJoinPersistence:
    def test_sync_run_joining_an_async_twin_returns_with_results_stored(
        self, community_graph, disk_datastore, gated_algorithm
    ):
        catalog = DatasetCatalog()
        catalog.register_graph("stress", community_graph, description="planted communities")
        with ApiGateway(
            catalog=catalog, datastore=disk_datastore, num_workers=2
        ) as toy_gateway:
            self._join_and_check(toy_gateway, gated_algorithm)

    @staticmethod
    def _join_and_check(toy_gateway, gated_algorithm):
        started, release = gated_algorithm
        query = [{"dataset_id": "stress", "algorithm": "gated-ppr", "source": "c2-n2"}]
        async_id = toy_gateway.run_queries(query, synchronous=False)
        assert started.wait(timeout=10.0)
        outcome: dict = {}

        def sync_runner():
            # Joins the async twin's in-flight computation; must not return
            # before the join's done-callback has recorded and persisted.
            outcome["id"] = toy_gateway.run_queries(query, synchronous=True)
            outcome["done"] = toy_gateway.get_task(outcome["id"]).state.is_terminal()
            outcome["stored"] = toy_gateway.datastore.has_result(outcome["id"])

        thread = threading.Thread(target=sync_runner)
        thread.start()
        time.sleep(0.1)  # let the sync runner reach the join wait
        release.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert outcome["done"], "run_synchronously returned before the task settled"
        assert outcome["stored"], "run_synchronously returned before results persisted"
        toy_gateway.wait_for(async_id, timeout_seconds=30.0)
