"""Integration tests for the HTTP/JSON front-end (:mod:`repro.platform.restapi`)."""

from __future__ import annotations

import json
import logging
import time
import urllib.error
import urllib.request

import pytest

from repro.datasets.catalog import DatasetCatalog
from repro.platform.gateway import ApiGateway
from repro.platform.restapi import RestApiServer


@pytest.fixture(scope="module")
def server(small_enwiki, small_amazon):
    catalog = DatasetCatalog()
    catalog.register_graph("enwiki-2018", small_enwiki, family="wikipedia",
                           description="small synthetic enwiki")
    catalog.register_graph("amazon-copurchase", small_amazon, family="amazon",
                           description="small synthetic amazon")
    gateway = ApiGateway(catalog=catalog, num_workers=2)
    api = RestApiServer(gateway)
    api.start()
    yield api
    api.stop()
    gateway.shutdown()


def get_json(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def post_json(server, path, payload):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


class TestDiscoveryEndpoints:
    def test_index_page_lists_datasets_and_algorithms(self, server):
        with urllib.request.urlopen(server.url + "/", timeout=10) as response:
            html = response.read().decode("utf-8")
        assert "enwiki-2018" in html
        assert "cyclerank" in html

    def test_list_datasets(self, server):
        status, payload = get_json(server, "/api/datasets")
        assert status == 200
        assert {entry["dataset_id"] for entry in payload} == {
            "enwiki-2018", "amazon-copurchase"
        }

    def test_dataset_summary(self, server):
        status, payload = get_json(server, "/api/datasets/enwiki-2018/summary")
        assert status == 200
        assert payload["num_nodes"] > 0
        assert "reciprocity" in payload

    def test_list_algorithms(self, server):
        status, payload = get_json(server, "/api/algorithms")
        assert status == 200
        names = {entry["name"] for entry in payload}
        assert "cyclerank" in names
        assert "personalized-pagerank" in names

    def test_unknown_resource_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(server, "/api/nonsense")
        assert excinfo.value.code == 404
        excinfo.value.close()

    def test_unknown_dataset_summary_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(server, "/api/datasets/never-heard-of-it/summary")
        assert excinfo.value.code == 404
        excinfo.value.close()


class TestComparisonEndpoints:
    def test_submit_and_fetch_results(self, server):
        status, created = post_json(
            server,
            "/api/comparisons",
            {
                "queries": [
                    {"dataset_id": "enwiki-2018", "algorithm": "cyclerank",
                     "source": "Freddie Mercury", "parameters": {"k": 3}},
                    {"dataset_id": "enwiki-2018", "algorithm": "personalized-pagerank",
                     "source": "Freddie Mercury", "parameters": {"alpha": 0.3}},
                ],
                "synchronous": True,
            },
        )
        assert status == 201
        comparison_id = created["comparison_id"]

        status, progress = get_json(server, f"/api/comparisons/{comparison_id}/status")
        assert status == 200
        assert progress["state"] == "completed"
        assert progress["completed_queries"] == 2

        status, table = get_json(server, f"/api/comparisons/{comparison_id}/results?k=5")
        assert status == 200
        assert table["columns"] == ["Cyclerank", "Pers. PageRank"]
        assert table["rows"][0] == ["Freddie Mercury", "Freddie Mercury"]

        status, logs = get_json(server, f"/api/comparisons/{comparison_id}/logs")
        assert status == 200
        assert any("done" in line for line in logs["lines"])

    def test_asynchronous_submission_with_polling(self, server):
        _, created = post_json(
            server,
            "/api/comparisons",
            {
                "queries": [
                    {"dataset_id": "amazon-copurchase", "algorithm": "cyclerank",
                     "source": "1984", "parameters": {"k": 3}},
                ],
            },
        )
        comparison_id = created["comparison_id"]
        deadline = time.monotonic() + 30
        state = "pending"
        while time.monotonic() < deadline:
            _, progress = get_json(server, f"/api/comparisons/{comparison_id}/status")
            state = progress["state"]
            if state in ("completed", "failed"):
                break
            time.sleep(0.05)
        assert state == "completed"
        _, table = get_json(server, f"/api/comparisons/{comparison_id}/results?k=3")
        assert table["rows"][0] == ["1984"]

    def test_unknown_comparison_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(server, "/api/comparisons/not-a-comparison/status")
        assert excinfo.value.code == 404
        excinfo.value.close()

    def test_invalid_query_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(
                server,
                "/api/comparisons",
                {"queries": [{"dataset_id": "missing", "algorithm": "pagerank"}]},
            )
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        excinfo.value.close()
        assert "error" in body

    def test_empty_queries_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(server, "/api/comparisons", {"queries": []})
        assert excinfo.value.code == 400
        excinfo.value.close()

    def test_malformed_json_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/api/comparisons",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        excinfo.value.close()

    def test_post_to_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(server, "/api/not-a-thing", {})
        assert excinfo.value.code == 404
        excinfo.value.close()


class TestServerLifecycle:
    def test_context_manager_and_own_gateway(self, small_enwiki):
        catalog = DatasetCatalog()
        catalog.register_graph("enwiki-2018", small_enwiki)
        gateway = ApiGateway(catalog=catalog, num_workers=1)
        with RestApiServer(gateway) as api:
            host, port = api.address
            assert port > 0
            assert api.url.startswith("http://")
        gateway.shutdown()

    def test_address_requires_started_server(self):
        api = RestApiServer(ApiGateway(catalog=DatasetCatalog(), num_workers=1))
        with pytest.raises(RuntimeError):
            _ = api.address
        api.gateway.shutdown()

    def test_start_twice_is_idempotent(self, server):
        assert server.start() == server.address

    def test_access_log_recorded(self, server, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.platform.restapi"):
            get_json(server, "/api/datasets")
        assert any(
            "GET /api/datasets" in record.getMessage()
            for record in caplog.records
            if record.name == "repro.platform.restapi"
        )


class TestStatsEndpoint:
    def test_stats_exposes_cache_and_batch_counters(self, server):
        status, payload = get_json(server, "/api/stats")
        assert status == 200
        # A "shards" section joins these three when the gateway runs on a
        # ring store (e.g. the REPRO_TEST_SHARDS=4 CI topology).
        assert set(payload) >= {"cache", "batches", "artifacts"}
        for counter in ("capacity", "size", "hits", "misses", "hit_rate",
                        "evictions", "invalidations"):
            assert counter in payload["cache"]
        for counter in ("batches", "batched_queries", "largest_batch",
                        "mean_batch_size", "inflight_queries"):
            assert counter in payload["batches"]
        for counter in ("compiled", "hits", "misses", "hit_rate", "invalidations"):
            assert counter in payload["artifacts"]

    def test_stats_reflect_cache_hits_after_a_repeat_comparison(self, server):
        body = {
            "queries": [
                {
                    "dataset_id": "enwiki-2018",
                    "algorithm": "personalized-pagerank",
                    "source": "Pasta",
                }
            ],
            "synchronous": True,
        }
        post_json(server, "/api/comparisons", body)
        _, before = get_json(server, "/api/stats")
        post_json(server, "/api/comparisons", body)
        _, after = get_json(server, "/api/stats")
        assert after["cache"]["hits"] == before["cache"]["hits"] + 1
        assert after["batches"]["batches"] == before["batches"]["batches"]


def delete_json(server, path):
    request = urllib.request.Request(server.url + path, method="DELETE")
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


@pytest.fixture
def gate_pair():
    from repro.algorithms import registry as algorithm_registry

    from conftest import register_gated_algorithm

    gates = [register_gated_algorithm("gated-a"), register_gated_algorithm("gated-b")]
    try:
        yield gates
    finally:
        for _, release in gates:
            release.set()
        algorithm_registry._REGISTRY.pop("gated-a", None)
        algorithm_registry._REGISTRY.pop("gated-b", None)


class TestJobEndpoints:
    def test_job_listing_reports_submitted_comparisons(self, server):
        _, created = post_json(
            server,
            "/api/comparisons",
            {
                "queries": [{"dataset_id": "enwiki-2018", "algorithm": "pagerank"}],
                "synchronous": True,
            },
        )
        status, listing = get_json(server, "/api/comparisons")
        assert status == 200
        rows = {row["comparison_id"]: row for row in listing}
        assert created["comparison_id"] in rows
        row = rows[created["comparison_id"]]
        assert row["state"] == "done"
        assert row["completed_queries"] == row["total_queries"] == 1

    def test_results_of_unfinished_comparison_is_409(self, server, gate_pair):
        # Both executor workers are pinned by gated comparisons, so a third
        # submission stays queued: its results endpoint must say so instead
        # of assembling a partial/empty table.
        (started_a, release_a), (started_b, release_b) = gate_pair
        running = []
        for name, started in (("gated-a", started_a), ("gated-b", started_b)):
            _, created = post_json(
                server,
                "/api/comparisons",
                {
                    "queries": [
                        {"dataset_id": "enwiki-2018", "algorithm": name,
                         "source": "Pasta"},
                    ],
                    "synchronous": False,
                },
            )
            running.append(created["comparison_id"])
            assert started.wait(timeout=10.0)
        _, created = post_json(
            server,
            "/api/comparisons",
            {
                "queries": [{"dataset_id": "enwiki-2018", "algorithm": "cheirank"}],
                "synchronous": False,
            },
        )
        queued_id = created["comparison_id"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(server, f"/api/comparisons/{queued_id}/results")
        assert excinfo.value.code == 409
        body = json.loads(excinfo.value.read().decode("utf-8"))
        excinfo.value.close()
        assert body["state"] == "pending"
        assert body["completed_queries"] == 0
        assert body["total_queries"] == 1
        # A running (gated) comparison 409s with its own state too.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(server, f"/api/comparisons/{running[0]}/results")
        assert excinfo.value.code == 409
        assert json.loads(excinfo.value.read().decode("utf-8"))["state"] == "running"
        excinfo.value.close()
        release_a.set()
        release_b.set()
        for comparison_id in running + [queued_id]:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                _, progress = get_json(server, f"/api/comparisons/{comparison_id}/status")
                if progress["state"] in ("completed", "failed"):
                    break
                time.sleep(0.05)
            assert progress["state"] == "completed"

    def test_delete_cancels_a_running_comparison(self, server, gate_pair):
        # Three distinct dispatch groups on a two-worker pool: two occupy
        # the workers (blocked on their gates), the third sits queued — the
        # cancel must stop it at the dispatch boundary.
        (started_a, release_a), (started_b, release_b) = gate_pair
        _, created = post_json(
            server,
            "/api/comparisons",
            {
                "queries": [
                    # Sources unique to this test: a cache hit from an
                    # earlier module test would skip the gate entirely.
                    {"dataset_id": "enwiki-2018", "algorithm": "gated-a",
                     "source": "London", "parameters": {}},
                    {"dataset_id": "amazon-copurchase", "algorithm": "gated-b",
                     "source": "1984", "parameters": {}},
                    {"dataset_id": "enwiki-2018", "algorithm": "gated-b",
                     "source": "France", "parameters": {}},
                ],
                "synchronous": False,
            },
        )
        comparison_id = created["comparison_id"]
        assert started_a.wait(timeout=10.0)
        assert started_b.wait(timeout=10.0)
        status, outcome = delete_json(server, f"/api/comparisons/{comparison_id}")
        assert status == 200
        assert outcome["cancelled"] is True
        release_a.set()
        release_b.set()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            _, progress = get_json(server, f"/api/comparisons/{comparison_id}/status")
            if progress["state"] in ("completed", "failed", "cancelled"):
                break
            time.sleep(0.05)
        assert progress["state"] == "cancelled"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(server, f"/api/comparisons/{comparison_id}/results")
        assert excinfo.value.code == 409
        excinfo.value.close()

    def test_delete_of_finished_comparison_reports_not_cancelled(self, server):
        _, created = post_json(
            server,
            "/api/comparisons",
            {
                "queries": [{"dataset_id": "enwiki-2018", "algorithm": "pagerank"}],
                "synchronous": True,
            },
        )
        status, outcome = delete_json(server, f"/api/comparisons/{created['comparison_id']}")
        assert status == 200
        assert outcome["cancelled"] is False
        assert outcome["state"] == "completed"

    def test_delete_unknown_comparison_is_404(self, server):
        request = urllib.request.Request(
            server.url + "/api/comparisons/never-submitted", method="DELETE"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404
        excinfo.value.close()

    def test_long_poll_delivers_the_event_log(self, server):
        _, created = post_json(
            server,
            "/api/comparisons",
            {
                "queries": [
                    {"dataset_id": "enwiki-2018", "algorithm": "personalized-pagerank",
                     "source": "Freddie Mercury"},
                ],
                "synchronous": True,
            },
        )
        comparison_id = created["comparison_id"]
        status, payload = get_json(server, f"/api/comparisons/{comparison_id}/events?after=0")
        assert status == 200
        assert payload["state"] == "completed"
        types = [event["type"] for event in payload["events"]]
        assert types[0] == "submitted"
        assert types[-1] == "task_done"
        assert payload["next_after"] == payload["events"][-1]["seq"]
        # Resuming past the end returns immediately with no events.
        status, tail = get_json(
            server,
            f"/api/comparisons/{comparison_id}/events?after={payload['next_after']}",
        )
        assert tail["events"] == []
        assert tail["next_after"] == payload["next_after"]

    def test_event_stream_sse_content_type_and_frames(self, server):
        _, created = post_json(
            server,
            "/api/comparisons",
            {
                "queries": [{"dataset_id": "enwiki-2018", "algorithm": "2drank"}],
                "synchronous": False,
            },
        )
        comparison_id = created["comparison_id"]
        url = f"{server.url}/api/comparisons/{comparison_id}/events?stream=sse"
        frames = []
        with urllib.request.urlopen(url, timeout=30) as response:
            assert response.headers["Content-Type"].startswith("text/event-stream")
            for raw in response:
                line = raw.decode("utf-8").strip()
                if line.startswith("data: "):
                    frames.append(json.loads(line[len("data: "):]))
        assert frames[0]["type"] == "submitted"
        assert frames[-1]["type"] == "task_done"
        assert [frame["seq"] for frame in frames] == list(range(1, len(frames) + 1))

    def test_sse_of_unknown_comparison_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(server, "/api/comparisons/never-submitted/events?stream=sse")
        assert excinfo.value.code == 404
        excinfo.value.close()

    def test_idle_sse_stream_emits_keepalive_pings_and_resumes(self, server):
        """An idle stream writes ``: ping`` comments; ``after=N`` resumes it.

        A gated algorithm holds the job idle so the stream has nothing to
        deliver: the keep-alive comments are what keeps proxies from reaping
        the connection.  After the gate opens, the remaining events arrive in
        ``seq`` order, and a client that only saw part of the stream resumes
        losslessly from its last cursor over the long-poll endpoint.
        """
        from conftest import register_gated_algorithm
        from repro.algorithms import registry as algorithm_registry

        started, release = register_gated_algorithm("gated-keepalive")
        try:
            _, created = post_json(
                server,
                "/api/comparisons",
                {
                    "queries": [
                        {
                            "dataset_id": "enwiki-2018",
                            "algorithm": "gated-keepalive",
                            "source": "Freddie Mercury",
                        }
                    ],
                    "synchronous": False,
                },
            )
            comparison_id = created["comparison_id"]
            assert started.wait(10.0)
            url = (
                f"{server.url}/api/comparisons/{comparison_id}/events"
                "?stream=sse&keepalive=0.2"
            )
            pings = 0
            frames = []
            with urllib.request.urlopen(url, timeout=30) as response:
                assert response.headers["Content-Type"].startswith("text/event-stream")
                for raw in response:
                    line = raw.decode("utf-8").rstrip("\n")
                    if line == ": ping":
                        pings += 1
                        if pings == 2:
                            release.set()  # idle proven; let the job finish
                    elif line.startswith("data: "):
                        frames.append(json.loads(line[len("data: "):]))
            assert pings >= 2
            assert frames[-1]["type"] == "task_done"
            seqs = [frame["seq"] for frame in frames]
            assert seqs == sorted(seqs)
            # Resume from a mid-stream cursor: exactly the tail comes back.
            cursor = seqs[0]
            status, body = get_json(
                server,
                f"/api/comparisons/{comparison_id}/events?after={cursor}&timeout=5",
            )
            assert status == 200
            assert [event["seq"] for event in body["events"]] == seqs[1:]
        finally:
            release.set()
            algorithm_registry._REGISTRY.pop("gated-keepalive", None)


class TestResultsOfTerminalFailures:
    def test_failed_comparison_results_409_carries_the_error(self, server):
        _, created = post_json(
            server,
            "/api/comparisons",
            {
                "queries": [
                    {"dataset_id": "enwiki-2018", "algorithm": "cyclerank",
                     "source": "No Such Article", "parameters": {"k": 3}},
                ],
                "synchronous": True,
            },
        )
        comparison_id = created["comparison_id"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(server, f"/api/comparisons/{comparison_id}/results")
        assert excinfo.value.code == 409
        body = json.loads(excinfo.value.read().decode("utf-8"))
        excinfo.value.close()
        assert body["state"] == "failed"
        assert "finished failed" in body["error"]
        assert body["task_error"]
