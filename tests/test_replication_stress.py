"""End-to-end failover acceptance: kill a shard mid-serving and lose nothing.

The scenario of the replicated tier's acceptance criteria, driven through the
public gateway surface against fault-injected backends (the
:class:`conftest.FlakyStore` harness):

* concurrent writers and readers run mixed comparisons against a
  ``replicas=2`` store while one shard is killed mid-round — every
  submission still completes and every ranking is **bit-identical** to a
  single-store gateway's;
* no acked comparison result is lost: everything written before (and after)
  the kill stays retrievable;
* a ``rebalance`` job started through the gateway restores R live copies of
  every dataset and result among the surviving shards;
* maintenance jobs stream ordered progress events over the REST SSE endpoint
  and are cancellable through ``DELETE``;
* a file-backed ring shard recovers its slice of datasets and results
  bit-identical when reopened (a restart of that node).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from faults import FlakyStore
from repro.datasets.catalog import DatasetCatalog
from repro.graph.generators import reciprocal_communities_graph
from repro.platform.datastore import DataStore, FileBackedDataStore
from repro.platform.gateway import ApiGateway
from repro.platform.replication import ReplicatedShardedDataStore
from repro.platform.restapi import RestApiServer

NUM_SHARDS = 4
WRITERS = 2
ROUNDS = 3


def _make_catalog():
    catalog = DatasetCatalog()
    catalog.register_graph(
        "communities",
        reciprocal_communities_graph(3, 6, seed=21, name="communities"),
        description="planted communities",
    )
    catalog.register_graph(
        "hub",
        reciprocal_communities_graph(2, 7, seed=13, name="hub"),
        description="two dense communities",
    )
    catalog.register_graph(
        "late", reciprocal_communities_graph(2, 5, seed=8, name="late"),
        description="materialised only after the shard kill",
    )
    return catalog


def _queries_for(round_index: int):
    """The mixed workload of one round (distinct PPR sources per round)."""
    batches = [
        [
            {"dataset_id": "communities", "algorithm": "pagerank"},
            {
                "dataset_id": "communities",
                "algorithm": "personalized-pagerank",
                "source": f"c0-n{round_index}",
            },
        ],
        [
            {"dataset_id": "hub", "algorithm": "pagerank"},
            {
                "dataset_id": "hub",
                "algorithm": "personalized-pagerank",
                "source": f"c1-n{round_index}",
            },
        ],
    ]
    if round_index >= 2:
        # A dataset first touched *after* the kill: its materialisation
        # must quorum-write around the dead shard.
        batches.append(
            [
                {"dataset_id": "late", "algorithm": "pagerank"},
                {
                    "dataset_id": "late",
                    "algorithm": "personalized-pagerank",
                    "source": f"c1-n{round_index}",
                },
            ]
        )
    return batches


def _expected_rankings():
    """The ground truth: the same workload on a plain single-store gateway."""
    expected = {}
    with ApiGateway(catalog=_make_catalog(), num_workers=2) as baseline:
        for round_index in range(ROUNDS):
            for queries in _queries_for(round_index):
                comparison = baseline.run_queries(queries, synchronous=True)
                rankings = baseline.get_rankings(comparison)
                for query, ranking in zip(queries, rankings):
                    key = (
                        query["dataset_id"],
                        query["algorithm"],
                        query.get("source"),
                    )
                    expected[key] = ranking.to_dict()
    return expected


class TestShardLossUnderConcurrentServing:
    def test_single_shard_loss_keeps_serving_bit_identical(self, tmp_path):
        expected = _expected_rankings()
        # A result copy is a file: the memory shards keep theirs under a
        # directory, so an acked permalink survives the loss of any one.
        backends = [
            FlakyStore(DataStore(tmp_path / f"shard-{index}"))
            for index in range(NUM_SHARDS - 1)
        ]
        file_shard_dir = tmp_path / "file-shard"
        backends.append(FlakyStore(FileBackedDataStore(file_shard_dir)))
        store = ReplicatedShardedDataStore(
            shards=backends, replicas=2, spill_dir=str(tmp_path / "spill")
        )
        gateway = ApiGateway(catalog=_make_catalog(), datastore=store, num_workers=4)

        barrier = threading.Barrier(WRITERS + 1)
        completed = []  # (comparison id, queries) of acked submissions
        completed_lock = threading.Lock()
        failures = []
        stop_reading = threading.Event()

        def writer(worker: int) -> None:
            try:
                for round_index in range(ROUNDS):
                    barrier.wait(timeout=60)
                    for queries in _queries_for(round_index):
                        comparison = gateway.run_queries(queries, synchronous=True)
                        progress = gateway.get_status(comparison)
                        assert progress.state.value == "completed", progress
                        with completed_lock:
                            completed.append((comparison, queries))
                    barrier.wait(timeout=60)
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append(f"writer {worker}: {exc!r}")
                stop_reading.set()
                barrier.abort()

        def reader() -> None:
            try:
                while not stop_reading.is_set():
                    with completed_lock:
                        snapshot = list(completed)
                    for comparison, queries in snapshot:
                        table = gateway.get_comparison_table(comparison, k=3)
                        assert len(table.columns) == len(queries)
                        assert store.get_result(comparison)["comparison_id"] == (
                            comparison
                        )
                    time.sleep(0.005)
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append(f"reader: {exc!r}")

        threads = [
            threading.Thread(target=writer, args=(worker,)) for worker in range(WRITERS)
        ]
        reader_thread = threading.Thread(target=reader)
        for thread in threads:
            thread.start()
        reader_thread.start()

        victim = None
        try:
            for round_index in range(ROUNDS):
                barrier.wait(timeout=60)  # release the round
                if round_index == 1:
                    # Kill one data-holding shard *while* the round is being
                    # served: every call into it raises from here on.
                    time.sleep(0.02)
                    victim = next(
                        shard_id
                        for shard_id, backend in store.shard_stores().items()
                        if backend.occupancy()["datasets"] > 0
                        and not isinstance(backend._inner, FileBackedDataStore)
                    )
                    backends[int(victim.split("-")[1])].go_down()
                barrier.wait(timeout=60)  # round drained
        finally:
            stop_reading.set()
            for thread in threads:
                thread.join(timeout=60)
            reader_thread.join(timeout=60)

        assert not failures, failures
        assert victim is not None

        # Every ranking served during the outage is bit-identical to the
        # single-store gateway's.
        for comparison, queries in completed:
            rankings = gateway.get_rankings(comparison)
            assert len(rankings) == len(queries)
            for query, ranking in zip(queries, rankings):
                key = (query["dataset_id"], query["algorithm"], query.get("source"))
                assert ranking.to_dict() == expected[key], key

        # No acked result was lost: every comparison's payload is readable
        # even with the shard still dead.
        for comparison, _ in completed:
            payload = store.get_result(comparison)
            assert payload["state"] == "completed"

        # The operator marks the dead shard down and a rebalance job restores
        # R live copies of every dataset and result among the survivors.
        store.mark_down(victim)
        job_id = gateway.rebalance_storage(wait=True)
        assert gateway.get_status(job_id).state.value == "completed"
        live = [
            shard_id
            for shard_id, backend in store.shard_stores().items()
            if shard_id != victim
        ]
        for dataset_id in ("communities", "hub", "late"):
            copies = sum(
                1
                for shard_id in live
                if store.shard_stores()[shard_id].has_dataset(dataset_id)
            )
            assert copies == 2, (dataset_id, copies)
        for comparison, _ in completed:
            copies = sum(
                1
                for shard_id in live
                if store.shard_stores()[shard_id].has_result(comparison)
            )
            assert copies == 2, comparison
        lag = gateway.get_platform_stats()["shards"]["replication"]
        assert lag["failover_reads"] > 0

        # Maintenance jobs stream ordered, typed progress over SSE and are
        # cancellable through the comparisons surface.
        server = RestApiServer(gateway)
        server.start()
        try:
            request = urllib.request.Request(
                f"{server.url}/api/storage/replicate", data=b"{}", method="POST"
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 202
                replicate_id = json.loads(response.read())["job_id"]
            frames = []
            url = (
                f"{server.url}/api/comparisons/{replicate_id}/events"
                "?stream=sse&keepalive=0.5"
            )
            with urllib.request.urlopen(url, timeout=30) as response:
                for raw in response:
                    line = raw.decode("utf-8").strip()
                    if line.startswith("data: "):
                        frames.append(json.loads(line[len("data: "):]))
            assert frames[0]["type"] == "submitted"
            assert frames[-1]["type"] == "task_done"
            progress = [frame for frame in frames if frame["type"] == "progress"]
            assert progress, "replication must stream progress events"
            assert [frame["seq"] for frame in frames] == sorted(
                frame["seq"] for frame in frames
            )
            assert all(frame["kind"] == "replicate" for frame in progress)
            cancel = urllib.request.Request(
                f"{server.url}/api/comparisons/{replicate_id}", method="DELETE"
            )
            with urllib.request.urlopen(cancel, timeout=10) as response:
                body = json.loads(response.read())
            # The job already finished, so the request is refused — the
            # endpoint accepts maintenance job ids either way.
            assert body == {
                "comparison_id": replicate_id,
                "cancelled": False,
                "state": "completed",
            }
        finally:
            server.stop()

        # The file-backed ring shard recovers its slice bit-identical when a
        # fresh store opens the same directory (a node restart).
        file_backend = backends[-1]._inner
        reopened = FileBackedDataStore(file_shard_dir)
        assert reopened.list_datasets() == file_backend.list_datasets()
        for dataset_id in reopened.list_datasets():
            original = file_backend.fetch_dataset(dataset_id)
            recovered = reopened.fetch_dataset(dataset_id)
            assert recovered.edge_list() == original.edge_list()
            assert recovered.labels() == original.labels()
        assert reopened.list_results() == file_backend.list_results()
        for result_id in reopened.list_results()[:5]:
            assert reopened.get_result(result_id) == file_backend.get_result(result_id)

        gateway.shutdown()
