"""Read-repair and automatic-spill tests for the self-healing storage tier.

A failover read — one answered by a non-primary replica — is evidence that
one *specific* key is under-replicated.  Instead of waiting for the next
full :meth:`~repro.platform.replication.ReplicatedShardedDataStore.replicate`
scan, the store enqueues that key on a bounded, coalescing repair queue
and the gateway drains it as a background job: ``underreplicated``
converges to zero from the reads alone.  The second half covers the
automatic spill policy: with ``spill_budget_bytes`` set, the maintenance
loop keeps estimated resident graph bytes under the budget during a
sustained upload run.
"""

from __future__ import annotations

import time

import pytest

from faults import FlakyStore, fault_rounds
from repro.datasets.catalog import DatasetCatalog
from repro.graph.generators import cycle_graph, star_graph
from repro.platform.datastore import DataStore
from repro.platform.gateway import ApiGateway
from repro.platform.replication import ReplicatedShardedDataStore


def _build(num_shards=4, replicas=2, directory=None, **kwargs):
    """Fault-injectable shards; with ``directory`` they write result files."""
    backends = [
        FlakyStore(DataStore(directory / f"s{i}" if directory is not None else None))
        for i in range(num_shards)
    ]
    store = ReplicatedShardedDataStore(
        shards=backends, replicas=replicas, **kwargs
    )
    return backends, store


def _holders(store, dataset_id):
    return sorted(
        shard_id
        for shard_id, backend in store.shard_stores().items()
        if not backend.is_down and backend.has_dataset(dataset_id)
    )


def _wait_until(predicate, *, timeout=15.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestReadRepairQueue:
    def test_failover_read_repairs_the_single_key_without_a_full_scan(self):
        backends, store = _build()
        for index in range(6):
            store.store_dataset(f"ds-{index}", cycle_graph(3 + index))
        primary = store.replica_shards_for("ds-0")[0]
        store.shard_stores()[primary].drop_dataset("ds-0")  # lost copy
        assert len(_holders(store, "ds-0")) == 1

        graph = store.fetch_dataset("ds-0")  # served by the surviving replica
        assert graph.edge_list() == cycle_graph(3).edge_list()
        assert store.pending_read_repairs() == 1
        assert store.replication_stats()["failover_reads"] >= 1

        writes_before = sum(b.calls["store_dataset"] for b in backends)
        outcome = store.drain_read_repairs()
        assert outcome["drained"] == 1
        assert outcome["repaired"] >= 1
        assert outcome["pending"] == 0
        # Only the one key was re-copied: at most R writes (the lost copy
        # plus the version-convergence pass) — a full replicate scan could
        # have re-written copies for any of the 6 datasets.  The drain only
        # *recounts* the ring to refresh the underreplicated gauge; it
        # moves no other data.
        writes = sum(b.calls["store_dataset"] for b in backends) - writes_before
        assert 1 <= writes <= store.replicas
        assert len(_holders(store, "ds-0")) == 2
        # Convergence is visible without ever calling replicate().
        stats = store.replication_stats()
        assert stats["underreplicated"] == 0
        assert stats["read_repairs"] >= 1
        assert stats["repair_queue"] == 0

    def test_result_reads_enqueue_and_repair_too(self, tmp_path):
        backends, store = _build(directory=tmp_path)
        store.put_result("res", {"value": 7})
        primary = store.replica_shards_for("res")[0]
        store.shard_stores()[primary].drop_result("res")
        assert store.get_result("res") == {"value": 7}
        assert store.pending_read_repairs() == 1
        store.drain_read_repairs()
        holders = [
            shard_id
            for shard_id, backend in store.shard_stores().items()
            if backend.has_result("res")
        ]
        assert len(holders) == 2

    def test_duplicate_failover_reads_coalesce_to_one_queue_entry(self):
        backends, store = _build()
        store.store_dataset("ds", cycle_graph(4))
        primary = store.replica_shards_for("ds")[0]
        store.shard_stores()[primary].drop_dataset("ds")
        for _ in range(fault_rounds(5)):
            store.fetch_dataset("ds")
        assert store.pending_read_repairs() == 1
        assert store.drain_read_repairs()["drained"] == 1

    def test_queue_is_bounded_and_drops_are_counted(self):
        backends, store = _build(read_repair_queue_limit=2)
        for index in range(4):
            dataset_id = f"ds-{index}"
            store.store_dataset(dataset_id, cycle_graph(3 + index))
            primary = store.replica_shards_for(dataset_id)[0]
            store.shard_stores()[primary].drop_dataset(dataset_id)
            store.fetch_dataset(dataset_id)
        assert store.pending_read_repairs() == 2
        assert store.replication_stats()["repair_dropped"] == 2
        outcome = store.drain_read_repairs()
        assert outcome["drained"] == 2
        # The dropped keys stay under-replicated until the next full scan —
        # which the bounded queue deliberately defers to.
        assert store.replicate()["underreplicated"] == 0

    def test_drain_on_an_empty_queue_is_a_cheap_no_op(self):
        backends, store = _build()
        store.store_dataset("ds", cycle_graph(4))
        outcome = store.drain_read_repairs()
        assert outcome == {"repaired": 0, "drained": 0, "pending": 0}
        assert store.replication_stats()["read_repairs"] == 0


class TestGatewayAutoRepair:
    @pytest.fixture
    def catalog(self, community_graph):
        catalog = DatasetCatalog()
        catalog.register_graph("toy", community_graph, description="communities")
        return catalog

    def test_failover_read_launches_the_repair_job_automatically(self, catalog):
        backends, store = _build()
        with ApiGateway(
            catalog=catalog, datastore=store, probe_interval_seconds=0
        ) as gateway:
            store.store_dataset("ds", cycle_graph(4))
            primary = store.replica_shards_for("ds")[0]
            store.shard_stores()[primary].drop_dataset("ds")
            # The failover read kicks the gateway's repair launcher; no
            # polling loop and no explicit maintenance call is involved.
            store.fetch_dataset("ds")
            assert _wait_until(
                lambda: store.pending_read_repairs() == 0
                and len(_holders(store, "ds")) == 2
            )
            assert store.replication_stats()["underreplicated"] == 0
            descriptions = [
                row["description"] for row in gateway.list_comparisons()
            ]
            assert "storage read-repair" in descriptions

    def test_manual_read_repair_job_is_observable(self, catalog):
        backends, store = _build()
        store.set_repair_launcher(None)  # force the manual path
        with ApiGateway(
            catalog=catalog, datastore=store, probe_interval_seconds=0
        ) as gateway:
            store.set_repair_launcher(None)  # the gateway re-wired it
            store.store_dataset("ds", cycle_graph(4))
            primary = store.replica_shards_for("ds")[0]
            store.shard_stores()[primary].drop_dataset("ds")
            store.fetch_dataset("ds")
            assert store.pending_read_repairs() == 1
            job_id = gateway.read_repair_storage(wait=True)
            assert gateway.get_status(job_id).state.value == "completed"
            kinds = [event["type"] for event in gateway.get_events(job_id)]
            assert "progress" in kinds
            assert len(_holders(store, "ds")) == 2


class TestAutomaticSpill:
    @pytest.fixture
    def catalog(self):
        catalog = DatasetCatalog()
        for index in range(6):
            catalog.register_graph(
                f"g{index}",
                star_graph(40 + index, reciprocal=True),
                description="spill stress",
            )
        return catalog

    def test_resident_bytes_stay_under_budget_during_sustained_uploads(
        self, catalog, tmp_path
    ):
        budget = 15_000  # fits ~2 of the ~6 KB replicated graphs
        with ApiGateway(
            catalog=catalog,
            shards=4,
            replicas=2,
            spill_dir=tmp_path,
            spill_budget_bytes=budget,
            probe_interval_seconds=0.02,
        ) as gateway:
            store = gateway.datastore
            for index in range(6):
                gateway.run_queries(
                    [{"dataset_id": f"g{index}", "algorithm": "pagerank"}],
                    synchronous=True,
                )
                # Each settled work unit runs the maintenance hook; the
                # budget overshoot reconverges before the next upload.
                assert _wait_until(
                    lambda: store.resident_dataset_bytes() <= budget
                ), f"resident bytes stuck over budget after upload {index}"
            stats = gateway.get_platform_stats()["shards"]["spill"]
            assert stats["spilled_datasets"] >= 1
            assert stats["resident_bytes"] <= budget
            # Spilled datasets still serve reads through the file tier.
            for index in range(6):
                assert store.fetch_dataset(f"g{index}") is not None

    def test_budget_requires_a_spill_tier_and_rejects_negatives(self, tmp_path):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            ApiGateway(shards=3, replicas=2, spill_budget_bytes=1024)
        with pytest.raises(InvalidParameterError):
            ApiGateway(
                shards=3,
                replicas=2,
                spill_dir=tmp_path,
                spill_budget_bytes=-1,
            )
