"""Tests for the replicated, file-backed storage tier.

Covers the :meth:`~repro.platform.sharding.HashRing.successors` placement
properties the replicated store is built on (R distinct shards, deterministic
across processes, bounded movement on join/leave), the
:class:`~repro.platform.datastore.FileBackedDataStore` restart-recovery
contract, the :class:`~repro.platform.replication.ReplicatedShardedDataStore`
surface (quorum writes, failover reads, spill, repair/rebalance as
cancellable jobs) — exercised against fault-injected backends from the
shared :class:`conftest.FlakyStore` harness — and the scheduler's bounded
terminal task table with permalinks served from result files.  A result
copy is a file, so every ring-result test runs on file-backed shards.
"""

from __future__ import annotations

import string
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faults import DownShard, FlakyStore, stale_primary
from repro.algorithms.registry import run_batch
from repro.datasets.catalog import DatasetCatalog
from repro.exceptions import (
    DeadlineExceededError,
    InvalidParameterError,
    StorageError,
    TaskNotFoundError,
)
from repro.graph.generators import cycle_graph, reciprocal_communities_graph, star_graph
from repro.platform.datastore import DataStore, FileBackedDataStore
from repro.platform.gateway import ApiGateway
from repro.platform.jobs import JobRecord, JobState
from repro.platform.replication import ReplicatedShardedDataStore
from repro.platform.resilience import Deadline, deadline_scope
from repro.platform.sharding import HashRing

KEYS = [f"dataset-{index}" for index in range(600)]

shard_sets = st.sets(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
    min_size=3,
    max_size=12,
)


def _holders(store: ReplicatedShardedDataStore, dataset_id: str):
    return sorted(
        shard_id
        for shard_id, backend in store.shard_stores().items()
        if not getattr(backend, "is_down", False) and backend.has_dataset(dataset_id)
    )


def _result_holders(store: ReplicatedShardedDataStore, result_id: str):
    return sorted(
        shard_id
        for shard_id, backend in store.shard_stores().items()
        if not getattr(backend, "is_down", False) and backend.has_result(result_id)
    )


class TestSuccessorPlacementProperties:
    @settings(max_examples=50, deadline=None)
    @given(shards=shard_sets, replicas=st.integers(min_value=2, max_value=3))
    def test_r_successors_are_r_distinct_shards(self, shards, replicas):
        """Any topology with >= R shards yields exactly R distinct successors."""
        ring = HashRing(shards)
        for key in KEYS[:50]:
            successors = ring.successors(key, replicas)
            assert len(successors) == min(replicas, len(shards))
            assert len(set(successors)) == len(successors)
            assert successors[0] == ring.assign(key)

    @settings(max_examples=25, deadline=None)
    @given(shards=shard_sets)
    def test_placement_is_deterministic_across_instances(self, shards):
        """Two rings over the same shard set agree on every replica set."""
        ordered = sorted(shards)
        first = HashRing(ordered)
        second = HashRing(reversed(ordered))  # insertion order must not matter
        for key in KEYS[:50]:
            assert first.successors(key, 2) == second.successors(key, 2)

    def test_fewer_shards_than_replicas_returns_every_shard(self):
        ring = HashRing(["a", "b"])
        for key in KEYS[:20]:
            assert sorted(ring.successors(key, 3)) == ["a", "b"]

    def test_join_moves_only_a_bounded_interval_with_replicas(self):
        """A join changes few replica sets, and only by inserting the joiner."""
        ring = HashRing([f"shard-{i}" for i in range(8)])
        before = {key: ring.successors(key, 2) for key in KEYS}
        ring.add_shard("joiner")
        changed = 0
        for key in KEYS:
            after = ring.successors(key, 2)
            if after == before[key]:
                continue
            changed += 1
            # The survivors keep their relative order and the only new
            # member is the joiner: a join never reshuffles other shards.
            assert set(after) - set(before[key]) <= {"joiner"}
            kept = [shard for shard in after if shard != "joiner"]
            assert kept == [s for s in before[key] if s in set(kept)]
        # Expected moved fraction is ~R/N = 2/9; allow generous slack.
        assert changed / len(KEYS) < 2 * (2 / 9)

    def test_leave_keeps_unaffected_replica_sets_identical(self):
        ring = HashRing([f"shard-{i}" for i in range(8)])
        before = {key: ring.successors(key, 2) for key in KEYS}
        ring.remove_shard("shard-3")
        for key in KEYS:
            if "shard-3" not in before[key]:
                assert ring.successors(key, 2) == before[key]


class TestFileBackedDataStore:
    def test_round_trip_is_bit_identical(self, tmp_path):
        store = FileBackedDataStore(tmp_path)
        graph = reciprocal_communities_graph(3, 5, seed=9, name="communities")
        store.store_dataset("ds", graph)
        restored, version = store.fetch_dataset_with_version("ds")
        assert version == 1
        assert restored.name == graph.name
        assert restored.labels() == graph.labels()
        assert restored.edge_list() == graph.edge_list()

    def test_restart_recovers_datasets_results_and_artifacts(self, tmp_path):
        store = FileBackedDataStore(tmp_path)
        graph = star_graph(7, reciprocal=True)
        store.store_dataset("ds", graph)
        compiled, _ = store.fetch_compiled_with_version("ds")
        csr = compiled.to_csr()
        store.put_result("result-1", {"rows": [1, 2, 3], "nested": {"a": "b"}})

        recovered = FileBackedDataStore(tmp_path)
        graph_back, version = recovered.fetch_dataset_with_version("ds")
        assert version == 1
        assert graph_back.edge_list() == graph.edge_list()
        assert graph_back.labels() == graph.labels()
        compiled_back, _ = recovered.fetch_compiled_with_version("ds")
        # The persisted artifact pre-seeds the CSR (no reconversion) and is
        # structurally identical to the one compiled before the restart.
        assert compiled_back.csr_ready
        assert compiled_back.to_csr() == csr
        assert recovered.get_result("result-1") == {
            "rows": [1, 2, 3], "nested": {"a": "b"}
        }
        assert recovered.occupancy()["datasets"] == 1

    def test_versions_stay_monotonic_across_drop_and_restart(self, tmp_path):
        store = FileBackedDataStore(tmp_path)
        graph = cycle_graph(4)
        store.store_dataset("ds", graph)
        store.drop_dataset("ds")
        assert store.dataset_version("ds") == 2
        restarted = FileBackedDataStore(tmp_path)
        assert not restarted.has_dataset("ds")
        restarted.store_dataset("ds", graph)
        # A version minted before the drop can never collide after a restart.
        assert restarted.dataset_version("ds") == 3

    def test_reserved_looking_dataset_ids_round_trip(self, tmp_path):
        """No user-chosen id may collide with the store's own index files."""
        store = FileBackedDataStore(tmp_path)
        graph = cycle_graph(4)
        for dataset_id in ("_versions", "dataset_versions", "..", "a/b c%20d"):
            store.store_dataset(dataset_id, graph)
        recovered = FileBackedDataStore(tmp_path)
        assert recovered.list_datasets() == sorted(
            ["_versions", "dataset_versions", "..", "a/b c%20d"]
        )
        for dataset_id in recovered.list_datasets():
            restored, version = recovered.fetch_dataset_with_version(dataset_id)
            assert version == 1
            assert restored.edge_list() == graph.edge_list()

    def test_replace_misses_and_bumps(self, tmp_path):
        store = FileBackedDataStore(tmp_path)
        store.store_dataset("ds", cycle_graph(4))
        first, v1 = store.fetch_compiled_with_version("ds")
        store.store_dataset("ds", star_graph(5))
        second, v2 = store.fetch_compiled_with_version("ds")
        assert v2 == v1 + 1
        assert second.to_csr().number_of_nodes() == star_graph(5).number_of_nodes()
        assert second.content_digest() != first.content_digest()
        # The cache half: after the replacement the next read misses and
        # ranks the new graph.
        catalog = DatasetCatalog()
        catalog.register_graph("ds", cycle_graph(4))
        query = [{"dataset_id": "ds", "algorithm": "personalized-pagerank", "source": "#0"}]
        with ApiGateway(catalog=catalog, datastore=store, num_workers=1) as gateway:
            gateway.run_queries(query, synchronous=True)
            replacement = star_graph(6)
            store.store_dataset("ds", replacement)
            comparison_id = gateway.run_queries(query, synchronous=True)
            events = [event.type for event in gateway.get_task(comparison_id).events()]
            [served] = gateway.get_rankings(comparison_id)
        assert "query_cached" not in events
        [expected] = run_batch("personalized-pagerank", replacement, sources=["#0"])
        assert np.array_equal(served.scores, expected.scores)
        assert list(served) == list(expected)


class TestReplicatedWrites:
    def test_dataset_lands_on_r_distinct_successors_with_equal_versions(self):
        store = ReplicatedShardedDataStore(num_shards=5, replicas=3)
        graph = star_graph(5)
        store.store_dataset("ds", graph)
        holders = _holders(store, "ds")
        assert holders == sorted(store.replica_shards_for("ds"))
        assert len(holders) == 3
        versions = {
            store.shard_stores()[shard_id].dataset_version("ds")
            for shard_id in holders
        }
        assert versions == {1}

    def test_write_quorum_failure_raises_and_does_not_ack(self):
        backends = [FlakyStore(DataStore()), FlakyStore(DataStore())]
        store = ReplicatedShardedDataStore(shards=backends, replicas=2)
        backends[0].go_down()
        # Two shards, R=2, quorum=2: with one shard down only one ack is
        # reachable, so the write must fail instead of acking a single copy.
        with pytest.raises(StorageError):
            store.store_dataset("ds", cycle_graph(3))
        with pytest.raises(StorageError):
            store.put_result("r", {"x": 1})

    def test_sloppy_handoff_keeps_two_live_copies(self):
        store = ReplicatedShardedDataStore(num_shards=4, replicas=2)
        primary = store.replica_shards_for("ds")[0]
        store.mark_down(primary)
        store.store_dataset("ds", cycle_graph(3))
        holders = _holders(store, "ds")
        assert len(holders) == 2
        assert primary not in holders
        assert store.replication_stats()["degraded_writes"] == 0

    def test_result_survives_the_loss_of_any_single_holder(self, tmp_path):
        backends = [FlakyStore(FileBackedDataStore(tmp_path / f"s{i}")) for i in range(4)]
        store = ReplicatedShardedDataStore(shards=backends, replicas=2)
        store.put_result("res", {"value": 42})
        holders = _result_holders(store, "res")
        assert len(holders) == 2
        for victim in holders:
            index = int(victim.split("-")[1])
            backends[index].go_down()
            assert store.get_result("res") == {"value": 42}
            backends[index].come_up()


class TestFailoverReads:
    def test_transient_primary_fault_is_absorbed_by_in_place_retry(self):
        backends = [FlakyStore(DataStore()) for _ in range(4)]
        store = ReplicatedShardedDataStore(shards=backends, replicas=2)
        graph = star_graph(6)
        store.store_dataset("ds", graph)
        primary = store.replica_shards_for("ds")[0]
        flaky = backends[int(primary.split("-")[1])]
        # One transient blip: the shared retry policy re-sends to the same
        # source, so the primary still answers and no failover happens.
        # Every dataset read routes through the versioned fetch now.
        flaky.fail_on("fetch_dataset_with_version", times=1)
        assert store.fetch_dataset("ds").edge_list() == graph.edge_list()
        stats = store.replication_stats()
        assert stats["failover_reads"] == 0
        assert stats["retries"]["retries_spent"] >= 1

    def test_read_fails_over_when_the_primary_errors(self):
        backends = [FlakyStore(DataStore()) for _ in range(4)]
        store = ReplicatedShardedDataStore(shards=backends, replicas=2)
        graph = star_graph(6)
        store.store_dataset("ds", graph)
        primary = store.replica_shards_for("ds")[0]
        flaky = backends[int(primary.split("-")[1])]
        # Outlast the per-source retry attempts so the read fails over.
        flaky.fail_on(
            "fetch_dataset_with_version", times=store.retry_policy.max_attempts
        )
        assert store.fetch_dataset("ds").edge_list() == graph.edge_list()
        assert store.replication_stats()["failover_reads"] >= 1
        assert store.replication_stats()["shard_errors"].get(primary, 0) >= 1
        # The fault rule is exhausted: the primary serves again.
        assert store.fetch_dataset("ds").edge_list() == graph.edge_list()

    def test_read_fails_over_when_the_primary_is_marked_down(self):
        store = ReplicatedShardedDataStore(num_shards=4, replicas=2)
        graph = cycle_graph(5)
        store.store_dataset("ds", graph)
        primary = store.replica_shards_for("ds")[0]
        store.mark_down(primary)
        assert store.fetch_dataset("ds").edge_list() == graph.edge_list()
        assert store.has_dataset("ds")
        stats = store.shard_stats()
        assert stats["per_shard"][primary]["marked_down"] is True
        assert primary in stats["replication"]["marked_down"]
        store.mark_up(primary)
        assert store.shard_stats()["replication"]["marked_down"] == []


class TestSpillTier:
    def test_spill_demotes_the_coldest_and_serves_through(self, tmp_path):
        store = ReplicatedShardedDataStore(
            num_shards=3, replicas=2, spill_dir=str(tmp_path)
        )
        graphs = {f"ds-{i}": star_graph(4 + i) for i in range(3)}
        for dataset_id, graph in graphs.items():
            store.store_dataset(dataset_id, graph)
        # Touch two of them so ds-1 is the coldest.
        store.fetch_dataset("ds-0")
        store.fetch_dataset("ds-2")
        spilled = store.spill(max_resident=2)
        assert spilled == ["ds-1"]
        assert store.spill_store.has_dataset("ds-1")
        assert _holders(store, "ds-1") == []
        # Reads fail over to the file tier; listings still include it.
        assert store.fetch_dataset("ds-1").edge_list() == graphs["ds-1"].edge_list()
        assert "ds-1" in store.list_datasets()
        compiled, version = store.fetch_compiled_with_version("ds-1")
        assert version == store.spill_store.dataset_version("ds-1")
        assert store.spill_stats()["spilled_datasets"] == 1
        # A re-upload promotes the dataset back onto the memory ring.
        store.store_dataset("ds-1", graphs["ds-1"])
        assert len(_holders(store, "ds-1")) == 2
        assert not store.spill_store.has_dataset("ds-1")

    def test_spilled_data_survives_a_restart(self, tmp_path):
        store = ReplicatedShardedDataStore(
            num_shards=3, replicas=2, spill_dir=str(tmp_path)
        )
        graph = reciprocal_communities_graph(2, 4, seed=5)
        store.store_dataset("cold", graph)
        store.spill(dataset_ids=["cold"])
        # A fresh store over the same directory (new process) recovers it.
        rebooted = ReplicatedShardedDataStore(
            num_shards=3, replicas=2, spill_dir=str(tmp_path)
        )
        recovered = rebooted.fetch_dataset("cold")
        assert recovered.edge_list() == graph.edge_list()
        assert recovered.labels() == graph.labels()

    def test_spill_validation(self, tmp_path):
        bare = ReplicatedShardedDataStore(num_shards=3, replicas=2)
        with pytest.raises(InvalidParameterError):
            bare.spill(max_resident=1)
        store = ReplicatedShardedDataStore(
            num_shards=3, replicas=2, spill_dir=str(tmp_path)
        )
        with pytest.raises(InvalidParameterError):
            store.spill()
        with pytest.raises(InvalidParameterError):
            store.spill(max_resident=1, dataset_ids=["x"])


class TestMaintenanceJobs:
    def test_replicate_repairs_copies_after_an_outage(self, tmp_path):
        backends = [DownShard(FileBackedDataStore(tmp_path / f"s{i}")) for i in range(4)]
        store = ReplicatedShardedDataStore(shards=backends, replicas=2)
        graphs = {f"ds-{i}": cycle_graph(3 + i) for i in range(4)}
        for dataset_id, graph in graphs.items():
            store.store_dataset(dataset_id, graph)
        store.put_result("res", {"x": 1})
        # Take one shard down: reads fail over, and the repair re-replicates
        # the lost copies onto the surviving live successors.
        victim = _holders(store, "ds-0")[0]
        backends[int(victim.split("-")[1])].go_down()
        store.mark_down(victim)
        outcome = store.replicate()
        assert outcome["datasets_repaired"] > 0  # the down shard's copies
        assert outcome["underreplicated"] == 0  # ...restored among survivors
        for dataset_id in graphs:
            assert len(_holders(store, dataset_id)) == 2
        # The shard comes back empty (a replaced node): a rebalance restores
        # canonical placement with R copies of everything.
        index = int(victim.split("-")[1])
        backends[index] = DownShard(FileBackedDataStore(tmp_path / "replacement"))
        store._backends[victim] = backends[index]  # swap in the replacement
        store.mark_up(victim)
        store.rebalance()
        for dataset_id, graph in graphs.items():
            holders = _holders(store, dataset_id)
            assert len(holders) == 2
            assert sorted(holders) == sorted(store.replica_shards_for(dataset_id))
            for shard_id in holders:
                copy = store.shard_stores()[shard_id].fetch_dataset(dataset_id)
                assert copy.edge_list() == graph.edge_list()
        assert len(_result_holders(store, "res")) == 2
        outcome = store.replicate()
        assert outcome["underreplicated"] == 0
        assert outcome["datasets_repaired"] == 0  # rebalance left nothing to fix

    def test_repair_converges_replica_versions_when_a_counter_ran_ahead(self):
        """A target whose counter moved past the authoritative version must
        not end up holding a *different* version than its siblings — and the
        repair must converge instead of re-copying on every scan."""
        store = ReplicatedShardedDataStore(num_shards=3, replicas=2)
        graph = cycle_graph(4)
        store.store_dataset("ds", graph)
        targets = store.replica_shards_for("ds")
        stray = store.shard_stores()[targets[1]]
        # Simulate drop churn on one replica: its copy is gone but its
        # counter ran ahead of the authoritative version.
        for _ in range(3):
            stray.drop_dataset("ds")
        assert stray.dataset_version("ds") > store.shard_stores()[
            targets[0]
        ].dataset_version("ds")
        outcome = store.replicate()
        assert outcome["datasets_repaired"] > 0
        versions = {
            shard_id: store.shard_stores()[shard_id].dataset_version("ds")
            for shard_id in targets
        }
        assert len(set(versions.values())) == 1, versions  # replicas agree
        # Converged: a second scan has nothing left to repair.
        assert store.replicate()["datasets_repaired"] == 0

    def test_jobs_emit_ordered_progress_and_honour_cancellation(self):
        store = ReplicatedShardedDataStore(num_shards=4, replicas=2)
        for index in range(5):
            store.store_dataset(f"ds-{index}", cycle_graph(3))
        job = JobRecord("maintenance", 0, description="storage replicate")
        store.replicate(job=job)
        events = job.events()
        assert events, "replicate must report progress"
        assert [event.seq for event in events] == list(range(1, len(events) + 1))
        assert all(event.type == "progress" for event in events)
        assert events[-1].payload["completed"] == events[-1].payload["total"]
        assert job.state is JobState.RUNNING  # the caller finishes the job
        # Progress folds into the projected counters, so listings show real
        # x/y progress for storage jobs instead of 0/0.
        summary = job.summary()
        assert summary["total_queries"] == events[-1].payload["total"] > 0
        assert summary["completed_queries"] == summary["total_queries"]

        # Cancellation at the first item boundary stops the migration early.
        cancel_job = JobRecord("maintenance-2", 0)
        cancel_job.subscribe(
            lambda event: event.type == "progress" and cancel_job.request_cancel()
        )
        store.replicate(job=cancel_job)
        progress = [e for e in cancel_job.events() if e.type == "progress"]
        assert len(progress) == 1
        assert cancel_job.cancel_requested

    def test_rebalance_restores_placement_and_copies_after_churn(self):
        store = ReplicatedShardedDataStore(num_shards=3, replicas=2)
        graphs = {f"ds-{i}": star_graph(3 + i) for i in range(6)}
        for dataset_id, graph in graphs.items():
            store.store_dataset(dataset_id, graph)
        store.add_shard()
        store.rebalance()
        for dataset_id in graphs:
            assert sorted(_holders(store, dataset_id)) == sorted(
                store.replica_shards_for(dataset_id)
            )
        removed = store.remove_shard("shard-0")
        assert isinstance(removed, list)
        for dataset_id, graph in graphs.items():
            holders = _holders(store, dataset_id)
            assert len(holders) == 2
            assert store.fetch_dataset(dataset_id).edge_list() == graph.edge_list()

    def test_remove_shard_refuses_to_drop_below_replica_count(self):
        store = ReplicatedShardedDataStore(num_shards=2, replicas=2)
        with pytest.raises(InvalidParameterError):
            store.remove_shard("shard-0")


class TestGatewayIntegration:
    @pytest.fixture
    def catalog(self, community_graph):
        catalog = DatasetCatalog()
        catalog.register_graph("toy", community_graph, description="communities")
        return catalog

    def test_gateway_builds_a_replicated_store(self, catalog, tmp_path):
        with ApiGateway(
            catalog=catalog, shards=4, replicas=2, spill_dir=tmp_path
        ) as gateway:
            assert isinstance(gateway.datastore, ReplicatedShardedDataStore)
            assert gateway.datastore.replicas == 2
            assert gateway.datastore.num_shards == 4
            comparison = gateway.run_queries(
                [{"dataset_id": "toy", "algorithm": "pagerank"}], synchronous=True
            )
            assert gateway.get_rankings(comparison)
            stats = gateway.get_platform_stats()
            assert stats["shards"]["replication"]["replicas"] == 2
            assert stats["shards"]["spill"]["enabled"] is True

    def test_gateway_storage_jobs_run_on_the_registry(self, catalog, tmp_path):
        with ApiGateway(
            catalog=catalog, shards=3, replicas=2, spill_dir=tmp_path
        ) as gateway:
            gateway.run_queries(
                [{"dataset_id": "toy", "algorithm": "pagerank"}], synchronous=True
            )
            job_id = gateway.replicate_storage(wait=True)
            events = gateway.get_events(job_id)
            kinds = [event["type"] for event in events]
            assert kinds[0] == "submitted"
            assert kinds[-1] == "task_done"
            assert "progress" in kinds
            assert gateway.get_status(job_id).state.value == "completed"
            listing = {
                row["comparison_id"]: row for row in gateway.list_comparisons()
            }
            assert listing[job_id]["description"] == "storage replicate"

            spill_id = gateway.spill_storage(max_resident=0, wait=True)
            assert gateway.get_status(spill_id).state.value == "completed"
            assert (
                gateway.get_platform_stats()["shards"]["spill"]["spilled_datasets"]
                >= 1
            )
            rebalance_id = gateway.rebalance_storage(wait=True)
            assert gateway.get_status(rebalance_id).state.value == "completed"
            # Cancelling a finished maintenance job is refused, not an error.
            outcome = gateway.cancel_comparison(job_id)
            assert outcome["cancelled"] is False

    def test_storage_jobs_require_the_right_topology(self, catalog, tmp_path):
        # An explicit plain datastore, so the REPRO_TEST_SHARDS/REPLICAS
        # conftest override cannot turn this gateway into a sharded one.
        with ApiGateway(catalog=catalog, datastore=DataStore()) as gateway:
            with pytest.raises(InvalidParameterError):
                gateway.replicate_storage()
            with pytest.raises(InvalidParameterError):
                gateway.rebalance_storage()
        with ApiGateway(catalog=catalog, shards=3, replicas=2) as gateway:
            with pytest.raises(InvalidParameterError):
                gateway.spill_storage(max_resident=1)  # no spill tier
        with ApiGateway(
            catalog=catalog, shards=3, replicas=2, spill_dir=tmp_path
        ) as gateway:
            with pytest.raises(InvalidParameterError):
                gateway.spill_storage()  # neither policy
            with pytest.raises(InvalidParameterError):
                gateway.spill_storage(max_resident=1, dataset_ids=["toy"])


class TestBoundedTaskTable:
    @pytest.fixture
    def catalog(self, community_graph):
        catalog = DatasetCatalog()
        catalog.register_graph("toy", community_graph, description="communities")
        return catalog

    def test_terminal_tasks_age_out_and_permalinks_still_resolve(
        self, catalog, disk_datastore
    ):
        with ApiGateway(
            catalog=catalog, datastore=disk_datastore, max_finished_tasks=2
        ) as gateway:
            comparisons = [
                gateway.run_queries(
                    [
                        {
                            "dataset_id": "toy",
                            "algorithm": "personalized-pagerank",
                            "source": f"c{index % 4}-n{index % 8}",
                        }
                    ],
                    synchronous=True,
                )
                for index in range(5)
            ]
            expected = {
                comparison: gateway.get_rankings(comparison)[0].to_dict()
                for comparison in comparisons
            }
            # The registry is bounded: eviction runs as records finish, so at
            # most max_finished_tasks + the newest submission stay hot — it
            # can never grow with lifetime submission count.
            assert len(gateway.scheduler.jobs.list_records()) <= 3
            table_stats = gateway.get_platform_stats()["jobs"]
            assert table_stats["jobs"] <= 3
            assert table_stats["evicted"] >= 2
            assert table_stats["max_finished_jobs"] == 2

            # Simulate a long-lived server where the registry aged every
            # record out, so every lookup goes through the datastore.
            gateway.scheduler.jobs._jobs.clear()

            for comparison in comparisons:
                progress = gateway.get_status(comparison)
                assert progress.state.value == "completed"
                assert progress.completed_queries == progress.total_queries == 1
                rankings = gateway.get_rankings(comparison)
                assert [r.to_dict() for r in rankings] == [expected[comparison]]
                table = gateway.get_comparison_table(comparison, k=3)
                assert table.columns == ["Pers. PageRank"]
                assert table.rows

    def test_evicted_failed_tasks_expire_for_real(self, catalog):
        with ApiGateway(catalog=catalog, max_finished_tasks=1) as gateway:
            failed = gateway.run_queries(
                [
                    {
                        "dataset_id": "toy",
                        "algorithm": "personalized-pagerank",
                        "source": "no-such-node",
                    }
                ],
                synchronous=True,
            )
            for _ in range(2):  # push the failed task out of the table
                gateway.run_queries(
                    [{"dataset_id": "toy", "algorithm": "pagerank"}],
                    synchronous=True,
                )
            gateway.scheduler.jobs._jobs.clear()
            # A failed task stored no result payload: once evicted, its
            # permalink genuinely expires instead of resolving to junk.
            with pytest.raises(TaskNotFoundError):
                gateway.get_status(failed)

    def test_active_tasks_are_never_evicted(self, catalog):
        with ApiGateway(catalog=catalog, max_finished_tasks=1) as gateway:
            ids = [
                gateway.run_queries(
                    [{"dataset_id": "toy", "algorithm": "pagerank"}],
                    synchronous=True,
                )
                for _ in range(3)
            ]
            # The newest terminal task survives in the table.
            assert gateway.scheduler.get_task(ids[-1]).job_id == ids[-1]


# --------------------------------------------------------------------------- #
# read-path version quorum
# --------------------------------------------------------------------------- #
class TestQuorumReads:
    """Digest-first quorum reads: a known-stale replica is never served."""

    def _stale_primary_store(self):
        backends = [FlakyStore(DataStore()) for _ in range(4)]
        store = ReplicatedShardedDataStore(shards=backends, replicas=2)
        old = cycle_graph(4)
        fresh = star_graph(6)
        store.store_dataset("ds", old)
        primary = stale_primary(store, "ds", fresh)
        return store, primary, old, fresh

    def test_quorum_read_never_serves_below_the_version_floor(self):
        store, primary, old, fresh = self._stale_primary_store()
        graph, version = store.fetch_dataset_with_version("ds")
        assert version == 2
        assert graph.edge_list() == fresh.edge_list()
        stats = store.replication_stats()
        assert stats["digest_reads"] >= 1
        assert stats["stale_reads_prevented"] >= 1
        assert stats["version_conflicts_resolved"] >= 1

    def test_quorum_covers_the_unversioned_and_compiled_surfaces(self):
        store, primary, old, fresh = self._stale_primary_store()
        # Plain fetch_dataset and the compiled-artifact path route through
        # the versioned fetch, so the floor check covers them too.
        assert store.fetch_dataset("ds").edge_list() == fresh.edge_list()
        _, compiled_version = store.fetch_compiled_with_version("ds")
        assert compiled_version == 2
        assert store.replication_stats()["stale_reads_prevented"] >= 1

    def test_quorum_divergence_is_flagged_and_repaired(self):
        store, primary, old, fresh = self._stale_primary_store()
        store.fetch_dataset("ds")
        assert store.pending_read_repairs() >= 1
        store.drain_read_repairs()
        backend = store.shard_stores()[primary]
        assert backend.dataset_version("ds") == 2
        assert backend.fetch_dataset("ds").edge_list() == fresh.edge_list()

    def test_quorum_refuses_when_only_stale_copies_are_reachable(self):
        store, primary, old, fresh = self._stale_primary_store()
        for shard_id in _holders(store, "ds"):
            if shard_id != primary:
                store.shard_stores()[shard_id].go_down()
        # Every reachable copy sits below the floor: refusing beats lying.
        with pytest.raises(StorageError):
            store.fetch_dataset_with_version("ds")
        assert store.replication_stats()["stale_reads_prevented"] >= 1

    def test_a_holder_that_lost_its_copy_does_not_outvote_the_replica(self):
        store = ReplicatedShardedDataStore(num_shards=4, replicas=2)
        graph = cycle_graph(5)
        store.store_dataset("ds", graph)
        primary = store.replica_shards_for("ds")[0]
        # Dropping a copy raises the backend's upload counter: the primary
        # now reports a version one above the copy it no longer holds.
        store.shard_stores()[primary].drop_dataset("ds")
        served, version = store.fetch_dataset_with_version("ds")
        assert version == 1
        assert served.edge_list() == graph.edge_list()
        stats = store.replication_stats()
        assert stats["digest_reads"] >= 1
        assert stats["stale_reads_prevented"] == 0

    def test_a_spilled_dataset_reads_at_its_spilled_version(self, tmp_path):
        store = ReplicatedShardedDataStore(
            num_shards=3, replicas=2, spill_dir=str(tmp_path)
        )
        graph = star_graph(5)
        store.store_dataset("cold", cycle_graph(3))
        store.store_dataset("cold", graph)
        store.spill(dataset_ids=["cold"])
        assert _holders(store, "cold") == []
        # Every ring holder dropped its copy on the spill, leaving only the
        # raised counter behind; the spill tier's copy is the real one.
        served, version = store.fetch_dataset_with_version("cold")
        assert version == store.spill_store.dataset_version("cold")
        assert served.edge_list() == graph.edge_list()
        assert store.replication_stats()["stale_reads_prevented"] == 0

    def test_digest_answers_leave_the_data_path_streak_alone(self):
        backends = [FlakyStore(DataStore()) for _ in range(4)]
        store = ReplicatedShardedDataStore(
            shards=backends, replicas=2, probe_failure_threshold=5
        )
        store.store_dataset("ds", cycle_graph(4))
        primary = store.replica_shards_for("ds")[0]
        store.shard_stores()[primary].fail_on(
            "fetch_dataset_with_version", times=None
        )
        # The primary answers every digest poll but fails every data read:
        # each read adds one to its streak, and no digest answer resets it.
        for _ in range(2):
            assert store.fetch_dataset("ds") is not None
        assert store.health_stats()["consecutive_failures"] == {primary: 2}
        assert store.marked_down() == []


class TestDeadlineAttribution:
    """A caller's expired clock must never feed shard health streaks."""

    def test_expired_deadline_against_a_healthy_ring_moves_no_streaks(self):
        store = ReplicatedShardedDataStore(num_shards=4, replicas=2)
        store.store_dataset("ds", cycle_graph(4))
        expired = Deadline.from_ms(1)
        time.sleep(0.005)
        with deadline_scope(expired):
            with pytest.raises(DeadlineExceededError):
                store.fetch_dataset("ds")
        # The first digest hop is always consulted; the expiry raised on the
        # hop after it is the caller's clock, not a shard fault — zero
        # streak movement and no shard taken down on the healthy ring.
        health = store.health_stats()
        assert health["consecutive_failures"] == {}
        assert health["auto_downs"] == 0
        assert store.replication_stats()["shard_errors"] == {}

    def test_mid_attempt_deadline_error_is_reraised_not_attributed(self):
        backends = [FlakyStore(DataStore()) for _ in range(4)]
        store = ReplicatedShardedDataStore(shards=backends, replicas=2)
        store.store_dataset("ds", cycle_graph(4))
        primary = store.replica_shards_for("ds")[0]
        store.shard_stores()[primary].fail_on(
            "fetch_dataset_with_version",
            times=1,
            error=DeadlineExceededError("caller clock ran out mid-attempt"),
        )
        with pytest.raises(DeadlineExceededError):
            store.fetch_dataset("ds")
        assert store.replication_stats()["shard_errors"].get(primary, 0) == 0
        assert store.health_stats()["consecutive_failures"] == {}


class TestConcurrentReuploads:
    """CAS version reservations order racing re-uploads of one dataset."""

    def test_racing_reuploads_mint_distinct_versions_and_converge(self):
        store = ReplicatedShardedDataStore(num_shards=4, replicas=2)
        store.store_dataset("ds", cycle_graph(3))
        graphs = [cycle_graph(5), star_graph(7), cycle_graph(8)]
        barrier = threading.Barrier(len(graphs))
        errors = []

        def upload(graph):
            barrier.wait()
            try:
                store.store_dataset("ds", graph)
            except StorageError as exc:  # pragma: no cover - would fail below
                errors.append(exc)

        threads = [
            threading.Thread(target=upload, args=(graph,)) for graph in graphs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Three writers after v1 mint exactly v2, v3 and v4; every replica
        # converges on v4 with the max-minted writer's graph — no diverged
        # versions, no resurrected older content above the winner.
        holders = _holders(store, "ds")
        assert len(holders) == store.replicas
        versions = {
            store.shard_stores()[shard_id].dataset_version("ds")
            for shard_id in holders
        }
        assert versions == {4}
        contents = {
            tuple(sorted(store.shard_stores()[shard_id].fetch_dataset("ds").edge_list()))
            for shard_id in holders
        }
        assert len(contents) == 1
        assert contents.pop() in {
            tuple(sorted(graph.edge_list())) for graph in graphs
        }
        graph, version = store.fetch_dataset_with_version("ds")
        assert version == 4

    def test_failed_quorum_write_releases_its_version_reservation(self):
        backends = [FlakyStore(DataStore()) for _ in range(3)]
        store = ReplicatedShardedDataStore(shards=backends, replicas=2)
        store.store_dataset("ds", cycle_graph(3))
        for backend in backends:
            backend.go_down()
        with pytest.raises(StorageError):
            store.store_dataset("ds", star_graph(5))
        for backend in backends:
            backend.come_up()
        # The failed write landed nothing and released its reservation: the
        # next upload mints v2, no phantom version gaps the sequence.
        store.store_dataset("ds", star_graph(5))
        assert store.fetch_dataset_with_version("ds")[1] == 2


class TestGatewayQuorumCounters:
    @pytest.fixture
    def catalog(self, community_graph):
        catalog = DatasetCatalog()
        catalog.register_graph("toy", community_graph, description="communities")
        return catalog

    def test_gateway_surfaces_the_quorum_counters(self, catalog):
        with ApiGateway(
            catalog=catalog, replicas=2, probe_interval_seconds=0
        ) as gateway:
            comparison = gateway.run_queries(
                [{"dataset_id": "toy", "algorithm": "pagerank"}], synchronous=True
            )
            assert gateway.get_rankings(comparison)
            stats = gateway.get_platform_stats()
            replication = stats["shards"]["replication"]
            assert replication["digest_reads"] >= 1
            storage = stats["overload"]["storage"]
            assert storage["stale_reads_prevented"] == 0
            rendered = gateway.render_metrics()
            assert "repro_storage_digest_reads" in rendered
            assert "repro_storage_stale_reads_prevented" in rendered

    def test_gateway_never_ranks_a_stale_primary_copy(self, catalog):
        backends = [FlakyStore(DataStore()) for _ in range(4)]
        store = ReplicatedShardedDataStore(shards=backends, replicas=2)
        with ApiGateway(
            catalog=catalog, datastore=store, probe_interval_seconds=0
        ) as gateway:
            query = [{"dataset_id": "toy", "algorithm": "pagerank"}]
            first = gateway.get_rankings(gateway.run_queries(query, synchronous=True))
            assert len(first[0]) == 32  # the catalog's 4 x 8 communities
            # A re-upload lands v2 while the primary is down; it comes back
            # holding the 32-node v1 copy, which no comparison may rank.
            fresh = star_graph(6)
            stale_primary(store, "toy", fresh)
            second = gateway.get_rankings(gateway.run_queries(query, synchronous=True))
            assert len(second[0]) == len(fresh)
            # The digest round saw both versions; whether the walk then met
            # the stale copy depends on how soon read-repair converged it.
            replication = gateway.get_platform_stats()["shards"]["replication"]
            assert replication["version_conflicts_resolved"] >= 1
