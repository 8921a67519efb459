"""End-to-end tests of the platform running on a 4-shard ring store (one copy per key).

The acceptance scenario of the sharding subsystem: eight datasets uploaded
into a 4-shard gateway, mixed comparisons whose results must be bit-identical
to the single-store gateway, dataset spread over at least three shards,
re-upload invalidation confined to the owning shard, and a minimal-movement
rebalance after a shard joins — with every query still answering afterwards.
"""

from __future__ import annotations

import json
from urllib.request import urlopen

import numpy as np
import pytest

from repro.datasets.catalog import DatasetCatalog
from repro.graph.generators import reciprocal_communities_graph
from repro.platform.gateway import ApiGateway
from repro.platform.replication import ReplicatedShardedDataStore

NUM_DATASETS = 8
NUM_SHARDS = 4


def _dataset_ids():
    return [f"e2e-{index}" for index in range(NUM_DATASETS)]


def _build_catalog() -> DatasetCatalog:
    """Eight small, varied datasets; every graph contains the labelled node
    ``c0-n0`` used as the personalized reference."""
    catalog = DatasetCatalog()
    for index, dataset_id in enumerate(_dataset_ids()):
        graph = reciprocal_communities_graph(
            2 + index % 3, 4 + index // 2, seed=7 + index
        )
        catalog.register_graph(dataset_id, graph, description=f"e2e dataset {index}")
    return catalog


def _reference_for(index: int) -> str:
    return "c0-n0"


def _mixed_queries():
    """Mixed workload: a global, a power-iteration and a cycle query per dataset."""
    queries = []
    for index, dataset_id in enumerate(_dataset_ids()):
        reference = _reference_for(index)
        queries.append({"dataset_id": dataset_id, "algorithm": "pagerank"})
        queries.append(
            {
                "dataset_id": dataset_id,
                "algorithm": "personalized-pagerank",
                "source": reference,
            }
        )
        queries.append(
            {
                "dataset_id": dataset_id,
                "algorithm": "cyclerank",
                "source": reference,
                "parameters": {"k": 3},
            }
        )
    return queries


def _run_workload(gateway: ApiGateway):
    comparison_id = gateway.run_queries(_mixed_queries(), synchronous=True)
    progress = gateway.get_status(comparison_id)
    assert progress.error is None, progress.error
    return gateway.get_rankings(comparison_id)


@pytest.fixture
def sharded_gateway():
    with ApiGateway(catalog=_build_catalog(), shards=NUM_SHARDS, num_workers=2) as gateway:
        yield gateway


class TestShardedGatewayEndToEnd:
    def test_results_bit_identical_to_single_store_and_spread_over_shards(
        self, sharded_gateway
    ):
        sharded_rankings = _run_workload(sharded_gateway)
        with ApiGateway(catalog=_build_catalog(), num_workers=2) as single_gateway:
            single_rankings = _run_workload(single_gateway)
        assert len(sharded_rankings) == len(single_rankings) == 3 * NUM_DATASETS
        for sharded_ranking, single_ranking in zip(sharded_rankings, single_rankings):
            assert np.array_equal(sharded_ranking.scores, single_ranking.scores)
            assert sharded_ranking.ordered_nodes() == single_ranking.ordered_nodes()
            assert sharded_ranking.algorithm == single_ranking.algorithm

        store: ReplicatedShardedDataStore = sharded_gateway.datastore
        assert store.list_datasets() == _dataset_ids()
        occupied = [
            shard_id
            for shard_id, backend in store.shard_stores().items()
            if backend.list_datasets()
        ]
        assert len(occupied) >= 3
        # Every dataset lives on exactly the shard the ring assigns it.
        for dataset_id in _dataset_ids():
            holders = [
                shard_id
                for shard_id, backend in store.shard_stores().items()
                if backend.has_dataset(dataset_id)
            ]
            assert holders == [store.shard_for(dataset_id)]

    def test_reupload_invalidates_only_the_owning_shard(self, sharded_gateway):
        _run_workload(sharded_gateway)
        store: ReplicatedShardedDataStore = sharded_gateway.datastore
        target = _dataset_ids()[0]
        owner = store.shard_for(target)
        owner_cache_before = store.shard_store(owner).result_cache.stats()
        owner_artifacts_before = store.shard_store(owner).artifact_stats()
        others_before = {
            shard_id: (backend.result_cache.stats(), backend.artifact_stats())
            for shard_id, backend in store.shard_stores().items()
            if shard_id != owner
        }
        assert owner_cache_before["size"] > 0

        sharded_gateway.upload_dataset(
            target,
            reciprocal_communities_graph(2, 5, seed=99),
            description="replacement upload",
            replace=True,
        )

        owner_cache_after = store.shard_store(owner).result_cache.stats()
        owner_artifacts_after = store.shard_store(owner).artifact_stats()
        assert owner_cache_after["invalidations"] > owner_cache_before["invalidations"]
        assert owner_artifacts_after["invalidations"] > owner_artifacts_before["invalidations"]
        for shard_id, (cache_before, artifacts_before) in others_before.items():
            assert store.shard_store(shard_id).result_cache.stats() == cache_before
            assert store.shard_store(shard_id).artifact_stats() == artifacts_before

        # Queries against the replacement run against the new graph.
        comparison_id = sharded_gateway.run_queries(
            [{"dataset_id": target, "algorithm": "pagerank"}], synchronous=True
        )
        assert sharded_gateway.get_status(comparison_id).error is None

    def test_rebalance_after_join_moves_minimal_keys_and_queries_still_succeed(
        self, sharded_gateway
    ):
        before_rankings = _run_workload(sharded_gateway)
        store: ReplicatedShardedDataStore = sharded_gateway.datastore

        before_owners = {d: store.shard_for(d) for d in _dataset_ids()}
        new_shard = store.add_shard()
        after_owners = {d: store.shard_for(d) for d in _dataset_ids()}
        expected_moves = sorted(
            d for d in _dataset_ids() if before_owners[d] != after_owners[d]
        )
        moved = sorted(store.rebalance())
        assert moved == expected_moves
        assert all(after_owners[d] == new_shard for d in moved)
        assert len(moved) <= NUM_DATASETS  # sanity: never more than everything
        # Consistent hashing keeps the unmoved majority in place: with one
        # shard joining five, well over half the datasets must stay put.
        assert len(moved) < NUM_DATASETS / 2 + 1

        after_rankings = _run_workload(sharded_gateway)
        assert len(after_rankings) == len(before_rankings)
        for before_ranking, after_ranking in zip(before_rankings, after_rankings):
            assert np.array_equal(before_ranking.scores, after_ranking.scores)
        # Unmoved datasets answered straight from their shard's cache: the
        # second workload adds no misses for them (each query of the workload
        # group hits once).
        stats = sharded_gateway.get_platform_stats()
        assert stats["cache"]["hits"] > 0

    def test_platform_stats_and_rest_api_expose_shard_topology(self, sharded_gateway):
        _run_workload(sharded_gateway)
        stats = sharded_gateway.get_platform_stats()
        assert stats["shards"]["num_shards"] == NUM_SHARDS
        assert set(stats["shards"]["per_shard"]) == set(
            sharded_gateway.datastore.shard_ids()
        )
        for info in stats["shards"]["per_shard"].values():
            assert info["healthy"] is True
        # The aggregated cache/artifact sections carry per-shard breakdowns.
        assert set(stats["cache"]["shards"]) == set(sharded_gateway.datastore.shard_ids())
        assert set(stats["artifacts"]["shards"]) == set(
            sharded_gateway.datastore.shard_ids()
        )

        from repro.platform.restapi import RestApiServer

        server = RestApiServer(sharded_gateway)
        try:
            server.start()
            with urlopen(f"{server.url}/api/stats") as response:
                payload = json.loads(response.read().decode("utf-8"))
        finally:
            server._httpd.shutdown()
            server._httpd.server_close()
            server._httpd = None
        assert payload["shards"]["num_shards"] == NUM_SHARDS
        assert "per_shard" in payload["shards"]

    def test_gateway_accepts_explicit_backend_stores(self):
        from repro.platform.datastore import DataStore

        backends = [DataStore() for _ in range(3)]
        with ApiGateway(catalog=_build_catalog(), shards=backends, num_workers=1) as gateway:
            assert isinstance(gateway.datastore, ReplicatedShardedDataStore)
            assert gateway.datastore.num_shards == 3
            comparison_id = gateway.run_queries(
                [{"dataset_id": "e2e-0", "algorithm": "pagerank"}], synchronous=True
            )
            assert gateway.get_status(comparison_id).error is None

    def test_gateway_rejects_shards_with_datastore(self):
        from repro.exceptions import InvalidParameterError
        from repro.platform.datastore import DataStore

        with pytest.raises(InvalidParameterError):
            ApiGateway(datastore=DataStore(), shards=2)
        # The retry budget configures the ring the gateway builds, so it is
        # refused next to a caller-built store and without any ring option.
        ring = ReplicatedShardedDataStore(num_shards=2, replicas=1)
        with pytest.raises(InvalidParameterError):
            ApiGateway(datastore=ring, retry_budget_capacity=5)
        with pytest.raises(InvalidParameterError):
            ApiGateway(retry_budget_capacity=5)

    def test_gateway_rejects_a_negative_retry_budget(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="retry_budget_capacity"):
            ApiGateway(shards=2, retry_budget_capacity=-1)

    def test_storage_knobs_are_valid_on_a_shards_only_gateway(self):
        with ApiGateway(
            catalog=_build_catalog(),
            shards=2,
            retry_budget_capacity=5,
            num_workers=1,
            probe_interval_seconds=0,
        ) as gateway:
            store = gateway.datastore
            assert isinstance(store, ReplicatedShardedDataStore)
            assert store.replicas == 1
            assert store.retry_budget.capacity == 5
            comparison_id = gateway.run_queries(
                [{"dataset_id": "e2e-0", "algorithm": "pagerank"}], synchronous=True
            )
            assert gateway.get_status(comparison_id).error is None
            assert gateway.get_rankings(comparison_id)
            assert store.replication_stats()["digest_reads"] >= 1

    def test_rebalance_job_on_a_shards_only_gateway_reports_progress(self):
        with ApiGateway(
            catalog=_build_catalog(), shards=3, num_workers=1, probe_interval_seconds=0
        ) as gateway:
            _run_workload(gateway)
            gateway.datastore.add_shard()
            job_id = gateway.rebalance_storage(wait=True)
            events = gateway.get_events(job_id)
            progress = [event for event in events if event["type"] == "progress"]
            assert progress, events
            assert all(event["kind"] == "rebalance" for event in progress)
            assert progress[-1]["completed"] == progress[-1]["total"]
            assert gateway.get_status(job_id).state.value == "completed"
