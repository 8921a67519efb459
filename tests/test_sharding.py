"""Unit and property tests for the consistent-hash ring and the unreplicated ring store.

Covers the three :class:`~repro.platform.sharding.HashRing` guarantees the
storage layer is built on — deterministic routing, near-uniform spread, and
minimal key movement on topology changes — plus the
:class:`~repro.platform.replication.ReplicatedShardedDataStore` surface at
one copy per key (``replicas=1``): keyed routing, fan-out listings,
shard-local caches and artifact invalidation, rebalancing and shard
add/remove migration.  Result copies are files, so the result tests run on shards
with a directory (:func:`disk_ring_store`).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.algorithms.registry import run_batch
from repro.datasets.catalog import DatasetCatalog
from repro.exceptions import InvalidParameterError, StorageError
from repro.graph.generators import cycle_graph, star_graph
from repro.platform.cache import ResultCache
from repro.platform.datastore import DataStore
from repro.platform.gateway import ApiGateway
from repro.platform.replication import ReplicatedShardedDataStore
from repro.platform.sharding import HashRing
from repro.ranking.result import Ranking

KEYS = [f"dataset-{index}" for index in range(2000)]


def ring_store(shards=None, **kwargs) -> ReplicatedShardedDataStore:
    """The ring store with one copy per key (the unreplicated ring)."""
    kwargs.setdefault("replicas", 1)
    return ReplicatedShardedDataStore(shards, **kwargs)


def disk_ring_store(directory, num_shards: int, **kwargs) -> ReplicatedShardedDataStore:
    """The unreplicated ring over shards that write result files."""
    return ring_store([DataStore(directory / f"shard-{i}") for i in range(num_shards)], **kwargs)


def _ranking(n: int = 4) -> Ranking:
    scores = np.arange(1, n + 1, dtype=np.float64)
    return Ranking(
        scores / scores.sum(),
        labels=[f"n{i}" for i in range(n)],
        algorithm="test",
        parameters={},
    )


class TestHashRingRouting:
    def test_assignment_is_deterministic_across_instances(self):
        first = HashRing(["a", "b", "c"])
        second = HashRing(["c", "a", "b"])  # insertion order must not matter
        for key in KEYS[:500]:
            assert first.assign(key) == second.assign(key)

    def test_assignment_is_stable_for_repeat_calls(self):
        ring = HashRing(["a", "b", "c", "d"])
        assignments = {key: ring.assign(key) for key in KEYS[:200]}
        for key, shard in assignments.items():
            assert ring.assign(key) == shard

    def test_empty_ring_raises(self):
        ring = HashRing()
        with pytest.raises(StorageError):
            ring.assign("anything")

    def test_duplicate_and_unknown_shards_raise(self):
        ring = HashRing(["a"])
        with pytest.raises(InvalidParameterError):
            ring.add_shard("a")
        with pytest.raises(InvalidParameterError):
            ring.remove_shard("zzz")
        with pytest.raises(InvalidParameterError):
            ring.add_shard("")

    def test_shards_listing(self):
        ring = HashRing(["b", "a"])
        assert ring.shards() == ["a", "b"]
        assert len(ring) == 2
        assert "a" in ring and "zzz" not in ring

    def test_assignments_helper_matches_assign(self):
        ring = HashRing(["a", "b"])
        table = ring.assignments(KEYS[:50])
        assert table == {key: ring.assign(key) for key in KEYS[:50]}


class TestHashRingSpread:
    @pytest.mark.parametrize("num_shards", [2, 4, 8])
    def test_spread_is_near_uniform(self, num_shards):
        """Chi-square-ish bound: no shard strays far from the uniform share."""
        shard_ids = [f"shard-{i}" for i in range(num_shards)]
        ring = HashRing(shard_ids)
        counts = Counter(ring.assign(key) for key in KEYS)
        expected = len(KEYS) / num_shards
        assert set(counts) == set(shard_ids)
        chi_square = sum(
            (count - expected) ** 2 / expected for count in counts.values()
        )
        # A grossly skewed ring (every shard off by 50% of its share) would
        # score 0.25 * N; a healthy virtual-node spread stays far below.
        assert chi_square < 0.1 * len(KEYS)
        for count in counts.values():
            assert count > expected * 0.45

    @pytest.mark.parametrize("num_shards", [3, 4, 6])
    def test_join_moves_at_most_2_over_n(self, num_shards):
        ring = HashRing([f"shard-{i}" for i in range(num_shards)])
        before = {key: ring.assign(key) for key in KEYS}
        ring.add_shard("joiner")
        after = {key: ring.assign(key) for key in KEYS}
        moved = [key for key in KEYS if before[key] != after[key]]
        # Only keys adopted by the joining shard may move, and no more than
        # ~2/N of them (the consistent-hashing movement bound; the
        # expectation is 1/(N+1)).
        assert all(after[key] == "joiner" for key in moved)
        assert len(moved) <= 2 * len(KEYS) / (num_shards + 1)

    @pytest.mark.parametrize("num_shards", [3, 4, 6])
    def test_leave_moves_only_the_leavers_keys(self, num_shards):
        ring = HashRing([f"shard-{i}" for i in range(num_shards)])
        before = {key: ring.assign(key) for key in KEYS}
        ring.remove_shard("shard-0")
        after = {key: ring.assign(key) for key in KEYS}
        moved = {key for key in KEYS if before[key] != after[key]}
        # Exactly the departed shard's keys move, nothing else.
        assert moved == {key for key in KEYS if before[key] == "shard-0"}
        assert len(moved) <= 2 * len(KEYS) / num_shards

    def test_join_then_leave_restores_prior_assignments(self):
        """Join-then-leave is a no-op: untouched keys never churn."""
        ring = HashRing(["a", "b", "c"])
        before = {key: ring.assign(key) for key in KEYS[:500]}
        ring.add_shard("d")
        ring.remove_shard("d")
        assert {key: ring.assign(key) for key in KEYS[:500]} == before


@pytest.fixture
def sharded_store() -> ReplicatedShardedDataStore:
    return ring_store(num_shards=4)


class TestShardedDataStoreConstruction:
    def test_requires_exactly_one_of_shards_and_num_shards(self):
        with pytest.raises(InvalidParameterError):
            ring_store()
        with pytest.raises(InvalidParameterError):
            ring_store([DataStore()], num_shards=2)
        with pytest.raises(InvalidParameterError):
            ring_store([])

    def test_cache_policy_applies_to_internal_shards_only(self):
        store = ring_store(num_shards=2, cache_admit_on_second_miss=True)
        for backend in store.shard_stores().values():
            assert backend.result_cache.stats()["admit_on_second_miss"] is True
        with pytest.raises(InvalidParameterError):
            ring_store([DataStore()], cache_admit_on_second_miss=True)

    def test_provided_backends_are_used(self):
        backends = [DataStore(), DataStore(), DataStore()]
        store = ring_store(backends)
        assert store.num_shards == 3
        assert list(store.shard_stores().values()) == backends

    def test_unknown_shard_lookup_raises(self, sharded_store):
        with pytest.raises(StorageError):
            sharded_store.shard_store("no-such-shard")


class TestShardedDataStoreRouting:
    def test_dataset_operations_route_to_one_owner(self, sharded_store):
        graph = cycle_graph(5)
        for index in range(12):
            sharded_store.store_dataset(f"ds-{index}", graph)
        assert sharded_store.list_datasets() == sorted(f"ds-{i}" for i in range(12))
        for index in range(12):
            dataset_id = f"ds-{index}"
            owner = sharded_store.shard_for(dataset_id)
            assert sharded_store.has_dataset(dataset_id)
            assert sharded_store.fetch_dataset(dataset_id) is graph
            fetched, version = sharded_store.fetch_dataset_with_version(dataset_id)
            assert fetched is graph and version == 1
            assert sharded_store.dataset_version(dataset_id) == 1
            # Exactly one backend holds the dataset: the ring's owner.
            holders = [
                shard_id
                for shard_id, backend in sharded_store.shard_stores().items()
                if backend.has_dataset(dataset_id)
            ]
            assert holders == [owner]
        # With 12 datasets over 4 shards the spread must reach >= 2 shards
        # (the end-to-end test asserts >= 3 over its own fixed workload).
        owners = {sharded_store.shard_for(f"ds-{i}") for i in range(12)}
        assert len(owners) >= 2

    def test_missing_dataset_raises_storage_error(self, sharded_store):
        with pytest.raises(StorageError):
            sharded_store.fetch_dataset("nope")
        assert not sharded_store.has_dataset("nope")
        sharded_store.drop_dataset("nope")  # no error, mirrors DataStore

    def test_results_route_by_their_own_id(self, tmp_path):
        sharded_store = disk_ring_store(tmp_path, 4)
        for index in range(10):
            sharded_store.put_result(f"task-{index}", {"value": index})
        assert sharded_store.list_results() == sorted(f"task-{i}" for i in range(10))
        for index in range(10):
            result_id = f"task-{index}"
            assert sharded_store.has_result(result_id)
            assert sharded_store.get_result(result_id) == {"value": index}
            holders = [
                shard_id
                for shard_id, backend in sharded_store.shard_stores().items()
                if backend.has_result(result_id)
            ]
            assert holders == [sharded_store.shard_for(result_id)]
        sharded_store.drop_result("task-0")
        assert not sharded_store.has_result("task-0")

    def test_compiled_artifacts_live_with_their_dataset(self, sharded_store):
        graph = star_graph(6, reciprocal=True)
        sharded_store.store_dataset("starred", graph)
        compiled, version = sharded_store.fetch_compiled_with_version("starred")
        assert version == 1
        assert sharded_store.fetch_compiled("starred") is compiled
        owner = sharded_store.shard_for("starred")
        for shard_id, backend in sharded_store.shard_stores().items():
            expected = 1 if shard_id == owner else 0
            assert backend.artifact_stats()["compiled"] == expected
        stats = sharded_store.artifact_stats()
        assert stats["compiled"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert set(stats["shards"]) == set(sharded_store.shard_ids())


class TestShardedResultCache:
    def test_entries_live_on_the_owning_shard(self, sharded_store):
        graph = cycle_graph(4)
        sharded_store.store_dataset("cached", graph)
        key = ResultCache.key_for("cached", "pagerank", {"alpha": 0.85}, None)
        ranking = _ranking()
        assert sharded_store.result_cache.put(key, ranking)
        assert sharded_store.result_cache.get(key) is ranking
        assert sharded_store.result_cache.peek(key) is ranking
        owner = sharded_store.shard_for("cached")
        for shard_id, backend in sharded_store.shard_stores().items():
            assert len(backend.result_cache) == (1 if shard_id == owner else 0)
        assert len(sharded_store.result_cache) == 1

    def test_new_content_misses_on_the_owning_shard_only(self, sharded_store):
        catalog = DatasetCatalog()
        for index in range(8):
            catalog.register_graph(f"inv-{index}", cycle_graph(4))

        def query(dataset_id):
            return [{
                "dataset_id": dataset_id,
                "algorithm": "personalized-pagerank",
                "source": "#0",
            }]

        with ApiGateway(
            catalog=catalog, datastore=sharded_store, num_workers=1
        ) as gateway:
            for index in range(8):
                gateway.run_queries(query(f"inv-{index}"), synchronous=True)
            target = "inv-0"
            owner = sharded_store.shard_for(target)
            owner_before = sharded_store.shard_store(owner).result_cache.stats()
            others_before = {
                shard_id: backend.result_cache.stats()
                for shard_id, backend in sharded_store.shard_stores().items()
                if shard_id != owner
            }
            # Re-upload of new content: the next read misses on the owning
            # shard and ranks the new graph; siblings see no counter move.
            replacement = cycle_graph(5)
            sharded_store.store_dataset(target, replacement)
            comparison_id = gateway.run_queries(query(target), synchronous=True)
            [served] = gateway.get_rankings(comparison_id)
        [expected] = run_batch("personalized-pagerank", replacement, sources=["#0"])
        assert np.array_equal(served.scores, expected.scores)
        assert list(served) == list(expected)
        owner_after = sharded_store.shard_store(owner).result_cache.stats()
        assert owner_after["misses"] == owner_before["misses"] + 1
        assert owner_after["hits"] == owner_before["hits"]
        for shard_id, before in others_before.items():
            assert sharded_store.shard_store(shard_id).result_cache.stats() == before

    def test_stats_aggregate_and_break_down(self, sharded_store):
        graph = cycle_graph(4)
        sharded_store.store_dataset("stat", graph)
        key = ResultCache.key_for("stat", "pagerank", {}, None)
        assert sharded_store.result_cache.get(key) is None  # one miss
        sharded_store.result_cache.put(key, _ranking())
        assert sharded_store.result_cache.get(key) is not None  # one hit
        stats = sharded_store.result_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["size"] == 1
        assert set(stats["shards"]) == set(sharded_store.shard_ids())
        per_shard_hits = sum(s["hits"] for s in stats["shards"].values())
        assert per_shard_hits == 1
        sharded_store.result_cache.clear()
        assert len(sharded_store.result_cache) == 0

    def test_key_for_matches_result_cache(self):
        store = ring_store(num_shards=2)
        assert store.result_cache.key_for("d", "a", {"x": 1}, "s", digest=b"3") == (
            ResultCache.key_for("d", "a", {"x": 1}, "s", digest=b"3")
        )


class TestTopologyChanges:
    def test_add_shard_assigns_fresh_id(self, sharded_store):
        new_id = sharded_store.add_shard()
        assert new_id == "shard-4"
        assert sharded_store.num_shards == 5
        assert new_id in sharded_store.shard_ids()
        with pytest.raises(InvalidParameterError):
            sharded_store.add_shard(shard_id="shard-4")

    def test_rebalance_moves_exactly_the_reassigned_datasets(self):
        store = ring_store(num_shards=4)
        graph = cycle_graph(5)
        dataset_ids = [f"move-{index}" for index in range(64)]
        for dataset_id in dataset_ids:
            store.store_dataset(dataset_id, graph)
        before = {dataset_id: store.shard_for(dataset_id) for dataset_id in dataset_ids}
        new_shard = store.add_shard()
        after = {dataset_id: store.shard_for(dataset_id) for dataset_id in dataset_ids}
        expected_moves = sorted(d for d in dataset_ids if before[d] != after[d])
        moved = sorted(store.rebalance())
        assert moved == expected_moves
        assert all(after[d] == new_shard for d in moved)
        # Minimal movement: well under the 2/N bound, nothing else relocated.
        assert len(moved) <= 2 * len(dataset_ids) / store.num_shards
        for dataset_id in dataset_ids:
            assert store.fetch_dataset(dataset_id) is graph
            holders = [
                shard_id
                for shard_id, backend in store.shard_stores().items()
                if backend.has_dataset(dataset_id)
            ]
            assert holders == [after[dataset_id]]
        stats = store.shard_stats()
        assert stats["rebalances"] == 1
        assert stats["datasets_migrated"] == len(moved)

    def test_rebalance_drops_derived_caches_of_moved_datasets(self):
        store = ring_store(num_shards=4)
        graph = cycle_graph(5)
        dataset_ids = [f"derived-{index}" for index in range(64)]
        for dataset_id in dataset_ids:
            store.store_dataset(dataset_id, graph)
            digest = store.fetch_compiled(dataset_id).content_digest()
            key = ResultCache.key_for(dataset_id, "pagerank", {}, None, digest=digest)
            store.result_cache.put(key, _ranking())
        store.add_shard()
        moved = store.rebalance()
        assert moved, "expected at least one dataset to relocate"
        for dataset_id in moved:
            # The new owner has no derived state yet; a fresh artifact is
            # compiled on demand and the old ranking is not reachable.
            digest = store.fetch_compiled(dataset_id).content_digest()
            key = ResultCache.key_for(dataset_id, "pagerank", {}, None, digest=digest)
            assert store.result_cache.peek(key) is None
            compiled, version = store.fetch_compiled_with_version(dataset_id)
            # A move keeps the upload's version: every copy of one upload
            # carries the same version on every holder.
            assert version == 1
            holder_versions = {
                backend.dataset_version(dataset_id)
                for backend in store.shard_stores().values()
                if backend.has_dataset(dataset_id)
            }
            assert holder_versions == {1}
        for dataset_id in set(dataset_ids) - set(moved):
            digest = store.fetch_compiled(dataset_id).content_digest()
            key = ResultCache.key_for(dataset_id, "pagerank", {}, None, digest=digest)
            assert store.result_cache.peek(key) is not None

    def test_rebalance_migrates_results(self, tmp_path):
        store = disk_ring_store(tmp_path, 4)
        for index in range(32):
            store.put_result(f"res-{index}", {"index": index})
        store.add_shard(DataStore(tmp_path / "shard-4"))
        store.rebalance()
        for index in range(32):
            result_id = f"res-{index}"
            assert store.get_result(result_id) == {"index": index}
            holders = [
                shard_id
                for shard_id, backend in store.shard_stores().items()
                if backend.has_result(result_id)
            ]
            assert holders == [store.shard_for(result_id)]

    def test_remove_shard_migrates_everything_off_it(self, tmp_path):
        store = disk_ring_store(tmp_path, 4)
        graph = cycle_graph(5)
        dataset_ids = [f"leave-{index}" for index in range(48)]
        for dataset_id in dataset_ids:
            store.store_dataset(dataset_id, graph)
            store.put_result(f"{dataset_id}-result", {"id": dataset_id})
        victim = store.shard_for(dataset_ids[0])
        moved = store.remove_shard(victim)
        assert victim not in store.shard_ids()
        assert store.num_shards == 3
        assert dataset_ids[0] in moved
        for dataset_id in dataset_ids:
            assert store.fetch_dataset(dataset_id) is graph
            assert store.get_result(f"{dataset_id}-result") == {"id": dataset_id}

    def test_cannot_remove_last_or_unknown_shard(self):
        store = ring_store(num_shards=1)
        with pytest.raises(InvalidParameterError):
            store.remove_shard("shard-0")
        with pytest.raises(InvalidParameterError):
            store.remove_shard("missing")

    def test_reupload_before_rebalance_survives_shard_removal(self):
        """A re-upload that landed on the new ring owner must not be
        overwritten by a stale copy when either shard leaves."""
        store = ring_store(num_shards=2)
        old_graph = cycle_graph(3)
        new_graph = star_graph(4)
        # Find a dataset id whose owner changes when a third shard joins.
        store_probe = ring_store(num_shards=2)
        store_probe.add_shard()
        dataset_id = next(
            f"mv-{i}" for i in range(1000)
            if store.shard_for(f"mv-{i}") != store_probe.shard_for(f"mv-{i}")
        )
        store.store_dataset(dataset_id, old_graph)
        first_owner = store.shard_for(dataset_id)
        new_shard = store.add_shard()
        assert store.shard_for(dataset_id) != first_owner
        # Re-upload before any rebalance: lands on the new owner while the
        # old owner still holds the superseded copy... unless the write
        # purges it (it must).
        store.store_dataset(dataset_id, new_graph)
        assert not store.shard_store(first_owner).has_dataset(dataset_id)
        # Removing either shard must keep serving the newest upload.
        store.remove_shard(store.shard_for(dataset_id))
        assert store.fetch_dataset(dataset_id) is new_graph

    def test_reupload_never_serves_stale_cache_on_a_first_gain_owner(self):
        """Before a rebalance, cache entries route to the ring owner while
        the dataset still lives on its previous shard.  A re-upload that
        gives the owner the dataset for the first time must not be served
        the entries keyed for the previous content: keys carry the digest
        of the content, so the new graph's key cannot match them."""
        store = ring_store(num_shards=2)
        probe = ring_store(num_shards=2)
        probe.add_shard()
        dataset_id = next(
            f"vc-{i}" for i in range(1000)
            if store.shard_for(f"vc-{i}") != probe.shard_for(f"vc-{i}")
        )
        store.store_dataset(dataset_id, cycle_graph(4))
        new_shard = store.add_shard()
        assert store.shard_for(dataset_id) == new_shard
        # A query served from the previous owner's copy caches under the
        # current ring owner, keyed by that copy's digest.
        digest = store.fetch_compiled(dataset_id).content_digest()
        key = ResultCache.key_for(dataset_id, "pagerank", {}, None, digest=digest)
        store.result_cache.put(key, _ranking())
        assert store.result_cache.peek(key) is not None
        # Re-upload: the new owner gains the dataset for the first time.
        store.store_dataset(dataset_id, star_graph(4))
        fresh_digest = store.fetch_compiled(dataset_id).content_digest()
        fresh_key = ResultCache.key_for(
            dataset_id, "pagerank", {}, None, digest=fresh_digest
        )
        assert store.result_cache.peek(fresh_key) is None

    def test_dataset_versions_stay_monotonic_across_shard_moves(self):
        """A version observed on any shard is never reissued by a later
        upload elsewhere — replicas order their copies by it, so a reissued
        version could let an old copy pass for a newer one."""
        store = ring_store(num_shards=2)
        probe = ring_store(num_shards=2)
        probe.add_shard()
        dataset_id = next(
            f"mono-{i}" for i in range(1000)
            if store.shard_for(f"mono-{i}") != probe.shard_for(f"mono-{i}")
        )
        store.store_dataset(dataset_id, cycle_graph(4))
        store.store_dataset(dataset_id, cycle_graph(5))
        observed = {store.dataset_version(dataset_id)}  # 2 on the old owner
        store.add_shard()
        store.rebalance()  # migrates to the new owner
        observed.add(store.dataset_version(dataset_id))
        store.store_dataset(dataset_id, star_graph(4))  # re-upload post-move
        final = store.dataset_version(dataset_id)
        assert all(final > version for version in observed), (final, observed)

    def test_drop_dataset_reaches_copies_on_previous_owners(self):
        """Deleting a dataset whose copy still sits on a pre-rebalance owner
        must actually delete it, not no-op on the new (empty) owner."""
        store = ring_store(num_shards=2)
        graph = cycle_graph(4)
        for index in range(32):
            store.store_dataset(f"del-{index}", graph)
        store.add_shard()  # moves some assignments; no rebalance yet
        for index in range(32):
            store.drop_dataset(f"del-{index}")
        assert store.list_datasets() == []
        for index in range(32):
            assert not store.has_dataset(f"del-{index}")
            with pytest.raises(StorageError):
                store.fetch_dataset(f"del-{index}")

    def test_drain_never_resurrects_a_superseded_copy(self, tmp_path):
        """The owner's copy wins: a stray left by a raced write must not
        overwrite newer data when a later rebalance sweeps it up."""
        store = disk_ring_store(tmp_path, 4)
        old_graph = cycle_graph(3)
        new_graph = star_graph(4)
        dataset_id = "raced"
        owner = store.shard_for(dataset_id)
        stray_shard = [s for s in store.shard_ids() if s != owner][0]
        # Simulate the race: a superseded copy landed on a non-owner shard,
        # then the authoritative newer upload reached the owner.
        store.shard_store(stray_shard).store_dataset(dataset_id, old_graph)
        store.store_dataset(dataset_id, new_graph)
        store.rebalance()
        assert store.fetch_dataset(dataset_id) is new_graph
        assert not store.shard_store(stray_shard).has_dataset(dataset_id)
        # Same rule for results.
        result_id = "raced-result"
        result_owner = store.shard_for(result_id)
        result_stray = [s for s in store.shard_ids() if s != result_owner][0]
        store.shard_store(result_stray).put_result(result_id, {"stale": True})
        store.put_result(result_id, {"stale": False})
        store.rebalance()
        assert store.get_result(result_id) == {"stale": False}

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_failed_removal_rolls_the_shard_back_onto_the_ring(self, replicas):
        store = ring_store(num_shards=3, replicas=replicas)
        graph = cycle_graph(5)
        dataset_ids = [f"rb-{index}" for index in range(24)]
        for dataset_id in dataset_ids:
            store.store_dataset(dataset_id, graph)
        victim = store.shard_for(dataset_ids[0])

        def holders(dataset_id):
            return [
                shard_id
                for shard_id, backend in store.shard_stores().items()
                if backend.has_dataset(dataset_id)
            ]

        # Sabotage one of the *surviving* backends so the migration fails
        # midway: the copies it should take are refused.
        survivors = [s for s in store.shard_ids() if s != victim]
        broken = store.shard_store(survivors[0])
        original_store_dataset = broken.store_dataset
        broken.store_dataset = lambda *a, **k: (_ for _ in ()).throw(
            StorageError("disk full")
        )
        try:
            if replicas == 1:
                # The victim holds the only copy of some datasets the broken
                # survivor should take: unlinking it would lose them.
                with pytest.raises(StorageError):
                    store.remove_shard(victim)
            else:
                # Every dataset on the victim already has a second copy on a
                # survivor, so the removal is safe and completes.
                store.remove_shard(victim)
        finally:
            broken.store_dataset = original_store_dataset
        # Whether the removal raised or returned, no dataset lost its copies.
        for dataset_id in dataset_ids:
            assert holders(dataset_id), dataset_id
            assert store.fetch_dataset(dataset_id) is graph
        if replicas == 1:
            # The shard is back on the ring with the full topology intact.
            assert victim in store.shard_ids()
            assert store.num_shards == 3
            # A retry now succeeds cleanly.
            store.remove_shard(victim)
        assert store.num_shards == 2
        for dataset_id in dataset_ids:
            assert holders(dataset_id), dataset_id
            assert store.fetch_dataset(dataset_id) is graph


class TestShardStats:
    def test_shard_stats_report_topology_health_and_occupancy(self, sharded_store):
        graph = cycle_graph(4)
        for index in range(8):
            sharded_store.store_dataset(f"occ-{index}", graph)
        stats = sharded_store.shard_stats()
        assert stats["num_shards"] == 4
        assert stats["shard_ids"] == sorted(sharded_store.shard_ids())
        assert stats["virtual_nodes"] > 0
        total_datasets = 0
        for shard_id, info in stats["per_shard"].items():
            assert info["healthy"] is True
            assert info["occupancy"]["datasets"] == len(
                sharded_store.shard_store(shard_id).list_datasets()
            )
            total_datasets += info["occupancy"]["datasets"]
        assert total_datasets == 8
        assert sharded_store.occupancy()["datasets"] == 8
