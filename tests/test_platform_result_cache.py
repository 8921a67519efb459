"""Cache semantics: counters, LRU eviction order, and content-addressed keys.

Nothing is invalidated on a re-upload: keys carry the content digest of the
graph a ranking was computed on.  The tests that used to pin the sweep now
pin what it protected — after a re-upload of different content the next
read is a miss and ranks the new graph.
"""

from __future__ import annotations

import json
import urllib.request

import numpy as np
import pytest

from repro.algorithms.registry import run_batch
from repro.datasets.catalog import DatasetCatalog
from repro.exceptions import InvalidParameterError
from repro.graph.digraph import DirectedGraph
from repro.platform.cache import ResultCache
from repro.platform.datastore import DataStore
from repro.platform.gateway import ApiGateway
from repro.platform.restapi import RestApiServer
from repro.ranking.result import Ranking


def _ranking(score: float = 1.0) -> Ranking:
    return Ranking([score, 1.0 - score], labels=["a", "b"], algorithm="test")


def _key(dataset: str = "ds", source: str = "a", **parameters) -> tuple:
    return ResultCache.key_for(dataset, "algo", parameters or {"alpha": 0.85}, source)


PPR = "personalized-pagerank"


def _two_cycle(name: str = "uploaded") -> DirectedGraph:
    graph = DirectedGraph(name=name)
    graph.add_edge("x", "y")
    graph.add_edge("y", "x")
    return graph


def _routed_through_z(name: str = "uploaded") -> DirectedGraph:
    """``_two_cycle`` with all of y's mass routed through a new node z."""
    graph = DirectedGraph(name=name)
    graph.add_edge("x", "y")
    graph.add_edge("y", "z")
    graph.add_edge("z", "x")
    return graph


def _read(gateway: ApiGateway, dataset_id: str, source: str = "x"):
    """Serve one PPR query; return ``(ranking, served from the cache)``."""
    comparison_id = gateway.run_queries(
        [{"dataset_id": dataset_id, "algorithm": PPR, "source": source}],
        synchronous=True,
    )
    cached = any(
        event.type == "query_cached"
        for event in gateway.get_task(comparison_id).events()
    )
    return gateway.get_rankings(comparison_id)[0], cached


def _assert_ranks(ranking: Ranking, graph: DirectedGraph, source: str = "x") -> None:
    [expected] = run_batch(PPR, graph, sources=[source])
    assert np.array_equal(ranking.scores, expected.scores)
    assert list(ranking) == list(expected)


class TestCounters:
    def test_fresh_cache_is_empty_with_zeroed_counters(self):
        cache = ResultCache(capacity=4)
        stats = cache.stats()
        assert len(cache) == 0
        assert stats == {
            "capacity": 4,
            "size": 0,
            "hits": 0,
            "misses": 0,
            "hit_rate": 0.0,
            "evictions": 0,
            "invalidations": 0,
            "admit_on_second_miss": False,
            "admissions_deferred": 0,
        }

    def test_hits_and_misses_are_counted(self):
        cache = ResultCache(capacity=4)
        key = _key()
        assert cache.get(key) is None
        cache.put(key, _ranking())
        assert cache.get(key) is not None
        assert cache.get(key) is not None
        stats = cache.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 3)

    def test_peek_does_not_touch_counters(self):
        cache = ResultCache(capacity=4)
        key = _key()
        cache.put(key, _ranking())
        assert cache.peek(key) is not None
        assert cache.peek(_key(source="b")) is None
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            ResultCache(capacity=0)


class TestKeyCanonicalisation:
    def test_parameter_order_does_not_matter(self):
        first = ResultCache.key_for("ds", "algo", {"alpha": 0.85, "max_iter": 100}, "a")
        second = ResultCache.key_for("ds", "algo", {"max_iter": 100, "alpha": 0.85}, "a")
        assert first == second

    def test_distinct_queries_get_distinct_keys(self):
        base = _key()
        assert _key(dataset="other") != base
        assert _key(source="b") != base
        assert _key(alpha=0.5) != base


class TestLruEviction:
    def test_least_recently_used_entry_is_evicted_first(self):
        cache = ResultCache(capacity=2)
        key_a, key_b, key_c = _key(source="a"), _key(source="b"), _key(source="c")
        cache.put(key_a, _ranking(0.1))
        cache.put(key_b, _ranking(0.2))
        # Touch A so B becomes the least recently used entry.
        assert cache.get(key_a) is not None
        cache.put(key_c, _ranking(0.3))
        assert cache.peek(key_b) is None
        assert cache.peek(key_a) is not None
        assert cache.peek(key_c) is not None
        assert cache.stats()["evictions"] == 1

    def test_put_refreshes_recency(self):
        cache = ResultCache(capacity=2)
        key_a, key_b, key_c = _key(source="a"), _key(source="b"), _key(source="c")
        cache.put(key_a, _ranking(0.1))
        cache.put(key_b, _ranking(0.2))
        cache.put(key_a, _ranking(0.4))  # re-put: A is now most recent
        cache.put(key_c, _ranking(0.3))
        assert cache.peek(key_b) is None
        assert cache.peek(key_a).score_of("a") == pytest.approx(0.4)

    def test_eviction_keeps_size_bounded(self):
        cache = ResultCache(capacity=3)
        for index in range(10):
            cache.put(_key(source=f"s{index}"), _ranking())
        assert len(cache) == 3
        assert cache.stats()["evictions"] == 7


class TestInvalidation:
    def test_new_content_misses_only_on_its_own_dataset(self):
        catalog = DatasetCatalog()
        with ApiGateway(catalog=catalog, num_workers=1) as gateway:
            gateway.upload_dataset("one", _two_cycle())
            gateway.upload_dataset("two", _two_cycle())
            for dataset_id in ("one", "two"):
                assert _read(gateway, dataset_id)[1] is False
            gateway.upload_dataset("one", _routed_through_z(), replace=True)
            ranking, cached = _read(gateway, "one")
            assert cached is False
            _assert_ranks(ranking, _routed_through_z())
            ranking, cached = _read(gateway, "two")
            assert cached is True
            _assert_ranks(ranking, _two_cycle())
            assert gateway.datastore.result_cache.stats()["invalidations"] == 0

    def test_clear_empties_the_cache(self):
        cache = ResultCache(capacity=8)
        cache.put(_key(), _ranking())
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 1


class TestDataStoreWiring:
    def test_datastore_owns_a_default_cache(self):
        assert isinstance(DataStore().result_cache, ResultCache)

    def test_replacing_a_dataset_with_new_content_misses(self):
        catalog = DatasetCatalog()
        catalog.register_graph("toy", _two_cycle())
        datastore = DataStore()
        with ApiGateway(catalog=catalog, datastore=datastore, num_workers=1) as gateway:
            _read(gateway, "toy")
            datastore.store_dataset("toy", _routed_through_z())
            ranking, cached = _read(gateway, "toy")
            assert cached is False
            _assert_ranks(ranking, _routed_through_z())

    def test_first_store_does_not_invalidate(self, triangle):
        datastore = DataStore()
        datastore.result_cache.put(_key(dataset="toy"), _ranking())
        datastore.store_dataset("toy", triangle)
        # A first materialisation is not a re-upload; the entry survives.
        assert datastore.result_cache.peek(_key(dataset="toy")) is not None

    def test_drop_then_store_of_new_content_misses(self):
        catalog = DatasetCatalog()
        catalog.register_graph("toy", _two_cycle())
        datastore = DataStore()
        with ApiGateway(catalog=catalog, datastore=datastore, num_workers=1) as gateway:
            _read(gateway, "toy")
            datastore.drop_dataset("toy")
            datastore.store_dataset("toy", _routed_through_z())
            ranking, cached = _read(gateway, "toy")
            assert cached is False
            _assert_ranks(ranking, _routed_through_z())


class TestGatewayReupload:
    def _uploaded_graph(self, *, with_z: bool) -> DirectedGraph:
        graph = DirectedGraph(name="uploaded")
        graph.add_edge("x", "y")
        graph.add_edge("y", "x")
        if with_z:
            # The re-upload routes all of y's mass through a new node z, so
            # the same query must produce visibly different scores.
            graph.add_node("z")
            graph.remove_edge("y", "x")
            graph.add_edge("y", "z")
            graph.add_edge("z", "x")
        return graph

    def test_reupload_through_gateway_recomputes_new_content(self):
        catalog = DatasetCatalog()
        with ApiGateway(catalog=catalog, num_workers=1) as gateway:
            gateway.upload_dataset("uploaded", self._uploaded_graph(with_z=False))
            query = [
                {
                    "dataset_id": "uploaded",
                    "algorithm": "personalized-pagerank",
                    "source": "x",
                }
            ]
            first = gateway.run_queries(query, synchronous=True)
            first_scores = gateway.get_rankings(first)[0].scores

            # The repeat is served from the cache: no executor dispatch.
            executed = gateway.executor_pool.total_executed()
            hits_before = gateway.datastore.result_cache.stats()["hits"]
            repeat = gateway.run_queries(query, synchronous=True)
            assert gateway.executor_pool.total_executed() == executed
            assert gateway.datastore.result_cache.stats()["hits"] == hits_before + 1
            assert np.array_equal(gateway.get_rankings(repeat)[0].scores, first_scores)

            # Re-uploading different content makes the same query a miss: it
            # recomputes against the new graph and yields new scores.
            misses_before = gateway.datastore.result_cache.stats()["misses"]
            new_graph = self._uploaded_graph(with_z=True)
            gateway.upload_dataset("uploaded", new_graph, replace=True)
            second = gateway.run_queries(query, synchronous=True)
            second_ranking = gateway.get_rankings(second)[0]
            assert gateway.datastore.result_cache.stats()["misses"] == misses_before + 1
            assert gateway.executor_pool.total_executed() == executed + 1
            _assert_ranks(second_ranking, new_graph)
            assert second_ranking.scores.size == 3  # the new upload's z node is ranked
            assert not np.allclose(first_scores, second_ranking.scores[:2])


class TestCacheStateDoesNotChangeResults:
    """The scheduler batches only a group's cache misses, so which sources
    share a batch depends on what is already cached.  A comparison must
    serve the same rankings whatever that was."""

    ALGORITHMS = ("personalized-pagerank", "personalized-cheirank")

    def _serve(self, graph, sources, *, precached_source=None):
        catalog = DatasetCatalog()
        catalog.register_graph("enwiki", graph)
        with ApiGateway(catalog=catalog, num_workers=2) as gateway:
            if precached_source is not None:
                gateway.run_queries(
                    [
                        {
                            "dataset_id": "enwiki",
                            "algorithm": algorithm,
                            "source": precached_source,
                        }
                        for algorithm in self.ALGORITHMS
                    ],
                    synchronous=True,
                )
            comparison_id = gateway.run_queries(
                [
                    {"dataset_id": "enwiki", "algorithm": algorithm, "source": source}
                    for algorithm in self.ALGORITHMS
                    for source in sources
                ],
                synchronous=True,
            )
            rankings = [
                ranking.to_dict() for ranking in gateway.get_rankings(comparison_id)
            ]
            api = RestApiServer(gateway)
            api.start()
            try:
                url = f"{api.url}/api/comparisons/{comparison_id}/results?k=10"
                with urllib.request.urlopen(url, timeout=10) as response:
                    raw = response.read().decode("utf-8")
                # The title and metadata name the comparison; nothing else may differ.
                body = json.loads(raw.replace(comparison_id, "<comparison>"))
            finally:
                api.stop()
        return rankings, body

    def test_cold_and_partly_warm_cache_serve_identical_results(self, small_enwiki):
        sources = small_enwiki.labels()[:3]
        cold_rankings, cold_body = self._serve(small_enwiki, sources)
        assert len(cold_rankings) == len(self.ALGORITHMS) * len(sources)
        # Each source in turn is already cached, so the other two run as a
        # batch of two instead of three.
        for precached in sources:
            warm_rankings, warm_body = self._serve(
                small_enwiki, sources, precached_source=precached
            )
            for cold, warm in zip(cold_rankings, warm_rankings):
                assert cold == warm
            assert cold_body == warm_body


class TestDatasetVersioning:
    def test_versions_count_uploads_and_drops(self, triangle):
        datastore = DataStore()
        assert datastore.dataset_version("toy") == 0
        datastore.store_dataset("toy", triangle)
        assert datastore.dataset_version("toy") == 1
        datastore.store_dataset("toy", triangle.copy())
        assert datastore.dataset_version("toy") == 2
        datastore.drop_dataset("toy")
        assert datastore.dataset_version("toy") == 3

    def test_fetch_with_version_is_consistent(self, triangle):
        datastore = DataStore()
        datastore.store_dataset("toy", triangle)
        graph, version = datastore.fetch_dataset_with_version("toy")
        assert graph is triangle
        assert version == 1

    def test_keys_from_different_content_do_not_collide(self, triangle):
        # A stale in-flight computation caches under the old graph's digest,
        # so a re-upload of different content is never served its rankings.
        datastore = DataStore()
        datastore.store_dataset("ds", triangle)
        old_digest = datastore.fetch_compiled("ds").content_digest()
        changed = triangle.copy()
        changed.add_edge("A", "C")
        datastore.store_dataset("ds", changed)
        new_digest = datastore.fetch_compiled("ds").content_digest()
        old = ResultCache.key_for("ds", "algo", {"alpha": 0.85}, "a", digest=old_digest)
        new = ResultCache.key_for("ds", "algo", {"alpha": 0.85}, "a", digest=new_digest)
        assert old != new
        cache = ResultCache(capacity=4)
        cache.put(old, _ranking())
        assert cache.peek(new) is None


class TestAdmitOnSecondMiss:
    def test_first_put_is_deferred_second_is_admitted(self):
        cache = ResultCache(capacity=4, admit_on_second_miss=True)
        key = _key()
        assert cache.put(key, _ranking()) is False
        assert cache.get(key) is None  # not admitted yet
        assert cache.put(key, _ranking()) is True
        assert cache.get(key) is not None
        stats = cache.stats()
        assert stats["admit_on_second_miss"] is True
        assert stats["admissions_deferred"] == 1

    def test_scan_workload_does_not_evict_the_working_set(self):
        cache = ResultCache(capacity=2, admit_on_second_miss=True)
        hot_first, hot_second = _key(source="hot-1"), _key(source="hot-2")
        for key in (hot_first, hot_second):
            cache.put(key, _ranking())
            cache.put(key, _ranking())
        # A one-off scan over many distinct keys: none are admitted, so the
        # hot entries survive untouched.
        for index in range(50):
            cache.put(_key(source=f"scan-{index}"), _ranking())
        assert cache.peek(hot_first) is not None
        assert cache.peek(hot_second) is not None
        assert cache.stats()["evictions"] == 0

    def test_admitted_entry_updates_normally(self):
        cache = ResultCache(capacity=4, admit_on_second_miss=True)
        key = _key()
        cache.put(key, _ranking())
        cache.put(key, _ranking())
        # Once resident, a refresh put stores immediately.
        assert cache.put(key, _ranking(0.25)) is True
        assert cache.get(key).scores[0] == 0.25

    def test_new_content_starts_its_own_admission_accounting(self):
        catalog = DatasetCatalog()
        catalog.register_graph("toy", _two_cycle())
        datastore = DataStore(cache_admit_on_second_miss=True)
        with ApiGateway(catalog=catalog, datastore=datastore, num_workers=1) as gateway:
            _read(gateway, "toy")  # deferred; the key sits in the ghost list
            datastore.store_dataset("toy", _routed_through_z())
            # The new content's key is a first sighting: deferred, not admitted.
            ranking, cached = _read(gateway, "toy")
            assert cached is False
            _assert_ranks(ranking, _routed_through_z())
            assert len(datastore.result_cache) == 0
            ranking, cached = _read(gateway, "toy")
            assert cached is False
            _assert_ranks(ranking, _routed_through_z())
            assert len(datastore.result_cache) == 1

    def test_default_policy_admits_immediately(self):
        cache = ResultCache(capacity=4)
        key = _key()
        assert cache.put(key, _ranking()) is True
        assert cache.get(key) is not None


class TestDataStoreCacheKnobs:
    def test_knobs_configure_the_internal_cache(self):
        datastore = DataStore(cache_admit_on_second_miss=True)
        assert datastore.result_cache.stats()["admit_on_second_miss"] is True

    def test_defaults_preserve_seed_behaviour(self):
        datastore = DataStore()
        assert datastore.result_cache.stats()["admit_on_second_miss"] is False
