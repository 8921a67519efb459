"""Deletion-tombstone convergence tests for the self-healing storage tier.

A drop is an *event* with a version, not a blind erase: the replicated
store writes a versioned tombstone to every successor, repair passes treat
the tombstone as authoritative over any lower-versioned live copy (a
recovering shard can never resurrect a dropped dataset), and the tombstone
is reaped once every replica acknowledged it.  The suite scripts the
outage timelines through :mod:`faults` and proves the acceptance property
directly: *any* interleaving of store / drop / outage / recover /
maintenance converges with no resurrected dataset and no stale cache hit,
on the same shard/replica topologies CI runs the platform suites under
(``REPRO_TEST_SHARDS=4`` and ``REPRO_TEST_REPLICAS=2``).
"""

from __future__ import annotations

import json
import threading
from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faults import FlakyStore, fault_rounds, partition
from repro.exceptions import StorageError
from repro.graph.digraph import DirectedGraph
from repro.graph.generators import cycle_graph, star_graph
from repro.platform.cache import ResultCache
from repro.platform.datastore import DataStore, FileBackedDataStore
from repro.platform.replication import ReplicatedShardedDataStore

#: The CI topologies: REPRO_TEST_SHARDS=4 runs 4 shards / R=2;
#: REPRO_TEST_REPLICAS=2 runs R=2 over its default 3 backends.
TOPOLOGIES = [(4, 2), (3, 2)]


def _build(num_shards: int, replicas: int, directory=None, **kwargs):
    """Fault-injectable shards; with ``directory`` they are file-backed."""
    backends = [
        FlakyStore(
            FileBackedDataStore(directory / f"s{i}") if directory is not None else DataStore()
        )
        for i in range(num_shards)
    ]
    store = ReplicatedShardedDataStore(
        shards=backends, replicas=replicas, **kwargs
    )
    return backends, store


def _live_holders(store, dataset_id):
    return sorted(
        shard_id
        for shard_id, backend in store.shard_stores().items()
        if not backend.is_down and backend.has_dataset(dataset_id)
    )


def _held_at(source, dataset_id, version):
    """Does ``source`` hold a copy of ``dataset_id`` at ``version`` or newer?"""
    return (
        source.has_dataset(dataset_id)
        and source.dataset_version(dataset_id) >= version
    )


@pytest.fixture(params=TOPOLOGIES, ids=lambda t: f"{t[0]}shards-{t[1]}replicas")
def topology(request):
    return request.param


class TestTombstoneWrites:
    def test_drop_writes_versioned_tombstones_to_all_successors(self, topology):
        backends, store = _build(*topology)
        store.store_dataset("ds", cycle_graph(4))
        targets = store.replica_shards_for("ds")
        store.drop_dataset("ds")
        assert not store.has_dataset("ds")
        for shard_id in targets:
            backend = store.shard_stores()[shard_id]
            assert not backend.has_dataset("ds")
            # Version 1 was the upload; the deletion event is version 2.
            assert backend.dataset_tombstone("ds") == 2
        assert store.replication_stats()["tombstones_written"] >= 1

    def test_repair_reaps_tombstones_once_every_replica_acked(self, topology):
        backends, store = _build(*topology)
        store.store_dataset("ds", cycle_graph(4))
        store.drop_dataset("ds")
        outcome = store.replicate()
        assert outcome["underreplicated"] == 0
        # All successors acknowledged the deletion with every shard
        # reachable, so the marker itself is garbage-collected.
        for backend in backends:
            assert backend.dataset_tombstone("ds") == 0
        assert store.replication_stats()["tombstones_reaped"] >= 1

    def test_result_drop_uses_tombstones_and_reaps(self, topology, tmp_path):
        backends, store = _build(*topology, directory=tmp_path)
        store.put_result("res", {"x": 1})
        assert store.get_result("res") == {"x": 1}
        store.drop_result("res")
        with pytest.raises(StorageError):
            store.get_result("res")
        store.replicate()
        for backend in backends:
            assert not backend.has_result("res")
            assert not backend.has_result_tombstone("res")


class TestNoResurrection:
    def test_drop_during_outage_never_resurrects_after_recovery(self, topology):
        """The headline scenario: a holder sleeps through the deletion."""
        backends, store = _build(*topology)
        graph = star_graph(6)
        store.store_dataset("ds", graph)
        victim_id = store.replica_shards_for("ds")[0]
        victim = store.shard_stores()[victim_id]
        with partition(victim):
            # The sleeping shard keeps its live copy; the drop lands as a
            # tombstone on the surviving successors.
            store.drop_dataset("ds")
            assert not store.has_dataset("ds")
        # The shard wakes up still holding the pre-deletion copy.
        assert victim.has_dataset("ds")
        store.replicate()
        store.rebalance()
        assert not store.has_dataset("ds")
        for backend in backends:
            assert not backend.has_dataset("ds")
        with pytest.raises(StorageError):
            store.fetch_dataset("ds")

    def test_reupload_after_tombstone_is_not_killed_by_the_marker(self, topology):
        backends, store = _build(*topology)
        store.store_dataset("ds", cycle_graph(4))
        victim = store.shard_stores()[store.replica_shards_for("ds")[0]]
        with partition(victim):
            store.drop_dataset("ds")
        # Re-upload while the tombstone is still pending: the new version
        # strictly exceeds the marker, so repair keeps the new copies and
        # purges only the sleeping shard's stale one.
        fresh = star_graph(5)
        store.store_dataset("ds", fresh)
        store.replicate()
        store.rebalance()
        assert store.fetch_dataset("ds").edge_list() == fresh.edge_list()
        assert len(_live_holders(store, "ds")) == store.replicas

    def test_tombstone_blocks_resurrection_through_rebalance_too(self, topology):
        backends, store = _build(*topology)
        store.store_dataset("ds", cycle_graph(5))
        victim = store.shard_stores()[store.replica_shards_for("ds")[0]]
        with partition(victim):
            store.drop_dataset("ds")
        # Straight to rebalance (no replicate pass first): the migration
        # must also honour the marker instead of re-seeding the copy.
        store.rebalance()
        store.replicate()
        assert not store.has_dataset("ds")
        for backend in backends:
            assert not backend.has_dataset("ds")


class TestTombstonePersistence:
    def test_file_backed_tombstones_survive_a_restart(self, tmp_path):
        store = FileBackedDataStore(tmp_path)
        store.store_dataset("ds", cycle_graph(4))
        store.set_dataset_tombstone("ds", 2)
        store.set_result_tombstone("gone")
        rebooted = FileBackedDataStore(tmp_path)
        assert not rebooted.has_dataset("ds")
        assert rebooted.dataset_tombstone("ds") == 2
        assert rebooted.has_result_tombstone("gone")
        # The persisted marker keeps the version counter past the deletion.
        rebooted.store_dataset("ds", cycle_graph(4))
        assert rebooted.dataset_version("ds") == 3
        assert rebooted.dataset_tombstone("ds") == 0

    def test_tombstone_set_before_crash_kills_surviving_file(self, tmp_path):
        """A marker persisted before the data file was unlinked must win on
        recovery — the crash window between the two writes is safe."""
        store = FileBackedDataStore(tmp_path)
        store.store_dataset("ds", cycle_graph(4))
        # Simulate the crash: persist the marker by hand without removing
        # the dataset file, as if the process died mid-drop.
        state_path = tmp_path / "dataset_versions.json"
        document = json.loads(state_path.read_text(encoding="utf-8"))
        document["dataset_tombstones"]["ds"] = 2
        state_path.write_text(json.dumps(document), encoding="utf-8")
        rebooted = FileBackedDataStore(tmp_path)
        assert not rebooted.has_dataset("ds")
        assert rebooted.dataset_tombstone("ds") == 2

    def test_lower_versioned_tombstone_loses_to_newer_live_copy(self):
        store = DataStore()
        store.store_dataset("ds", cycle_graph(4))
        store.store_dataset("ds", cycle_graph(5))  # version 2
        assert store.set_dataset_tombstone("ds", 1) is False
        assert store.has_dataset("ds")
        assert store.dataset_tombstone("ds") == 0


class TestCacheNeverResurrects:
    def test_reupload_version_strictly_exceeds_the_tombstone(self):
        """Regression: after a tombstoned dataset is re-uploaded, the new
        version counter must strictly exceed the tombstone's version, so no
        copy or artifact from before the deletion can pass for the new one."""
        store = DataStore()
        store.store_dataset("ds", cycle_graph(4))  # version 1
        # A tombstone that arrived from a peer whose counter ran ahead.
        assert store.set_dataset_tombstone("ds", 5) is True
        store.store_dataset("ds", star_graph(4))
        assert store.dataset_version("ds") == 6

    def test_stale_cache_entry_is_unreachable_after_tombstoned_reupload(
        self, topology
    ):
        backends, store = _build(*topology)
        graph = cycle_graph(4)
        store.store_dataset("ds", graph)
        old_version = max(b.dataset_version("ds") for b in backends)
        old_digest = store.fetch_compiled("ds").content_digest()
        old_key = ResultCache.key_for("ds", "pagerank", {}, digest=old_digest)
        assert store.result_cache.put(old_key, {"minted_at": old_version})
        assert store.result_cache.peek(old_key) is not None

        victim = store.shard_stores()[store.replica_shards_for("ds")[0]]
        with partition(victim):
            store.drop_dataset("ds")
        store.store_dataset("ds", star_graph(5))
        store.replicate()

        new_version = max(b.dataset_version("ds") for b in backends)
        tombstone = max(b.dataset_tombstone("ds") for b in backends)
        assert new_version > old_version
        assert tombstone == 0 or new_version > tombstone
        # The scheduler keys lookups by the content it read: the entry
        # minted before the deletion cannot be hit for the new graph.
        new_digest = store.fetch_compiled("ds").content_digest()
        new_key = ResultCache.key_for("ds", "pagerank", {}, digest=new_digest)
        assert new_key != old_key
        assert store.result_cache.get(new_key) is None


#: One scripted step of the interleaving property below.
def _ops(num_shards: int):
    dataset = st.integers(min_value=0, max_value=1)
    shard = st.integers(min_value=0, max_value=num_shards - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("store"), dataset),
            st.tuples(st.just("drop"), dataset),
            st.tuples(st.just("race"), dataset),
            st.tuples(st.just("down"), shard),
            st.tuples(st.just("up"), shard),
            st.tuples(st.just("lose"), st.tuples(dataset, shard)),
            st.tuples(st.just("spill"), dataset),
            st.tuples(st.just("maintain"), st.just(0)),
        ),
        min_size=1,
        max_size=14,
    )


class TestInterleavingProperty:
    @settings(max_examples=fault_rounds(30), deadline=None)
    @given(data=st.data())
    def test_any_interleaving_converges_with_no_resurrection(self, data):
        """Store/drop/race/outage/recover/lose/spill/maintenance in any
        order: after full recovery plus repair passes, every successfully
        dropped dataset is gone from every backend, every live dataset
        serves its last successfully stored graph (at full replication
        unless it sits on the spill tier; a raced re-upload converges every
        replica on ONE terminal version holding one of the contending
        graphs), and version counters only ever move forward (no stale
        cache keyspace is ever reused).  After *every* step a read of each
        known dataset must never return a copy below the router's known
        version floor, and must succeed whenever a reachable source — the
        spill tier, or an up shard whose failure streak is below F (every
        source the read walk may consult) — holds a copy at that floor.  A
        holder losing its copy leaves a drop's counter behind on it, and a
        spill leaves one on every ring holder; neither may outvote the real
        copies."""
        num_shards, replicas = data.draw(
            st.sampled_from(TOPOLOGIES), label="topology"
        )
        spill = DataStore()
        backends, store = _build(num_shards, replicas, spill_store=spill)
        ops = data.draw(_ops(num_shards), label="timeline")

        UNKNOWN = object()  # a write that failed its quorum mid-outage
        expected: Dict[str, object] = {}
        floor_versions: Dict[str, int] = {}
        spilled = set()
        #: (dataset, backend) → the counter a "lose" step left behind.
        lost_counters: Dict[tuple, int] = {}
        generation = 0
        for kind, arg in ops:
            if kind in ("store", "drop", "race"):
                spilled.discard(f"ds-{arg}")
            if kind == "store":
                dataset_id = f"ds-{arg}"
                generation += 1
                graph = cycle_graph(3 + generation % 5)
                try:
                    store.store_dataset(dataset_id, graph)
                except (StorageError, RuntimeError):
                    expected[dataset_id] = UNKNOWN
                else:
                    expected[dataset_id] = graph
            elif kind == "drop":
                dataset_id = f"ds-{arg}"
                store.drop_dataset(dataset_id)  # tolerant: never raises
                expected[dataset_id] = None
            elif kind == "race":
                # Two writers re-upload the same dataset concurrently: the
                # CAS version reservation must mint distinct ordered
                # versions so the replicas can converge on exactly one.
                dataset_id = f"ds-{arg}"
                generation += 1
                contenders = [
                    cycle_graph(3 + generation % 5),
                    star_graph(4 + generation % 4),
                ]
                barrier = threading.Barrier(len(contenders))
                failures = []

                def upload(graph):
                    barrier.wait()
                    try:
                        store.store_dataset(dataset_id, graph)
                    except (StorageError, RuntimeError):
                        failures.append(graph)

                threads = [
                    threading.Thread(target=upload, args=(graph,))
                    for graph in contenders
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                expected[dataset_id] = (
                    UNKNOWN if failures else list(contenders)
                )
            elif kind == "down":
                backends[arg].go_down()
            elif kind == "up":
                backends[arg].come_up()
            elif kind == "lose":
                # A holder loses its copy (a crash that kept the counter),
                # but only while another reachable source still holds the
                # same or a newer copy — the dataset itself survives.
                dataset_id = f"ds-{arg[0]}"
                victim = backends[arg[1]]
                if not victim.is_down and victim.has_dataset(dataset_id):
                    lost = victim.dataset_version(dataset_id)
                    others = [spill] + [
                        backend
                        for backend in backends
                        if backend is not victim and not backend.is_down
                    ]
                    if any(_held_at(other, dataset_id, lost) for other in others):
                        victim.drop_dataset(dataset_id)
                        lost_counters[(dataset_id, id(victim))] = (
                            victim.dataset_version(dataset_id)
                        )
            elif kind == "spill":
                dataset_id = f"ds-{arg}"
                if store.spill(dataset_ids=[dataset_id]):
                    spilled.add(dataset_id)
            else:
                store.replicate()
            for dataset_id, backend in (
                (ds, b) for ds in expected for b in backends
            ):
                if backend.is_down:
                    continue
                counter = backend.dataset_version(dataset_id)
                if lost_counters.get(
                    (dataset_id, id(backend))
                ) == counter and not backend.has_dataset(dataset_id):
                    counter = 0  # a lost copy's leftover: no copy carried it
                seen = max(counter, backend.dataset_tombstone(dataset_id))
                floor = floor_versions.get(dataset_id, 0)
                assert seen >= 0
                floor_versions[dataset_id] = max(floor, seen)
            # The read acceptance property, checked at EVERY step of the
            # timeline: a read serves at/past the router's floor, and may
            # refuse only when no reachable source holds a copy there.
            health = store.health_stats()
            streaks = health["consecutive_failures"]
            reachable = [spill] + [
                backend
                for shard_id, backend in store.shard_stores().items()
                if not backend.is_down
                and streaks.get(shard_id, 0) < health["failure_threshold"]
            ]
            for dataset_id in expected:
                known_floor = store._known_version_floor.get(dataset_id, 0)
                try:
                    _, served = store.fetch_dataset_with_version(dataset_id)
                except (StorageError, RuntimeError):
                    assert not any(
                        _held_at(source, dataset_id, known_floor)
                        for source in reachable
                    ), (
                        f"read of {dataset_id} refused although a reachable "
                        f"source holds a copy at the floor v{known_floor}"
                    )
                    continue
                assert served >= known_floor, (
                    f"read served {dataset_id} at v{served}, below the "
                    f"known floor v{known_floor}"
                )

        for backend in backends:
            backend.come_up()
        store.replicate()
        store.rebalance()
        store.replicate()

        for dataset_id, outcome in expected.items():
            if outcome is UNKNOWN:
                continue
            if outcome is None:
                assert not store.has_dataset(dataset_id)
                for backend in backends:
                    assert not backend.has_dataset(dataset_id), (
                        f"{dataset_id} resurrected on {backend!r}"
                    )
            elif isinstance(outcome, list) and dataset_id in spilled:
                fetched = store.fetch_dataset(dataset_id)
                assert tuple(sorted(fetched.edge_list())) in {
                    tuple(sorted(graph.edge_list())) for graph in outcome
                }
            elif isinstance(outcome, list):
                # A raced re-upload: every replica must converge on ONE
                # terminal version holding ONE of the contending graphs —
                # no split-brain copies, no resurrected loser above the
                # winner's version.
                holders = _live_holders(store, dataset_id)
                assert len(holders) == replicas
                versions = {
                    store.shard_stores()[shard_id].dataset_version(dataset_id)
                    for shard_id in holders
                }
                assert len(versions) == 1, (
                    f"raced {dataset_id} diverged: {versions}"
                )
                contents = {
                    tuple(
                        sorted(
                            store.shard_stores()[shard_id]
                            .fetch_dataset(dataset_id)
                            .edge_list()
                        )
                    )
                    for shard_id in holders
                }
                assert len(contents) == 1
                candidates = {
                    tuple(sorted(graph.edge_list())) for graph in outcome
                }
                assert contents.pop() in candidates
                current = versions.pop()
                assert current >= floor_versions.get(dataset_id, 0)
            else:
                assert isinstance(outcome, DirectedGraph)
                fetched = store.fetch_dataset(dataset_id)
                assert fetched.edge_list() == outcome.edge_list()
                if dataset_id not in spilled:
                    assert len(_live_holders(store, dataset_id)) == replicas
                # Version counters never moved backwards: the current copy
                # sits at (or past) every version any backend ever saw, so
                # no cache key minted earlier can be re-served.
                current = max(b.dataset_version(dataset_id) for b in backends)
                assert current >= floor_versions.get(dataset_id, 0)
