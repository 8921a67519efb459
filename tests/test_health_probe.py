"""Failure-detector tests: probe-driven mark_down/mark_up, no flap-storms.

The replicated store runs a lightweight failure detector: real request
outcomes feed per-shard consecutive-failure streaks, periodic pings
(:meth:`~repro.platform.replication.ReplicatedShardedDataStore.probe_shards`)
cover shards that see no traffic, and F consecutive failures auto-mark a
shard down — a later successful probe marks it back up.  The streak is the
shard's one health state: at F no read, digest poll or failover hop touches
the shard until a success (a probe, a maintenance pass or an operator
``mark_up`` of a recovered shard) resets it.  No test in this file ever
calls ``mark_down``/``mark_up`` on a *failing* shard by hand: the
transitions the assertions observe are all automatic.  Flapping shards are
scripted through :class:`faults.ShardFlapper`, proving the transition rate
limit keeps a flapping backend from storming the topology epoch.
"""

from __future__ import annotations

import time

import pytest

from faults import FlakyStore, ShardFlapper, fault_rounds
from repro.exceptions import InvalidParameterError, StorageError
from repro.graph.generators import cycle_graph
from repro.platform.datastore import DataStore
from repro.platform.gateway import ApiGateway
from repro.platform.replication import ReplicatedShardedDataStore


def _build(num_shards=4, replicas=2, **kwargs):
    backends = [FlakyStore(DataStore()) for _ in range(num_shards)]
    store = ReplicatedShardedDataStore(
        shards=backends, replicas=replicas, **kwargs
    )
    return backends, store


def _wait_until(predicate, *, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestRequestDrivenDetection:
    def test_consecutive_read_failures_auto_mark_the_shard_down(self):
        backends, store = _build(
            probe_failure_threshold=3, probe_transition_interval_seconds=0
        )
        store.store_dataset("ds", cycle_graph(4))
        primary = store.replica_shards_for("ds")[0]
        store.shard_stores()[primary].fail_on(
            "fetch_dataset_with_version", times=None
        )
        # Reads keep succeeding through failover while the streak builds.
        for _ in range(3):
            assert store.fetch_dataset("ds") is not None
        assert primary in store.marked_down()
        health = store.health_stats()
        assert primary in health["auto_down"]
        assert health["auto_downs"] == 1
        # The marked-down shard is skipped entirely: no more errors accrue.
        store.fetch_dataset("ds")
        assert store.replication_stats()["shard_errors"][primary] == 3

    def test_a_single_blip_below_the_threshold_does_not_transition(self):
        backends, store = _build(probe_failure_threshold=3)
        store.store_dataset("ds", cycle_graph(4))
        primary = store.replica_shards_for("ds")[0]
        store.shard_stores()[primary].fail_on(
            "fetch_dataset_with_version", times=2
        )
        store.fetch_dataset("ds")
        store.fetch_dataset("ds")
        # Two failures, then a success: the streak resets before the
        # threshold, so the shard never transitions.
        store.fetch_dataset("ds")
        assert store.marked_down() == []
        assert store.health_stats()["consecutive_failures"] == {}
        assert store.health_stats()["auto_downs"] == 0


class TestProbeDrivenDetection:
    def test_probe_detects_a_silent_outage_and_recovery(self):
        backends, store = _build(
            probe_failure_threshold=2, probe_transition_interval_seconds=0
        )
        store.store_dataset("ds", cycle_graph(4))
        victim_id = store.replica_shards_for("ds")[0]
        store.shard_stores()[victim_id].go_down()
        # No request traffic at all: only the pings see the outage.
        assert store.probe_shards() == []
        transitions = store.probe_shards()
        assert (victim_id, "down") in transitions
        assert victim_id in store.marked_down()
        store.shard_stores()[victim_id].come_up()
        transitions = store.probe_shards()
        assert (victim_id, "up") in transitions
        assert store.marked_down() == []
        health = store.health_stats()
        assert health["auto_downs"] == 1
        assert health["auto_ups"] == 1

    def test_manual_mark_down_is_sticky_against_probes(self):
        backends, store = _build(probe_transition_interval_seconds=0)
        store.mark_down("shard-1")  # an operator call, shard is healthy
        for _ in range(3):
            assert store.probe_shards() == []
        # Probes never un-mark an operator decision.
        assert "shard-1" in store.marked_down()
        store.mark_up("shard-1")
        assert store.marked_down() == []

    def test_listeners_receive_typed_transitions(self):
        backends, store = _build(
            probe_failure_threshold=1, probe_transition_interval_seconds=0
        )
        seen = []
        store.add_health_listener(
            lambda shard, transition, streak: seen.append(
                (shard, transition, streak)
            )
        )
        backends[0].go_down()
        store.probe_shards()
        backends[0].come_up()
        store.probe_shards()
        shard_id = seen[0][0]
        assert seen == [(shard_id, "down", 1), (shard_id, "up", 0)]

    def test_probe_parameters_are_validated(self):
        with pytest.raises(InvalidParameterError):
            _build(probe_failure_threshold=0)
        with pytest.raises(InvalidParameterError):
            _build(probe_transition_interval_seconds=-1)
        with pytest.raises(InvalidParameterError):
            _build(read_repair_queue_limit=0)


class TestOneHealthState:
    """The failure streak decides alone whether a read may touch a shard."""

    #: Backend calls a read makes: the digest poll, then the data fetch.
    READ_CALLS = ("dataset_version", "has_dataset", "fetch_dataset_with_version")

    def _suspect(self, store, backend, shard_id):
        """Take ``backend`` down and read until the detector suspects it.

        Each read fails the shard at most twice (digest poll and fetch), so
        F = 3 failures take at most three reads.
        """
        backend.go_down()
        for _ in range(3):
            if shard_id in store.marked_down():
                break
            assert store.fetch_dataset("ds") is not None
        assert shard_id in store.marked_down()

    def test_a_suspected_shard_gets_no_reads_until_a_probe(self, monkeypatch):
        interval = 3600.0
        backends, store = _build(
            probe_failure_threshold=3,
            probe_transition_interval_seconds=interval,
            retry_max_attempts=1,
        )
        store.store_dataset("ds", cycle_graph(4))
        victim_id = store.replica_shards_for("ds")[0]
        victim = store.shard_stores()[victim_id]
        # A recent operator mark_up does not hold the next mark-down back.
        store.mark_up(victim_id)
        self._suspect(store, victim, victim_id)
        # F failures (digest poll, fetch, digest poll), then nothing more:
        # the read that hit F skipped the shard for its own fetch.
        assert store.replication_stats()["shard_errors"][victim_id] == 3
        frozen = [victim.calls[name] for name in self.READ_CALLS]
        # However long the shard stays quiet, no read offers it work: not
        # the digest round, not the walk, not the failover tail (a missing
        # key walks every source).  A live read is never a recovery probe.
        clock = time.monotonic
        monkeypatch.setattr(time, "monotonic", lambda: clock() + 2 * interval)
        for _ in range(fault_rounds(5)):
            assert store.fetch_dataset("ds") is not None
            with pytest.raises(StorageError):
                store.fetch_dataset("never-stored")
        assert [victim.calls[name] for name in self.READ_CALLS] == frozen
        # Only a successful probe brings the shard back.
        victim.come_up()
        assert (victim_id, "up") in store.probe_shards()
        assert store.fetch_dataset("ds") is not None
        assert victim.calls["fetch_dataset_with_version"] == frozen[2] + 1

    def test_operator_mark_up_serves_the_next_read_from_the_primary(self):
        backends, store = _build(
            probe_failure_threshold=3,
            probe_transition_interval_seconds=3600,
            retry_max_attempts=1,
        )
        store.store_dataset("ds", cycle_graph(4))
        primary = store.replica_shards_for("ds")[0]
        victim = store.shard_stores()[primary]
        for _ in range(fault_rounds(2)):
            self._suspect(store, victim, primary)
            victim.come_up()
            store.mark_up(primary)  # the operator restores the shard
            assert store.health_stats()["consecutive_failures"] == {}
            before = victim.calls["fetch_dataset_with_version"]
            failovers = store.replication_stats()["failover_reads"]
            assert store.fetch_dataset("ds") is not None
            assert victim.calls["fetch_dataset_with_version"] == before + 1
            assert store.replication_stats()["failover_reads"] == failovers

    def test_a_shard_re_added_under_the_same_id_starts_healthy(self):
        backends, store = _build(
            probe_failure_threshold=3,
            probe_transition_interval_seconds=3600,
            retry_max_attempts=1,
        )
        store.store_dataset("ds", cycle_graph(4))
        primary = store.replica_shards_for("ds")[0]
        for round_index in range(fault_rounds(2)):
            self._suspect(store, store.shard_stores()[primary], primary)
            store.remove_shard(primary)  # the operator replaces a dead shard
            fresh = FlakyStore(DataStore())
            assert store.add_shard(fresh, shard_id=primary) == primary
            health = store.health_stats()
            assert health["consecutive_failures"] == {}
            assert health["auto_down"] == []
            assert store.marked_down() == []
            assert primary not in store.replication_stats()["shard_errors"]
            # Reads reach the re-added shard at once, without a probe or a
            # maintenance pass: it answers the digest round, and after a
            # re-upload lands on it, it serves the read as the primary.
            assert store.fetch_dataset("ds") is not None
            assert fresh.calls["dataset_version"] == 1
            store.store_dataset("ds", cycle_graph(5 + round_index))
            failovers = store.replication_stats()["failover_reads"]
            graph = store.fetch_dataset("ds")
            assert len(graph) == 5 + round_index
            assert fresh.calls["fetch_dataset_with_version"] == 2
            assert store.replication_stats()["failover_reads"] == failovers


class TestFlapStormSuppression:
    def test_rapid_flapping_is_rate_limited(self):
        backends, store = _build(
            probe_failure_threshold=1,
            probe_transition_interval_seconds=3600,  # one transition, then hold
        )
        victim = backends[0]
        victim.go_down()
        assert len(store.probe_shards()) == 1  # the first transition lands
        for _ in range(fault_rounds(5)):
            victim.come_up()
            store.probe_shards()
            victim.go_down()
            store.probe_shards()
        health = store.health_stats()
        # One epoch bump total; every subsequent flip was suppressed.
        assert health["auto_downs"] == 1
        assert health["auto_ups"] == 0
        assert health["suppressed_transitions"] >= fault_rounds(5)
        assert len(health["auto_down"]) == 1

    def test_flapper_thread_cannot_storm_the_epoch(self):
        backends, store = _build(
            probe_failure_threshold=1,
            probe_transition_interval_seconds=10.0,
        )
        store.store_dataset("ds", cycle_graph(4))
        flaps = fault_rounds(30)
        with ShardFlapper(
            backends[0], cycles=flaps, down_for=0.002, up_for=0.002
        ):
            deadline = time.monotonic() + 0.3
            while time.monotonic() < deadline:
                store.probe_shards()
        health = store.health_stats()
        # Dozens of flaps; at most the initial down (and, after the
        # interval, one up) may land — far below the flap count.
        assert health["auto_downs"] + health["auto_ups"] <= 2


class TestGatewayHealthSurface:
    @pytest.fixture
    def catalog(self, community_graph):
        from repro.datasets.catalog import DatasetCatalog

        catalog = DatasetCatalog()
        catalog.register_graph("toy", community_graph, description="communities")
        return catalog

    def test_prober_marks_down_and_up_with_typed_events(self, catalog):
        backends = [FlakyStore(DataStore()) for _ in range(4)]
        store = ReplicatedShardedDataStore(
            shards=backends,
            replicas=2,
            probe_failure_threshold=2,
            probe_transition_interval_seconds=0.02,
        )
        with ApiGateway(
            catalog=catalog, datastore=store, probe_interval_seconds=0.01
        ) as gateway:
            backends[0].go_down()
            assert _wait_until(lambda: "shard-0" in store.marked_down())
            backends[0].come_up()
            assert _wait_until(lambda: store.marked_down() == [])
            events = gateway.health_events()
            kinds = [(event["type"], event["shard"]) for event in events]
            assert ("shard_down", "shard-0") in kinds
            assert ("shard_up", "shard-0") in kinds
            down = next(e for e in events if e["type"] == "shard_down")
            assert down["failures"] >= 2
            # The cursor works like every other event stream.
            assert gateway.health_events(after=events[-1]["seq"]) == []
            stats = gateway.get_platform_stats()
            health = stats["shards"]["health"]
            assert health["auto_downs"] >= 1
            assert health["auto_ups"] >= 1
            assert stats["shards"]["replication"]["marked_down"] == []

    def test_probe_interval_zero_disables_the_prober(self, catalog):
        with ApiGateway(
            catalog=catalog, shards=3, replicas=2, probe_interval_seconds=0
        ) as gateway:
            assert gateway._prober is None
        with pytest.raises(InvalidParameterError):
            ApiGateway(catalog=catalog, shards=3, replicas=2,
                       probe_interval_seconds=-0.5)
