"""Overload-protection tests: deadlines, admission control and retry
budgets.

The scenarios mirror the operator's failure drills:

- a submission whose deadline passes while it queues settles with a typed
  ``deadline_exceeded`` event and never occupies a worker;
- an over-budget gateway sheds *before* enqueueing (HTTP 429 with a
  Retry-After hint) and never drops or cancels accepted work;
- a full shard outage costs at most ``sources + retry budget`` backend
  calls — retry amplification is capped by the shared token bucket.

A shard that keeps failing leaves every read through the failure detector;
``test_health_probe.py`` covers that.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from conftest import register_gated_algorithm
from faults import FlakyStore
from repro.algorithms import registry as algorithm_registry
from repro.datasets.catalog import DatasetCatalog
from repro.exceptions import (
    DeadlineExceededError,
    GatewayOverloadedError,
    StorageError,
)
from repro.platform.datastore import DataStore
from repro.platform.gateway import ApiGateway
from repro.platform.replication import ReplicatedShardedDataStore
from repro.platform.resilience import (
    AdmissionController,
    Deadline,
    TokenBucket,
    deadline_scope,
    estimate_cost,
)
from repro.platform.restapi import RestApiServer
from repro.platform.tasks import Query, TaskState


def _wait_until(predicate, *, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def catalog(community_graph):
    catalog = DatasetCatalog()
    catalog.register_graph("toy", community_graph, description="communities")
    return catalog


@pytest.fixture
def gate_pair():
    gates = [register_gated_algorithm("gated-a"), register_gated_algorithm("gated-b")]
    try:
        yield gates
    finally:
        for _, release in gates:
            release.set()
        algorithm_registry._REGISTRY.pop("gated-a", None)
        algorithm_registry._REGISTRY.pop("gated-b", None)


# --------------------------------------------------------------------------- #
# primitives
# --------------------------------------------------------------------------- #
class TestPrimitives:
    def test_deadline_validation_and_expiry(self):
        with pytest.raises(ValueError):
            Deadline.from_ms(0)
        with pytest.raises(ValueError):
            Deadline.from_ms(-5)
        with pytest.raises((TypeError, ValueError)):
            Deadline.from_ms(True)
        deadline = Deadline.from_ms(1)
        time.sleep(0.005)
        assert deadline.expired()
        assert deadline.remaining() <= 0.0
        with pytest.raises(DeadlineExceededError):
            deadline.raise_if_expired("unit test")

    def test_deadline_scope_nests_and_restores(self):
        from repro.platform.resilience import current_deadline

        outer = Deadline.from_ms(60_000)
        inner = Deadline.from_ms(30_000)
        assert current_deadline() is None
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_token_bucket_denies_once_drained(self):
        bucket = TokenBucket(2, refill_per_second=0.0)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        stats = bucket.stats()
        assert stats["granted"] == 2
        assert stats["denied"] == 1

    def test_admission_retry_after_scales_with_overshoot(self):
        admission = AdmissionController(max_cost=2, retry_after_seconds=1.0)
        admitted, _ = admission.try_admit(2)
        assert admitted
        shed_small = admission.try_admit(2)
        shed_large = admission.try_admit(40)
        assert not shed_small[0] and not shed_large[0]
        assert shed_large[1] > shed_small[1]
        assert shed_large[1] <= 8.0  # clamped at 8x the base
        admission.release(2)
        assert admission.stats()["inflight_cost"] == 0

    def test_estimate_cost_weights_heavy_algorithms(self):
        cheap = [Query(dataset_id="d", algorithm="pagerank")]
        heavy = [Query(dataset_id="d", algorithm="cyclerank", source="x")]
        assert estimate_cost(heavy) > estimate_cost(cheap)


# --------------------------------------------------------------------------- #
# deadlines end to end
# --------------------------------------------------------------------------- #
class TestDeadlines:
    def test_expired_submission_settles_typed_without_a_worker(
        self, catalog, gate_pair
    ):
        (started_a, release_a), (started_b, _release_b) = gate_pair
        with ApiGateway(catalog=catalog, num_workers=1) as gateway:
            blocker = gateway.run_queries(
                [{"dataset_id": "toy", "algorithm": "gated-a", "source": "c0-n0"}],
                synchronous=False,
            )
            assert started_a.wait(timeout=10.0)
            # The only worker is occupied; this submission's 50ms deadline
            # will pass while it queues.
            doomed = gateway.run_queries(
                [{"dataset_id": "toy", "algorithm": "gated-b", "source": "c0-n0"}],
                synchronous=False,
                deadline_ms=50,
            )
            time.sleep(0.15)
            release_a.set()
            job = gateway.scheduler.jobs.get(doomed)
            assert job.wait_done(10.0)
            progress = gateway.get_status(doomed)
            assert progress.state is TaskState.FAILED
            assert "deadline" in (progress.error or "")
            events = gateway.get_events(doomed, after=0, timeout=0.0)
            kinds = [event["type"] for event in events]
            assert "deadline_exceeded" in kinds
            # Settled before dispatch: the group never reached an executor.
            assert "query_started" not in kinds
            assert not started_b.is_set()
            # The blocker was untouched by its neighbour's deadline.
            assert gateway.get_status(blocker).state is TaskState.COMPLETED
            stats = gateway.get_platform_stats()["overload"]["deadlines"]
            assert stats["deadline_exceeded"] == 1

    def test_default_deadline_applies_to_every_submission(self, catalog, gate_pair):
        (started_a, release_a), _ = gate_pair
        with ApiGateway(
            catalog=catalog, num_workers=1, default_deadline_ms=50
        ) as gateway:
            blocker = gateway.run_queries(
                [{"dataset_id": "toy", "algorithm": "gated-a", "source": "c0-n0"}],
                synchronous=False,
                deadline_ms=60_000,  # the explicit value overrides the default
            )
            assert started_a.wait(timeout=10.0)
            doomed = gateway.run_queries(
                [{"dataset_id": "toy", "algorithm": "pagerank"}], synchronous=False
            )
            time.sleep(0.15)
            release_a.set()
            assert gateway.scheduler.jobs.get(doomed).wait_done(10.0)
            assert gateway.get_status(doomed).state is TaskState.FAILED
            assert gateway.scheduler.jobs.get(blocker).wait_done(10.0)
            assert gateway.get_status(blocker).state is TaskState.COMPLETED

    def test_deadline_bounds_read_failover(self):
        backends = [FlakyStore(DataStore()) for _ in range(4)]
        store = ReplicatedShardedDataStore(
            shards=backends,
            replicas=2,
            retry_max_attempts=1,
        )
        from repro.graph.generators import cycle_graph

        store.store_dataset("ds", cycle_graph(4))
        primary = store.replica_shards_for("ds")[0]
        store.shard_stores()[primary].go_down()
        expired = Deadline.from_ms(1)
        time.sleep(0.005)
        # The first source is always consulted; once it fails, an expired
        # caller deadline stops the failover walk with a typed error.
        with deadline_scope(expired):
            with pytest.raises(DeadlineExceededError):
                store.fetch_dataset("ds")


# --------------------------------------------------------------------------- #
# admission control
# --------------------------------------------------------------------------- #
class TestAdmissionControl:
    def test_over_budget_submission_is_shed_before_enqueue(
        self, catalog, gate_pair
    ):
        (started_a, release_a), _ = gate_pair
        with ApiGateway(
            catalog=catalog,
            num_workers=1,
            admission_max_cost=1,
            admission_retry_after_seconds=0.25,
        ) as gateway:
            accepted = gateway.run_queries(
                [{"dataset_id": "toy", "algorithm": "gated-a", "source": "c0-n0"}],
                synchronous=False,
            )
            assert started_a.wait(timeout=10.0)
            with pytest.raises(GatewayOverloadedError) as excinfo:
                gateway.run_queries(
                    [{"dataset_id": "toy", "algorithm": "pagerank"}],
                    synchronous=False,
                )
            assert excinfo.value.retry_after > 0
            shed = gateway.shed_events()
            assert len(shed) == 1
            assert shed[0]["type"] == "shed"
            stats = gateway.get_platform_stats()["overload"]["admission"]
            assert stats["shed"] == 1
            assert stats["admitted"] == 1
            # Shedding never cancels accepted work.
            release_a.set()
            assert gateway.scheduler.jobs.get(accepted).wait_done(10.0)
            assert gateway.get_status(accepted).state is TaskState.COMPLETED
            # Its completion released the reservation: the gateway admits again.
            assert _wait_until(
                lambda: gateway.get_platform_stats()["overload"]["admission"][
                    "inflight_cost"
                ]
                == 0
            )
            retry = gateway.run_queries(
                [{"dataset_id": "toy", "algorithm": "pagerank"}], synchronous=True
            )
            assert gateway.get_status(retry).state is TaskState.COMPLETED

    def test_expensive_submission_admitted_when_idle(self, catalog):
        # CycleRank's estimated cost (4) alone exceeds a budget of 1, but
        # admission is work-conserving: an idle gateway must admit it —
        # shedding would starve the request forever, since every retry
        # would find the same empty gateway and the same verdict.
        with ApiGateway(catalog=catalog, admission_max_cost=1) as gateway:
            job = gateway.run_queries(
                [
                    {
                        "dataset_id": "toy",
                        "algorithm": "cyclerank",
                        "source": "c0-n0",
                    }
                ],
                synchronous=True,
            )
            assert gateway.get_status(job).state is TaskState.COMPLETED
            stats = gateway.get_platform_stats()["overload"]["admission"]
            assert stats["admitted"] == 1
            assert stats["shed"] == 0

    def test_failed_submission_releases_its_reservation(self, catalog):
        with ApiGateway(catalog=catalog, admission_max_cost=1) as gateway:
            with pytest.raises(Exception):
                # An unknown dataset fails at submission; the reservation
                # must not leak.
                gateway.run_queries(
                    [{"dataset_id": "missing", "algorithm": "pagerank"}],
                    synchronous=True,
                )
            stats = gateway.get_platform_stats()["overload"]["admission"]
            assert stats["inflight_cost"] == 0


# --------------------------------------------------------------------------- #
# REST surface: 429 + Retry-After, event streams stay correct while shedding
# --------------------------------------------------------------------------- #
class TestRestShedding:
    def test_429_with_retry_after_and_live_event_streams(
        self, catalog, gate_pair
    ):
        (started_a, release_a), _ = gate_pair
        gateway = ApiGateway(
            catalog=catalog,
            num_workers=1,
            admission_max_cost=1,
            admission_retry_after_seconds=0.25,
        )
        with RestApiServer(gateway) as server:
            def post(payload):
                request = urllib.request.Request(
                    server.url + "/api/comparisons",
                    data=json.dumps(payload).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=30) as response:
                    return response.status, json.loads(response.read().decode())

            status, created = post(
                {
                    "queries": [
                        {
                            "dataset_id": "toy",
                            "algorithm": "gated-a",
                            "source": "c0-n0",
                        }
                    ],
                    "synchronous": False,
                }
            )
            assert status == 201
            assert started_a.wait(timeout=10.0)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(
                    {
                        "queries": [
                            {"dataset_id": "toy", "algorithm": "pagerank"}
                        ],
                        "synchronous": False,
                    }
                )
            error = excinfo.value
            assert error.code == 429
            assert int(error.headers["Retry-After"]) >= 1
            body = json.loads(error.read().decode("utf-8"))
            error.close()
            assert body["shed"] is True
            assert body["retry_after"] > 0
            # The accepted job's long-poll cursor still answers while the
            # gateway sheds new work.
            comparison_id = created["comparison_id"]
            with urllib.request.urlopen(
                server.url
                + f"/api/comparisons/{comparison_id}/events?after=0&timeout=0",
                timeout=10,
            ) as response:
                payload = json.loads(response.read().decode("utf-8"))
            assert [e["type"] for e in payload["events"]][0] == "submitted"
            release_a.set()
            with urllib.request.urlopen(
                server.url
                + f"/api/comparisons/{comparison_id}/events?after=0&timeout=10",
                timeout=30,
            ) as response:
                payload = json.loads(response.read().decode("utf-8"))
            kinds = [e["type"] for e in payload["events"]]
            assert "shed" not in kinds  # shed events live on the overload job
            with urllib.request.urlopen(
                server.url + "/api/stats", timeout=10
            ) as response:
                stats = json.loads(response.read().decode("utf-8"))
            assert stats["overload"]["admission"]["shed"] == 1
        gateway.shutdown()

    def test_deadline_ms_in_the_post_body_is_honoured(self, catalog):
        gateway = ApiGateway(catalog=catalog)
        with RestApiServer(gateway) as server:
            request = urllib.request.Request(
                server.url + "/api/comparisons",
                data=json.dumps(
                    {
                        "queries": [
                            {"dataset_id": "toy", "algorithm": "pagerank"}
                        ],
                        "synchronous": True,
                        "deadline_ms": 60_000,
                    }
                ).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 201
            # An invalid deadline is a 400, not a crash.
            bad = urllib.request.Request(
                server.url + "/api/comparisons",
                data=json.dumps(
                    {
                        "queries": [
                            {"dataset_id": "toy", "algorithm": "pagerank"}
                        ],
                        "deadline_ms": -5,
                    }
                ).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(bad, timeout=30)
            assert excinfo.value.code == 400
            excinfo.value.close()
        gateway.shutdown()


# --------------------------------------------------------------------------- #
# retry budget: bounded amplification during a full shard outage
# --------------------------------------------------------------------------- #
class TestRetryBudget:
    def _build(self, **kwargs):
        backends = [FlakyStore(DataStore()) for _ in range(4)]
        store = ReplicatedShardedDataStore(
            shards=backends,
            replicas=2,
            retry_base_delay_seconds=0.0,
            retry_max_delay_seconds=0.0,
            **kwargs,
        )
        return backends, store

    def test_full_outage_spends_at_most_the_budget(self):
        budget = 2
        backends, store = self._build(
            retry_max_attempts=3,
            retry_budget_capacity=budget,
            retry_budget_refill_per_second=0.0,
        )
        from repro.graph.generators import cycle_graph

        store.store_dataset("ds", cycle_graph(4))
        for backend in backends:
            backend.go_down()
        # A dataset read is a version-digest round over the R successors,
        # then the failover walk: both are backend attempts under the
        # shared retry policy (a down shard fails the digest's first call).
        methods = ("dataset_version", "fetch_dataset_with_version")

        def calls():
            return [[b.calls[method] for method in methods] for b in backends]

        before = calls()
        with pytest.raises(StorageError):
            store.fetch_dataset("ds")
        attempts = sum(map(sum, calls())) - sum(map(sum, before))
        polls = store.replicas
        sources = len(backends)  # every shard is consulted during failover
        # The acceptance bound: first attempts are free, every *retry*
        # must win a budget token — amplification is capped.
        assert attempts <= polls + sources + budget
        retries = store.retry_policy.stats()
        assert retries["retries_spent"] <= budget
        assert retries["budget"]["denied"] >= 1
        # The budget is spent (refill 0): the next read makes each attempt
        # exactly once — no shard sees a second call of either kind.  The
        # digest failures may have marked shards down, so the walk can skip
        # a shard outright.
        before = calls()
        with pytest.raises(StorageError):
            store.fetch_dataset("ds")
        for now, then in zip(calls(), before):
            assert all(0 <= a - b <= 1 for a, b in zip(now, then))
        assert store.retry_policy.stats()["retries_spent"] == retries["retries_spent"]

    def test_transient_write_fault_is_retried_in_place(self):
        backends, store = self._build(retry_max_attempts=3)
        from repro.graph.generators import cycle_graph

        store.store_dataset("ds", cycle_graph(4))
        primary = store.replica_shards_for("ds")[0]
        store.shard_stores()[primary].fail_on("store_dataset", times=1)
        # The one-shot fault is absorbed by the in-place retry: the write
        # still lands on all R replicas.
        store.store_dataset("ds", cycle_graph(5))
        assert store.retry_policy.stats()["retries_spent"] >= 1
        assert store.replication_stats()["degraded_writes"] == 0

    def test_absence_is_never_retried(self):
        backends, store = self._build(retry_max_attempts=3)
        before = sum(sum(b.calls.values()) for b in backends)
        with pytest.raises(StorageError):
            store.fetch_dataset("never-stored")
        # One probe per source in the plan; StorageError (absence) does not
        # consume retry attempts.
        assert store.retry_policy.stats()["retries_spent"] == 0

    def test_gateway_surfaces_storage_counters(self, catalog):
        backends = [FlakyStore(DataStore()) for _ in range(3)]
        store = ReplicatedShardedDataStore(shards=backends, replicas=2)
        with ApiGateway(
            catalog=catalog, datastore=store, probe_interval_seconds=0
        ) as gateway:
            stats = gateway.get_platform_stats()["overload"]["storage"]
            assert "breakers" not in stats
            assert "retries" in stats
            assert stats["stale_reads_prevented"] == 0


# --------------------------------------------------------------------------- #
# stale-read detection (satellite)
# --------------------------------------------------------------------------- #
class TestStaleReads:
    def test_failover_read_below_the_version_floor_is_counted_and_repaired(self):
        backends = [FlakyStore(DataStore()) for _ in range(4)]
        store = ReplicatedShardedDataStore(
            shards=backends,
            replicas=3,
            retry_max_attempts=1,
        )
        from repro.graph.generators import cycle_graph

        store.store_dataset("ds", cycle_graph(4))
        primary = store.replica_shards_for("ds")[0]
        victim = store.shard_stores()[primary]
        victim.go_down()
        # The re-upload reaches a quorum without the primary: the caller now
        # knows version 2 exists, while the primary still holds version 1.
        store.store_dataset("ds", cycle_graph(5))
        victim.come_up()
        # The primary answers first with its pre-outage copy: the read
        # withholds it, counts it and serves the floor from a replica.
        graph, version = store.fetch_dataset_with_version("ds")
        assert version == 2
        assert len(graph) == 5
        stats = store.replication_stats()
        assert stats["stale_reads_prevented"] == 1
        assert stats["repair_queue"] >= 1
        assert victim.dataset_version("ds") == 1
        # Read-repair converges the primary back onto the floor.
        store.drain_read_repairs()
        assert victim.dataset_version("ds") == 2
        graph, version = store.fetch_dataset_with_version("ds")
        assert version == 2
        assert len(graph) == 5

    def test_reads_at_or_above_the_floor_are_not_stale(self):
        backends = [FlakyStore(DataStore()) for _ in range(3)]
        store = ReplicatedShardedDataStore(shards=backends, replicas=2)
        from repro.graph.generators import cycle_graph

        store.store_dataset("ds", cycle_graph(4))
        store.store_dataset("ds", cycle_graph(5))
        for _ in range(3):
            store.fetch_dataset_with_version("ds")
        assert store.replication_stats()["stale_reads_prevented"] == 0


# --------------------------------------------------------------------------- #
# CLI client honours the shed hints (satellite)
# --------------------------------------------------------------------------- #
class TestCliShedding:
    def test_no_retry_fails_fast(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "amazon-books",
                "pagerank",
                "--admission-budget",
                "0",
                "--no-retry",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "over admission budget" in captured.err
        assert "retrying" not in captured.err

    def test_bounded_retries_honour_the_hint(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "amazon-books",
                "pagerank",
                "--admission-budget",
                "0",
                "--shed-retries",
                "2",
                "--admission-retry-after",
                "0.01",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("submission shed") == 2

    def test_overload_flags_are_validated(self, capsys):
        from repro.cli import main

        assert main(["run", "amazon-books", "pagerank", "--deadline-ms", "0"]) == 2
        assert (
            main(["run", "amazon-books", "pagerank", "--admission-budget", "-1"])
            == 2
        )
