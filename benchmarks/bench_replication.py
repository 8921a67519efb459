"""Replicated storage tier: the cost of R copies and of failover reads.

The storage-tier trajectory for the replication PR: the same dataset/result
workload is pushed through the sharded store at ``R=1`` (the PR-3 placement)
and ``R=2`` (quorum-acked writes), then one shard is marked down and every
dataset is read back through the failover path, and finally the datasets are
spilled to the file tier and read through it.  A gateway-level check asserts
the replicated topology serves rankings **bit-identical** to a single-store
gateway on a mixed comparison workload.  A ``quorum_reads`` section prices
the digest-first read every dataset read runs and proves the acceptance
bar: zero below-floor serves during a scripted outage that leaves every
primary stale.

The measured write/read latencies are written to
``benchmarks/output/BENCH_replication.json`` so future storage PRs can diff
the replication overhead and the failover penalty.  Set ``REPRO_BENCH_NODES``
to shrink the graph (the CI smoke run uses 1000).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.datasets.catalog import DatasetCatalog
from repro.graph.generators import preferential_attachment_graph
from repro.platform.datastore import DataStore
from repro.platform.gateway import ApiGateway
from repro.platform.replication import ReplicatedShardedDataStore
from repro.version import __version__

from _harness import write_report

NUM_NODES = int(os.environ.get("REPRO_BENCH_NODES", "4000"))
NUM_DATASETS = 12
NUM_RESULTS = 48
NUM_SHARDS = 4
NUM_WORKERS = 4


@pytest.fixture(scope="module")
def bench_graph():
    graph = preferential_attachment_graph(
        NUM_NODES, out_degree=6, reciprocation_probability=0.3, seed=11,
        name=f"replication-bench-{NUM_NODES}",
    )
    for node in range(graph.number_of_nodes()):
        graph.set_label(node, f"n{node}")
    return graph


def _summary(seconds):
    ordered = sorted(seconds)
    return {
        "mean": float(np.mean(ordered)),
        "p50": float(ordered[len(ordered) // 2]),
        "max": float(ordered[-1]),
        "total": float(np.sum(ordered)),
    }


def _timed(operation, items):
    seconds = []
    for item in items:
        started = time.perf_counter()
        operation(item)
        seconds.append(time.perf_counter() - started)
    return seconds


def _store_trajectory(graph, replicas, tmp_dir):
    # Result copies are files, so each shard gets a result directory.
    store = ReplicatedShardedDataStore(
        shards=[
            DataStore(tmp_dir / f"shard-r{replicas}-{index}") for index in range(NUM_SHARDS)
        ],
        replicas=replicas,
        spill_dir=str(tmp_dir / f"spill-r{replicas}"),
    )
    dataset_ids = [f"bench-{index}" for index in range(NUM_DATASETS)]
    result_ids = [f"result-{index}" for index in range(NUM_RESULTS)]
    payload = {"rows": list(range(64)), "state": "completed"}

    dataset_writes = _timed(lambda did: store.store_dataset(did, graph), dataset_ids)
    result_writes = _timed(lambda rid: store.put_result(rid, payload), result_ids)
    primary_reads = _timed(store.fetch_dataset, dataset_ids)

    # Failover: mark one data-holding shard down and read everything back.
    victim = next(
        shard_id
        for shard_id, backend in store.shard_stores().items()
        if backend.occupancy()["datasets"] > 0
    )
    store.mark_down(victim)
    failover_reads = _timed(store.fetch_dataset, dataset_ids)
    for dataset_id in dataset_ids:
        assert store.fetch_dataset(dataset_id).number_of_edges() == (
            graph.number_of_edges()
        )
    for result_id in result_ids:
        assert store.get_result(result_id) == payload
    store.mark_up(victim)

    # Spill everything to the file tier and read through it.
    spill_started = time.perf_counter()
    spilled = store.spill(max_resident=0)
    spill_seconds = time.perf_counter() - spill_started
    spill_reads = _timed(store.fetch_dataset, dataset_ids)

    return {
        "replicas": replicas,
        "quorum": store.quorum,
        "dataset_write_seconds": _summary(dataset_writes),
        "result_write_seconds": _summary(result_writes),
        "primary_read_seconds": _summary(primary_reads),
        "failover_read_seconds": _summary(failover_reads),
        "spilled_datasets": len(spilled),
        "spill_wall_seconds": spill_seconds,
        "spill_read_seconds": _summary(spill_reads),
        "failover_reads_counted": store.replication_stats()["failover_reads"],
    }


def _read_repair_convergence(graph):
    """Time single-key read-repair convergence against a full replicate scan.

    A handful of keys lose one replica copy; reading them back fails over
    and enqueues exactly those keys, and one drain restores R copies —
    ``underreplicated`` reaches 0 without scanning the other datasets.  The
    full-scan wall time over the (already converged) ring is recorded
    alongside as the cost the targeted drain avoided.
    """
    store = ReplicatedShardedDataStore(num_shards=NUM_SHARDS, replicas=2)
    dataset_ids = [f"bench-{index}" for index in range(NUM_DATASETS)]
    for dataset_id in dataset_ids:
        store.store_dataset(dataset_id, graph)

    victims = dataset_ids[: max(2, NUM_DATASETS // 4)]
    for dataset_id in victims:
        primary = store.replica_shards_for(dataset_id)[0]
        store.shard_stores()[primary].drop_dataset(dataset_id)
    failover_reads = _timed(store.fetch_dataset, victims)
    assert store.pending_read_repairs() == len(victims)

    drain_started = time.perf_counter()
    outcome = store.drain_read_repairs()
    drain_seconds = time.perf_counter() - drain_started
    assert outcome["drained"] == len(victims)
    assert store.replication_stats()["underreplicated"] == 0

    scan_started = time.perf_counter()
    scan = store.replicate()
    scan_seconds = time.perf_counter() - scan_started
    assert scan["datasets_repaired"] == 0  # the drain already converged

    return {
        "datasets": NUM_DATASETS,
        "repaired_keys": outcome["drained"],
        "repaired_copies": outcome["repaired"],
        "failover_read_seconds": _summary(failover_reads),
        "drain_wall_seconds": drain_seconds,
        "full_scan_wall_seconds": scan_seconds,
        "read_repairs_counted": store.replication_stats()["read_repairs"],
    }


def _quorum_read_trajectory(graph):
    """Price the digest-first read and prove it never serves below the floor.

    Every dataset read on the ring opens with a version-digest round.  The
    workload reads over a healthy ring (the steady-state read latency,
    digest round included), then over a scripted staleness topology: every
    dataset's primary sleeps through a re-upload and wakes holding the
    below-floor copy.  The read must serve **zero** below-floor copies.
    """
    dataset_ids = [f"bench-{index}" for index in range(NUM_DATASETS)]
    store = ReplicatedShardedDataStore(num_shards=NUM_SHARDS, replicas=2)
    for dataset_id in dataset_ids:
        store.store_dataset(dataset_id, graph)
    healthy_reads = _timed(store.fetch_dataset, dataset_ids)

    # Scripted staleness: the primary misses the re-upload (hinted handoff
    # lands v2 on the survivors) and comes back holding v1.
    for dataset_id in dataset_ids:
        primary = store.replica_shards_for(dataset_id)[0]
        store.mark_down(primary)
        store.store_dataset(dataset_id, graph)
        store.mark_up(primary)

    stale_serves = 0
    stale_topology_reads = []
    for dataset_id in dataset_ids:
        started = time.perf_counter()
        _, version = store.fetch_dataset_with_version(dataset_id)
        stale_topology_reads.append(time.perf_counter() - started)
        if version < 2:
            stale_serves += 1
    stats = store.replication_stats()
    section = {
        "healthy_read_seconds": _summary(healthy_reads),
        "stale_topology_read_seconds": _summary(stale_topology_reads),
        "stale_serves": stale_serves,
        "digest_reads": stats["digest_reads"],
        "stale_reads_prevented": stats["stale_reads_prevented"],
        "version_conflicts_resolved": stats["version_conflicts_resolved"],
    }

    # The acceptance bar: zero below-floor serves during the scripted
    # outage, and every read ran its digest round.
    assert section["stale_serves"] == 0
    assert section["digest_reads"] >= NUM_DATASETS
    return section


def _gateway_rankings(graph, *, replicas):
    catalog = DatasetCatalog()
    catalog.register_graph("bench", graph, description="replication bench")
    sources = [f"n{node}" for node in range(4)]
    queries = [
        {"dataset_id": "bench", "algorithm": "personalized-pagerank", "source": s}
        for s in sources
    ] + [{"dataset_id": "bench", "algorithm": "pagerank"}]
    kwargs = {"shards": NUM_SHARDS, "replicas": replicas} if replicas else {}
    with ApiGateway(catalog=catalog, num_workers=NUM_WORKERS, **kwargs) as gateway:
        comparison = gateway.run_queries(queries, synchronous=True)
        return [ranking.scores for ranking in gateway.get_rankings(comparison)]


@pytest.mark.benchmark(group="replication")
def test_bench_replication_trajectory(bench_graph, tmp_path):
    """Measure R=1 vs R=2 storage cost and write BENCH_replication.json."""
    single = _store_trajectory(bench_graph, 1, tmp_path)
    replicated = _store_trajectory(bench_graph, 2, tmp_path)
    read_repair = _read_repair_convergence(bench_graph)
    quorum_reads = _quorum_read_trajectory(bench_graph)

    # Correctness before timing claims: the replicated gateway serves
    # rankings bit-identical to the single-store gateway.
    baseline = _gateway_rankings(bench_graph, replicas=None)
    with_replicas = _gateway_rankings(bench_graph, replicas=2)
    assert len(baseline) == len(with_replicas)
    for expected, actual in zip(baseline, with_replicas):
        assert np.array_equal(expected, actual)

    # Failover reads answered correct data for every key (asserted inside
    # the trajectory) and were actually counted as failovers.
    assert replicated["failover_reads_counted"] > 0

    # R=2 writes do ~2x the work; the dataset-write overhead must stay in
    # the same order of magnitude (generous bound for shared CI runners).
    overhead = (
        replicated["dataset_write_seconds"]["total"]
        / max(single["dataset_write_seconds"]["total"], 1e-9)
    )
    assert overhead < 10.0, f"replication write overhead blew up: {overhead:.1f}x"

    payload = {
        "benchmark": "replication",
        "version": __version__,
        "graph": {
            "generator": "preferential_attachment_graph",
            "nodes": bench_graph.number_of_nodes(),
            "edges": bench_graph.number_of_edges(),
        },
        "workload": {
            "datasets": NUM_DATASETS,
            "results": NUM_RESULTS,
            "shards": NUM_SHARDS,
        },
        "single": single,
        "replicated": replicated,
        "read_repair": read_repair,
        "quorum_reads": quorum_reads,
        "write_overhead_r2_vs_r1": overhead,
    }
    write_report("BENCH_replication.json", json.dumps(payload, indent=2))
