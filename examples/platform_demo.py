#!/usr/bin/env python3
"""End-to-end platform walk-through (Figure 1 and Figure 2 of the paper).

Drives the full system the way the web demo does:

1. list the pre-loaded datasets and algorithms through the API gateway;
2. build a query set in the Task Builder (Figure 2) and print its view;
3. submit the comparison to the scheduler / executor pool;
4. poll the Status component while the workers run;
5. fetch the results and the execution log (the comparison's job events,
   one line each) and render the comparison table — the same flow as steps
   1-5 of Section III;
6. kill a storage shard under a replicated gateway and watch the platform
   heal itself: the failure detector auto-marks the shard down, failover
   reads keep serving and enqueue read-repairs, and the recovered shard is
   marked back up — no manual intervention at any step;
7. follow one comparison through the observability layer: submit it,
   reconstruct its span waterfall from the recorded trace, and scrape the
   Prometheus ``/metrics`` exposition the gateway serves.

Run with::

    python examples/platform_demo.py
"""

from __future__ import annotations

import time

from repro.platform import ApiGateway, WebUI


class _KillableStore:
    """Minimal fault wrapper for the walkthrough: a killed shard raises.

    (The test suite's ``tests/faults.py`` library is the full-featured
    version of this; the example keeps its own five-liner so it runs
    standalone.)
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.killed = False

    def __getattr__(self, name):
        attribute = getattr(self._inner, name)
        if not callable(attribute):
            return attribute

        def call(*args, **kwargs):
            if self.killed:
                raise RuntimeError("shard process is dead")
            return attribute(*args, **kwargs)

        return call


def _wait_for(predicate, *, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def self_healing_walkthrough() -> None:
    """Step 6: kill a replicated shard and watch the platform heal itself."""
    from repro.datasets.catalog import DatasetCatalog
    from repro.graph.generators import reciprocal_communities_graph
    from repro.platform.datastore import DataStore
    from repro.platform.replication import ReplicatedShardedDataStore

    print("=" * 72)
    print("Self-healing storage: kill a shard, watch the platform recover")
    print("=" * 72)

    backends = [_KillableStore(DataStore()) for _ in range(4)]
    store = ReplicatedShardedDataStore(
        shards=backends,
        replicas=2,
        probe_failure_threshold=2,
        probe_transition_interval_seconds=0.05,
    )
    catalog = DatasetCatalog()
    catalog.register_graph(
        "communities",
        reciprocal_communities_graph(4, 8, seed=3),
        description="planted communities",
    )
    with ApiGateway(
        catalog=catalog, datastore=store, probe_interval_seconds=0.05
    ) as gateway:
        gateway.run_queries(
            [{"dataset_id": "communities", "algorithm": "pagerank"}],
            synchronous=True,
        )
        holders = store.replica_shards_for("communities")
        print(f"dataset replicated to {holders} (R=2, quorum acked)\n")

        victim_id = holders[0]
        victim = store.shard_stores()[victim_id]
        victim.killed = True
        print(f"-- killed {victim_id}, the dataset's primary --")

        graph = store.fetch_dataset("communities")
        print(f"failover read still serves all {graph.number_of_nodes()} nodes")

        _wait_for(lambda: victim_id in store.marked_down())
        print(f"failure detector auto-marked {victim_id} down "
              "(no mark_down call anywhere)")
        _wait_for(lambda: store.replication_stats()["underreplicated"] == 0)
        print("read-repair restored R copies among the survivors; "
              "underreplicated = 0")

        victim.killed = False
        print(f"-- restarted {victim_id} --")
        _wait_for(lambda: victim_id not in store.marked_down())
        print("probe marked the shard back up; health event log:")
        for event in gateway.health_events():
            print(f"  seq {event['seq']:3d}  {event['type']:10s}  "
                  f"{event['shard']} (streak {event['failures']})")


def observability_walkthrough() -> None:
    """Step 7: submit → follow the trace → scrape ``/metrics``."""
    print("=" * 72)
    print("Observability: trace one comparison, then scrape /metrics")
    print("=" * 72)

    with ApiGateway(num_workers=2) as gateway:
        # Submit: the gateway mints a trace id and stamps every job event
        # with it, so stream consumers can join events against the trace.
        comparison_id = gateway.run_queries(
            [
                {"dataset_id": "enwiki-2018", "algorithm": "pagerank",
                 "parameters": {"alpha": 0.85}},
                {"dataset_id": "enwiki-2018", "algorithm": "cheirank"},
            ],
            synchronous=True,
        )
        envelope = gateway.get_trace(comparison_id)
        print(f"comparison {comparison_id} finished; "
              f"trace {envelope['trace_id']} recorded "
              f"{envelope['trace']['span_count']} spans\n")

        # Follow the trace: the same tree GET /api/comparisons/<id>/trace
        # returns, rendered as the CLI --trace waterfall.
        print(WebUI(gateway).render_trace_waterfall(comparison_id))
        print()

        # Scrape: GET /metrics serves this text to a Prometheus collector.
        print("a /metrics scrape (histogram buckets elided):")
        for line in gateway.render_metrics().splitlines():
            if "_bucket{" in line:
                continue
            print(f"  {line}")


def main() -> None:
    with ApiGateway(num_workers=2) as gateway:
        ui = WebUI(gateway)

        print("Datasets available in the catalog (first 10 of 50):")
        for entry in gateway.list_datasets()[:10]:
            print(f"  - {entry['dataset_id']:24s} {entry['description']}")
        print(f"  ... and {len(gateway.list_datasets()) - 10} more\n")

        print("Algorithms available:")
        for entry in gateway.list_algorithms():
            kind = "personalized" if entry["personalized"] else "global"
            print(f"  - {entry['display_name']:22s} ({kind})")
        print()

        # Step 1: the Task Builder assembles the query set (Figure 2).
        query_set = gateway.new_query_set()
        gateway.add_query(query_set, "enwiki-2018", "cyclerank",
                          source="Fake news", parameters={"k": 3, "sigma": "exp"})
        gateway.add_query(query_set, "enwiki-2018", "pagerank",
                          parameters={"alpha": 0.3})
        gateway.add_query(query_set, "enwiki-2018", "personalized-pagerank",
                          source="Fake news", parameters={"alpha": 0.3})
        print(ui.render_task_builder(query_set))
        print()

        # Step 2-3: submit; the scheduler fetches the dataset and offloads the
        # computation to the executor pool.
        comparison_id = gateway.submit_comparison(query_set)
        print(f"Submitted comparison {comparison_id}; polling status ...")
        while True:
            progress = gateway.get_status(comparison_id)
            print(f"  {progress.describe()}")
            if progress.state.is_terminal():
                break
            time.sleep(0.1)
        print()

        # Step 4-5: the results and the execution log come back from the
        # comparison's job record and are rendered by the (text) Web UI.
        print(ui.render_results(comparison_id, k=5, show_scores=False))
        print()
        print("Execution log:")
        for line in gateway.get_logs(comparison_id):
            print(f"  {line}")
        print()

    # Step 6: the storage tier heals itself around a killed shard.
    self_healing_walkthrough()

    # Step 7: the observability layer explains where the time went.
    observability_walkthrough()


if __name__ == "__main__":
    main()
