"""Shared fixtures for the test suite.

The fixtures build small, fully-understood graphs (a triangle, a two-cycle
star, a DAG, a planted-community graph) plus scaled-down instances of the
synthetic datasets, so individual tests stay fast while still exercising the
same code paths as the full-size benchmarks.
"""

from __future__ import annotations

import os

import pytest

# Re-exported for suites that historically imported the fault helpers from
# conftest; the scenario library itself now lives in tests/faults.py.
from faults import DownShard, FlakyStore  # noqa: F401

from repro.datasets.amazon import generate_amazon_graph
from repro.datasets.twitter import generate_twitter_graph
from repro.datasets.wikipedia import generate_wikilink_graph
from repro.graph.digraph import DirectedGraph
from repro.graph.generators import (
    cycle_graph,
    layered_dag,
    reciprocal_communities_graph,
    star_graph,
)


@pytest.fixture(scope="session", autouse=True)
def _sharded_default_datastore():
    """Run every default-datastore gateway on the ring store when asked.

    With ``REPRO_TEST_SHARDS=N`` and/or ``REPRO_TEST_REPLICAS=R`` in the
    environment, any :class:`~repro.platform.gateway.ApiGateway` built
    without an explicit ``datastore`` gets a
    :class:`~repro.platform.replication.ReplicatedShardedDataStore` instead
    of a single :class:`DataStore`: N backends (``max(R + 1, 3)`` when only
    R is set) keeping R copies per key (``1`` when only N is set, the
    unreplicated ring).  Every ring dataset read is a version-quorum read,
    so there is no read-mode axis.  CI runs the platform suite at R=1 on 4
    shards and at R=2 so both stay green; locally the suite runs on a
    single store unless a variable is set.
    """
    num_shards = int(os.environ.get("REPRO_TEST_SHARDS", "0") or 0)
    replicas = int(os.environ.get("REPRO_TEST_REPLICAS", "0") or 0)
    if num_shards <= 0 and replicas <= 0:
        yield
        return
    from repro.platform import gateway as gateway_module
    from repro.platform.replication import ReplicatedShardedDataStore

    original = gateway_module.DataStore
    replicas = replicas if replicas > 0 else 1
    backing = num_shards if num_shards > 0 else max(replicas + 1, 3)
    gateway_module.DataStore = lambda: ReplicatedShardedDataStore(
        num_shards=backing, replicas=replicas
    )
    try:
        yield
    finally:
        gateway_module.DataStore = original


@pytest.fixture(params=["directory", "file-backed-ring"])
def disk_datastore(request, tmp_path):
    """A datastore with a disk tier, where result payloads (permalinks) live.

    ``directory`` is a single ``DataStore(tmp_path)``; ``file-backed-ring``
    is a 4-shard ring of :class:`FileBackedDataStore` shards keeping two
    copies of every result file.
    """
    from repro.platform.datastore import DataStore, FileBackedDataStore
    from repro.platform.replication import ReplicatedShardedDataStore

    if request.param == "directory":
        return DataStore(tmp_path)
    return ReplicatedShardedDataStore(
        shards=[FileBackedDataStore(tmp_path / f"shard-{index}") for index in range(4)],
        replicas=2,
    )


@pytest.fixture
def triangle() -> DirectedGraph:
    """The directed triangle A -> B -> C -> A."""
    graph = DirectedGraph(name="triangle")
    graph.add_edge("A", "B")
    graph.add_edge("B", "C")
    graph.add_edge("C", "A")
    return graph


@pytest.fixture
def two_triangles() -> DirectedGraph:
    """Two directed triangles sharing the node R (so R lies on two 3-cycles)."""
    graph = DirectedGraph(name="two-triangles")
    graph.add_edge("R", "A")
    graph.add_edge("A", "B")
    graph.add_edge("B", "R")
    graph.add_edge("R", "C")
    graph.add_edge("C", "D")
    graph.add_edge("D", "R")
    return graph


@pytest.fixture
def reciprocal_star() -> DirectedGraph:
    """A hub H with five leaves, all edges reciprocated (five 2-cycles)."""
    graph = DirectedGraph(name="reciprocal-star")
    for leaf in ["A", "B", "C", "D", "E"]:
        graph.add_edge("H", leaf)
        graph.add_edge(leaf, "H")
    return graph


@pytest.fixture
def small_dag() -> DirectedGraph:
    """A three-layer DAG: no cycles at all."""
    return layered_dag([2, 3, 2], edge_probability=0.8, seed=7, name="small-dag")


@pytest.fixture
def mixed_graph() -> DirectedGraph:
    """A graph combining a reciprocated core, a one-way chain and a dangling node."""
    graph = DirectedGraph(name="mixed")
    # Reciprocated core triangle.
    for first, second in [("X", "Y"), ("Y", "Z"), ("Z", "X")]:
        graph.add_edge(first, second)
        graph.add_edge(second, first)
    # One-way chain hanging off the core.
    graph.add_edge("X", "P")
    graph.add_edge("P", "Q")
    # Dangling node reachable from the chain.
    graph.add_edge("Q", "sink")
    return graph


@pytest.fixture
def community_graph() -> DirectedGraph:
    """A planted-community graph (4 communities of 8 nodes, reciprocated)."""
    return reciprocal_communities_graph(4, 8, seed=11, name="communities")


@pytest.fixture
def simple_cycle_graph() -> DirectedGraph:
    """The directed 6-cycle."""
    return cycle_graph(6)


@pytest.fixture
def hub_star() -> DirectedGraph:
    """A star with reciprocated spokes (hub = node 0)."""
    return star_graph(6, reciprocal=True)


@pytest.fixture(scope="session")
def small_enwiki() -> DirectedGraph:
    """A scaled-down English wikilink graph (fast; session-scoped)."""
    return generate_wikilink_graph("en", "2018-03-01", num_filler_articles=80, seed=3)


@pytest.fixture(scope="session")
def small_amazon() -> DirectedGraph:
    """A scaled-down Amazon co-purchase graph (fast; session-scoped)."""
    return generate_amazon_graph(num_filler_items=100, seed=3)


@pytest.fixture(scope="session")
def small_twitter() -> DirectedGraph:
    """A scaled-down Twitter cop27 graph (fast; session-scoped)."""
    return generate_twitter_graph("cop27", num_casual_users=60, seed=3)


def register_gated_algorithm(name: str):
    """Register a personalized test algorithm whose executions block on a gate.

    Returns ``(started, release)`` events: ``started`` fires when the first
    execution reaches an executor, ``release`` lets every execution proceed.
    Callers must ``release.set()`` and pop the name from the registry when
    done (see the ``gated_algorithm`` fixtures in the jobs/REST suites).
    """
    import threading

    from repro.algorithms import registry as algorithm_registry
    from repro.algorithms.base import Algorithm, AlgorithmSpec
    from repro.algorithms.personalized_pagerank import personalized_pagerank

    started = threading.Event()
    release = threading.Event()

    class _Gated(Algorithm):
        spec = AlgorithmSpec(
            name=name,
            display_name="Gated PPR",
            personalized=True,
            parameters=(),
            description="test-only algorithm blocking on a gate",
        )

        def _execute(self, graph, *, source, parameters):
            started.set()
            if not release.wait(timeout=30.0):
                raise TimeoutError("test gate never released")
            return personalized_pagerank(graph, source)

        def _execute_batch(self, graph, *, sources, parameters):
            started.set()
            if not release.wait(timeout=30.0):
                raise TimeoutError("test gate never released")
            return [personalized_pagerank(graph, source) for source in sources]

    algorithm_registry.register_algorithm(_Gated(), replace=True)
    return started, release
