"""Content-addressed result keys: a cached ranking is keyed by the graph it ranks.

The result cache's key ends in :meth:`CompiledGraph.content_digest` — a
BLAKE2b digest of the graph's name, raw labels and CSR — instead of the
dataset's upload counter.  These properties pin what that buys and what it
must never break:

* equal content gets an equal digest whatever the edge insertion history,
  and every registry algorithm ranks equal-digest graphs bit-identically,
  so serving one's cached ranking for the other is exact;
* one changed edge, raw label or name changes the digest;
* any interleaving of re-uploads and reads serves rankings of the graph
  current at the read, and a re-upload of content already ranked hits;
* a file-backed restart that recovers the CSR from ``artifacts/<id>.npz``
  reproduces the digest;
* rankings of one content share one label array across re-uploads.
"""

from __future__ import annotations

import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import available_algorithms, get_algorithm, run_batch
from repro.datasets.catalog import DatasetCatalog
from repro.graph.compiled import CompiledGraph
from repro.graph.digraph import DirectedGraph
from repro.platform.datastore import FileBackedDataStore
from repro.platform.gateway import ApiGateway

PPR = "personalized-pagerank"
PCR = "personalized-cheirank"
P2D = "personalized-2drank"
CYCLERANK = "cyclerank"

#: Raw label pool: ``"#1"`` / ``"#2"`` display like unlabelled nodes 1 and 2,
#: so the raw label (not the display label) must reach the digest.
LABELS = ("a", "b", "c", "d", "#1", "#2")


@st.composite
def graph_specs(draw, max_nodes: int = 7):
    """``(name, raw labels, edges)`` of a small graph with unique labels."""
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    drawn = draw(
        st.lists(
            st.one_of(st.none(), st.sampled_from(LABELS)),
            min_size=num_nodes,
            max_size=num_nodes,
        )
    )
    labels, used = [], set()
    for label in drawn:
        labels.append(None if label in used else label)
        used.add(label)
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    edges = draw(st.lists(st.tuples(node, node), unique=True, max_size=3 * num_nodes))
    name = draw(st.sampled_from(("g", "h")))
    return name, labels, edges


def _build(name, labels, edges) -> DirectedGraph:
    graph = DirectedGraph(name=name)
    for label in labels:
        graph.add_node(label)
    for source, target in edges:
        graph.add_edge(source, target)
    return graph


def _rebuilt(spec, seed: int) -> DirectedGraph:
    """The same graph built through a shuffled, churned insertion history."""
    name, labels, edges = spec
    rng = random.Random(seed)
    shuffled = list(edges)
    rng.shuffle(shuffled)
    graph = _build(name, labels, shuffled)
    num_nodes = len(labels)
    # An edge that is added then removed leaves the set's internal state
    # changed without changing the graph.
    transient = (rng.randrange(num_nodes), rng.randrange(num_nodes))
    if transient not in set(edges):
        graph.add_edge(*transient)
        graph.remove_edge(*transient)
    # Remove and re-add an existing edge: its successor set changes order.
    if edges:
        edge = rng.choice(edges)
        graph.remove_edge(*edge)
        graph.add_edge(*edge)
    return graph


def _digest(graph: DirectedGraph) -> bytes:
    return CompiledGraph(graph).content_digest()


def _outcome(name: str, graph: DirectedGraph):
    """Every served byte of ``name`` on ``graph`` (or the error it raised)."""
    algorithm = get_algorithm(name)
    sources = graph.labels() if algorithm.is_personalized else [None]
    try:
        rankings = run_batch(name, graph, sources=sources)
    except Exception as exc:  # the same failure on both graphs is equal too
        return ("error", type(exc).__name__)
    return [
        (ranking.scores.tobytes(), list(ranking), ranking.parameters)
        for ranking in rankings
    ]


class TestDigest:
    @settings(max_examples=40, deadline=None)
    @given(spec=graph_specs(), seed=st.integers(min_value=0, max_value=2**16))
    def test_insertion_history_does_not_change_digest_or_rankings(self, spec, seed):
        graph = _build(*spec)
        twin = _rebuilt(spec, seed)
        assert _digest(graph) == _digest(twin)
        for name in available_algorithms():
            assert _outcome(name, graph) == _outcome(name, twin), name

    @settings(max_examples=60, deadline=None)
    @given(spec=graph_specs(), data=st.data())
    def test_one_edge_label_or_name_changes_the_digest(self, spec, data):
        name, labels, edges = spec
        digest = _digest(_build(*spec))
        num_nodes = len(labels)
        edge = data.draw(
            st.tuples(
                st.integers(min_value=0, max_value=num_nodes - 1),
                st.integers(min_value=0, max_value=num_nodes - 1),
            ),
            label="toggled edge",
        )
        toggled = [e for e in edges if e != edge] + ([] if edge in edges else [edge])
        assert _digest(_build(name, labels, toggled)) != digest

        node = data.draw(st.integers(min_value=0, max_value=num_nodes - 1), label="node")
        relabelled = list(labels)
        # A fresh explicit label, or the display label an unlabelled node
        # already shows: only the raw label differs.
        relabelled[node] = "fresh" if labels[node] is not None else f"#{node}"
        if relabelled[node] in labels:
            relabelled[node] = "fresh"
        assert _digest(_build(name, relabelled, edges)) != digest

        assert _digest(_build(name + "-renamed", labels, edges)) != digest

    def test_digest_is_computed_once_per_artifact(self, triangle):
        compiled = CompiledGraph(triangle)
        assert compiled.content_digest() is compiled.content_digest()

    @settings(max_examples=15, deadline=None)
    @given(spec=graph_specs())
    def test_file_backed_restart_recovers_the_digest(self, spec):
        graph = _build(*spec)
        with tempfile.TemporaryDirectory() as directory:
            store = FileBackedDataStore(directory)
            store.store_dataset("ds", graph)
            before = store.fetch_compiled("ds").content_digest()
            recovered = FileBackedDataStore(directory).fetch_compiled("ds")
            # The CSR came back from artifacts/<id>.npz, not a reconversion.
            assert recovered.csr_ready
            assert recovered.content_digest() == before == _digest(graph)


#: Every variant has the same labelled nodes, so every source resolves in
#: each; only the edges differ.
NODE_LABELS = [f"n{index}" for index in range(6)]
READS = st.tuples(st.just("read"), st.sampled_from((PPR, CYCLERANK, P2D)),
                  st.sampled_from(NODE_LABELS[:3]))


def _variant(edges) -> DirectedGraph:
    graph = DirectedGraph(name="churn")
    for label in NODE_LABELS:
        graph.add_node(label)
    for source, target in edges:
        graph.add_edge(source, target)
    return graph


@st.composite
def churn_timelines(draw):
    node = st.integers(min_value=0, max_value=len(NODE_LABELS) - 1)
    variants = draw(
        st.lists(
            st.lists(st.tuples(node, node), unique=True, min_size=2, max_size=14),
            min_size=2,
            max_size=3,
        )
    )
    uploads = st.tuples(st.just("upload"), st.integers(0, len(variants) - 1))
    ops = draw(st.lists(st.one_of(uploads, READS, READS), min_size=1, max_size=14))
    return variants, ops


def _gateway(catalog: DatasetCatalog, topology: str) -> ApiGateway:
    if topology == "ring-4x2":
        return ApiGateway(catalog=catalog, shards=4, replicas=2, num_workers=1)
    return ApiGateway(catalog=catalog, num_workers=1)


def _read(gateway: ApiGateway, algorithm: str, source: str):
    comparison_id = gateway.run_queries(
        [{"dataset_id": "churn", "algorithm": algorithm, "source": source}],
        synchronous=True,
    )
    cached = any(
        event.type == "query_cached"
        for event in gateway.get_task(comparison_id).events()
    )
    [ranking] = gateway.get_rankings(comparison_id)
    return ranking, cached


class TestReuploadInterleavings:
    @pytest.mark.parametrize("topology", ["default", "ring-4x2"])
    @settings(max_examples=12, deadline=None)
    @given(timeline=churn_timelines())
    def test_reads_rank_the_current_graph_and_known_content_hits(
        self, topology, timeline
    ):
        variants, ops = timeline
        catalog = DatasetCatalog()
        catalog.register_graph("churn", _variant(variants[0]))
        current = 0
        #: (content, algorithm, source) rankings the platform has computed;
        #: a 2DRank computes (and caches) its PPR and CheiRank inputs too.
        computed = set()
        with _gateway(catalog, topology) as gateway:
            for op in ops:
                if op[0] == "upload":
                    current = op[1]
                    gateway.upload_dataset(
                        "churn", _variant(variants[current]), replace=True
                    )
                    continue
                _, algorithm, source = op
                ranking, cached = _read(gateway, algorithm, source)
                content = frozenset(variants[current])
                assert cached == ((content, algorithm, source) in computed), op
                computed.add((content, algorithm, source))
                if algorithm == P2D:
                    computed.update({(content, PPR, source), (content, PCR, source)})
                [expected] = run_batch(
                    algorithm, _variant(variants[current]), sources=[source]
                )
                assert np.array_equal(ranking.scores, expected.scores), op
                assert list(ranking) == list(expected), op

    def test_identical_reupload_is_a_cache_hit(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
        catalog = DatasetCatalog()
        catalog.register_graph("churn", _variant(edges))
        with ApiGateway(catalog=catalog, num_workers=1) as gateway:
            assert _read(gateway, PPR, "n0")[1] is False
            gateway.upload_dataset("churn", _variant(edges), replace=True)
            assert _read(gateway, PPR, "n0")[1] is True
            assert gateway.datastore.result_cache.stats()["invalidations"] == 0


class TestSharedLabels:
    def test_ab_reuploads_share_two_label_arrays(self):
        variants = [[(0, 1), (1, 0), (1, 2)], [(0, 2), (2, 1), (1, 0)]]
        catalog = DatasetCatalog()
        catalog.register_graph("churn", _variant(variants[0]))
        served = []
        with ApiGateway(catalog=catalog, num_workers=1) as gateway:
            for upload in range(50):
                gateway.upload_dataset(
                    "churn", _variant(variants[upload % 2]), replace=True
                )
                served.append(_read(gateway, PPR, "n0")[0])
        # A miss serves the ranking it caches and a hit serves the cached
        # one, so the served rankings cover every cached ranking.
        arrays = {id(ranking.labels.base) for ranking in served}
        assert all(ranking.labels.base is not None for ranking in served)
        assert len(arrays) <= 2
