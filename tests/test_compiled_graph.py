"""CompiledGraph artifact semantics and the datastore's artifact cache.

The invalidation contract under test: artifacts are keyed by dataset upload
version, a re-upload (or drop) evicts the cached artifact, and a stale CSR
snapshot is never served for a replaced graph — including through the full
gateway/scheduler path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.catalog import DatasetCatalog
from repro.exceptions import InvalidParameterError, StorageError
from repro.graph.compiled import CompiledGraph, compiled_of
from repro.graph.digraph import DirectedGraph
from repro.graph.generators import gnp_random_graph
from repro.platform.datastore import DataStore
from repro.platform.gateway import ApiGateway


@pytest.fixture
def random_graph():
    return gnp_random_graph(40, 0.12, seed=5, name="random-40")


class TestCompiledGraphStructures:
    def test_csr_matches_direct_conversion(self, random_graph):
        compiled = CompiledGraph(random_graph)
        assert not compiled.csr_ready
        assert compiled.to_csr() == random_graph.to_csr()
        assert compiled.csr_ready
        # Same frozen snapshot on every call.
        assert compiled.to_csr() is compiled.to_csr()

    def test_transpose_reverses_every_edge(self, random_graph):
        compiled = CompiledGraph(random_graph)
        transpose = compiled.transpose_csr()
        sources, targets = compiled.to_csr().edges()
        for source, target in zip(sources.tolist(), targets.tolist()):
            assert transpose.has_edge(target, source)
        assert transpose.number_of_edges() == random_graph.number_of_edges()

    def test_transpose_rows_are_sorted(self, random_graph):
        transpose = CompiledGraph(random_graph).transpose_csr()
        for node in range(transpose.number_of_nodes()):
            row = transpose.successors(node)
            assert np.all(np.diff(row) > 0)

    def test_out_degrees(self):
        graph = DirectedGraph(name="dangling")
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")  # c is dangling
        compiled = CompiledGraph(graph)
        assert compiled.out_degrees().tolist() == [1, 1, 0]

    def test_adjacency_matrices_match_scipy_conversion(self, random_graph):
        compiled = CompiledGraph(random_graph)
        direct = random_graph.to_csr().to_scipy()
        assert (compiled.adjacency() != direct).nnz == 0
        assert (compiled.adjacency_transpose() != direct.T.tocsr()).nnz == 0

    def test_adjacency_lists_round_trip(self, random_graph):
        compiled = CompiledGraph(random_graph)
        indptr, indices, t_indptr, t_indices = compiled.adjacency_lists()
        assert indptr == compiled.to_csr().indptr.tolist()
        assert indices == compiled.to_csr().indices.tolist()
        assert t_indptr == compiled.transpose_csr().indptr.tolist()
        assert t_indices == compiled.transpose_csr().indices.tolist()

    def test_labels_array_is_shared_and_correct(self, random_graph):
        compiled = CompiledGraph(random_graph)
        assert compiled.labels_array().tolist() == random_graph.labels()
        assert compiled.labels_array() is compiled.labels_array()


class TestGraphFacade:
    def test_delegates_directed_graph_api(self, random_graph):
        compiled = CompiledGraph(random_graph)
        assert compiled.number_of_nodes() == random_graph.number_of_nodes()
        assert compiled.number_of_edges() == random_graph.number_of_edges()
        assert compiled.name == random_graph.name
        assert len(compiled) == len(random_graph)
        assert list(compiled) == list(random_graph)
        assert 0 in compiled
        assert compiled.successors(0) == random_graph.successors(0)
        assert compiled.predecessors(0) == random_graph.predecessors(0)
        assert compiled.labels() == random_graph.labels()

    def test_folded_transition_transpose_matches_direct_build(self, random_graph):
        from repro.algorithms.pagerank import transition_matrix

        def direct_build(graph, alpha):
            # [alpha * P^T ; alpha * nd], nd = 1 on every node with out-edges.
            csr = graph.to_csr()
            transposed = transition_matrix(csr).transpose().toarray() * alpha
            mass_row = alpha * (csr.out_degrees() > 0)
            return np.vstack([transposed, mass_row])

        compiled = CompiledGraph(random_graph)
        n = random_graph.number_of_nodes()
        for alpha in (0.3, 0.85):
            folded = compiled.folded_transition_transpose(alpha)
            assert folded.shape == (n + 1, n)
            assert np.array_equal(folded.toarray(), direct_build(random_graph, alpha))
            # Cached: the same object comes back for the same alpha.
            assert compiled.folded_transition_transpose(alpha) is folded
        # The reversed direction is the transition of the transposed graph.
        reverse_folded = compiled.folded_transition_transpose(0.85, reverse=True)
        assert np.array_equal(
            reverse_folded.toarray(), direct_build(random_graph.transpose(), 0.85)
        )

    def test_folded_transition_cache_is_bounded(self, random_graph):
        from repro.graph.compiled import MAX_FOLDED_TRANSITIONS

        compiled = CompiledGraph(random_graph)
        sweep = np.linspace(0.05, 0.95, MAX_FOLDED_TRANSITIONS + 5)
        for alpha in sweep:
            compiled.folded_transition_transpose(float(alpha))
        assert len(compiled._folded_transitions) == MAX_FOLDED_TRANSITIONS
        # The most recent alpha survived the sweep; the earliest was evicted.
        assert (float(sweep[-1]), False) in compiled._folded_transitions
        assert (float(sweep[0]), False) not in compiled._folded_transitions

    def test_compiled_of_is_idempotent(self, random_graph):
        compiled = compiled_of(random_graph)
        assert compiled_of(compiled) is compiled
        assert compiled.graph is random_graph

    def test_algorithms_accept_compiled_graphs(self, random_graph):
        from repro.algorithms.pagerank import pagerank
        from repro.algorithms.cyclerank import cyclerank

        compiled = compiled_of(random_graph)
        assert np.array_equal(
            pagerank(compiled).scores, pagerank(random_graph).scores
        )
        assert np.allclose(
            cyclerank(compiled, 0).scores, cyclerank(random_graph, 0).scores,
            rtol=1e-12, atol=0,
        )


def _two_node_graph(extra_edge: bool) -> DirectedGraph:
    graph = DirectedGraph(name="versioned")
    graph.add_edge("a", "b")
    if extra_edge:
        graph.add_edge("b", "a")
    return graph


class TestDataStoreArtifactCache:
    def test_artifact_is_cached_per_dataset(self):
        datastore = DataStore()
        datastore.store_dataset("ds", _two_node_graph(False))
        first, version = datastore.fetch_compiled_with_version("ds")
        second = datastore.fetch_compiled("ds")
        assert first is second
        assert version == 1
        stats = datastore.artifact_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["compiled"] == 1

    def test_missing_dataset_raises(self):
        with pytest.raises(StorageError):
            DataStore().fetch_compiled("nope")

    def test_reupload_invalidates_and_recompiles(self):
        datastore = DataStore()
        datastore.store_dataset("ds", _two_node_graph(False))
        stale, stale_version = datastore.fetch_compiled_with_version("ds")
        assert not stale.to_csr().has_edge(1, 0)

        datastore.store_dataset("ds", _two_node_graph(True))
        fresh, fresh_version = datastore.fetch_compiled_with_version("ds")
        assert fresh is not stale
        assert fresh_version == stale_version + 1
        # The stale CSR must never be served: the new artifact sees the
        # reciprocal edge the first upload lacked.
        assert fresh.to_csr().has_edge(1, 0)
        assert datastore.artifact_stats()["invalidations"] == 1

    def test_drop_dataset_evicts_artifact(self):
        datastore = DataStore()
        datastore.store_dataset("ds", _two_node_graph(False))
        datastore.fetch_compiled("ds")
        datastore.drop_dataset("ds")
        assert datastore.artifact_stats()["compiled"] == 0
        assert datastore.artifact_stats()["invalidations"] == 1
        with pytest.raises(StorageError):
            datastore.fetch_compiled("ds")

    def test_cache_knobs_conflict_with_explicit_cache(self):
        from repro.platform.cache import ResultCache

        with pytest.raises(InvalidParameterError):
            DataStore(result_cache=ResultCache(), cache_admit_on_second_miss=True)


class TestStaleCsrNeverServedEndToEnd:
    def test_reupload_changes_served_rankings(self):
        # CycleRank on the first upload sees no cycle through "a"; after the
        # re-upload the reciprocal edge creates one.  A stale compiled CSR
        # would keep returning a zero ranking.
        catalog = DatasetCatalog()
        catalog.register_graph("versioned", _two_node_graph(False), description="v1")
        with ApiGateway(catalog=catalog) as gateway:
            query = {
                "dataset_id": "versioned",
                "algorithm": "cyclerank",
                "source": "a",
            }
            first = gateway.run_queries([query], synchronous=True)
            assert gateway.get_rankings(first)[0].total() == 0.0

            gateway.upload_dataset(
                "versioned", _two_node_graph(True), replace=True, description="v2"
            )
            second = gateway.run_queries([query], synchronous=True)
            assert gateway.get_rankings(second)[0].total() > 0.0

            artifacts = gateway.get_platform_stats()["artifacts"]
            assert artifacts["misses"] >= 2  # one compile per upload version
