"""Concurrency stress tests: ExecutorPool + Scheduler over a shared ResultCache.

N threads submitting overlapping tasks against one platform must (a) never
compute the same (dataset, algorithm, parameters, source) query twice — the
single-flight table and the result cache between them guarantee exactly-once
computation — and (b) never lose a result: every task completes with one
ranking per query, and the rankings match a reference single-threaded run.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.algorithms import registry as algorithm_registry
from repro.algorithms.base import Algorithm, AlgorithmSpec, ParameterSpec
from repro.algorithms.personalized_pagerank import personalized_pagerank
from repro.datasets.catalog import DatasetCatalog
from repro.graph.generators import reciprocal_communities_graph
from repro.platform.gateway import ApiGateway
from repro.platform.jobs import JobState

SPY_NAME = "spy-counting-ppr"


class _CountingPPR(Algorithm):
    """Personalized PageRank wrapped with a per-source execution counter.

    The small sleep widens the in-flight window so concurrent submitters
    genuinely overlap with a running computation instead of racing past it.
    """

    spec = AlgorithmSpec(
        name=SPY_NAME,
        display_name="Spy PPR",
        personalized=True,
        parameters=(
            ParameterSpec(name="alpha", kind="float", default=0.85,
                          minimum=0.0, maximum=1.0, description="damping factor"),
        ),
        description="test-only counting wrapper around personalized PageRank",
    )

    def __init__(self) -> None:
        self.computations: Dict[Tuple[str, float], int] = {}
        self._lock = threading.Lock()

    def _execute(self, graph, *, source, parameters):
        with self._lock:
            key = (source, parameters["alpha"])
            self.computations[key] = self.computations.get(key, 0) + 1
        time.sleep(0.02)
        return personalized_pagerank(graph, source, alpha=parameters["alpha"])

    def total_computations(self) -> int:
        with self._lock:
            return sum(self.computations.values())

    def duplicated_keys(self) -> Dict[Tuple[str, float], int]:
        with self._lock:
            return {key: count for key, count in self.computations.items() if count > 1}


@pytest.fixture
def spy_algorithm():
    spy = _CountingPPR()
    algorithm_registry.register_algorithm(spy, replace=True)
    try:
        yield spy
    finally:
        algorithm_registry._REGISTRY.pop(SPY_NAME, None)


@pytest.fixture
def stress_gateway():
    graph = reciprocal_communities_graph(num_communities=3, community_size=6, seed=7)
    catalog = DatasetCatalog()
    catalog.register_graph("stress", graph, description="stress-test graph")
    with ApiGateway(catalog=catalog, num_workers=4) as gateway:
        yield gateway


def _submit_and_wait(gateway: ApiGateway, queries: List[dict], results, errors) -> None:
    try:
        comparison_id = gateway.run_queries(queries, synchronous=False)
        gateway.wait_for(comparison_id, timeout_seconds=60.0)
        results.append(comparison_id)
    except Exception as exc:  # pragma: no cover - surfaced by the assertion below
        errors.append(exc)


class TestSingleFlightUnderContention:
    def test_identical_tasks_compute_each_query_once(self, spy_algorithm, stress_gateway):
        sources = [f"c0-n{index}" for index in range(4)]
        queries = [
            {"dataset_id": "stress", "algorithm": SPY_NAME, "source": source}
            for source in sources
        ]
        num_threads = 8
        results: List[str] = []
        errors: List[Exception] = []
        threads = [
            threading.Thread(target=_submit_and_wait, args=(stress_gateway, queries, results, errors))
            for _ in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert len(results) == num_threads

        # No duplicate computations: one per unique (source, alpha) key even
        # though 8 tasks asked for each of them.
        assert spy_algorithm.duplicated_keys() == {}
        assert spy_algorithm.total_computations() == len(sources)

        # No lost results: every task completed with one ranking per query,
        # all matching the reference computed outside the platform.
        graph = stress_gateway.datastore.fetch_dataset("stress")
        references = {
            source: personalized_pagerank(graph, source, alpha=0.85).scores
            for source in sources
        }
        for comparison_id in results:
            task = stress_gateway.get_task(comparison_id)
            assert task.state is JobState.DONE
            rankings = stress_gateway.get_rankings(comparison_id)
            assert len(rankings) == len(queries)
            for source, ranking in zip(sources, rankings):
                assert np.allclose(ranking.scores, references[source], atol=1e-8)

    def test_overlapping_tasks_share_partial_results(self, spy_algorithm, stress_gateway):
        all_sources = [f"c{community}-n0" for community in range(3)] + ["c0-n1", "c0-n2"]
        # Each thread asks for a sliding window of 3 sources, so every pair of
        # neighbouring threads overlaps on 2 queries.
        windows = [
            [all_sources[(start + offset) % len(all_sources)] for offset in range(3)]
            for start in range(len(all_sources))
        ]
        completed: List[Tuple[List[str], str]] = []
        errors: List[Exception] = []

        def submit_window(window: List[str]) -> None:
            try:
                comparison_id = stress_gateway.run_queries(
                    [
                        {"dataset_id": "stress", "algorithm": SPY_NAME, "source": source}
                        for source in window
                    ],
                    synchronous=False,
                )
                stress_gateway.wait_for(comparison_id, timeout_seconds=60.0)
                completed.append((window, comparison_id))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=submit_window, args=(window,)) for window in windows
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert len(completed) == len(windows)
        assert spy_algorithm.duplicated_keys() == {}
        assert spy_algorithm.total_computations() == len(all_sources)
        for window, comparison_id in completed:
            task = stress_gateway.get_task(comparison_id)
            assert task.state is JobState.DONE
            rankings = stress_gateway.get_rankings(comparison_id)
            assert len(rankings) == len(window)
            for source, ranking in zip(window, rankings):
                assert ranking.reference == source

    def test_cache_absorbs_repeat_submissions(self, spy_algorithm, stress_gateway):
        query = [{"dataset_id": "stress", "algorithm": SPY_NAME, "source": "c1-n1"}]
        first = stress_gateway.run_queries(query, synchronous=False)
        stress_gateway.wait_for(first, timeout_seconds=30.0)
        executed_before = stress_gateway.executor_pool.total_executed()
        hits_before = stress_gateway.datastore.result_cache.stats()["hits"]

        second = stress_gateway.run_queries(query, synchronous=False)
        stress_gateway.wait_for(second, timeout_seconds=30.0)

        assert spy_algorithm.total_computations() == 1
        assert stress_gateway.executor_pool.total_executed() == executed_before
        assert stress_gateway.datastore.result_cache.stats()["hits"] == hits_before + 1
        first_scores = stress_gateway.get_rankings(first)[0].scores
        second_scores = stress_gateway.get_rankings(second)[0].scores
        assert np.array_equal(first_scores, second_scores)
