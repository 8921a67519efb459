"""Derived algorithms: 2DRank built from the comparison's own PPR and CheiRank.

2DRank declares its inputs (a PageRank and a CheiRank), and the scheduler
resolves them through the result cache and the single-flight table.  These
tests pin what that buys and what it must never break:

* a comparison with PPR, CheiRank and 2DRank on one source runs each power
  iteration once, and an input a 2DRank computed serves later queries;
* every served ranking equals ``run_batch`` of its own query, sync or
  async, on one or two workers, under concurrent identical submissions;
* a failing or cancelled derived query leaves nothing in flight, so the
  next identical query computes afresh instead of hanging;
* ``register_algorithm`` refuses declarations the scheduler cannot serve.
"""

from __future__ import annotations

import importlib
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import registry as algorithm_registry
from repro.algorithms.base import Algorithm, AlgorithmSpec
from repro.algorithms.personalized_pagerank import personalized_pagerank
from repro.algorithms.registry import get_algorithm, register_algorithm, run_batch
from repro.datasets.catalog import DatasetCatalog
from repro.exceptions import InvalidParameterError
from repro.graph.digraph import DirectedGraph
from repro.platform.gateway import ApiGateway
from repro.platform.jobs import JobRecord, JobState

PPR = "personalized-pagerank"
PCR = "personalized-cheirank"
P2D = "personalized-2drank"
TIMEOUT = 30.0

pagerank_module = importlib.import_module("repro.algorithms.pagerank")


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count calls of the one PageRank-family kernel."""
    calls = []
    kernel = pagerank_module.power_iteration_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(pagerank_module, "power_iteration_batch", counting)
    return calls


def _gateway(graph: DirectedGraph, num_workers: int = 2) -> ApiGateway:
    catalog = DatasetCatalog()
    catalog.register_graph("toy", graph, description="derived-ranking tests")
    return ApiGateway(catalog=catalog, num_workers=num_workers)


@pytest.fixture
def gateway(community_graph):
    with _gateway(community_graph) as gateway:
        yield gateway


def _query(algorithm, source=None, **parameters):
    query = {"dataset_id": "toy", "algorithm": algorithm, "source": source}
    if parameters:
        query["parameters"] = parameters
    return query


def _event_types(gateway, comparison_id, query_index):
    return [
        event.type
        for event in gateway.get_task(comparison_id).events()
        if event.payload.get("query") == query_index
    ]


def _assert_served_equals_run_batch(gateway, comparison_id, queries, graph):
    job = gateway.get_task(comparison_id)
    assert job.wait_done(TIMEOUT), f"comparison {comparison_id} never finished"
    assert job.state is JobState.DONE, job.error
    for served, query in zip(gateway.get_rankings(comparison_id), queries):
        [expected] = run_batch(
            query["algorithm"], graph, sources=[query["source"]],
            parameters=query.get("parameters"),
        )
        assert np.array_equal(served.scores, expected.scores), query
        assert list(served) == list(expected), query
        assert served.parameters == expected.parameters, query


def _joined(job) -> bool:
    """Wait until ``job`` reports a query riding another's computation."""
    deadline, seen = time.monotonic() + TIMEOUT, 0
    while time.monotonic() < deadline:
        for event in job.events_since(seen, timeout=0.5):
            seen = event.seq
            if event.type == "query_started" and event.payload.get("joined"):
                return True
    return False


def _assert_nothing_in_flight(gateway):
    """Every single-flight key is settled once the groups drain.

    A job fails at its first failed query, while a sibling group may still
    be computing, so this waits for the drain rather than reading once.
    """
    deadline = time.monotonic() + TIMEOUT
    while gateway.scheduler.batch_stats()["inflight_queries"]:
        assert time.monotonic() < deadline, "a single-flight key stayed in flight"
        time.sleep(0.01)


class TestInputsAreComputedOnce:
    def test_ppr_cheirank_and_2drank_run_two_power_iterations(
        self, gateway, kernel_calls
    ):
        # Four if 2DRank reran both of its inputs itself.
        queries = [_query(PPR, "c0-n0"), _query(PCR, "c0-n0"), _query(P2D, "c0-n0")]
        comparison_id = gateway.run_queries(queries, synchronous=True)
        assert gateway.get_task(comparison_id).state is JobState.DONE
        assert len(kernel_calls) == 2

    def test_2drank_inputs_serve_a_later_ppr_query(self, gateway, kernel_calls):
        gateway.run_queries([_query(P2D, "c0-n3")], synchronous=True)
        assert len(kernel_calls) == 2
        follow_up = gateway.run_queries([_query(PPR, "c0-n3")], synchronous=True)
        assert "query_cached" in _event_types(gateway, follow_up, 0)
        assert len(kernel_calls) == 2

    def test_global_2drank_reuses_pagerank_and_cheirank(self, gateway, kernel_calls):
        queries = [_query("pagerank"), _query("cheirank"), _query("2drank")]
        gateway.run_queries(queries, synchronous=True)
        assert len(kernel_calls) == 2
        gateway.run_queries([_query("2drank", alpha=0.5)], synchronous=True)
        assert len(kernel_calls) == 4
        follow_up = gateway.run_queries([_query("pagerank", alpha=0.5)], synchronous=True)
        assert "query_cached" in _event_types(gateway, follow_up, 0)
        assert len(kernel_calls) == 4

    def test_different_parameters_do_not_share_inputs(self, gateway, kernel_calls):
        gateway.run_queries([_query(PPR, "c0-n1", alpha=0.5)], synchronous=True)
        gateway.run_queries([_query(P2D, "c0-n1")], synchronous=True)
        # Neither 2DRank input could come from the alpha=0.5 PPR.
        assert len(kernel_calls) == 3

    def test_combine_annotates_the_batch_span(self, gateway):
        gateway.run_queries([_query(PPR, "c0-n2")], synchronous=True)
        comparison_id = gateway.run_queries([_query(P2D, "c0-n2")], synchronous=True)
        roots = gateway.get_trace(comparison_id)["trace"]["roots"]
        batches = [
            span for root in roots for span in _walk(root)
            if span["name"] == "batch_execute"
        ]
        assert len(batches) == 1
        annotations = batches[0]["annotations"]
        assert (annotations["inputs_hit"], annotations["inputs_joined"],
                annotations["inputs_computed"]) == (1, 0, 1)


def _walk(span):
    yield span
    for child in span.get("children", []):
        yield from _walk(child)


class TestConcurrentDerivedQueries:
    @pytest.mark.parametrize("num_workers", [1, 2])
    def test_2drank_first_async_comparison(self, community_graph, num_workers):
        queries = [_query(P2D, "c0-n4"), _query(PPR, "c0-n4"), _query(PCR, "c0-n4")]
        with _gateway(community_graph, num_workers) as gateway:
            comparison_id = gateway.run_queries(queries, synchronous=False)
            _assert_served_equals_run_batch(gateway, comparison_id, queries, community_graph)
            _assert_nothing_in_flight(gateway)

    @pytest.mark.parametrize("synchronous", [True, False])
    def test_four_threads_submit_the_same_comparison(self, gateway, community_graph,
                                                     synchronous):
        queries = [
            _query(P2D, "c0-n5"), _query(PPR, "c0-n5"), _query(PCR, "c0-n5"),
            _query(P2D, "c0-n6"),
        ]
        barrier = threading.Barrier(4)
        comparison_ids = []
        errors = []

        def submit():
            try:
                barrier.wait(TIMEOUT)
                comparison_ids.append(
                    gateway.run_queries(queries, synchronous=synchronous)
                )
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT)
        assert not errors and len(comparison_ids) == 4
        for comparison_id in comparison_ids:
            _assert_served_equals_run_batch(gateway, comparison_id, queries, community_graph)
        _assert_nothing_in_flight(gateway)


class TestNothingStaysInFlight:
    @pytest.mark.parametrize("synchronous", [True, False])
    def test_failing_input_fails_the_2drank_query(self, gateway, kernel_calls,
                                                  synchronous):
        # One power-iteration step cannot converge: the PPR input raises.
        query = [_query(P2D, "c0-n7", max_iter=1)]
        for attempt in (1, 2):
            comparison_id = gateway.run_queries(query, synchronous=synchronous)
            job = gateway.get_task(comparison_id)
            assert job.wait_done(TIMEOUT)
            assert job.state is JobState.FAILED
            assert "converge" in (job.error or "")
            assert "query_failed" in _event_types(gateway, comparison_id, 0)
            _assert_nothing_in_flight(gateway)
            # The failure is not cached: the retry computes both inputs again.
            assert len(kernel_calls) == 2 * attempt

    def test_failing_input_fails_a_joined_ppr_query_too(self, gateway):
        queries = [_query(PPR, "c1-n0", max_iter=1), _query(P2D, "c1-n0", max_iter=1)]
        comparison_id = gateway.run_queries(queries, synchronous=False)
        job = gateway.get_task(comparison_id)
        assert job.wait_done(TIMEOUT)
        assert job.state is JobState.FAILED
        _assert_nothing_in_flight(gateway)

    def test_cancel_while_inputs_compute(self, gateway, community_graph, monkeypatch):
        # Hold the 2DRank group inside its PPR input, let a second comparison
        # join that input, then cancel the first.  A batch already executing
        # runs to completion, so the first comparison ends DONE, and the
        # joined PPR query is served, not poisoned by the cancellation.
        kernel = pagerank_module.power_iteration_batch
        entered, release = threading.Event(), threading.Event()

        def gated(*args, **kwargs):
            entered.set()
            assert release.wait(TIMEOUT)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(pagerank_module, "power_iteration_batch", gated)
        derived = [_query(P2D, "c1-n1")]
        comparison_id = gateway.run_queries(derived, synchronous=False)
        assert entered.wait(TIMEOUT)
        joiner = [_query(PPR, "c1-n1")]
        joiner_id = gateway.run_queries(joiner, synchronous=False)
        assert _joined(gateway.get_task(joiner_id))
        assert gateway.cancel_comparison(comparison_id)["cancelled"]
        release.set()
        job = gateway.get_task(comparison_id)
        assert job.wait_done(TIMEOUT)
        assert job.state is JobState.DONE
        _assert_served_equals_run_batch(gateway, joiner_id, joiner, community_graph)
        _assert_nothing_in_flight(gateway)
        again = gateway.run_queries(derived, synchronous=False)
        _assert_served_equals_run_batch(gateway, again, derived, community_graph)

    def test_cancel_at_the_second_boundary(self, gateway, community_graph, monkeypatch):
        # Hold the 2DRank group after its single-flight registration (its
        # query_started event) and cancel it there: its key is abandoned
        # before any input is published.
        append = JobRecord.append
        reached, release = threading.Event(), threading.Event()

        def held_append(job, event_type, **payload):
            if event_type == "query_started" and payload.get("algorithm") == P2D:
                reached.set()
                assert release.wait(TIMEOUT)
            return append(job, event_type, **payload)

        monkeypatch.setattr(JobRecord, "append", held_append)
        query = [_query(P2D, "c1-n2")]
        comparison_id = gateway.run_queries(query, synchronous=False)
        assert reached.wait(TIMEOUT)
        assert gateway.cancel_comparison(comparison_id)["cancelled"]
        release.set()
        job = gateway.get_task(comparison_id)
        assert job.wait_done(TIMEOUT)
        assert job.state is JobState.CANCELLED
        _assert_nothing_in_flight(gateway)
        monkeypatch.setattr(JobRecord, "append", append)
        again = gateway.run_queries(query, synchronous=False)
        _assert_served_equals_run_batch(gateway, again, query, community_graph)


class _FallbackPPR(Algorithm):
    spec = AlgorithmSpec(
        name="derived-test-fallback",
        display_name="Fallback PPR",
        personalized=True,
        parameters=get_algorithm(PPR).spec.parameters,
    )

    def _execute(self, graph, *, source, parameters):
        return personalized_pagerank(graph, source)


def _derived(inputs, *, personalized=True, parameters=None):
    class _Derived(Algorithm):
        spec = AlgorithmSpec(
            name="derived-test",
            display_name="Derived",
            personalized=personalized,
            parameters=(
                get_algorithm(P2D).spec.parameters if parameters is None else parameters
            ),
            inputs=inputs,
        )

        def _execute(self, graph, *, source, parameters):
            raise AssertionError("never runs")

    return _Derived()


class TestDeclarationsAreChecked:
    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        register_algorithm(_FallbackPPR(), replace=True)
        yield
        for name in ("derived-test", "derived-test-fallback"):
            algorithm_registry._REGISTRY.pop(name, None)

    @pytest.mark.parametrize(
        "algorithm, problem",
        [
            (lambda: _derived(("no-such-algorithm",)), "is not a registered algorithm"),
            (lambda: _derived((PPR, P2D)), "declares inputs of its own"),
            (lambda: _derived(("derived-test-fallback",)), "has no native batch kernel"),
            (lambda: _derived((PPR,), parameters=()), "takes different parameters"),
            (lambda: _derived(("pagerank",)), "differs in personalization"),
        ],
    )
    def test_bad_declarations_are_refused(self, algorithm, problem):
        with pytest.raises(InvalidParameterError, match=problem):
            register_algorithm(algorithm())
        assert "derived-test" not in algorithm_registry._REGISTRY

    def test_the_2dranks_declare_their_inputs(self):
        assert get_algorithm(P2D).spec.inputs == (PPR, PCR)
        assert get_algorithm("2drank").spec.inputs == ("pagerank", "cheirank")
        assert get_algorithm(PPR).spec.inputs == ()


@st.composite
def comparisons(draw):
    """A small random graph and one or two comparisons mixing the three
    PageRank-family queries, with shared and distinct sources and equal and
    different alphas, each run synchronously or not."""
    num_nodes = draw(st.integers(min_value=2, max_value=9))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    graph = DirectedGraph(name="derived-property")
    for index in range(num_nodes):
        graph.add_node(f"n{index}")
    graph.add_edges_from(draw(st.lists(st.tuples(node, node), max_size=3 * num_nodes)))
    query = st.builds(
        lambda algorithm, source, alpha: _query(
            algorithm, f"n{source}", **({} if alpha is None else {"alpha": alpha})
        ),
        st.sampled_from([PPR, PCR, P2D]),
        st.integers(min_value=0, max_value=min(2, num_nodes - 1)),
        st.sampled_from([None, 0.85, 0.5]),
    )
    runs = draw(
        st.lists(
            st.tuples(st.lists(query, min_size=1, max_size=6), st.booleans()),
            min_size=1, max_size=2,
        )
    )
    return graph, runs


class TestSchedulerBitIdentity:
    @given(comparisons())
    @settings(max_examples=40, deadline=None)
    def test_every_served_ranking_equals_run_batch(self, case):
        graph, runs = case
        with _gateway(graph) as gateway:
            for queries, synchronous in runs:
                comparison_id = gateway.run_queries(queries, synchronous=synchronous)
                _assert_served_equals_run_batch(gateway, comparison_id, queries, graph)
            _assert_nothing_in_flight(gateway)
