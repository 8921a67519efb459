"""Every comparison reaches exactly one terminal state, and every surface agrees.

A Hypothesis property runs random sequences of synchronous and asynchronous
submissions, cancellations, failing queries (an unknown source or an
algorithm that always raises) and already-expired deadlines through
:class:`~repro.platform.gateway.ApiGateway`, at a few retention bounds.
Afterwards each comparison's one record must hold exactly one ``task_done``
event, last in its log, in a state the sequence allows; and
``get_status``, the ``list_comparisons`` row, the ``task_done`` payload and
(for DONE only, on a store with a directory) the stored result must report
the same state, error and counts.  A record evicted by the bound must keep
resolving if it was DONE and its store has a directory, and expire
otherwise: a store without one keeps no result payload.
"""

from __future__ import annotations

import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import registry as algorithm_registry
from repro.algorithms.base import Algorithm, AlgorithmSpec
from repro.datasets.catalog import DatasetCatalog
from repro.exceptions import TaskNotFoundError
from repro.graph.digraph import DirectedGraph
from repro.platform.datastore import DataStore
from repro.platform.gateway import ApiGateway
from repro.platform.jobs import JobState
from repro.platform.tasks import TaskBuilder, TaskState

FAILING_ALGORITHM = "always-fails-lifecycle"

#: The status vocabulary each job state is reported in.
STATUS_OF = {
    JobState.DONE: TaskState.COMPLETED,
    JobState.FAILED: TaskState.FAILED,
    JobState.CANCELLED: TaskState.CANCELLED,
}


class _AlwaysFails(Algorithm):
    spec = AlgorithmSpec(
        name=FAILING_ALGORITHM,
        display_name="Always fails",
        personalized=True,
        parameters=(),
        description="test-only algorithm whose every run raises",
    )

    def _execute(self, graph, *, source, parameters):
        raise RuntimeError("this algorithm always fails")

    def _execute_batch(self, graph, *, sources, parameters):
        raise RuntimeError("this algorithm always fails")


class _ExpiringBuilder(TaskBuilder):
    """Builds records whose deadline has passed before they are scheduled."""

    def build_task(self, query_set, *, deadline_ms=None):
        record = super().build_task(query_set, deadline_ms=deadline_ms)
        if deadline_ms is not None:
            time.sleep(2 * deadline_ms / 1000)
        return record


@pytest.fixture(scope="module", autouse=True)
def failing_algorithm():
    algorithm_registry.register_algorithm(_AlwaysFails(), replace=True)
    yield
    algorithm_registry._REGISTRY.pop(FAILING_ALGORITHM, None)


def _queries(kind: str, source: str) -> list:
    valid = [
        {"dataset_id": "toy", "algorithm": "personalized-pagerank", "source": source},
        {"dataset_id": "toy", "algorithm": "cyclerank", "source": "R",
         "parameters": {"k": 3}},
    ]
    if kind == "unknown-source":
        return valid[:1] + [
            {"dataset_id": "toy", "algorithm": "personalized-pagerank", "source": "ghost"}
        ]
    if kind == "failing-algorithm":
        return valid[:1] + [
            {"dataset_id": "toy", "algorithm": FAILING_ALGORITHM, "source": source}
        ]
    return valid


submit = st.tuples(
    st.just("submit"),
    st.sampled_from(["valid", "unknown-source", "failing-algorithm", "expired"]),
    st.booleans(),  # synchronous
    st.sampled_from(["R", "A", "B", "C", "D"]),
)
cancel = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30))
steps = st.lists(st.one_of(submit, cancel), min_size=1, max_size=12)


def _allowed_states(kind: str, cancelled: bool) -> set:
    settled = JobState.DONE if kind == "valid" else JobState.FAILED
    return {settled, JobState.CANCELLED} if cancelled else {settled}


def _two_triangles() -> DirectedGraph:
    graph = DirectedGraph(name="two-triangles")
    for tail, head in [("R", "A"), ("A", "B"), ("B", "R"), ("R", "C"), ("C", "D"), ("D", "R")]:
        graph.add_edge(tail, head)
    return graph


@given(bound=st.sampled_from([1, 3, 256]), disk=st.booleans(), program=steps)
@settings(max_examples=40, deadline=None)
def test_every_comparison_settles_once_and_every_surface_agrees(bound, disk, program):
    with tempfile.TemporaryDirectory() as directory:
        # Without a directory the gateway builds its default store (the ring
        # under the CI topology axes), which keeps no result payload either.
        _run_program(bound, DataStore(directory) if disk else None, disk, program)


def _run_program(bound, datastore, disk, program):
    catalog = DatasetCatalog()
    catalog.register_graph("toy", _two_triangles(), description="two triangles")
    with ApiGateway(
        catalog=catalog, datastore=datastore, num_workers=1, max_finished_tasks=bound
    ) as gateway:
        gateway.task_builder = _ExpiringBuilder(catalog)
        records = {}
        register = gateway.scheduler.jobs.register

        def keep(record):
            records[record.job_id] = record
            return register(record)

        gateway.scheduler.jobs.register = keep
        submitted = []  # (comparison id, kind)
        cancelled = set()
        for step in program:
            if step[0] == "submit":
                _, kind, synchronous, source = step
                comparison_id = gateway.run_queries(
                    _queries(kind, source),
                    synchronous=synchronous,
                    deadline_ms=1 if kind == "expired" else None,
                )
                submitted.append((comparison_id, kind))
            elif submitted:
                comparison_id, _ = submitted[step[1] % len(submitted)]
                try:
                    reply = gateway.cancel_comparison(comparison_id)
                except TaskNotFoundError:
                    continue  # evicted, hence already terminal
                if reply["cancelled"]:
                    cancelled.add(comparison_id)

        assert len(records) == len(submitted)
        for comparison_id, kind in submitted:
            assert records[comparison_id].wait_done(timeout=30), f"{kind} never settled"
        rows = {row["comparison_id"]: row for row in gateway.list_comparisons()}
        for comparison_id, kind in submitted:
            record = records[comparison_id]
            events = record.events()
            finals = [event for event in events if event.type == "task_done"]
            assert len(finals) == 1 and events[-1] is finals[0]
            final = finals[0].payload
            state = record.state
            assert JobState(final["state"]) is state
            assert state in _allowed_states(kind, comparison_id in cancelled)
            error = final.get("error")
            assert (error is not None) == (state is JobState.FAILED)
            assert record.error == error
            if kind == "expired" and state is JobState.FAILED:
                assert error == "deadline expired before execution (deadline_ms=1)"
            counts = (final["completed_queries"], final["total_queries"])
            assert counts == (record.completed_queries, record.total_queries)
            if state is JobState.DONE and disk:
                stored = gateway.scheduler.stored_result(comparison_id)
                assert stored["state"] == TaskState.COMPLETED.value
                assert counts == (len(stored["rankings"]), len(stored["queries"]))
                assert stored["queries"] == [q.as_dict() for q in record.query_set]
            else:
                with pytest.raises(TaskNotFoundError):
                    gateway.scheduler.stored_result(comparison_id)

            retained = gateway.scheduler.jobs.find(comparison_id) is record
            if not retained and (state is not JobState.DONE or not disk):
                with pytest.raises(TaskNotFoundError):
                    gateway.get_status(comparison_id)
                continue
            status = gateway.get_status(comparison_id)
            assert status.state is STATUS_OF[state]
            assert (status.completed_queries, status.total_queries) == counts
            if retained:
                assert status.error == error
            if comparison_id in rows:
                row = rows[comparison_id]
                assert row["state"] == state.value and row["error"] == error
                assert (row["completed_queries"], row["total_queries"]) == counts
