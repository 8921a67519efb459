"""Figure 1 — the platform architecture and the five-step task lifecycle.

Figure 1 of the paper is the component diagram (datastore, API gateway,
computational nodes, Web UI); the accompanying text defines the task
lifecycle: (1) the Task Builder assembles a task, (2) the Scheduler fetches
the dataset and invokes an Executor node, (3) the computation is off-loaded
to the workers while the Status component polls, (4) results are recorded
(the job record holds the rankings and the event log the execution log is
rendered from; a datastore with a directory also writes the result file),
(5) the API returns the results to the Web UI.

The benchmarks time that full lifecycle end-to-end (as the interactive demo
experiences it) and its per-component pieces, and write a trace of one run to
``benchmarks/output/fig1_platform_lifecycle.txt``.
"""

from __future__ import annotations

import pytest

from repro.datasets.catalog import DatasetCatalog
from repro.datasets.wikipedia import generate_wikilink_graph
from repro.platform.datastore import DataStore
from repro.platform.gateway import ApiGateway
from repro.platform.tasks import TaskState
from repro.platform.webui import WebUI

from _harness import write_report


@pytest.fixture(scope="module")
def bench_catalog(enwiki_2018):
    """A catalog holding the Table-I dataset plus a smaller edition."""
    catalog = DatasetCatalog()
    catalog.register_graph("enwiki-2018", enwiki_2018, family="wikipedia",
                           description="synthetic enwiki 2018-03-01")
    catalog.register_graph(
        "nlwiki-2018",
        generate_wikilink_graph("nl", "2018-03-01"),
        family="wikipedia",
        description="synthetic nlwiki 2018-03-01",
    )
    return catalog


QUERIES = [
    {"dataset_id": "enwiki-2018", "algorithm": "cyclerank",
     "source": "Fake news", "parameters": {"k": 3, "sigma": "exp"}},
    {"dataset_id": "enwiki-2018", "algorithm": "personalized-pagerank",
     "source": "Fake news", "parameters": {"alpha": 0.3}},
    {"dataset_id": "enwiki-2018", "algorithm": "pagerank",
     "parameters": {"alpha": 0.3}},
]


@pytest.mark.benchmark(group="fig1-platform")
def test_bench_full_lifecycle_async(benchmark, bench_catalog):
    """Time the asynchronous lifecycle: submit, execute on workers, poll, fetch."""
    gateway = ApiGateway(catalog=bench_catalog, num_workers=2)

    def lifecycle() -> str:
        comparison_id = gateway.run_queries(QUERIES, synchronous=False)
        gateway.wait_for(comparison_id, timeout_seconds=120)
        table = gateway.get_comparison_table(comparison_id, k=5)
        assert table.rows[0][0] == "Fake news"
        return comparison_id

    try:
        comparison_id = benchmark.pedantic(lifecycle, rounds=3, iterations=1)
        assert gateway.get_status(comparison_id).state is TaskState.COMPLETED
    finally:
        gateway.shutdown()


@pytest.mark.benchmark(group="fig1-platform")
def test_bench_full_lifecycle_synchronous(benchmark, bench_catalog):
    """Time the synchronous lifecycle (single worker, no polling overhead)."""
    gateway = ApiGateway(catalog=bench_catalog, num_workers=1)

    def lifecycle() -> str:
        return gateway.run_queries(QUERIES, synchronous=True)

    try:
        comparison_id = benchmark.pedantic(lifecycle, rounds=3, iterations=1)
        assert len(gateway.get_rankings(comparison_id)) == len(QUERIES)
    finally:
        gateway.shutdown()


@pytest.mark.benchmark(group="fig1-platform")
def test_bench_gateway_discovery_endpoints(benchmark, bench_catalog):
    """Time the discovery endpoints the Web UI calls to populate its forms."""
    gateway = ApiGateway(catalog=bench_catalog, num_workers=1)

    def discover():
        datasets = gateway.list_datasets()
        algorithms = gateway.list_algorithms()
        return datasets, algorithms

    try:
        datasets, algorithms = benchmark(discover)
        assert len(datasets) == 2
        assert len(algorithms) >= 7
    finally:
        gateway.shutdown()


@pytest.mark.benchmark(group="fig1-platform")
def test_bench_datastore_result_round_trip(benchmark, tmp_path):
    """Time writing and reading back one result file (step 4 of the lifecycle)."""
    datastore = DataStore(tmp_path)
    payload = {"rankings": {str(i): {"scores": list(range(100))} for i in range(3)}}

    counter = {"value": 0}

    def round_trip():
        counter["value"] += 1
        result_id = f"result-{counter['value']}"
        datastore.put_result(result_id, payload)
        return datastore.get_result(result_id)

    stored = benchmark(round_trip)
    assert "rankings" in stored


@pytest.mark.benchmark(group="fig1-platform")
def test_regenerate_fig1_trace(benchmark, bench_catalog):
    """Record one full lifecycle trace (logs + rendered results) as the figure artefact."""
    gateway = ApiGateway(catalog=bench_catalog, num_workers=2)

    def traced_lifecycle() -> str:
        comparison_id = gateway.run_queries(QUERIES, synchronous=False)
        gateway.wait_for(comparison_id, timeout_seconds=120)
        return comparison_id

    try:
        comparison_id = benchmark.pedantic(traced_lifecycle, rounds=1, iterations=1)
        ui = WebUI(gateway)
        lines = [
            "Figure 1 (reproduced): one pass through the platform lifecycle",
            "=" * 70,
            "",
            "Rendered results view:",
            ui.render_results(comparison_id, k=5),
            "",
            "Execution log (job events):",
            *(f"  {line}" for line in gateway.get_logs(comparison_id)),
        ]
        report = write_report("fig1_platform_lifecycle.txt", "\n".join(lines))
        assert report.exists()
        progress = gateway.get_status(comparison_id)
        assert progress.state is TaskState.COMPLETED
        assert progress.completed_queries == len(QUERIES)
    finally:
        gateway.shutdown()
