"""Unit tests for :mod:`repro.platform.gateway` and :mod:`repro.platform.webui`."""

from __future__ import annotations

import pytest

from repro.datasets.catalog import DatasetCatalog
from repro.exceptions import TaskError, TaskNotFoundError
from repro.graph.digraph import DirectedGraph
from repro.graph.generators import preferential_attachment_graph
from repro.io.edgelist import write_edgelist
from repro.platform.gateway import ApiGateway
from repro.platform.jobs import describe_event
from repro.platform.tasks import TaskState
from repro.platform.webui import WebUI


@pytest.fixture
def small_catalog(small_enwiki, small_amazon, two_triangles) -> DatasetCatalog:
    catalog = DatasetCatalog()
    catalog.register_graph("enwiki-small", small_enwiki, family="wikipedia",
                           description="small synthetic enwiki")
    catalog.register_graph("amazon-small", small_amazon, family="amazon",
                           description="small synthetic amazon")
    catalog.register_graph("toy", two_triangles, family="synthetic", description="toy graph")
    return catalog


@pytest.fixture
def gateway(small_catalog):
    with ApiGateway(catalog=small_catalog, num_workers=2) as gateway:
        yield gateway


class TestDiscovery:
    def test_list_datasets(self, gateway):
        datasets = gateway.list_datasets()
        assert {entry["dataset_id"] for entry in datasets} == {
            "enwiki-small", "amazon-small", "toy"
        }
        wikipedia_only = gateway.list_datasets(family="wikipedia")
        assert len(wikipedia_only) == 1

    def test_list_algorithms_includes_the_seven_of_the_paper(self, gateway):
        names = {entry["name"] for entry in gateway.list_algorithms()}
        assert {
            "cyclerank", "pagerank", "personalized-pagerank", "cheirank",
            "personalized-cheirank", "2drank", "personalized-2drank",
        } <= names
        cyclerank_entry = next(e for e in gateway.list_algorithms() if e["name"] == "cyclerank")
        assert cyclerank_entry["personalized"] is True
        assert {p["name"] for p in cyclerank_entry["parameters"]} == {"k", "sigma"}

    def test_dataset_summary(self, gateway):
        summary = gateway.dataset_summary("toy")
        assert summary["num_nodes"] == 5
        assert summary["num_edges"] == 6

    def test_default_catalog_used_when_none_given(self):
        with ApiGateway() as gateway:
            assert len(gateway.list_datasets()) == 50


class TestUpload:
    def test_upload_graph(self, gateway, community_graph):
        summary = gateway.upload_dataset("mine", community_graph, description="uploaded")
        assert summary["num_nodes"] == community_graph.number_of_nodes()
        assert "mine" in {entry["dataset_id"] for entry in gateway.list_datasets()}

    def test_upload_file(self, gateway, tmp_path):
        graph = DirectedGraph()
        graph.add_edge("A", "B")
        graph.add_edge("B", "A")
        path = tmp_path / "uploaded.csv"
        write_edgelist(graph, path)
        summary = gateway.upload_dataset("from-file", path)
        assert summary["num_edges"] == 2

    def test_uploaded_dataset_is_runnable(self, gateway, community_graph):
        gateway.upload_dataset("mine", community_graph)
        comparison = gateway.run_queries(
            [{"dataset_id": "mine", "algorithm": "cyclerank", "source": "c0-n0",
              "parameters": {"k": 3}}]
        )
        assert gateway.get_rankings(comparison)[0].reference == "c0-n0"

    def test_generated_graph_runs_from_its_display_labels(self, gateway):
        graph = preferential_attachment_graph(50, 3, seed=7)
        gateway.upload_dataset("pa", graph)
        source = graph.label_of(5)
        assert source == "#5"
        comparison = gateway.run_queries(
            [{"dataset_id": "pa", "algorithm": "personalized-pagerank", "source": source}]
        )
        assert gateway.get_status(comparison).state is TaskState.COMPLETED
        assert gateway.get_rankings(comparison)[0].reference == source


class TestComparisons:
    def test_synchronous_algorithm_comparison(self, gateway):
        comparison = gateway.run_queries(
            [
                {"dataset_id": "enwiki-small", "algorithm": "cyclerank",
                 "source": "Freddie Mercury", "parameters": {"k": 3}},
                {"dataset_id": "enwiki-small", "algorithm": "personalized-pagerank",
                 "source": "Freddie Mercury", "parameters": {"alpha": 0.3}},
                {"dataset_id": "enwiki-small", "algorithm": "pagerank",
                 "parameters": {"alpha": 0.85}},
            ]
        )
        progress = gateway.get_status(comparison)
        assert progress.state is TaskState.COMPLETED
        table = gateway.get_comparison_table(comparison, k=5)
        assert table.columns == ["Cyclerank", "Pers. PageRank", "PageRank"]
        assert len(table.rows) == 5
        assert table.rows[0][0] == "Freddie Mercury"

    def test_asynchronous_submission_with_polling(self, gateway):
        query_set = gateway.new_query_set()
        gateway.add_query(query_set, "toy", "cyclerank", source="R", parameters={"k": 3})
        gateway.add_query(query_set, "toy", "personalized-pagerank", source="R")
        comparison = gateway.submit_comparison(query_set)
        assert comparison == query_set.comparison_id
        progress = gateway.wait_for(comparison, timeout_seconds=30)
        assert progress.state is TaskState.COMPLETED
        assert len(gateway.get_rankings(comparison)) == 2

    def test_dataset_comparison_headers_include_dataset(self, gateway):
        comparison = gateway.run_queries(
            [
                {"dataset_id": "enwiki-small", "algorithm": "pagerank"},
                {"dataset_id": "amazon-small", "algorithm": "pagerank"},
            ]
        )
        table = gateway.get_comparison_table(comparison, k=3)
        assert any("enwiki-small" in column for column in table.columns)
        assert any("amazon-small" in column for column in table.columns)

    def test_logs_record_the_lifecycle(self, gateway):
        comparison = gateway.run_queries(
            [{"dataset_id": "toy", "algorithm": "pagerank"}]
        )
        logs = gateway.get_logs(comparison)
        assert logs[0] == "submitted 1 queries"
        assert "query 0 started: pagerank on toy" in logs
        assert logs[-1] == "comparison done (1/1 queries)"

    def test_logs_are_the_follow_rendering_of_the_events(self, gateway):
        comparison = gateway.run_queries(
            [
                {"dataset_id": "toy", "algorithm": "pagerank"},
                {"dataset_id": "toy", "algorithm": "personalized-pagerank", "source": "R"},
            ]
        )
        events = gateway.get_events(comparison)
        assert gateway.get_logs(comparison) == [describe_event(event) for event in events]

    def test_logs_of_an_unknown_comparison_raise(self, gateway):
        with pytest.raises(TaskNotFoundError):
            gateway.get_logs("no-such-comparison")

    def test_empty_query_set_rejected(self, gateway):
        with pytest.raises(TaskError):
            gateway.submit_comparison(gateway.new_query_set())

    def test_invalid_query_rejected_before_submission(self, gateway):
        query_set = gateway.new_query_set()
        with pytest.raises(TaskError):
            gateway.add_query(query_set, "toy", "cyclerank")  # missing source
        with pytest.raises(TaskError):
            gateway.add_query(query_set, "missing-dataset", "pagerank")

    def test_get_task_returns_underlying_object(self, gateway):
        comparison = gateway.run_queries([{"dataset_id": "toy", "algorithm": "pagerank"}])
        task = gateway.get_task(comparison)
        assert task.job_id == comparison
        assert task.query_set.queries[0].algorithm == "pagerank"


class TestWebUI:
    def test_dataset_and_algorithm_pickers(self, gateway):
        ui = WebUI(gateway)
        datasets_view = ui.render_dataset_picker()
        assert "enwiki-small" in datasets_view
        assert "amazon-small" in datasets_view
        algorithms_view = ui.render_algorithm_picker()
        assert "Cyclerank" in algorithms_view
        assert "damping factor" in algorithms_view

    def test_task_builder_view_matches_figure_two(self, gateway):
        ui = WebUI(gateway)
        query_set = gateway.new_query_set()
        gateway.add_query(query_set, "enwiki-small", "cyclerank",
                          source="Fake news", parameters={"k": 3})
        gateway.add_query(query_set, "enwiki-small", "pagerank", parameters={"alpha": 0.3})
        view = ui.render_task_builder(query_set)
        assert f"Comparison id: {query_set.comparison_id}" in view
        assert "cyclerank" in view
        assert "Fake news" in view
        assert "k=3" in view
        assert "[✕]" in view  # per-row removal
        assert "clear all" in view

    def test_task_builder_view_empty_state(self, gateway):
        ui = WebUI(gateway)
        view = ui.render_task_builder(gateway.new_query_set())
        assert "empty" in view

    def test_results_view_with_logs(self, gateway):
        ui = WebUI(gateway)
        comparison = gateway.run_queries(
            [{"dataset_id": "toy", "algorithm": "cyclerank", "source": "R",
              "parameters": {"k": 3}}]
        )
        view = ui.render_results(comparison, k=3, show_scores=True, include_logs=True)
        assert "completed" in view
        assert "R" in view
        assert "Execution log" in view

    def test_html_rendering(self, gateway):
        ui = WebUI(gateway)
        comparison = gateway.run_queries(
            [{"dataset_id": "toy", "algorithm": "personalized-pagerank", "source": "R"}]
        )
        html_view = ui.render_results_html(comparison, k=3)
        assert "<table>" in html_view
        assert "<td>R</td>" in html_view
