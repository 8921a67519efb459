"""End-to-end integration tests of the whole platform (Figure 1 lifecycle).

These tests drive the system exactly the way the Web UI does: build a query
set through the gateway, submit it, poll the Status component, and read the
results and logs back from the datastore — covering steps 1-5 of Section III
in one pass, including persistence to disk and concurrent comparisons.
"""

from __future__ import annotations

import concurrent.futures

import pytest

from repro.datasets.catalog import DatasetCatalog
from repro.platform.datastore import DataStore
from repro.platform.gateway import ApiGateway
from repro.platform.tasks import TaskState
from repro.platform.webui import WebUI
from repro.ranking.result import Ranking


@pytest.fixture
def catalog(small_enwiki, small_amazon, small_twitter) -> DatasetCatalog:
    catalog = DatasetCatalog()
    catalog.register_graph("enwiki-2018", small_enwiki, family="wikipedia",
                           description="small synthetic enwiki")
    catalog.register_graph("amazon-copurchase", small_amazon, family="amazon",
                           description="small synthetic amazon")
    catalog.register_graph("twitter-cop27", small_twitter, family="twitter",
                           description="small synthetic twitter")
    return catalog


class TestFullLifecycle:
    def test_five_step_lifecycle(self, catalog, tmp_path):
        """Steps 1-5: build -> schedule -> execute -> store -> display."""
        datastore = DataStore(directory=tmp_path)
        with ApiGateway(catalog=catalog, datastore=datastore, num_workers=2) as gateway:
            # Step 1: the Task Builder assembles the (dataset, algorithm,
            # parameters) triples into a query set with a permalink id.
            query_set = gateway.new_query_set()
            gateway.add_query(query_set, "enwiki-2018", "cyclerank",
                              source="Fake news", parameters={"k": 3, "sigma": "exp"})
            gateway.add_query(query_set, "enwiki-2018", "personalized-pagerank",
                              source="Fake news", parameters={"alpha": 0.3})
            gateway.add_query(query_set, "enwiki-2018", "pagerank",
                              parameters={"alpha": 0.3})
            comparison_id = gateway.submit_comparison(query_set)

            # Step 3: the Status component polls while workers run.
            progress = gateway.wait_for(comparison_id, timeout_seconds=60)
            assert progress.state is TaskState.COMPLETED
            assert progress.completed_queries == 3

            # Step 4: the results are on disk; the log is the record's events.
            stored = datastore.get_result(comparison_id)
            assert stored["state"] == "completed"
            assert (tmp_path / "results" / f"{comparison_id}.json").exists()
            logs = gateway.get_logs(comparison_id)
            assert any("done" in line for line in logs)

            # Step 5: the API returns the results, the UI displays them.
            table = gateway.get_comparison_table(comparison_id, k=5)
            assert table.rows[0][0] == "Fake news"
            rendered = WebUI(gateway).render_results(comparison_id, k=5)
            assert "Fake news" in rendered

    def test_stored_results_survive_gateway_restart(self, catalog, tmp_path):
        datastore = DataStore(directory=tmp_path)
        with ApiGateway(catalog=catalog, datastore=datastore, num_workers=1) as gateway:
            comparison_id = gateway.run_queries(
                [{"dataset_id": "amazon-copurchase", "algorithm": "cyclerank",
                  "source": "1984", "parameters": {"k": 3}}]
            )
            table_before = gateway.get_comparison_table(comparison_id, k=5).as_dict()
        # A brand-new datastore over the same directory can still serve the
        # permalink, which is exactly what makes comparison ids permalinks.
        fresh_store = DataStore(directory=tmp_path)
        payload = fresh_store.get_result(comparison_id)
        ranking = Ranking.from_dict(payload["rankings"]["0"])
        assert ranking.top_labels(1) == ["1984"]
        with ApiGateway(catalog=catalog, datastore=fresh_store, num_workers=1) as gateway:
            assert gateway.get_comparison_table(comparison_id, k=5).as_dict() == table_before

    def test_concurrent_comparisons_do_not_interfere(self, catalog):
        with ApiGateway(catalog=catalog, num_workers=4) as gateway:
            def submit(reference: str) -> str:
                return gateway.run_queries(
                    [{"dataset_id": "enwiki-2018", "algorithm": "cyclerank",
                      "source": reference, "parameters": {"k": 3}}],
                    synchronous=False,
                )

            references = ["Freddie Mercury", "Pasta", "Fake news"]
            with concurrent.futures.ThreadPoolExecutor(max_workers=3) as pool:
                ids = list(pool.map(submit, references))
            assert len(set(ids)) == 3
            for comparison_id, reference in zip(ids, references):
                gateway.wait_for(comparison_id, timeout_seconds=60)
                ranking = gateway.get_rankings(comparison_id)[0]
                assert ranking.reference == reference
                assert ranking.top_labels(1) == [reference]

    def test_all_seven_paper_algorithms_through_the_platform(self, catalog):
        from repro.algorithms.registry import PAPER_ALGORITHMS, get_algorithm

        with ApiGateway(catalog=catalog, num_workers=2) as gateway:
            queries = []
            for name in PAPER_ALGORITHMS:
                algorithm = get_algorithm(name)
                queries.append(
                    {
                        "dataset_id": "twitter-cop27",
                        "algorithm": name,
                        "source": "@climate_voice" if algorithm.is_personalized else None,
                        "parameters": {},
                    }
                )
            comparison_id = gateway.run_queries(queries)
            rankings = gateway.get_rankings(comparison_id)
            assert len(rankings) == len(PAPER_ALGORITHMS)
            table = gateway.get_comparison_table(comparison_id, k=5)
            assert len(table.columns) == len(PAPER_ALGORITHMS)

    def test_executor_pool_scaling_mid_session(self, catalog):
        with ApiGateway(catalog=catalog, num_workers=1) as gateway:
            first = gateway.run_queries(
                [{"dataset_id": "twitter-cop27", "algorithm": "pagerank"}]
            )
            gateway.executor_pool.scale_to(3)
            second = gateway.run_queries(
                [{"dataset_id": "twitter-cop27", "algorithm": "cheirank"}]
            )
            assert gateway.get_status(first).state is TaskState.COMPLETED
            assert gateway.get_status(second).state is TaskState.COMPLETED

    def test_failed_query_is_reported_not_swallowed(self, catalog):
        with ApiGateway(catalog=catalog, num_workers=1) as gateway:
            comparison_id = gateway.run_queries(
                [{"dataset_id": "enwiki-2018", "algorithm": "cyclerank",
                  "source": "No Such Article", "parameters": {"k": 3}}],
                synchronous=False,
            )
            gateway.scheduler.wait(comparison_id, timeout=60)
            progress = gateway.status.poll_until_done(comparison_id, timeout_seconds=60)
            assert progress.state is TaskState.FAILED
            assert "No Such Article" in (progress.error or "")
            rendered = WebUI(gateway).render_results(comparison_id)
            assert "error" in rendered.lower()
