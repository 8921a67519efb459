"""Unit tests for :mod:`repro.cli`.

The CLI commands that need a full-size catalog dataset would be slow to run
repeatedly, so these tests register a small uploaded dataset through a
monkeypatched default catalog where appropriate and otherwise exercise the
commands against the smallest catalog datasets.
"""

from __future__ import annotations

import os

import pytest

from repro.cli import DEFAULT_COMPARISON_ALGORITHMS, build_parser, main
from repro.datasets.catalog import DatasetCatalog


@pytest.fixture
def tiny_catalog(small_enwiki, small_amazon, two_triangles, monkeypatch) -> DatasetCatalog:
    """Patch the gateway's default catalog with a small, fast one."""
    from repro.datasets.wikipedia import generate_wikilink_graph

    catalog = DatasetCatalog()
    catalog.register_graph("enwiki-2018", small_enwiki, family="wikipedia",
                           description="small synthetic enwiki")
    catalog.register_graph(
        "dewiki-2018",
        generate_wikilink_graph("de", "2018-03-01", num_filler_articles=40, seed=3),
        family="wikipedia",
        description="small synthetic dewiki",
    )
    catalog.register_graph("amazon-copurchase", small_amazon, family="amazon",
                           description="small synthetic amazon")
    catalog.register_graph("toy", two_triangles, family="synthetic", description="toy")
    monkeypatch.setattr("repro.platform.gateway.default_catalog", lambda: catalog)
    return catalog


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_default_comparison_algorithms_match_paper_tables(self):
        assert DEFAULT_COMPARISON_ALGORITHMS == (
            "pagerank", "cyclerank", "personalized-pagerank"
        )

    def test_run_command_parsing(self):
        arguments = build_parser().parse_args(
            ["run", "enwiki-2018", "cyclerank", "--source", "Pasta", "--param", "k=3"]
        )
        assert arguments.command == "run"
        assert arguments.param == ["k=3"]


class TestCommands:
    def test_datasets_command(self, tiny_catalog, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "enwiki-2018" in output
        assert "amazon-copurchase" in output

    def test_datasets_command_family_filter(self, tiny_catalog, capsys):
        assert main(["datasets", "--family", "amazon"]) == 0
        output = capsys.readouterr().out
        assert "amazon-copurchase" in output
        assert "enwiki-2018" not in output

    def test_algorithms_command(self, tiny_catalog, capsys):
        assert main(["algorithms"]) == 0
        output = capsys.readouterr().out
        assert "Cyclerank" in output
        assert "Pers. PageRank" in output

    def test_summary_command(self, tiny_catalog, capsys):
        assert main(["summary", "toy"]) == 0
        output = capsys.readouterr().out
        assert "num_nodes" in output
        assert "reciprocity" in output

    def test_run_command(self, tiny_catalog, capsys):
        exit_code = main(
            ["run", "toy", "cyclerank", "--source", "R", "--param", "k=3", "--top", "3",
             "--scores"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "CycleRank" in output
        assert "R" in output

    def test_run_command_unknown_dataset_reports_error(self, tiny_catalog, capsys):
        exit_code = main(["run", "no-such-dataset", "pagerank"])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_run_command_bad_param_format_exits(self, tiny_catalog):
        with pytest.raises(SystemExit):
            main(["run", "toy", "cyclerank", "--source", "R", "--param", "k3"])

    def test_compare_command(self, tiny_catalog, capsys):
        exit_code = main(
            ["compare", "enwiki-2018", "--source", "Freddie Mercury", "--top", "5", "--logs"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Cyclerank" in output
        assert "PageRank" in output
        assert "Freddie Mercury" in output
        assert "query 0 started: pagerank on enwiki-2018" in output
        assert "comparison done (3/3 queries)" in output

    def test_cross_language_command(self, tiny_catalog, capsys):
        exit_code = main(
            ["cross-language", "--languages", "en", "de", "--snapshot-year", "2018",
             "--top", "3"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Fake news (en)" in output
        assert "Fake News (de)" in output

    def test_cross_language_skips_unknown_language(self, tiny_catalog, capsys):
        exit_code = main(
            ["cross-language", "--languages", "xx", "en", "--snapshot-year", "2018"]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "skipping unknown language" in captured.err


class TestStatsFlag:
    def test_run_command_prints_stats(self, tiny_catalog, capsys):
        exit_code = main(["run", "toy", "cyclerank", "--source", "R", "--stats"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "cache:" in output
        assert "batches:" in output
        assert "misses" in output

    def test_stats_include_overload_and_telemetry_sections(self, tiny_catalog, capsys):
        exit_code = main(["run", "toy", "cyclerank", "--source", "R", "--stats"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "admission: disabled" in output
        assert "deadlines:" in output
        assert "telemetry:" in output
        assert "span comparison:" in output
        assert "p95" in output

    def test_compare_command_prints_stats(self, tiny_catalog, capsys):
        exit_code = main(
            ["compare", "toy", "--source", "R", "--algorithms",
             "personalized-pagerank", "--stats"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "cache:" in output
        assert "1 dispatched" in output or "dispatched" in output

    def test_stats_are_omitted_without_the_flag(self, tiny_catalog, capsys):
        assert main(["run", "toy", "cyclerank", "--source", "R"]) == 0
        output = capsys.readouterr().out
        assert "cache:" not in output
        assert "telemetry:" not in output


class TestTraceFlag:
    def test_run_command_prints_the_span_waterfall(self, tiny_catalog, capsys):
        exit_code = main(["run", "toy", "cyclerank", "--source", "R", "--trace"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Trace for comparison" in output
        assert "trace_id:" in output
        assert "comparison" in output
        assert "group_dispatch" in output
        assert "batch_execute" in output

    def test_compare_command_prints_the_span_waterfall(self, tiny_catalog, capsys):
        exit_code = main(
            ["compare", "toy", "--source", "R", "--algorithms",
             "personalized-pagerank", "--trace"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Trace for comparison" in output
        assert "store_results" in output

    def test_trace_is_omitted_without_the_flag(self, tiny_catalog, capsys):
        assert main(["run", "toy", "cyclerank", "--source", "R"]) == 0
        assert "Trace for comparison" not in capsys.readouterr().out


class TestShardsFlag:
    def test_run_command_on_a_sharded_store(self, tiny_catalog, capsys):
        exit_code = main(
            ["run", "toy", "cyclerank", "--source", "R", "--shards", "3",
             "--stats"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "CycleRank" in output
        assert "shards: 3 on the ring" in output
        assert "shard-0" in output

    def test_compare_command_on_a_sharded_store(self, tiny_catalog, capsys):
        exit_code = main(
            ["compare", "toy", "--source", "R", "--algorithms",
             "personalized-pagerank", "--shards", "2", "--stats"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Pers. PageRank" in output
        assert "shards: 2 on the ring" in output

    @pytest.mark.skipif(
        bool(int(os.environ.get("REPRO_TEST_SHARDS", "0") or 0))
        or bool(int(os.environ.get("REPRO_TEST_REPLICAS", "0") or 0)),
        reason="the scaled-topology runs make every default gateway sharded",
    )
    def test_shard_line_is_omitted_on_a_single_store(self, tiny_catalog, capsys):
        assert main(["run", "toy", "cyclerank", "--source", "R", "--stats"]) == 0
        assert "shards:" not in capsys.readouterr().out

    def test_non_positive_shards_is_rejected(self, tiny_catalog, capsys):
        assert main(["run", "toy", "cyclerank", "--source", "R", "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err


class TestReplicasFlag:
    def test_run_command_on_a_replicated_store(self, tiny_catalog, capsys, tmp_path):
        exit_code = main(
            ["run", "toy", "cyclerank", "--source", "R", "--shards", "3",
             "--replicas", "2", "--spill-dir", str(tmp_path), "--stats"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "CycleRank" in output
        assert "shards: 3 on the ring" in output
        assert "replication: R=2 (quorum 2)" in output
        assert "spill: 0 dataset(s) on the file tier" in output

    def test_replicas_without_shards_builds_a_default_ring(self, tiny_catalog, capsys):
        exit_code = main(
            ["run", "toy", "cyclerank", "--source", "R", "--replicas", "2",
             "--stats"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "shards: 3 on the ring" in output  # replicas + 1 backends
        assert "replication: R=2" in output
        assert "spill:" not in output  # no spill tier configured

    def test_non_positive_replicas_is_rejected(self, tiny_catalog, capsys):
        assert main(
            ["run", "toy", "cyclerank", "--source", "R", "--replicas", "0"]
        ) == 2
        assert "--replicas" in capsys.readouterr().err


class TestRetryBudgetFlag:
    def test_retry_budget_sizes_the_ring_store_bucket(
        self, tiny_catalog, capsys, monkeypatch
    ):
        import repro.cli as cli_module

        built = []

        class RecordingGateway(cli_module.ApiGateway):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                built.append(self)

        monkeypatch.setattr(cli_module, "ApiGateway", RecordingGateway)
        exit_code = main(
            ["run", "toy", "pagerank", "--shards", "2", "--retry-budget", "5",
             "--stats"]
        )
        assert exit_code == 0
        [gateway] = built
        assert gateway.datastore.retry_budget.capacity == 5
        assert "/5 tokens" in capsys.readouterr().out

    def test_retry_budget_needs_a_ring(self, tiny_catalog, capsys):
        assert main(["run", "toy", "pagerank", "--retry-budget", "5"]) == 1
        assert "retry_budget_capacity" in capsys.readouterr().err

    def test_negative_retry_budget_is_rejected(self, tiny_catalog, capsys):
        assert main(
            ["run", "toy", "pagerank", "--shards", "2", "--retry-budget", "-1"]
        ) == 2
        assert "--retry-budget" in capsys.readouterr().err


class TestWaitFlags:
    def test_no_wait_prints_only_the_comparison_id(self, tiny_catalog, capsys):
        exit_code = main(["run", "toy", "cyclerank", "--source", "R", "--no-wait"])
        assert exit_code == 0
        output = capsys.readouterr().out.strip().splitlines()
        assert len(output) == 1
        # The only line is the permalink id (a UUID).
        import uuid

        uuid.UUID(output[0])

    def test_follow_streams_progress_then_prints_results(self, tiny_catalog, capsys):
        exit_code = main(
            ["run", "toy", "cyclerank", "--source", "R", "--param", "k=3",
             "--top", "3", "--follow"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "submitted 1 queries" in output
        assert "query 0 started: cyclerank on toy" in output
        assert "query 0 completed (1/1 done)" in output
        assert "comparison done (1/1 queries)" in output
        assert "CycleRank" in output  # the normal results still print

    def test_follow_and_no_wait_are_mutually_exclusive(self, tiny_catalog):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "toy", "pagerank", "--no-wait", "--follow"]
            )

    def test_follow_output_matches_the_blocking_results(self, tiny_catalog, capsys):
        blocking_code = main(
            ["run", "toy", "cyclerank", "--source", "R", "--param", "k=3",
             "--top", "5", "--scores"]
        )
        blocking_output = capsys.readouterr().out
        follow_code = main(
            ["run", "toy", "cyclerank", "--source", "R", "--param", "k=3",
             "--top", "5", "--scores", "--follow"]
        )
        follow_output = capsys.readouterr().out
        assert blocking_code == follow_code == 0
        # Strip the streamed progress prologue: everything from the ranking
        # header onwards must be bit-identical to the blocking run.
        marker = blocking_output.splitlines()[0]
        assert marker in follow_output
        follow_results = follow_output[follow_output.index(marker):]
        assert follow_results == blocking_output

    def test_compare_follow_renders_per_query_lines(self, tiny_catalog, capsys):
        exit_code = main(
            ["compare", "toy", "--source", "R", "--algorithms", "pagerank",
             "cyclerank", "--follow"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "query 0 started" in output
        assert "query 1 started" in output
        assert "comparison done (2/2 queries)" in output
        assert "Cyclerank" in output

    def test_compare_no_wait_prints_the_id(self, tiny_catalog, capsys):
        exit_code = main(["compare", "toy", "--source", "R", "--no-wait"])
        assert exit_code == 0
        import uuid

        uuid.UUID(capsys.readouterr().out.strip())
