"""Tests for the observability layer (:mod:`repro.platform.telemetry`).

Covers the metrics registry (counters/gauges/histograms and the Prometheus
text exposition), span propagation through the thread-local seam, the
end-to-end trace a completed comparison reconstructs (gateway submit →
scheduler dispatch → batch execute → storage writes), the ``/metrics`` and
``/api/comparisons/<id>/trace`` REST endpoints, the ``telemetry`` stats
section, and a failover read's per-replica attempts under the fault
harness.  CI runs this file on all three storage topologies (single store,
4-shard, replicated — see ``conftest._sharded_default_datastore``).
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import sys
import threading
import urllib.error
import urllib.request
import uuid

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faults import FlakyStore

from repro.datasets.catalog import DatasetCatalog
from repro.exceptions import TaskNotFoundError
from repro.graph.generators import cycle_graph, star_graph
from repro.platform.datastore import DataStore
from repro.platform.gateway import ApiGateway
from repro.platform.restapi import RestApiServer
from repro.platform.telemetry import (
    DEFAULT_BUCKETS_MS,
    MetricsRegistry,
    Tracer,
    _Histogram,
    add_span_event,
    child_span,
    current_span,
    trace_scope,
)
from repro.platform.webui import WebUI


def _catalog() -> DatasetCatalog:
    catalog = DatasetCatalog()
    catalog.register_graph(
        "tele-cycle", cycle_graph(8), family="synthetic",
        description="telemetry test cycle",
    )
    catalog.register_graph(
        "tele-star", star_graph(6, reciprocal=True), family="synthetic",
        description="telemetry test star",
    )
    return catalog


def _pagerank_query(alpha: float = 0.85, dataset: str = "tele-cycle") -> dict:
    return {
        "dataset_id": dataset,
        "algorithm": "pagerank",
        "source": None,
        "parameters": {"alpha": alpha},
    }


@pytest.fixture
def gateway():
    gw = ApiGateway(catalog=_catalog(), num_workers=2)
    yield gw
    gw.shutdown()


# --------------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counters_accumulate_per_label_set(self):
        registry = MetricsRegistry()
        registry.counter_inc("requests", method="GET")
        registry.counter_inc("requests", method="GET")
        registry.counter_inc("requests", method="POST")
        snapshot = registry.snapshot()
        assert snapshot["requests"]['{method="GET"}'] == 2.0
        assert snapshot["requests"]['{method="POST"}'] == 1.0

    def test_unlabelled_scalar_snapshots_as_bare_value(self):
        registry = MetricsRegistry()
        registry.counter_inc("total", amount=3)
        assert registry.snapshot()["total"] == 3.0

    def test_gauge_set_overwrites(self):
        registry = MetricsRegistry()
        registry.gauge_set("depth", 4)
        registry.gauge_set("depth", 2)
        assert registry.snapshot()["depth"] == 2.0

    def test_histogram_percentiles_bracket_the_observations(self):
        registry = MetricsRegistry()
        for value in [1.0] * 90 + [400.0] * 10:
            registry.observe("latency_ms", value)
        summary = registry.snapshot()["latency_ms"]["_"]
        assert summary["count"] == 100
        assert summary["p50"] <= 25.0  # the 1ms mass lands in low buckets
        assert summary["p99"] >= 250.0  # the 400ms tail lands high

    def test_reusing_a_name_with_a_different_kind_raises(self):
        registry = MetricsRegistry()
        registry.counter_inc("thing")
        with pytest.raises(ValueError):
            registry.gauge_set("thing", 1)

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter_inc("requests")
        registry.gauge_set("depth", 1)
        registry.observe("latency_ms", 5.0)
        assert registry.snapshot() == {}
        assert registry.render_prometheus() == ""

    def test_render_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter_inc("odd", label='va"l\\ue')
        text = registry.render_prometheus()
        assert 'label="va\\"l\\\\ue"' in text

    def test_render_emits_help_and_type_once_per_metric(self):
        registry = MetricsRegistry()
        registry.counter_inc("requests", help="Requests served", method="GET")
        registry.counter_inc("requests", method="POST")
        text = registry.render_prometheus()
        assert text.count("# TYPE repro_requests counter") == 1
        assert text.count("# HELP repro_requests") == 1

    def test_callback_gauges_are_sampled_at_scrape_time(self):
        registry = MetricsRegistry()
        box = {"value": 1.0}
        registry.register_callback("box_level", lambda: box["value"])
        assert "repro_box_level 1" in registry.render_prometheus()
        box["value"] = 7.0
        assert "repro_box_level 7" in registry.render_prometheus()


# --------------------------------------------------------------------------- #
# span propagation
# --------------------------------------------------------------------------- #
class TestSpanPropagation:
    def test_child_span_is_a_noop_without_an_ambient_parent(self):
        assert current_span() is None
        with child_span("orphan") as span:
            assert span.recording is False
        add_span_event("ignored")  # must not raise

    def test_child_spans_nest_and_restore_the_ambient_parent(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry)
        root = tracer.start_trace("root")
        with trace_scope(root):
            with child_span("outer") as outer:
                assert current_span() is outer
                with child_span("inner") as inner:
                    assert inner.parent_id == outer.span_id
                assert current_span() is outer
            assert current_span() is root
        root.finish()
        tree = tracer.trace_tree(root.trace_id)
        names = {span["name"] for span in tree["roots"][0]["children"]}
        assert "outer" in names

    def test_escaping_exception_is_annotated_and_reraised(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry)
        root = tracer.start_trace("root")
        with trace_scope(root):
            with pytest.raises(ValueError):
                with child_span("doomed"):
                    raise ValueError("boom")
        root.finish()
        tree = tracer.trace_tree(root.trace_id)
        doomed = next(
            span for span in tree["roots"][0]["children"] if span["name"] == "doomed"
        )
        assert doomed["annotations"]["error"] == "ValueError"

    def test_slow_spans_land_in_the_bounded_ring(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry, slow_threshold_ms=0.000001)
        span = tracer.start_trace("slowpoke")
        span.finish()
        slow = tracer.stats()["slow_spans"]
        assert any(entry["span"] == "slowpoke" for entry in slow)

    def test_trace_store_is_bounded_lru(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry, max_traces=2)
        ids = []
        for _ in range(3):
            span = tracer.start_trace("t")
            span.finish()
            ids.append(span.trace_id)
        assert tracer.trace_tree(ids[0]) is None  # evicted
        assert tracer.trace_tree(ids[-1]) is not None


# --------------------------------------------------------------------------- #
# the fixed cost of a recorded span: ids, histograms, frozen spans
# --------------------------------------------------------------------------- #
def _linear_bucket(bounds, value):
    """The histogram's former bucket scan, kept as the oracle."""
    for position, bound in enumerate(bounds):
        if value <= bound:
            return position
    return len(bounds)


def _bucket_of(value, bounds=DEFAULT_BUCKETS_MS):
    histogram = _Histogram(bounds)
    histogram.observe(value)
    return histogram.counts.index(1)


_around_a_bound = st.sampled_from(DEFAULT_BUCKETS_MS).flatmap(
    lambda bound: st.sampled_from(
        [math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)]
    )
)


class TestRecordedSpanCost:
    def test_child_spans_mint_ids_without_uuid_or_urandom(self, monkeypatch):
        calls = {"uuid4": 0, "urandom": 0}
        real_uuid4, real_urandom = uuid.uuid4, os.urandom

        def counting_uuid4():
            calls["uuid4"] += 1
            return real_uuid4()

        def counting_urandom(size):
            calls["urandom"] += 1
            return real_urandom(size)

        monkeypatch.setattr(uuid, "uuid4", counting_uuid4)
        monkeypatch.setattr(os, "urandom", counting_urandom)
        tracer = Tracer(MetricsRegistry(), max_spans_per_trace=2048)
        root = tracer.start_trace("root")
        with trace_scope(root):
            for _ in range(1000):
                with child_span("child"):
                    pass
        root.finish()
        assert calls == {"uuid4": 0, "urandom": 0}
        assert tracer.stats()["spans_collected"] == 1001

    def test_ids_are_unique_fixed_width_hex_across_threads(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry)
        spans_by_thread = [[] for _ in range(4)]
        barrier = threading.Barrier(4)

        def open_spans(sink):
            barrier.wait()
            for _ in range(250):  # 250 traces of 10 spans per thread
                root = tracer.start_trace("root")
                sink.append(root)
                with trace_scope(root):
                    for _ in range(9):
                        with child_span("child") as child:
                            sink.append(child)
                root.finish()

        threads = [
            threading.Thread(target=open_spans, args=(sink,)) for sink in spans_by_thread
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the finishes as much as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        spans = [span for sink in spans_by_thread for span in sink]
        assert len(spans) == 10_000
        span_ids = {span.span_id for span in spans}
        assert len(span_ids) == 10_000
        assert all(re.fullmatch(r"[0-9a-f]{16}", span_id) for span_id in span_ids)
        roots = [span for span in spans if span.parent_id is None]
        trace_ids = {span.trace_id for span in roots}
        assert len(trace_ids) == len(roots) == 1_000
        assert all(re.fullmatch(r"[0-9a-f]{32}", trace_id) for trace_id in trace_ids)
        assert {span.trace_id for span in spans} == trace_ids
        # No finish was lost or counted twice under contention.
        stats = tracer.stats()
        assert stats["spans_collected"] + stats["spans_dropped"] == 10_000
        durations = registry.snapshot()["span_duration_ms"]
        assert durations['{span="root"}']["count"] == 1_000
        assert durations['{span="child"}']["count"] == 9_000

    def test_a_global_reseed_neither_repeats_ids_nor_loses_draws(self):
        tracer = Tracer(MetricsRegistry())

        def mint_ids():
            root = tracer.start_trace("root")
            with trace_scope(root):
                with child_span("child") as child:
                    pass
            root.finish()
            return root.trace_id, root.span_id, child.span_id, random.random()

        random.seed(7)
        first = mint_ids()
        random.seed(7)
        second = mint_ids()
        assert set(first[:3]).isdisjoint(second[:3])
        # Span recording draws nothing from the caller's seeded stream.
        random.seed(7)
        assert first[3] == second[3] == random.random()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_mints_different_ids(self):
        tracer = Tracer(MetricsRegistry())
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: report one trace id and leave at once
            try:
                os.write(write_end, tracer.start_trace("root").trace_id.encode())
            finally:
                os._exit(0)
        os.close(write_end)
        try:
            child_trace_id = os.read(read_end, 64).decode()
        finally:
            os.close(read_end)
            os.waitpid(pid, 0)
        parent_trace_id = tracer.start_trace("root").trace_id
        assert re.fullmatch(r"[0-9a-f]{32}", child_trace_id)
        assert child_trace_id != parent_trace_id

    def test_span_histogram_counts_match_the_collected_spans(self, gateway):
        cid = gateway.run_queries([_pagerank_query(0.71)], synchronous=True)
        spans = list(_flatten(gateway.get_trace(cid)["trace"]["roots"]))
        per_name = {}
        for span in spans:
            per_name[span["name"]] = per_name.get(span["name"], 0) + 1
        durations = gateway.get_platform_stats()["telemetry"]["metrics"][
            "span_duration_ms"
        ]
        assert {
            key: summary["count"] for key, summary in durations.items()
        } == {f'{{span="{name}"}}': count for name, count in per_name.items()}
        assert gateway.tracer.stats()["spans_collected"] == len(spans)

    @given(st.one_of(_around_a_bound, st.floats(-1e6, 1e6, allow_nan=False)))
    @settings(max_examples=200, deadline=None)
    def test_bisect_bucketing_equals_the_linear_scan(self, value):
        assert _bucket_of(value) == _linear_bucket(DEFAULT_BUCKETS_MS, value)

    def test_every_bound_and_its_neighbours_bucket_like_the_linear_scan(self):
        for bound in DEFAULT_BUCKETS_MS:
            for value in (
                math.nextafter(bound, -math.inf),
                bound,
                math.nextafter(bound, math.inf),
            ):
                assert _bucket_of(value) == _linear_bucket(DEFAULT_BUCKETS_MS, value)
        assert _bucket_of(DEFAULT_BUCKETS_MS[0]) == 0  # equal lands in its bound
        assert _bucket_of(math.inf) == len(DEFAULT_BUCKETS_MS)

    def test_a_finished_span_is_frozen(self):
        tracer = Tracer(MetricsRegistry())
        root = tracer.start_trace("root", stage="open")
        with trace_scope(root):
            with child_span("child", shard=1) as child:
                child.add_event("retry", attempt=1)
        root.finish()
        before = tracer.trace_tree(root.trace_id)
        child.annotate(shard=2, late=True)
        child.add_event("late")
        root.annotate(stage="reopened")
        root.finish()
        assert tracer.trace_tree(root.trace_id) == before
        assert tracer.stats()["spans_collected"] == 2


# --------------------------------------------------------------------------- #
# the end-to-end comparison trace
# --------------------------------------------------------------------------- #
class TestComparisonTrace:
    def test_completed_job_reconstructs_the_full_span_tree(self, gateway):
        cid = gateway.run_queries([_pagerank_query()], synchronous=True)
        envelope = gateway.get_trace(cid)
        assert envelope["state"] == "done"
        assert envelope["trace_id"]
        tree = envelope["trace"]
        assert tree is not None
        root = tree["roots"][0]
        assert root["name"] == "comparison"
        assert root["annotations"]["state"] == "done"
        assert root["duration_ms"] is not None

        def walk(node):
            yield node
            for child in node["children"]:
                yield from walk(child)

        spans = list(walk(root))
        names = {span["name"] for span in spans}
        assert {
            "comparison", "group_dispatch", "dataset_fetch",
            "cache_lookup", "batch_execute", "store_results",
        } <= names
        # Parent/child shape: dispatch under the root, execution under
        # dispatch — the gateway submit → scheduler → executor chain.
        dispatch = next(s for s in root["children"] if s["name"] == "group_dispatch")
        dispatch_children = {s["name"] for s in dispatch["children"]}
        assert "batch_execute" in dispatch_children
        assert "dataset_fetch" in dispatch_children

    def test_async_submission_traces_identically(self, gateway):
        cid = gateway.run_queries([_pagerank_query(0.5)], synchronous=False)
        gateway.wait_for(cid, timeout_seconds=30)
        envelope = gateway.get_trace(cid)
        tree = envelope["trace"]
        assert tree is not None
        names = {span["name"] for span in _flatten(tree["roots"])}
        assert "group_dispatch" in names
        assert "store_results" in names

    def test_events_carry_the_trace_id(self, gateway):
        cid = gateway.run_queries([_pagerank_query(0.6)], synchronous=True)
        trace_id = gateway.get_trace(cid)["trace_id"]
        events = gateway.get_events(cid)
        assert events, "expected at least submitted/task_done events"
        assert all(event["trace_id"] == trace_id for event in events)

    def test_unknown_comparison_raises(self, gateway):
        with pytest.raises(TaskNotFoundError):
            gateway.get_trace("no-such-comparison")

    def test_waterfall_renders_the_span_tree(self, gateway):
        cid = gateway.run_queries([_pagerank_query(0.7)], synchronous=True)
        text = WebUI(gateway).render_trace_waterfall(cid)
        assert f"Trace for comparison {cid}" in text
        assert "comparison" in text
        assert "group_dispatch" in text
        assert "ms" in text

    def test_disabled_telemetry_records_no_trace(self):
        gw = ApiGateway(catalog=_catalog(), telemetry_enabled=False)
        try:
            cid = gw.run_queries([_pagerank_query()], synchronous=True)
            envelope = gw.get_trace(cid)
            assert envelope["trace_id"] is None
            assert envelope["trace"] is None
            assert gw.render_metrics() == ""
        finally:
            gw.shutdown()


def _flatten(nodes):
    for node in nodes:
        yield node
        yield from _flatten(node["children"])


# --------------------------------------------------------------------------- #
# the telemetry stats section
# --------------------------------------------------------------------------- #
class TestTelemetryStatsSection:
    def test_platform_stats_expose_tracer_and_metrics(self, gateway):
        gateway.run_queries([_pagerank_query()], synchronous=True)
        stats = gateway.get_platform_stats()
        telemetry = stats["telemetry"]
        assert telemetry["tracer"]["enabled"] is True
        assert telemetry["tracer"]["spans_collected"] > 0
        assert telemetry["tracer"]["traces_tracked"] >= 1
        assert "span_duration_ms" in telemetry["metrics"]
        assert isinstance(telemetry["tracer"]["slow_spans"], list)

    def test_span_duration_summaries_carry_percentiles(self, gateway):
        gateway.run_queries([_pagerank_query()], synchronous=True)
        durations = gateway.get_platform_stats()["telemetry"]["metrics"][
            "span_duration_ms"
        ]
        comparison = durations['{span="comparison"}']
        assert comparison["count"] >= 1
        assert comparison["p50"] <= comparison["p95"] <= comparison["p99"]


# --------------------------------------------------------------------------- #
# the Prometheus exposition over REST
# --------------------------------------------------------------------------- #
_SAMPLE_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s(-?(?:[0-9.eE+-]+|\+Inf|NaN))$"
)


def _parse_exposition(text: str):
    """Validate and parse a Prometheus text exposition.

    Returns ``(types, samples)`` where ``types`` maps metric name to its
    declared kind and ``samples`` maps ``(name, labels)`` to the value.
    Raises ``AssertionError`` on malformed lines, duplicate samples or
    duplicate ``# TYPE`` declarations.
    """
    types: dict = {}
    samples: dict = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert name not in types, f"duplicate TYPE for {name}"
            assert kind in ("counter", "gauge", "histogram")
            types[name] = kind
            continue
        match = _SAMPLE_LINE.match(line)
        assert match, f"malformed exposition line: {line!r}"
        name, labels, value = match.group(1), match.group(2) or "", match.group(3)
        assert (name, labels) not in samples, f"duplicate sample {name}{labels}"
        samples[(name, labels)] = float(value)
    for name, labels in samples:
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in types or base in types, f"sample {name} has no TYPE"
    return types, samples


@pytest.fixture(scope="module")
def rest_server():
    gateway = ApiGateway(catalog=_catalog(), num_workers=2)
    api = RestApiServer(gateway)
    api.start()
    yield api
    api.stop()
    gateway.shutdown()


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=15) as response:
        return response.status, response.headers, response.read().decode("utf-8")


def _post_json(server, path, payload):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


class TestMetricsEndpoint:
    def test_exposition_is_valid_and_counters_are_monotone(self, rest_server):
        status, created = _post_json(
            rest_server, "/api/comparisons",
            {"queries": [_pagerank_query(0.81)], "synchronous": True},
        )
        assert status == 201

        status, headers, first = _get(rest_server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        types_first, samples_first = _parse_exposition(first)
        assert types_first["repro_submissions_total"] == "counter"
        assert types_first["repro_span_duration_ms"] == "histogram"
        assert types_first["repro_http_requests_total"] == "counter"

        _post_json(
            rest_server, "/api/comparisons",
            {"queries": [_pagerank_query(0.82)], "synchronous": True},
        )
        _, _, second = _get(rest_server, "/metrics")
        types_second, samples_second = _parse_exposition(second)
        counters = {
            name for name, kind in types_second.items() if kind == "counter"
        }
        for (name, labels), value in samples_first.items():
            base = re.sub(r"_(bucket|sum|count)$", "", name)
            if name in counters or types_second.get(base) == "histogram":
                assert samples_second.get((name, labels), 0.0) >= value, (
                    f"{name}{labels} went backwards across scrapes"
                )
        assert (
            samples_second[("repro_submissions_total", "")]
            > samples_first[("repro_submissions_total", "")]
        )

    def test_runtime_gauges_mirror_platform_counters(self, rest_server):
        _post_json(
            rest_server, "/api/comparisons",
            {"queries": [_pagerank_query(0.83)], "synchronous": True},
        )
        _, _, text = _get(rest_server, "/metrics")
        types, samples = _parse_exposition(text)
        assert types["repro_batches_dispatched"] == "gauge"
        assert any(name == "repro_jobs" for name, _ in samples)

    def test_trace_endpoint_returns_the_span_tree(self, rest_server):
        status, created = _post_json(
            rest_server, "/api/comparisons",
            {"queries": [_pagerank_query(0.84)], "synchronous": True},
        )
        comparison_id = created["comparison_id"]
        status, _, body = _get(
            rest_server, f"/api/comparisons/{comparison_id}/trace"
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["comparison_id"] == comparison_id
        assert payload["trace_id"]
        names = {span["name"] for span in _flatten(payload["trace"]["roots"])}
        assert "comparison" in names
        assert "group_dispatch" in names

    def test_trace_endpoint_404s_on_unknown_comparison(self, rest_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(rest_server, "/api/comparisons/not-a-real-id/trace")
        assert excinfo.value.code == 404
        excinfo.value.close()

    def test_stats_endpoint_includes_the_telemetry_section(self, rest_server):
        status, _, body = _get(rest_server, "/api/stats")
        assert status == 200
        payload = json.loads(body)
        assert payload["telemetry"]["tracer"]["enabled"] is True


# --------------------------------------------------------------------------- #
# failover reads under the fault harness
# --------------------------------------------------------------------------- #
class TestFailoverTrace:
    def test_failover_read_traces_per_replica_attempts(self):
        backends = [FlakyStore(DataStore()) for _ in range(4)]
        gw = ApiGateway(catalog=_catalog(), shards=backends, replicas=2)
        try:
            # First comparison materialises the dataset onto its replicas.
            gw.run_queries([_pagerank_query(0.5, "tele-star")], synchronous=True)
            store = gw.datastore
            primary = store.replica_shards_for("tele-star")[0]
            flaky = backends[int(primary.split("-")[1])]
            # Outlast the in-place retry attempts so the read fails over to
            # the next replica (mirrors TestFailoverReads in the replication
            # suite, but asserting on the recorded trace).
            flaky.fail_on(
                "fetch_compiled_with_version",
                times=store.retry_policy.max_attempts,
            )
            cid = gw.run_queries(
                [_pagerank_query(0.51, "tele-star")], synchronous=True
            )
            assert store.replication_stats()["failover_reads"] >= 1
            tree = gw.get_trace(cid)["trace"]
            assert tree is not None
            reads = [
                span for span in _flatten(tree["roots"])
                if span["name"] == "storage_read"
            ]
            failovers = [
                span for span in reads if span["annotations"].get("failover")
            ]
            assert failovers, "no storage_read span recorded a failover"
            attempts = [
                child for child in failovers[0]["children"]
                if child["name"] == "replica_attempt"
            ]
            assert len(attempts) >= 2, (
                "a failover read must record one replica_attempt per replica"
            )
            shards_tried = {span["annotations"]["shard"] for span in attempts}
            assert len(shards_tried) >= 2
            # The exhausted in-place retries show up as retry events on the
            # failed attempt's span.
            event_names = {
                event["name"]
                for span in attempts
                for event in span["events"]
            }
            assert "retry" in event_names
        finally:
            gw.shutdown()
