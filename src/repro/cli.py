"""Command-line interface: the demo's functionality without the browser.

Sub-commands mirror the Web UI workflow:

``repro-relevance datasets``
    List the pre-loaded datasets (optionally filtered by family).
``repro-relevance algorithms``
    List the available algorithms and their parameters.
``repro-relevance summary <dataset>``
    Print the structural summary of one dataset.
``repro-relevance run <dataset> <algorithm> [--source ... --param k=3 ...]``
    Run one algorithm and print its top-k results.
``repro-relevance compare <dataset> --source ... [--algorithms ...]``
    Run several algorithms on the same dataset and reference node and print
    the side-by-side comparison table (the algorithm-comparison use case).
``repro-relevance cross-language --topic fake-news [--languages de en fr]``
    Run CycleRank on several language editions (the dataset-comparison use
    case of Table III).

``run`` and ``compare`` block by default; two flags tap the job/event
subsystem instead:

``--no-wait``
    Submit the comparison and print only its permalink id instead of
    rendering results.  Note the CLI builds an in-process gateway per
    invocation: the submission itself is non-blocking, but the gateway
    drains in-flight work on exit (results are discarded with the process
    unless a persistent datastore backs it).  Against a served deployment
    the id is the real permalink — POST ``/api/comparisons`` with
    ``"synchronous": false`` and redeem it via the REST endpoints.

    ::

        $ repro-relevance compare enwiki-2018 --source Pasta --no-wait
        b3c5e1f0-...-id

``--follow``
    Submit without blocking, then render the streamed per-query progress
    events (one line per ``query_started``/``query_completed``/... event,
    read from the job's event cursor) before printing the same results the
    blocking path prints.

    ::

        $ repro-relevance run enwiki-2018 cyclerank --source Pasta --follow
        comparison 6f0b...: submitted 1 queries
        query 0 started: cyclerank on enwiki-2018
        query 0 completed (1/1 done)
        comparison done (1/1 queries)
        ...top-k results...

Overload protection rides on the same flags surface: ``--deadline-ms``
bounds how long a submission may wait before it is settled with a typed
``deadline_exceeded`` event, ``--admission-budget`` enables load shedding
(shed submissions are retried client-side after the server's hinted delay,
bounded by ``--shed-retries``; ``--no-retry`` fails fast), and
``--retry-budget`` sizes the ring store's retry token bucket.  A shard
that keeps failing leaves every read until a probe finds it healthy
again.  On the ring store every dataset read opens with a version-digest
round over the live replicas, so a copy below the acked version floor is
never served; there is no read mode to choose.

Observability rides on ``run``/``compare`` too: ``--stats`` prints the
platform serving counters after the results — the cache/batch/storage
lines plus the ``overload`` (admission, deadlines, retries) and
``telemetry`` (tracer + span latency percentiles) sections of
``GET /api/stats``.  ``--trace`` prints the comparison's recorded span waterfall
(gateway submit → scheduler dispatch → batch execute → storage writes),
the CLI view of ``GET /api/comparisons/<id>/trace``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional, Sequence

from .algorithms.registry import available_algorithms, get_algorithm
from .datasets.seeds import FAKE_NEWS_TOPICS
from .exceptions import GatewayOverloadedError, ReproError
from .platform.gateway import ApiGateway
from .platform.jobs import describe_event
from .platform.webui import WebUI
from .ranking.comparison import dataset_comparison
from .version import __version__

__all__ = ["main", "build_parser"]

#: Algorithms used by ``compare`` when the user does not pick any.
DEFAULT_COMPARISON_ALGORITHMS = ("pagerank", "cyclerank", "personalized-pagerank")


def _parse_parameter_overrides(pairs: Optional[Sequence[str]]) -> Dict[str, str]:
    """Turn ``["k=3", "sigma=exp"]`` into ``{"k": "3", "sigma": "exp"}``."""
    overrides: Dict[str, str] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _add_storage_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the storage-topology flags shared by run/compare/serve."""
    parser.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="shard the storage layer across N consistent-hash backends",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        metavar="R",
        help="keep R copies of every dataset/result (quorum-acked writes, "
        "failover reads); --shards N alone keeps one copy",
    )
    parser.add_argument(
        "--spill-dir",
        metavar="DIR",
        help="directory of the cold file tier cold datasets spill to "
        "(its contents survive restarts)",
    )
    parser.add_argument(
        "--spill-budget",
        type=int,
        metavar="BYTES",
        help="automatic spill policy: demote cold datasets whenever the "
        "estimated resident graph bytes exceed BYTES (requires --spill-dir)",
    )


def _add_overload_flags(
    parser: argparse.ArgumentParser, *, client_retries: bool = True
) -> None:
    """Attach the overload-protection knobs shared by run/compare/serve.

    ``client_retries`` additionally attaches the client-side shed-retry
    flags (``run``/``compare`` re-submit shed requests after the hinted
    ``retry_after``; ``serve`` is the server, so it only takes the knobs).
    """
    parser.add_argument(
        "--deadline-ms",
        type=int,
        metavar="MS",
        help="per-submission deadline: a comparison that cannot start within "
        "MS milliseconds is settled with a typed deadline_exceeded event "
        "instead of occupying a worker",
    )
    parser.add_argument(
        "--admission-budget",
        type=int,
        metavar="COST",
        help="admission-control budget in estimated query cost units; "
        "submissions over the budget are shed (HTTP 429 under 'serve') "
        "before anything is enqueued",
    )
    parser.add_argument(
        "--admission-retry-after",
        type=float,
        metavar="SECONDS",
        help="base Retry-After hint returned with shed submissions "
        "(scaled by how far over budget the gateway is; default 1.0)",
    )
    parser.add_argument(
        "--retry-budget",
        type=int,
        metavar="TOKENS",
        help="token-bucket budget shared by all storage retries (requires "
        "--shards or --replicas); caps retry amplification during a shard "
        "outage",
    )
    if client_retries:
        parser.add_argument(
            "--shed-retries",
            type=int,
            default=3,
            metavar="N",
            help="re-submit a shed comparison up to N times, sleeping the "
            "server's retry_after hint between attempts (default 3)",
        )
        parser.add_argument(
            "--no-retry",
            action="store_true",
            help="fail immediately when the submission is shed instead of "
            "retrying after the hinted delay",
        )


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the stats/trace reporting flags shared by run/compare."""
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the platform serving counters after the results: cache, "
        "batches, storage, plus the overload and telemetry sections",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the comparison's recorded span waterfall after the results",
    )


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the compute-tier flags shared by run/compare/serve."""
    parser.add_argument(
        "--workers", type=int, default=2, help="number of executor nodes in the pool"
    )


def _add_wait_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the non-blocking submission flags shared by run/compare."""
    waiting = parser.add_mutually_exclusive_group()
    waiting.add_argument(
        "--no-wait",
        action="store_true",
        help="print only the comparison id instead of waiting to render results "
        "(in-flight work still drains on exit)",
    )
    waiting.add_argument(
        "--follow",
        action="store_true",
        help="submit without blocking and render streamed per-query progress",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro-relevance",
        description="Compare personalized relevance algorithms on directed graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets_parser = subparsers.add_parser("datasets", help="list the pre-loaded datasets")
    datasets_parser.add_argument("--family", help="filter by family (wikipedia, amazon, ...)")

    subparsers.add_parser("algorithms", help="list the available algorithms")

    summary_parser = subparsers.add_parser("summary", help="print a dataset's structural summary")
    summary_parser.add_argument("dataset", help="dataset identifier (e.g. enwiki-2018)")

    run_parser = subparsers.add_parser("run", help="run one algorithm on one dataset")
    run_parser.add_argument("dataset", help="dataset identifier")
    run_parser.add_argument("algorithm", help="algorithm name (see 'algorithms')")
    run_parser.add_argument("--source", help="reference node for personalized algorithms")
    run_parser.add_argument(
        "--param", action="append", metavar="KEY=VALUE", help="algorithm parameter override"
    )
    run_parser.add_argument("--top", type=int, default=10, help="number of results to print")
    run_parser.add_argument(
        "--scores", action="store_true", help="print scores next to the labels"
    )
    _add_observability_flags(run_parser)
    _add_storage_flags(run_parser)
    _add_overload_flags(run_parser)
    _add_executor_flags(run_parser)
    _add_wait_flags(run_parser)

    compare_parser = subparsers.add_parser(
        "compare", help="compare several algorithms on the same dataset and reference"
    )
    compare_parser.add_argument("dataset", help="dataset identifier")
    compare_parser.add_argument("--source", required=True, help="reference node label")
    compare_parser.add_argument(
        "--algorithms",
        nargs="+",
        default=list(DEFAULT_COMPARISON_ALGORITHMS),
        help="algorithms to compare (default: pagerank cyclerank personalized-pagerank)",
    )
    compare_parser.add_argument("--alpha", type=float, default=0.85, help="damping factor")
    compare_parser.add_argument("--k", type=int, default=3, help="CycleRank maximum cycle length")
    compare_parser.add_argument("--top", type=int, default=5, help="rows in the comparison table")
    compare_parser.add_argument("--logs", action="store_true", help="print the execution log")
    _add_observability_flags(compare_parser)
    _add_storage_flags(compare_parser)
    _add_overload_flags(compare_parser)
    _add_executor_flags(compare_parser)
    _add_wait_flags(compare_parser)

    cross_parser = subparsers.add_parser(
        "cross-language", help="run CycleRank on several Wikipedia language editions"
    )
    cross_parser.add_argument(
        "--languages", nargs="+", default=["de", "en", "fr", "it", "nl", "pl"],
        help="language codes (default: the six editions of Table III)",
    )
    cross_parser.add_argument("--snapshot-year", default="2018", help="snapshot year")
    cross_parser.add_argument("--k", type=int, default=3, help="CycleRank maximum cycle length")
    cross_parser.add_argument("--top", type=int, default=5, help="rows in the comparison table")

    serve_parser = subparsers.add_parser(
        "serve", help="expose the API gateway over HTTP (the demo's REST surface)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument("--port", type=int, default=8080, help="bind port (0 = random)")
    _add_storage_flags(serve_parser)
    _add_overload_flags(serve_parser, client_retries=False)
    _add_executor_flags(serve_parser)

    return parser


def _command_datasets(gateway: ApiGateway, arguments: argparse.Namespace) -> int:
    ui = WebUI(gateway)
    print(ui.render_dataset_picker(family=arguments.family))
    return 0


def _command_algorithms(gateway: ApiGateway, arguments: argparse.Namespace) -> int:
    ui = WebUI(gateway)
    print(ui.render_algorithm_picker())
    return 0


def _command_summary(gateway: ApiGateway, arguments: argparse.Namespace) -> int:
    summary = gateway.dataset_summary(arguments.dataset)
    width = max(len(key) for key in summary)
    for key, value in summary.items():
        if isinstance(value, float):
            value = f"{value:.6f}"
        print(f"{key.ljust(width)}  {value}")
    return 0


def _print_cache_stats(gateway: ApiGateway) -> None:
    """Print the platform serving counters (cache hits/misses, batch sizes)."""
    stats = gateway.get_platform_stats()
    cache = stats["cache"]
    batches = stats["batches"]
    print(
        f"cache: {cache['hits']} hits / {cache['misses']} misses "
        f"(hit rate {cache['hit_rate']:.0%}), {cache['size']}/{cache['capacity']} entries, "
        f"{cache['evictions']} evictions, {cache['invalidations']} invalidations"
    )
    print(
        f"batches: {batches['batches']} dispatched carrying "
        f"{batches['batched_queries']} queries (largest {batches['largest_batch']})"
    )
    artifacts = stats["artifacts"]
    print(
        f"artifacts: {artifacts['hits']} hits / {artifacts['misses']} misses "
        f"(hit rate {artifacts['hit_rate']:.0%}), {artifacts['compiled']} compiled, "
        f"{artifacts['invalidations']} invalidations"
    )
    shards = stats.get("shards")
    if shards:
        breakdown = ", ".join(
            f"{shard_id}: {info['occupancy']['datasets']} dataset(s), "
            f"{info['cache_hit_rate']:.0%} cache hits"
            if info.get("healthy")
            else f"{shard_id}: "
            + ("MARKED DOWN" if info.get("marked_down")
               else f"UNHEALTHY ({info.get('error', 'unknown')})")
            for shard_id, info in sorted(shards["per_shard"].items())
        )
        print(f"shards: {shards['num_shards']} on the ring — {breakdown}")
        replication = shards.get("replication")
        if replication:
            lag = replication["underreplicated"]
            print(
                f"replication: R={replication['replicas']} "
                f"(quorum {replication['quorum']}), "
                f"{replication['failover_reads']} failover reads, "
                f"{replication['degraded_writes']} degraded writes, "
                f"lag {'unknown' if lag is None else lag}"
            )
            print(
                f"reads: {replication.get('digest_reads', 0)} digest "
                f"rounds, {replication.get('stale_reads_prevented', 0)} "
                f"below-floor copies withheld, "
                f"{replication.get('version_conflicts_resolved', 0)} version "
                f"conflicts resolved"
            )
            print(
                f"self-healing: {replication.get('read_repairs', 0)} read-repairs "
                f"({replication.get('repair_queue', 0)} queued), "
                f"tombstones {replication.get('tombstones_written', 0)} written / "
                f"{replication.get('tombstones_reaped', 0)} reaped, "
                f"auto down/up {replication.get('auto_downs', 0)}"
                f"/{replication.get('auto_ups', 0)}"
            )
        spill = shards.get("spill")
        if spill and spill.get("enabled"):
            resident = spill.get("resident_bytes")
            budget = (
                "" if resident is None else f", ~{resident} resident byte(s) on the ring"
            )
            print(
                f"spill: {spill.get('spilled_datasets', 0)} dataset(s) on the "
                f"file tier ({spill.get('spills', 0)} demotions{budget})"
            )


def _print_overload_stats(stats: Dict[str, object]) -> None:
    """Print the ``overload`` stats section as compact human-readable lines."""
    admission = stats.get("admission") or {}
    if admission.get("enabled"):
        print(
            f"admission: {admission.get('admitted', 0)} admitted / "
            f"{admission.get('shed', 0)} shed, in-flight cost "
            f"{admission.get('inflight_cost', 0)}/{admission.get('max_cost', 0)} "
            f"(peak {admission.get('peak_cost', 0)})"
        )
    else:
        print("admission: disabled")
    deadlines = stats.get("deadlines") or {}
    default_ms = deadlines.get("default_deadline_ms")
    print(
        f"deadlines: {deadlines.get('deadline_exceeded', 0)} exceeded "
        f"(default {'none' if default_ms is None else f'{default_ms}ms'})"
    )
    storage = stats.get("storage")
    if storage:
        retries = storage.get("retries") or {}
        budget = retries.get("budget") or {}
        budget_text = (
            f", budget {budget.get('available', 0)}/{budget.get('capacity', 0)} tokens"
            if budget
            else ""
        )
        print(
            f"retries: {retries.get('retries_spent', 0)} spent / "
            f"{retries.get('retries_denied', 0)} denied{budget_text}"
        )


def _print_telemetry_stats(stats: Dict[str, object]) -> None:
    """Print the ``telemetry`` stats section as compact human-readable lines."""
    tracer = stats.get("tracer") or {}
    if not tracer.get("enabled"):
        print("telemetry: disabled")
        return
    print(
        f"telemetry: {tracer.get('traces_tracked', 0)} trace(s) tracked, "
        f"{tracer.get('spans_collected', 0)} span(s) collected "
        f"({tracer.get('spans_dropped', 0)} dropped), "
        f"{len(tracer.get('slow_spans') or [])} slow span(s) over "
        f"{tracer.get('slow_threshold_ms', 0):g}ms"
    )
    metrics = stats.get("metrics") or {}
    durations = metrics.get("span_duration_ms")
    if isinstance(durations, dict):
        for labels, summary in sorted(durations.items()):
            if not isinstance(summary, dict):
                continue
            name = labels.strip("{}")
            if name.startswith('span="') and name.endswith('"'):
                name = name[len('span="'):-1]
            print(
                f"  span {name}: {summary.get('count', 0)} recorded, "
                f"p50 {summary.get('p50', 0):.2f}ms, "
                f"p95 {summary.get('p95', 0):.2f}ms, "
                f"p99 {summary.get('p99', 0):.2f}ms"
            )


def _print_executor_stats(stats: Dict[str, object]) -> None:
    """Print the ``executors`` stats section as one compact line."""
    print(
        f"executors: {stats.get('busy_workers', 0)}/{stats.get('num_workers', 0)} busy, "
        f"{stats.get('executed_queries', 0)} queries executed"
    )


def _print_platform_stats(gateway: ApiGateway) -> None:
    """Print the full ``--stats`` report: cache, executors, overload, telemetry."""
    _print_cache_stats(gateway)
    stats = gateway.get_platform_stats()
    executors = stats.get("executors")
    if executors:
        _print_executor_stats(executors)
    overload = stats.get("overload")
    if overload:
        _print_overload_stats(overload)
    telemetry = stats.get("telemetry")
    if telemetry:
        _print_telemetry_stats(telemetry)


#: Upper bound on one client-side shed-retry sleep, so a badly overloaded
#: gateway cannot park the CLI for minutes.
_SHED_RETRY_SLEEP_CAP = 5.0


def _run_queries_with_shed_retries(
    gateway: ApiGateway,
    queries: List[dict],
    arguments: argparse.Namespace,
    *,
    synchronous: bool,
) -> str:
    """Submit, honouring the server's shed hints like an HTTP client honours 429.

    A shed submission was never enqueued, so re-sending it is safe.  The
    loop sleeps the gateway's ``retry_after`` hint (capped) between the
    bounded ``--shed-retries`` attempts; ``--no-retry`` fails on the first
    shed instead.
    """
    retries = 0 if getattr(arguments, "no_retry", False) else max(
        0, getattr(arguments, "shed_retries", 0)
    )
    attempt = 0
    while True:
        try:
            return gateway.run_queries(queries, synchronous=synchronous)
        except GatewayOverloadedError as error:
            attempt += 1
            if attempt > retries:
                raise
            delay = min(max(error.retry_after, 0.0), _SHED_RETRY_SLEEP_CAP)
            print(
                f"submission shed (attempt {attempt}/{retries}); "
                f"retrying in {delay:.2f}s",
                file=sys.stderr,
            )
            time.sleep(delay)


def _submit_comparison(
    gateway: ApiGateway, queries: List[dict], arguments: argparse.Namespace
) -> Optional[str]:
    """Submit ``queries`` honouring ``--no-wait``/``--follow``.

    Returns the comparison id once it has finished, or ``None`` when the
    caller should exit immediately (``--no-wait`` printed the permalink).
    The default path blocks exactly like the pre-jobs CLI did.  Shed
    submissions are retried per ``--shed-retries``/``--no-retry``.
    """
    if getattr(arguments, "no_wait", False):
        comparison = _run_queries_with_shed_retries(
            gateway, queries, arguments, synchronous=False
        )
        print(comparison)
        return None
    if getattr(arguments, "follow", False):
        comparison = _run_queries_with_shed_retries(
            gateway, queries, arguments, synchronous=False
        )
        print(f"comparison {comparison}:")
        for event in gateway.stream_events(comparison):
            print(describe_event(event))
        return comparison
    return _run_queries_with_shed_retries(
        gateway, queries, arguments, synchronous=True
    )


def _fail_if_errored(gateway: ApiGateway, comparison_id: str) -> Optional[int]:
    """Print the task error and return an exit code if the comparison failed."""
    progress = gateway.get_status(comparison_id)
    if progress.error is not None:
        print(f"error: {progress.error}", file=sys.stderr)
        return 1
    return None


def _command_run(gateway: ApiGateway, arguments: argparse.Namespace) -> int:
    parameters = _parse_parameter_overrides(arguments.param)
    comparison = _submit_comparison(
        gateway,
        [
            {
                "dataset_id": arguments.dataset,
                "algorithm": arguments.algorithm,
                "source": arguments.source,
                "parameters": parameters,
            }
        ],
        arguments,
    )
    if comparison is None:
        return 0
    failure = _fail_if_errored(gateway, comparison)
    if failure is not None:
        return failure
    ranking = gateway.get_rankings(comparison)[0]
    print(ranking.describe())
    for entry in ranking.top(arguments.top):
        if arguments.scores:
            print(f"{entry.rank:>3}. {entry.label}  ({entry.score:.6g})")
        else:
            print(f"{entry.rank:>3}. {entry.label}")
    if arguments.trace:
        print(WebUI(gateway).render_trace_waterfall(comparison))
    if arguments.stats:
        _print_platform_stats(gateway)
    return 0


def _command_compare(gateway: ApiGateway, arguments: argparse.Namespace) -> int:
    queries: List[dict] = []
    for name in arguments.algorithms:
        algorithm = get_algorithm(name)
        parameters: Dict[str, object] = {}
        if any(spec.name == "alpha" for spec in algorithm.spec.parameters):
            parameters["alpha"] = arguments.alpha
        if any(spec.name == "k" for spec in algorithm.spec.parameters):
            parameters["k"] = arguments.k
        queries.append(
            {
                "dataset_id": arguments.dataset,
                "algorithm": algorithm.name,
                "source": arguments.source if algorithm.is_personalized else None,
                "parameters": parameters,
            }
        )
    comparison = _submit_comparison(gateway, queries, arguments)
    if comparison is None:
        return 0
    failure = _fail_if_errored(gateway, comparison)
    if failure is not None:
        return failure
    table = gateway.get_comparison_table(
        comparison,
        k=arguments.top,
        title=f"Top-{arguments.top} results for {arguments.source!r} on {arguments.dataset}",
    )
    print(table.to_text())
    if arguments.logs:
        print()
        for line in gateway.get_logs(comparison):
            print(line)
    if arguments.trace:
        print(WebUI(gateway).render_trace_waterfall(comparison))
    if arguments.stats:
        _print_platform_stats(gateway)
    return 0


def _command_cross_language(gateway: ApiGateway, arguments: argparse.Namespace) -> int:
    rankings = {}
    for language in arguments.languages:
        seed = FAKE_NEWS_TOPICS.get(language)
        if seed is None:
            print(f"skipping unknown language {language!r}", file=sys.stderr)
            continue
        dataset_id = f"{language}wiki-{arguments.snapshot_year}"
        comparison = gateway.run_queries(
            [
                {
                    "dataset_id": dataset_id,
                    "algorithm": "cyclerank",
                    "source": seed.reference,
                    "parameters": {"k": arguments.k},
                }
            ],
            synchronous=True,
        )
        failure = _fail_if_errored(gateway, comparison)
        if failure is not None:
            return failure
        rankings[f"{seed.reference} ({language})"] = gateway.get_rankings(comparison)[0]
    table = dataset_comparison(rankings, k=arguments.top)
    print(table.to_text())
    return 0


def _command_serve(gateway: ApiGateway, arguments: argparse.Namespace) -> int:
    from .platform.restapi import RestApiServer

    server = RestApiServer(gateway, host=arguments.host, port=arguments.port)
    host, port = server.start()
    print(f"Serving the comparison API on http://{host}:{port} (Ctrl-C to stop)")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down")
        return 0
    finally:
        server.stop()


_COMMANDS = {
    "datasets": _command_datasets,
    "algorithms": _command_algorithms,
    "summary": _command_summary,
    "run": _command_run,
    "compare": _command_compare,
    "cross-language": _command_cross_language,
    "serve": _command_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-relevance`` console script."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    handler = _COMMANDS[arguments.command]
    shards = getattr(arguments, "shards", None)
    if shards is not None and shards < 1:
        print(f"error: --shards must be a positive integer, got {shards}", file=sys.stderr)
        return 2
    replicas = getattr(arguments, "replicas", None)
    if replicas is not None and replicas < 1:
        print(
            f"error: --replicas must be a positive integer, got {replicas}",
            file=sys.stderr,
        )
        return 2
    spill_dir = getattr(arguments, "spill_dir", None)
    spill_budget = getattr(arguments, "spill_budget", None)
    if spill_budget is not None and spill_budget < 0:
        print(
            f"error: --spill-budget must be >= 0, got {spill_budget}",
            file=sys.stderr,
        )
        return 2
    deadline_ms = getattr(arguments, "deadline_ms", None)
    if deadline_ms is not None and deadline_ms < 1:
        print(
            f"error: --deadline-ms must be a positive integer, got {deadline_ms}",
            file=sys.stderr,
        )
        return 2
    admission_budget = getattr(arguments, "admission_budget", None)
    if admission_budget is not None and admission_budget < 0:
        print(
            f"error: --admission-budget must be >= 0, got {admission_budget}",
            file=sys.stderr,
        )
        return 2
    retry_budget = getattr(arguments, "retry_budget", None)
    if retry_budget is not None and retry_budget < 0:
        print(
            f"error: --retry-budget must be >= 0, got {retry_budget}",
            file=sys.stderr,
        )
        return 2
    workers = getattr(arguments, "workers", None)
    if workers is not None and workers < 1:
        print(
            f"error: --workers must be a positive integer, got {workers}",
            file=sys.stderr,
        )
        return 2
    gateway_options: Dict[str, object] = {}
    if getattr(arguments, "admission_retry_after", None) is not None:
        gateway_options["admission_retry_after_seconds"] = arguments.admission_retry_after
    if workers is not None:
        gateway_options["num_workers"] = workers
    try:
        with ApiGateway(
            shards=shards,
            replicas=replicas,
            spill_dir=spill_dir,
            spill_budget_bytes=spill_budget,
            default_deadline_ms=deadline_ms,
            admission_max_cost=admission_budget,
            retry_budget_capacity=retry_budget,
            **gateway_options,
        ) as gateway:
            return handler(gateway, arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
