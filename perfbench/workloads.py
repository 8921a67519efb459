"""The benchmark's three workloads.

Each workload generates its op list from the seed before anything is timed,
sets up a deployment (``setup``), runs the op list in a closed loop
(``run``), and checks every op's output (``verify``).  Only the shape of the
deployment is chosen here (shards, replicas); every mode knob of the
platform stays at its default.

* ``explore`` — the paper's interactive user: one closed-loop REST client
  against a ``repro.cli serve`` child process.  One op is a synchronous
  comparison POST plus the top-10 results GET.
* ``cyclerank-batch`` — bulk analysis against an in-process ``ApiGateway``:
  one op is an asynchronous comparison of CycleRank K=4 and PPR over 4+4
  distinct sources, with a window of 2 comparisons in flight.
* ``replicated-churn`` — single-query PPR reads against
  ``ApiGateway(shards=4, replicas=2)`` with every tenth op a re-upload.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.algorithms.registry import run_batch
from repro.datasets.catalog import default_catalog
from repro.graph.generators import preferential_attachment_graph
from repro.platform.gateway import ApiGateway
from repro.platform.scheduler import Scheduler
from repro.ranking.comparison import ComparisonTable

#: Ops run untimed before the timed ones, per setup.
WARMUP_OPS = 6
#: How many ops of a run get their scores checked against the registry.
VERIFIED_SAMPLE = 24
#: Setups per run; ``setup_s`` is their median.
SETUPS = 3
#: An ``explore`` repeat redoes one of this many most recent fresh ops.  Their
#: 4 * 32 results fit in the 1024-entry ``ResultCache`` with room to spare,
#: so every repeat is a hit and the hit share equals the repeat share all
#: through the op list, whatever its length.
RECENT_FRESH = 32
#: Per-op cost grows with the scheduler's bounded table of finished tasks
#: until it is full (about 2x over the first thousand comparisons), so each
#: setup fills it with cheap comparisons and the timed ops run at the plateau
#: a long-running deployment sits on.
FILL_COMPARISONS = getattr(Scheduler, "DEFAULT_MAX_FINISHED_TASKS", 1024) + 64
FILL_QUERY = {"dataset_id": "synthetic-communities-small", "algorithm": "pagerank"}


@dataclass
class OpRecord:
    """One timed op: its timing, the outcome checks, and what to verify."""

    index: int
    kind: str
    start: float
    end: float
    ok: bool
    error: str = ""
    detail: Any = None
    #: The op's trace context (traced runs only).
    trace: Any = None

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1000.0


@dataclass
class Inputs:
    """The generated op list plus what the workload needs to run it."""

    warmup: List[Any]
    ops: List[Any]
    sample: List[int]
    properties: Dict[str, Any] = field(default_factory=dict)


def _rounds(rng: random.Random, items: Sequence[Any]) -> Iterator[Any]:
    """Endless shuffled passes over ``items``: even coverage for any seed."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _failed(index: int, kind: str, start: float, exc: BaseException) -> OpRecord:
    """An op that raised: it counts as attempted and failed."""
    return OpRecord(index, kind, start, time.perf_counter(), False, f"{type(exc).__name__}: {exc}")


# --------------------------------------------------------------------------- #
# process accounting
# --------------------------------------------------------------------------- #
def process_cpu_seconds(pid: int) -> float:
    """User+system CPU seconds of ``pid`` (all threads), from ``/proc``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """VmHWM of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# --------------------------------------------------------------------------- #
# explore: the interactive REST user
# --------------------------------------------------------------------------- #
COMPARE_ALGORITHMS = (
    ("cyclerank", {"k": 3}),
    ("personalized-pagerank", {}),
    ("personalized-cheirank", {}),
    ("personalized-2drank", {}),
)
YEARS = (2003, 2008, 2013, 2018)


class ServerProcess:
    """A ``repro.cli serve`` child in its own session (process group)."""

    def __init__(self, root: Path, *, trace_out: Optional[Path] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        if trace_out is None:
            command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        else:
            command = [
                sys.executable, str(Path(__file__).with_name("traced_server.py")),
                str(trace_out), "serve", "--port", "0",
            ]
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            self.port = self._read_port(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        stream = self.process.stdout
        buffered = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if ready:
                chunk = os.read(stream.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                if b"\n" in buffered:
                    line = buffered.split(b"\n", 1)[0].decode()
                    return int(line.rsplit(":", 1)[1].split()[0])
        raise RuntimeError(f"server did not report its port: {buffered!r}")

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """SIGINT the group (clean shutdown), then SIGKILL; always reaps.

        The kill and the reap sit in ``finally`` so that an interrupt
        arriving during the graceful wait cannot leave the server running.
        """
        try:
            if self.process.poll() is None:
                os.killpg(self.process.pid, signal.SIGINT)
                self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        finally:
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.process.wait()
            self.process.stdout.close()


def _http(port: int, method: str, path: str, body: Any = None) -> Tuple[int, Any]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class Explore:
    name = "explore"
    #: Ops per second of run time the op list is sized for.
    ops_per_second = 60.0

    def __init__(self, root: Path) -> None:
        self.root = root
        # Client and server share one CPU; the server child inherits this.
        # An op is serial (one closed-loop client, executor busy ~0.2), so a
        # second CPU only adds cross-CPU wake-ups between the two processes,
        # whose cost swings with how busy the host is: on a 2-vCPU VM, in
        # alternating runs of one seed, p50 ranged 8.9-11.0 ms on one CPU
        # and 11.5-16.4 ms on two.  The deployment still has its default 2 executor workers.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.catalog = default_catalog()
        self.datasets = [
            d.dataset_id for d in self.catalog.list() if d.family != "synthetic"
        ]
        editions = sorted({d.split("-")[0] for d in self.datasets if "wiki" in d})
        self.editions: Dict[str, List[str]] = {}
        for edition in editions:
            common = None
            for year in YEARS:
                labels = set(self.catalog.load(f"{edition}-{year}").labels())
                common = labels if common is None else common & labels
            self.editions[edition] = sorted(common)
        self.labels = {d: self.catalog.load(d).labels() for d in self.datasets}

    def generate(self, seed: int, n_ops: int) -> Inputs:
        """Blocks of 16 ops: 3 repeat a recent fresh op, 3 are fresh temporal
        ops, 10 fresh comparisons, shuffled.  Datasets and editions are drawn
        in shuffled rounds, so every seed covers them evenly.

        Cache hits and temporal ops both take 7-12 ms against 15-25 ms for
        a fresh comparison.  With 4 repeats the fast ops were 7/16, so the
        p50 sat at the sparse lower edge of the comparison mode and moved
        more than CPU per op did between runs; at 6/16 it sits inside it.
        """
        rng = random.Random(seed)
        datasets = _rounds(rng, self.datasets)
        editions = _rounds(rng, sorted(self.editions))
        fresh: List[Tuple[str, str, str]] = []
        used = set()
        repeats = 0

        def draw(kind: str) -> Tuple[str, str, str]:
            while True:
                if kind == "temporal":
                    edition = next(editions)
                    op = (kind, edition, rng.choice(self.editions[edition]))
                else:
                    dataset = next(datasets)
                    op = (kind, dataset, rng.choice(self.labels[dataset]))
                if op not in used:
                    used.add(op)
                    fresh.append(op)
                    return op

        warmup = [draw("compare") for _ in range(WARMUP_OPS)]
        timed: List[Tuple[str, str, str]] = []
        while len(timed) < n_ops:
            block = ["repeat"] * 3 + ["temporal"] * 3 + ["compare"] * 10
            rng.shuffle(block)
            for kind in block[: n_ops - len(timed)]:
                repeats += kind == "repeat"
                timed.append(rng.choice(fresh[-RECENT_FRESH:]) if kind == "repeat" else draw(kind))
        sizes = [len(self.labels[d]) for d in self.datasets]
        return Inputs(
            warmup=warmup,
            ops=timed,
            sample=sorted(rng.sample(range(len(timed)), min(VERIFIED_SAMPLE, len(timed)))),
            properties={
                "repeat_share": round(repeats / max(1, len(timed)), 3),
                "temporal_share": round(
                    sum(1 for op in timed if op[0] == "temporal") / max(1, len(timed)), 3
                ),
                "queries_per_op": 4,
                "write_share": 0.0,
                "graphs": len(self.datasets),
                "graph_nodes": [min(sizes), max(sizes)],
            },
        )

    @staticmethod
    def queries(op) -> List[Dict[str, Any]]:
        kind, target, source = op
        if kind == "temporal":
            return [
                {"dataset_id": f"{target}-{year}", "algorithm": "cyclerank",
                 "source": source, "parameters": {"k": 3}}
                for year in YEARS
            ]
        return [
            {"dataset_id": target, "algorithm": algorithm, "source": source,
             "parameters": dict(parameters)}
            for algorithm, parameters in COMPARE_ALGORITHMS
        ]

    # ---- deployment ------------------------------------------------------ #
    def setup(self, inputs: Inputs, *, trace_out: Optional[Path] = None) -> ServerProcess:
        server = ServerProcess(self.root, trace_out=trace_out)
        try:
            for dataset in self.datasets:
                # A global algorithm materialises and compiles the dataset
                # without touching any (dataset, source) key the ops use.
                status, _ = _http(server.port, "POST", "/api/comparisons", {
                    "queries": [{"dataset_id": dataset, "algorithm": "pagerank"}],
                    "synchronous": True,
                })
                if status != 201:
                    raise RuntimeError(f"warm-up of {dataset} returned HTTP {status}")
            for _ in range(FILL_COMPARISONS):
                status, _ = _http(server.port, "POST", "/api/comparisons", {
                    "queries": [FILL_QUERY], "synchronous": True,
                })
                if status != 201:
                    raise RuntimeError(f"fill comparison returned HTTP {status}")
            for index, op in enumerate(inputs.warmup):
                record = self.run_op(server, index, op)
                if not record.ok:
                    raise RuntimeError(f"warm-up op failed: {record.error}")
        except BaseException:
            server.stop()
            raise
        return server

    def serving_pids(self, server: ServerProcess) -> List[int]:
        return [server.pid]

    def close(self, server: ServerProcess) -> None:
        server.stop()

    # ---- ops ------------------------------------------------------------- #
    def run_op(self, server: ServerProcess, index: int, op) -> OpRecord:
        start = time.perf_counter()
        try:
            status, created = _http(server.port, "POST", "/api/comparisons", {
                "queries": self.queries(op), "synchronous": True,
            })
            posted = time.perf_counter()
            status2, table = None, None
            if status == 201:
                status2, table = _http(
                    server.port, "GET", f"/api/comparisons/{created['comparison_id']}/results?k=10"
                )
        except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
            return _failed(index, op[0], start, exc)
        end = time.perf_counter()
        # The client's two HTTP calls, as spans for the traced run's ledger.
        record = OpRecord(index, op[0], start, end, True, trace=[(start, posted), (posted, end)])
        if status != 201:
            record.ok, record.error = False, f"POST returned HTTP {status}"
        elif status2 != 200:
            record.ok, record.error = False, f"GET results returned HTTP {status2}"
        elif len(table.get("columns", [])) != 4:
            record.ok = False
            record.error = f"expected 4 rankings, got {len(table.get('columns', []))}"
        else:
            record.detail = table
        return record

    def run(self, server: ServerProcess, inputs: Inputs, tracer=None) -> List[OpRecord]:
        return [self.run_op(server, index, op) for index, op in enumerate(inputs.ops)]

    def verify(self, inputs: Inputs, records: List[OpRecord]) -> None:
        """Sampled ops: the served top-10 table must equal the registry's."""
        by_index = {record.index: record for record in records}
        for index in inputs.sample:
            record = by_index.get(index)
            if record is None or not record.ok:
                continue
            expected = self.expected_table(inputs.ops[index])
            served = record.detail
            if served["rows"] != expected["rows"] or served["scores"] != expected["scores"]:
                record.ok = False
                record.error = "served scores differ from registry.run_batch"
            record.detail = None
        for record in records:
            record.detail = None

    def expected_table(self, op) -> Dict[str, Any]:
        named = {}
        for position, query in enumerate(self.queries(op)):
            graph = self.catalog.load(query["dataset_id"])
            ranking = run_batch(
                query["algorithm"], graph, sources=[query["source"]],
                parameters=query["parameters"],
            )[0]
            named[str(position)] = ranking
        table = ComparisonTable.from_rankings(named, k=10)
        return json.loads(json.dumps(table.as_dict(), ensure_ascii=False, default=str))


# --------------------------------------------------------------------------- #
# in-process workloads
# --------------------------------------------------------------------------- #
def fill(gateway: ApiGateway) -> None:
    """Fill the finished-task table (see ``FILL_COMPARISONS``)."""
    for _ in range(FILL_COMPARISONS):
        gateway.run_queries([FILL_QUERY])


def _same_ranking(served, expected) -> bool:
    """Bit-identical scores over the same labels."""
    served, expected = served.to_dict(), expected.to_dict()
    return served["labels"] == expected["labels"] and served["scores"] == expected["scores"]


class CyclerankBatch:
    name = "cyclerank-batch"
    ops_per_second = 8.0
    num_nodes = 3000
    graph_seed = 2024
    dataset_id = "bench-pa"

    def __init__(self, root: Path) -> None:
        self.root = root
        self.graph = None

    def generate(self, seed: int, n_ops: int) -> Inputs:
        rng = random.Random(seed)
        # One graph for every seed; the seed draws the sources.
        graph = preferential_attachment_graph(
            self.num_nodes, 5, reciprocation_probability=0.5, seed=self.graph_seed,
            name=self.dataset_id,
        )
        # Generated nodes are unlabelled and ``label_of`` answers ``#<id>``,
        # which ``resolve`` rejects: label every node explicitly.
        for node in graph.nodes():
            graph.set_label(node, f"n{node}")
        self.graph = graph
        total = WARMUP_OPS + n_ops
        by_in_degree = sorted(graph.nodes(), key=lambda node: (-graph.in_degree(node), node))
        pool = by_in_degree[: max(4 * total, self.num_nodes // 2)]
        if 4 * total > len(pool):
            raise ValueError(f"{total} ops need {4 * total} distinct sources")
        cyclerank_sources = rng.sample(pool, 4 * total)
        ppr_sources = rng.sample(pool, 4 * total)
        ops = [
            (
                [f"n{node}" for node in cyclerank_sources[4 * i: 4 * i + 4]],
                [f"n{node}" for node in ppr_sources[4 * i: 4 * i + 4]],
            )
            for i in range(total)
        ]
        timed = ops[WARMUP_OPS:]
        return Inputs(
            warmup=ops[:WARMUP_OPS],
            ops=timed,
            sample=sorted(rng.sample(range(len(timed)), min(8, len(timed)))),
            properties={
                "repeat_share": 0.0,
                "queries_per_op": 8,
                "write_share": 0.0,
                "graph_nodes": graph.number_of_nodes(),
                "graph_edges": graph.number_of_edges(),
            },
        )

    def setup(self, inputs: Inputs) -> ApiGateway:
        gateway = ApiGateway()
        try:
            gateway.upload_dataset(self.dataset_id, self.graph, description="benchmark graph")
            fill(gateway)
            pending = [self.submit(gateway, op) for op in inputs.warmup]
            for comparison_id in pending:
                gateway.wait_for(comparison_id)
        except BaseException:
            gateway.shutdown()
            raise
        return gateway

    def serving_pids(self, gateway) -> List[int]:
        return [os.getpid()]

    def close(self, gateway: ApiGateway) -> None:
        gateway.shutdown()

    def submit(self, gateway: ApiGateway, op) -> str:
        cyclerank_sources, ppr_sources = op
        query_set = gateway.new_query_set()
        for source in cyclerank_sources:
            gateway.add_query(query_set, self.dataset_id, "cyclerank", source=source,
                              parameters={"k": 4})
        for source in ppr_sources:
            gateway.add_query(query_set, self.dataset_id, "personalized-pagerank", source=source)
        return gateway.submit_comparison(query_set)

    def run(self, gateway: ApiGateway, inputs: Inputs, tracer=None) -> List[OpRecord]:
        """One thread keeps a window of 2 comparisons in flight.

        An op runs from its submission to its job's terminal event; reading
        its 8 rankings back follows, outside the op's latency.
        """
        sampled = set(inputs.sample)
        records: List[OpRecord] = []
        in_flight: List[Tuple[int, str, float, Any]] = []
        next_op = 0
        while next_op < len(inputs.ops) or in_flight:
            while len(in_flight) < 2 and next_op < len(inputs.ops):
                index, next_op = next_op, next_op + 1
                submitted = time.time()
                try:
                    if tracer is None:
                        ctx = None
                        comparison_id = self.submit(gateway, inputs.ops[index])
                    else:
                        with tracer.operation(all_threads=True) as ctx:
                            comparison_id = self.submit(gateway, inputs.ops[index])
                except Exception as exc:  # a failed op is counted, never fatal
                    records.append(_failed(index, "compare", submitted, exc))
                    continue
                in_flight.append((index, comparison_id, submitted, ctx))
            if not in_flight:
                break
            index, comparison_id, submitted, ctx = in_flight.pop(0)
            try:
                progress = gateway.wait_for(comparison_id, timeout_seconds=120)
                finished = gateway.get_events(comparison_id)[-1]["timestamp"]
                rankings = gateway.get_rankings(comparison_id)
            except Exception as exc:
                records.append(_failed(index, "compare", submitted, exc))
                continue
            record = OpRecord(index, "compare", submitted, finished, True)
            if ctx is not None:
                ctx.end = ctx.start + (finished - submitted)
                record.trace = ctx
            if progress.state.value != "completed":
                record.ok, record.error = False, f"state {progress.state.value}: {progress.error}"
            elif len(rankings) != 8:
                record.ok, record.error = False, f"expected 8 rankings, got {len(rankings)}"
            elif index in sampled:
                record.detail = rankings
            records.append(record)
        return records

    def verify(self, inputs: Inputs, records: List[OpRecord]) -> None:
        by_index = {record.index: record for record in records}
        for index in inputs.sample:
            record = by_index.get(index)
            if record is None or not record.ok:
                continue
            cyclerank_sources, ppr_sources = inputs.ops[index]
            expected = run_batch("cyclerank", self.graph, sources=cyclerank_sources,
                                 parameters={"k": 4})
            expected += run_batch("personalized-pagerank", self.graph, sources=ppr_sources)
            if not all(_same_ranking(s, e) for s, e in zip(record.detail, expected)):
                record.ok, record.error = False, "served scores differ from registry.run_batch"
            record.detail = None


class ReplicatedChurn:
    name = "replicated-churn"
    ops_per_second = 240.0
    datasets = ("amazon-dvd", "twitter-8m-recrawl", "enwiki-2008", "svwiki-2008")
    write_every = 10

    def __init__(self, root: Path) -> None:
        self.root = root
        catalog = default_catalog()
        # Two versions per dataset; re-uploads alternate between them so a
        # read served from a stale copy shows up as a wrong score.
        self.variants: Dict[str, List[Any]] = {}
        for dataset in self.datasets:
            original = catalog.load(dataset)
            trimmed = original.copy()
            first = next(iter(trimmed.edges()))
            trimmed.remove_edge(first.source, first.target)
            self.variants[dataset] = [original, trimmed]
        self.labels = {d: self.variants[d][0].labels() for d in self.datasets}

    def generate(self, seed: int, n_ops: int) -> Inputs:
        rng = random.Random(seed)
        current = {dataset: 0 for dataset in self.datasets}
        readers = _rounds(rng, self.datasets)
        writers = _rounds(rng, self.datasets)

        def read(dataset):
            return ("read", dataset, rng.choice(self.labels[dataset]), current[dataset])

        def write(dataset):
            current[dataset] ^= 1
            return ("write", dataset, current[dataset])

        # Warm-up: materialise every dataset, re-upload each once, read again.
        warmup = [read(d) for d in self.datasets] + [write(d) for d in self.datasets]
        warmup += [read(d) for d in self.datasets]
        timed = []
        for index in range(n_ops):
            is_write = index % self.write_every == self.write_every - 1
            timed.append(write(next(writers)) if is_write else read(next(readers)))
        reads = [i for i, op in enumerate(timed) if op[0] == "read"]
        keys = [op[1:4] for op in timed if op[0] == "read"]
        sizes = [self.variants[d][0].number_of_nodes() for d in self.datasets]
        return Inputs(
            warmup=warmup,
            ops=timed,
            sample=sorted(rng.sample(reads, min(VERIFIED_SAMPLE, len(reads)))),
            properties={
                "repeat_share": round(1 - len(set(keys)) / max(1, len(keys)), 3),
                "queries_per_op": 1,
                "write_share": round(1 - len(reads) / max(1, len(timed)), 3),
                "graph_nodes": [min(sizes), max(sizes)],
            },
        )

    def setup(self, inputs: Inputs) -> ApiGateway:
        gateway = ApiGateway(shards=4, replicas=2)
        try:
            fill(gateway)
            for index, op in enumerate(inputs.warmup):
                record = self.run_op(gateway, index, op)
                if not record.ok:
                    raise RuntimeError(f"warm-up op failed: {record.error}")
        except BaseException:
            gateway.shutdown()
            raise
        return gateway

    def serving_pids(self, gateway) -> List[int]:
        return [os.getpid()]

    def close(self, gateway: ApiGateway) -> None:
        gateway.shutdown()

    def run_op(self, gateway: ApiGateway, index: int, op) -> OpRecord:
        start = time.perf_counter()
        try:
            if op[0] == "write":
                _, dataset, variant = op
                graph = self.variants[dataset][variant]
                summary = gateway.upload_dataset(dataset, graph, replace=True)
                record = OpRecord(index, "write", start, time.perf_counter(), True)
                if (summary["num_nodes"], summary["num_edges"]) != (
                    graph.number_of_nodes(), graph.number_of_edges()
                ):
                    record.ok, record.error = False, "summary does not match the upload"
                return record
            _, dataset, source, _ = op
            comparison_id = gateway.run_queries([{
                "dataset_id": dataset, "algorithm": "personalized-pagerank", "source": source,
            }])
            progress = gateway.get_status(comparison_id)
            rankings = gateway.get_rankings(comparison_id)
        except Exception as exc:  # a failed op is counted, never fatal
            return _failed(index, op[0], start, exc)
        record = OpRecord(index, "read", start, time.perf_counter(), True)
        if progress.state.value != "completed":
            record.ok, record.error = False, f"state {progress.state.value}: {progress.error}"
        elif len(rankings) != 1:
            record.ok, record.error = False, "expected 1 ranking"
        else:
            record.detail = rankings[0]
        return record

    def run(self, gateway: ApiGateway, inputs: Inputs, tracer=None) -> List[OpRecord]:
        records = []
        for index, op in enumerate(inputs.ops):
            if tracer is None:
                records.append(self.run_op(gateway, index, op))
                continue
            with tracer.operation() as ctx:
                record = self.run_op(gateway, index, op)
            record.start, record.end, record.trace = ctx.start, ctx.end, ctx
            records.append(record)
        return records

    def verify(self, inputs: Inputs, records: List[OpRecord]) -> None:
        by_index = {record.index: record for record in records}
        for index in inputs.sample:
            record = by_index.get(index)
            if record is None or not record.ok:
                continue
            _, dataset, source, variant = inputs.ops[index]
            expected = run_batch("personalized-pagerank", self.variants[dataset][variant],
                                 sources=[source])[0]
            if not _same_ranking(record.detail, expected):
                record.ok, record.error = False, "served scores differ from registry.run_batch"
        for record in records:
            record.detail = None


WORKLOADS = {cls.name: cls for cls in (Explore, CyclerankBatch, ReplicatedChurn)}
