"""End-to-end request tracing and a metrics exposition surface.

The platform's earlier subsystems each answer "is it working?" through
lump-sum counters (cache hits, degraded writes, shed submissions).  This
module answers the two operator questions those counters cannot:

* "where did this slow request spend its time?" — a :class:`Tracer` mints
  one trace id per submission and threads a span context through the same
  thread-local seam ``deadline_scope`` already proved out, so every layer
  (REST handling, admission, scheduler dispatch, cache lookup, single-flight
  joins, batch execution, and each replicated-storage replica attempt) can
  hang a timed span off the ambient parent without any explicit wiring;
* "what is p99 latency right now?" — a :class:`MetricsRegistry` keeps
  thread-safe counters, gauges and fixed-log-bucket histograms, rendered as
  a Prometheus text exposition (``GET /metrics``) and as a ``telemetry``
  section inside ``platform_stats()``.

Design constraints, in order:

* **Zero wiring for deep components.**  ``replication``/``resilience``/
  ``executor`` never see a tracer or registry — they call the module-level
  helpers :func:`child_span` and :func:`add_span_event`, which read the
  ambient span from a thread local and degrade to no-ops when nothing is
  recording.  A span carries a reference to the tracer that minted it, so
  finished spans find their way home through the parent chain.
* **Bounded memory.**  Finished spans are kept per trace in an LRU-bounded
  store (``max_traces`` × ``max_spans_per_trace``); spans slower than a
  configurable threshold additionally land in a fixed-size ring buffer.
  Span names form a small fixed vocabulary, so the per-span-name latency
  histograms cannot blow up metric cardinality.
* **Negligible overhead.**  With ``enabled=False`` every entry point
  returns a shared no-op span immediately.  A recorded span draws its id
  from the process PRNG (no ``uuid4``, so no ``os.urandom`` read), is
  stored as itself rather than copied into a dict, observes a histogram
  resolved once per span name (one ``bisect`` in the critical section the
  store already takes) and is opened by a slotted context manager rather
  than a generator.  Opening and finishing one child span under a root,
  pinned to one CPU of a shared 2-vCPU host (best of 7 × 20,000 in one
  process, parent and change alternated), took 11.8–20.3 µs before these
  four changes and 3.7–6.4 µs after, about a third of the cost in every
  pair.  ``benchmarks/bench_telemetry_overhead.py`` compares gateway
  throughput with telemetry on and off against a 5% bar, and does not yet
  hold under it reliably: on the same host, 6 runs before these changes
  read 16.4–23.2% and 6 runs after read −16.6% to 3.6% in five and
  62.3% in one; its 13–57 ms walls swing by more than 5% on their own.
"""

from __future__ import annotations

import math
import os
import random
import threading
import time
from bisect import bisect_left
from collections import OrderedDict, deque
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "MetricsRegistry",
    "Span",
    "Tracer",
    "add_span_event",
    "child_span",
    "current_span",
    "trace_scope",
]

# Log-spaced latency buckets in milliseconds, shared by every histogram
# unless a caller overrides them.  The top bucket comfortably covers a
# full comparison against a large dataset; everything slower lands in +Inf.
DEFAULT_BUCKETS_MS: Tuple[float, ...] = (
    0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000,
)

_MAX_EVENTS_PER_SPAN = 64


# --------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------- #
class _Histogram:
    """Fixed-bucket histogram with percentile readout.

    Observations are only bucketed — individual values are not retained —
    so memory is constant and percentiles are estimated by linear
    interpolation inside the bucket that crosses the requested quantile.
    """

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # final slot is +Inf
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        # The first bound >= value; past the last bound is the +Inf slot.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    def percentile(self, quantile: float) -> float:
        if self.total == 0:
            return 0.0
        target = quantile * self.total
        cumulative = 0
        for position, count in enumerate(self.counts):
            previous = cumulative
            cumulative += count
            if cumulative >= target and count:
                lower = self.bounds[position - 1] if position > 0 else 0.0
                if position >= len(self.bounds):
                    return lower  # +Inf bucket: report its lower bound
                upper = self.bounds[position]
                fraction = (target - previous) / count
                return lower + (upper - lower) * fraction
        return self.bounds[-1]

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.total,
            "sum": round(self.sum, 3),
            "p50": round(self.percentile(0.50), 3),
            "p95": round(self.percentile(0.95), 3),
            "p99": round(self.percentile(0.99), 3),
        }


class _Metric:
    __slots__ = ("kind", "help", "samples")

    def __init__(self, kind: str, help_text: str) -> None:
        self.kind = kind
        self.help = help_text
        # label tuple (sorted (key, value) pairs) -> float or _Histogram
        self.samples: Dict[Tuple[Tuple[str, str], ...], Any] = {}


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _format_labels(key: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [
        '%s="%s"' % (name, value.replace("\\", "\\\\").replace('"', '\\"'))
        for name, value in key
    ]
    if extra:
        parts.append(extra)
    return "{%s}" % ",".join(parts) if parts else ""


class MetricsRegistry:
    """Thread-safe counters, gauges and histograms with Prometheus output.

    Metrics are created lazily on first use; re-using a name with a
    different kind raises ``ValueError`` so the exposition can never carry
    duplicate, conflicting ``# TYPE`` lines.  ``enabled=False`` turns every
    recording call into an early-return no-op (the uninstrumented arm of
    the overhead benchmark).
    """

    def __init__(self, *, namespace: str = "repro", enabled: bool = True) -> None:
        self.namespace = namespace
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: "OrderedDict[str, _Metric]" = OrderedDict()
        self._callbacks: "OrderedDict[str, Tuple[Callable[[], float], str]]" = (
            OrderedDict()
        )

    # -- recording ----------------------------------------------------- #
    def _metric(self, name: str, kind: str, help_text: str) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = _Metric(kind, help_text)
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, not {kind}"
            )
        return metric

    def counter_inc(
        self, name: str, amount: float = 1.0, *, help: str = "", **labels: Any
    ) -> None:
        if not self.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            metric = self._metric(name, "counter", help)
            metric.samples[key] = metric.samples.get(key, 0.0) + amount

    def gauge_set(
        self, name: str, value: float, *, help: str = "", **labels: Any
    ) -> None:
        if not self.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            metric = self._metric(name, "gauge", help)
            metric.samples[key] = float(value)

    def _histogram(
        self,
        name: str,
        help_text: str,
        buckets: Optional[Tuple[float, ...]],
        key: Tuple[Tuple[str, str], ...],
    ) -> _Histogram:
        metric = self._metric(name, "histogram", help_text)
        histogram = metric.samples.get(key)
        if histogram is None:
            histogram = _Histogram(buckets or DEFAULT_BUCKETS_MS)
            metric.samples[key] = histogram
        return histogram

    def observe(
        self,
        name: str,
        value: float,
        *,
        help: str = "",
        buckets: Optional[Tuple[float, ...]] = None,
        **labels: Any,
    ) -> None:
        if not self.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            self._histogram(name, help, buckets, key).observe(value)

    def register_callback(
        self, name: str, provider: Callable[[], float], *, help: str = ""
    ) -> None:
        """Register a gauge whose value is pulled at scrape time."""
        with self._lock:
            if name in self._metrics:
                raise ValueError(f"metric {name!r} already registered")
            self._callbacks[name] = (provider, help)

    # -- readout ------------------------------------------------------- #
    def snapshot(self) -> Dict[str, Any]:
        """Structured readout for the ``telemetry`` stats section."""
        out: Dict[str, Any] = {}
        with self._lock:
            for name, metric in self._metrics.items():
                if metric.kind == "histogram":
                    out[name] = {
                        (_format_labels(key) or "_"): histogram.summary()
                        for key, histogram in metric.samples.items()
                    }
                elif len(metric.samples) == 1 and () in metric.samples:
                    out[name] = metric.samples[()]
                else:
                    out[name] = {
                        _format_labels(key): value
                        for key, value in metric.samples.items()
                    }
            callbacks = list(self._callbacks.items())
        for name, (provider, _help) in callbacks:
            try:
                out[name] = provider()
            except Exception:  # pragma: no cover - defensive
                out[name] = None
        return out

    def render_prometheus(self) -> str:
        """Render the registry in the Prometheus text exposition format."""
        lines: List[str] = []
        with self._lock:
            metrics = [
                (name, metric.kind, metric.help, dict(metric.samples))
                for name, metric in self._metrics.items()
            ]
            callbacks = list(self._callbacks.items())
        prefix = f"{self.namespace}_" if self.namespace else ""
        for name, kind, help_text, samples in metrics:
            full = prefix + name
            if help_text:
                lines.append(f"# HELP {full} {help_text}")
            lines.append(f"# TYPE {full} {kind}")
            for key, value in sorted(samples.items()):
                if kind == "histogram":
                    cumulative = 0
                    for bound, count in zip(value.bounds, value.counts):
                        cumulative += count
                        labels = _format_labels(key, f'le="{_format_bound(bound)}"')
                        lines.append(f"{full}_bucket{labels} {cumulative}")
                    labels = _format_labels(key, 'le="+Inf"')
                    lines.append(f"{full}_bucket{labels} {value.total}")
                    lines.append(f"{full}_sum{_format_labels(key)} {value.sum:g}")
                    lines.append(f"{full}_count{_format_labels(key)} {value.total}")
                else:
                    lines.append(f"{full}{_format_labels(key)} {value:g}")
        for name, (provider, help_text) in callbacks:
            full = prefix + name
            try:
                value = float(provider())
            except Exception:  # pragma: no cover - defensive
                continue
            if help_text:
                lines.append(f"# HELP {full} {help_text}")
            lines.append(f"# TYPE {full} gauge")
            lines.append(f"{full} {value:g}")
        if not lines:
            return ""
        return "\n".join(lines) + "\n"


def _format_bound(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    return f"{bound:g}"


# --------------------------------------------------------------------- #
# Spans and the thread-local trace scope
# --------------------------------------------------------------------- #
# Span and trace ids come from a PRNG of this module's own: no syscall and
# no ``UUID`` per id, and a caller's ``random.seed`` neither repeats ids nor
# loses draws to span recording.  A forked child reseeds it from the OS.
_id_random = random.Random()
_getrandbits = _id_random.getrandbits
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_id_random.seed)


def _new_trace_id() -> str:
    """32 lowercase hex characters."""
    return _getrandbits(128).to_bytes(16, "big").hex()


class Span:
    """One timed operation inside a trace.

    Spans are cheap value objects: wall-clock start for display, a
    monotonic ``perf_counter`` pair for the duration, a bounded event list
    and free-form annotations.  ``finish()`` is idempotent and hands the
    span itself to the owning tracer's store; from then on the span is
    frozen (a late ``annotate``/``add_event`` is a no-op), so what the
    tracer renders later is what the span held when it finished.  A span
    has no lock of its own: its mutations take the owning tracer's lock,
    which collecting it holds anyway.
    """

    recording = True

    __slots__ = (
        "tracer",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "annotations",
        "events",
        "started_at",
        "_started_perf",
        "duration_ms",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        *,
        trace_id: str,
        parent_id: Optional[str],
        annotations: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        # 16 hex characters, drawn like the trace id (see _new_trace_id).
        self.span_id = _getrandbits(64).to_bytes(8, "big").hex()
        self.parent_id = parent_id
        # Callers pass a fresh ``**annotations`` dict: the span owns it.
        self.annotations = annotations
        self.events: List[Dict[str, Any]] = []
        self.started_at = time.time()
        self._started_perf = time.perf_counter()
        self.duration_ms: Optional[float] = None  # set once, by finish()

    def annotate(self, **fields: Any) -> None:
        with self.tracer._lock:
            if self.duration_ms is None:
                self.annotations.update(fields)

    def add_event(self, name: str, **fields: Any) -> None:
        offset_ms = (time.perf_counter() - self._started_perf) * 1000.0
        with self.tracer._lock:
            if self.duration_ms is None and len(self.events) < _MAX_EVENTS_PER_SPAN:
                self.events.append(
                    {"name": name, "offset_ms": round(offset_ms, 3), **fields}
                )

    def finish(self) -> None:
        self.tracer._collect(self, time.perf_counter())

    def as_dict(self) -> Dict[str, Any]:
        with self.tracer._lock:
            return {
                "name": self.name,
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "started_at": self.started_at,
                "duration_ms": (
                    round(self.duration_ms, 3)
                    if self.duration_ms is not None
                    else None
                ),
                "annotations": dict(self.annotations),
                "events": [dict(event) for event in self.events],
            }


class _NoopSpan:
    """Shared sentinel installed when nothing is recording."""

    recording = False
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None
    tracer: Optional["Tracer"] = None

    def annotate(self, **fields: Any) -> None:
        pass

    def add_event(self, name: str, **fields: Any) -> None:
        pass

    def finish(self) -> None:
        pass

    def as_dict(self) -> Dict[str, Any]:
        return {}


NOOP_SPAN = _NoopSpan()


class _TraceLocal(threading.local):
    span: Optional[Span] = None


_trace_local = _TraceLocal()


class _TraceScope:
    """Install a span as the thread's ambient parent; mirror of
    ``resilience._DeadlineScope`` so the two compose in any order."""

    __slots__ = ("_span", "_previous")

    def __init__(self, span: Optional[Span]) -> None:
        self._span = span
        self._previous: Optional[Span] = None

    def __enter__(self) -> Optional[Span]:
        self._previous = _trace_local.span
        _trace_local.span = self._span
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        _trace_local.span = self._previous
        return False


def trace_scope(span: Optional[Span]) -> _TraceScope:
    """Context manager installing ``span`` (may be ``None`` or a no-op span)
    as the calling thread's ambient trace parent."""
    return _TraceScope(span)


def current_span() -> Optional[Span]:
    """The span installed on this thread, or ``None``."""
    return _trace_local.span


class child_span:
    """Open a child of the ambient span, install it for the duration, and
    finish it on exit; yields a shared no-op span when nothing is recording
    so call sites never branch.  An escaping exception is recorded as an
    ``error`` annotation before re-raising."""

    __slots__ = ("_name", "_annotations", "_span", "_previous")

    def __init__(self, name: str, **annotations: Any) -> None:
        self._name = name
        self._annotations = annotations
        self._span: Optional[Span] = None

    def __enter__(self) -> Any:
        parent = _trace_local.span
        if parent is None or not parent.recording or parent.tracer is None:
            return NOOP_SPAN
        span = parent.tracer.start_span(self._name, parent=parent, **self._annotations)
        self._span = span
        self._previous = parent
        _trace_local.span = span
        return span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        span = self._span
        if span is None:
            return False
        if exc_type is not None:
            span.annotate(error=exc_type.__name__)
        span.finish()
        _trace_local.span = self._previous
        return False


def add_span_event(name: str, **fields: Any) -> None:
    """Attach a point-in-time event to the ambient span, if any."""
    span = _trace_local.span
    if span is not None and span.recording:
        span.add_event(name, **fields)


# --------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------- #
class Tracer:
    """Mints trace ids, collects finished spans, reconstructs span trees.

    Finished spans are stored as they are, per trace id, in an LRU-bounded
    map, and rendered to dicts only when a tree is read.  Every span
    duration also feeds the shared ``span_duration_ms`` histogram, labelled
    by span name: the names form a fixed vocabulary, so each name's
    histogram is resolved once.  Spans slower than ``slow_threshold_ms``
    land in a bounded ring surfaced through stats.

    The tracer's lock is its registry's lock, so finishing a span (its
    histogram observation and its store entry) is one critical section.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        enabled: bool = True,
        slow_threshold_ms: float = 500.0,
        max_traces: int = 256,
        max_spans_per_trace: int = 512,
        slow_ring_size: int = 64,
    ) -> None:
        self.registry = registry
        self.enabled = enabled
        self.slow_threshold_ms = float(slow_threshold_ms)
        self.max_traces = int(max_traces)
        self.max_spans_per_trace = int(max_spans_per_trace)
        self._lock = registry._lock
        self._traces: "OrderedDict[str, List[Span]]" = OrderedDict()
        self._slow: "deque[Span]" = deque(maxlen=int(slow_ring_size))
        self._spans_collected = 0
        self._spans_dropped = 0
        self._duration_histograms: Dict[str, _Histogram] = {}

    # -- span creation ------------------------------------------------- #
    def start_trace(self, name: str, **annotations: Any) -> Any:
        """Open a root span.  If the calling thread already carries a
        recording span (e.g. the REST request span around a submission),
        the new span joins that trace as a child instead of minting a
        fresh trace id — so one HTTP request and the comparison it spawns
        share a single trace."""
        if not self.enabled:
            return NOOP_SPAN
        parent = _trace_local.span
        if parent is not None and parent.recording:
            return self.start_span(name, parent=parent, **annotations)
        return Span(
            self,
            name,
            trace_id=_new_trace_id(),
            parent_id=None,
            annotations=annotations,
        )

    def start_span(
        self, name: str, *, parent: Optional[Span] = None, **annotations: Any
    ) -> Any:
        if not self.enabled:
            return NOOP_SPAN
        if parent is not None and parent.recording:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = _new_trace_id()
            parent_id = None
        return Span(
            self, name, trace_id=trace_id, parent_id=parent_id,
            annotations=annotations,
        )

    # -- collection ---------------------------------------------------- #
    def _collect(self, span: Span, ended: float) -> None:
        """Finish ``span`` once: freeze it, observe its duration, store it."""
        with self._lock:
            if span.duration_ms is not None:
                return
            duration = span.duration_ms = (ended - span._started_perf) * 1000.0
            histogram = self._duration_histograms.get(span.name)
            if histogram is None:
                # A disabled registry gets a detached histogram no readout shows.
                histogram = (
                    self.registry._histogram(
                        "span_duration_ms",
                        "Latency distribution per span name",
                        None,
                        (("span", span.name),),
                    )
                    if self.registry.enabled
                    else _Histogram(DEFAULT_BUCKETS_MS)
                )
                self._duration_histograms[span.name] = histogram
            histogram.observe(duration)
            bucket = self._traces.get(span.trace_id)
            if bucket is None:
                while len(self._traces) >= self.max_traces:
                    self._traces.popitem(last=False)
                bucket = []
                self._traces[span.trace_id] = bucket
            else:
                self._traces.move_to_end(span.trace_id)
            if len(bucket) < self.max_spans_per_trace:
                bucket.append(span)
                self._spans_collected += 1
            else:
                self._spans_dropped += 1
            if duration >= self.slow_threshold_ms:
                self._slow.append(span)

    # -- readout ------------------------------------------------------- #
    def trace_tree(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """Reconstruct a finished trace as a parent/child tree, or ``None``
        if no spans were collected for the id."""
        with self._lock:
            bucket = self._traces.get(trace_id)
            spans = list(bucket) if bucket else None
        if not spans:
            return None
        spans.sort(key=lambda span: span.started_at)
        nodes = {span.span_id: {**span.as_dict(), "children": []} for span in spans}
        roots: List[Dict[str, Any]] = []
        for span in spans:
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id) if span.parent_id else None
            if parent is not None:
                parent["children"].append(node)
            else:
                roots.append(node)
        return {"trace_id": trace_id, "span_count": len(spans), "roots": roots}

    def slow_spans(self) -> List[Dict[str, Any]]:
        with self._lock:
            slow = list(self._slow)
        return [
            {
                "trace_id": span.trace_id,
                "span": span.name,
                "duration_ms": round(span.duration_ms, 3),
                "started_at": span.started_at,
                "annotations": dict(span.annotations),
            }
            for span in slow
        ]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            stats = {
                "enabled": self.enabled,
                "traces_tracked": len(self._traces),
                "spans_collected": self._spans_collected,
                "spans_dropped": self._spans_dropped,
                "slow_threshold_ms": self.slow_threshold_ms,
            }
        stats["slow_spans"] = self.slow_spans()
        return stats
