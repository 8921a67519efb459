"""Per-layer tracing of the platform, installed from the benchmark's own files.

:func:`LayerTracer.install` wraps the public functions and methods of every
``repro.platform`` and ``repro.algorithms`` module.  Each wrapped call is a
span: it knows its layer (the module it belongs to), its duration, and the
time its wrapped children took, so its *self* time is duration minus
children, as in Dapper (Sigelman et al., 2010).  Spans are grouped into
*operation contexts*: the benchmark client opens one context per operation
(:meth:`LayerTracer.operation`), a REST request handler opens one per
request, and work handed to the executor pool carries the submitting
context to the worker thread.

Per-op self times only count spans on the thread that owns the context (the
caller's critical path), so they add up to the operation's wall time minus
whatever no wrapped function covered: the ledger's ``unattributed`` share.
Counters and per-call timings are collected on every thread.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import pkgutil
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: A span's layer is its module's name (``algorithms`` for the whole
#: package), except that classes named ``*ResultCache`` form the ``cache``
#: layer wherever they live and ``TaskBuilder`` (query validation, task
#: build) belongs to the gateway's request path.
CLASS_LAYERS = {"TaskBuilder": "gateway"}
#: The storage tier: a call counts as a store read or write where it enters
#: one of these layers from outside all of them.
STORAGE_LAYERS = frozenset({"datastore", "sharding", "replication"})
#: The REST entry point: one operation context per handled request.
REST_ENTRY = ("restapi", "_GatewayRequestHandler", "handle")
#: Every how many persisted results the JSON payload size is measured.
RESULT_SIZE_SAMPLE_EVERY = 4


class OpContext:
    """Everything the spans of one operation recorded."""

    __slots__ = ("owner", "start", "end", "self_s", "counts", "samples", "lock")

    def __init__(self, owner: Optional[int]) -> None:
        self.owner = owner
        self.start = perf_counter()
        self.end = self.start
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.lock = threading.Lock()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "start": self.start,
            "end": self.end,
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "samples": {name: list(values) for name, values in self.samples.items()},
        }

    @classmethod
    def merged(cls, records: List[Dict[str, Any]], start: float, end: float) -> "OpContext":
        """Fold serialised contexts (one per REST request) into one op."""
        op = cls(0)
        op.start, op.end = start, end
        for record in records:
            for layer, seconds in record["self_s"].items():
                op.self_s[layer] += seconds
            op.counts.update(record["counts"])
            for name, values in record["samples"].items():
                op.samples[name].extend(values)
        return op


def _layer_of(module_name: str, class_name: Optional[str]) -> str:
    if class_name is not None:
        if class_name.endswith("ResultCache"):
            return "cache"
        if class_name in CLASS_LAYERS:
            return CLASS_LAYERS[class_name]
    if module_name.startswith("repro.algorithms"):
        return "algorithms"
    return module_name.rsplit(".", 1)[-1]


def _traced_modules() -> List[Any]:
    modules = []
    for package_name in ("repro.platform", "repro.algorithms"):
        package = importlib.import_module(package_name)
        for info in pkgutil.iter_modules(package.__path__):
            modules.append(importlib.import_module(f"{package_name}.{info.name}"))
    return modules


class LayerTracer:
    """Wraps the platform's public surface and records per-layer spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[tuple] = []
        #: Spans outside any operation (background threads, setup).
        self.background = OpContext(None)
        #: Contexts opened by REST entry points, in completion order.
        self.finished: List[OpContext] = []
        self._result_puts = 0

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def install(self) -> int:
        """Wrap every public function and method; returns how many."""
        for module in _traced_modules():
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    if not name.startswith("_"):
                        self._patch(module, name, value, _layer_of(module.__name__, None), None)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._install_class(module, value)
        return len(self._installed)

    def _install_class(self, module: Any, cls: type) -> None:
        if issubclass(cls, (enum.Enum, BaseException)):
            return
        entry = (module.__name__.rsplit(".", 1)[-1], cls.__name__)
        if cls.__name__.startswith("_") and entry != REST_ENTRY[:2]:
            return
        layer = _layer_of(module.__name__, cls.__name__)
        methods = list(vars(cls).items())
        if entry == REST_ENTRY[:2]:
            # The stdlib request loop is inherited; wrap it on the subclass
            # so parsing and the response flush count as REST time.
            handle = getattr(cls, REST_ENTRY[2])
            self._patch(cls, REST_ENTRY[2], handle, layer, cls.__name__, entry=True)
        for name, value in methods:
            if name.startswith("_") or not inspect.isfunction(value):
                continue
            self._patch(cls, name, value, layer, cls.__name__)

    def _patch(
        self,
        owner: Any,
        name: str,
        function: Callable,
        layer: str,
        class_name: Optional[str],
        *,
        entry: bool = False,
    ) -> None:
        if class_name == "ExecutorPool" and name == "submit_work":
            wrapped = self._wrap_submit_work(function, layer)
        else:
            hook = self._hook_for(layer, class_name, name)
            wrapped = self._wrap(function, layer, hook, entry=entry)
        setattr(owner, name, wrapped)
        self._installed.append((owner, name, function))

    def uninstall(self) -> None:
        for owner, name, function in reversed(self._installed):
            setattr(owner, name, function)
        self._installed.clear()

    # ------------------------------------------------------------------ #
    # operation contexts
    # ------------------------------------------------------------------ #
    def operation(self, *, all_threads: bool = False) -> "_Operation":
        """Context manager around one client operation on this thread.

        With ``all_threads`` the op's self times also count spans that ran
        on the worker threads its work was handed to (asynchronous ops,
        whose caller does not wait inside the op).
        """
        return _Operation(self, all_threads)

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.ctx = None
            local.ident = threading.get_ident()
        return local, stack

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #
    def _wrap(self, function: Callable, layer: str, hook, *, entry: bool = False) -> Callable:
        tracer = self
        state = self._state

        @functools.wraps(function)
        def traced(*args, **kwargs):
            local, stack = state()
            ctx = local.ctx
            opened = False
            if ctx is None:
                if entry and not stack:
                    ctx = local.ctx = OpContext(local.ident)
                    opened = True
                else:
                    ctx = tracer.background
            frame = [layer, 0.0]
            stack.append(frame)
            result = None
            started = perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                if ctx.owner == local.ident:
                    # Only the owning thread writes an owned context.
                    ctx.self_s[layer] += elapsed - frame[1]
                    if hook is not None:
                        hook(tracer, ctx, elapsed, stack, args, result)
                else:
                    with ctx.lock:
                        if ctx.owner is None:
                            ctx.self_s[layer] += elapsed - frame[1]
                        if hook is not None:
                            hook(tracer, ctx, elapsed, stack, args, result)
                if opened:
                    ctx.end = perf_counter()
                    local.ctx = None
                    with tracer._lock:
                        tracer.finished.append(ctx)

        return traced

    def _wrap_submit_work(self, function: Callable, layer: str) -> Callable:
        """Carry the submitting context to the worker; time the queue wait."""
        tracer = self

        @functools.wraps(function)
        def submit_work(pool, fn, /, *args, **kwargs):
            local, _ = tracer._state()
            ctx = local.ctx if local.ctx is not None else tracer.background
            submitted = perf_counter()
            body = tracer._wrap(fn, _layer_of(getattr(fn, "__module__", "") or "", None), None)

            def carried(*inner_args, **inner_kwargs):
                worker_local, worker_stack = tracer._state()
                with ctx.lock:
                    ctx.samples["scheduler.queue_wait"].append(perf_counter() - submitted)
                saved_ctx, saved_stack = worker_local.ctx, worker_local.stack
                worker_local.ctx, worker_local.stack = ctx, []
                try:
                    return body(*inner_args, **inner_kwargs)
                finally:
                    worker_local.ctx, worker_local.stack = saved_ctx, saved_stack

            return function(pool, carried, *args, **kwargs)

        return self._wrap(submit_work, layer, None)

    # ------------------------------------------------------------------ #
    # per-call observations
    # ------------------------------------------------------------------ #
    @staticmethod
    def _hook_for(layer: str, class_name: Optional[str], name: str):
        outer_storage = layer in STORAGE_LAYERS
        if layer == "cache" and name == "get":
            return _observe_cache_get
        if layer == "cache" and name.startswith("invalidate"):
            return _observe_outer(layer, "cache.invalidations", None)
        if outer_storage and name.startswith("fetch"):
            return _observe_outer(layer, "datastore.fetches", "datastore.fetch")
        if outer_storage and name == "store_dataset":
            return _observe_outer(layer, "datastore.store_datasets", "datastore.store_dataset")
        if outer_storage and name == "put_result":
            return _observe_put_result
        if outer_storage and name == "append_log":
            return _observe_outer(layer, "datastore.append_logs", None)
        if class_name == "DataStore" and name == "dataset_version":
            return _observe_count("datastore.version_polls")
        if class_name == "ExecutorNode" and name == "execute_batch":
            return _observe_batch
        if class_name == "Algorithm" and name == "run_batch":
            return _observe_outer(layer, "algorithms.kernels", "algorithms.kernel")
        if class_name == "JobRecord" and name == "append":
            return _observe_count("jobs.events")
        if class_name == "Span" and name == "finish":
            return _observe_count("telemetry.spans")
        if class_name == "ApiGateway" and name == "get_comparison_table":
            return _observe_outer(layer, "gateway.tables", "gateway.table")
        return None

    def result_size_due(self) -> bool:
        with self._lock:
            self._result_puts += 1
            return self._result_puts % RESULT_SIZE_SAMPLE_EVERY == 1


# Hooks run after the span is popped: ``stack`` holds its enclosing frames.
def _inside(stack: List[list], layers) -> bool:
    return any(frame[0] in layers for frame in stack)


def _observe_count(counter: str):
    def observe(tracer, ctx, elapsed, stack, args, result):
        ctx.counts[counter] += 1

    return observe


def _observe_outer(layer: str, counter: str, sample: Optional[str]):
    """Count (and time) a call only where it enters ``layer`` from outside."""
    group = STORAGE_LAYERS if layer in STORAGE_LAYERS else {layer}

    def observe(tracer, ctx, elapsed, stack, args, result):
        if _inside(stack, group):
            return
        ctx.counts[counter] += 1
        if sample is not None:
            ctx.samples[sample].append(elapsed)

    return observe


def _observe_cache_get(tracer, ctx, elapsed, stack, args, result):
    if _inside(stack, ("cache",)):
        return
    ctx.counts["cache.lookups"] += 1
    if result is not None:
        ctx.counts["cache.hits"] += 1
    ctx.samples["cache.get"].append(elapsed)


def _observe_put_result(tracer, ctx, elapsed, stack, args, result):
    if _inside(stack, STORAGE_LAYERS):
        return
    ctx.counts["datastore.put_results"] += 1
    ctx.samples["datastore.put_result"].append(elapsed)
    if tracer.result_size_due() and len(args) > 2:
        started = perf_counter()
        size = len(json.dumps(args[2], default=str))
        ctx.samples["datastore.result_bytes"].append(float(size))
        if stack:
            # Measuring is tracer overhead: keep it out of the caller's self time.
            stack[-1][1] += perf_counter() - started


def _observe_batch(tracer, ctx, elapsed, stack, args, result):
    ctx.samples["executor.batch"].append(elapsed)
    ctx.samples["executor.batch_queries"].append(float(len(args[1])))


class _Operation:
    def __init__(self, tracer: LayerTracer, all_threads: bool) -> None:
        self._tracer = tracer
        self._all_threads = all_threads
        self.ctx: Optional[OpContext] = None

    def __enter__(self) -> OpContext:
        local, _ = self._tracer._state()
        owner = None if self._all_threads else threading.get_ident()
        self.ctx = local.ctx = OpContext(owner)
        return self.ctx

    def __exit__(self, *exc_info) -> None:
        local, _ = self._tracer._state()
        self.ctx.end = perf_counter()
        local.ctx = None
