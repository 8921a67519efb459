"""Reusable fault-injection scenario library for the storage suites.

Grown out of the ``FlakyStore``/``DownShard`` helpers that used to live in
``conftest.py``: every platform suite that scripts an outage imports from
here.  The library provides

:class:`FlakyStore`
    The wrapper itself — per-method fault rules, wholesale outages
    (:meth:`~FlakyStore.go_down`/:meth:`~FlakyStore.come_up`) and injected
    latency (:meth:`~FlakyStore.slow_down`) over any ``DataStore``.
:class:`ShardFlapper`
    A background thread flapping one shard down/up on a fixed cadence — the
    scenario the health prober's rate limit is proven against.
:func:`partition`
    Context manager taking a group of shards down for the duration of a
    block (partition-then-recover timelines).
:func:`fault_rounds`
    Scenario scaling: the fault suites always run; the dedicated CI job
    sets ``REPRO_TEST_FAULTS`` to multiply iteration counts so the
    timelines run longer there without slowing the default suite.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from collections import Counter
from typing import Any, Dict, Iterator, Optional, Sequence

__all__ = [
    "DownShard",
    "FlakyStore",
    "ShardFlapper",
    "fault_rounds",
    "partition",
    "stale_primary",
]

#: Environment variable scaling the scripted outage scenarios (see CI's
#: dedicated fault job).
FAULTS_ENV = "REPRO_TEST_FAULTS"


def fault_rounds(base: int) -> int:
    """Return ``base`` iterations, multiplied under the fault CI job.

    ``REPRO_TEST_FAULTS=K`` multiplies scenario lengths by ``K`` (``1``
    simply marks the job; any unparseable value counts as ``1``), so the
    same tests serve as quick local checks and as the longer CI sweep.
    """
    raw = os.environ.get(FAULTS_ENV, "")
    try:
        factor = int(raw) if raw else 1
    except ValueError:
        factor = 1
    return base * max(1, factor)


class FlakyStore:
    """Fault-injection wrapper: make any :class:`DataStore` raise on demand.

    Wraps a real datastore and forwards everything; failures are injected
    per method and per call count through :meth:`fail_on`, or wholesale
    through :meth:`go_down` (every *method call* raises until
    :meth:`come_up`; plain attributes such as ``result_cache`` keep
    forwarding, mirroring a node whose process is dead but whose state is
    not).  :meth:`slow_down` injects latency instead of failure — the
    slow-shard scenario.  Reusable by every platform suite: wrap the
    backends handed to a ``ReplicatedShardedDataStore`` (or a gateway's
    ``datastore``) and script the outage.

    Examples
    --------
    >>> backend = FlakyStore(DataStore())         # doctest: +SKIP
    >>> backend.fail_on("put_result", times=2)    # next two writes raise
    >>> backend.go_down()                         # everything raises now
    >>> backend.slow_down("fetch_dataset", seconds=0.05)
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self._flaky_lock = threading.Lock()
        self._rules: Dict[str, Dict[str, Any]] = {}
        self._delays: Dict[str, float] = {}
        self._is_down = False
        #: Per-method call counts (attempted calls, including failed ones).
        self.calls: Counter = Counter()

    # -- scripting ----------------------------------------------------- #
    def fail_on(
        self,
        method: str,
        *,
        times: Optional[int] = 1,
        after: int = 0,
        error: Optional[BaseException] = None,
    ) -> None:
        """Make ``method`` raise: skip ``after`` calls, then fail ``times``
        calls (``times=None`` fails forever).  ``error`` defaults to a
        ``RuntimeError`` — an *infrastructure* failure, distinct from the
        ``StorageError`` a store uses for a genuinely absent key."""
        with self._flaky_lock:
            self._rules[method] = {"after": after, "times": times, "error": error}

    def clear_faults(self, method: Optional[str] = None) -> None:
        """Drop one method's injected faults (or all of them)."""
        with self._flaky_lock:
            if method is None:
                self._rules.clear()
            else:
                self._rules.pop(method, None)

    def slow_down(self, method: Optional[str] = None, *, seconds: float) -> None:
        """Inject latency: ``method`` (or, with ``None``, every method call)
        sleeps ``seconds`` before executing — the slow-shard scenario, where
        a replica answers but degrades tail latency."""
        with self._flaky_lock:
            self._delays["*" if method is None else method] = seconds

    def clear_delays(self, method: Optional[str] = None) -> None:
        """Drop one method's injected latency (or all of it)."""
        with self._flaky_lock:
            if method is None:
                self._delays.clear()
            else:
                self._delays.pop(method, None)

    def go_down(self) -> None:
        """Take the whole store down: every method call raises until come_up()."""
        with self._flaky_lock:
            self._is_down = True

    def come_up(self) -> None:
        """Bring the store back (injected per-method faults stay in place)."""
        with self._flaky_lock:
            self._is_down = False

    @property
    def is_down(self) -> bool:
        with self._flaky_lock:
            return self._is_down

    # -- forwarding ---------------------------------------------------- #
    def _check(self, name: str) -> float:
        """Apply the fault rules for one call; return the latency to inject."""
        with self._flaky_lock:
            self.calls[name] += 1
            delay = self._delays.get(name, self._delays.get("*", 0.0))
            if self._is_down:
                raise RuntimeError(f"injected outage: shard is down ({name})")
            rule = self._rules.get(name)
            if rule is None:
                return delay
            if rule["after"] > 0:
                rule["after"] -= 1
                return delay
            if rule["times"] is None:
                pass  # fail forever
            elif rule["times"] > 0:
                rule["times"] -= 1
                if rule["times"] == 0:
                    del self._rules[name]
            else:
                return delay
            error = rule["error"]
            raise error if error is not None else RuntimeError(
                f"injected fault in {name}"
            )

    def __getattr__(self, name: str):
        attribute = getattr(self._inner, name)
        if not callable(attribute):
            return attribute

        def wrapper(*args, **kwargs):
            delay = self._check(name)
            if delay:
                time.sleep(delay)
            return attribute(*args, **kwargs)

        return wrapper

    def __repr__(self) -> str:
        return f"<FlakyStore over {self._inner!r}{' DOWN' if self._is_down else ''}>"


#: Alias for tests that script a permanent shard loss rather than flakiness.
DownShard = FlakyStore


class ShardFlapper(threading.Thread):
    """Flap one :class:`FlakyStore` down/up on a fixed cadence.

    Each cycle takes the shard down for ``down_for`` seconds and brings it
    back for ``up_for`` seconds, for ``cycles`` cycles (scaled through
    :func:`fault_rounds` by the caller when desired).  Use as a context
    manager; on exit the thread is joined and the shard left up.
    """

    def __init__(
        self,
        shard: FlakyStore,
        *,
        cycles: int = 10,
        down_for: float = 0.01,
        up_for: float = 0.01,
    ) -> None:
        super().__init__(name="shard-flapper", daemon=True)
        self._shard = shard
        self._cycles = cycles
        self._down_for = down_for
        self._up_for = up_for
        self._halt = threading.Event()

    def run(self) -> None:
        for _ in range(self._cycles):
            if self._halt.is_set():
                break
            self._shard.go_down()
            if self._halt.wait(self._down_for):
                break
            self._shard.come_up()
            if self._halt.wait(self._up_for):
                break
        self._shard.come_up()

    def stop(self) -> None:
        self._halt.set()

    def __enter__(self) -> "ShardFlapper":
        self.start()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()
        self.join(timeout=10.0)
        self._shard.come_up()


def stale_primary(store, dataset_id: str, graph) -> str:
    """Script the outage that leaves ``dataset_id``'s primary stale.

    The canonical quorum-read scenario: the primary's backend (which must
    be a :class:`FlakyStore`) goes physically down, a re-upload of
    ``graph`` lands the next version on the surviving successors via
    hinted handoff, and the primary comes back holding the pre-outage
    copy — below the version floor the write established.  The store's
    digest round must withhold that copy (``stale_reads_prevented``).
    Returns the primary's shard id.
    """
    primary = store.replica_shards_for(dataset_id)[0]
    backend = store.shard_stores()[primary]
    backend.go_down()
    try:
        store.store_dataset(dataset_id, graph)
    finally:
        backend.come_up()
    return primary


@contextlib.contextmanager
def partition(*shards: FlakyStore) -> Iterator[Sequence[FlakyStore]]:
    """Take a group of shards down for the duration of the block.

    The partition-then-recover timeline: everything inside the ``with``
    sees the shards unreachable; on exit they all come back (even if the
    block raises), ready for the recovery assertions.
    """
    for shard in shards:
        shard.go_down()
    try:
        yield shards
    finally:
        for shard in shards:
            shard.come_up()
