"""The ring store: N backend shards behind a consistent-hash ring, R copies per key.

A single in-process :class:`~repro.platform.datastore.DataStore` bounds every
dataset by one node's memory and dies with it.
:class:`ReplicatedShardedDataStore` implements the same datastore surface
over N backends placed on a :class:`~repro.platform.sharding.HashRing`, so
the scheduler, executor pool and gateway work against it unchanged:

Placement and quorum
    Every dataset-keyed write lands on the ``R`` distinct ring *successors*
    of its key (the primary plus ``R - 1`` replicas) and is acknowledged
    only once a **write quorum** (``R // 2 + 1``) of replicas accepted it —
    so with ``R >= 2`` a single shard loss can never destroy an acked
    dataset or result.  ``R = 1`` is the unreplicated ring: each key lives
    on its primary alone, as in Dynamo with replication factor one.  Reads
    prefer the primary and transparently fail over: a replica that raises
    or is marked down is skipped and the next successor (then the spill
    tier, then a full shard scan bridging in-flight migrations) answers
    instead.  Result keys route by their own id; each backend owns
    its own result cache and compiled-artifact slot, reached through the
    :class:`ReplicatedResultCache` view.  A result copy is a file: a shard
    without a directory keeps none, so result routing, repair and
    tombstones only ever move the copies on disk-backed shards, and R of
    them keep an acked permalink through the loss of a shard.

Sloppy placement under failure
    When a canonical replica is down, writes slide to the next live ring
    successor (a hinted handoff) so the quorum still reflects *distinct live
    copies*; :meth:`ReplicatedShardedDataStore.replicate` later repairs
    canonical placement and copy counts.  Version counters stay consistent
    across replicas because every copy of one write stores with the same
    global ``version_floor`` — all replicas agree on the dataset version, and
    the version-quorum read never serves a copy below the acked floor.  The
    result cache is keyed by the content digest of the copy a read returned,
    so it behaves exactly as on a single store.

Spill tier
    With ``spill_dir=...`` (or an explicit ``spill_store``) the store gains a
    cold :class:`~repro.platform.datastore.FileBackedDataStore` tier off the
    ring.  :meth:`ReplicatedShardedDataStore.spill` demotes the coldest
    datasets (least recently fetched) from the memory shards to the file
    tier; reads fail over to it transparently and a re-upload promotes the
    dataset back onto the ring.  File shards recover their datasets, results
    and compiled artifacts bit-identical on restart.

Maintenance as jobs
    :meth:`replicate`, :meth:`spill` and :meth:`rebalance` all accept a
    ``job`` (:class:`~repro.platform.jobs.JobRecord`): they emit a typed
    ``progress`` event per migrated item and stop at the next item boundary
    once cancellation is requested — which is how the gateway runs them as
    cancellable jobs whose progress streams over long-poll/SSE and the CLI.

Self-healing (anti-entropy)
    Three mechanisms keep the tier converging without an operator:

    * **Deletion tombstones** — :meth:`ReplicatedShardedDataStore.drop_dataset`
      and :meth:`~ReplicatedShardedDataStore.drop_result` write a durable,
      versioned tombstone to the R live successors instead of erasing
      blindly.  The repair passes treat a tombstone as authoritative over
      any copy at or below its version, so a replica that slept through the
      delete cannot resurrect the key when it recovers; the tombstone is
      reaped once every replica acknowledged it with the whole ring
      reachable.  File-backed shards persist tombstones across restarts.
    * **Health probes** — every request outcome feeds a per-shard failure
      streak, and :meth:`~ReplicatedShardedDataStore.probe_shards` adds
      periodic pings (the gateway runs them on a background prober).  The
      streak is the shard's one health state: at F consecutive failures
      the detector marks the shard down in the same step, and no read
      walk, digest poll or failover hop touches it until a success — a
      probe, a maintenance pass or an operator ``mark_up`` — resets the
      streak.  A successful probe marks a shard the detector took down
      back up, no sooner than the transition interval after the down
      (held mark-ups are counted), so a flapping shard cannot storm the
      ring.  Transitions are reported through listeners (the gateway turns
      them into typed job events) and surfaced in
      :meth:`~ReplicatedShardedDataStore.replication_stats`.  A manual
      ``mark_down`` stays sticky — probes never un-mark an operator call.
    * **Read-repair** — a failover read (answered by a non-primary source)
      enqueues its key on a bounded, coalescing repair queue;
      :meth:`~ReplicatedShardedDataStore.drain_read_repairs` restores that
      single key's R copies (the gateway runs it as a cancellable job as
      soon as keys queue), so ``underreplicated`` converges without waiting
      for a full :meth:`~ReplicatedShardedDataStore.replicate` scan.

Overload protection
    Replica operations share one retry discipline (bounded attempts,
    full-jitter backoff, a store-wide retry *budget* capping amplification
    during an outage), built once by the constructor, and reads honour the
    caller's deadline between failover hops.  See
    :mod:`repro.platform.resilience`.

Read-path version quorum
    Every dataset read opens with a *digest round*: the live R-successors
    are polled for the version of the copy they hold (``0`` when they hold
    none — a replica votes only for a copy it has, never for the counter a
    drop or spill left behind), deadline-aware, under the same
    retry discipline as data reads, inside the read's ``storage_read``
    span.  The read then serves only a copy at the maximum of the
    digests and the router's known version floor — a caller can never
    receive a graph below the floor, and a below-floor copy the walk meets
    is withheld (``stale_reads_prevented``) and flagged for repair.  Every
    dataset read surface routes through the versioned fetch (including
    plain ``fetch_dataset`` and the compiled-artifact path), so the floor
    check covers all of them; divergence the digest round discovers is
    flagged on the single-key read-repair queue instead of merely counted.
    On the write side the divergence source is closed at the root: each
    upload reserves its version against the router's high-water mark under
    the routing lock (a CAS-style reservation), so concurrent re-uploads of
    the same dataset mint distinct, ordered versions, and each replica
    write supersedes only strictly older copies — the losing writer's
    copies are purged (or refused at the backend) rather than resurrected
    above the winner.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .._validation import require_positive_int
from ..exceptions import DeadlineExceededError, InvalidParameterError, StorageError
from ..graph.compiled import CompiledGraph
from ..graph.digraph import DirectedGraph
from .cache import CacheKey, ResultCache
from .datastore import DataStore, FileBackedDataStore
from .jobs import JobRecord
from .resilience import RetryPolicy, TokenBucket, current_deadline
from .sharding import DEFAULT_VIRTUAL_NODES, HashRing
from .telemetry import child_span

__all__ = ["ReplicatedResultCache", "ReplicatedShardedDataStore"]


class ReplicatedResultCache:
    """The ring store's routing view over the per-shard result caches.

    The scheduler holds one ``result_cache`` handle for the lifetime of the
    platform; this object keeps that contract while each backend shard keeps
    *owning* its cache.  Keys route to the cache of the first *live* ring
    successor of their dataset (the dataset id is the first element of every
    :data:`~repro.platform.cache.CacheKey`, and that shard is the one
    failover reads prefer), and every operation is best-effort: a raising
    backend makes ``get`` report a miss and ``put`` decline the entry instead
    of failing the query — the cache must never take serving down with a
    shard.  Nothing is ever invalidated: keys carry the content digest of the
    graph a ranking was computed on, so an entry on any shard can only serve
    a read of that exact graph.  :meth:`stats` aggregates the per-shard
    counters and keeps the per-shard breakdown under ``"shards"``.
    """

    #: Kept for callers that build keys through the cache object they hold.
    key_for = staticmethod(ResultCache.key_for)

    #: Counter keys summed across shards by :meth:`stats`.
    _COUNTER_KEYS = (
        "capacity",
        "size",
        "hits",
        "misses",
        "evictions",
        "invalidations",
        "admissions_deferred",
    )

    def __init__(self, store: "ReplicatedShardedDataStore") -> None:
        self._store = store

    def _cache_for(self, dataset_id: str) -> ResultCache:
        return self._store._cache_backend_for(dataset_id).result_cache

    def get(self, key: CacheKey):
        """Return the cached ranking for ``key`` (``None`` on a miss or fault)."""
        try:
            return self._cache_for(key[0]).get(key)
        except Exception:
            return None

    def peek(self, key: CacheKey):
        """Return the cached ranking without touching counters or LRU order."""
        try:
            return self._cache_for(key[0]).peek(key)
        except Exception:
            return None

    def put(self, key: CacheKey, ranking) -> bool:
        """Cache a finished ranking next to its dataset's preferred shard."""
        try:
            return self._cache_for(key[0]).put(key, ranking)
        except Exception:
            return False

    def clear(self) -> None:
        """Drop every cached ranking on every reachable shard."""
        for backend in self._store.shard_stores().values():
            try:
                backend.result_cache.clear()
            except Exception:
                continue

    def __len__(self) -> int:
        total = 0
        for backend in self._store.shard_stores().values():
            try:
                total += len(backend.result_cache)
            except Exception:
                continue
        return total

    def stats(self) -> Dict[str, Any]:
        """Return the aggregated cache counters plus the per-shard breakdown.

        A shard whose cache cannot be reached becomes an ``{"error": ...}``
        entry, excluded from the sums, so a stats poll keeps working through
        an outage.
        """
        per_shard: Dict[str, Any] = {}
        for shard_id, backend in self._store.shard_stores().items():
            try:
                per_shard[shard_id] = backend.result_cache.stats()
            except Exception as exc:
                per_shard[shard_id] = {"error": str(exc)}
        healthy = [stats for stats in per_shard.values() if "error" not in stats]
        aggregated: Dict[str, Any] = {
            key: sum(stats[key] for stats in healthy) for key in self._COUNTER_KEYS
        }
        total = aggregated["hits"] + aggregated["misses"]
        aggregated["hit_rate"] = (aggregated["hits"] / total) if total else 0.0
        # The policy knob is uniform across internally-built shards; report
        # the first shard's so the stats shape matches the single-store cache.
        first = next(iter(healthy), {})
        aggregated["admit_on_second_miss"] = first.get("admit_on_second_miss", False)
        aggregated["shards"] = per_shard
        return aggregated

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"<ReplicatedResultCache over {len(stats['shards'])} shards, "
            f"{stats['size']}/{stats['capacity']} entries>"
        )


class ReplicatedShardedDataStore:
    """A datastore made of N backend shards on a consistent-hash ring, R copies per key.

    Implements the full :class:`~repro.platform.datastore.DataStore`
    surface: keyed operations route to the key's ring successors,
    ``list_*``/stats calls fan out across every shard.

    Parameters
    ----------
    shards:
        Backing :class:`DataStore` instances to shard across (ids are assigned
        ``shard-0 .. shard-N-1`` in order).  Mutually exclusive with
        ``num_shards``.  Backends may be
        :class:`~repro.platform.datastore.FileBackedDataStore` instances — a
        file-backed ring shard recovers its slice of the data on restart.
    num_shards:
        Build this many fresh in-memory backends instead.
    replicas:
        Copies per key (``R``).  ``1`` is the unreplicated ring (each key on
        its primary only); the write quorum is ``R // 2 + 1``, so ``R >= 2``
        keeps every acked write on at least two shards.
    virtual_nodes:
        Ring points per shard (see :class:`~repro.platform.sharding.HashRing`).
    cache_admit_on_second_miss:
        Cache admission policy applied to every internally-built backend
        (invalid together with ``shards``, whose caches are already
        configured).
    spill_dir, spill_store:
        Configure the cold file tier (mutually exclusive; ``spill_dir``
        builds a :class:`FileBackedDataStore` under the directory).
    probe_failure_threshold:
        Consecutive request/probe failures after which a shard is
        automatically marked down and leaves every read (the failure
        detector's F).
    probe_transition_interval_seconds:
        Minimum seconds between an automatic mark_down and the probe
        mark_up that follows it — the rate limit that keeps a flapping
        shard from storming the ring with mark_down/mark_up churn (held
        mark-ups are counted).  Marking down is never held.
    read_repair_queue_limit:
        Bound on the coalescing read-repair queue; keys flagged beyond it
        are dropped (and counted) rather than growing memory — the next
        full ``replicate()`` scan still catches them.
    retry_max_attempts, retry_base_delay_seconds, retry_max_delay_seconds:
        The shared retry policy for *transient* per-replica faults: at most
        ``retry_max_attempts`` total attempts per replica operation, with
        full-jitter exponential backoff between them.  ``StorageError``
        (absence) never retries, and an installed request deadline stops
        retrying early.
    retry_budget_capacity, retry_budget_refill_per_second:
        The store-wide retry budget (token bucket) every retry must win a
        token from, so a dead shard costs each caller its bounded attempts
        but can never trigger a cluster-doubling retry storm.  A refill
        rate of ``0`` makes the budget fixed.
    """

    def __init__(
        self,
        shards: Optional[Sequence[DataStore]] = None,
        *,
        num_shards: Optional[int] = None,
        replicas: int = 2,
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
        spill_dir: Optional[str] = None,
        spill_store: Optional[DataStore] = None,
        cache_admit_on_second_miss: bool = False,
        probe_failure_threshold: int = 3,
        probe_transition_interval_seconds: float = 1.0,
        read_repair_queue_limit: int = 256,
        retry_max_attempts: int = 3,
        retry_base_delay_seconds: float = 0.02,
        retry_max_delay_seconds: float = 0.5,
        retry_budget_capacity: int = 64,
        retry_budget_refill_per_second: float = 8.0,
    ) -> None:
        require_positive_int(replicas, "replicas")
        require_positive_int(probe_failure_threshold, "probe_failure_threshold")
        require_positive_int(read_repair_queue_limit, "read_repair_queue_limit")
        if probe_transition_interval_seconds < 0:
            raise InvalidParameterError(
                "probe_transition_interval_seconds must be >= 0, got "
                f"{probe_transition_interval_seconds}"
            )
        if (shards is None) == (num_shards is None):
            raise InvalidParameterError(
                "provide exactly one of `shards` (backing stores) or `num_shards`"
            )
        if shards is not None:
            if cache_admit_on_second_miss:
                raise InvalidParameterError(
                    "cache_admit_on_second_miss applies to internally-built "
                    "shards; configure the provided stores directly"
                )
            backends = list(shards)
            if not backends:
                raise InvalidParameterError("`shards` must contain at least one datastore")
        else:
            require_positive_int(num_shards, "num_shards")
            backends = [
                DataStore(cache_admit_on_second_miss=cache_admit_on_second_miss)
                for _ in range(num_shards)
            ]
        self._lock = threading.RLock()
        #: Serialises topology operations and maintenance passes against each
        #: other; migrations run under it but *outside* ``_lock``, so routed
        #: reads and writes keep flowing while data moves.
        self._topology_lock = threading.Lock()
        #: Cache policy for internally-built backends, reapplied by
        #: :meth:`add_shard` so a grown topology keeps one uniform policy.
        self._cache_admit_on_second_miss = cache_admit_on_second_miss
        self._backends: Dict[str, DataStore] = {
            f"shard-{index}": backend for index, backend in enumerate(backends)
        }
        self._ring = HashRing(self._backends, virtual_nodes=virtual_nodes)
        self._next_shard_index = len(backends)
        #: Bumped on every ring or health change; optimistic writers validate
        #: against it so routing stays consistent without holding the lock
        #: across the backend operation.
        self._epoch = 0
        self._rebalances = 0
        self._datasets_migrated = 0
        if replicas > self.num_shards:
            raise InvalidParameterError(
                f"replicas ({replicas}) cannot exceed the number of shards "
                f"({self.num_shards})"
            )
        if spill_dir is not None and spill_store is not None:
            raise InvalidParameterError(
                "provide at most one of `spill_dir` and `spill_store`"
            )
        self._replicas = replicas
        self._quorum = replicas // 2 + 1
        self._spill: Optional[DataStore] = (
            spill_store if spill_store is not None
            else (FileBackedDataStore(spill_dir) if spill_dir is not None else None)
        )
        #: Shards the operator (or the failure detector) declared
        #: unreachable: writes skip them, the next ring successor takes
        #: over, and reads try them only in the failover tail.
        self._down: set = set()
        #: The subset of ``_down`` the failure detector (not an operator)
        #: marked, with the monotonic time of the mark: only these are
        #: eligible for automatic mark_up, and only once the transition
        #: interval has passed since.
        self._auto_down: Dict[str, float] = {}
        self._shard_errors: Dict[str, int] = {}
        #: The one health state per shard: its consecutive-failure streak.
        #: At F the shard is suspected and no read consults it.
        self._consecutive_failures: Dict[str, int] = {}
        self._probe_failure_threshold = probe_failure_threshold
        self._probe_transition_interval = probe_transition_interval_seconds
        self._auto_downs = 0
        self._auto_ups = 0
        self._suppressed_transitions = 0
        self._health_listeners: List[Callable[[str, str, int], None]] = []
        #: Coalescing queue of keys flagged by failover reads, drained by
        #: :meth:`drain_read_repairs` (the gateway launches a drain job as
        #: soon as a key queues).
        self._repair_queue: deque = deque()
        self._repair_queued: set = set()
        self._repair_limit = read_repair_queue_limit
        self._repair_dropped = 0
        self._repair_draining = False
        self._repair_launcher: Optional[Callable[[], None]] = None
        self._read_repairs = 0
        self._failover_reads = 0
        self._degraded_writes = 0
        self._spills = 0
        self._repairs = 0
        self._tombstones_written = 0
        self._tombstones_reaped = 0
        self._last_underreplicated: Optional[int] = None
        #: The highest dataset version this store has itself written or
        #: served, per dataset: no read serves a copy below it.
        self._known_version_floor: Dict[str, int] = {}
        #: Read-path version quorum: digest/prevention counters, and the
        #: CAS-style upload reservations concurrent re-uploads of one
        #: dataset mint their distinct versions against (dataset id → the
        #: highest version an in-flight write has claimed).
        self._digest_reads = 0
        self._stale_reads_prevented = 0
        self._version_conflicts_resolved = 0
        self._version_reservations: Dict[str, int] = {}
        #: Drop intents that may not have landed durably: dataset id → the
        #: tombstone version the drop minted.  The repair passes treat the
        #: entry as one more tombstone source, so a delete issued while
        #: every successor was unreachable is completed after recovery
        #: instead of silently resurrecting ("later retry" made real).
        self._pending_drops: Dict[str, int] = {}
        #: The shared retry policy and the budget its retries draw from.
        self._retry_budget = TokenBucket(
            retry_budget_capacity, retry_budget_refill_per_second
        )
        self._retry_policy = RetryPolicy(
            max_attempts=retry_max_attempts,
            base_delay=retry_base_delay_seconds,
            max_delay=retry_max_delay_seconds,
            budget=self._retry_budget,
        )
        self.result_cache = ReplicatedResultCache(self)

    # ------------------------------------------------------------------ #
    # topology, health and placement
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        """Return the number of backend shards."""
        with self._lock:
            return len(self._backends)

    def shard_ids(self) -> List[str]:
        """Return the shard identifiers, sorted."""
        with self._lock:
            return sorted(self._backends)

    def shard_for(self, key: str) -> str:
        """Return the id of the primary shard of ``key`` (a dataset or result id)."""
        with self._lock:
            return self._ring.assign(key)

    def shard_store(self, shard_id: str) -> DataStore:
        """Return the backend datastore of one shard (raises if unknown)."""
        with self._lock:
            backend = self._backends.get(shard_id)
        if backend is None:
            raise StorageError(f"unknown shard {shard_id!r}")
        return backend

    def shard_stores(self) -> Dict[str, DataStore]:
        """Return a snapshot of ``{shard id: backend}`` (sorted by id)."""
        with self._lock:
            return {shard_id: self._backends[shard_id] for shard_id in sorted(self._backends)}

    def add_shard(
        self,
        backend: Optional[DataStore] = None,
        *,
        shard_id: Optional[str] = None,
    ) -> str:
        """Add a backend shard to the ring and return its id.

        The new shard starts empty and only *new* keys route to it until
        :meth:`rebalance` migrates the keys it now holds a replica of.  An
        internally-built backend inherits the cache policy the store was
        constructed with, keeping the policy uniform as the topology grows.
        """
        with self._topology_lock, self._lock:
            if shard_id is None:
                while f"shard-{self._next_shard_index}" in self._backends:
                    self._next_shard_index += 1
                shard_id = f"shard-{self._next_shard_index}"
                self._next_shard_index += 1
            if shard_id in self._backends:
                raise InvalidParameterError(f"shard {shard_id!r} already exists")
            if backend is None:
                backend = DataStore(
                    cache_admit_on_second_miss=self._cache_admit_on_second_miss
                )
            self._ring.add_shard(shard_id)
            self._backends[shard_id] = backend
            self._epoch += 1
            return shard_id

    @property
    def replicas(self) -> int:
        """Return R, the number of copies kept per key."""
        return self._replicas

    @property
    def quorum(self) -> int:
        """Return the write quorum (acks required before a write succeeds)."""
        return self._quorum

    @property
    def spill_store(self) -> Optional[DataStore]:
        """Return the cold file tier, if one is configured."""
        return self._spill

    def mark_down(self, shard_id: str) -> None:
        """Declare a shard unreachable: writes skip it, reads try it last.

        An operator call is *sticky*: the health prober never automatically
        marks a manually-downed shard back up (use :meth:`mark_up`).
        """
        with self._lock:
            if shard_id not in self._backends:
                raise InvalidParameterError(f"shard {shard_id!r} does not exist")
            self._down.add(shard_id)
            self._auto_down.pop(shard_id, None)
            self._epoch += 1

    def mark_up(self, shard_id: str) -> None:
        """Return a shard to service (idempotent).

        An operator call is a success: it resets the shard's failure streak,
        so the next read is offered to the shard again.
        """
        with self._lock:
            self._down.discard(shard_id)
            self._auto_down.pop(shard_id, None)
            self._consecutive_failures.pop(shard_id, None)
            self._epoch += 1

    def marked_down(self) -> List[str]:
        """Return the shards currently marked down, sorted."""
        with self._lock:
            return sorted(self._down)

    # ------------------------------------------------------------------ #
    # overload protection (the shared retry discipline)
    # ------------------------------------------------------------------ #
    @property
    def retry_policy(self) -> RetryPolicy:
        """The shared retry policy every replica operation goes through."""
        return self._retry_policy

    @property
    def retry_budget(self) -> TokenBucket:
        """The store-wide token bucket retries draw from."""
        return self._retry_budget

    # ------------------------------------------------------------------ #
    # failure detection (piggybacked on request outcomes + periodic probes)
    # ------------------------------------------------------------------ #
    def add_health_listener(self, listener: Callable[[str, str, int], None]) -> None:
        """Register ``listener(shard_id, "down"|"up", failure_streak)``.

        Called on every *automatic* health transition (the gateway turns
        them into typed ``shard_down``/``shard_up`` job events).  Listeners
        run with the store's routing lock held and must not call back into
        the store.
        """
        with self._lock:
            self._health_listeners.append(listener)

    def _emit_health_locked(self, shard_id: str, transition: str, streak: int) -> None:
        for listener in self._health_listeners:
            try:
                listener(shard_id, transition, streak)
            except Exception:
                continue  # observability must never take routing down

    def _note_shard_success_locked(self, shard_id: Optional[str]) -> None:
        if shard_id is not None:
            self._consecutive_failures.pop(shard_id, None)

    def _note_shard_error_locked(self, shard_id: Optional[str]) -> None:
        """Feed one failure into ``shard_id``'s streak.

        When the streak reaches F the shard is suspected (:meth:`_suspected`):
        every read walk, digest poll and failover hop skips it from then on,
        and in the same step the detector marks it down.  Marking down is
        never held back.
        """
        if shard_id is None:
            return
        self._shard_errors[shard_id] = self._shard_errors.get(shard_id, 0) + 1
        streak = self._consecutive_failures.get(shard_id, 0) + 1
        self._consecutive_failures[shard_id] = streak
        if shard_id in self._down or streak < self._probe_failure_threshold:
            return
        self._down.add(shard_id)
        self._auto_down[shard_id] = time.monotonic()
        self._auto_downs += 1
        self._epoch += 1
        self._emit_health_locked(shard_id, "down", streak)

    def _suspected(self, shard_id: Optional[str]) -> bool:
        """Has ``shard_id``'s failure streak reached F?  (``None``, the
        spill tier, never is.)

        The read path asks this once per hop without taking the routing
        lock: one dict lookup, and a stale answer costs at most one attempt
        on a shard that has just changed state.
        """
        return (
            self._consecutive_failures.get(shard_id, 0)
            >= self._probe_failure_threshold
        )

    def probe_shards(self, *, maintenance: bool = False) -> List[Tuple[str, str]]:
        """Run one probe pass; return the transitions it caused.

        Pings every backend with a cheap read.  A failing ping feeds the
        same consecutive-failure streak as real request outcomes (F
        failures auto-mark the shard down).  A successful ping resets the
        streak and — only for shards the *detector* took down, never for an
        operator's ``mark_down`` — marks the shard back up, once
        ``probe_transition_interval_seconds`` have passed since the down.
        Until then the mark-up is held (counted as a suppressed transition)
        and the streak stands, so the shard stays out of every read.

        ``maintenance=True`` is the pass :meth:`replicate` and
        :meth:`rebalance` open with.  They must converge on whatever the
        ring can *actually* serve, so a reachable shard comes back at once:
        a full-ring maintenance scan is a deliberate observation, not the
        request-driven flapping the interval exists to damp.
        """
        with self._lock:
            backends = dict(self._backends)
        transitions: List[Tuple[str, str]] = []
        for shard_id, backend in backends.items():
            try:
                backend.occupancy()
                reachable = True
            except Exception:
                reachable = False
            with self._lock:
                if self._backends.get(shard_id) is not backend:
                    continue  # removed (or replaced) while probing
                if not reachable:
                    if shard_id not in self._down:
                        self._note_shard_error_locked(shard_id)
                        if shard_id in self._down:
                            transitions.append((shard_id, "down"))
                    continue
                downed_at = self._auto_down.get(shard_id)
                if (
                    downed_at is not None
                    and not maintenance
                    and time.monotonic() - downed_at < self._probe_transition_interval
                ):
                    self._suppressed_transitions += 1
                    continue
                self._note_shard_success_locked(shard_id)
                if downed_at is not None:
                    self._down.discard(shard_id)
                    del self._auto_down[shard_id]
                    self._auto_ups += 1
                    self._epoch += 1
                    self._emit_health_locked(shard_id, "up", 0)
                    transitions.append((shard_id, "up"))
        return transitions

    def health_stats(self) -> Dict[str, Any]:
        """Return the failure detector's counters and per-shard streaks."""
        with self._lock:
            return {
                "failure_threshold": self._probe_failure_threshold,
                "transition_interval_seconds": self._probe_transition_interval,
                "auto_downs": self._auto_downs,
                "auto_ups": self._auto_ups,
                "suppressed_transitions": self._suppressed_transitions,
                "auto_down": sorted(self._auto_down),
                "consecutive_failures": {
                    shard_id: streak
                    for shard_id, streak in self._consecutive_failures.items()
                    if streak
                },
            }

    def replica_shards_for(self, key: str) -> List[str]:
        """Return the canonical R-successor placement of ``key`` (health-blind)."""
        with self._lock:
            return self._ring.successors(key, self._replicas)

    def _placement_locked(self, key: str) -> Tuple[List[str], List[str]]:
        """Return ``(live successors, down successors)`` in ring order."""
        order = self._ring.successors(key, len(self._backends))
        live = [sid for sid in order if sid not in self._down]
        down = [sid for sid in order if sid in self._down]
        return live, down

    def _cache_backend_for(self, dataset_id: str) -> DataStore:
        """Return the backend whose cache owns ``dataset_id``'s entries."""
        with self._lock:
            live, down = self._placement_locked(dataset_id)
            preferred = live[0] if live else down[0]
            return self._backends[preferred]

    def _version_floor(self, dataset_id: str) -> int:
        """Global version high-water mark, tolerant of failing shards.

        The backend scan skips unreachable shards, so it alone can go
        *backwards* during an outage: a quorum write sliding past the down
        canonical holders would mint the same version their hidden copies
        already carry, and after recovery the repair passes could not tell
        the two graphs apart.  Seeding the scan with the router's own
        high-water mark of acked writes and drops
        (``_known_version_floor``) keeps every new version strictly above
        every copy this router ever acknowledged, reachable or not.  The
        scan is also seeded with any in-flight upload reservation
        (:attr:`_version_reservations`), so a concurrent writer or drop
        mints strictly past a version another writer has already claimed
        but not yet landed.
        """
        floor = max(
            self._known_version_floor.get(dataset_id, 0),
            self._version_reservations.get(dataset_id, 0),
        )
        backends = list(self._backends.values())
        if self._spill is not None:
            backends.append(self._spill)
        for backend in backends:
            try:
                floor = max(floor, backend.dataset_version(dataset_id))
            except Exception:
                continue
        return floor

    # ------------------------------------------------------------------ #
    # replicated reads
    # ------------------------------------------------------------------ #
    def _route_read(self, key: str, operation, *, missed=None, versioned=False):
        """Read with failover: replicas in ring order, spill tier, full scan.

        The primary answers on the fast path.  A replica that raises a
        :class:`StorageError` simply does not hold the key (normal during
        migrations and after a spill); any other exception is an
        infrastructure failure and is counted against the shard.  Either way
        the next source is consulted: the remaining R-successors, the spill
        tier, then every other shard (bridging in-flight migrations, which
        run outside the routing lock precisely so reads keep flowing).
        ``missed`` covers readers that signal absence with a value
        (``has_*``, ``dataset_version``).

        A ``versioned`` read — every dataset read surface, whose
        ``operation`` answers ``(payload, version)`` — opens with the
        version-digest round (:meth:`_digest_round`) and then *withholds*
        any source answering below the round's target: the copy is counted
        as ``stale_reads_prevented``, the key is flagged for read-repair,
        and the walk moves on to the next source.  The version served
        raises the router's known floor, so the floor tracks reality even
        for datasets stored before this store started (or by a peer).

        Overload discipline: each source attempt runs under the shared
        retry policy (transient faults retry with jittered backoff, capped
        by the store-wide retry budget); a suspected shard (failure streak
        at F, :meth:`_suspected`) is skipped without touching the backend,
        even mid-read; and once the first source has been consulted, the
        caller's deadline (when one is installed via
        :func:`~.resilience.deadline_scope`) is checked before each further
        failover hop so an expired request stops burning replicas.

        When a telemetry span is ambient on the calling thread, the whole
        read is wrapped in a ``storage_read`` span with one
        ``replica_attempt`` child per consulted source; the digest round
        runs in the read span itself (annotated with ``digest_replicas``
        and ``version_target``), and failed digest polls and withheld
        copies land as events on it.
        """
        with child_span("storage_read", key=key) as read_span:
            with self._lock:
                # One hash of ``key`` gives the whole ring order; its first
                # entry is the primary.
                order = self._ring.successors(key, len(self._backends))
                live = [sid for sid in order if sid not in self._down]
                down = [sid for sid in order if sid in self._down]
                plan = [(sid, self._backends[sid]) for sid in live[: self._replicas]]
                tail = [
                    (sid, self._backends[sid])
                    for sid in live[self._replicas:] + down
                ]
            primary = order[0]
            target = self._digest_round(key, plan, read_span) if versioned else 0
            sources: List[Tuple[Optional[str], DataStore]] = list(plan)
            if self._spill is not None:
                sources.append((None, self._spill))
            sources.extend(tail)
            missing = object()
            fallback = missing
            first_error: Optional[BaseException] = None
            deadline = current_deadline()
            consulted = 0
            rejected = 0
            for shard_id, backend in sources:
                if consulted and deadline is not None and deadline.expired():
                    raise DeadlineExceededError(
                        f"deadline expired during read failover for {key!r} "
                        f"after {consulted} source(s)",
                        deadline_ms=deadline.deadline_ms,
                    )
                if self._suspected(shard_id):
                    continue
                consulted += 1
                try:
                    with child_span(
                        "replica_attempt",
                        shard=shard_id if shard_id is not None else "spill",
                    ):
                        value = self._retry_policy.run(
                            lambda backend=backend: operation(backend)
                        )
                except StorageError as exc:
                    if first_error is None:
                        first_error = exc
                    continue
                except DeadlineExceededError:
                    # The *caller's* clock ran out mid-attempt.  That is not
                    # a shard fault: re-raise without feeding the failure
                    # streak of a shard that did nothing wrong.
                    raise
                except Exception as exc:
                    if first_error is None:
                        first_error = exc
                    with self._lock:
                        self._note_shard_error_locked(shard_id)
                    continue
                if missed is not None and missed(value):
                    if fallback is missing:
                        fallback = value
                    continue
                if versioned and value[1] < target:
                    # A healthy source answered with a copy the caller must
                    # not see (below the digest round's target): withhold
                    # it, flag the key for repair and keep walking.
                    rejected += 1
                    with self._lock:
                        self._note_shard_success_locked(shard_id)
                        self._stale_reads_prevented += 1
                        enqueued = self._queue_read_repair_locked(key)
                    read_span.add_event(
                        "stale_skip",
                        shard=shard_id if shard_id is not None else "spill",
                    )
                    if enqueued:
                        self._kick_repair_launcher()
                    continue
                enqueued = False
                with self._lock:
                    self._note_shard_success_locked(shard_id)
                    if versioned:
                        floor = self._known_version_floor.get(key, 0)
                        self._known_version_floor[key] = max(floor, value[1])
                    if shard_id != primary:
                        # Answered by a replica, the spill tier or the scan —
                        # the canonical primary was down, erroring, or
                        # missing the key.  Flag the key for single-key
                        # read-repair so its R copies converge without
                        # waiting for a full replicate() scan.
                        self._failover_reads += 1
                        enqueued = self._queue_read_repair_locked(key)
                if shard_id != primary:
                    read_span.annotate(
                        failover=True,
                        served_by=shard_id if shard_id is not None else "spill",
                    )
                if enqueued:
                    self._kick_repair_launcher()
                return value
            if missed is not None and fallback is not missing:
                return fallback
            if rejected:
                raise StorageError(
                    f"every reachable copy of {key!r} is below the version "
                    f"floor the quorum established ({rejected} stale "
                    "answer(s) withheld)"
                )
            if isinstance(first_error, StorageError):
                raise first_error
            if first_error is not None:
                raise StorageError(
                    f"no shard could answer the read for {key!r}: {first_error}"
                ) from first_error
            raise StorageError(f"key {key!r} is not stored on any shard")

    @staticmethod
    def _held_version(backend: DataStore, dataset_id: str) -> int:
        """The version of the copy ``backend`` holds; ``0`` when it holds none.

        A backend's upload counter outlives its copy (``drop_dataset``
        raises it, so a spilled or migrated-away copy leaves a counter one
        past the real copies).  The counter is read first and presence
        second, so a copy dropped in between votes ``0``, never that
        phantom version.
        """
        version = backend.dataset_version(dataset_id)
        return version if backend.has_dataset(dataset_id) else 0

    def _digest_round(
        self, dataset_id: str, plan: Sequence[Tuple[str, DataStore]], read_span
    ) -> int:
        """Poll the ``plan`` (the live R-successors) for their version
        digests; return the read's version target.

        The digest is the cheapest question a replica can answer — the
        version of the copy it holds (:meth:`_held_version`) — polled under
        the same per-replica discipline as data reads: each poll runs under
        the shared retry policy, and the caller's deadline is checked
        between hops (the first successor is always consulted, mirroring
        the failover walk).  A suspected shard (:meth:`_suspected`) is
        marked down, so it is never in the plan.  A failed poll counts against
        the shard like a failed read; an answered one leaves its failure
        streak alone, because only the data path may vouch for a shard — a
        shard whose reads fail while its digests answer must still be
        marked down.

        The target is the maximum of the digests and the router's known
        version floor.  Holders at more than one version are resolved for
        the caller by serving the maximum, and the key is queued on the
        single-key read-repair queue so the replicas themselves converge.
        """
        deadline = current_deadline()
        held: List[int] = []
        answered = 0
        for index, (shard_id, backend) in enumerate(plan):
            if index and deadline is not None:
                deadline.raise_if_expired(
                    f"during the version-digest round for {dataset_id!r}"
                )
            # No span per poll: a recorded span costs several times the
            # poll itself, so the round runs in the read's own span.
            try:
                version = self._retry_policy.run(
                    lambda backend=backend: self._held_version(backend, dataset_id)
                )
            except DeadlineExceededError:
                raise  # the caller's clock, not a shard fault
            except StorageError:
                continue
            except Exception:
                with self._lock:
                    self._note_shard_error_locked(shard_id)
                read_span.add_event("digest_error", shard=shard_id)
                continue
            answered += 1
            if version > 0:
                held.append(version)
        enqueued = False
        with self._lock:
            self._digest_reads += 1
            target = max([self._known_version_floor.get(dataset_id, 0)] + held)
            if any(version < target for version in held):
                self._version_conflicts_resolved += 1
                enqueued = self._queue_read_repair_locked(dataset_id)
        if enqueued:
            self._kick_repair_launcher()
        read_span.annotate(digest_replicas=answered, version_target=target)
        return target

    def fetch_dataset(self, dataset_id: str) -> DirectedGraph:
        """Return the dataset graph (a versioned fetch, floor-checked)."""
        return self.fetch_dataset_with_version(dataset_id)[0]

    def fetch_dataset_with_version(self, dataset_id: str) -> Tuple[DirectedGraph, int]:
        """Return ``(graph, version)``, never below the version floor."""
        return self._route_read(
            dataset_id,
            lambda backend: backend.fetch_dataset_with_version(dataset_id),
            versioned=True,
        )

    def fetch_compiled_with_version(self, dataset_id: str) -> Tuple[CompiledGraph, int]:
        """Return ``(compiled artifact, version)``, compiled where the graph lives."""
        return self._route_read(
            dataset_id,
            lambda backend: backend.fetch_compiled_with_version(dataset_id),
            versioned=True,
        )

    def fetch_compiled(self, dataset_id: str) -> CompiledGraph:
        """Return the compiled artifact of a stored dataset."""
        return self.fetch_compiled_with_version(dataset_id)[0]

    def dataset_version(self, dataset_id: str) -> int:
        """Return the upload counter of a dataset (0 when no source holds it)."""
        return self._route_read(
            dataset_id,
            lambda backend: backend.dataset_version(dataset_id),
            missed=lambda version: version == 0,
        )

    def has_dataset(self, dataset_id: str) -> bool:
        """Return ``True`` if any source stores ``dataset_id``."""
        return self._route_read(
            dataset_id,
            lambda backend: backend.has_dataset(dataset_id),
            missed=lambda found: not found,
        )

    def get_result(self, result_id: str) -> dict:
        """Return a stored result payload."""
        return self._route_read(result_id, lambda backend: backend.get_result(result_id))

    def has_result(self, result_id: str) -> bool:
        """Return ``True`` if any source stores ``result_id``."""
        return self._route_read(
            result_id,
            lambda backend: backend.has_result(result_id),
            missed=lambda found: not found,
        )

    # ------------------------------------------------------------------ #
    # read-repair (single-key anti-entropy driven by failover reads)
    # ------------------------------------------------------------------ #
    def _queue_read_repair_locked(self, key: str) -> bool:
        """Flag ``key`` for repair; return whether it newly queued.

        The queue coalesces (a key already pending is not re-added) and is
        bounded — beyond the limit keys are dropped and counted, the next
        full :meth:`replicate` scan still catches them.
        """
        if key in self._repair_queued:
            return False
        if len(self._repair_queue) >= self._repair_limit:
            self._repair_dropped += 1
            return False
        self._repair_queue.append(key)
        self._repair_queued.add(key)
        return True

    def set_repair_launcher(self, launcher: Optional[Callable[[], None]]) -> None:
        """Install the callback invoked (outside the lock) when a key queues.

        The gateway points this at a coalesced background job running
        :meth:`drain_read_repairs`; without one the queue simply waits for
        an explicit drain or the next maintenance pass.
        """
        with self._lock:
            self._repair_launcher = launcher

    def _kick_repair_launcher(self) -> None:
        with self._lock:
            launcher = self._repair_launcher
        if launcher is None:
            return
        try:
            launcher()
        except Exception:
            pass  # repair scheduling is best-effort; the queue persists

    def pending_read_repairs(self) -> int:
        """Return how many keys are waiting on the read-repair queue."""
        with self._lock:
            return len(self._repair_queue)

    def drain_read_repairs(self, *, job: Optional[JobRecord] = None) -> Dict[str, int]:
        """Repair every queued key's R copies; return drain counts.

        Each key gets the same single-key treatment as a :meth:`replicate`
        scan item (dataset and result repair are both attempted — whichever
        matches the key is a no-op for the other).  Emits one ``progress``
        event per key, stops at key boundaries on cancellation, and a
        concurrent call returns immediately (one drain at a time).
        """
        with self._lock:
            if self._repair_draining:
                return {"repaired": 0, "drained": 0, "pending": len(self._repair_queue)}
            self._repair_draining = True
        repaired = 0
        drained = 0
        try:
            with self._topology_lock:
                total = self.pending_read_repairs()
                while not self._cancelled(job):
                    with self._lock:
                        if not self._repair_queue:
                            break
                        key = self._repair_queue.popleft()
                        self._repair_queued.discard(key)
                    repaired += self._ensure_dataset_replicas(key)
                    repaired += self._ensure_result_replicas(key)
                    drained += 1
                    self._progress(
                        job, "read-repair", key, drained, max(total, drained)
                    )
                if drained:
                    dataset_ids = self._ring_dataset_ids()
                    result_ids = self._ring_result_ids()
                    underreplicated = self._count_underreplicated(
                        dataset_ids, result_ids
                    )
                    with self._lock:
                        self._last_underreplicated = underreplicated
        finally:
            with self._lock:
                self._read_repairs += repaired
                self._repair_draining = False
                pending = len(self._repair_queue)
        return {"repaired": repaired, "drained": drained, "pending": pending}

    # ------------------------------------------------------------------ #
    # replicated writes
    # ------------------------------------------------------------------ #
    def store_dataset(self, dataset_id: str, graph: DirectedGraph) -> None:
        """Write a dataset to its R live ring successors, quorum-acknowledged.

        Every replica stores with the same global ``version_floor``, so all
        copies agree on the new upload version.  When a canonical replica is
        down or fails, the write slides to the next live successor (hinted
        handoff) — fewer than quorum acks raise :class:`StorageError` and the
        write is not acknowledged.  Copies on shards outside the acked set
        are purged (so every surviving copy is authoritative), and a
        spilled copy is superseded: a re-upload promotes the dataset back to
        the memory tier.

        The replica writes run *outside* the routing lock on the same
        epoch-validated scheme as results (:meth:`_replicated_write`), so a
        large upload persisting to a file-backed shard no longer serialises
        every other store operation.  If a topology change moves the
        dataset's replica set mid-write, the write repeats against the fresh
        owners (the version floor is re-read, so versions stay monotonic).

        Concurrent re-uploads of the same dataset are ordered by a
        CAS-style reservation taken under the routing lock: each writer
        mints a distinct version, each replica write supersedes only
        strictly older copies, and the losing writer's copies are purged
        as superseded — the replicas converge on the winner without
        waiting for a repair pass.
        """
        with child_span("storage_write", key=dataset_id, kind="dataset") as write_span:
            while True:
                with self._lock:
                    epoch = self._epoch
                    # CAS-style version reservation: the upload claims its
                    # version against the router's high-water mark (acked
                    # floor, reachable backend scan, and any reservation a
                    # concurrent writer already holds — ``_version_floor``
                    # folds all three in) under the routing lock, so two
                    # racing re-uploads of the same dataset always mint
                    # distinct, ordered versions even though the replica
                    # writes themselves run outside the lock.
                    floor = self._version_floor(dataset_id)
                    minted = floor + 1
                    self._version_reservations[dataset_id] = minted
                    live, _ = self._placement_locked(dataset_id)
                    plan = [(sid, self._backends[sid]) for sid in live]
                acked: List[Tuple[str, DataStore]] = []
                for shard_id, backend in plan:
                    if len(acked) == self._replicas:
                        break
                    def _store_one(backend=backend):
                        return backend.store_dataset(
                            dataset_id,
                            graph,
                            version_floor=floor,
                            supersede_below=minted,
                        )

                    try:
                        # The in-memory/file backends validate before mutating, so
                        # a failed attempt left no partial copy and the shared
                        # retry policy may safely re-send the whole write.
                        # ``supersede_below`` makes the send conditional: a
                        # replica already holding a concurrent re-upload's newer
                        # version refuses the overwrite, so the losing writer can
                        # never resurrect its older graph above the winner — the
                        # newer copy also satisfies this write's durability, so
                        # the refusal still counts as an ack.
                        with child_span("replica_write", shard=shard_id):
                            self._retry_policy.run(_store_one)
                        acked.append((shard_id, backend))
                    except Exception:
                        with self._lock:
                            self._note_shard_error_locked(shard_id)
                if len(acked) < self._quorum:
                    with self._lock:
                        # Nothing landed: release the reservation (unless a
                        # concurrent writer already reserved past it) so the
                        # failed write does not poison the version sequence
                        # with a version no replica holds.
                        if not acked and (
                            self._version_reservations.get(dataset_id) == minted
                        ):
                            del self._version_reservations[dataset_id]
                    raise StorageError(
                        f"dataset {dataset_id!r} write reached {len(acked)} of the "
                        f"{self._quorum} replica acks the quorum requires"
                    )
                write_span.annotate(acked=len(acked), quorum=self._quorum)
                with self._lock:
                    for shard_id, _ in acked:
                        self._note_shard_success_locked(shard_id)
                    if len(acked) < self._replicas:
                        self._degraded_writes += 1
                    settled = self._epoch == epoch
                    if not settled:
                        live, _ = self._placement_locked(dataset_id)
                        current_owners = {
                            self._backends[sid] for sid in live[: self._replicas]
                        }
                        settled = current_owners <= {backend for _, backend in acked}
                    if settled:
                        acked_ids = {sid for sid, _ in acked}
                        for shard_id, backend in self._backends.items():
                            if shard_id in acked_ids:
                                continue
                            if shard_id in self._down:
                                # A down shard takes no writes, purges included;
                                # a pre-outage copy it still holds is below the
                                # floor this write establishes, so the quorum
                                # read withholds it and the repair passes
                                # supersede it after recovery.
                                continue
                            try:
                                if backend.has_dataset(dataset_id) and (
                                    backend.dataset_version(dataset_id) < minted
                                ):
                                    # Purge only strictly-older copies: a shard
                                    # outside this write's acked set may already
                                    # hold a concurrent re-upload's newer version,
                                    # which must survive the losing writer's
                                    # cleanup.
                                    backend.drop_dataset(dataset_id)
                            except Exception:
                                self._note_shard_error_locked(shard_id)
                if not settled:
                    continue
                if self._spill is not None:
                    try:
                        if self._spill.has_dataset(dataset_id) and (
                            self._spill.dataset_version(dataset_id) < minted
                        ):
                            self._spill.drop_dataset(dataset_id)
                    except Exception:
                        pass
                with self._lock:
                    # Every acked replica holds at least ``minted``: that is now
                    # the caller-known version floor the digest round holds
                    # future reads to.
                    self._known_version_floor[dataset_id] = max(
                        self._known_version_floor.get(dataset_id, 0), minted
                    )
                    if self._version_reservations.get(dataset_id) == minted:
                        del self._version_reservations[dataset_id]
                    # The acked upload (strictly above any pending tombstone)
                    # supersedes an outstanding drop intent.
                    self._pending_drops.pop(dataset_id, None)
                return

    def put_result(self, result_id: str, payload: Mapping[str, object]) -> None:
        """Store a result on its R live successors with quorum acknowledgement."""
        self._replicated_write(
            result_id, lambda backend: backend.put_result(result_id, payload)
        )

    def _replicated_write(self, key: str, operation) -> None:
        """Write to R live successors outside the lock, epoch-validated.

        The optimistic scheme for IO-heavy writes (a result is a file on
        every shard with a directory): the plan is snapshotted under the lock,
        the writes run outside it, and if a topology change moved the key's
        replica set underneath, the write is repeated against the fresh
        owners (results are written once per id, so a duplicate send is
        idempotent).
        """
        with child_span("storage_write", key=key, kind="result") as write_span:
            while True:
                with self._lock:
                    epoch = self._epoch
                    live, _ = self._placement_locked(key)
                    plan = [(sid, self._backends[sid]) for sid in live]
                acked: List[Tuple[str, DataStore]] = []
                for shard_id, backend in plan:
                    if len(acked) == self._replicas:
                        break
                    try:
                        with child_span("replica_write", shard=shard_id):
                            self._retry_policy.run(
                                lambda backend=backend: operation(backend)
                            )
                        acked.append((shard_id, backend))
                    except Exception:
                        with self._lock:
                            self._note_shard_error_locked(shard_id)
                if len(acked) < self._quorum:
                    raise StorageError(
                        f"write of {key!r} reached {len(acked)} of the "
                        f"{self._quorum} replica acks the quorum requires"
                    )
                write_span.annotate(acked=len(acked), quorum=self._quorum)
                with self._lock:
                    for shard_id, _ in acked:
                        self._note_shard_success_locked(shard_id)
                    if len(acked) < self._replicas:
                        self._degraded_writes += 1
                    if self._epoch == epoch:
                        return
                    live, _ = self._placement_locked(key)
                    current_owners = {
                        self._backends[sid] for sid in live[: self._replicas]
                    }
                    if current_owners <= {backend for _, backend in acked}:
                        return

    # ------------------------------------------------------------------ #
    # tolerant fan-out surfaces
    # ------------------------------------------------------------------ #
    def _tolerant_union(self, lister) -> List[str]:
        identifiers: set = set()
        for shard_id, backend in self.shard_stores().items():
            try:
                identifiers.update(lister(backend))
            except Exception:
                with self._lock:
                    self._note_shard_error_locked(shard_id)
        if self._spill is not None:
            try:
                identifiers.update(lister(self._spill))
            except Exception:
                pass
        return sorted(identifiers)

    def list_datasets(self) -> List[str]:
        """Dataset ids across every shard and the spill tier (deduplicated)."""
        return self._tolerant_union(lambda backend: backend.list_datasets())

    def list_results(self) -> List[str]:
        """Result ids across every shard and the spill tier (deduplicated)."""
        return self._tolerant_union(lambda backend: backend.list_results())

    def drop_dataset(self, dataset_id: str) -> None:
        """Delete a dataset everywhere by writing versioned tombstones.

        The R live ring successors each record a tombstone one version past
        the global high-water mark (sliding past failing shards exactly like
        a hinted-handoff write); any other shard still holding a copy is
        tombstoned too, and the spill copy is dropped.  A copy on an
        unreachable shard is no longer a resurrection hazard: the repair
        passes treat the tombstone as authoritative over every copy at or
        below its version, and reap it once all R replicas acknowledged the
        delete with the whole ring reachable.  Like the base drop, this
        never raises — a totally unreachable ring simply leaves the data
        for a later retry.
        """
        with self._lock:
            version = self._version_floor(dataset_id) + 1
            # The deletion is itself a version-bearing write: remembering it
            # as the floor keeps a re-upload during the same outage strictly
            # above the tombstone, so repair can never mistake the fresh
            # copy for resurrected pre-deletion data.  The pending-drop
            # entry lets the repair passes finish a delete whose tombstones
            # never reached a single backend.
            self._known_version_floor[dataset_id] = version
            self._pending_drops[dataset_id] = version
            live, _ = self._placement_locked(dataset_id)
            acked = 0
            processed: set = set()
            for shard_id in live:
                if acked == self._replicas:
                    break
                processed.add(shard_id)
                try:
                    self._backends[shard_id].set_dataset_tombstone(
                        dataset_id, version
                    )
                    acked += 1
                except Exception:
                    self._note_shard_error_locked(shard_id)
            if acked:
                self._tombstones_written += 1
            for shard_id, backend in self._backends.items():
                if shard_id in processed:
                    continue
                try:
                    if backend.has_dataset(dataset_id):
                        backend.set_dataset_tombstone(dataset_id, version)
                except Exception:
                    self._note_shard_error_locked(shard_id)
        if self._spill is not None:
            try:
                if self._spill.has_dataset(dataset_id):
                    self._spill.drop_dataset(dataset_id)
            except Exception:
                pass

    def drop_result(self, result_id: str) -> None:
        """Delete a result everywhere by writing tombstones.

        Results are written once per id, so the tombstone needs no version:
        its presence kills the single write it shadows.  Placement and
        reaping mirror :meth:`drop_dataset`.
        """
        with self._lock:
            live, _ = self._placement_locked(result_id)
            acked = 0
            processed: set = set()
            for shard_id in live:
                if acked == self._replicas:
                    break
                processed.add(shard_id)
                try:
                    self._backends[shard_id].set_result_tombstone(result_id)
                    acked += 1
                except Exception:
                    self._note_shard_error_locked(shard_id)
            if acked:
                self._tombstones_written += 1
            for shard_id, backend in self._backends.items():
                if shard_id in processed:
                    continue
                try:
                    if backend.has_result(result_id):
                        backend.set_result_tombstone(result_id)
                except Exception:
                    self._note_shard_error_locked(shard_id)
        if self._spill is not None:
            try:
                self._spill.drop_result(result_id)
            except Exception:
                pass

    # ------------------------------------------------------------------ #
    # compiled-artifact counters and occupancy
    # ------------------------------------------------------------------ #
    #: Counter keys summed across shards by :meth:`artifact_stats`.
    _ARTIFACT_COUNTER_KEYS = ("compiled", "hits", "misses", "invalidations")

    def artifact_stats(self) -> Dict[str, Any]:
        """Return aggregated artifact counters plus the per-shard breakdown.

        An unreachable shard becomes an ``{"error": ...}`` entry, excluded
        from the sums, mirroring the cache view's :meth:`~ReplicatedResultCache.stats`.
        """
        per_shard: Dict[str, Any] = {}
        for shard_id, backend in self.shard_stores().items():
            try:
                per_shard[shard_id] = backend.artifact_stats()
            except Exception as exc:
                per_shard[shard_id] = {"error": str(exc)}
        healthy = [stats for stats in per_shard.values() if "error" not in stats]
        aggregated: Dict[str, Any] = {
            key: sum(stats[key] for stats in healthy)
            for key in self._ARTIFACT_COUNTER_KEYS
        }
        total = aggregated["hits"] + aggregated["misses"]
        aggregated["hit_rate"] = (aggregated["hits"] / total) if total else 0.0
        aggregated["shards"] = per_shard
        return aggregated

    def occupancy(self) -> Dict[str, int]:
        """Summed occupancy across reachable shards (the spill tier reports
        separately through :meth:`spill_stats`)."""
        totals: Dict[str, int] = {}
        for shard_id, backend in self.shard_stores().items():
            try:
                for key, value in backend.occupancy().items():
                    totals[key] = totals.get(key, 0) + value
            except Exception:
                with self._lock:
                    self._note_shard_error_locked(shard_id)
        return totals

    # ------------------------------------------------------------------ #
    # maintenance migrations (run inline or as cancellable jobs)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _cancelled(job: Optional[JobRecord]) -> bool:
        return job is not None and job.cancel_requested

    @staticmethod
    def _progress(
        job: Optional[JobRecord], kind: str, item: str, completed: int, total: int
    ) -> None:
        if job is not None:
            job.append(
                "progress", kind=kind, item=item, completed=completed, total=total
            )

    def _ring_ids(self, lister) -> List[str]:
        """Union of ids over the ring shards only (the spill tier excluded)."""
        identifiers: set = set()
        with self._lock:
            backends = dict(self._backends)
        for shard_id, backend in backends.items():
            try:
                identifiers.update(lister(backend))
            except Exception:
                with self._lock:
                    self._note_shard_error_locked(shard_id)
        return sorted(identifiers)

    def _ring_dataset_ids(self) -> List[str]:
        """Ring-resident dataset ids plus tombstone-only ids.

        Including ids whose every copy is already gone keeps their
        tombstones propagating and reaping through the normal repair scan.
        """
        identifiers = set(self._ring_ids(lambda backend: backend.list_datasets()))
        identifiers.update(
            self._ring_ids(
                lambda backend: list(backend.list_dataset_tombstones())
            )
        )
        return sorted(identifiers)

    def _ring_result_ids(self) -> List[str]:
        """Ring-resident result ids plus tombstone-only ids."""
        identifiers = set(self._ring_ids(lambda backend: backend.list_results()))
        identifiers.update(
            self._ring_ids(lambda backend: backend.list_result_tombstones())
        )
        return sorted(identifiers)

    def replicate(self, *, job: Optional[JobRecord] = None) -> Dict[str, int]:
        """Restore R copies of every dataset and result; return repair counts.

        The pass opens by reconciling shard health against reality (one
        maintenance probe pass, :meth:`probe_shards`: recovered auto-down
        shards come back up at once and their streaks reset), then
        scans the ring, copies each under-replicated key from its freshest
        reachable holder onto the live successors missing it, and records how
        many keys remain under-replicated (the replication lag reported by
        :meth:`replication_stats`).  Emits one ``progress`` event per key on
        ``job`` and stops at the next key boundary once the job's
        cancellation flag is raised.
        """
        repaired_datasets = 0
        repaired_results = 0
        with self._topology_lock:
            self.probe_shards(maintenance=True)
            dataset_ids = self._ring_dataset_ids()
            result_ids = self._ring_result_ids()
            total = len(dataset_ids) + len(result_ids)
            done = 0
            for dataset_id in dataset_ids:
                if self._cancelled(job):
                    break
                repaired_datasets += self._ensure_dataset_replicas(dataset_id)
                done += 1
                self._progress(job, "replicate", dataset_id, done, total)
            for result_id in result_ids:
                if self._cancelled(job):
                    break
                repaired_results += self._ensure_result_replicas(result_id)
                done += 1
                self._progress(job, "replicate", result_id, done, total)
            underreplicated = self._count_underreplicated(dataset_ids, result_ids)
        with self._lock:
            self._repairs += repaired_datasets + repaired_results
            self._last_underreplicated = underreplicated
        return {
            "datasets_repaired": repaired_datasets,
            "results_repaired": repaired_results,
            "underreplicated": underreplicated,
        }

    def _ensure_dataset_replicas(self, dataset_id: str) -> int:
        """Copy a dataset onto the live successors missing it; return copies made.

        Tombstones first: when the highest tombstone version on any shard
        meets or beats every live copy, the *delete* is the authoritative
        write — remaining copies are purged, the tombstone propagates to
        all R targets, and once every target acknowledged it with the whole
        ring reachable the tombstone is reaped.  A live copy strictly newer
        than the tombstone means a re-upload won the race: the stale
        tombstones are cleared and normal copy repair proceeds.

        Every repaired copy must land at the *same* version as its siblings
        (the all-replicas-agree invariant version-quorum reads depend on).
        A target whose own counter is still below the authoritative version
        stores with ``version_floor = version - 1`` and lands exactly on it;
        a target whose counter already moved past it (drops of stray copies
        bump counters without a global write) would land *above* — so when
        that happens the achieved version becomes the new target and the
        other replicas are re-stored up to it, converging in a second pass
        instead of leaving the copies divergent (and instead of every later
        repair scan re-copying forever).
        """
        with self._lock:
            live, _ = self._placement_locked(dataset_id)
            targets = live[: self._replicas]
            holders: Dict[str, int] = {}
            tombstones: Dict[str, int] = {}
            unreachable = False
            for shard_id, backend in self._backends.items():
                try:
                    marker = backend.dataset_tombstone(dataset_id)
                    if marker:
                        tombstones[shard_id] = marker
                    if backend.has_dataset(dataset_id):
                        holders[shard_id] = backend.dataset_version(dataset_id)
                except Exception:
                    unreachable = True
                    continue
            # The router's own drop intent counts as one more tombstone
            # source: a delete issued while every successor was down left
            # no marker on any backend, and this is where it is completed.
            tomb = max(
                max(tombstones.values(), default=0),
                self._pending_drops.get(dataset_id, 0),
            )
            if tomb and max(holders.values(), default=0) <= tomb:
                return self._settle_dataset_tombstone_locked(
                    dataset_id, tomb, holders, targets, unreachable
                )
            if tomb:
                # A write newer than the delete exists somewhere: the
                # tombstone lost the race and must stop shadowing repairs.
                self._pending_drops.pop(dataset_id, None)
                for shard_id in tombstones:
                    try:
                        self._backends[shard_id].clear_dataset_tombstone(dataset_id)
                    except Exception:
                        continue
            if not holders:
                return 0
            best = max(holders, key=lambda shard_id: holders[shard_id])
            spilled = 0
            if self._spill is not None:
                try:
                    if self._spill.has_dataset(dataset_id):
                        spilled = self._spill.dataset_version(dataset_id)
                except Exception:
                    pass
            floor = max(spilled, self._known_version_floor.get(dataset_id, 0))
            if holders[best] < floor:
                # Every reachable ring copy is below the acked floor: copying
                # one would re-mint superseded data above the real copy (a
                # target's counter may already sit past it).  Copies below a
                # newer spilled copy are leftovers of the spill and are
                # purged; otherwise the repair waits for the floor's holder.
                purged = 0
                for shard_id, version in holders.items():
                    if version >= spilled:
                        continue
                    try:
                        self._backends[shard_id].drop_dataset(dataset_id)
                        purged += 1
                    except Exception:
                        self._note_shard_error_locked(shard_id)
                return purged
            if all(holders.get(shard_id) == holders[best] for shard_id in targets):
                return 0  # fully replicated and version-aligned: nothing to fetch
            try:
                graph, version = self._backends[best].fetch_dataset_with_version(
                    dataset_id
                )
            except Exception:
                self._note_shard_error_locked(best)
                return 0
            repaired = 0
            stable = False
            while not stable:
                stable = True
                for shard_id in targets:
                    if holders.get(shard_id) == version:
                        continue
                    backend = self._backends[shard_id]
                    try:
                        backend.store_dataset(
                            dataset_id, graph, version_floor=version - 1
                        )
                        achieved = backend.dataset_version(dataset_id)
                        holders[shard_id] = achieved
                        repaired += 1
                    except Exception:
                        self._note_shard_error_locked(shard_id)
                        continue
                    if achieved > version:
                        # This target's counter had moved past the
                        # authoritative version: pull the siblings up to the
                        # achieved one on the next pass.
                        version = achieved
                        stable = False
            return repaired

    def _settle_dataset_tombstone_locked(
        self,
        dataset_id: str,
        version: int,
        holders: Dict[str, int],
        targets: Sequence[str],
        unreachable: bool,
    ) -> int:
        """Enforce an authoritative tombstone: purge, propagate, maybe reap.

        Returns the number of copies purged (they count as repair work).
        The tombstone is reaped — cleared from every shard — only when all
        R targets acknowledged it *and* no backend was unreachable during
        the scan, so a sleeping shard's stale copy can never outlive the
        marker that kills it.
        """
        purged = 0
        acked = 0
        for shard_id in targets:
            try:
                self._backends[shard_id].set_dataset_tombstone(dataset_id, version)
                if shard_id in holders:
                    purged += 1
                acked += 1
            except Exception:
                unreachable = True
                self._note_shard_error_locked(shard_id)
        for shard_id in holders:
            if shard_id in targets:
                continue
            try:
                self._backends[shard_id].set_dataset_tombstone(dataset_id, version)
                purged += 1
            except Exception:
                unreachable = True
                self._note_shard_error_locked(shard_id)
        if self._spill is not None:
            try:
                if (
                    self._spill.has_dataset(dataset_id)
                    and self._spill.dataset_version(dataset_id) <= version
                ):
                    self._spill.drop_dataset(dataset_id)
                    purged += 1
            except Exception:
                unreachable = True
        if not unreachable and acked == len(targets):
            # Every target durably carries the marker, so the router's own
            # drop intent has been completed and can be forgotten.
            self._pending_drops.pop(dataset_id, None)
            reaped = True
            for backend in self._backends.values():
                try:
                    backend.clear_dataset_tombstone(dataset_id)
                except Exception:
                    reaped = False
            if reaped:
                self._tombstones_reaped += 1
        return purged

    def _ensure_result_replicas(self, result_id: str) -> int:
        """Copy a result onto the live successors missing it; return copies made.

        A result tombstone anywhere wins unconditionally (results are
        written once per id, so a delete can never race a newer write):
        holders are purged, the marker propagates to the R targets and is
        reaped under the same all-acked-and-reachable rule as datasets.
        """
        with self._lock:
            live, _ = self._placement_locked(result_id)
            targets = live[: self._replicas]
            holders: List[str] = []
            tombstoned = False
            unreachable = False
            for shard_id, backend in self._backends.items():
                try:
                    if backend.has_result_tombstone(result_id):
                        tombstoned = True
                    if backend.has_result(result_id):
                        holders.append(shard_id)
                except Exception:
                    unreachable = True
                    continue
            if tombstoned:
                purged = 0
                acked = 0
                for shard_id in targets:
                    try:
                        self._backends[shard_id].set_result_tombstone(result_id)
                        if shard_id in holders:
                            purged += 1
                        acked += 1
                    except Exception:
                        unreachable = True
                        self._note_shard_error_locked(shard_id)
                for shard_id in holders:
                    if shard_id in targets:
                        continue
                    try:
                        self._backends[shard_id].set_result_tombstone(result_id)
                        purged += 1
                    except Exception:
                        unreachable = True
                        self._note_shard_error_locked(shard_id)
                if self._spill is not None:
                    try:
                        self._spill.drop_result(result_id)
                    except Exception:
                        unreachable = True
                if not unreachable and acked == len(targets):
                    reaped = True
                    for backend in self._backends.values():
                        try:
                            backend.clear_result_tombstone(result_id)
                        except Exception:
                            reaped = False
                    if reaped:
                        self._tombstones_reaped += 1
                return purged
            if not holders:
                return 0
            payload: Optional[dict] = None
            repaired = 0
            for shard_id in targets:
                if shard_id in holders:
                    continue
                if payload is None:
                    try:
                        payload = self._backends[holders[0]].get_result(result_id)
                    except Exception:
                        # One erroring holder must not abort the whole repair
                        # scan; the key stays under-replicated until the next
                        # pass finds a healthy copy.
                        self._note_shard_error_locked(holders[0])
                        return repaired
                try:
                    self._backends[shard_id].put_result(result_id, payload)
                    repaired += 1
                except Exception:
                    self._note_shard_error_locked(shard_id)
            return repaired

    def _count_underreplicated(
        self, dataset_ids: Sequence[str], result_ids: Sequence[str]
    ) -> int:
        """Count keys with fewer live copies than the topology can hold."""
        lagging = 0
        with self._lock:
            live_shards = [sid for sid in self._backends if sid not in self._down]
            wanted = min(self._replicas, len(live_shards))
            for dataset_id in dataset_ids:
                copies = 0
                for shard_id in live_shards:
                    try:
                        if self._backends[shard_id].has_dataset(dataset_id):
                            copies += 1
                    except Exception:
                        continue
                if 0 < copies < wanted:
                    lagging += 1
            for result_id in result_ids:
                copies = 0
                for shard_id in live_shards:
                    try:
                        if self._backends[shard_id].has_result(result_id):
                            copies += 1
                    except Exception:
                        continue
                if 0 < copies < wanted:
                    lagging += 1
        return lagging

    def resident_bytes_by_dataset(self) -> Dict[str, int]:
        """Estimated memory cost per ring-resident dataset, summed over its
        replica copies (file-backed shards report zero — their graphs live
        on disk)."""
        totals: Dict[str, int] = {}
        with self._lock:
            backends = list(self._backends.values())
        for backend in backends:
            try:
                for dataset_id, size in backend.resident_bytes_by_dataset().items():
                    totals[dataset_id] = totals.get(dataset_id, 0) + size
            except Exception:
                continue
        return totals

    def resident_dataset_bytes(self) -> int:
        """Total estimated bytes of graph data held in memory on the ring —
        the quantity :meth:`spill` with ``max_resident_bytes`` keeps under
        budget (and the gateway's automatic spill policy watches)."""
        return sum(self.resident_bytes_by_dataset().values())

    def spill(
        self,
        *,
        max_resident: Optional[int] = None,
        max_resident_bytes: Optional[int] = None,
        dataset_ids: Optional[Sequence[str]] = None,
        job: Optional[JobRecord] = None,
    ) -> List[str]:
        """Demote cold datasets from the memory shards to the file tier.

        Provide exactly one selection policy: ``max_resident`` keeps at most
        that many datasets on the ring (the coldest ones — least recently
        stored/fetched on any shard — spill first), ``max_resident_bytes``
        spills coldest-first until the estimated resident graph bytes fit
        the budget (the policy behind ``ApiGateway(spill_budget_bytes=…)``),
        or ``dataset_ids`` names the victims explicitly.  A spilled dataset
        keeps its upload version and its content (so its cached rankings
        still hit), loses its ring copies and compiled artifacts, and is
        served through read failover until a re-upload promotes it back.  Returns
        the spilled ids.
        """
        if self._spill is None:
            raise InvalidParameterError(
                "no spill tier is configured; construct the store with spill_dir="
            )
        policies = [
            policy
            for policy in (max_resident, max_resident_bytes, dataset_ids)
            if policy is not None
        ]
        if len(policies) != 1:
            raise InvalidParameterError(
                "provide exactly one of `max_resident`, `max_resident_bytes` "
                "or `dataset_ids`"
            )
        with self._topology_lock:
            resident = self._ring_ids(lambda backend: backend.list_datasets())
            if dataset_ids is not None:
                resident_set = set(resident)
                victims = [did for did in dataset_ids if did in resident_set]
            elif max_resident_bytes is not None:
                if max_resident_bytes < 0:
                    raise InvalidParameterError(
                        f"max_resident_bytes must be >= 0, got {max_resident_bytes}"
                    )
                sizes = self.resident_bytes_by_dataset()
                total = sum(sizes.get(did, 0) for did in resident)
                victims = []
                if total > max_resident_bytes:
                    for dataset_id in sorted(resident, key=self._dataset_coldness):
                        victims.append(dataset_id)
                        total -= sizes.get(dataset_id, 0)
                        if total <= max_resident_bytes:
                            break
            else:
                if max_resident < 0:
                    raise InvalidParameterError(
                        f"max_resident must be >= 0, got {max_resident}"
                    )
                excess = len(resident) - max_resident
                if excess <= 0:
                    victims = []
                else:
                    victims = sorted(resident, key=self._dataset_coldness)[:excess]
            spilled: List[str] = []
            for index, dataset_id in enumerate(victims):
                if self._cancelled(job):
                    break
                try:
                    if self._spill_one(dataset_id):
                        spilled.append(dataset_id)
                except Exception:
                    # A victim whose holder (or the spill write) errors is
                    # skipped — it stays resident and the remaining victims
                    # still demote, mirroring replicate()'s per-item
                    # fault tolerance.
                    pass
                self._progress(job, "spill", dataset_id, index + 1, len(victims))
        with self._lock:
            self._spills += len(spilled)
        return spilled

    def _dataset_coldness(self, dataset_id: str) -> float:
        """Return the newest access stamp any shard holds (0.0 = coldest)."""
        newest = 0.0
        with self._lock:
            backends = list(self._backends.values())
        for backend in backends:
            try:
                newest = max(newest, backend.dataset_last_access(dataset_id))
            except Exception:
                continue
        return newest

    def _spill_one(self, dataset_id: str) -> bool:
        """Move one dataset to the spill tier (version preserved)."""
        with self._lock:
            holders: Dict[str, int] = {}
            for shard_id, backend in self._backends.items():
                try:
                    if backend.has_dataset(dataset_id):
                        holders[shard_id] = backend.dataset_version(dataset_id)
                except Exception:
                    continue
            if not holders:
                return False
            best = max(holders, key=lambda shard_id: holders[shard_id])
            graph, version = self._backends[best].fetch_dataset_with_version(dataset_id)
            self._spill.store_dataset(dataset_id, graph, version_floor=version - 1)
            for shard_id in holders:
                try:
                    self._backends[shard_id].drop_dataset(dataset_id)
                except Exception:
                    self._note_shard_error_locked(shard_id)
            return True

    def rebalance(self, *, job: Optional[JobRecord] = None) -> List[str]:
        """Restore canonical placement *and* R copies after topology changes.

        For every ring-resident dataset and result: ensure the R live
        successors hold a copy, then drop stray copies from shards outside
        the replica set (only once the replica set is fully populated, so a
        partial repair never reduces the copy count).  Emits ``progress``
        events and honours cancellation exactly like :meth:`replicate`.
        """
        moved: List[str] = []
        with self._topology_lock:
            self.probe_shards(maintenance=True)
            dataset_ids = self._ring_dataset_ids()
            result_ids = self._ring_result_ids()
            total = len(dataset_ids) + len(result_ids)
            done = 0
            for dataset_id in dataset_ids:
                if self._cancelled(job):
                    break
                if self._rebalance_dataset(dataset_id):
                    moved.append(dataset_id)
                done += 1
                self._progress(job, "rebalance", dataset_id, done, total)
            for result_id in result_ids:
                if self._cancelled(job):
                    break
                self._rebalance_result(result_id)
                done += 1
                self._progress(job, "rebalance", result_id, done, total)
            with self._lock:
                self._rebalances += 1
                self._datasets_migrated += len(moved)
                self._epoch += 1
        return moved

    def _rebalance_dataset(self, dataset_id: str) -> bool:
        """Ensure replicas then drop strays for one dataset; return whether
        anything moved."""
        copied = self._ensure_dataset_replicas(dataset_id)
        dropped = 0
        with self._lock:
            live, _ = self._placement_locked(dataset_id)
            targets = set(live[: self._replicas])
            holding_targets = 0
            for shard_id in targets:
                try:
                    if self._backends[shard_id].has_dataset(dataset_id):
                        holding_targets += 1
                except Exception:
                    continue
            if holding_targets >= min(self._replicas, len(live) or 1):
                for shard_id, backend in self._backends.items():
                    if shard_id in targets:
                        continue
                    try:
                        if backend.has_dataset(dataset_id):
                            backend.drop_dataset(dataset_id)
                            dropped += 1
                    except Exception:
                        self._note_shard_error_locked(shard_id)
        return bool(copied or dropped)

    def _rebalance_result(self, result_id: str) -> None:
        self._ensure_result_replicas(result_id)
        with self._lock:
            live, _ = self._placement_locked(result_id)
            targets = set(live[: self._replicas])
            holding_targets = 0
            for shard_id in targets:
                try:
                    if self._backends[shard_id].has_result(result_id):
                        holding_targets += 1
                except Exception:
                    continue
            if holding_targets >= min(self._replicas, len(live) or 1):
                for shard_id, backend in self._backends.items():
                    if shard_id in targets:
                        continue
                    try:
                        backend.drop_result(result_id)
                    except Exception:
                        self._note_shard_error_locked(shard_id)

    def remove_shard(self, shard_id: str) -> List[str]:
        """Remove a shard: take it off the ring, re-replicate, then unlink.

        The replication-aware rebalance restores R copies and canonical
        placement among the survivors.  The backend is unlinked only once
        every dataset, result and tombstone it holds has a copy on a
        remaining shard (see :meth:`_stranded_on`); otherwise, or if the
        pass itself raises, the shard is rolled back onto the ring and the
        removal raises :class:`StorageError` — it never drops the only copy
        of a key.  Keys that moved before a rollback stay readable through
        read failover until the next :meth:`rebalance` restores canonical
        placement.  Returns the migrated dataset ids.
        """
        with self._topology_lock:
            with self._lock:
                if shard_id not in self._backends:
                    raise InvalidParameterError(f"shard {shard_id!r} does not exist")
                if len(self._backends) == 1:
                    raise InvalidParameterError("cannot remove the last shard")
                if len(self._backends) - 1 < self._replicas:
                    raise InvalidParameterError(
                        f"cannot remove shard {shard_id!r}: {self._replicas} replicas "
                        f"need at least {self._replicas} shards"
                    )
                leaving = self._backends[shard_id]
                self._ring.remove_shard(shard_id)
                self._epoch += 1
            try:
                moved = []
                for dataset_id in self._ring_dataset_ids():
                    if self._rebalance_dataset(dataset_id):
                        moved.append(dataset_id)
                for result_id in self._ring_result_ids():
                    self._rebalance_result(result_id)
                stranded = self._stranded_on(shard_id, leaving)
                if stranded:
                    raise StorageError(
                        f"cannot remove shard {shard_id!r}: {len(stranded)} key(s) "
                        f"have no copy on the remaining shards "
                        f"(first: {stranded[0]!r})"
                    )
            except BaseException:
                with self._lock:
                    self._ring.add_shard(shard_id)
                    self._epoch += 1
                raise
            with self._lock:
                del self._backends[shard_id]
                self._down.discard(shard_id)
                self._auto_down.pop(shard_id, None)
                self._consecutive_failures.pop(shard_id, None)
                self._shard_errors.pop(shard_id, None)
                self._epoch += 1
                self._datasets_migrated += len(moved)
            return moved

    def _stranded_on(self, shard_id: str, leaving: DataStore) -> List[str]:
        """Return the keys whose only copy is on the leaving backend.

        A dataset (or dataset tombstone) counts as copied only when another
        shard holds it at the same or a newer version.  Results and result
        tombstones are written once per id, so presence suffices.  A leaving
        backend that cannot even be listed reports nothing: its data is
        unreachable already, and removing a dead shard is how an operator
        replaces it.
        """
        with self._lock:
            others = [
                backend for other_id, backend in self._backends.items()
                if other_id != shard_id
            ]

        def copied(probe) -> bool:
            for backend in others:
                try:
                    if probe(backend):
                        return True
                except Exception:
                    continue
            return False

        try:
            datasets = {
                dataset_id: leaving.dataset_version(dataset_id)
                for dataset_id in leaving.list_datasets()
            }
            dataset_tombstones = leaving.list_dataset_tombstones()
            results = leaving.list_results()
            result_tombstones = leaving.list_result_tombstones()
        except Exception:
            return []
        stranded = [
            dataset_id
            for dataset_id, version in datasets.items()
            if not copied(
                lambda backend: backend.has_dataset(dataset_id)
                and backend.dataset_version(dataset_id) >= version
            )
        ]
        stranded += [
            dataset_id
            for dataset_id, version in dataset_tombstones.items()
            if not copied(
                lambda backend: backend.dataset_tombstone(dataset_id) >= version
            )
        ]
        stranded += [
            result_id
            for result_id in results
            if not copied(lambda backend: backend.has_result(result_id))
        ]
        stranded += [
            result_id
            for result_id in result_tombstones
            if not copied(lambda backend: backend.has_result_tombstone(result_id))
        ]
        return stranded

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def replication_stats(self) -> Dict[str, Any]:
        """Return the replication health counters.

        ``underreplicated`` is the lag measured by the most recent
        :meth:`replicate` or :meth:`drain_read_repairs` scan (``None``
        before the first one); ``degraded_writes`` counts writes acked
        below full replication and ``failover_reads`` reads answered by a
        non-primary source.  ``stale_reads_prevented`` counts below-floor
        copies a read met and withheld, ``digest_reads`` counts digest
        rounds and ``version_conflicts_resolved`` the replica version
        divergences a digest round discovered and flagged for repair.  The anti-entropy counters sit alongside:
        read-repair queue depth and totals, tombstone writes/reaps, and the
        failure detector's transition counts (see :meth:`health_stats` for
        its per-shard detail).
        """
        with self._lock:
            return {
                "replicas": self._replicas,
                "quorum": self._quorum,
                "failover_reads": self._failover_reads,
                "digest_reads": self._digest_reads,
                "stale_reads_prevented": self._stale_reads_prevented,
                "version_conflicts_resolved": self._version_conflicts_resolved,
                "degraded_writes": self._degraded_writes,
                "repairs": self._repairs,
                "read_repairs": self._read_repairs,
                "repair_queue": len(self._repair_queue),
                "repair_dropped": self._repair_dropped,
                "tombstones_written": self._tombstones_written,
                "tombstones_reaped": self._tombstones_reaped,
                "auto_downs": self._auto_downs,
                "auto_ups": self._auto_ups,
                "suppressed_transitions": self._suppressed_transitions,
                "marked_down": sorted(self._down),
                "auto_down": sorted(self._auto_down),
                "shard_errors": dict(self._shard_errors),
                "underreplicated": self._last_underreplicated,
                "retries": self._retry_policy.stats(),
            }

    def spill_stats(self) -> Dict[str, Any]:
        """Return the spill-tier occupancy (``{"enabled": False}`` without one)."""
        if self._spill is None:
            return {"enabled": False}
        with self._lock:
            spills = self._spills
        try:
            occupancy = self._spill.occupancy()
        except Exception as exc:
            return {"enabled": True, "spills": spills, "error": str(exc)}
        return {
            "enabled": True,
            "spills": spills,
            "spilled_datasets": occupancy.get("datasets", 0),
            "occupancy": occupancy,
            "resident_bytes": self.resident_dataset_bytes(),
        }

    def shard_stats(self) -> Dict[str, Any]:
        """Return the shard topology with per-shard health and occupancy.

        This is the ``"shards"`` section of ``platform_stats()`` /
        ``GET /api/stats``: ring shape, per-shard occupancy plus result-cache
        and artifact hit rates, then replication health, spill occupancy and
        the failure detector's state.  A shard whose backend fails its stats
        probe, or is marked down, is reported unhealthy instead of failing
        the whole snapshot.
        """
        with self._lock:
            virtual_nodes = self._ring.virtual_nodes
            rebalances = self._rebalances
            migrated = self._datasets_migrated
            down = set(self._down)
        per_shard: Dict[str, Any] = {}
        for shard_id, backend in self.shard_stores().items():
            try:
                occupancy = backend.occupancy()
                cache_stats = backend.result_cache.stats()
                artifact_stats = backend.artifact_stats()
                # Counts only, never id listings: /api/stats is a polled
                # monitoring endpoint and must not grow with dataset count.
                per_shard[shard_id] = {
                    "healthy": shard_id not in down,
                    "occupancy": occupancy,
                    "cache_hit_rate": cache_stats["hit_rate"],
                    "cache_size": cache_stats["size"],
                    "artifact_hit_rate": artifact_stats["hit_rate"],
                }
            except Exception as exc:
                per_shard[shard_id] = {"healthy": False, "error": str(exc)}
            if shard_id in down:
                per_shard[shard_id]["marked_down"] = True
        return {
            "num_shards": len(per_shard),
            "virtual_nodes": virtual_nodes,
            "shard_ids": sorted(per_shard),
            "rebalances": rebalances,
            "datasets_migrated": migrated,
            "per_shard": per_shard,
            "replication": self.replication_stats(),
            "spill": self.spill_stats(),
            "health": self.health_stats(),
        }

    def __repr__(self) -> str:
        return (
            f"<ReplicatedShardedDataStore over {self.num_shards} shards, "
            f"R={self._replicas}"
            f"{', spill' if self._spill is not None else ''}>"
        )
