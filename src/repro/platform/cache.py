"""A platform-wide LRU cache for finished rankings.

The dominant production workload (Tables I and II of the paper) is *many
queries against the same dataset with the same parameters* — exactly the
access pattern a result cache thrives on.  :class:`ResultCache` memoises
finished :class:`~repro.ranking.result.Ranking` objects under a canonical
``(dataset, algorithm, parameters, source, content digest)`` key, so a
repeated query is served without dispatching an executor at all.

Keys are content-addressed: the last element is the
:meth:`~repro.graph.compiled.CompiledGraph.content_digest` of the graph the
ranking was computed on.  A ranking can therefore only be served for the
exact graph it describes, and nothing has to be invalidated when a dataset
is re-uploaded or dropped: a changed graph simply looks up different keys,
a re-upload of content already ranked keeps hitting, and entries of graphs
nobody reads any more age out of the LRU.

The cache is size-bounded (least-recently-used eviction), thread-safe and
keeps hit/miss/eviction counters for observability.  One optional policy
hardens it for scan traffic: with ``admit_on_second_miss`` a ranking is
only admitted once its key has been seen before, so a one-off scan over
thousands of distinct queries cannot evict the hot working set.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple

from .._validation import require_positive_int
from ..ranking.result import Ranking

__all__ = ["CacheKey", "ResultCache"]

#: The canonical cache key: (dataset id, algorithm name, sorted parameter
#: items, source label or None, content digest of the graph).  The digest ties
#: a cached ranking to the exact graph it was computed on, so a computation
#: still in flight when its dataset was re-uploaded can never be served
#: against different content, and equal content shares its entries.
CacheKey = Tuple[str, str, Tuple[Tuple[str, Any], ...], Optional[str], bytes]

DEFAULT_CAPACITY = 1024


def _canonical_parameters(parameters: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Return the parameters as a sorted, hashable tuple of items."""
    return tuple(sorted(parameters.items()))


class ResultCache:
    """Size-bounded LRU cache of finished rankings, keyed per query.

    Parameters
    ----------
    capacity:
        Maximum number of rankings retained; the least recently used entry is
        evicted when the bound is exceeded.
    admit_on_second_miss:
        When ``True``, the first :meth:`put` for a never-seen key is deferred
        (counted under ``admissions_deferred``); only a key whose first put
        was already witnessed is admitted.  Protects the LRU from one-off
        scan workloads.  Defaults to ``False`` (admit everything).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        admit_on_second_miss: bool = False,
    ) -> None:
        require_positive_int(capacity, "capacity")
        self._capacity = capacity
        self._admit_on_second_miss = admit_on_second_miss
        self._entries: "OrderedDict[CacheKey, Ranking]" = OrderedDict()
        #: Keys whose first put was deferred by the admission policy, kept in
        #: a bounded FIFO so the ghost list cannot itself grow unboundedly.
        self._seen_once: "OrderedDict[CacheKey, None]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._admissions_deferred = 0

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #
    @staticmethod
    def key_for(
        dataset_id: str,
        algorithm: str,
        parameters: Mapping[str, Any],
        source: Optional[str] = None,
        *,
        digest: bytes = b"",
    ) -> CacheKey:
        """Build the canonical cache key of one query.

        Parameter order does not matter; two queries with the same dataset,
        algorithm, parameter values and source always map to the same key.
        ``digest`` is the content digest of the graph the query runs on, so
        a re-upload of different content starts from a fresh key space even
        if a stale computation finishes (and caches its result) afterwards.
        """
        return (dataset_id, algorithm, _canonical_parameters(parameters), source, digest)

    # ------------------------------------------------------------------ #
    # lookup / insertion
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        """Return the maximum number of retained rankings."""
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> Optional[Ranking]:
        """Return the cached ranking for ``key`` (marking it recently used)."""
        with self._lock:
            ranking = self._entries.get(key)
            if ranking is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return ranking

    def peek(self, key: CacheKey) -> Optional[Ranking]:
        """Return the cached ranking without touching counters or LRU order."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: CacheKey, ranking: Ranking) -> bool:
        """Store a finished ranking, evicting the least recently used if full.

        Under the admit-on-second-miss policy the first put of a never-seen
        key is deferred; returns ``True`` if the ranking was admitted.
        """
        with self._lock:
            if self._admit_on_second_miss and key not in self._entries:
                if key not in self._seen_once:
                    self._seen_once[key] = None
                    # Bound the ghost list: remember at most 4x capacity keys.
                    while len(self._seen_once) > 4 * self._capacity:
                        self._seen_once.popitem(last=False)
                    self._admissions_deferred += 1
                    return False
                del self._seen_once[key]
            self._entries[key] = ranking
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            return True

    def clear(self) -> None:
        """Drop every cached ranking (counters are preserved)."""
        with self._lock:
            self._invalidations += len(self._entries)
            self._entries.clear()
            self._seen_once.clear()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Return a snapshot of the cache counters and occupancy."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "capacity": self._capacity,
                "size": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": (self._hits / total) if total else 0.0,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
                "admit_on_second_miss": self._admit_on_second_miss,
                "admissions_deferred": self._admissions_deferred,
            }

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"<ResultCache {stats['size']}/{stats['capacity']} entries, "
            f"{stats['hits']} hits / {stats['misses']} misses>"
        )
