"""The consistent-hash ring that places keys on storage shards.

:class:`HashRing` places ``virtual_nodes`` points per shard on a 64-bit ring
(BLAKE2b positions, stable across processes and Python versions — never
``hash()``, which is salted per process) and assigns a key to the first shard
point at or after the key's position.  Adding or removing one shard therefore
moves only the keys whose ring interval changed hands: an ``O(1/N)`` fraction
in expectation.  :meth:`HashRing.successors` walks the ring clockwise to the
next distinct shards, which is the replica placement of the ring store
(:class:`~repro.platform.replication.ReplicatedShardedDataStore`); with one
replica it is the same assignment as :meth:`HashRing.assign`.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List

from ..exceptions import InvalidParameterError, StorageError
from .._validation import require_positive_int

__all__ = ["HashRing"]

#: Virtual nodes per shard: enough for an even spread at small shard counts
#: without making ring rebuilds noticeable.
DEFAULT_VIRTUAL_NODES = 128


def _ring_position(token: str) -> int:
    """Map a token to a stable position on the 64-bit ring.

    BLAKE2b keeps positions identical across processes, platforms and Python
    versions, which the movement guarantees (and any future on-disk shard
    layout) depend on.
    """
    return int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")


class HashRing:
    """Consistent-hash ring with virtual nodes and stable key→shard assignment.

    Parameters
    ----------
    shards:
        Initial shard identifiers (order does not matter; assignment depends
        only on the *set* of shards and ``virtual_nodes``).
    virtual_nodes:
        Ring points per shard.  More points even out the spread; the default
        keeps the per-shard load within a few percent of uniform for the
        shard counts the platform runs with.
    """

    def __init__(
        self,
        shards: Iterable[str] = (),
        *,
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
    ) -> None:
        require_positive_int(virtual_nodes, "virtual_nodes")
        self._virtual_nodes = virtual_nodes
        #: Sorted ring points as parallel arrays: positions and owning shards.
        self._positions: List[int] = []
        self._owners: List[str] = []
        self._shards: Dict[str, None] = {}
        for shard_id in shards:
            self.add_shard(shard_id)

    # ------------------------------------------------------------------ #
    # topology
    # ------------------------------------------------------------------ #
    @property
    def virtual_nodes(self) -> int:
        """Return the number of ring points per shard."""
        return self._virtual_nodes

    def shards(self) -> List[str]:
        """Return the shard identifiers on the ring, sorted."""
        return sorted(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: object) -> bool:
        return shard_id in self._shards

    def add_shard(self, shard_id: str) -> None:
        """Add a shard's virtual nodes to the ring (raises if already present)."""
        if not shard_id:
            raise InvalidParameterError("shard_id must be a non-empty string")
        if shard_id in self._shards:
            raise InvalidParameterError(f"shard {shard_id!r} is already on the ring")
        self._shards[shard_id] = None
        for replica in range(self._virtual_nodes):
            position = _ring_position(f"{shard_id}#{replica}")
            index = bisect.bisect_left(self._positions, position)
            # Deterministic tie-break on the (astronomically unlikely) 64-bit
            # collision: order colliding points by shard id.
            while (
                index < len(self._positions)
                and self._positions[index] == position
                and self._owners[index] < shard_id
            ):
                index += 1
            self._positions.insert(index, position)
            self._owners.insert(index, shard_id)

    def remove_shard(self, shard_id: str) -> None:
        """Remove a shard's virtual nodes from the ring (raises if absent)."""
        if shard_id not in self._shards:
            raise InvalidParameterError(f"shard {shard_id!r} is not on the ring")
        del self._shards[shard_id]
        keep = [i for i, owner in enumerate(self._owners) if owner != shard_id]
        self._positions = [self._positions[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    # ------------------------------------------------------------------ #
    # assignment
    # ------------------------------------------------------------------ #
    def assign(self, key: str) -> str:
        """Return the shard owning ``key`` (the first ring point at or after it).

        Assignment is deterministic and independent of insertion order; when a
        shard joins or leaves, only keys whose wrapping interval changed hands
        move — every other key keeps its shard.
        """
        if not self._positions:
            raise StorageError("the hash ring has no shards")
        index = bisect.bisect_left(self._positions, _ring_position(key))
        if index == len(self._positions):
            index = 0  # wrap around the ring
        return self._owners[index]

    def assignments(self, keys: Iterable[str]) -> Dict[str, str]:
        """Return ``{key: owning shard}`` for every key."""
        return {key: self.assign(key) for key in keys}

    def successors(self, key: str, count: int) -> List[str]:
        """Return the first ``count`` *distinct* shards at or after ``key``.

        The first entry is :meth:`assign`'s owner (the primary); the rest are
        the next distinct shards walking the ring clockwise — the replica
        placement of the replicated store.  With at least ``count`` shards on
        the ring the result always holds ``count`` distinct shards; with
        fewer, every shard is returned.  Like :meth:`assign`, the walk
        depends only on the set of shards, so placement is deterministic
        across processes and a join/leave changes the successor set of a key
        only when one of its wrapping intervals changed hands.
        """
        if not self._positions:
            raise StorageError("the hash ring has no shards")
        require_positive_int(count, "count")
        wanted = min(count, len(self._shards))
        start = bisect.bisect_left(self._positions, _ring_position(key))
        total = len(self._positions)
        owners: List[str] = []
        seen: set = set()
        for step in range(total):
            owner = self._owners[(start + step) % total]
            if owner not in seen:
                seen.add(owner)
                owners.append(owner)
                if len(owners) == wanted:
                    break
        return owners
