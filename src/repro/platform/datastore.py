"""The Datastore component: datasets, result files and compiled artifacts.

The paper's datastore "is responsible for storing and managing datasets" and
"provides storage for results and logs produced by the system".  This
implementation keeps datasets in memory (thread-safe) and, when given a
directory, writes each finished comparison's result payload to
``results/<id>.json``: the permalink's durable copy, which is what the
file-backed deployment of the demo serves once the comparison's job record
has been evicted.  A store without a directory keeps no result payloads at
all: while a comparison's :class:`~repro.platform.jobs.JobRecord` lives, its
rankings and its execution log (rendered from the record's events) are
served from the record.

JSON is rendered only at the disk edge (each ranking in its ``to_dict()``
form); a value JSON cannot encode is refused there with
:class:`StorageError`.

Compiled-artifact cache
-----------------------
Alongside each dataset graph the datastore caches one
:class:`~repro.graph.compiled.CompiledGraph` — the frozen CSR adjacency, its
transpose, out-degrees, folded transition matrices and flat adjacency lists
that every executor dispatch would otherwise rebuild from the mutable
:class:`DirectedGraph`.  The artifact is keyed by the dataset's *upload
version*: the entry is dropped whenever :meth:`DataStore.store_dataset`
replaces or :meth:`DataStore.drop_dataset` removes the dataset, and
:meth:`fetch_compiled_with_version` re-checks the version under the lock
before serving — so a stale CSR can never be served for a re-uploaded graph,
even if a compilation was racing the upload.  Cached *rankings* need no such
contract: the result cache keys them by the artifact's content digest (see
:mod:`repro.platform.cache`), so a re-upload never has to touch them.
Hit/miss/invalidation counters are exposed through :meth:`artifact_stats`
(and from there through ``platform_stats()``, ``GET /api/stats`` and the
CLI's ``--stats``).
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple
from urllib.parse import quote, unquote

import numpy as np

from ..exceptions import InvalidParameterError, StorageError
from ..graph.compiled import CompiledGraph
from ..graph.csr import CSRGraph
from ..graph.digraph import DirectedGraph
from ..ranking.result import Ranking
from .cache import ResultCache

__all__ = ["DataStore", "FileBackedDataStore"]


def _json_value(value: object) -> object:
    """Render the non-JSON values a result payload may hold, refuse the rest."""
    if isinstance(value, Ranking):
        return value.to_dict()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} value is not JSON serialisable")


class DataStore:
    """Thread-safe storage for datasets, result files and cached rankings.

    Parameters
    ----------
    directory:
        Optional directory for result payloads.  Datasets are always kept in
        memory (they are either generated or uploaded as graphs); results
        are written to ``results/<id>.json`` only when a directory is
        configured, and a store without one keeps none.
    result_cache:
        The platform-wide ranking cache; a fresh default-capacity
        :class:`~repro.platform.cache.ResultCache` is created when omitted.
        Its keys carry the content digest of the graph each ranking was
        computed on, so storing or dropping a dataset never touches it.
    cache_admit_on_second_miss:
        Scan-resistant admission for the internally-built
        :class:`~repro.platform.cache.ResultCache`; only valid when
        ``result_cache`` is omitted — a caller providing its own cache
        configures it directly.
    """

    def __init__(
        self,
        directory: Optional[str | Path] = None,
        *,
        result_cache: Optional[ResultCache] = None,
        cache_admit_on_second_miss: bool = False,
    ) -> None:
        self._lock = threading.RLock()
        self._datasets: Dict[str, DirectedGraph] = {}
        self._dataset_versions: Dict[str, int] = {}
        #: dataset id -> monotonic timestamp of the last store/fetch; the
        #: replicated store's spill policy demotes the coldest datasets first.
        self._dataset_access: Dict[str, float] = {}
        #: dataset id -> estimated resident bytes of the stored graph; the
        #: replicated store's automatic spill policy budgets against the sum.
        self._dataset_bytes: Dict[str, int] = {}
        #: dataset id -> version the dataset was authoritatively deleted at.
        #: A tombstone outlives the copy it deleted so an outage-surviving
        #: stale replica cannot resurrect the dataset (see the replicated
        #: store's anti-entropy passes); it is reaped once every replica has
        #: acknowledged the deletion.
        self._dataset_tombstones: Dict[str, int] = {}
        #: result ids that were authoritatively deleted (results carry no
        #: version counter, so presence of the id is the whole tombstone).
        self._result_tombstones: Set[str] = set()
        if result_cache is not None:
            if cache_admit_on_second_miss:
                raise InvalidParameterError(
                    "cache_admit_on_second_miss applies to the internally-built "
                    "cache; configure the provided result_cache directly instead"
                )
            self.result_cache = result_cache
        else:
            self.result_cache = ResultCache(
                admit_on_second_miss=cache_admit_on_second_miss
            )
        #: dataset id -> (upload version the artifact was compiled from, artifact)
        self._compiled: Dict[str, Tuple[int, CompiledGraph]] = {}
        self._artifact_hits = 0
        self._artifact_misses = 0
        self._artifact_invalidations = 0
        self._directory: Optional[Path] = Path(directory) if directory is not None else None
        if self._directory is not None:
            try:
                (self._directory / "results").mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise StorageError(f"cannot create datastore directory: {exc}") from exc

    # ------------------------------------------------------------------ #
    # datasets
    # ------------------------------------------------------------------ #
    def store_dataset(
        self,
        dataset_id: str,
        graph: DirectedGraph,
        *,
        version_floor: int = 0,
        supersede_below: Optional[int] = None,
    ) -> bool:
        """Store (or replace) a dataset graph under ``dataset_id``.

        Replacing an existing dataset drops its compiled artifact; cached
        rankings stay, keyed by the content digest of the graph they were
        computed on, so those of the previous graph are never served for
        different content and a re-upload of equal content keeps hitting.
        ``version_floor`` lets the sharded store keep the upload counter
        monotonic across shard boundaries: the new version always exceeds
        both this store's own counter and the floor, so a version minted
        against any earlier copy of the dataset — on any shard — is never
        reissued for a later upload.

        ``supersede_below`` makes the write conditional, atomically under
        the store lock: when the current copy's version is already at or
        above it, the write is refused (``False`` is returned and nothing
        changes) — the replicated tier uses this so a re-upload that lost a
        concurrent race can never overwrite the winner's newer copy with
        older data at an even higher version.  Returns ``True`` when the
        graph was stored.
        """
        with self._lock:
            current = self._dataset_versions.get(dataset_id, 0)
            if supersede_below is not None and current >= supersede_below:
                return False
            self._datasets[dataset_id] = graph
            self._dataset_versions[dataset_id] = max(current, version_floor) + 1
            # The new version strictly exceeds any tombstone (the tombstone
            # raised the counter when it was written), so the re-upload
            # supersedes the deletion.
            self._dataset_tombstones.pop(dataset_id, None)
            self._dataset_access[dataset_id] = time.monotonic()
            self._dataset_bytes[dataset_id] = self._estimate_graph_bytes(graph)
            if self._compiled.pop(dataset_id, None) is not None:
                self._artifact_invalidations += 1
        return True

    def fetch_dataset(self, dataset_id: str) -> DirectedGraph:
        """Return the stored dataset graph (raises :class:`StorageError` if absent)."""
        with self._lock:
            graph = self._datasets.get(dataset_id)
            if graph is not None:
                self._dataset_access[dataset_id] = time.monotonic()
        if graph is None:
            raise StorageError(f"dataset {dataset_id!r} is not stored in the datastore")
        return graph

    def fetch_dataset_with_version(self, dataset_id: str) -> tuple[DirectedGraph, int]:
        """Return ``(graph, version)`` as one consistent snapshot.

        The version counts uploads of the dataset (1 for the first store).
        It keys the compiled artifact and orders replica copies; cached
        rankings are keyed by the artifact's content digest instead.
        """
        with self._lock:
            graph = self._datasets.get(dataset_id)
            version = self._dataset_versions.get(dataset_id, 0)
            if graph is not None:
                self._dataset_access[dataset_id] = time.monotonic()
        if graph is None:
            raise StorageError(f"dataset {dataset_id!r} is not stored in the datastore")
        return graph, version

    def dataset_version(self, dataset_id: str) -> int:
        """Return the upload counter of a dataset (0 if it was never stored)."""
        with self._lock:
            return self._dataset_versions.get(dataset_id, 0)

    def dataset_last_access(self, dataset_id: str) -> float:
        """Return the monotonic timestamp of the dataset's last store/fetch.

        Returns ``0.0`` for datasets never touched through this store — which
        sorts them coldest, exactly what the spill policy wants.
        """
        with self._lock:
            return self._dataset_access.get(dataset_id, 0.0)

    def has_dataset(self, dataset_id: str) -> bool:
        """Return ``True`` if a dataset graph is stored under ``dataset_id``."""
        with self._lock:
            return dataset_id in self._datasets

    def list_datasets(self) -> List[str]:
        """Return the identifiers of all stored datasets, sorted."""
        with self._lock:
            return sorted(self._datasets)

    def drop_dataset(self, dataset_id: str) -> None:
        """Remove a stored dataset (no error if absent).

        Its compiled artifact goes with it.  Cached rankings stay until the
        LRU evicts them: they are keyed by content, so they can only ever be
        served for a graph equal to the one they were computed on.
        """
        with self._lock:
            self._datasets.pop(dataset_id, None)
            self._dataset_access.pop(dataset_id, None)
            self._dataset_bytes.pop(dataset_id, None)
            self._dataset_versions[dataset_id] = self._dataset_versions.get(dataset_id, 0) + 1
            if self._compiled.pop(dataset_id, None) is not None:
                self._artifact_invalidations += 1

    # ------------------------------------------------------------------ #
    # deletion tombstones
    # ------------------------------------------------------------------ #
    def set_dataset_tombstone(self, dataset_id: str, version: int) -> bool:
        """Record an authoritative deletion of ``dataset_id`` at ``version``.

        Unlike :meth:`drop_dataset` (a plain removal of this store's copy,
        used for internal purges and migrations), a tombstone is a durable
        marker the replicated tier's anti-entropy passes treat as
        authoritative: any replica holding a copy at a version ``<=`` the
        tombstone's must drop it rather than re-spread it.  The upload
        counter is raised to at least the tombstone version, so the next
        upload's version strictly exceeds it and no artifact compiled before
        the delete can be served again.

        Returns ``False`` (and changes nothing) when this store holds a copy
        *newer* than the tombstone — the deletion was already superseded by
        a re-upload.
        """
        with self._lock:
            if (
                dataset_id in self._datasets
                and self._dataset_versions.get(dataset_id, 0) > version
            ):
                return False
            self._datasets.pop(dataset_id, None)
            self._dataset_access.pop(dataset_id, None)
            self._dataset_bytes.pop(dataset_id, None)
            self._dataset_tombstones[dataset_id] = max(
                self._dataset_tombstones.get(dataset_id, 0), version
            )
            self._dataset_versions[dataset_id] = max(
                self._dataset_versions.get(dataset_id, 0), version
            )
            if self._compiled.pop(dataset_id, None) is not None:
                self._artifact_invalidations += 1
        return True

    def dataset_tombstone(self, dataset_id: str) -> int:
        """Return the tombstone version for ``dataset_id`` (0 when none)."""
        with self._lock:
            return self._dataset_tombstones.get(dataset_id, 0)

    def clear_dataset_tombstone(self, dataset_id: str) -> None:
        """Reap a tombstone (every replica acknowledged the deletion).

        The upload counter keeps its raised value, so versions stay
        monotonic across the tombstone's whole lifecycle.
        """
        with self._lock:
            self._dataset_tombstones.pop(dataset_id, None)

    def list_dataset_tombstones(self) -> Dict[str, int]:
        """Return a snapshot of all dataset tombstones (id -> version)."""
        with self._lock:
            return dict(self._dataset_tombstones)

    def set_result_tombstone(self, result_id: str) -> None:
        """Record an authoritative deletion of a result (and drop the copy)."""
        with self._lock:
            self._result_tombstones.add(result_id)
        self.drop_result(result_id)

    def has_result_tombstone(self, result_id: str) -> bool:
        """Return ``True`` if ``result_id`` was authoritatively deleted."""
        with self._lock:
            return result_id in self._result_tombstones

    def clear_result_tombstone(self, result_id: str) -> None:
        """Reap a result tombstone (every replica acknowledged)."""
        with self._lock:
            self._result_tombstones.discard(result_id)

    def list_result_tombstones(self) -> List[str]:
        """Return the ids of all result tombstones, sorted."""
        with self._lock:
            return sorted(self._result_tombstones)

    # ------------------------------------------------------------------ #
    # resident-bytes accounting
    # ------------------------------------------------------------------ #
    @staticmethod
    def _estimate_graph_bytes(graph: DirectedGraph) -> int:
        """Estimate the resident footprint of a stored graph.

        A deterministic structural estimate (adjacency dict-of-sets plus
        label tables), deliberately coarse: the spill budget needs a stable,
        cheap measure that orders datasets by size, not an exact heap count.
        """
        return 112 + graph.number_of_nodes() * 56 + graph.number_of_edges() * 16

    def resident_dataset_bytes(self) -> int:
        """Return the estimated bytes of all graphs resident in memory."""
        with self._lock:
            return sum(self._dataset_bytes.values())

    def resident_bytes_by_dataset(self) -> Dict[str, int]:
        """Return the per-dataset resident-bytes estimates (a snapshot)."""
        with self._lock:
            return dict(self._dataset_bytes)

    # ------------------------------------------------------------------ #
    # compiled artifacts
    # ------------------------------------------------------------------ #
    def fetch_compiled_with_version(self, dataset_id: str) -> Tuple[CompiledGraph, int]:
        """Return ``(compiled artifact, version)`` for a stored dataset.

        The artifact is compiled on first use and cached keyed by the
        dataset's upload version; a hit returns the cached instance, whose
        lazily-built structures (CSR, transpose, folded transition matrices,
        adjacency lists) are shared by every executor dispatch.  On re-upload
        the entry is dropped and the version re-checked before a fresh
        artifact is published, so a stale CSR is never served (see the module
        docstring).
        """
        with self._lock:
            graph = self._datasets.get(dataset_id)
            version = self._dataset_versions.get(dataset_id, 0)
            entry = self._compiled.get(dataset_id)
        if graph is None:
            raise StorageError(f"dataset {dataset_id!r} is not stored in the datastore")
        if entry is not None and entry[0] == version:
            with self._lock:
                self._artifact_hits += 1
            return entry[1], version
        compiled = CompiledGraph(graph)
        with self._lock:
            self._artifact_misses += 1
            # Publish only if the dataset was not re-uploaded while compiling;
            # a racing upload wins and the stale artifact is discarded.
            if self._dataset_versions.get(dataset_id, 0) == version:
                current = self._compiled.get(dataset_id)
                if current is not None and current[0] == version:
                    # A concurrent fetch beat us to it — share its artifact.
                    return current[1], version
                self._compiled[dataset_id] = (version, compiled)
        return compiled, version

    def fetch_compiled(self, dataset_id: str) -> CompiledGraph:
        """Return the compiled artifact of a stored dataset (see above)."""
        return self.fetch_compiled_with_version(dataset_id)[0]

    def artifact_stats(self) -> Dict[str, Any]:
        """Return the compiled-artifact cache counters and occupancy."""
        with self._lock:
            total = self._artifact_hits + self._artifact_misses
            return {
                "compiled": len(self._compiled),
                "hits": self._artifact_hits,
                "misses": self._artifact_misses,
                "hit_rate": (self._artifact_hits / total) if total else 0.0,
                "invalidations": self._artifact_invalidations,
            }

    # ------------------------------------------------------------------ #
    # results (files under ``results/``; none without a directory)
    # ------------------------------------------------------------------ #
    def _result_path(self, result_id: str) -> Path:
        return self._directory / "results" / f"{result_id}.json"

    def put_result(self, result_id: str, payload: Mapping[str, object]) -> None:
        """Write ``results/<id>.json``; a store without a directory keeps nothing.

        A finished comparison's rankings live in its job record; this file
        is the permalink's copy once the record is evicted, so only a store
        with a disk tier has one.
        """
        if self._directory is not None:
            path = self._result_path(result_id)
            # Write then rename: the file is the only copy, so a reader must
            # never see it half-written.
            tmp = path.with_name(f"{path.name}.tmp")
            try:
                tmp.write_text(
                    json.dumps(dict(payload), indent=2, default=_json_value),
                    encoding="utf-8",
                )
                os.replace(tmp, path)
            except (OSError, TypeError, ValueError) as exc:
                tmp.unlink(missing_ok=True)
                raise StorageError(f"cannot persist result {result_id!r}: {exc}") from exc
        # An explicit write supersedes a pending deletion marker.
        self.clear_result_tombstone(result_id)

    def get_result(self, result_id: str) -> dict:
        """Return a stored result payload (raises :class:`StorageError` if absent)."""
        if self._directory is not None:
            try:
                return json.loads(self._result_path(result_id).read_text(encoding="utf-8"))
            except FileNotFoundError:
                pass
            except (OSError, json.JSONDecodeError) as exc:
                raise StorageError(
                    f"cannot read persisted result {result_id!r}: {exc}"
                ) from exc
        raise StorageError(f"result {result_id!r} is not stored in the datastore")

    def has_result(self, result_id: str) -> bool:
        """Return ``True`` if a result is stored under ``result_id``."""
        return self._directory is not None and self._result_path(result_id).exists()

    def list_results(self) -> List[str]:
        """Return the identifiers of all stored results, sorted."""
        if self._directory is None:
            return []
        return sorted(path.stem for path in (self._directory / "results").glob("*.json"))

    def drop_result(self, result_id: str) -> None:
        """Remove a stored result (no error if absent).

        Used by the ring store when a result migrates to another backend.
        """
        if self._directory is None:
            return
        try:
            self._result_path(result_id).unlink(missing_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot remove persisted result {result_id!r}: {exc}") from exc

    # ------------------------------------------------------------------ #
    # occupancy
    # ------------------------------------------------------------------ #
    def occupancy(self) -> Dict[str, int]:
        """Return how much this store currently holds (one shard's health card).

        The ring store fans this out per backend on every stats poll.  The
        memory counts come straight from the containers; ``results`` counts
        the files under ``results/`` (0 without a directory).
        """
        with self._lock:
            counts = {
                "datasets": len(self._datasets),
                "compiled_artifacts": len(self._compiled),
            }
        counts["results"] = len(self.list_results())
        counts["cached_rankings"] = len(self.result_cache)
        return counts


class FileBackedDataStore(DataStore):
    """A :class:`DataStore` whose datasets, results and artifacts live on disk.

    Where the base store keeps dataset graphs in memory (writing only
    result files to an optional directory), this store persists
    *everything* under ``directory`` and keeps no graph resident:

    * datasets as ``datasets/<id>.json`` (node labels + edge list + upload
      version — enough to rebuild the graph with identical node ids, so a
      restart recovers it bit-identical);
    * results as ``results/<id>.json`` (the base store's format);
    * the compiled CSR of each dataset as ``artifacts/<id>.npz``, reloaded
      into the :class:`~repro.graph.compiled.CompiledGraph` on first use
      after a restart instead of reconverting the graph;
    * upload counters in ``dataset_versions.json`` at the directory root —
      outside ``datasets/``, so no user-chosen dataset id can collide with
      it — keeping versions (and the version-checked artifacts) monotonic
      across drop/re-upload cycles spanning restarts.

    A fresh instance pointed at an existing directory recovers the previous
    instance's state (:meth:`fetch_dataset` returns graphs equal to what was
    stored, results round-trip verbatim), which is what makes this store both
    the platform's cold *spill tier* and a restart-safe ring shard.
    """

    def __init__(self, directory: str | Path, **kwargs: Any) -> None:
        if directory is None:
            raise InvalidParameterError("FileBackedDataStore requires a directory")
        super().__init__(directory, **kwargs)
        assert self._directory is not None
        try:
            (self._directory / "datasets").mkdir(parents=True, exist_ok=True)
            (self._directory / "artifacts").mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot create datastore directory: {exc}") from exc
        #: dataset ids currently stored on disk (the in-memory index of the
        #: datasets directory; versions for dropped ids stay in
        #: ``_dataset_versions`` so counters never move backwards).
        self._stored: Set[str] = set()
        self._recover()

    # ------------------------------------------------------------------ #
    # recovery and file layout
    # ------------------------------------------------------------------ #
    def _dataset_path(self, dataset_id: str) -> Path:
        return self._directory / "datasets" / f"{quote(dataset_id, safe='')}.json"

    def _artifact_path(self, dataset_id: str) -> Path:
        return self._directory / "artifacts" / f"{quote(dataset_id, safe='')}.npz"

    def _versions_path(self) -> Path:
        # Lives *outside* datasets/ so no user-chosen dataset id (which is
        # quoted into that directory's namespace) can collide with it.
        return self._directory / "dataset_versions.json"

    def _recover(self) -> None:
        """Rebuild the in-memory index from the directory contents."""
        versions: Dict[str, int] = {}
        dataset_tombstones: Dict[str, int] = {}
        result_tombstones: List[str] = []
        versions_path = self._versions_path()
        if versions_path.exists():
            try:
                document = json.loads(versions_path.read_text(encoding="utf-8"))
                if isinstance(document.get("versions"), dict):
                    # Current format: counters plus persisted tombstones.
                    versions = {
                        key: int(value)
                        for key, value in document["versions"].items()
                    }
                    dataset_tombstones = {
                        key: int(value)
                        for key, value in document.get(
                            "dataset_tombstones", {}
                        ).items()
                    }
                    result_tombstones = [
                        str(value)
                        for value in document.get("result_tombstones", [])
                    ]
                else:
                    # Legacy format: a flat id -> counter mapping.
                    versions = {
                        key: int(value) for key, value in document.items()
                    }
            except (OSError, json.JSONDecodeError, ValueError, AttributeError) as exc:
                raise StorageError(f"cannot recover dataset versions: {exc}") from exc
        stored: Set[str] = set()
        for path in (self._directory / "datasets").glob("*.json"):
            dataset_id = unquote(path.stem)
            stored.add(dataset_id)
            if dataset_id not in versions:
                # The counter file lagged the dataset write (e.g. a crash in
                # between): recover the version from the dataset file itself.
                try:
                    versions[dataset_id] = int(
                        json.loads(path.read_text(encoding="utf-8")).get("version", 1)
                    )
                except (OSError, json.JSONDecodeError, ValueError) as exc:
                    raise StorageError(
                        f"cannot recover dataset {dataset_id!r}: {exc}"
                    ) from exc
        with self._lock:
            self._stored = stored
            self._dataset_versions.update(versions)
            self._dataset_tombstones.update(dataset_tombstones)
            self._result_tombstones.update(result_tombstones)
            # A tombstone is authoritative over any copy at or below its
            # version that survived on disk (e.g. the shard crashed between
            # recording the tombstone and unlinking the file).
            for dataset_id, version in dataset_tombstones.items():
                if (
                    dataset_id in self._stored
                    and self._dataset_versions.get(dataset_id, 0) <= version
                ):
                    self._stored.discard(dataset_id)
                    try:
                        self._dataset_path(dataset_id).unlink(missing_ok=True)
                        self._artifact_path(dataset_id).unlink(missing_ok=True)
                    except OSError:
                        pass  # retried on the next tombstone write

    def _flush_versions(self) -> None:
        """Persist the upload counters and tombstones (caller holds the lock)."""
        path = self._versions_path()
        tmp = path.with_suffix(".tmp")
        try:
            tmp.write_text(
                json.dumps(
                    {
                        "versions": self._dataset_versions,
                        "dataset_tombstones": self._dataset_tombstones,
                        "result_tombstones": sorted(self._result_tombstones),
                    }
                ),
                encoding="utf-8",
            )
            os.replace(tmp, path)
        except OSError as exc:
            raise StorageError(f"cannot persist dataset versions: {exc}") from exc

    @staticmethod
    def _serialise_graph(graph: DirectedGraph, version: int) -> str:
        return json.dumps(
            {
                "version": version,
                "name": graph.name,
                "nodes": graph.raw_labels(),
                "edges": graph.edge_list(),
            }
        )

    @staticmethod
    def _deserialise_graph(document: Mapping[str, Any]) -> DirectedGraph:
        graph = DirectedGraph(name=str(document.get("name", "")))
        for label in document["nodes"]:
            graph.add_node(label)
        graph.add_edges_from(
            (int(source), int(target)) for source, target in document["edges"]
        )
        return graph

    def _read_dataset_file(self, dataset_id: str) -> Dict[str, Any]:
        path = self._dataset_path(dataset_id)
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise StorageError(
                f"dataset {dataset_id!r} is not stored in the datastore"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise StorageError(f"cannot read dataset {dataset_id!r}: {exc}") from exc

    # ------------------------------------------------------------------ #
    # datasets (disk-resident)
    # ------------------------------------------------------------------ #
    def store_dataset(
        self,
        dataset_id: str,
        graph: DirectedGraph,
        *,
        version_floor: int = 0,
        supersede_below: Optional[int] = None,
    ) -> bool:
        """Persist (or replace) a dataset; the graph is not kept in memory.

        ``supersede_below`` carries the in-memory store's conditional-write
        contract: a copy already at or above it refuses the overwrite.
        """
        with self._lock:
            current = self._dataset_versions.get(dataset_id, 0)
            if supersede_below is not None and current >= supersede_below:
                return False
            version = max(current, version_floor) + 1
            path = self._dataset_path(dataset_id)
            tmp = path.with_suffix(".tmp")
            try:
                tmp.write_text(self._serialise_graph(graph, version), encoding="utf-8")
                os.replace(tmp, path)
            except OSError as exc:
                raise StorageError(
                    f"cannot persist dataset {dataset_id!r}: {exc}"
                ) from exc
            self._dataset_versions[dataset_id] = version
            self._dataset_access[dataset_id] = time.monotonic()
            self._stored.add(dataset_id)
            self._dataset_tombstones.pop(dataset_id, None)
            self._flush_versions()
            if self._compiled.pop(dataset_id, None) is not None:
                self._artifact_invalidations += 1
            try:
                self._artifact_path(dataset_id).unlink(missing_ok=True)
            except OSError:
                pass  # a stale artifact is harmless: it is version-checked on load
        return True

    def fetch_dataset(self, dataset_id: str) -> DirectedGraph:
        """Load and rebuild the dataset graph from its file."""
        return self.fetch_dataset_with_version(dataset_id)[0]

    def fetch_dataset_with_version(self, dataset_id: str) -> tuple[DirectedGraph, int]:
        """Return ``(graph, version)`` rebuilt from the dataset file."""
        with self._lock:
            if dataset_id not in self._stored:
                raise StorageError(
                    f"dataset {dataset_id!r} is not stored in the datastore"
                )
            document = self._read_dataset_file(dataset_id)
            self._dataset_access[dataset_id] = time.monotonic()
        return self._deserialise_graph(document), int(document["version"])

    def has_dataset(self, dataset_id: str) -> bool:
        with self._lock:
            return dataset_id in self._stored

    def list_datasets(self) -> List[str]:
        with self._lock:
            return sorted(self._stored)

    def drop_dataset(self, dataset_id: str) -> None:
        with self._lock:
            self._stored.discard(dataset_id)
            self._dataset_access.pop(dataset_id, None)
            self._dataset_versions[dataset_id] = self._dataset_versions.get(dataset_id, 0) + 1
            self._flush_versions()
            if self._compiled.pop(dataset_id, None) is not None:
                self._artifact_invalidations += 1
            try:
                self._dataset_path(dataset_id).unlink(missing_ok=True)
                self._artifact_path(dataset_id).unlink(missing_ok=True)
            except OSError as exc:
                raise StorageError(f"cannot remove dataset {dataset_id!r}: {exc}") from exc

    # ------------------------------------------------------------------ #
    # deletion tombstones (persisted alongside the upload counters)
    # ------------------------------------------------------------------ #
    def set_dataset_tombstone(self, dataset_id: str, version: int) -> bool:
        with self._lock:
            if (
                dataset_id in self._stored
                and self._dataset_versions.get(dataset_id, 0) > version
            ):
                return False
            self._stored.discard(dataset_id)
            self._dataset_access.pop(dataset_id, None)
            self._dataset_tombstones[dataset_id] = max(
                self._dataset_tombstones.get(dataset_id, 0), version
            )
            self._dataset_versions[dataset_id] = max(
                self._dataset_versions.get(dataset_id, 0), version
            )
            # The tombstone is durable before the copy disappears, so a
            # crash in between cannot resurrect the dataset on recovery.
            self._flush_versions()
            if self._compiled.pop(dataset_id, None) is not None:
                self._artifact_invalidations += 1
            try:
                self._dataset_path(dataset_id).unlink(missing_ok=True)
                self._artifact_path(dataset_id).unlink(missing_ok=True)
            except OSError:
                pass  # _recover() re-applies the persisted tombstone
        return True

    def clear_dataset_tombstone(self, dataset_id: str) -> None:
        with self._lock:
            if self._dataset_tombstones.pop(dataset_id, None) is not None:
                self._flush_versions()

    def set_result_tombstone(self, result_id: str) -> None:
        with self._lock:
            self._result_tombstones.add(result_id)
            self._flush_versions()
        self.drop_result(result_id)

    def clear_result_tombstone(self, result_id: str) -> None:
        with self._lock:
            if result_id in self._result_tombstones:
                self._result_tombstones.discard(result_id)
                self._flush_versions()

    # ------------------------------------------------------------------ #
    # compiled artifacts (persisted next to their dataset)
    # ------------------------------------------------------------------ #
    def _load_artifact(self, dataset_id: str, version: int) -> Optional[CSRGraph]:
        path = self._artifact_path(dataset_id)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as payload:
                if int(payload["version"]) != version:
                    return None
                labels = payload["labels"].tolist()
                return CSRGraph(
                    payload["indptr"],
                    payload["indices"],
                    labels=labels if labels else None,
                    name=str(payload["name"]),
                )
        except Exception:
            return None  # a corrupt artifact is recompiled, never fatal

    def _store_artifact(self, dataset_id: str, version: int, csr: CSRGraph) -> None:
        path = self._artifact_path(dataset_id)
        # Per-writer unique temp name: two processes (or threads racing the
        # compiled-cache lock) persisting the same dataset must not truncate
        # each other's half-written file; each writes its own temp and the
        # atomic rename decides who lands last.
        tmp = path.with_suffix(f".tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}.npz")
        try:
            with open(tmp, "wb") as handle:
                np.savez(
                    handle,
                    version=np.int64(version),
                    indptr=csr.indptr,
                    indices=csr.indices,
                    labels=np.asarray(csr.labels() or [], dtype=str),
                    name=np.str_(csr.name),
                )
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)  # persistence is best-effort; memory copy serves

    def fetch_compiled_with_version(self, dataset_id: str) -> Tuple[CompiledGraph, int]:
        """Return ``(compiled artifact, version)``, recovering a persisted CSR.

        The in-memory artifact cache works exactly like the base store's;
        on a miss the CSR snapshot is reloaded from ``artifacts/<id>.npz``
        when one matching the dataset version exists (a restart survivor),
        otherwise it is compiled and persisted for the next restart.
        """
        with self._lock:
            version = self._dataset_versions.get(dataset_id, 0)
            entry = self._compiled.get(dataset_id)
            present = dataset_id in self._stored
        if not present:
            raise StorageError(f"dataset {dataset_id!r} is not stored in the datastore")
        if entry is not None and entry[0] == version:
            with self._lock:
                self._artifact_hits += 1
            return entry[1], version
        graph, version = self.fetch_dataset_with_version(dataset_id)
        csr = self._load_artifact(dataset_id, version)
        compiled = CompiledGraph(graph, csr=csr)
        if csr is None:
            self._store_artifact(dataset_id, version, compiled.to_csr())
        with self._lock:
            self._artifact_misses += 1
            if self._dataset_versions.get(dataset_id, 0) == version:
                current = self._compiled.get(dataset_id)
                if current is not None and current[0] == version:
                    return current[1], version
                self._compiled[dataset_id] = (version, compiled)
        return compiled, version

    # ------------------------------------------------------------------ #
    # occupancy
    # ------------------------------------------------------------------ #
    def resident_dataset_bytes(self) -> int:
        """Disk-resident graphs cost no process memory: always 0.

        This is what makes the store usable as the spill *target* of the
        automatic budget policy — demoting a dataset here genuinely frees
        the bytes the budget counts.
        """
        return 0

    def resident_bytes_by_dataset(self) -> Dict[str, int]:
        return {}

    def occupancy(self) -> Dict[str, int]:
        """Count disk-resident datasets alongside the memory tiers."""
        counts = super().occupancy()
        with self._lock:
            counts["datasets"] = len(self._stored)
        return counts
