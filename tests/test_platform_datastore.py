"""Unit tests for :mod:`repro.platform.datastore`."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.platform.datastore import DataStore
from repro.ranking.result import Ranking


class TestDatasets:
    def test_store_fetch_round_trip(self, triangle):
        store = DataStore()
        store.store_dataset("tri", triangle)
        assert store.has_dataset("tri")
        assert store.fetch_dataset("tri") is triangle
        assert store.list_datasets() == ["tri"]

    def test_fetch_missing_dataset_fails(self):
        with pytest.raises(StorageError):
            DataStore().fetch_dataset("nope")

    def test_drop_dataset(self, triangle):
        store = DataStore()
        store.store_dataset("tri", triangle)
        store.drop_dataset("tri")
        assert not store.has_dataset("tri")
        store.drop_dataset("tri")  # dropping twice is fine


class TestResults:
    def test_put_get_round_trip(self, tmp_path):
        store = DataStore(tmp_path)
        store.put_result("r1", {"value": 42})
        assert store.get_result("r1") == {"value": 42}
        assert store.has_result("r1")
        assert store.list_results() == ["r1"]
        assert store.occupancy()["results"] == 1

    def test_a_store_without_a_directory_keeps_no_result(self):
        store = DataStore()
        store.put_result("r1", {"value": 42})
        assert not store.has_result("r1")
        assert store.list_results() == []
        assert store.occupancy()["results"] == 0
        with pytest.raises(StorageError):
            store.get_result("r1")

    def test_get_returns_a_copy(self, tmp_path):
        store = DataStore(tmp_path)
        store.put_result("r1", {"value": [1, 2]})
        fetched = store.get_result("r1")
        fetched["value"] = "mutated"
        assert store.get_result("r1")["value"] == [1, 2]

    def test_missing_result_fails(self):
        with pytest.raises(StorageError):
            DataStore().get_result("missing")
        assert not DataStore().has_result("missing")


class TestPersistence:
    def test_results_persisted_to_directory(self, tmp_path):
        store = DataStore(directory=tmp_path)
        store.put_result("r1", {"answer": 42})
        on_disk = json.loads((tmp_path / "results" / "r1.json").read_text(encoding="utf-8"))
        assert on_disk == {"answer": 42}

    def test_results_readable_by_a_new_datastore(self, tmp_path):
        DataStore(directory=tmp_path).put_result("r1", {"answer": 42})
        fresh = DataStore(directory=tmp_path)
        assert fresh.has_result("r1")
        assert fresh.get_result("r1") == {"answer": 42}
        assert "r1" in fresh.list_results()

    def test_numpy_scalars_persist_as_numbers(self, tmp_path):
        payload = {"k": np.int64(4), "alpha": np.float64(0.5), "ok": np.bool_(True)}
        DataStore(directory=tmp_path).put_result("r", payload)
        assert DataStore(directory=tmp_path).get_result("r") == {
            "k": 4, "alpha": 0.5, "ok": True,
        }

    def test_rankings_persist_in_their_dict_form(self, tmp_path):
        ranking = Ranking([0.2, 0.5], labels=np.asarray(["x", "y"]), algorithm="T")
        store = DataStore(directory=tmp_path)
        store.put_result("r", {"rankings": {"0": ranking}})
        assert store.get_result("r") == {"rankings": {"0": ranking.to_dict()}}
        fresh = DataStore(directory=tmp_path).get_result("r")
        assert fresh == {"rankings": {"0": ranking.to_dict()}}

    def test_unserialisable_value_is_refused(self, tmp_path):
        store = DataStore(directory=tmp_path)
        with pytest.raises(StorageError):
            store.put_result("r", {"value": object()})
        assert not store.has_result("r")

    def test_unreadable_persisted_result_fails(self, tmp_path):
        store = DataStore(directory=tmp_path)
        (tmp_path / "results" / "bad.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(StorageError):
            store.get_result("bad")


class TestConcurrency:
    def test_parallel_writes_are_all_recorded(self, tmp_path):
        store = DataStore(tmp_path)

        def writer(worker_id: int) -> None:
            for i in range(50):
                store.put_result(f"w{worker_id}-{i}", {"worker": worker_id, "i": i})

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(store.list_results()) == 200
