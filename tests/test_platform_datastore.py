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
    def test_put_get_round_trip(self):
        store = DataStore()
        store.put_result("r1", {"value": 42})
        assert store.get_result("r1") == {"value": 42}
        assert store.has_result("r1")
        assert store.list_results() == ["r1"]

    def test_get_returns_a_copy(self):
        store = DataStore()
        store.put_result("r1", {"value": [1, 2]})
        fetched = store.get_result("r1")
        fetched["value"] = "mutated"
        assert store.get_result("r1")["value"] == [1, 2]

    def test_missing_result_fails(self):
        with pytest.raises(StorageError):
            DataStore().get_result("missing")
        assert not DataStore().has_result("missing")


class TestLogs:
    def test_append_and_get(self):
        store = DataStore()
        store.append_log("task", "line one")
        store.append_log("task", "line two")
        assert store.get_logs("task") == ["line one", "line two"]
        assert store.list_logs() == ["task"]

    def test_missing_log_is_empty(self):
        assert DataStore().get_logs("nothing") == []


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

    def test_logs_persisted_to_directory(self, tmp_path):
        store = DataStore(directory=tmp_path)
        store.append_log("task", "hello")
        content = (tmp_path / "logs" / "task.log").read_text(encoding="utf-8")
        assert "hello" in content

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
        assert store.get_result("r")["rankings"]["0"] is ranking
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
    def test_parallel_writes_are_all_recorded(self):
        store = DataStore()

        def writer(worker_id: int) -> None:
            for i in range(50):
                store.put_result(f"w{worker_id}-{i}", {"worker": worker_id, "i": i})
                store.append_log("shared", f"w{worker_id}-{i}")

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(store.list_results()) == 200
        assert len(store.get_logs("shared")) == 200


class TestLogRetention:
    def test_append_log_keeps_only_the_newest_lines(self):
        store = DataStore(max_log_lines=5)
        for index in range(12):
            store.append_log("restapi", f"line {index}")
        lines = store.get_logs("restapi")
        assert lines == [f"line {index}" for index in range(7, 12)]

    def test_retention_is_per_key(self):
        store = DataStore(max_log_lines=3)
        for index in range(5):
            store.append_log("busy", f"busy {index}")
        store.append_log("quiet", "only line")
        assert len(store.get_logs("busy")) == 3
        assert store.get_logs("quiet") == ["only line"]

    def test_default_bound_is_generous(self):
        store = DataStore()
        for index in range(100):
            store.append_log("task", f"line {index}")
        assert len(store.get_logs("task")) == 100

    def test_rejects_a_nonpositive_bound(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            DataStore(max_log_lines=0)

    def test_persisted_file_keeps_the_full_history(self, tmp_path):
        store = DataStore(tmp_path, max_log_lines=2)
        for index in range(6):
            store.append_log("task", f"line {index}")
        assert store.get_logs("task") == ["line 4", "line 5"]
        persisted = (tmp_path / "logs" / "task.log").read_text().splitlines()
        assert persisted == [f"line {index}" for index in range(6)]
