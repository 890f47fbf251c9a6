"""Tests for DILI's extended API: updates, accessors, persistence,
and the disk-mode configuration (the paper's Section 9 future work)."""

import numpy as np
import pytest

from repro import DILI, DiliConfig
from repro.core.nodes import DenseLeafNode


def _index(n=2_000, seed=0):
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(0, 10**9, n * 2))[:n].astype(float)
    index = DILI()
    index.bulk_load(keys, [f"v{i}" for i in range(len(keys))])
    return index, keys


class TestUpdate:
    def test_update_existing(self):
        index, keys = _index()
        assert index.update(float(keys[5]), "changed")
        assert index.get(float(keys[5])) == "changed"
        assert len(index) == len(keys)
        index.validate()

    def test_update_missing_is_noop(self):
        index, keys = _index()
        assert not index.update(float(keys[0]) - 1.0, "x")
        assert index.get(float(keys[0]) - 1.0) is None

    def test_update_nested_pair(self):
        index = DILI()
        index.bulk_load(np.arange(0, 1000, 1, dtype=np.float64))
        index.insert(500.25, "a")
        index.insert(500.5, "b")  # forces a nested conflict leaf
        assert index.update(500.25, "a2")
        assert index.get(500.25) == "a2"
        assert index.get(500.5) == "b"

    def test_update_on_empty(self):
        assert not DILI().update(1.0, "x")

    def test_update_dense_leaf(self):
        keys = np.arange(0, 500, 1, dtype=np.float64)
        index = DILI(DiliConfig(local_optimization=False))
        index.bulk_load(keys)
        assert index.update(250.0, "dense")
        assert index.get(250.0) == "dense"
        assert not index.update(250.5, "no")


class TestAccessors:
    def test_pop(self):
        index, keys = _index()
        key = float(keys[7])
        assert index.pop(key) == "v7"
        assert index.get(key) is None
        assert index.pop(key, default="gone") == "gone"
        index.validate()

    def test_min_max(self):
        index, keys = _index()
        assert index.min_item() == (float(keys[0]), "v0")
        assert index.max_item()[0] == float(keys[-1])

    def test_min_max_empty(self):
        index = DILI()
        assert index.min_item() is None
        assert index.max_item() is None

    def test_count_range(self):
        index = DILI()
        index.bulk_load(np.arange(0, 100, 2, dtype=np.float64))
        assert index.count_range(10.0, 20.0) == 5
        assert index.count_range(11.0, 12.0) == 0
        assert index.count_range(-5.0, 1000.0) == 50

    def test_keys_values_iterators(self):
        index, keys = _index(200)
        assert list(index.keys()) == [float(k) for k in keys]
        assert list(index.values()) == [f"v{i}" for i in range(len(keys))]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        index, keys = _index(1_500, seed=3)
        index.insert(0.5, "extra")
        path = tmp_path / "index.dili"
        index.save(path)
        loaded = DILI.load(path)
        assert len(loaded) == len(index)
        assert loaded.get(0.5) == "extra"
        for i in range(0, len(keys), 37):
            assert loaded.get(float(keys[i])) == f"v{i}"
        loaded.validate()

    def test_loaded_index_is_updatable(self, tmp_path):
        index, keys = _index(500, seed=4)
        path = tmp_path / "index.dili"
        index.save(path)
        loaded = DILI.load(path)
        assert loaded.insert(float(keys[-1]) + 10.0, "post-load")
        assert loaded.delete(float(keys[0]))
        loaded.validate()

    def test_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "junk.dili"
        import pickle

        path.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.raises(ValueError):
            DILI.load(path)

    def test_loads_a_pickle_from_before_the_writer_lock(self):
        import base64
        import pickle
        import zlib

        from repro import ConcurrentDILI

        raw = zlib.decompress(base64.b64decode(_LEGACY_PICKLE))
        index = pickle.loads(raw)
        assert sorted(index.__dict__) != sorted(DILI().__dict__)
        assert [index.get(k) for k in (0.0, 10.0, 55.0)] == ["a", "b", None]
        assert index.get_batch([20.0, 25.0]) == ["c", None]
        assert index.insert(25.0, "new")
        index.validate()
        wrapped = ConcurrentDILI(index=index)
        assert wrapped.get(25.0) == "new"
        assert wrapped.insert(60.0, "g")
        assert wrapped.get_batch([60.0, 50.0]) == ["g", "f"]
        index.validate()

    def test_rejects_wrong_version(self, tmp_path):
        import pickle

        path = tmp_path / "old.dili"
        path.write_bytes(
            pickle.dumps({"format_version": 99, "index": None})
        )
        with pytest.raises(ValueError):
            DILI.load(path)


# A six-key DILI (keys 0, 10, ..., 50 -> "a".."f") pickled by the
# release before ConcurrentDILI took one writer lock: its state still
# carries the plan lock slot DILI has since dropped.
_LEGACY_PICKLE = (
    "eNpdUs1uEzEQTtskbZpWRKiiL8ChXCIhceEClRopilpSJM5o8XonWYP/ZHurthJSuVRF"
    "8g1zgDfibXgADozX2WRhD6v5Zsbz88131/v+Z6dTf/6RAW3UmCoD44JxFnx3MruYhW/h"
    "2ZfwOZz4PlVywZah7Pj9CSacJbiO95SAJQlvOiO/Y0oVpq9//YjfT78LkhOzhDA97ay6"
    "HXIi8oJkpPhYWdcKPOaKEp4p7Zhgt8QxJcOD76/yHvyeJUJzJpfhq+/eKiXQNxTkOtv0"
    "GK1K9ekN5WCDf5JWs0xUnDgYx5+kN8EPz+qMt2Au9WaRfUpoCZlg1mK1D2k0P0jekrlW"
    "iwOcBIjJhCqAo//leovkt/ijZWYdaIweNVTDtf4v9LyZOTdE0nJDSJVXue8apVzwo9aJ"
    "JHbE1fYugCzmaKfx53H+bZ6HaachdLtCdDq7S6hnudLQus2ASQeGgnatNzHL2fA+nGx8"
    "WyTch/n09GmD84RfNJgm/KrBRcKTBkPCswYvIgY/kJXINGHGhvO+7yGPjtTWJ6I1wUl/"
    "N0MRrksMIUkGllEX593qPuTIWeUMQJj7AcoGGSU4uz9qkbXWVPCHF9G+1O5dnbY++iCq"
    "mzOKPuxwKAEPU2QcyBXUnkHUWIE0lRHtJjNShOcZJXUKkC6jqpIuphwwacG0HEOhrrDk"
    "alVUgeZEZgaoEppFnZ5v+ePaZ6s8LvRPDAvWMU0cyrB29JvafZxnpfXy2PeyBQoc2Rhm"
    "9QtRObhGuJsZhaaJPFkimWO3EVT5+C+2hWOl"
)


class TestDiskMode:
    def test_for_disk_builds_and_answers(self):
        keys = np.unique(
            np.random.default_rng(5).integers(0, 10**9, 8_000)
        ).astype(float)
        index = DILI(DiliConfig.for_disk())
        index.bulk_load(keys)
        for i in range(0, len(keys), 61):
            assert index.get(float(keys[i])) == i
        index.validate()

    def test_disk_mode_disables_local_opt(self):
        config = DiliConfig.for_disk()
        assert not config.local_optimization
        keys = np.arange(0, 3_000, 1, dtype=np.float64)
        index = DILI(config)
        index.bulk_load(keys)

        def leaf_kinds(node):
            if type(node) is DenseLeafNode:
                yield node
                return
            children = getattr(node, "children", None)
            if children:
                for child in children:
                    yield from leaf_kinds(child)

        assert all(
            isinstance(leaf, DenseLeafNode)
            for leaf in leaf_kinds(index.root)
        )

    def test_disk_cost_model_prefers_fewer_nodes(self):
        """Pricing node fetches as IOs pushes greedy merging toward
        fewer, larger pieces than the in-memory model chooses."""
        from repro.core.segmentation import greedy_merging

        rng = np.random.default_rng(6)
        xs = np.sort(rng.uniform(0, 1e9, 4_000))
        mem_result = greedy_merging(xs, params=DiliConfig().cost_params())
        disk_result = greedy_merging(
            xs, params=DiliConfig.for_disk().cost_params()
        )
        assert len(disk_result.segments) <= len(mem_result.segments)
