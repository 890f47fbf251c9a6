"""LockSanitizer: a clean threaded workload records nothing; a seeded
call on the inner index without the writer lock is reported; detach
restores the original lock and index."""

import threading

import numpy as np
import pytest

from repro.check import LockSanitizer, SanitizerViolation
from repro.core.concurrent import ConcurrentDILI
from repro.core.dili import DILI


def _keys(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.unique(rng.uniform(0, 1e9, n))


def kinds(san):
    return sorted({v.kind for v in san.violations})


class TestCleanWorkload:
    def test_threaded_mixed_workload_is_clean(self):
        keys = _keys(4000)
        index = ConcurrentDILI()
        san = LockSanitizer(index)
        index.bulk_load(keys)
        errors = []

        def reader(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(200):
                    index.get(float(rng.choice(keys)))
                index.range_query(float(keys[10]), float(keys[50]))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def writer(seed):
            rng = np.random.default_rng(seed)
            try:
                for i in range(200):
                    key = float(rng.uniform(0, 1e9))
                    if index.insert(key, i):
                        index.update(key, -i)
                        index.delete(key)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(s,)) for s in range(3)
        ] + [
            threading.Thread(target=writer, args=(100 + s,)) for s in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        san.assert_clean()
        san.detach()

    def test_batch_and_scan_paths_are_clean(self):
        keys = _keys(1000)
        index = ConcurrentDILI()
        san = LockSanitizer(index)
        index.bulk_load(keys)
        index.get_batch(keys[:100])
        index.insert_batch(keys[:50] + 0.5)
        index.delete_batch(keys[:50] + 0.5)
        index.items()
        san.assert_clean()
        san.detach()


class TestSeededViolations:
    def test_unlocked_point_access(self):
        keys = _keys(500)
        index = ConcurrentDILI()
        san = LockSanitizer(index)
        index.bulk_load(keys)
        # Bypassing ConcurrentDILI.insert: the writer lock is not held.
        index.index.insert(float(keys[-1]) + 1.0, "rogue")
        assert kinds(san) == ["unlocked-access"]
        san.detach()

    def test_point_access_on_empty_tree_requires_exclusive(self):
        index = ConcurrentDILI()
        san = LockSanitizer(index)
        index.index.get(1.0)
        assert kinds(san) == ["unlocked-access"]
        san.detach()

    @pytest.mark.parametrize("op", ["range_query", "get_batch"])
    def test_unlocked_scan_or_batch(self, op):
        keys = _keys(500)
        index = ConcurrentDILI()
        san = LockSanitizer(index)
        index.bulk_load(keys)
        if op == "range_query":
            index.index.range_query(float(keys[0]), float(keys[100]))
        else:
            index.index.get_batch(keys[:10])
        assert kinds(san) == ["unlocked-access"]
        with pytest.raises(SanitizerViolation, match="unlocked-access"):
            san.assert_clean()
        san.detach()


class TestEpochPinnedReads:
    def test_lockfree_batch_read_is_clean_and_pinned(self):
        keys = _keys(800)
        index = ConcurrentDILI()
        san = LockSanitizer(index)
        index.bulk_load(keys, list(range(len(keys))))
        index.get_batch(keys[:4])  # compile + publish
        before = index.lock_stats["plan_reads"]
        assert index.get_batch(keys[:32]) == list(range(32))
        assert index.lock_stats["plan_reads"] > before  # lock-free path
        san.assert_clean()
        san.detach()


class TestLifecycle:
    def test_detach_restores_originals(self):
        index = ConcurrentDILI()
        orig_lock = index._lock
        orig_index = index._index
        san = LockSanitizer(index)
        assert index._lock is not orig_lock
        index.bulk_load(_keys(100))
        san.detach()
        assert index._lock is orig_lock
        assert index._index is orig_index
        assert isinstance(index._index, DILI)
        # The protocol still works on the restored locks.
        assert index.insert(1.5, "post-detach")
        assert index.get(1.5) == "post-detach"

    def test_assert_clean_on_fresh_sanitizer(self):
        san = LockSanitizer(ConcurrentDILI())
        san.assert_clean()
        san.detach()
