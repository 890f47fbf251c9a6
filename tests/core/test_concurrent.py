"""Tests for the lock-crabbing concurrent wrapper (Appendix A.8)."""

import sys
import threading

import numpy as np
import pytest

from repro.core.concurrent import ConcurrentDILI


def _keys(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.unique(rng.uniform(0, 1e9, n))


class TestBasicOperations:
    def test_single_threaded_semantics(self):
        keys = _keys(1000)
        index = ConcurrentDILI()
        index.bulk_load(keys)
        assert len(index) == len(keys)
        assert index.get(float(keys[10])) == 10
        assert index.insert(0.5, "x")
        assert not index.insert(0.5, "y")
        assert index.delete(0.5)
        assert not index.delete(0.5)
        assert float(keys[3]) in index
        index.index.validate()

    def test_empty_index(self):
        index = ConcurrentDILI()
        assert index.get(1.0) is None
        assert not index.delete(1.0)
        assert index.insert(1.0, "a")
        assert index.get(1.0) == "a"

    def test_range_query(self):
        index = ConcurrentDILI()
        index.bulk_load(np.arange(0.0, 100.0))
        got = [k for k, _ in index.range_query(10.0, 15.0)]
        assert got == [10.0, 11.0, 12.0, 13.0, 14.0]

    def test_insert_many(self):
        index = ConcurrentDILI()
        index.bulk_load(np.arange(0.0, 10.0))
        added = index.insert_many([(100.0, "a"), (5.0, "dup"), (101.0, "b")])
        assert added == 2

    def test_rejects_bad_stripes(self):
        with pytest.raises(ValueError):
            ConcurrentDILI(stripes=0)

    def test_update(self):
        index = ConcurrentDILI()
        index.bulk_load(np.arange(0.0, 100.0))
        assert index.update(5.0, "new")
        assert index.get(5.0) == "new"
        assert not index.update(1000.0, "absent")
        assert ConcurrentDILI().update(1.0, "empty") is False

    def test_bulk_insert(self):
        index = ConcurrentDILI()
        index.bulk_load(np.arange(0.0, 100.0))
        added = index.bulk_insert([200.5, 201.5, 5.0], ["a", "b", "dup"])
        assert added == 2
        assert index.get(200.5) == "a"
        assert len(index) == 102
        index.index.validate()

    def test_adopts_existing_index(self):
        from repro import DILI

        inner = DILI()
        inner.bulk_load(np.arange(0.0, 50.0))
        index = ConcurrentDILI(index=inner)
        assert len(index) == 50
        assert index.index is inner

    def test_items_snapshot(self):
        index = ConcurrentDILI()
        index.bulk_load(np.arange(0.0, 10.0))
        assert [k for k, _ in index.items()] == list(np.arange(0.0, 10.0))


class TestConcurrency:
    def test_parallel_inserts_are_all_applied(self):
        base = _keys(2000, seed=1)
        index = ConcurrentDILI()
        index.bulk_load(base)
        extra = np.setdiff1d(_keys(4000, seed=2), base)
        chunks = np.array_split(extra, 8)
        errors = []

        def worker(chunk):
            try:
                for k in chunk:
                    assert index.insert(float(k), "t")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(c,)) for c in chunks]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(index) == len(base) + len(extra)
        for k in extra[::97]:
            assert index.get(float(k)) == "t"
        index.index.validate()

    def test_mixed_readers_and_writers(self):
        base = _keys(3000, seed=3)
        index = ConcurrentDILI()
        index.bulk_load(base)
        extra = np.setdiff1d(_keys(2000, seed=4), base)
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    for k in base[::201]:
                        assert index.get(float(k)) is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def writer(chunk):
            try:
                for k in chunk:
                    index.insert(float(k), "w")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [
            threading.Thread(target=writer, args=(c,))
            for c in np.array_split(extra, 4)
        ]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert not errors
        assert len(index) == len(base) + len(extra)
        index.index.validate()

    def test_parallel_point_inserts_keep_the_published_plan(self):
        """Stripe-locked writers on different leaves each decide patch
        vs splice from their own insert; one writer's nested-leaf spawn
        must not turn another's insert into a plan drop (which would
        make the next batch read recompile the whole plan)."""
        base = _keys(5000, seed=11)
        index = ConcurrentDILI()
        index.bulk_load(base)
        index.get_batch(base[:64])  # compile + publish the plan
        inner = index.index
        recompiles = inner.plan_recompiles
        fresh = np.setdiff1d(_keys(400, seed=12), base)[:200]
        barrier = threading.Barrier(2)
        errors = []

        def worker(chunk):
            try:
                barrier.wait()
                for k in chunk:
                    assert index.insert(float(k), "fresh")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(c,))
            for c in (fresh[0::2], fresh[1::2])
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the writers finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert inner.peek_plan() is not None
        assert index.get_batch(fresh) == ["fresh"] * len(fresh)
        assert inner.plan_recompiles == recompiles
        inner.validate()

    def test_point_writers_never_patch_a_published_plan(self):
        """A plan version one point writer installed is patched in
        place by another until it is published; publishing it under the
        plan mutex keeps those patches off every plan a lock-free
        reader can pin, so no batch read sees a half-patched table."""
        base = _keys(5000, seed=13)
        index = ConcurrentDILI()
        index.bulk_load(base)
        index.get_batch(base[:64])  # compile + publish the plan
        fresh = np.setdiff1d(_keys(2000, seed=14), base)[:1000]
        probe = base[::7]
        expected = list(range(0, len(base), 7))
        stop = threading.Event()
        errors = []
        reads = [0, 0]

        def reader(r):
            try:
                while not stop.is_set():
                    if index.get_batch(probe) != expected:
                        raise AssertionError(
                            "lock-free batch read saw a half-patched plan"
                        )
                    reads[r] += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def writer(chunk):
            try:
                for k in chunk:
                    assert index.insert(float(k), "fresh")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        readers = [threading.Thread(target=reader, args=(r,)) for r in (0, 1)]
        writers = [
            threading.Thread(target=writer, args=(c,))
            for c in (fresh[0::2], fresh[1::2])
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in readers + writers:
                t.start()
            for t in writers:
                t.join(timeout=120)
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=120)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + writers)
        assert not errors, errors[0]
        assert min(reads) > 0
        assert index.get_batch(fresh) == ["fresh"] * len(fresh)
        index.index.validate()

    def test_concurrent_deletes_remove_exactly_once(self):
        base = _keys(2000, seed=5)
        index = ConcurrentDILI()
        index.bulk_load(base)
        victims = base[::2]
        deleted = []
        lock = threading.Lock()

        def worker():
            count = 0
            for k in victims:
                if index.delete(float(k)):
                    count += 1
            with lock:
                deleted.append(count)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Each victim key is deleted by exactly one thread overall.
        assert sum(deleted) == len(victims)
        assert len(index) == len(base) - len(victims)
        index.index.validate()


class TestVerifiedLocking:
    def test_point_ops_race_whole_tree_rebuilds(self):
        """The lock-verification protocol: bulk rebuilds swap the tree
        out from under the lock-free descent, so the stripe computed
        before acquisition can guard a dead leaf.  Verified acquisition
        must re-descend and retry; no op may be lost or crash."""
        base = _keys(1500, seed=20)
        index = ConcurrentDILI(stripes=16)
        index.bulk_load(base)
        extra = np.setdiff1d(_keys(1500, seed=21), base)
        stop = threading.Event()
        errors = []

        def rebuilder():
            try:
                # Large batches force the merge-and-rebulk-load path,
                # replacing every node object in the tree.
                batch = np.setdiff1d(_keys(4000, seed=22), base)
                while not stop.is_set():
                    index.bulk_insert(batch[:900], ["rb"] * 900)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def pointops(chunk):
            try:
                for k in chunk:
                    assert index.insert(float(k), "p")
                    assert index.get(float(k)) == "p"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        rb = threading.Thread(target=rebuilder)
        workers = [
            threading.Thread(target=pointops, args=(c,))
            for c in np.array_split(extra, 3)
        ]
        rb.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        stop.set()
        rb.join()
        assert not errors
        for k in extra[::53]:
            assert index.get(float(k)) == "p"
        index.index.validate()

    def test_exclusive_blocks_point_ops(self):
        index = ConcurrentDILI(stripes=8)
        index.bulk_load(np.arange(0.0, 100.0))
        entered = threading.Event()
        release = threading.Event()
        order = []

        def holder():
            with index.exclusive():
                entered.set()
                release.wait(timeout=5)
                order.append("exclusive-done")

        def writer():
            entered.wait(timeout=5)
            index.insert(1000.5, "w")
            order.append("write-done")

        h = threading.Thread(target=holder)
        w = threading.Thread(target=writer)
        h.start()
        w.start()
        entered.wait(timeout=5)
        import time as _time

        _time.sleep(0.05)  # give the writer a chance to (wrongly) run
        release.set()
        h.join()
        w.join()
        assert order == ["exclusive-done", "write-done"]


class TestLockStats:
    def test_empty_tree_locked_escalates_and_is_counted(self):
        """locked() on an empty tree finds no leaf to lock (the
        ``leaf is None`` break) and must fall back to exclusive();
        the fallback is no longer silent."""
        index = ConcurrentDILI()
        stats = index.lock_stats
        assert {stats[k] for k in ("acquisitions", "retries", "escalations")} \
            == {0}
        # The epoch-publication counters ride along in the same dict.
        for key in ("plan_publishes", "plans_retired", "epoch_pins"):
            assert stats[key] == 0
        assert index.insert(1.0, "first")
        assert index.lock_stats["escalations"] == 1
        assert index.lock_stats["acquisitions"] == 0
        # With a leaf present, verified acquisition succeeds normally.
        assert index.insert(2.0, "second")
        assert index.lock_stats["acquisitions"] == 1
        assert index.lock_stats["escalations"] == 1

    def test_single_key_tree_point_ops_use_verified_acquisition(self):
        index = ConcurrentDILI()
        index.bulk_load(np.array([10.0]))
        assert index.get(10.0) == 0
        assert index.get(11.0) is None  # miss still locks the owner leaf
        assert index.update(10.0, "x")
        assert index.delete(10.0)
        assert index.lock_stats["acquisitions"] == 4
        assert index.lock_stats["escalations"] == 0
        # The root leaf persists after the delete (empty, not None), so
        # the next point write still verifies instead of escalating.
        assert index.insert(5.0, "y")
        assert index.lock_stats["acquisitions"] == 5
        assert index.lock_stats["escalations"] == 0

    def test_exclusive_partial_acquisition_unwinds(self):
        """A stripe lock that raises mid-acquisition must not leave the
        earlier stripes (or the global lock) held."""

        class Boom(RuntimeError):
            pass

        events = []

        class TrackingLock:
            def __init__(self, inner, name):
                self.inner = inner
                self.name = name
                self.fail_next = False

            def acquire(self, *args, **kwargs):
                if self.fail_next:
                    self.fail_next = False
                    raise Boom(self.name)
                result = self.inner.acquire(*args, **kwargs)
                events.append(("acquire", self.name))
                return result

            def release(self):
                self.inner.release()
                events.append(("release", self.name))

            def __enter__(self):
                self.acquire()
                return self

            def __exit__(self, *exc):
                self.release()

        index = ConcurrentDILI(stripes=8)
        index.bulk_load(np.arange(0.0, 100.0))
        wrappers = {}

        def wrap(lock, name):
            wrappers[name] = TrackingLock(lock, name)
            return wrappers[name]

        index.instrument_locks(wrap)
        wrappers["stripe[3]"].fail_next = True
        events.clear()

        with pytest.raises(Boom):
            with index.exclusive():
                pass  # pragma: no cover - never reached

        # Stripes 0..2 were acquired and released in reverse order;
        # stripe 3 raised before touching its inner lock; the global
        # lock unwound through its context manager.
        assert events == [
            ("acquire", "global"),
            ("acquire", "stripe[0]"),
            ("acquire", "stripe[1]"),
            ("acquire", "stripe[2]"),
            ("release", "stripe[2]"),
            ("release", "stripe[1]"),
            ("release", "stripe[0]"),
            ("release", "global"),
        ]

        # Nothing is left held: point ops and full exclusive sections
        # proceed, including on the stripe that raised.
        assert index.insert(1000.5, "after")
        with index.exclusive():
            pass
        assert ("acquire", "stripe[3]") in events


class TestConcurrentRangeAndMixedOps:
    def test_range_queries_during_writes_are_consistent_snapshots(self):
        """Scans run under exclusive() (stripe-locked point writers
        would otherwise mutate a leaf mid-scan), so each one must see a
        sorted, duplicate-free view containing every base key in range
        even while writers run."""
        base = _keys(2000, seed=7)
        index = ConcurrentDILI()
        index.bulk_load(base)
        extra = np.setdiff1d(_keys(2000, seed=8), base)
        stop = threading.Event()
        errors = []
        lo, hi = float(base[100]), float(base[900])
        base_in_range = set(base[(base >= lo) & (base < hi)])  # [lo, hi)

        def scanner():
            try:
                while not stop.is_set():
                    pairs = index.range_query(lo, hi)
                    keys_only = [k for k, _ in pairs]
                    assert keys_only == sorted(set(keys_only))
                    # No writer deletes, so an exclusive scan can never
                    # miss a base key that falls inside the range.
                    assert base_in_range.issubset(keys_only)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def writer(chunk):
            try:
                for k in chunk:
                    index.insert(float(k), "w")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        scan_threads = [threading.Thread(target=scanner) for _ in range(2)]
        write_threads = [
            threading.Thread(target=writer, args=(c,))
            for c in np.array_split(extra, 3)
        ]
        for t in scan_threads + write_threads:
            t.start()
        for t in write_threads:
            t.join()
        stop.set()
        for t in scan_threads:
            t.join()
        assert not errors
        index.index.validate()

    def test_items_during_writes_is_consistent_snapshot(self):
        """items() is exclusive too: every snapshot it returns must be
        sorted, duplicate-free, and a superset of the base keys."""
        base = _keys(1500, seed=9)
        index = ConcurrentDILI()
        index.bulk_load(base)
        extra = np.setdiff1d(_keys(1500, seed=10), base)
        stop = threading.Event()
        errors = []
        base_set = set(base)

        def scanner():
            try:
                while not stop.is_set():
                    keys_only = [k for k, _ in index.items()]
                    assert keys_only == sorted(set(keys_only))
                    assert base_set.issubset(keys_only)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def writer(chunk):
            try:
                for k in chunk:
                    index.insert(float(k), "w")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        scan_thread = threading.Thread(target=scanner)
        write_threads = [
            threading.Thread(target=writer, args=(c,))
            for c in np.array_split(extra, 3)
        ]
        scan_thread.start()
        for t in write_threads:
            t.start()
        for t in write_threads:
            t.join()
        stop.set()
        scan_thread.join()
        assert not errors
        assert len(index) == len(base) + len(extra)
        index.index.validate()

    def test_interleaved_insert_delete_get_across_threads(self):
        base = _keys(3000, seed=9)
        index = ConcurrentDILI()
        index.bulk_load(base)
        victims = base[::3]
        extra = np.setdiff1d(_keys(3000, seed=10), base)
        errors = []

        def deleter():
            try:
                for k in victims:
                    index.delete(float(k))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def inserter():
            try:
                for k in extra:
                    assert index.insert(float(k), "i")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def getter():
            try:
                survivors = np.setdiff1d(base, victims)
                for k in survivors[::7]:
                    assert index.get(float(k)) is not None
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=f)
            for f in (deleter, inserter, getter, getter)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(index) == len(base) - len(victims) + len(extra)
        index.index.validate()
