"""Tests for the concurrent wrapper (Appendix A.8, one writer lock)."""

import sys
import threading

import numpy as np

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
        """Interleaved point writers each decide patch vs splice from
        their own insert; one writer's nested-leaf spawn must not turn
        another's insert into a plan drop (which would make the next
        batch read recompile the whole plan)."""
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
        """Two point writers maintain the published plan while two
        batch readers descend it lock-free.  No plan changes once
        built, so no batch read sees a half-patched table."""
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
    """Point ops racing whole-tree rebuilds, and exclusive() keeping
    point writers out, under the one writer lock."""

    def test_point_ops_race_whole_tree_rebuilds(self):
        """Bulk rebuilds swap the whole tree while point writers and
        point reads run; no op may be lost or crash."""
        base = _keys(1500, seed=20)
        index = ConcurrentDILI()
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
        index = ConcurrentDILI()
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


class TestLockFreePointReads:
    def test_point_reads_do_not_wait_for_the_writer_lock(self):
        """With a plan published, ``get`` and ``in`` answer from it
        while another thread holds exclusive(), and count as plan
        reads."""
        keys = _keys(2000, seed=15)
        index = ConcurrentDILI()
        index.bulk_load(keys)
        index.get_batch(keys[:8])  # compile + publish the plan
        key = float(keys[7])
        held = threading.Event()
        release = threading.Event()
        answers = []

        def holder():
            with index.exclusive():
                held.set()
                release.wait(timeout=30)

        def reader():
            answers.append(index.get(key))
            answers.append(key in index)
            answers.append(index.get(key + 0.5))

        h = threading.Thread(target=holder)
        r = threading.Thread(target=reader)
        h.start()
        try:
            assert held.wait(timeout=5)
            reads = index.lock_stats["plan_reads"]
            r.start()
            r.join(timeout=5)
            assert not r.is_alive(), "point read waited for the lock"
            assert answers == [7, True, None]
            assert index.lock_stats["plan_reads"] == reads + 3
        finally:
            release.set()
            h.join()
            if r.ident is not None:
                r.join()

    def test_point_reads_race_point_writers(self):
        """Two writers insert (and read each insert back) while two
        readers get base keys, all lock-free against the published
        plan: no read misses, and the shared ``plan_reads`` counter
        counts every one of them exactly once."""
        base = _keys(5000, seed=17)
        index = ConcurrentDILI()
        index.bulk_load(base)
        index.get_batch(base[:8])  # compile + publish the plan
        fresh = np.setdiff1d(_keys(2000, seed=18), base)[:600]
        reads = index.lock_stats["plan_reads"]
        stop = threading.Event()
        errors = []
        gets = [0, 0, 0, 0]

        def reader(r):
            try:
                n = 0
                while not stop.is_set():
                    for k in base[r::97]:
                        if index.get(float(k)) is None:
                            raise AssertionError(f"base key {k!r} missed")
                        n += 1
                gets[r] = n
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def writer(w, chunk):
            try:
                for k in chunk:
                    assert index.insert(float(k), "fresh")
                    assert index.get(float(k)) == "fresh"
                gets[2 + w] = len(chunk)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        readers = [threading.Thread(target=reader, args=(r,)) for r in (0, 1)]
        writers = [
            threading.Thread(target=writer, args=(w, fresh[w::2]))
            for w in (0, 1)
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
        assert index.index.peek_plan() is not None
        assert index.lock_stats["plan_reads"] - reads == sum(gets)
        assert len(index) == len(base) + len(fresh)
        index.index.validate()

    def test_point_reads_without_a_plan_answer_from_the_tree(self):
        keys = _keys(500, seed=16)
        index = ConcurrentDILI()
        index.bulk_load(keys)
        assert index.published_plan_version is None
        assert index.get(float(keys[3])) == 3
        assert float(keys[4]) in index
        assert index.lock_stats["plan_reads"] == 0


class TestLockStats:
    def test_empty_tree_locked_escalates_and_is_counted(self):
        """Point writes into an empty tree run under the writer lock,
        and the publication counters start at zero."""
        index = ConcurrentDILI()
        stats = index.lock_stats
        for key in ("plan_publishes", "plan_reads"):
            assert stats[key] == 0
        assert index.insert(1.0, "first")
        assert index.insert(2.0, "second")

    def test_single_key_tree_point_ops_use_verified_acquisition(self):
        """Point ops on a one-key tree answer like the plain index."""
        index = ConcurrentDILI()
        index.bulk_load(np.array([10.0]))
        assert index.get(10.0) == 0
        assert index.get(11.0) is None
        assert index.update(10.0, "x")
        assert index.delete(10.0)
        # The root leaf persists after the delete (empty, not None).
        assert index.insert(5.0, "y")


class TestConcurrentRangeAndMixedOps:
    def test_range_queries_during_writes_are_consistent_snapshots(self):
        """Scans run under exclusive() (point writers would otherwise
        mutate a leaf mid-scan), so each one must see a
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
