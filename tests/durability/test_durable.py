"""DurableDILI: logged mutations survive reopen; checkpoints bound replay."""

import threading

import numpy as np
import pytest

from repro import DurableDILI
from repro.durability import recover


def _keys(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.unique(rng.uniform(0, 1e9, n))


class TestReopen:
    def test_operations_survive_close_and_reopen(self, tmp_path):
        with DurableDILI(tmp_path) as d:
            d.bulk_load(np.arange(0.0, 500.0))
            assert d.insert(1000.5, "a")
            assert d.delete(13.0)
            assert d.update(1000.5, "b")
            assert not d.update(99999.0, "absent")
            expected = dict(d.items())
        with DurableDILI(tmp_path) as d2:
            assert dict(d2.items()) == expected
            assert d2.get(1000.5) == "b"
            d2.validate()

    def test_kill_without_close_loses_nothing(self, tmp_path):
        d = DurableDILI(tmp_path)
        d.bulk_load(np.arange(0.0, 300.0))
        for i in range(40):
            assert d.insert(5000.0 + i, i)
        expected = dict(d.items())
        d.wal.close()  # simulate kill-9: no snapshot, no graceful close
        result = recover(tmp_path)
        assert dict(result.index.items()) == expected

    def test_bulk_load_is_checkpointed_immediately(self, tmp_path):
        d = DurableDILI(tmp_path)
        d.bulk_load(_keys(2_000))
        d.wal.close()  # kill before any explicit snapshot
        result = recover(tmp_path)
        assert len(result.index) == 2_000
        assert result.replayed == 0  # all in the snapshot, none in WAL

    def test_bulk_insert_is_logged(self, tmp_path):
        d = DurableDILI(tmp_path)
        d.bulk_load(np.arange(0.0, 100.0))
        added = d.bulk_insert([200.5, 201.5, 50.0], ["x", "y", "dup"])
        assert added == 2
        d.wal.close()
        result = recover(tmp_path)
        assert len(result.index) == 102
        assert result.index.get(200.5) == "x"
        assert result.index.get(50.0) == 50  # existing key kept its value

    def test_snapshot_truncates_wal(self, tmp_path):
        d = DurableDILI(tmp_path)
        d.bulk_load(np.arange(0.0, 100.0))
        for i in range(20):
            d.insert(1000.0 + i, i)
        assert len(d.wal) == 20
        d.snapshot()
        assert len(d.wal) == 0
        d.insert(2000.5, "after")
        d.close()
        result = recover(tmp_path)
        assert result.replayed == 1  # only the post-snapshot insert
        assert len(result.index) == 121

    def test_seqnos_continue_across_reopen(self, tmp_path):
        with DurableDILI(tmp_path) as d:
            d.insert(1.0, "a")
            d.insert(2.0, "b")
            first_last = d.wal.last_seqno
        with DurableDILI(tmp_path) as d2:
            d2.insert(3.0, "c")
            assert d2.wal.last_seqno == first_last + 1

    def test_empty_directory_starts_empty(self, tmp_path):
        with DurableDILI(tmp_path) as d:
            assert len(d) == 0
            assert d.get(1.0) is None
            assert d.insert(1.0, "x")
            assert 1.0 in d

    def test_delete_of_absent_key_is_harmless(self, tmp_path):
        with DurableDILI(tmp_path) as d:
            d.bulk_load(np.arange(0.0, 50.0))
            assert not d.delete(999.0)
        with DurableDILI(tmp_path) as d2:
            assert len(d2) == 50
            d2.validate()


class TestRejectedBatches:
    """A batch DILI would reject must never reach the WAL: a durably
    logged poison record would fail replay identically on every reopen
    and leave the state directory permanently unopenable."""

    def test_duplicate_keys_rejected_before_logging(self, tmp_path):
        with DurableDILI(tmp_path) as d:
            d.bulk_load(np.arange(0.0, 50.0))
            with pytest.raises(ValueError, match="unique"):
                d.bulk_insert([5.0, 5.0], ["a", "b"])
            assert len(d.wal) == 0  # nothing was logged
        with DurableDILI(tmp_path) as d2:  # directory still opens
            assert len(d2) == 50
            d2.validate()

    def test_mismatched_values_rejected_before_logging(self, tmp_path):
        with DurableDILI(tmp_path) as d:
            d.bulk_load(np.arange(0.0, 50.0))
            with pytest.raises(ValueError, match="length"):
                d.bulk_insert([100.5, 200.5], ["only-one"])
            assert len(d.wal) == 0
        with DurableDILI(tmp_path) as d2:
            assert len(d2) == 50
            d2.validate()


class TestConcurrentComposition:
    def test_threaded_inserts_all_recovered(self, tmp_path):
        base = _keys(1_000, seed=1)
        d = DurableDILI(tmp_path, concurrent=True, sync=False)
        d.bulk_load(base)
        extra = np.setdiff1d(_keys(1_200, seed=2), base)
        chunks = np.array_split(extra, 4)
        errors = []

        def worker(chunk):
            try:
                for k in chunk:
                    assert d.insert(float(k), "t")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(c,)) for c in chunks
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(d) == len(base) + len(extra)
        d.sync_wal()
        d.validate()
        d.wal.close()
        result = recover(tmp_path)
        assert len(result.index) == len(base) + len(extra)
        for k in extra[::37]:
            assert result.index.get(float(k)) == "t"

    def test_snapshot_races_with_writers(self, tmp_path):
        base = _keys(800, seed=3)
        d = DurableDILI(tmp_path, concurrent=True, sync=False)
        d.bulk_load(base)
        extra = np.setdiff1d(_keys(900, seed=4), base)
        errors = []

        def writer(chunk):
            try:
                for k in chunk:
                    d.insert(float(k), "w")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def snapshotter():
            try:
                for _ in range(5):
                    d.snapshot()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(c,))
            for c in np.array_split(extra, 3)
        ]
        threads.append(threading.Thread(target=snapshotter))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        d.sync_wal()
        d.wal.close()
        result = recover(tmp_path)
        assert len(result.index) == len(base) + len(extra)
        result.index.validate()

    def test_long_batch_read_does_not_block_logged_write(self, tmp_path):
        """A reader holding the published plan never stalls a logged
        write."""
        base = _keys(1_000, seed=5)
        d = DurableDILI(tmp_path, concurrent=True, sync=False)
        d.bulk_load(base, list(range(len(base))))
        d.get_batch(base[:4])  # compile + publish the plan
        extra = np.setdiff1d(_keys(1_100, seed=6), base)[:64]

        holding = threading.Event()
        release = threading.Event()
        snapshot_out = []

        def long_reader():
            plan = d.index._published
            assert plan is not None
            holding.set()
            # Hold the plan across the whole write below; the
            # snapshot stays readable the entire time.
            assert release.wait(timeout=30)
            snapshot_out.append(plan.get_batch(base[:8]))

        written = threading.Event()

        def logged_writer():
            assert bool(np.all(d.insert_batch(extra, ["w"] * len(extra))))
            written.set()

        reader = threading.Thread(target=long_reader)
        reader.start()
        assert holding.wait(timeout=30)
        writer = threading.Thread(target=logged_writer)
        writer.start()
        writer.join(timeout=30)
        # The write must finish while the reader still holds it -- if
        # batch reads still took locks, the writer would be parked
        # here until ``release`` fires and the join would time out.
        assert written.is_set() and not release.is_set()
        release.set()
        reader.join(timeout=30)
        assert snapshot_out == [list(range(8))]

        d.sync_wal()
        d.wal.close()
        result = recover(tmp_path)  # the concurrent write was logged
        assert len(result.index) == len(base) + len(extra)

    def test_exclusive_writer_does_not_block_published_read(
        self, tmp_path
    ):
        """Batch reads descend the published plan past a locked writer."""
        base = _keys(1_000, seed=7)
        d = DurableDILI(tmp_path, concurrent=True, sync=False)
        d.bulk_load(base, list(range(len(base))))
        d.get_batch(base[:4])  # compile + publish the plan

        holding = threading.Event()
        release = threading.Event()

        def exclusive_holder():
            with d.index.exclusive():
                holding.set()
                assert release.wait(timeout=30)

        got = []

        def reader():
            got.append(d.get_batch(base[:16]))

        holder = threading.Thread(target=exclusive_holder)
        holder.start()
        assert holding.wait(timeout=30)
        t = threading.Thread(target=reader)
        t.start()
        t.join(timeout=30)
        # The read returns while the exclusive lock is still held.
        assert got == [list(range(16))] and not release.is_set()
        release.set()
        holder.join(timeout=30)
        d.close()
