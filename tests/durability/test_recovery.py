"""Recovery protocol: snapshot + WAL tail, stopping at corruption."""

import os
import pickle

import numpy as np
import pytest

from repro import DILI, DurableDILI
from repro.check.errors import InvariantError
from repro.data import load_dataset
from repro.durability.recovery import (
    SNAPSHOT_NAME,
    WAL_NAME,
    recover,
)
from repro.durability.snapshot import SnapshotError, write_snapshot
from repro.durability.wal import (
    OP_BULK_INSERT,
    OP_DELETE,
    OP_INSERT,
    WriteAheadLog,
)
from repro.faults import FaultRegistry


def _args(*a):
    return pickle.dumps(a, protocol=pickle.HIGHEST_PROTOCOL)


def _seed_dir(tmp_path, n=1_000):
    """Snapshot of n keys at seqno 0, plus an open WAL."""
    keys = np.arange(0.0, float(n))
    index = DILI()
    index.bulk_load(keys)
    write_snapshot(index, tmp_path / SNAPSHOT_NAME, last_seqno=0)
    return keys


class TestRecoverPaths:
    def test_empty_directory_recovers_empty_index(self, tmp_path):
        result = recover(tmp_path)
        assert len(result.index) == 0
        assert result.snapshot_seqno == 0 and result.replayed == 0

    def test_wal_only_no_snapshot(self, tmp_path):
        with WriteAheadLog(tmp_path / WAL_NAME) as wal:
            for k in (5.0, 2.0, 9.0):
                wal.append(OP_INSERT, _args(k, f"v{k}"))
            wal.append(OP_DELETE, _args(2.0))
        result = recover(tmp_path)
        assert sorted(k for k, _ in result.index.items()) == [5.0, 9.0]
        assert result.replayed == 4 and result.snapshot_seqno == 0

    def test_snapshot_plus_wal_tail(self, tmp_path):
        _seed_dir(tmp_path, 1_000)
        with WriteAheadLog(tmp_path / WAL_NAME) as wal:
            wal.append(OP_INSERT, _args(5000.5, "tail"))
            wal.append(OP_DELETE, _args(17.0))
        result = recover(tmp_path)
        assert len(result.index) == 1_000  # +1 insert, -1 delete
        assert result.index.get(5000.5) == "tail"
        assert result.index.get(17.0) is None
        assert result.replayed == 2

    def test_skips_records_already_in_snapshot(self, tmp_path):
        """Crash between snapshot rename and WAL truncation: stale
        records at or below the snapshot seqno must not replay twice."""
        with WriteAheadLog(tmp_path / WAL_NAME) as wal:
            wal.append(OP_INSERT, _args(1.0, "a"))   # seqno 1
            wal.append(OP_INSERT, _args(2.0, "b"))   # seqno 2
            wal.append(OP_DELETE, _args(1.0))        # seqno 3
        index = DILI()
        index.insert(2.0, "b")
        write_snapshot(index, tmp_path / SNAPSHOT_NAME, last_seqno=3)
        result = recover(tmp_path)
        assert result.skipped == 3 and result.replayed == 0
        assert result.index.get(1.0) is None  # the delete is not undone
        assert result.next_seqno == 4

    def test_stops_at_torn_wal_tail(self, tmp_path):
        _seed_dir(tmp_path, 100)
        with WriteAheadLog(tmp_path / WAL_NAME) as wal:
            wal.append(OP_INSERT, _args(1000.5, "ok"))
            wal.append(OP_INSERT, _args(2000.5, "torn"))
        wal_path = tmp_path / WAL_NAME
        wal_path.write_bytes(wal_path.read_bytes()[:-4])
        result = recover(tmp_path)
        assert result.index.get(1000.5) == "ok"
        assert result.index.get(2000.5) is None
        assert result.wal_truncated and result.replayed == 1
        result.index.validate()

    def test_failing_record_is_skipped_not_fatal(self, tmp_path):
        """A logged-but-rejected op (e.g. a duplicate-key bulk_insert
        written by a pre-validation build) must not make the directory
        unopenable; the records behind it still replay."""
        with WriteAheadLog(tmp_path / WAL_NAME) as wal:
            wal.append(OP_INSERT, _args(1.0, "a"))
            wal.append(OP_BULK_INSERT, _args([5.0, 5.0], None))  # poison
            wal.append(OP_INSERT, _args(2.0, "b"))
        result = recover(tmp_path)
        assert result.failed == 1
        assert result.replayed == 2
        assert result.index.get(1.0) == "a"
        assert result.index.get(2.0) == "b"
        assert result.index.get(5.0) is None
        result.index.validate()

    def test_corrupt_snapshot_refused(self, tmp_path):
        _seed_dir(tmp_path, 200)
        snap = tmp_path / SNAPSHOT_NAME
        raw = bytearray(snap.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        snap.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError):
            recover(tmp_path)

    def test_snapshot_of_wrong_object_refused(self, tmp_path):
        write_snapshot({"not": "an index"}, tmp_path / SNAPSHOT_NAME)
        with pytest.raises(SnapshotError, match="does not contain"):
            recover(tmp_path)

    def test_snapshot_with_poisoned_internal_model_refused(self, tmp_path):
        # A checkpoint taken after in-memory damage: the snapshot's CRC
        # is sound, so only the deep check can refuse it.  A recovery
        # that accepted it would answer about half of these keys wrong.
        keys = load_dataset("logn", 4_000, seed=0)
        durable = DurableDILI(tmp_path)
        durable.bulk_load(keys, list(range(len(keys))))
        fault = FaultRegistry().inject(
            "internal_model", durable.index, np.random.default_rng(0)
        )
        assert fault is not None
        durable.snapshot()
        durable.close()
        with pytest.raises(InvariantError, match="equal-width model"):
            recover(tmp_path)

    def test_recover_is_read_only(self, tmp_path):
        _seed_dir(tmp_path, 100)
        with WriteAheadLog(tmp_path / WAL_NAME) as wal:
            wal.append(OP_INSERT, _args(999.5, "x"))
        before = {
            name: (tmp_path / name).read_bytes()
            for name in os.listdir(tmp_path)
        }
        recover(tmp_path)
        after = {
            name: (tmp_path / name).read_bytes()
            for name in os.listdir(tmp_path)
        }
        assert before == after

    def test_recovered_index_validates_and_serves(self, tmp_path):
        keys = _seed_dir(tmp_path, 500)
        with WriteAheadLog(tmp_path / WAL_NAME) as wal:
            for i in range(50):
                wal.append(OP_INSERT, _args(10_000.0 + i, i))
        result = recover(tmp_path, validate=True)
        assert result.index.get(float(keys[123])) == 123
        assert result.index.get(10_049.0) == 49
        got = result.index.range_query(10_000.0, 10_010.0)
        assert [k for k, _ in got] == [10_000.0 + i for i in range(10)]
