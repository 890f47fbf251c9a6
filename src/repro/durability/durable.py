"""``DurableDILI``: write-ahead logged, snapshot-checkpointed DILI.

The wrapper keeps the paper's index untouched and adds the durability
contract around it:

* every mutation (``insert`` / ``delete`` / ``update`` /
  ``bulk_insert``, and the vectorized ``insert_batch`` /
  ``delete_batch`` / ``update_batch``, each logged as a single framed
  batch record) is appended to the WAL -- CRC-framed and, by
  default, fsynced -- *before* it is applied in memory.  An operation
  is **acknowledged** when the call returns; by then its record is
  durable, so an acknowledged write can never be lost.  An operation
  interrupted mid-call may or may not have reached the log and is
  recovered all-or-nothing.  A call the index would refuse (a
  non-finite key, a repeated ``bulk_insert`` key) raises before
  anything is logged, so a refused call leaves no record behind.
* :meth:`snapshot` checkpoints the full index atomically (temp +
  fsync + rename) and then truncates the WAL, bounding recovery time.
* opening a directory re-runs :func:`repro.durability.recovery.recover`
  (snapshot + WAL-tail replay + ``validate()``) and trims any torn WAL
  tail before accepting new appends.

Composition: with ``concurrent=True`` the inner index is a
:class:`~repro.core.concurrent.ConcurrentDILI` and each log+apply pair
runs under its writer lock, so WAL order is apply order.

Reads are never logged and -- with ``concurrent=True`` -- they are
also **lock-free** whenever a plan is published: ``get`` / ``in`` and
the batch reads (``get_batch`` / ``contains_batch`` / ``count_range``
/ ``count_range_batch``) descend the flat plan the wrapper last
published (see :mod:`repro.core.concurrent`), so a read neither
blocks a concurrent logged write nor waits for one.  Each mutator
republishes the maintained plan before acknowledging, so an
acknowledged write is visible to every subsequent read.
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import NamedTuple

import numpy as np

from repro.core.concurrent import ConcurrentDILI
from repro.core.dili import DILI, DiliConfig, check_batch_keys, check_key
from repro.durability.faultpoints import NULL_FAULTS, FaultInjector
from repro.durability.recovery import (
    SNAPSHOT_NAME,
    WAL_NAME,
    RecoveryResult,
    recover,
)
from repro.durability.snapshot import write_snapshot
from repro.durability.wal import (
    LOCK_NAME,
    OP_BULK_INSERT,
    OP_DELETE,
    OP_DELETE_BATCH,
    OP_INSERT,
    OP_INSERT_BATCH,
    OP_UPDATE,
    OP_UPDATE_BATCH,
    WalCursor,
    WriteAheadLog,
    lock_writer,
    scan_wal,
    unlock_writer,
)


def _encode(*args) -> bytes:
    return pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL)


class _Chain(NamedTuple):
    """The plan chain a writer last published or walked, and what it
    trusts to still hold: :meth:`DurableDILI.publish_tail`'s memo.

    ``lsn`` is the chain's LSN and ``wal`` where the WAL records past
    it begin (None: at the log's start).  ``files`` is what
    :meth:`~repro.planstore.serve.PlanDirectory.chain_files` read for
    the base and deltas ``1..seq``.  ``snapshot_seqno`` is the
    snapshot's ``last_seqno`` then, and ``next_generation`` the number
    the next new base would take.
    """

    generation: int
    seq: int
    lsn: int
    wal: WalCursor | None
    files: tuple
    snapshot_seqno: int
    next_generation: int


class DurableDILI:
    """A DILI whose acknowledged writes survive kill-9.

    Typical use::

        index = DurableDILI("/var/lib/dili")   # recovers if state exists
        index.bulk_load(keys, values)          # checkpointed immediately
        index.insert(k, v)                     # durable once it returns
        index.snapshot()                       # truncate the WAL
        index.close()

    A directory has one writer: the open takes the directory's writer
    lock (:func:`repro.durability.wal.lock_writer`) before it reads
    anything, and :meth:`close` (or the process's death) releases it.

    Args:
        dirpath: State directory (created if missing) holding
            ``snapshot.dili``, ``wal.log`` and the lock file.
        config: Config for a fresh index when no snapshot exists yet.
        concurrent: Wrap the index in :class:`ConcurrentDILI` and
            serialize each log+apply under its writer lock.
        sync: fsync the WAL on every append (the durability guarantee;
            turn off only for benchmarks that batch with
            :meth:`sync_wal`).
        faults: Crash-point injector (tests only).

    Raises:
        WriterLockedError: Another writer holds the directory.
    """

    def __init__(
        self,
        dirpath,
        *,
        config: DiliConfig | None = None,
        concurrent: bool = False,
        sync: bool = True,
        faults: FaultInjector | None = None,
    ) -> None:
        self.dirpath = os.fspath(dirpath)
        os.makedirs(self.dirpath, exist_ok=True)
        self._faults = faults if faults is not None else NULL_FAULTS
        # One writer per directory, locked before recovery reads
        # anything; the log owns the lock from here on.
        lock = lock_writer(os.path.join(self.dirpath, LOCK_NAME))
        try:
            self.recovery: RecoveryResult = recover(
                self.dirpath, config=config
            )
            self.wal = WriteAheadLog(
                os.path.join(self.dirpath, WAL_NAME),
                sync=sync,
                min_next_seqno=self.recovery.next_seqno,
                faults=self._faults,
                lock=lock,
            )
        except BaseException:
            unlock_writer(lock)
            raise
        self._snap_path = os.path.join(self.dirpath, SNAPSHOT_NAME)
        self._concurrent = concurrent
        self._chain: _Chain | None = None
        self._plain = self.recovery.index
        if concurrent:
            self._index: DILI | ConcurrentDILI = ConcurrentDILI(
                index=self._plain
            )
        else:
            self._index = self._plain
            # Log+apply for a plain index still needs mutual exclusion
            # against a concurrent snapshot() from another thread.
            self._plain_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Lock plumbing
    # ------------------------------------------------------------------

    def _exclusive(self):
        if self._concurrent:
            return self._index.exclusive()
        return self._plain_lock

    # ------------------------------------------------------------------
    # Logged mutations (WAL first, then apply, then acknowledge)
    # ------------------------------------------------------------------

    def insert(self, key: float, value: object) -> bool:
        key = check_key(key)
        with self._exclusive():
            self.wal.append(OP_INSERT, _encode(key, value))
            return self._index.insert(key, value)

    def delete(self, key: float) -> bool:
        key = check_key(key)
        with self._exclusive():
            self.wal.append(OP_DELETE, _encode(key))
            return self._index.delete(key)

    def update(self, key: float, value: object) -> bool:
        key = check_key(key)
        with self._exclusive():
            self.wal.append(OP_UPDATE, _encode(key, value))
            return self._index.update(key, value)

    def insert_batch(
        self, keys: np.ndarray | list, values: list | None = None
    ) -> np.ndarray:
        """Vectorized insert, logged as one framed batch record.

        The whole batch is one WAL append (one frame, one fsync) and is
        acknowledged atomically: after a crash either every operation
        of the batch replays or none does.
        """
        keys = check_batch_keys(keys)
        if values is not None and len(values) != len(keys):
            raise ValueError("values must match keys in length")
        with self._exclusive():
            self.wal.append(OP_INSERT_BATCH, _encode(keys.tolist(), values))
            return self._index.insert_batch(keys, values)

    def delete_batch(self, keys: np.ndarray | list) -> np.ndarray:
        """Vectorized delete, logged as one framed batch record."""
        keys = check_batch_keys(keys)
        with self._exclusive():
            self.wal.append(OP_DELETE_BATCH, _encode(keys.tolist()))
            return self._index.delete_batch(keys)

    def update_batch(
        self, keys: np.ndarray | list, values: list
    ) -> np.ndarray:
        """Vectorized value update, logged as one framed batch record."""
        keys = check_batch_keys(keys)
        if len(values) != len(keys):
            raise ValueError("values must match keys in length")
        with self._exclusive():
            self.wal.append(OP_UPDATE_BATCH, _encode(keys.tolist(), values))
            return self._index.update_batch(keys, values)

    def bulk_insert(
        self, keys: np.ndarray | list, values: list | None = None
    ) -> int:
        keys = check_batch_keys(keys).tolist()
        # A batch DILI.bulk_insert would reject must never reach the
        # log: once appended the record is durable, and replay would
        # fail on it the same way, leaving the directory unopenable.
        if values is not None and len(values) != len(keys):
            raise ValueError("values must match keys in length")
        if len(set(keys)) != len(keys):
            raise ValueError("batch keys must be unique")
        with self._exclusive():
            self.wal.append(OP_BULK_INSERT, _encode(keys, values))
            return self._index.bulk_insert(keys, values)

    def bulk_load(
        self, keys: np.ndarray, values: list | None = None
    ) -> None:
        """Build from scratch and checkpoint immediately.

        Bulk loads are not logged (a 100M-key WAL record defeats the
        point); durability comes from the snapshot written before the
        call returns.
        """
        with self._exclusive():
            self._index.bulk_load(keys, values)
            self._chain = None
            self._snapshot_locked()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> None:
        """Atomically checkpoint the index and truncate the WAL."""
        with self._exclusive():
            self._snapshot_locked()

    def _snapshot_locked(self) -> None:
        # The tail memo survives its own checkpoint: the chain stays
        # current unless the snapshot passed its LSN (stale), and the
        # records past it now start at the truncated log's start.
        chain, self._chain = self._chain, None
        seqno = self.wal.last_seqno
        write_snapshot(
            self._plain,
            self._snap_path,
            last_seqno=seqno,
            faults=self._faults,
        )
        self._faults.fire("before_wal_truncate")
        self.wal.truncate()
        self._faults.fire("after_wal_truncate")
        if chain is not None and chain.lsn >= seqno:
            self._chain = chain._replace(wal=None, snapshot_seqno=seqno)

    def sync_wal(self) -> None:
        """fsync the WAL now (for ``sync=False`` batching)."""
        self.wal.sync_now()

    # ------------------------------------------------------------------
    # Plan publishing (repro.planstore)
    # ------------------------------------------------------------------

    def publish_plan(self) -> int:
        """Publish the compiled flat plan as a new base generation.

        Serializes the plan's SoA buffers into ``plans/`` (see
        :mod:`repro.planstore`) stamped with the current WAL LSN, so an
        :class:`~repro.planstore.serve.MmapDILI` can serve it zero-copy
        and bring it exactly current by tail replay.  The plan is the
        one the index maintains, or a compile the index does not keep
        (:meth:`~repro.core.dili.DILI.export_plan`).  Returns the new
        generation number.

        Raises:
            ValueError: The index is empty (nothing to compile).
        """
        from repro.planstore.serve import PlanDirectory

        with self._exclusive():
            plans = PlanDirectory.for_state_dir(self.dirpath)
            self._chain = None
            generation = plans.publish_base(
                self._plain.export_plan(),
                wal_lsn=self.wal.last_seqno,
                faults=self._faults,
            )
            self._chain = self._chain_at(
                plans, generation, 0, self.wal.last_seqno, self.wal.cursor,
                next_generation=generation + 1,
            )
            return generation

    def publish_tail(self) -> str | None:
        """Publish WAL records past the newest plan chain as one delta.

        Lets a writer keep published plans current without rewriting
        the base file: the delta carries the raw WAL op frames, which
        readers replay into their overlay.  Returns the delta path, or
        ``None`` when the chain is already at the WAL's LSN.  A delta
        only extends a chain whose
        :meth:`~repro.planstore.serve.PlanDirectory.walk` is complete
        and not stale; any other chain (none at all, a gap, a bad,
        quarantined or lost delta, an LSN behind a later snapshot, or a
        newest base whose header fails verification) gets a new base
        instead, numbered past every file on disk, and its path is
        returned.  Quarantining a damaged base stays the reader's job.

        The cost is the write's, not the chain's: the writer remembers
        the chain it published last (its files' directory entries, its
        base header, the snapshot's ``last_seqno`` and where its WAL
        records end) and reads only the WAL bytes past that point.  It
        walks the chain again, and scans the whole WAL, only when that
        memo no longer matches the disk (docs/durability.md).

        Raises:
            ValueError: No base exists and the index is empty.
        """
        from repro.planstore.serve import PlanDirectory

        with self._exclusive():
            plans = PlanDirectory.for_state_dir(self.dirpath)
            chain = self._chain
            if chain is None or not self._chain_holds(plans, chain):
                chain = self._walk_chain(plans)
            if chain is None:
                return plans.base_path(self.publish_plan())
            scan = scan_wal(self.wal.path, after=chain.wal)
            ops = [
                (record.opcode, record.payload)
                for record in scan.records
                if record.seqno > chain.lsn
            ]
            if not ops:
                self._chain = chain._replace(wal=scan.cursor)
                return None
            self._chain = None
            path = plans.publish_delta(
                chain.generation,
                ops,
                seq=chain.seq + 1,
                wal_lsn=scan.last_seqno,
                faults=self._faults,
            )
            self._chain = chain._replace(
                seq=chain.seq + 1,
                lsn=scan.last_seqno,
                wal=scan.cursor,
                files=chain.files + (plans.file_id(path),),
            )
            return path

    def _chain_at(
        self, plans, generation, seq, lsn, wal, *, next_generation
    ) -> _Chain | None:
        """The memo for ``generation``'s chain as it is on disk now
        (None when one of its files is already gone)."""
        from repro.planstore.serve import _snapshot_seqno

        files = plans.chain_files(generation, seq)
        if files is None:
            return None
        return _Chain(
            generation, seq, lsn, wal, files,
            _snapshot_seqno(self.dirpath), next_generation,
        )

    def _chain_holds(self, plans, chain: _Chain) -> bool:
        """Is the disk still as the memo has it?  No listing: a stat of
        each chain file, one header read, one snapshot-header read, and
        two names that must not exist yet -- the chain's next delta
        and the next new base, which another writer would have taken."""
        from repro.planstore.serve import _snapshot_seqno

        return (
            plans.chain_files(chain.generation, chain.seq) == chain.files
            and _snapshot_seqno(self.dirpath) == chain.snapshot_seqno
            and not os.path.exists(
                plans.delta_path(chain.generation, chain.seq + 1)
            )
            and not os.path.exists(plans.base_path(chain.next_generation))
        )

    def _walk_chain(self, plans) -> _Chain | None:
        """Walk the newest generation's chain: its memo when the chain
        is complete and not stale, else None (a new base is due)."""
        from repro.planstore.format import PlanStoreError

        generations = plans.generations()
        if not generations:
            return None
        try:
            walk = plans.walk(generations[-1])
        except PlanStoreError:
            return None
        if not walk.complete or walk.stale:
            return None
        return self._chain_at(
            plans, walk.generation, len(walk.deltas), walk.lsn, None,
            next_generation=plans.next_generation(),
        )

    def serve_mmap(self):
        """Open a read-only :class:`~repro.planstore.serve.MmapDILI`
        over this directory (the fallback-ladder serving handle)."""
        from repro.planstore.serve import MmapDILI

        return MmapDILI(self.dirpath)

    # ------------------------------------------------------------------
    # Reads and plumbing (unlogged)
    # ------------------------------------------------------------------

    def get(self, key: float) -> object | None:
        return self._index.get(float(key))

    def get_batch(self, keys) -> list:
        """Vectorized lookups; never logged, and lock-free when
        ``concurrent=True`` (a descent of the published plan -- a
        long batch read does not block a logged write)."""
        return self._index.get_batch(keys)

    def contains_batch(self, keys):
        """Vectorized membership tests; never logged, lock-free like
        :meth:`get_batch`."""
        return self._index.contains_batch(keys)

    def count_range(self, lo: float, hi: float) -> int:
        return self._index.count_range(lo, hi)

    def count_range_batch(self, los, his):
        return self._index.count_range_batch(los, his)

    def range_query(self, lo: float, hi: float):
        return self._index.range_query(lo, hi)

    def items(self):
        return self._index.items()

    def validate(self) -> None:
        """The deep check (:meth:`repro.core.dili.DILI.validate`), run
        under the writer lock: a scan beside a write would report the
        half-applied write as damage."""
        with self._exclusive():
            self._plain.validate()

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: float) -> bool:
        return self.get(key) is not None

    @property
    def index(self) -> DILI | ConcurrentDILI:
        """The wrapped live index."""
        return self._index

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "DurableDILI":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
