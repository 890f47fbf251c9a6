"""Crash recovery: snapshot + WAL tail -> a validated index.

The protocol (docs/durability.md):

1. Load ``snapshot.dili`` if present, verifying magic/version/CRC.  A
   corrupt snapshot raises -- recovery refuses to guess.  A missing
   snapshot means the index started empty (or crashed before its first
   checkpoint) and the WAL alone rebuilds it.
2. Scan ``wal.log``, stopping at the first torn or corrupt record, and
   replay every record whose seqno is greater than the snapshot's
   ``last_seqno`` (records at or below it are already folded into the
   snapshot -- a crash between snapshot rename and WAL truncation
   leaves such records behind, and replaying them twice would corrupt
   update/delete semantics for no benefit).
3. Run ``DILI.validate()``, the deep check
   (:func:`repro.check.invariants.verify_tree`), on the result, so
   recovery never hands back a broken index.  A snapshot checkpointed
   from a tree damaged in memory passes its CRC check; this step is
   what refuses it.

Replay applies operations through the public ``DILI`` methods, which
are deterministic, so the recovered index equals the live index as of
the last durable record.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

from repro.core.dili import DILI, DiliConfig
from repro.durability.snapshot import read_snapshot
from repro.durability.wal import (
    OP_BULK_INSERT,
    OP_DELETE,
    OP_DELETE_BATCH,
    OP_INSERT,
    OP_INSERT_BATCH,
    OP_UPDATE,
    OP_UPDATE_BATCH,
    WalRecord,
    scan_wal,
)

SNAPSHOT_NAME = "snapshot.dili"
WAL_NAME = "wal.log"


@dataclass(frozen=True)
class RecoveryResult:
    """What :func:`recover` reconstructed and how.

    Attributes:
        index: The recovered (and validated) index.
        snapshot_seqno: ``last_seqno`` of the snapshot used (0 if none).
        replayed: WAL records applied on top of the snapshot.
        skipped: WAL records already covered by the snapshot.
        failed: WAL records whose replay raised and was skipped.  The
            live call raised the same error after logging, so the
            operation never took effect and was not acknowledged as
            applied; dropping it reproduces the pre-crash state.
        wal_truncated: True when the WAL had a torn/corrupt tail.
        wal_reason: Why the WAL scan stopped early (None when clean).
        next_seqno: First sequence number a reopened log should use.
        wal_valid_offset: Byte offset of the end of the valid WAL
            prefix (where a reopened log truncates the torn tail).
    """

    index: DILI
    snapshot_seqno: int
    replayed: int
    skipped: int
    wal_truncated: bool
    wal_reason: str | None
    next_seqno: int
    wal_valid_offset: int
    failed: int = 0


def apply_record(index: DILI, record: WalRecord) -> None:
    """Re-apply one logged operation to ``index``."""
    args = pickle.loads(record.payload)
    if record.opcode == OP_INSERT:
        index.insert(args[0], args[1])
    elif record.opcode == OP_DELETE:
        index.delete(args[0])
    elif record.opcode == OP_UPDATE:
        index.update(args[0], args[1])
    elif record.opcode == OP_BULK_INSERT:
        index.bulk_insert(args[0], args[1])
    elif record.opcode == OP_INSERT_BATCH:
        index.insert_batch(args[0], args[1])
    elif record.opcode == OP_DELETE_BATCH:
        index.delete_batch(args[0])
    elif record.opcode == OP_UPDATE_BATCH:
        index.update_batch(args[0], args[1])
    else:  # scan_wal only yields known opcodes; guard anyway
        raise ValueError(f"unknown WAL opcode {record.opcode}")


def recover(
    dirpath,
    *,
    config: DiliConfig | None = None,
    validate: bool = True,
) -> RecoveryResult:
    """Rebuild the index persisted under ``dirpath``.

    Read-only: neither the snapshot nor the WAL is modified, so
    recovery can be retried (or inspected) safely.  Opening a
    :class:`~repro.durability.durable.DurableDILI` on the directory is
    what trims the torn WAL tail.

    Args:
        dirpath: Directory holding ``snapshot.dili`` / ``wal.log``.
        config: Config for a fresh index when no snapshot exists.
        validate: Run ``validate()`` on the recovered index.

    Raises:
        SnapshotError: The snapshot exists but is corrupt.
        InvariantError: The recovered index fails validation.
    """
    dirpath = os.fspath(dirpath)
    snap_path = os.path.join(dirpath, SNAPSHOT_NAME)
    snapshot_seqno = 0
    if os.path.exists(snap_path):
        index, snapshot_seqno = read_snapshot(snap_path)
        if not isinstance(index, DILI):
            from repro.durability.snapshot import SnapshotError

            raise SnapshotError(
                f"{snap_path} does not contain a DILI index"
            )
    else:
        index = DILI(config)
    scan = scan_wal(os.path.join(dirpath, WAL_NAME))
    replayed = skipped = failed = 0
    for record in scan.records:
        if record.seqno <= snapshot_seqno:
            skipped += 1
            continue
        # DurableDILI validates operations before logging them, so a
        # record that fails to apply is a logged-but-rejected op: the
        # live call raised identically after the append, the op never
        # took effect, and aborting recovery on it would make the
        # directory permanently unopenable.  Skip it and keep replaying
        # the (possibly acknowledged) records behind it.
        try:
            apply_record(index, record)
        except Exception:
            failed += 1
            continue
        replayed += 1
    if validate:
        index.validate()
    return RecoveryResult(
        index=index,
        snapshot_seqno=snapshot_seqno,
        replayed=replayed,
        skipped=skipped,
        wal_truncated=scan.truncated,
        wal_reason=scan.reason,
        next_seqno=max(snapshot_seqno, scan.last_seqno) + 1,
        wal_valid_offset=scan.valid_offset,
        failed=failed,
    )
