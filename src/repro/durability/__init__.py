"""Crash-safe persistence for DILI: WAL + snapshots + recovery.

The paper's index lives in memory; this package makes it durable.  The
design is the classic write-ahead logging triangle:

* :mod:`repro.durability.wal` -- an append-only log of update
  operations, each record framed with a sequence number and CRC32 so a
  torn tail is detected instead of replayed.
* :mod:`repro.durability.snapshot` -- atomic, checksummed full-index
  snapshots (temp file + ``fsync`` + ``os.replace``) that bound WAL
  replay time.
* :mod:`repro.durability.recovery` -- load the latest valid snapshot,
  replay the WAL tail past it, stop cleanly at the first corrupt
  record, and finish with ``validate()``.
* :mod:`repro.durability.faultpoints` -- named crash points the tests
  arm to simulate kill-9 and torn writes at every interesting instant.
* :mod:`repro.durability.durable` -- :class:`DurableDILI`, the thin
  wrapper that routes ``insert``/``delete``/``update``/``bulk_insert``
  through the WAL before applying them, over either a plain
  :class:`~repro.core.dili.DILI` or a
  :class:`~repro.core.concurrent.ConcurrentDILI`.

See ``docs/durability.md`` for the on-disk formats and the recovery
protocol.
"""

from repro.durability.durable import DurableDILI
from repro.durability.faultpoints import (
    ALL_CRASH_POINTS,
    CRASH_POINTS,
    PLAN_CRASH_POINTS,
    FaultInjector,
    SimulatedCrash,
)
from repro.durability.recovery import RecoveryResult, recover
from repro.durability.snapshot import (
    SnapshotError,
    read_snapshot,
    read_snapshot_header,
    write_snapshot,
)
from repro.durability.wal import (
    OP_BULK_INSERT,
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    WalCursor,
    WalRecord,
    WalScan,
    WriteAheadLog,
    WriterLockedError,
    scan_wal,
)

__all__ = [
    "ALL_CRASH_POINTS",
    "CRASH_POINTS",
    "PLAN_CRASH_POINTS",
    "DurableDILI",
    "FaultInjector",
    "OP_BULK_INSERT",
    "OP_DELETE",
    "OP_INSERT",
    "OP_UPDATE",
    "RecoveryResult",
    "SimulatedCrash",
    "SnapshotError",
    "WalCursor",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "WriterLockedError",
    "read_snapshot",
    "read_snapshot_header",
    "recover",
    "scan_wal",
    "write_snapshot",
]
