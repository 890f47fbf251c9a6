"""Append-only write-ahead log with CRC-framed, sequenced records.

On-disk layout (little-endian, see docs/durability.md):

* file header: the 8-byte magic ``DILIWAL1``;
* then zero or more records, each::

      u64 seqno | u8 opcode | u32 payload_len | payload | u32 crc32

  where the CRC covers the header bytes and the payload.  Sequence
  numbers are strictly consecutive within a file, so a skipped or
  repeated seqno is treated as corruption just like a CRC mismatch.

Replay (:func:`scan_wal`) stops at the first record that is torn
(truncated mid-record), has a bad CRC, or breaks the seqno chain; the
scan reports the byte offset of the last valid record so a reopened log
can truncate the garbage tail before appending.  Acknowledged writes
are exactly those whose record (including its CRC) was fsynced, so
"stop at the first bad record" can only ever drop unacknowledged
operations.

A scan can resume where an earlier one ended: a :class:`WalCursor`
names the end of a valid record (its offset, seqno and CRC), and
``scan_wal(path, after=cursor)`` reads only the bytes past it, once the
four bytes before the cursor still hold that record's CRC.  A log that
was truncated or rewritten since fails that check and is scanned from
its start, so a resumed scan never answers from a log that no longer
holds the cursor's record.

A state directory has one writer.  :func:`lock_writer` takes an
exclusive, non-blocking ``flock`` on the directory's lock file
(:data:`LOCK_NAME`, never unlinked), and a :class:`WriteAheadLog`
opened with that lock owns it: :meth:`WriteAheadLog.close` unlocks it,
and so does the death of the process.  The log's handle appends with
``O_APPEND`` for its whole life and truncates in place.  Readers (a
scan, recovery, a mapped plan) take no lock.
"""

from __future__ import annotations

import fcntl
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import BinaryIO

from repro.durability.faultpoints import NULL_FAULTS, FaultInjector
from repro.durability.snapshot import fsync_dir

WAL_MAGIC = b"DILIWAL1"

#: The writer lock's file in a state directory.
LOCK_NAME = "writer.lock"

_REC_HEADER = struct.Struct("<QBI")  # seqno, opcode, payload length
_REC_CRC = struct.Struct("<I")

# A sanity cap on payload length: a length field corrupted into garbage
# would otherwise make the scanner try to read gigabytes.  Enforced on
# append too, so every acknowledged record is one the scanner accepts.
MAX_PAYLOAD = 1 << 30

# Operation codes (the payload is a pickled tuple, see durable.py).
OP_INSERT = 1
OP_DELETE = 2
OP_UPDATE = 3
OP_BULK_INSERT = 4
OP_INSERT_BATCH = 5
OP_DELETE_BATCH = 6
OP_UPDATE_BATCH = 7

VALID_OPCODES = frozenset({
    OP_INSERT,
    OP_DELETE,
    OP_UPDATE,
    OP_BULK_INSERT,
    OP_INSERT_BATCH,
    OP_DELETE_BATCH,
    OP_UPDATE_BATCH,
})


class WriterLockedError(RuntimeError):
    """Another writer holds the state directory's writer lock."""


def lock_writer(path) -> BinaryIO:
    """Take the exclusive writer lock on the lock file at ``path``.

    The lock is an ``flock`` on the open file, so a second
    :func:`lock_writer` of the same file fails whether it comes from
    this process or another, until the holder calls
    :func:`unlock_writer` or every descriptor of its open file is
    closed (as at process death).  Returns the open lock file.

    Raises:
        WriterLockedError: Another writer holds the lock; nothing was
            changed.
    """
    fh = open(path, "ab")
    try:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        fh.close()
        raise WriterLockedError(
            f"{path}: another writer holds this directory"
        ) from None
    return fh


def unlock_writer(lock: BinaryIO) -> None:
    """Release a :func:`lock_writer` lock, then close its file.

    Unlocking first releases the lock even when a forked child still
    holds a copy of the descriptor.
    """
    if not lock.closed:
        fcntl.flock(lock.fileno(), fcntl.LOCK_UN)
        lock.close()


@dataclass(frozen=True)
class WalRecord:
    """One durably logged operation."""

    seqno: int
    opcode: int
    payload: bytes


@dataclass(frozen=True)
class WalCursor:
    """The end of one valid record: where a later scan resumes.

    Attributes:
        offset: Byte offset just past the record.
        seqno: The record's sequence number.
        crc: The record's CRC32, the last four bytes before ``offset``.
    """

    offset: int
    seqno: int
    crc: int


@dataclass(frozen=True)
class WalScan:
    """Result of scanning a WAL file.

    Attributes:
        records: Every valid record the scan read, in log order (with
            ``after=``, only those past the cursor).
        valid_offset: Byte offset just past the last valid record;
            truncating the file here removes any torn/corrupt tail.
        truncated: True when the scan stopped before the end of file.
        reason: Why the scan stopped early (None for a clean file).
        cursor: The end of the last valid record, where the next scan
            resumes; None when the log holds no record.
    """

    records: list[WalRecord]
    valid_offset: int
    truncated: bool
    reason: str | None
    cursor: WalCursor | None = None

    @property
    def last_seqno(self) -> int:
        """Seqno of the log's last valid record (0 when it has none)."""
        return self.cursor.seqno if self.cursor is not None else 0


def encode_record(seqno: int, opcode: int, payload: bytes) -> bytes:
    """Frame one record: header + payload + CRC32 over both."""
    head = _REC_HEADER.pack(seqno, opcode, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(head))
    return head + payload + _REC_CRC.pack(crc)


def scan_wal(path, after: WalCursor | None = None) -> WalScan:
    """Read every valid record; stop cleanly at the first bad one.

    With ``after``, read only the records past that cursor, provided
    the log still holds the cursor's record (the four bytes before its
    offset are its CRC); otherwise -- the log was truncated or
    rewritten since -- scan it from the start.  Either way a record is
    returned only if it continues the seqno chain.

    A missing file scans as empty.  A file without the magic header is
    rejected with ``ValueError`` -- that is a wrong file, not a torn
    one.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return WalScan([], 0, False, None)
    with fh:
        if after is not None and after.offset > len(WAL_MAGIC):
            fh.seek(after.offset - _REC_CRC.size)
            if fh.read(_REC_CRC.size) == _REC_CRC.pack(after.crc):
                return _scan_records(fh, after)
            fh.seek(0)
        magic = fh.read(len(WAL_MAGIC))
        if len(magic) < len(WAL_MAGIC):
            # A file this short cannot hold the header we always write
            # (and fsync) at creation; treat it as an empty torn log.
            return WalScan([], 0, True, "short file header")
        if magic != WAL_MAGIC:
            raise ValueError(f"{path} is not a DILI write-ahead log")
        return _scan_records(fh, None)


def _scan_records(fh, after: WalCursor | None) -> WalScan:
    """Scan records from the file position, which is just past the
    magic (``after`` None) or at ``after.offset``."""
    records: list[WalRecord] = []
    cursor = after
    offset = after.offset if after is not None else len(WAL_MAGIC)
    expected_seqno = after.seqno + 1 if after is not None else None

    def stop(reason: str | None) -> WalScan:
        return WalScan(records, offset, reason is not None, reason, cursor)

    while True:
        head = fh.read(_REC_HEADER.size)
        if not head:
            return stop(None)
        if len(head) < _REC_HEADER.size:
            return stop("torn record header")
        seqno, opcode, length = _REC_HEADER.unpack(head)
        if opcode not in VALID_OPCODES or length > MAX_PAYLOAD:
            return stop("corrupt record header")
        if expected_seqno is not None and seqno != expected_seqno:
            return stop("sequence break")
        body = fh.read(length + _REC_CRC.size)
        if len(body) < length + _REC_CRC.size:
            return stop("torn record body")
        payload, crc_bytes = body[:length], body[length:]
        crc = zlib.crc32(payload, zlib.crc32(head))
        if crc != _REC_CRC.unpack(crc_bytes)[0]:
            return stop("CRC mismatch")
        records.append(WalRecord(seqno, opcode, payload))
        offset += _REC_HEADER.size + length + _REC_CRC.size
        cursor = WalCursor(offset, seqno, crc)
        expected_seqno = seqno + 1


class WriteAheadLog:
    """An append-only operation log, safe to share across threads.

    Opening an existing log scans it, truncates any torn tail (so new
    appends are never hidden behind garbage), and continues the seqno
    chain.  ``min_next_seqno`` lets recovery push the chain past the
    seqno recorded in a snapshot even when the log itself was truncated
    at that snapshot.  The file is opened once, for appending
    (``O_APPEND``), and every truncation is done in place through that
    handle.

    Args:
        path: Log file location; created (with its magic header) if
            missing.
        sync: fsync after every append.  Turning this off trades the
            durability of the last few records for speed; the file
            still can never be *corrupt*, only short.
        min_next_seqno: Lower bound for the next sequence number.
        faults: Crash-point injector (tests only).
        lock: The directory's writer lock (:func:`lock_writer`), which
            the log then owns and :meth:`close` releases.
    """

    def __init__(
        self,
        path,
        *,
        sync: bool = True,
        min_next_seqno: int = 1,
        faults: FaultInjector | None = None,
        lock: BinaryIO | None = None,
    ) -> None:
        self.path = os.fspath(path)
        self.sync = sync
        self._faults = faults if faults is not None else NULL_FAULTS
        self._lock = threading.Lock()
        scan = scan_wal(self.path)
        self._fh = open(self.path, "ab")
        if scan.valid_offset == 0:  # missing, or shorter than its header
            self._fh.truncate(0)
            self._fh.write(WAL_MAGIC)
            self._fh.flush()
            os.fsync(self._fh.fileno())
            fsync_dir(os.path.dirname(self.path))
        elif scan.truncated:
            self._fh.truncate(scan.valid_offset)
            os.fsync(self._fh.fileno())
        self._next_seqno = max(min_next_seqno, scan.last_seqno + 1)
        self._record_count = len(scan.records)
        self._cursor = scan.cursor
        self._writer_lock = lock

    # ------------------------------------------------------------------

    @property
    def next_seqno(self) -> int:
        return self._next_seqno

    @property
    def last_seqno(self) -> int:
        return self._next_seqno - 1

    @property
    def cursor(self) -> WalCursor | None:
        """The end of the last record in the file (None when it holds
        none): ``scan_wal(path, after=cursor)`` reads only what is
        appended after this point."""
        return self._cursor

    def __len__(self) -> int:
        """Number of records appended and durable in this file."""
        return self._record_count

    def append(self, opcode: int, payload: bytes) -> int:
        """Durably append one record; returns its sequence number.

        The record is acknowledged (the seqno returned) only after the
        bytes -- including the trailing CRC -- have been written and,
        when ``sync`` is on, fsynced.
        """
        if opcode not in VALID_OPCODES:
            raise ValueError(f"unknown opcode {opcode}")
        if len(payload) > MAX_PAYLOAD:
            # scan_wal treats a length above the cap as a corrupt
            # header, so a larger record would be silently dropped on
            # recovery (with everything after it) -- refuse to ack it.
            raise ValueError(
                f"WAL payload of {len(payload)} bytes exceeds the "
                f"{MAX_PAYLOAD}-byte cap that recovery can replay"
            )
        with self._lock:
            self._faults.fire("before_wal_append")
            seqno = self._next_seqno
            record = encode_record(seqno, opcode, payload)
            fraction = self._faults.torn("mid_wal_append")
            if fraction is not None:
                self._faults.tear_and_crash(
                    "mid_wal_append", self._fh, record, fraction
                )
            self._fh.write(record)
            self._fh.flush()
            if self.sync:
                os.fsync(self._fh.fileno())
            self._next_seqno = seqno + 1
            self._record_count += 1
            start = self._cursor.offset if self._cursor else len(WAL_MAGIC)
            self._cursor = WalCursor(
                start + len(record),
                seqno,
                _REC_CRC.unpack_from(record, len(record) - _REC_CRC.size)[0],
            )
            self._faults.fire("after_wal_append")
            return seqno

    def truncate(self) -> None:
        """Drop every record (after a successful snapshot).

        Sequence numbers keep counting up -- replay filters on the
        snapshot's last seqno, so a record logged after a truncation
        must still sort after every snapshotted operation.
        """
        with self._lock:
            self._fh.truncate(len(WAL_MAGIC))
            os.fsync(self._fh.fileno())
            self._record_count = 0
            self._cursor = None

    def sync_now(self) -> None:
        """fsync the log (for ``sync=False`` batching callers)."""
        with self._lock:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def size_bytes(self) -> int:
        with self._lock:
            self._fh.flush()
            return os.path.getsize(self.path)

    def close(self) -> None:
        """Close the log and release the writer lock it owns."""
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                self._fh.close()
            if self._writer_lock is not None:
                unlock_writer(self._writer_lock)
                self._writer_lock = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
