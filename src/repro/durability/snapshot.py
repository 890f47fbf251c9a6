"""Atomic, checksummed full-index snapshots.

On-disk layout (little-endian, see docs/durability.md)::

    8s  magic "DILISNP1"
    u16 format version (currently 1)
    u64 last_seqno    -- WAL records <= this are already folded in
    u64 payload_len
    u32 payload_crc32
    ... payload: pickled DILI index, payload_len bytes

Writes are atomic: the header and payload go to a temp file in the
same directory, the file is fsynced, then renamed over the target with
``os.replace`` and the directory fsynced.  A crash at any instant
leaves either the complete old snapshot or the complete new one --
readers verify the magic, version, length, and CRC before unpickling,
so a torn temp file (or any half-written state) is rejected with
:class:`SnapshotError` rather than deserialized wrong.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib

from repro.durability.faultpoints import NULL_FAULTS, FaultInjector

SNAPSHOT_MAGIC = b"DILISNP1"
SNAPSHOT_VERSION = 1

_HEADER = struct.Struct("<HQQI")  # version, last_seqno, payload_len, crc32
HEADER_SIZE = len(SNAPSHOT_MAGIC) + _HEADER.size


class SnapshotError(ValueError):
    """A snapshot file is missing pieces, corrupt, or not a snapshot."""


def write_snapshot(
    index,
    path,
    *,
    last_seqno: int = 0,
    faults: FaultInjector | None = None,
) -> int:
    """Atomically write ``index`` to ``path``; returns bytes written.

    Args:
        index: The DILI (or any picklable index) to persist.
        path: Final snapshot location; replaced atomically.
        last_seqno: Highest WAL sequence number already applied to
            ``index``.  Recovery replays only records past it.
        faults: Crash-point injector (tests only).
    """
    path = os.fspath(path)
    faults = faults if faults is not None else NULL_FAULTS
    payload = pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
    header = SNAPSHOT_MAGIC + _HEADER.pack(
        SNAPSHOT_VERSION, last_seqno, len(payload), zlib.crc32(payload)
    )
    tmp_path = path + ".tmp"
    faults.fire("before_snapshot_write")
    with open(tmp_path, "wb") as fh:
        fh.write(header)
        fraction = faults.torn("mid_snapshot_write")
        if fraction is not None:
            faults.tear_and_crash("mid_snapshot_write", fh, payload, fraction)
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    faults.fire("before_rename")
    os.replace(tmp_path, path)
    fsync_dir(os.path.dirname(path))
    faults.fire("after_rename")
    return len(header) + len(payload)


def read_snapshot_header(path) -> tuple[int, int, int, int]:
    """Parse and sanity-check a snapshot header without unpickling.

    Returns ``(version, last_seqno, payload_len, payload_crc)``.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        raw = fh.read(HEADER_SIZE)
    if len(raw) < HEADER_SIZE:
        raise SnapshotError(f"{path}: truncated snapshot header")
    if raw[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path} is not a DILI snapshot")
    version, last_seqno, payload_len, crc = _HEADER.unpack(
        raw[len(SNAPSHOT_MAGIC):]
    )
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path}: unsupported snapshot version {version}"
        )
    return version, last_seqno, payload_len, crc


def read_snapshot(path):
    """Load a snapshot; returns ``(index, last_seqno)``.

    Raises :class:`SnapshotError` (a ``ValueError``) when the file is
    truncated, its checksum does not match, or it is not a snapshot at
    all -- never a pickle traceback and never a half-broken index.
    """
    path = os.fspath(path)
    _, last_seqno, payload_len, crc = read_snapshot_header(path)
    with open(path, "rb") as fh:
        fh.seek(HEADER_SIZE)
        payload = fh.read(payload_len + 1)
    if len(payload) < payload_len:
        raise SnapshotError(
            f"{path}: truncated snapshot payload "
            f"({len(payload)} of {payload_len} bytes)"
        )
    if len(payload) > payload_len:
        raise SnapshotError(f"{path}: trailing garbage after payload")
    if zlib.crc32(payload) != crc:
        raise SnapshotError(f"{path}: snapshot payload checksum mismatch")
    try:
        index = pickle.loads(payload)
    except Exception as exc:  # checksummed bytes that still fail: a bug
        raise SnapshotError(f"{path}: snapshot payload unpicklable: {exc}")
    return index, last_seqno


def fsync_dir(dirpath: str) -> None:
    """fsync a directory so a freshly created or renamed entry is durable."""
    fd = os.open(dirpath or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
