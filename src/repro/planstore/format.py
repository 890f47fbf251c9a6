"""On-disk layout of plan base files and delta files.

Base file (little-endian; see ``docs/durability.md``)::

    8s   magic "DILIPLN1"
    u32  header_len
    u32  header_crc32            -- over the header JSON bytes
    ...  header JSON, header_len bytes, padded to a multiple of 64
    ...  buffer regions, 64-byte aligned, in header order
    8s   commit marker "DILICMT1" -- the last 8 bytes of the file

The header carries the format version, the source WAL LSN (staleness
metadata: every WAL record with ``seqno <= wal_lsn`` is folded into the
buffers), the generation number, and one descriptor per buffer --
``name`` / ``dtype`` / ``offset`` / ``count`` / ``nbytes`` / ``crc32``.
Verifying a file therefore needs two reads: the framed header (O(1),
done at every open) and the buffer CRCs (O(n), done lazily on first
read or eagerly by the auditor).  The payload is **never** pickled:
buffers are raw numpy memory, written with ``tofile`` semantics and
mapped back with ``np.memmap``.

Every buffer starts at a 64-byte-aligned *absolute* file offset: the
header's ``pad`` key holds the spaces that end the header frame on a
multiple of 64, and each buffer's offset from there is a multiple of
64.  A map's base is page-aligned, so every mapped column is 64-byte
aligned and numpy reads it on its aligned paths (an unaligned float64
column costs a copy of the whole column per ``searchsorted``).  The
padding is a JSON value, not whitespace after the JSON, so a header
parsed and dumped again with ``json.dumps(header, sort_keys=True)``
keeps its length.  Readers need no change: descriptors always carried
their offsets and unknown keys are ignored, so ``PLAN_VERSION`` stays
1.  A file written with the older 8-byte layout (offsets aligned only
relative to a header of any length) opens and answers the same, on
numpy's unaligned paths, until a new base replaces it (a shard
worker's next checkpoint).

Values (payloads) take one of two encodings, chosen per file by the
writer and named by the buffer descriptors, so the reader needs no
version switch:

* ``value_ints`` -- one int64 column, written when every payload is an
  exact Python ``int`` (``type(v) is int``) that fits int64.  A read
  gathers its hits with one fancy index as int64 and a list answer
  boxes them as Python ints, so answers are equal and type-equal to
  the live index's.
* ``value_bytes`` + ``value_offsets`` -- any other payload set (a bool,
  a numpy integer, an int beyond int64, a string, or any mix): each
  value is pickled *individually* into ``value_bytes`` with
  ``value_offsets`` (int64, ``count+1`` entries) delimiting it, so a
  read decodes exactly the values it returns.

Either way opening never materializes the value column.  Files written
before the int column existed carry the pickled pair and still open;
``PLAN_VERSION`` did not change, and a reader that predates the int
column refuses such a file on its missing-buffer check (a
:class:`PlanFormatError`, so its ladder falls back) rather than
misreading it.

Delta file::

    8s   magic "DILIDLT1"
    u32  header_len
    u32  header_crc32
    ...  header JSON: version, base_generation, seq, wal_lsn,
         payload_len, payload_crc32
    ...  payload: pickled list of (opcode, payload_bytes) op frames --
         the same opcode/payload encoding as WAL records, so delta
         replay and WAL-tail replay share one code path
    8s   commit marker

Both writers use the snapshot module's discipline: temp file in the
same directory, fsync, ``os.replace``, directory fsync.  A crash at any
instant leaves either no new file or a complete one; a torn temp file
fails the magic/CRC/commit-marker checks and is never adopted.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import zlib

import numpy as np

from repro.durability.faultpoints import NULL_FAULTS, FaultInjector
from repro.durability.snapshot import fsync_dir

PLAN_MAGIC = b"DILIPLN1"
DELTA_MAGIC = b"DILIDLT1"
COMMIT_MARKER = b"DILICMT1"
PLAN_VERSION = 1

_FRAME = struct.Struct("<II")  # header_len, header_crc32
_PREFIX_SIZE = 8 + _FRAME.size

# A corrupted length field must not make readers allocate gigabytes.
MAX_HEADER_LEN = 1 << 20
MAX_DELTA_PAYLOAD = 1 << 30

#: Buffer serialization order.  ``sorted_keys`` is appended only when it
#: does not alias ``pair_keys`` (dense or mixed trees).
BUFFER_NAMES: tuple[str, ...] = (
    "kind", "slope", "intercept", "size", "base", "region",
    "slot_kind", "slot_ref", "pair_keys", "dense_keys",
)


class PlanStoreError(ValueError):
    """Base class for every plan-store open/verify failure."""


class PlanFormatError(PlanStoreError):
    """A plan or delta file is torn, corrupt, or not a plan file."""


class PlanStaleError(PlanStoreError):
    """A plan file's WAL LSN predates the snapshot: the records needed
    to bring it current were truncated away and are gone forever."""


#: Buffer alignment: a cache line, and a multiple of every dtype's.
ALIGN = 64


def _aligned(n: int) -> int:
    return -(-n // ALIGN) * ALIGN


def int_column(values) -> np.ndarray | None:
    """The payloads as one int64 column, or None unless every payload
    is an exact Python ``int`` that fits int64."""
    if not set(map(type, values)) <= {int}:
        return None
    try:
        return np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:
        return None


def encode_values(values) -> tuple[np.ndarray, np.ndarray]:
    """Pickle each value individually into a delimited byte column."""
    offsets = np.zeros(len(values) + 1, dtype=np.int64)
    parts = []
    total = 0
    for i, value in enumerate(values):
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        parts.append(blob)
        total += len(blob)
        offsets[i + 1] = total
    joined = b"".join(parts)
    return np.frombuffer(joined, dtype=np.uint8).copy(), offsets


def write_plan_file(
    path,
    plan,
    *,
    wal_lsn: int = 0,
    generation: int = 0,
    faults: FaultInjector | None = None,
) -> int:
    """Atomically serialize ``plan`` to ``path``; returns bytes written.

    Args:
        path: Final plan-file location; replaced atomically.
        plan: A :class:`~repro.core.flat.FlatPlan`.
        wal_lsn: Highest WAL seqno already folded into the buffers.
        generation: Monotonic generation number (for the header only;
            naming is :class:`repro.planstore.serve.PlanDirectory`'s
            job).
        faults: Crash-point injector (tests only).
    """
    path = os.fspath(path)
    faults = faults if faults is not None else NULL_FAULTS

    buffers: list[tuple[str, np.ndarray]] = [
        (name, np.ascontiguousarray(getattr(plan, name)))
        for name in BUFFER_NAMES
    ]
    # Only a plan whose sorted view *is* its pair table may drop the
    # copy: a maintained plan's pair table is not in key order.
    sorted_is_pair = plan.sorted_keys is plan.pair_keys
    if not sorted_is_pair:
        buffers.append(
            ("sorted_keys", np.ascontiguousarray(plan.sorted_keys))
        )
    ints = int_column(plan.values)
    if ints is not None:
        buffers.append(("value_ints", ints))
    else:
        value_bytes, value_offsets = encode_values(plan.values)
        buffers.append(("value_offsets", value_offsets))
        buffers.append(("value_bytes", value_bytes))

    # Offsets are relative to the end of the header frame, which the
    # header's padding puts on a multiple of ALIGN, so one pass lays
    # the buffers out.
    descs = []
    rel = 0
    for name, arr in buffers:
        rel = _aligned(rel)
        descs.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "offset": rel,
                "count": int(arr.size),
                "nbytes": int(arr.nbytes),
                "crc32": zlib.crc32(arr.tobytes()),
            }
        )
        rel += int(arr.nbytes)
    buffers_len = _aligned(rel)

    header = {
        "version": PLAN_VERSION,
        "wal_lsn": int(wal_lsn),
        "generation": int(generation),
        "depth": int(plan.depth),
        "num_pairs": int(plan.num_pairs),
        "value_count": len(plan.values),
        "sorted_is_pair": bool(sorted_is_pair),
        "buffers": descs,
        "pad": "",
        "file_size": 0,
    }
    # file_size participates in its own header: iterate the unpadded
    # encoding until the size is stable (it only grows, by the digits
    # of file_size), then pad the header to end on the aligned start.
    while True:
        unpadded = _PREFIX_SIZE + len(json.dumps(header, sort_keys=True))
        data_start = _aligned(unpadded)
        file_size = data_start + buffers_len + len(COMMIT_MARKER)
        if header["file_size"] == file_size:
            break
        header["file_size"] = file_size
    header["pad"] = " " * (data_start - unpadded)
    blob = json.dumps(header, sort_keys=True).encode("ascii")

    out = bytearray()
    out += PLAN_MAGIC
    out += _FRAME.pack(len(blob), zlib.crc32(blob))
    out += blob
    out += b"\0" * buffers_len
    for desc, (_, arr) in zip(descs, buffers):
        lo = data_start + desc["offset"]
        out[lo:lo + desc["nbytes"]] = arr.tobytes()
    out += COMMIT_MARKER
    return _atomic_write(path, bytes(out), faults, "plan")


def _atomic_write(
    path: str, data: bytes, faults: FaultInjector, kind: str
) -> int:
    """temp + fsync + ``os.replace`` + directory fsync, crash-pointed."""
    tmp_path = path + ".tmp"
    faults.fire(f"before_{kind}_write")
    with open(tmp_path, "wb") as fh:
        fraction = faults.torn(f"mid_{kind}_write")
        if fraction is not None:
            faults.tear_and_crash(f"mid_{kind}_write", fh, data, fraction)
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    if kind == "plan":
        faults.fire("before_plan_rename")
    os.replace(tmp_path, path)
    fsync_dir(os.path.dirname(path))
    faults.fire(f"after_{kind}_{'rename' if kind == 'plan' else 'write'}")
    return len(data)


def read_header_frame(path) -> bytes:
    """A base file's magic, frame and header bytes, unchecked: what a
    publisher compares to tell that a header it verified is unchanged.

    Raises:
        OSError: The file cannot be read.
    """
    with open(path, "rb") as fh:
        prefix = fh.read(_PREFIX_SIZE)
        if len(prefix) < _PREFIX_SIZE:
            return prefix
        header_len = min(_FRAME.unpack(prefix[8:])[0], MAX_HEADER_LEN)
        return prefix + fh.read(header_len)


def read_plan_header(path) -> dict:
    """Parse and fully sanity-check a base-file header -- O(1).

    Verifies the magic, the header frame CRC, the format version, the
    recorded file size against the real one, the trailing commit
    marker, and that every buffer descriptor is self-consistent and
    inside the file.  Buffer *contents* are not read (that is
    :meth:`PlanStore.verify`'s job).

    Returns the header dict with one extra key, ``data_start``: the
    absolute file offset buffer offsets are relative to.
    """
    path = os.fspath(path)
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        raise PlanFormatError(f"{path}: unreadable: {exc}") from None
    with open(path, "rb") as fh:
        prefix = fh.read(_PREFIX_SIZE)
        if len(prefix) < _PREFIX_SIZE:
            raise PlanFormatError(f"{path}: truncated plan header")
        if prefix[:8] != PLAN_MAGIC:
            raise PlanFormatError(f"{path} is not a DILI plan file")
        header_len, header_crc = _FRAME.unpack(prefix[8:])
        if header_len > MAX_HEADER_LEN:
            raise PlanFormatError(
                f"{path}: implausible header length {header_len}"
            )
        blob = fh.read(header_len)
        if len(blob) < header_len:
            raise PlanFormatError(f"{path}: truncated plan header")
        if zlib.crc32(blob) != header_crc:
            raise PlanFormatError(f"{path}: plan header checksum mismatch")
        try:
            header = json.loads(blob.decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            # CRC-valid bytes that fail to parse: a writer bug, but
            # still a refused open, never a crash.
            raise PlanFormatError(
                f"{path}: undecodable plan header: {exc}"
            ) from None
        if header.get("version") != PLAN_VERSION:
            raise PlanFormatError(
                f"{path}: unsupported plan version {header.get('version')!r}"
            )
        if header.get("file_size") != size:
            raise PlanFormatError(
                f"{path}: header promises {header.get('file_size')} bytes, "
                f"file holds {size}"
            )
        fh.seek(size - len(COMMIT_MARKER))
        if fh.read(len(COMMIT_MARKER)) != COMMIT_MARKER:
            raise PlanFormatError(f"{path}: commit marker missing")
    data_start = _PREFIX_SIZE + header_len
    data_end = size - len(COMMIT_MARKER)
    descs = header.get("buffers")
    if not isinstance(descs, list) or not descs:
        raise PlanFormatError(f"{path}: header lists no buffers")
    seen = set()
    for desc in descs:
        try:
            name = desc["name"]
            dtype = np.dtype(desc["dtype"])
            offset = int(desc["offset"])
            count = int(desc["count"])
            nbytes = int(desc["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanFormatError(
                f"{path}: malformed buffer descriptor: {exc}"
            ) from None
        if name in seen:
            raise PlanFormatError(f"{path}: duplicate buffer {name!r}")
        seen.add(name)
        if count * dtype.itemsize != nbytes:
            raise PlanFormatError(
                f"{path}: buffer {name!r} claims {count} x "
                f"{dtype.itemsize}B != {nbytes}B"
            )
        if offset < 0 or data_start + offset + nbytes > data_end:
            raise PlanFormatError(
                f"{path}: buffer {name!r} extent outside the file"
            )
    missing = set(BUFFER_NAMES) - seen
    if "value_ints" not in seen:
        missing |= {"value_offsets", "value_bytes"} - seen
    if missing:
        raise PlanFormatError(
            f"{path}: header missing buffers {sorted(missing)}"
        )
    header["data_start"] = data_start
    return header


# ----------------------------------------------------------------------
# Delta files
# ----------------------------------------------------------------------


def write_delta_file(
    path,
    ops: list,
    *,
    base_generation: int,
    seq: int,
    wal_lsn: int,
    faults: FaultInjector | None = None,
) -> int:
    """Atomically write one delta file; returns bytes written.

    Args:
        path: Final delta-file location.
        ops: ``(opcode, payload_bytes)`` frames, WAL-record encoded.
        base_generation: Generation of the base file this delta extends.
        seq: Position in the delta chain (1 is the first delta).
        wal_lsn: Highest WAL seqno folded in once this delta applies.
        faults: Crash-point injector (tests only).
    """
    path = os.fspath(path)
    faults = faults if faults is not None else NULL_FAULTS
    payload = pickle.dumps(
        [(int(op), bytes(p)) for op, p in ops],
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    header = {
        "version": PLAN_VERSION,
        "base_generation": int(base_generation),
        "seq": int(seq),
        "wal_lsn": int(wal_lsn),
        "payload_len": len(payload),
        "payload_crc": zlib.crc32(payload),
    }
    blob = json.dumps(header, sort_keys=True).encode("ascii")
    data = (
        DELTA_MAGIC
        + _FRAME.pack(len(blob), zlib.crc32(blob))
        + blob
        + payload
        + COMMIT_MARKER
    )
    return _atomic_write(path, data, faults, "delta")


def read_delta_file(path) -> dict:
    """Read and verify one delta file.

    Returns the header dict plus ``ops``, the decoded op frames.  The
    payload CRC is checked over the raw bytes *before* unpickling, so a
    flipped byte is a :class:`PlanFormatError`, never a pickle crash.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise PlanFormatError(f"{path}: unreadable: {exc}") from None
    if len(data) < _PREFIX_SIZE or data[:8] != DELTA_MAGIC:
        raise PlanFormatError(f"{path} is not a DILI plan delta")
    header_len, header_crc = _FRAME.unpack(data[8:_PREFIX_SIZE])
    if header_len > MAX_HEADER_LEN:
        raise PlanFormatError(f"{path}: implausible header length")
    blob = data[_PREFIX_SIZE:_PREFIX_SIZE + header_len]
    if len(blob) < header_len or zlib.crc32(blob) != header_crc:
        raise PlanFormatError(f"{path}: delta header checksum mismatch")
    try:
        header = json.loads(blob.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PlanFormatError(
            f"{path}: undecodable delta header: {exc}"
        ) from None
    if header.get("version") != PLAN_VERSION:
        raise PlanFormatError(
            f"{path}: unsupported delta version {header.get('version')!r}"
        )
    payload_len = int(header.get("payload_len", -1))
    if payload_len < 0 or payload_len > MAX_DELTA_PAYLOAD:
        raise PlanFormatError(f"{path}: implausible delta payload length")
    lo = _PREFIX_SIZE + header_len
    payload = data[lo:lo + payload_len]
    tail = data[lo + payload_len:]
    if len(payload) < payload_len or tail != COMMIT_MARKER:
        raise PlanFormatError(f"{path}: truncated delta payload")
    if zlib.crc32(payload) != header.get("payload_crc"):
        raise PlanFormatError(f"{path}: delta payload checksum mismatch")
    try:
        ops = pickle.loads(payload)
    except Exception as exc:  # checksummed bytes that still fail: a bug
        raise PlanFormatError(
            f"{path}: delta payload unpicklable: {exc}"
        ) from None
    if not isinstance(ops, list):
        raise PlanFormatError(f"{path}: delta payload is not an op list")
    header["ops"] = ops
    return header
