"""Zero-copy plan serving: a :class:`FlatPlan` over memory-mapped buffers.

:meth:`PlanStore.open` reads only the CRC-framed header (O(1)), maps
every buffer read-only (``np.memmap``, handed on as a plain ndarray
view of the same pages), and wraps them in a real
:class:`~repro.core.flat.FlatPlan` -- the descent, tracer replay, and
range-count code paths are literally the in-memory ones, so mmap-served
reads are trace-identical by construction, not by reimplementation.

Buffer *contents* are verified lazily: the first read checks every
buffer's CRC32 against the header (memoized), so a flipped byte
anywhere in the file is caught before any answer derived from it is
returned, while open stays O(1).  :meth:`PlanStore.verify` runs the
same check eagerly for auditors.

Payloads come from one of the file's two value encodings (see
:mod:`repro.planstore.format`), each wrapped as the mapped counterpart
of the in-memory plan's payload table, of which ``get_batch`` asks
only the hits.  :meth:`_IntValues.take` gathers them from the int64
column with one fancy index and returns them unboxed, as int64;
:meth:`_LazyValues.take` unpickles exactly the values it returns from
the delimited ``value_bytes`` column, never the whole column.
``_LazyValues.take`` holds the package's one waived CHK011 flow: its
``pickle.loads`` reads mapped bytes that
:meth:`PlanStore._ensure_verified` has checksummed before any read
reaches it.

A batch read is first an array pair: ``hits``, a bool mask over the
keys, and ``payload``, the hits' values in key order -- one int64
array when the base holds the int column and every overlay hit is an
exact Python ``int`` within int64, else one 1-D object array.  A shard
worker ships that pair as it is (``get_batch(..., arrays=True)``);
every other caller gets the list, built by one masked assignment into
a ``None``-filled object array, which boxes each int once.

A store maps one base file and nothing else.  The serving ladder
replays the deltas :meth:`repro.planstore.serve.PlanDirectory.walk`
accepted, then the WAL tail, through :meth:`PlanStore.apply_ops` into
a key-level *overlay* (the buffers themselves are immutable):

* ``overlay[k] = (value, in_base)`` -- ``k`` was inserted (``in_base``
  False) or updated (True) after the base was published;
* ``overlay[k] = (_TOMBSTONE, True)`` -- ``k`` was deleted.  By
  invariant a tombstone only exists for base-resident keys: deleting an
  overlay-only insert just removes its entry.

``count_range_batch`` is then the base count (two ``searchsorted``)
plus overlay-inserted keys in range minus tombstoned keys in range.
Tracer replay charges the *base* descent only, so trace-identity to
the in-memory plan is exact for overlay-free stores (the property the
parity tests pin down) and approximate once deltas apply.
"""

from __future__ import annotations

import pickle
import threading
import zlib

import numpy as np

from repro.core.dili import DEFAULT_PAYLOAD
from repro.core.flat import FlatPlan
from repro.durability.wal import (
    OP_BULK_INSERT,
    OP_DELETE,
    OP_DELETE_BATCH,
    OP_INSERT,
    OP_INSERT_BATCH,
    OP_UPDATE,
    OP_UPDATE_BATCH,
)
from repro.planstore.format import (
    PlanFormatError,
    int_column,
    read_plan_header,
)
from repro.simulate.latency import DEFAULT_CYCLES
from repro.simulate.tracer import NULL_TRACER, NullTracer, Tracer

_TOMBSTONE = object()


class _LazyValues:
    """Payload table over the delimited pickle column, decoded on demand.

    Stands in for the in-memory plan's object ndarray: :class:`FlatPlan`
    needs only ``len`` and :meth:`take`.
    """

    __slots__ = ("_bytes", "_offsets")

    def __init__(self, value_bytes: np.ndarray, offsets: np.ndarray):
        self._bytes = value_bytes
        self._offsets = offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def take(self, indices: np.ndarray) -> np.ndarray:
        """Decode the payloads at ``indices`` into a 1-D object array.

        One fancy-index of the offsets column yields every ``[start,
        end)`` span; each span is unpickled straight from a
        ``memoryview`` of the mapped bytes, with no per-value memmap
        scalar reads and no intermediate ``bytes`` copy.
        """
        starts, ends = self._offsets[
            np.stack((indices, indices + 1))
        ].tolist()
        raw = memoryview(self._bytes)
        decoded = [
            pickle.loads(raw[lo:hi])  # repro-check: allow CHK011 -- PlanStore._ensure_verified checksums the mapped file before any read gathers from this column (lazy-verify contract)
            for lo, hi in zip(starts, ends)
        ]
        return np.fromiter(decoded, dtype=object, count=len(decoded))


class _IntValues:
    """Payload table over the int64 value column.

    :meth:`take` returns int64, unboxed: a list answer boxes each hit
    once, as a Python int, so answers are equal and type-equal to the
    live index's.
    """

    __slots__ = ("_ints",)

    def __init__(self, ints: np.ndarray):
        self._ints = ints

    def __len__(self) -> int:
        return len(self._ints)

    def take(self, indices: np.ndarray) -> np.ndarray:
        return self._ints[indices]


def hits_list(hits: np.ndarray, payload: np.ndarray) -> list:
    """The list answer of a ``(hits, payload)`` pair: the payload at
    the hits, ``None`` elsewhere."""
    out = np.full(len(hits), None, dtype=object)
    out[hits] = payload
    return out.tolist()


def hits_pair(values: list) -> tuple[np.ndarray, np.ndarray]:
    """The ``(hits, payload)`` pair of a list answer (``None`` = miss),
    with an object payload."""
    hits = np.fromiter(
        (v is not None for v in values), dtype=bool, count=len(values)
    )
    payload = np.fromiter(
        (v for v in values if v is not None),
        dtype=object,
        count=int(np.count_nonzero(hits)),
    )
    return hits, payload


class _Overlay(dict):
    """The key-level overlay, plus its keys as one sorted float64 array.

    :meth:`PlanStore.apply_ops` fills a fresh overlay and :meth:`seal`
    builds the array once, before the overlay is swapped in; a read
    that loads the overlay once therefore sees a dict and a key array
    of the same version.
    """

    __slots__ = ("key_array",)

    def __init__(self, entries=()) -> None:
        super().__init__(entries)
        self.key_array = np.empty(0, dtype=np.float64)

    def seal(self) -> None:
        self.key_array = np.sort(
            np.fromiter(self, dtype=np.float64, count=len(self))
        )

    def positions(self, keys: np.ndarray) -> np.ndarray:
        """Positions in ``keys`` of the keys the overlay holds,
        ascending."""
        sk = self.key_array
        if not len(sk):
            return np.empty(0, dtype=np.intp)
        at = np.minimum(np.searchsorted(sk, keys), len(sk) - 1)
        return np.flatnonzero(sk[at] == keys)


class PlanStore:
    """A read-only serving handle over one plan file and its overlay.

    Construct via :meth:`open`.  Thread-safe for reads after open; the
    only internal mutations are the verification memo, the overlay
    count cache and :meth:`apply_ops`'s swap of the overlay (a dict
    never changed once swapped in), all under a lock.
    """

    def __init__(
        self,
        path: str,
        header: dict,
        plan: FlatPlan,
    ) -> None:
        self.path = path
        self.header = header
        self.generation = int(header["generation"])
        #: Highest WAL seqno folded in (advanced by deltas / tail replay).
        self.wal_lsn = int(header["wal_lsn"])
        self._plan = plan
        self._arrays: dict[str, np.ndarray] = {}
        self._verified = False
        self._lock = threading.Lock()
        self._overlay = _Overlay()
        self._count_cache: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Opening
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, path) -> "PlanStore":
        """Map a plan file, with an empty overlay.

        O(1) in the key count: the header is parsed and checked, the
        buffers are memory-mapped but not read.  Which deltas extend
        the base is :meth:`repro.planstore.serve.PlanDirectory.walk`'s
        decision; the caller replays them with :meth:`apply_ops`.

        Raises:
            PlanFormatError: Torn/corrupt/misversioned base file.
        """
        import os

        path = os.fspath(path)
        header = read_plan_header(path)
        data_start = header["data_start"]
        arrays: dict[str, np.ndarray] = {}
        for desc in header["buffers"]:
            dtype = np.dtype(desc["dtype"])
            if desc["count"] == 0:
                arrays[desc["name"]] = np.empty(0, dtype=dtype)
            else:
                # A plain ndarray view of the same pages: numpy calls
                # on a memmap go through the subclass's __getitem__ /
                # __array_wrap__ on every descent step.  The view's
                # base keeps the map alive.
                arrays[desc["name"]] = np.memmap(
                    path,
                    dtype=dtype,
                    mode="r",
                    offset=data_start + desc["offset"],
                    shape=(desc["count"],),
                ).view(np.ndarray)
        pair_keys = arrays["pair_keys"]
        sorted_keys = (
            pair_keys if header["sorted_is_pair"] else arrays["sorted_keys"]
        )
        plan = FlatPlan(
            kind=arrays["kind"],
            slope=arrays["slope"],
            intercept=arrays["intercept"],
            size=arrays["size"],
            base=arrays["base"],
            region=arrays["region"],
            slot_kind=arrays["slot_kind"],
            slot_ref=arrays["slot_ref"],
            pair_keys=pair_keys,
            dense_keys=arrays["dense_keys"],
            values=(
                _IntValues(arrays["value_ints"])
                if "value_ints" in arrays
                else _LazyValues(
                    arrays["value_bytes"], arrays["value_offsets"]
                )
            ),
            sorted_keys=sorted_keys,
            depth=int(header["depth"]),
        )
        store = cls(path, header, plan)
        store._arrays = arrays
        return store

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify(self) -> None:
        """Check every buffer's CRC32 against the header; memoized.

        Raises:
            PlanFormatError: Some buffer's bytes do not match the
                checksum recorded when the file was published.
        """
        with self._lock:
            if self._verified:
                return
            for desc in self.header["buffers"]:
                arr = self._arrays[desc["name"]]
                if zlib.crc32(arr.tobytes()) != desc["crc32"]:
                    raise PlanFormatError(
                        f"{self.path}: buffer {desc['name']!r} "
                        f"checksum mismatch"
                    )
            self._verified = True

    # ------------------------------------------------------------------
    # Overlay (delta / WAL-tail replay)
    # ------------------------------------------------------------------

    def apply_ops(self, ops, *, wal_lsn: int | None = None) -> None:
        """Replay ``(opcode, payload)`` frames into the overlay.

        The same frames the WAL stores; payloads must come from a
        CRC-verified source (delta file or WAL scan).  The frames are
        replayed into a copy that replaces the overlay in one step, so
        a read running beside the replay (a
        :meth:`~repro.planstore.serve.MmapDILI.refresh`) sees the
        overlay from before it or after it, never part of it.
        """
        overlay = _Overlay(self._overlay)
        for opcode, payload in ops:
            args = pickle.loads(payload)
            if opcode == OP_INSERT:
                self._insert_many(overlay, [float(args[0])], [args[1]])
            elif opcode == OP_DELETE:
                self._delete_many(overlay, [float(args[0])])
            elif opcode == OP_UPDATE:
                self._update_many(overlay, [float(args[0])], [args[1]])
            elif opcode in (OP_BULK_INSERT, OP_INSERT_BATCH):
                keys = [float(k) for k in args[0]]
                values = args[1]
                if values is None:  # logged without values, like DILI's
                    values = [DEFAULT_PAYLOAD] * len(keys)
                self._insert_many(overlay, keys, list(values))
            elif opcode == OP_DELETE_BATCH:
                self._delete_many(overlay, [float(k) for k in args[0]])
            elif opcode == OP_UPDATE_BATCH:
                self._update_many(
                    overlay, [float(k) for k in args[0]], list(args[1])
                )
            else:
                raise PlanFormatError(
                    f"{self.path}: unknown overlay opcode {opcode}"
                )
        overlay.seal()
        # Only the swap takes the lock: the replay loop above goes
        # through _insert_many -> _base_contains -> _ensure_verified,
        # which acquires self._lock itself (non-reentrant).
        with self._lock:
            self._overlay = overlay
            if wal_lsn is not None and wal_lsn > self.wal_lsn:
                self.wal_lsn = wal_lsn
            self._count_cache = None

    def _base_contains(self, keys: list[float]) -> np.ndarray:
        self._ensure_verified()
        return self._plan.contains_batch(
            np.asarray(keys, dtype=np.float64)
        )

    @staticmethod
    def _present(overlay: dict, key: float, in_base: bool) -> bool:
        entry = overlay.get(key)
        if entry is not None:
            return entry[0] is not _TOMBSTONE
        return in_base

    def _insert_many(
        self, overlay: dict, keys: list[float], values: list
    ) -> None:
        in_base = self._base_contains(keys)
        for key, value, inb in zip(keys, values, in_base):
            if not self._present(overlay, key, bool(inb)):
                overlay[key] = (value, bool(inb))

    def _delete_many(self, overlay: dict, keys: list[float]) -> None:
        in_base = self._base_contains(keys)
        for key, inb in zip(keys, in_base):
            if not self._present(overlay, key, bool(inb)):
                continue
            entry = overlay.get(key)
            if entry is not None and not entry[1]:
                del overlay[key]  # overlay-only insert: undo it
            else:
                overlay[key] = (_TOMBSTONE, True)

    def _update_many(
        self, overlay: dict, keys: list[float], values: list
    ) -> None:
        in_base = self._base_contains(keys)
        for key, value, inb in zip(keys, values, in_base):
            if self._present(overlay, key, bool(inb)):
                entry = overlay.get(key)
                overlay[key] = (
                    value, entry[1] if entry is not None else bool(inb)
                )

    def _count_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted (overlay-inserted, tombstoned) key arrays for counting."""
        with self._lock:
            cached = self._count_cache
            if cached is None:
                added = np.sort(np.asarray(
                    [k for k, (v, inb) in self._overlay.items()
                     if v is not _TOMBSTONE and not inb],
                    dtype=np.float64,
                ))
                removed = np.sort(np.asarray(
                    [k for k, (v, _) in self._overlay.items()
                     if v is _TOMBSTONE],
                    dtype=np.float64,
                ))
                cached = self._count_cache = (added, removed)
            return cached

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def _ensure_verified(self) -> None:
        if not self._verified:
            self.verify()

    def get_batch(
        self, keys, tracer: Tracer = NULL_TRACER, *, arrays: bool = False
    ):
        """Values for a key batch, ``None`` where absent.

        Mirrors :meth:`repro.core.dili.DILI.get_batch`: with a real
        tracer the recorded base-plan descent is replayed per key in
        batch order, charging the same simulated cycles as the scalar
        loop over the in-memory index.  ``arrays=True`` answers the
        ``(hits, payload)`` pair (see the module docstring) instead of
        the list.
        """
        keys = np.asarray(keys, dtype=np.float64)
        if keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        self._ensure_verified()
        plan = self._plan
        record = not isinstance(tracer, NullTracer)
        out, trace = plan.lookup_batch(keys, record=record)
        if record:
            plan.replay_trace(keys, trace, tracer, DEFAULT_CYCLES)
        hits, payload = self._gather(plan, keys, out)
        return (hits, payload) if arrays else hits_list(hits, payload)

    def _gather(
        self, plan: FlatPlan, keys: np.ndarray, out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(hits, payload)`` pair for the base plan's answers
        ``out`` (flat value indices, -1 = miss), with the overlay's
        entries in place of the base's for the keys it holds."""
        hits = out >= 0
        overlay = self._overlay
        at = overlay.positions(keys)
        if not len(at):
            return hits, plan.values.take(out[hits])
        entries = [overlay[k][0] for k in keys[at].tolist()]
        live = np.fromiter(
            (v is not _TOMBSTONE for v in entries),
            dtype=bool, count=len(entries),
        )
        added = [v for v in entries if v is not _TOMBSTONE]
        from_base = hits.copy()
        from_base[at] = False
        hits[at] = live
        slot = np.cumsum(hits) - 1  # payload index of each hit
        base_values = plan.values.take(out[from_base])
        column = int_column(added) if base_values.dtype == np.int64 else None
        if column is None:
            column = np.fromiter(added, dtype=object, count=len(added))
        payload = np.empty(len(base_values) + len(added), dtype=column.dtype)
        payload[slot[at[live]]] = column
        payload[slot[from_base]] = base_values
        return hits, payload

    def contains_batch(self, keys) -> np.ndarray:
        """Boolean membership for a key batch (vectorized ``in``)."""
        keys = np.asarray(keys, dtype=np.float64)
        if keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        self._ensure_verified()
        result = self._plan.contains_batch(keys)
        overlay = self._overlay
        for pos in overlay.positions(keys).tolist():
            value, _ = overlay[float(keys[pos])]
            result[pos] = value is not _TOMBSTONE
        return result

    def count_range_batch(self, los, his) -> np.ndarray:
        """Vectorized count of stored keys in ``[lo, hi)`` per pair
        (0 unless ``lo < hi``, so a NaN bound counts nothing)."""
        los = np.asarray(los, dtype=np.float64)
        his = np.asarray(his, dtype=np.float64)
        if los.shape != his.shape:
            raise ValueError("los and his must have the same shape")
        self._ensure_verified()
        counts = self._plan.count_range_batch(los, his).astype(np.int64)
        if self._overlay:
            added, removed = self._count_arrays()
            if len(added):
                counts += np.searchsorted(added, his, side="left")
                counts -= np.searchsorted(added, los, side="left")
            if len(removed):
                counts -= np.searchsorted(removed, his, side="left")
                counts += np.searchsorted(removed, los, side="left")
        return np.where(los < his, counts, 0)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        base = int(self.header["value_count"])
        delta = 0
        for value, in_base in self._overlay.values():
            if value is _TOMBSTONE:
                delta -= 1
            elif not in_base:
                delta += 1
        return base + delta

    @property
    def overlay_size(self) -> int:
        return len(self._overlay)

    def close(self) -> None:
        """Drop the memmap references (the OS unmaps on GC)."""
        self._arrays.clear()
        self._plan = None  # type: ignore[assignment]
