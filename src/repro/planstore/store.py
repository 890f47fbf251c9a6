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
a key-level *overlay* (the buffers themselves are immutable).  The
overlay is four parallel arrays sorted by key, one row per key written
since the base was published:

* ``keys`` -- float64, ascending;
* ``payloads`` -- the row's value: int64 while every overlay value is
  an exact Python ``int`` within int64, else a 1-D object array;
* ``live`` -- False for a tombstone (the key was deleted);
* ``in_base`` -- the base holds the key.  By invariant a tombstone only
  exists for base-resident keys: deleting an overlay-only insert just
  removes its row.

Whether the base holds a key (for ``in_base``, for an insert of a key
the base holds, which does nothing, and for ``contains_batch``) is one
``searchsorted`` of the base's sorted key view, not a descent.

A read finds its keys' rows with one ``searchsorted`` and gathers
their payloads with one fancy index.  ``count_range_batch`` is the
base count (two ``searchsorted``) plus overlay-inserted keys in range
minus tombstoned keys in range, from two sorted columns built with the
overlay.  Tracer replay charges the *base* descent only, so
trace-identity to the in-memory plan is exact for overlay-free stores
(the property the parity tests pin down) and approximate once deltas
apply.
"""

from __future__ import annotations

import pickle
import threading
import zlib

import numpy as np

from repro.core.dili import DEFAULT_PAYLOAD
from repro.core.flat import FlatPlan, _member
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

_INSERT, _DELETE, _UPDATE = "insert", "delete", "update"

#: What each logged opcode does to the overlay.
_OP_KIND = {
    OP_INSERT: _INSERT,
    OP_INSERT_BATCH: _INSERT,
    OP_BULK_INSERT: _INSERT,
    OP_DELETE: _DELETE,
    OP_DELETE_BATCH: _DELETE,
    OP_UPDATE: _UPDATE,
    OP_UPDATE_BATCH: _UPDATE,
}
#: Opcodes logged with one key (and value), not a list of them.
_SCALAR_OPS = frozenset({OP_INSERT, OP_DELETE, OP_UPDATE})


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


def _column(values) -> np.ndarray:
    """Payloads as one array: int64 when every one is an exact int
    within int64, else 1-D object (a tuple stays one element)."""
    ints = int_column(values)
    if ints is not None:
        return ints
    return np.fromiter(values, dtype=object, count=len(values))


def _blank(n: int, dtype) -> np.ndarray:
    """Payload placeholders for tombstone rows."""
    if dtype == object:
        return np.full(n, None, dtype=object)
    return np.zeros(n, dtype=dtype)


class _Overlay:
    """The key-level overlay (see the module docstring), never changed
    once built: :meth:`PlanStore.apply_ops` builds a new one and swaps
    it in, so a read that loads the overlay once sees one version.

    ``added`` (live keys the base lacks) and ``removed`` (tombstoned
    keys) are the sorted columns range counts subtract and add.
    """

    __slots__ = ("keys", "payloads", "live", "in_base", "added", "removed")

    def __init__(self, keys, payloads, live, in_base) -> None:
        self.keys = keys
        self.payloads = payloads
        self.live = live
        self.in_base = in_base
        self.added = keys[live & ~in_base]
        self.removed = keys[~live]

    @classmethod
    def empty(cls) -> "_Overlay":
        return cls(
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=bool),
            np.empty(0, dtype=bool),
        )

    def __len__(self) -> int:
        return len(self.keys)

    def rows(self) -> tuple:
        return self.keys, self.payloads, self.live, self.in_base

    def find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(at, rows)``: the positions in ``keys`` of the keys the
        overlay holds, ascending, and those keys' rows."""
        sk = self.keys
        if not len(sk):
            empty = np.empty(0, dtype=np.intp)
            return empty, empty
        pos = np.minimum(np.searchsorted(sk, keys), len(sk) - 1)
        at = np.flatnonzero(sk[pos] == keys)
        return at, pos[at]


def _applied(rows: tuple, kind: str, keys, values, base_contains) -> tuple:
    """Overlay rows after one logged op, as the scalar loop would leave
    them: an insert of a present key and a delete or update of an
    absent one do nothing, and of a key repeated in the batch the
    first insert and the last update win.

    ``base_contains`` answers membership in the base for keys the
    overlay does not hold.  No row is re-sorted: edited rows are
    written in copies, and removed and new rows are spliced in at their
    ``searchsorted`` positions.
    """
    okeys, payloads, live, in_base = rows
    keys = np.asarray(keys, dtype=np.float64)
    pick = np.argsort(keys, kind="stable")
    keys = keys[pick]
    repeat = keys[1:] == keys[:-1]
    if repeat.any():
        # Of a repeated key the last update wins; the first insert or
        # delete acts and the rest find it done.
        if kind == _UPDATE:
            once = np.concatenate((~repeat, [True]))
        else:
            once = np.concatenate(([True], ~repeat))
        keys, pick = keys[once], pick[once]
    column = None if kind == _DELETE else _column(values)[pick]
    pos = np.searchsorted(okeys, keys)
    if len(okeys):
        held = okeys[np.minimum(pos, len(okeys) - 1)] == keys
    else:
        held = np.zeros(len(keys), dtype=bool)
    fresh = ~held
    present = np.zeros(len(keys), dtype=bool)
    present[held] = live[pos[held]]
    fresh_in_base = base_contains(keys[fresh])
    present[fresh] = fresh_in_base
    act = ~present if kind == _INSERT else present
    if not act.any():
        return rows
    if column is not None and payloads.dtype != column.dtype:
        payloads = payloads.astype(object)
        column = column.astype(object)
    edit = held & act
    if edit.any():
        at = pos[edit]
        live, payloads = live.copy(), payloads.copy()
        if kind == _INSERT:
            live[at] = True  # a tombstoned base key, inserted again
        if column is not None:
            payloads[at] = column[edit]
        else:
            gone = at[~in_base[at]]  # overlay-only inserts: undo them
            tomb = at[in_base[at]]
            live[tomb] = False
            payloads[tomb] = _blank(len(tomb), payloads.dtype)
            if len(gone):
                keep = np.ones(len(okeys), dtype=bool)
                keep[gone] = False
                okeys, payloads = okeys[keep], payloads[keep]
                live, in_base = live[keep], in_base[keep]
    new = fresh & act
    if not new.any():
        return okeys, payloads, live, in_base
    new_keys = keys[new]
    # Row i of the new rows lands at its searchsorted slot, shifted by
    # the i new rows before it.
    slots = np.searchsorted(okeys, new_keys) + np.arange(len(new_keys))
    is_new = np.zeros(len(okeys) + len(new_keys), dtype=bool)
    is_new[slots] = True
    is_old = ~is_new

    def spliced(old: np.ndarray, fresh_rows) -> np.ndarray:
        out = np.empty(len(is_new), dtype=old.dtype)
        out[is_new] = fresh_rows
        out[is_old] = old
        return out

    return (
        spliced(okeys, new_keys),
        spliced(
            payloads,
            column[new] if column is not None
            else _blank(len(new_keys), payloads.dtype),
        ),
        spliced(live, kind != _DELETE),
        spliced(in_base, fresh_in_base[new[fresh]]),
    )


class PlanStore:
    """A read-only serving handle over one plan file and its overlay.

    Construct via :meth:`open`.  Thread-safe for reads after open; the
    only internal mutations are the verification memo and
    :meth:`apply_ops`'s swap of the overlay (never changed once swapped
    in), both under a lock.
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
        self._overlay = _Overlay.empty()

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
        CRC-verified source (delta file or WAL scan).  Each frame is
        applied to the overlay's arrays at once, with the scalar loop's
        semantics (see :func:`_applied`), into copies that replace the
        overlay in one step, so a read running beside the replay (a
        :meth:`~repro.planstore.serve.MmapDILI.refresh`) sees the
        overlay from before it or after it, never part of it.
        """
        overlay = self._overlay
        if ops:
            # Outside the lock: verify() takes it (non-reentrant).
            self._ensure_verified()
        rows = start = overlay.rows()
        for opcode, payload in ops:
            kind = _OP_KIND.get(opcode)
            if kind is None:
                raise PlanFormatError(
                    f"{self.path}: unknown overlay opcode {opcode}"
                )
            args = pickle.loads(payload)
            if opcode in _SCALAR_OPS:
                keys, values = [args[0]], list(args[1:]) or None
            else:
                keys, values = args[0], args[1] if len(args) > 1 else None
            if values is None and kind == _INSERT:
                # Logged without values, like DILI's.
                values = [DEFAULT_PAYLOAD] * len(keys)
            rows = _applied(rows, kind, keys, values, self._base_contains)
        if rows is not start:
            overlay = _Overlay(*rows)
        with self._lock:
            self._overlay = overlay
            if wal_lsn is not None and wal_lsn > self.wal_lsn:
                self.wal_lsn = wal_lsn

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def _ensure_verified(self) -> None:
        if not self._verified:
            self.verify()

    def _base_contains(self, keys: np.ndarray) -> np.ndarray:
        """Membership in the base: one ``searchsorted`` of its sorted
        key view, which answers what a descent would (the descent,
        :meth:`FlatPlan.contains_batch`, is the tests' reference)."""
        return _member(self._plan.key_base, keys)

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
        at, rows = overlay.find(keys)
        if not len(at):
            return hits, plan.values.take(out[hits])
        live = overlay.live[rows]
        from_base = hits.copy()
        from_base[at] = False
        hits[at] = live
        slot = np.cumsum(hits) - 1  # payload index of each hit
        base_values = plan.values.take(out[from_base])
        column = overlay.payloads[rows[live]]
        if base_values.dtype != np.int64:
            column = column.astype(object, copy=False)
        elif column.dtype == object:
            ints = int_column(column)
            column = column if ints is None else ints
        payload = np.empty(len(base_values) + len(column), dtype=column.dtype)
        payload[slot[at[live]]] = column
        payload[slot[from_base]] = base_values
        return hits, payload

    def contains_batch(self, keys) -> np.ndarray:
        """Boolean membership for a key batch (vectorized ``in``)."""
        keys = np.asarray(keys, dtype=np.float64)
        if keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        self._ensure_verified()
        result = self._base_contains(keys)
        overlay = self._overlay
        at, rows = overlay.find(keys)
        result[at] = overlay.live[rows]
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
        overlay = self._overlay
        if len(overlay):
            added, removed = overlay.added, overlay.removed
            if len(added):
                counts += np.searchsorted(added, his, side="left")
                counts -= np.searchsorted(added, los, side="left")
            if len(removed):
                counts -= np.searchsorted(removed, his, side="left")
                counts += np.searchsorted(removed, los, side="left")
        return np.where(los < his, counts, 0)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        overlay = self._overlay
        return (
            int(self.header["value_count"])
            + len(overlay.added)
            - len(overlay.removed)
        )

    @property
    def overlay_size(self) -> int:
        return len(self._overlay)

    def close(self) -> None:
        """Drop the memmap references (the OS unmaps on GC)."""
        self._arrays.clear()
        self._plan = None  # type: ignore[assignment]
