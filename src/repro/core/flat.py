"""Array-packed read plan for vectorized batch lookups.

The DILI node tree is a pointer structure: every ``get`` chases
``InternalNode`` / ``LeafNode`` objects one attribute at a time.  That is
faithful to the paper's algorithms but leaves most of numpy's throughput
on the table, because DILI's equal-width internal models make the entire
descent a *data-parallel* computation: at every level the next hop is
``floor(intercept + slope * key)`` clamped into the fanout -- the same
multiply-add for every in-flight key.

:func:`compile_plan` packs the tree into structure-of-arrays buffers
(one row per node, one row per entry-array slot) and
:class:`FlatPlan` descends a whole key batch level-synchronously with
numpy ops -- no per-key Python in the loop.  The plan references the
live tree's payload objects and is compiled lazily by
:meth:`repro.core.dili.DILI.get_batch`.  It *survives* mutations
without ever changing: every write yields one successor plan through
``applied_insert_many`` / ``applied_delete_many`` (inserts, deletes)
or ``applied_values`` (value updates), whose cost scales with the write,
not the index (see *Maintenance* below).  A full recompile is the last
resort (see ``DILI._invalidate_plan`` and the ``plan_patches`` /
``plan_subtree_recompiles`` / ``plan_recompiles`` counters).

:class:`InternalRouter` is the write-path sibling: internal nodes are
immutable after bulk load, so a cached array-packed skeleton of just
the internals routes whole write batches to their target top-level
leaves level-synchronously.

Layout
------
Node table (row = one node; the root is row 0, and a compiled plan
lists the rows in DFS preorder):

========  =======  ====================================================
array     dtype    meaning
========  =======  ====================================================
kind      int8     0 internal, 1 locally-optimized leaf, 2 dense leaf
slope     float64  node model slope
intercept float64  node model intercept
size      int64    slot count (internal/leaf) or key count (dense)
base      int64    first row in the slot table (internal/leaf) or the
                   first index in ``dense_keys`` (dense)
region    int64    tracer memory-region id of the original node
========  =======  ====================================================

Slot table (row = one child pointer or entry-array slot):

=========  =====  =====================================================
array      dtype  meaning
=========  =====  =====================================================
slot_kind  int8   0 empty, 1 pair, 2 child node
slot_ref   int64  pair index (kind 1) or node row (kind 2)
=========  =====  =====================================================

``pair_keys`` / ``dense_keys`` hold the keys and ``sorted_keys`` the
ascending view that range counts bisect.  ``values`` holds every
payload, pair payloads first, so a lookup resolves to ``values[i]`` for
a single flat index ``i``.  ``values`` is a 1-D object ndarray (one
element per payload, whatever its type), so
:meth:`FlatPlan.gather_values` fetches a batch's hits with one
``take``: a read costs O(batch), not O(index).  In a compiled plan both
key tables are ascending (a DFS of the tree visits keys in order) and
``sorted_keys`` *is* ``pair_keys`` on pair-only trees.

Cost tracing
------------
``lookup_batch(..., record=True)`` additionally returns the per-level
descent trace (which node each key visited and at which slot).  The
tracer-aware callers replay that trace key by key, in batch order,
through the ordinary :class:`~repro.simulate.tracer.Tracer` protocol --
charging exactly the events the scalar ``get`` loop would have charged,
in the same order, so the stateful LRU cache simulation produces
identical totals.

Maintenance, garbage and compaction
-----------------------------------
A maintained plan's rows are stable: a successor never moves an
existing node row, slot row or pair entry.  It rewrites the slots the
write changed, appends node rows, slot blocks and pair entries for
what is new, and keeps ``sorted_keys`` as its own array, edited from
the keys the write reports (never derived from the stored pair keys).
For each written key the tier walks the key's path through the plan
and the live tree together and, at the first slot where they
disagree, writes the live pair, an empty slot or a freshly emitted
nested subtree -- usually a 2-pair leaf.  A value update appends its
new pair and rewrites the pair's slot the same way.  Only a top-level
leaf that adjusted, or was rebuilt, is re-emitted whole; its own node
row is then overwritten, which keeps every parent pointer valid and
row 0 the root even when the root is a leaf.

None of this copies the plan.  A chain of successors shares its
buffers through one :class:`_Arenas`: the node columns, ``pair_keys``
and ``values`` are append-only arenas of which each plan views a
prefix, and the slot tables are a left-right pair of copies
(Ramalhete and Correia, 2015).  A successor appends past its parent's
views and writes its slot rewrites into the copy its parent does not
read, after replaying the parent's own step into it -- O(write), not
O(index).  A copy is written in place only once no plan that reads it
is alive (the chain keeps weak references to its plans); otherwise,
when an arena is full, when a re-emit overwrites a node row (older
plans still read it), and for the first successor of a plan outside
any chain or not its chain's newest, the tables are copied, which
costs what every write cost before.

Every unreachable row and dead pair entry is garbage, invisible to
lookups, replay and gathers, which only follow references.
:meth:`FlatPlan.compacted` rebuilds the canonical layout -- bitwise
what :func:`compile_plan` builds from the same tree -- and validates
that the reachable keys are exactly ``sorted_keys``.  It runs inside a
tier once dead pair entries outnumber live keys, and before a plan is
written to a file (``DILI.export_plan``) or self-checked.

Versioning and publication
--------------------------
A plan is an immutable value.  Every plan carries a globally
monotonic ``version``, and each maintenance tier returns a new plan
(with a new version) whose buffers are views shared with its
predecessors: no element any existing plan can read is ever written.
A plan that :class:`repro.core.concurrent.ConcurrentDILI` has
published to lock-free readers is therefore maintained exactly like a
private one, and no reader can see a half-patched plan.  A reader's
own reference keeps its plan alive, and with it the slot copy the
plan reads; a superseded plan is freed as soon as the last one is
dropped (plans accept weak references, so a caller can tell when).
Only plan objects hold a copy back, so no code may keep a plan's
buffer once it has dropped the plan.  Lint rule CHK001 keeps every
write to a plan buffer inside ``_Arenas.append`` and
``_Arenas.rewrite``.
"""

from __future__ import annotations

import bisect
import threading
import weakref

import numpy as np

from repro.check.errors import InvariantError
from repro.core.linear_model import clamp_slot, clamp_slots
from repro.core.nodes import DenseLeafNode, InternalNode, LeafNode
from repro.simulate.latency import CyclesPerOp, DEFAULT_CYCLES
from repro.simulate.tracer import NULL_TRACER, Tracer

KIND_INTERNAL = 0
KIND_LEAF = 1
KIND_DENSE = 2

SLOT_EMPTY = 0
SLOT_PAIR = 1
SLOT_NODE = 2

_MAX_DESCENT = 4096
"""Hard cap on descent iterations; the deepest legal tree is the BU
height plus ``MAX_NESTING_DEPTH``, orders of magnitude below this."""

_VERSION_LOCK = threading.Lock()
_NEXT_VERSION = 1


def next_plan_version() -> int:
    """Globally monotonic plan version (thread-safe).

    Process-wide rather than per-index so a plan version never repeats:
    readers tell plans apart by ``version`` (``published_plan_version``),
    and a counter that restarted per compile could move backwards
    across an invalidate -> recompile cycle.
    """
    global _NEXT_VERSION
    with _VERSION_LOCK:
        version = _NEXT_VERSION
        _NEXT_VERSION += 1
    return version


#: :class:`FlatPlan` constructor arguments; a successor plan takes
#: every one its maintenance tier does not rewrite from its parent.
_PLAN_FIELDS = (
    "kind", "slope", "intercept", "size", "base", "region", "slot_kind",
    "slot_ref", "pair_keys", "dense_keys", "values", "sorted_keys",
    "depth", "arenas", "step",
)

#: Capacity growth of a full arena or slot-table copy: the copy that
#: replaces it has this much room, so appends cost amortized O(write).
_GROWTH = 1.25


def _grown(view: np.ndarray, size: int) -> np.ndarray:
    """A fresh buffer holding ``view``, with room for ``size`` elements
    and ``_GROWTH`` times more (object slack is None-filled)."""
    spare = int(size * _GROWTH) + 1 - len(view)
    return np.concatenate([view, np.empty(spare, dtype=view.dtype)])


class _Arenas:
    """The buffers one chain of plan versions shares, and their one writer.

    A chain starts at the first successor of a plan that belongs to no
    chain (a :func:`compile_plan`, :meth:`FlatPlan.compacted` or plan
    store plan), or that is not its chain's newest plan; every later
    successor of the newest plan joins it.  ``step`` numbers the chain's
    plans.  Plans hold prefix views of these buffers and the chain holds
    only weak references to plans, so a plan still lives exactly as long
    as its readers' references.

    * ``arena_tables`` -- the node columns, ``pair_keys`` and
      ``values``, append-only: :meth:`append` writes past the newest
      plan's views, which no plan reads yet.
    * ``slot_copies`` -- the slot tables as a left-right pair
      (Ramalhete and Correia, 2015): step ``s`` writes copy ``s % 2``,
      the one its parent does not read, and :meth:`rewrite` writes it in
      place only once no plan reading it is alive (``readers``).
    """

    __slots__ = ("arena_tables", "slot_copies", "readers", "step", "lag")

    def __init__(self) -> None:
        self.arena_tables: dict[str, np.ndarray] = {}
        self.slot_copies: list[dict | None] = [None, None]
        #: Weak references to the plans that read each slot copy.
        self.readers: tuple[list, list] = ([], [])
        self.step = 0
        #: What the copy the newest plan does not read lacks: the slot
        #: rows its step rewrote and the first row its step appended.
        self.lag = (np.empty(0, dtype=np.int64), 0)

    def append(
        self, views: dict, added: dict, overwrites: list = ()
    ) -> dict:
        """``views`` (the newest plan's columns of one arena, or a plan's
        outside any chain) with ``added`` appended, as prefix views.

        Appends in place while the arena has room; otherwise, and for
        a first append, copies the views into a grown buffer.  Each
        ``(row, local)`` in ``overwrites`` copies the ``local``-th
        appended row over row ``row``; older plans read that row, so the
        columns are copied first.
        """
        n = len(next(iter(views.values())))
        m = len(next(iter(added.values())))
        first = next(iter(views))
        if (
            overwrites
            or first not in self.arena_tables
            or len(self.arena_tables[first]) < n + m
        ):
            for name, view in views.items():
                self.arena_tables[name] = _grown(view, n + m)
        for name, extra in added.items():
            self.arena_tables[name][n:n + m] = extra
            for row, local in overwrites:
                self.arena_tables[name][row] = self.arena_tables[name][
                    n + local
                ]
        return {name: self.arena_tables[name][:n + m] for name in views}

    def rewrite(self, views: dict, added: dict, at: np.ndarray,
                what: dict) -> dict:
        """The next step's slot tables: ``views`` (the newest plan's)
        with ``added`` appended and rows ``at`` set to ``what``.

        They go to the copy the newest plan does not read.  That copy
        holds its parent's tables, so it first catches up with the rows
        the newest plan's step rewrote and appended (``lag``).  While a
        plan reading it is alive, or it lacks room, the newest plan's
        tables are copied into a grown buffer for it instead.
        """
        side = (self.step + 1) & 1
        n = len(views["slot_kind"])
        m = len(added["slot_kind"])
        copy = self.slot_copies[side]
        if (
            copy is None
            or len(copy["slot_kind"]) < n + m
            or any(ref() is not None for ref in self.readers[side])
        ):
            self.slot_copies[side] = {
                name: _grown(view, n + m) for name, view in views.items()
            }
        else:
            rows, lo = self.lag
            for name, view in views.items():
                self.slot_copies[side][name][lo:n] = view[lo:n]
                self.slot_copies[side][name][rows] = view[rows]
        for name, extra in added.items():
            self.slot_copies[side][name][n:n + m] = extra
            self.slot_copies[side][name][at] = what[name]
        self.lag = (at, n)
        self.readers[side].clear()
        self.step += 1
        return {
            name: self.slot_copies[side][name][:n + m] for name in views
        }


class FlatPlan:
    """Structure-of-arrays snapshot of a DILI tree, for batch reads."""

    __slots__ = (
        "kind",
        "slope",
        "intercept",
        "size",
        "base",
        "region",
        "slot_kind",
        "slot_ref",
        "pair_keys",
        "dense_keys",
        "values",
        "sorted_keys",
        "num_pairs",
        "depth",
        "arenas",
        "step",
        "version",
        "__weakref__",
    )

    def __init__(
        self,
        kind: np.ndarray,
        slope: np.ndarray,
        intercept: np.ndarray,
        size: np.ndarray,
        base: np.ndarray,
        region: np.ndarray,
        slot_kind: np.ndarray,
        slot_ref: np.ndarray,
        pair_keys: np.ndarray,
        dense_keys: np.ndarray,
        values: np.ndarray,
        sorted_keys: np.ndarray,
        depth: int,
        arenas: _Arenas | None = None,
        step: int = 0,
    ) -> None:
        self.kind = kind
        self.slope = slope
        self.intercept = intercept
        self.size = size
        self.base = base
        self.region = region
        self.slot_kind = slot_kind
        self.slot_ref = slot_ref
        self.pair_keys = pair_keys
        self.dense_keys = dense_keys
        self.values = values
        self.sorted_keys = sorted_keys
        self.num_pairs = len(pair_keys)
        self.depth = depth
        #: The chain whose buffers this plan views (None outside one)
        #: and its step there; the plan reads slot copy ``step % 2``.
        self.arenas = arenas
        self.step = step
        if arenas is not None:
            arenas.readers[step & 1].append(weakref.ref(self))
        self.version = next_plan_version()

    # ------------------------------------------------------------------
    # Batch descent
    # ------------------------------------------------------------------

    def lookup_batch(
        self, keys: np.ndarray, record: bool = False
    ) -> tuple[np.ndarray, list | None]:
        """Resolve every key to a flat value index (-1 when absent).

        Args:
            keys: 1-D float64 key batch.
            record: Also return the descent trace for tracer replay.

        Returns:
            ``(out, trace)``: ``out[i]`` indexes :attr:`values` or is -1;
            ``trace`` is ``None`` unless ``record``, else a list of
            per-level ``(idx, node, pos)`` arrays plus a final
            ``(idx, node, None)`` entry for keys that ended in a dense
            leaf.
        """
        q = np.ascontiguousarray(keys, dtype=np.float64)
        n = len(q)
        out = np.full(n, -1, dtype=np.int64)
        if n == 0:
            return out, ([] if record else None)
        idx = np.arange(n, dtype=np.int64)
        node = np.zeros(n, dtype=np.int64)
        trace: list | None = [] if record else None
        dense_idx_parts: list[np.ndarray] = []
        dense_node_parts: list[np.ndarray] = []
        # An infinite key at a zero-slope row (a single-pair leaf's
        # constant model) predicts 0 * inf = NaN, as plain float
        # arithmetic does on the scalar path, and the clamp sends it to
        # slot 0: numpy's invalid-value flag is expected there, not an
        # error.  One errstate per batch, not per level.
        with np.errstate(invalid="ignore"):
            for _ in range(_MAX_DESCENT):
                if idx.size == 0:
                    break
                kinds = self.kind[node]
                dense = kinds == KIND_DENSE
                if dense.any():
                    dense_idx_parts.append(idx[dense])
                    dense_node_parts.append(node[dense])
                    keep = ~dense
                    idx = idx[keep]
                    node = node[keep]
                    if idx.size == 0:
                        break
                # One multiply-add per in-flight key locates the next
                # slot (Eq. 1 / Algorithm 5 line 4).
                pos = clamp_slots(
                    self.intercept[node] + self.slope[node] * q[idx],
                    self.size[node],
                )
                if record:
                    trace.append((idx, node, pos))
                ref = self.base[node] + pos
                skind = self.slot_kind[ref]
                sref = self.slot_ref[ref]
                is_pair = skind == SLOT_PAIR
                if is_pair.any():
                    pidx = idx[is_pair]
                    pref = sref[is_pair]
                    hit = self.pair_keys[pref] == q[pidx]
                    out[pidx[hit]] = pref[hit]
                descend = skind == SLOT_NODE
                idx = idx[descend]
                node = sref[descend]
            else:  # pragma: no cover - defended structural corruption
                raise RuntimeError("flat plan descent did not terminate")
        if dense_idx_parts:
            didx = np.concatenate(dense_idx_parts)
            dnode = np.concatenate(dense_node_parts)
            if record:
                trace.append((didx, dnode, None))
            if len(self.dense_keys):
                pos = np.searchsorted(self.dense_keys, q[didx])
                np.clip(pos, 0, len(self.dense_keys) - 1, out=pos)
                hit = self.dense_keys[pos] == q[didx]
                out[didx[hit]] = self.num_pairs + pos[hit]
        return out, trace

    def get_batch(self, keys: np.ndarray) -> list:
        """Values for every key, ``None`` where absent (batch ``get``)."""
        out, _ = self.lookup_batch(keys)
        return self.gather_values(out)

    def gather_values(self, out: np.ndarray) -> list:
        """Map flat value indices (-1 = miss) to payloads.

        Only the hits are fetched, with one ``take`` from the payload
        table into a ``None``-filled object array, so the work is
        O(batch) at C speed however large the index.  ``take`` hands
        back a 1-D object array, which a boolean mask can receive even
        when every payload is an equal-length tuple or array (a Python
        list of those would be read as an extra dimension).
        """
        picked = np.full(len(out), None, dtype=object)
        hits = out >= 0
        picked[hits] = self.values.take(out[hits])
        return picked.tolist()

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        """Boolean membership array for the key batch."""
        out, _ = self.lookup_batch(keys)
        return out >= 0

    def get(self, key: float) -> object | None:
        """The payload stored under ``key``, or None (scalar ``get``).

        One scalar descent through :meth:`_locate`, so the plan answers
        exactly what ``DILI.get`` answers on the tree it was built from;
        lock-free point reads of
        :class:`repro.core.concurrent.ConcurrentDILI` use it.
        """
        key = float(key)
        located = self._locate(key)
        if located is None:  # pragma: no cover - structural corruption
            raise RuntimeError("flat plan descent did not terminate")
        row, pos = located
        if pos < 0:  # dense leaf: search its slice of the key table
            lo = self.base.item(row)
            hi = lo + self.size.item(row)
            i = lo + int(np.searchsorted(self.dense_keys[lo:hi], key))
            if i < hi and self.dense_keys.item(i) == key:
                return self.values[self.num_pairs + i]
            return None
        ref = self.base.item(row) + pos
        if self.slot_kind.item(ref) != SLOT_PAIR:
            return None
        p = self.slot_ref.item(ref)
        return self.values[p] if self.pair_keys.item(p) == key else None

    # ------------------------------------------------------------------
    # Range counting
    # ------------------------------------------------------------------

    def count_range(self, lo: float, hi: float) -> int:
        """Number of stored keys in ``[lo, hi)``, two binary searches."""
        return int(self.count_range_batch([lo], [hi])[0])

    def count_range_batch(
        self, los: np.ndarray, his: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`count_range` over paired bound arrays.

        A pair with ``not lo < hi`` counts 0: no key lies in an empty
        range, nor in one with a NaN bound.
        """
        los = np.asarray(los, dtype=np.float64)
        his = np.asarray(his, dtype=np.float64)
        if los.shape != his.shape:
            raise ValueError("los and his must have the same shape")
        sk = self.sorted_keys
        counts = np.searchsorted(sk, his, side="left") - np.searchsorted(
            sk, los, side="left"
        )
        return np.where(los < his, counts, 0)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    #
    # A plan never changes once built.  Each applied_* tier returns
    # None when it cannot prove its successor answers like a fresh
    # compile_plan(root) -- callers then fall back to full invalidation
    # -- and otherwise a successor with a new version whose canonical
    # form (compacted()) is *identical* to a fresh compile of the
    # mutated tree (asserted by the equivalence tests), so reads cannot
    # tell the difference.  A tier never calls another through its
    # public name: the serving benchmark times each one as a span.

    def _locate(self, key: float) -> tuple[int, int] | None:
        """Scalar descent to ``key``'s terminal ``(node row, slot pos)``.

        Uses the live tree's scalar arithmetic (Python floats and
        :func:`~repro.core.linear_model.clamp_slot`), so the located
        slot is exactly the one the scalar operation touched.  Returns
        ``(row, -1)`` for a dense-leaf terminal, ``None`` if the
        descent does not terminate.
        """
        kind = self.kind
        slope = self.slope
        intercept = self.intercept
        size = self.size
        base = self.base
        slot_kind = self.slot_kind
        slot_ref = self.slot_ref
        row = 0
        for _ in range(_MAX_DESCENT):
            if kind.item(row) == KIND_DENSE:
                return row, -1
            pos = clamp_slot(
                intercept.item(row) + slope.item(row) * key, size.item(row)
            )
            ref = base.item(row) + pos
            if slot_kind.item(ref) == SLOT_NODE:
                row = slot_ref.item(ref)
                continue
            return row, pos
        return None

    def _replaced(self, **buffers) -> "FlatPlan":
        """Successor plan (new version) with ``buffers`` swapped in.

        Every buffer not named is shared with ``self``, which is safe
        because no element a live plan reads is ever written.
        """
        fields = {name: getattr(self, name) for name in _PLAN_FIELDS}
        fields.update(buffers)
        return FlatPlan(**fields)

    def applied_values(self, pairs: list) -> "FlatPlan | None":
        """Plan with ``(key, value)`` payload replacements applied.

        Value updates never restructure the tree.  On a pair-only plan
        each update appends its ``(key, value)`` pair and rewrites the
        pair's slot to it, as the write path does for a changed pair;
        the old entry is garbage under the one garbage rule.  Dense
        terminals (DILI-LO) have no slot to rewrite, so there the
        successor copies the payload table with one entry replaced per
        pair.
        """
        slots = []  # value index of each pair's current payload
        refs = []  # its slot row (pair terminals)
        for key, _ in pairs:
            loc = self._locate(key)
            if loc is None:
                return None
            row, pos = loc
            if pos < 0:  # dense terminal
                b = int(self.base[row])
                m = int(self.size[row])
                block = self.dense_keys[b:b + m]
                i = int(np.searchsorted(block, key))
                if i >= m or block[i] != key:
                    return None
                slots.append(self.num_pairs + b + i)
                continue
            ref = int(self.base[row]) + pos
            if self.slot_kind[ref] != SLOT_PAIR:
                return None
            p = int(self.slot_ref[ref])
            if self.pair_keys[p] != key:
                return None
            slots.append(p)
            refs.append(ref)
        if len(self.dense_keys):
            values = self.values.copy()
            for i, (_, value) in zip(slots, pairs):
                values[i] = value
            return self._replaced(values=values)
        new = _PlanBuilder()
        writes: dict[int, tuple[int, int]] = {}
        for ref, (key, value) in zip(refs, pairs):
            writes[ref] = (SLOT_PAIR, self.num_pairs + len(new.pair_keys))
            new.pair_keys.append(key)
            new.pair_vals.append(value)
        try:
            return self._built(new, writes, [], self.sorted_keys)
        except InvariantError:
            return None

    def applied_insert_many(self, groups: list) -> "tuple | None":
        """Successor after inserts: ``(plan, patches, subtrees)`` or None.

        ``groups`` holds ``(top_leaf, keys, adjusted)``: a live
        top-level leaf, the keys just inserted into it, and whether it
        adjusted meanwhile (then the whole leaf is re-emitted).  The
        keys of every other leaf join ``sorted_keys`` as they are.
        """
        return self._successor(groups, inserted=True)

    def applied_delete_many(self, groups: list) -> "tuple | None":
        """Successor after deletes; ``groups`` holds ``(top_leaf, keys)``
        with the keys just deleted from each leaf (deletes never adjust,
        a collapse is a slot rewrite like any other)."""
        return self._successor(
            [(leaf, keys, False) for leaf, keys in groups], inserted=False
        )

    def applied_recompile_subtrees(self, groups: list) -> "tuple | None":
        """Successor with whole top-level leaves re-emitted; ``groups``
        holds ``(top_leaf, key)`` with any key that routes to the leaf.

        No write path calls it (an adjusted leaf re-emits through
        :meth:`applied_insert_many`).  It stays because the serving
        benchmark's tracer (``benchmarks/serving/tracing.py``,
        ``LAYER_CALLS``) wraps it by name as a ``core.flat.maintain``
        span.
        """
        return self._successor(
            [(leaf, [key], True) for leaf, key in groups], inserted=False
        )

    def _successor(self, groups: list, *, inserted: bool) -> "tuple | None":
        """Shared body of the three structural tiers.

        A path-local group walks each written key through the plan and
        the live tree together (:meth:`_write_path`); a re-emitted group
        appends its whole top-level subtree and overwrites the leaf's
        own node row, which keeps every parent pointer (and row 0 the
        root).  Past the garbage rule the successor is compacted.
        Returns ``(plan, patches, subtrees)``: slot rewrites and emitted
        subtrees, for the index's counters.
        """
        if len(self.dense_keys):
            return None  # dense leaves have no slots to rewrite
        new = _PlanBuilder()  # appended node rows, slot blocks and pairs
        writes: dict[int, tuple[int, int]] = {}  # slot row -> (kind, ref)
        reemits = []  # (row, builder row, builder pair range)
        point = []  # keys of the path-local groups
        try:
            rows, hops = self._top_row([keys[0] for _, keys, _ in groups])
            for (leaf, keys, reemit), row, depth in zip(
                groups, rows.tolist(), (hops + 1).tolist()
            ):
                if int(self.region[row]) != leaf.region:
                    return None  # plan out of sync with the live tree
                if reemit:
                    p0 = len(new.pair_keys)
                    local = new.add_node(leaf, depth)
                    reemits.append((row, local, p0, len(new.pair_keys)))
                    continue
                point.extend(keys)
                for key in keys:
                    self._write_path(key, row, leaf, depth, new, writes)
            sorted_keys = self._edited_keys(point, inserted)
            if sorted_keys is None:
                return None
            for lo, hi, p0, p1 in sorted(
                (*self._key_run(sorted_keys, row), p0, p1)
                for row, _, p0, p1 in reemits
            )[::-1]:
                sorted_keys = np.concatenate([
                    sorted_keys[:lo],
                    np.asarray(new.pair_keys[p0:p1], dtype=np.float64),
                    sorted_keys[hi:],
                ])
            plan = self._built(
                new, writes, [r[:2] for r in reemits], sorted_keys
            )
        except InvariantError:
            return None
        spawns = sum(1 for kind, _ in writes.values() if kind == SLOT_NODE)
        return plan, len(writes) - spawns, len(reemits) + spawns

    def _built(self, new, writes: dict, overwrites: list,
               sorted_keys: np.ndarray) -> "FlatPlan":
        """The successor holding what a tier collected, compacted once
        it crosses the one garbage rule: dead pair entries outnumbering
        live keys, which keeps garbage below the live size."""
        plan = self._replaced(
            sorted_keys=sorted_keys,
            depth=max(self.depth, new.max_depth),
            **self._appended(new, writes, overwrites),
        )
        live = len(sorted_keys)
        if plan.num_pairs - live > live:
            plan = plan.compacted()
        return plan

    def _top_row(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, hops)`` of the top-level leaves ``keys`` route to.

        One level-synchronous descent of the internal rows with
        :func:`~repro.core.linear_model.clamp_slots`, whose float64
        arithmetic lands on the rows the scalar ``child_index`` does
        (the identity :class:`InternalRouter` relies on too).
        """
        q = np.asarray(keys, dtype=np.float64)
        rows = np.zeros(len(q), dtype=np.int64)
        hops = np.zeros(len(q), dtype=np.int64)
        live = np.arange(len(q))
        for _ in range(_MAX_DESCENT):
            live = live[self.kind[rows[live]] == KIND_INTERNAL]
            if not live.size:
                return rows, hops
            at = rows[live]
            pos = clamp_slots(
                self.intercept[at] + self.slope[at] * q[live], self.size[at]
            )
            rows[live] = self.slot_ref[self.base[at] + pos]
            hops[live] += 1
        raise InvariantError("plan descent did not terminate")

    def _write_path(self, key, row, node, depth, new, writes) -> None:
        """Record one write at the first slot on ``key``'s path where
        the plan and the live tree disagree: the live pair, an empty
        slot, or a freshly emitted nested subtree.

        A slot written earlier in the same successor already holds the
        live state, so the walk stops there too.  Raises
        :class:`InvariantError` when a row's region or model differs
        from its live node's (the plan is out of sync).
        """
        while True:
            if (
                self.slope.item(row) != node.slope
                or self.intercept.item(row) != node.intercept
                or self.size.item(row) != len(node.slots)
            ):
                raise InvariantError(f"plan row {row} model is stale")
            pos = node.predict_slot(key)
            ref = self.base.item(row) + pos
            if ref in writes:
                return
            entry = node.slots[pos]
            kind = self.slot_kind.item(ref)
            if entry is None:
                if kind == SLOT_EMPTY:
                    return
                writes[ref] = (SLOT_EMPTY, 0)
            elif type(entry) is tuple:
                if (
                    kind == SLOT_PAIR
                    and self.pair_keys.item(self.slot_ref.item(ref))
                    == entry[0]
                ):
                    return
                writes[ref] = (SLOT_PAIR, self.num_pairs + len(new.pair_keys))
                new.pair_keys.append(entry[0])
                new.pair_vals.append(entry[1])
            elif kind == SLOT_NODE:
                row = self.slot_ref.item(ref)
                if self.region.item(row) != entry.region:
                    raise InvariantError(f"plan row {row} region is stale")
                node = entry
                depth += 1
                continue
            else:
                writes[ref] = (
                    SLOT_NODE, len(self.kind) + new.add_node(entry, depth + 1)
                )
            return

    def _edited_keys(self, keys: list, inserted: bool) -> "np.ndarray | None":
        """``sorted_keys`` with ``keys`` inserted or deleted; None when
        one is already present (insert) or missing (delete).

        One ``concatenate`` of the runs between the written positions
        (and, for inserts, the new keys): a single copy of the table,
        where ``np.insert`` / ``np.delete`` take several passes.
        """
        sk = self.sorted_keys
        if not keys:
            return sk
        ks = np.sort(np.asarray(keys, dtype=np.float64))
        if len(ks) > 1 and not np.all(ks[1:] > ks[:-1]):
            return None  # a key written twice in one successor
        at = np.searchsorted(sk, ks)
        inside = at < len(sk)
        present = np.zeros(len(ks), dtype=bool)
        present[inside] = sk[at[inside]] == ks[inside]
        if inserted:
            if present.any():
                return None
            cuts = [*at.tolist(), len(sk)]
            parts = [sk[:cuts[0]]]
            for i in range(len(ks)):
                parts += (ks[i:i + 1], sk[cuts[i]:cuts[i + 1]])
            return np.concatenate(parts)
        if not present.all():
            return None
        cuts = [-1, *at.tolist(), len(sk)]
        return np.concatenate(
            [sk[cuts[i] + 1:cuts[i + 1]] for i in range(len(ks) + 1)]
        )

    def _key_run(self, sorted_keys: np.ndarray, row: int) -> tuple[int, int]:
        """``[lo, hi)`` of the keys in ``sorted_keys`` that route to the
        top-level ``row``.  Top-level rows never move, so their order is
        key order and routing is a valid bisection key."""
        def route(key) -> int:
            return int(self._top_row([key])[0][0])

        lo = bisect.bisect_left(sorted_keys, row, key=route)
        return lo, bisect.bisect_right(sorted_keys, row, lo=lo, key=route)

    def _appended(self, new, writes: dict, overwrites: list) -> dict:
        """The successor's rewritten buffers, as views of its chain's
        (see :class:`_Arenas`): the slot tables with ``writes`` applied,
        plus whatever ``new`` appended (node rows, slot blocks, pair
        entries).  Each ``(row, builder row)`` in ``overwrites`` copies a
        re-emitted leaf's fresh node row over its old one.  Tables the
        write does not touch stay shared as they are.

        The newest plan of a chain extends it; any other plan starts a
        new chain, whose first writes copy its tables.
        """
        arenas = self.arenas
        if arenas is None or self.step != arenas.step:
            arenas = _Arenas()
        n_rows, n_slots = len(self.kind), len(self.slot_kind)
        add_kind = np.asarray(new.slot_kind, dtype=np.int8)
        add_ref = np.asarray(new.slot_ref, dtype=np.int64)
        add_ref[add_kind == SLOT_NODE] += n_rows
        add_ref[add_kind == SLOT_PAIR] += self.num_pairs
        what = np.asarray(list(writes.values()), dtype=np.int64).reshape(-1, 2)
        out = arenas.rewrite(
            {"slot_kind": self.slot_kind, "slot_ref": self.slot_ref},
            {"slot_kind": add_kind, "slot_ref": add_ref},
            np.fromiter(writes, dtype=np.int64, count=len(writes)),
            {"slot_kind": what[:, 0], "slot_ref": what[:, 1]},
        )
        if new.kind:
            columns = (
                ("kind", np.int8, new.kind),
                ("slope", np.float64, new.slope),
                ("intercept", np.float64, new.intercept),
                ("size", np.int64, new.size),
                ("base", np.int64, np.asarray(new.base) + n_slots),
                ("region", np.int64, new.region),
            )
            out.update(arenas.append(
                {name: getattr(self, name) for name, _, _ in columns},
                {name: np.asarray(added, dtype=dtype)
                 for name, dtype, added in columns},
                overwrites,
            ))
        if new.pair_keys:
            out.update(arenas.append(
                {"pair_keys": self.pair_keys, "values": self.values},
                {
                    "pair_keys": np.asarray(new.pair_keys, dtype=np.float64),
                    "values": _object_array(new.pair_vals),
                },
            ))
        return {**out, "arenas": arenas, "step": arenas.step}

    def compacted(self) -> "FlatPlan":
        """The canonical layout, bitwise what ``compile_plan(root)`` builds.

        Reachable rows come out in DFS preorder (the lexsort of their
        slot-position paths), slot and dense blocks in row order, and
        pairs in key order, so ``pair_keys`` is ``sorted_keys``; every
        unreachable row and dead pair entry is dropped.  Raises
        :class:`InvariantError` unless the reachable keys, sorted, are
        exactly ``sorted_keys``.
        """
        try:
            return self._canonical()
        except IndexError as exc:
            raise InvariantError(
                f"plan references outside its tables: {exc}"
            ) from None

    def _canonical(self) -> "FlatPlan":
        kind, size, base = self.kind, self.size, self.base
        level = np.zeros(1, dtype=np.int64)
        paths = np.zeros((1, 0), dtype=np.int64)
        levels = []
        reached = 0
        while level.size:
            reached += level.size
            if reached > len(kind):
                raise InvariantError("plan rows do not form a tree")
            levels.append((level, paths))
            slotted = kind[level] != KIND_DENSE
            parents = level[slotted]
            m = size[parents]
            slots = _ranges(base[parents], m)
            child = self.slot_kind[slots] == SLOT_NODE
            owner = np.repeat(np.arange(len(parents)), m)[child]
            pos = (slots - np.repeat(base[parents], m))[child]
            level = self.slot_ref[slots[child]]
            paths = np.column_stack([paths[slotted][owner], pos])
        padded = np.full((reached, len(levels)), -1, dtype=np.int64)
        at = 0
        for depth, (rows, row_paths) in enumerate(levels):
            padded[at:at + len(rows), :depth] = row_paths
            at += len(rows)
        old = np.concatenate([rows for rows, _ in levels])
        old = old[np.lexsort(padded.T[::-1])]
        if len(np.unique(old)) != len(old):
            raise InvariantError("plan rows do not form a tree")
        new_id = np.zeros(len(kind), dtype=np.int64)
        new_id[old] = np.arange(len(old))
        new_kind = kind[old]
        new_size = size[old]
        old_base = base[old]
        slotted = new_kind != KIND_DENSE
        slots = _ranges(old_base[slotted], new_size[slotted])
        slot_kind = self.slot_kind[slots]
        refs = self.slot_ref[slots]
        slot_ref = np.zeros(len(slots), dtype=np.int64)
        nodes = slot_kind == SLOT_NODE
        slot_ref[nodes] = new_id[refs[nodes]]
        pairs = refs[slot_kind == SLOT_PAIR]
        by_key = np.argsort(self.pair_keys[pairs], kind="stable")
        rank = np.empty(len(pairs), dtype=np.int64)
        rank[by_key] = np.arange(len(pairs))
        slot_ref[slot_kind == SLOT_PAIR] = rank
        pairs = pairs[by_key]
        pair_keys = self.pair_keys[pairs]
        dense = _ranges(old_base[~slotted], new_size[~slotted])
        dense_keys = self.dense_keys[dense]
        blocks = np.where(slotted, new_size, 0)
        dense_blocks = new_size - blocks
        sorted_keys = _sorted_view(pair_keys, dense_keys)
        reach = np.sort(sorted_keys) if len(dense_keys) else sorted_keys
        if not np.array_equal(reach, self.sorted_keys):
            raise InvariantError(
                f"plan reaches {len(reach)} keys that are not its "
                f"{len(self.sorted_keys)} sorted keys"
            )
        return FlatPlan(
            kind=new_kind,
            slope=self.slope[old],
            intercept=self.intercept[old],
            size=new_size,
            base=np.where(
                slotted,
                np.cumsum(blocks) - blocks,
                np.cumsum(dense_blocks) - dense_blocks,
            ),
            region=self.region[old],
            slot_kind=slot_kind,
            slot_ref=slot_ref,
            pair_keys=pair_keys,
            dense_keys=dense_keys,
            values=np.concatenate([
                self.values[pairs], self.values[self.num_pairs + dense]
            ]),
            sorted_keys=sorted_keys,
            depth=len(levels),
        )

    # ------------------------------------------------------------------
    # Tracer replay
    # ------------------------------------------------------------------

    def replay_trace(
        self,
        keys: np.ndarray,
        trace: list,
        tracer: Tracer,
        cycles: CyclesPerOp = DEFAULT_CYCLES,
    ) -> None:
        """Charge the tracer exactly as per-key scalar ``get`` calls would.

        The batch descent is level-synchronous, but the simulated cache
        is a stateful LRU: event *order* changes hit/miss outcomes.  So
        the recorded trace is transposed into per-key paths and replayed
        key by key in batch order -- the same event stream, in the same
        order, as ``for k in keys: index.get(k, tracer)``.
        """
        from repro.core.search_util import exp_search_lub

        n = len(keys)
        if n == 0:
            return
        depth = len(trace)
        path_node = np.full((n, depth), -1, dtype=np.int64)
        path_pos = np.full((n, depth), -1, dtype=np.int64)
        for level, (idx, node, pos) in enumerate(trace):
            path_node[idx, level] = node
            if pos is None:  # dense terminals carry no slot position
                path_pos[idx, level] = -2
            else:
                path_pos[idx, level] = pos
        eta = cycles.linear_model
        branch = cycles.branch
        mu_e = cycles.exp_search_step
        # Plain-python copies of the node table: the replay loop indexes
        # them per event, and python ints compare/hash like the scalar
        # path's attributes do.
        kind = self.kind.tolist()
        region = self.region.tolist()
        slot_kind = self.slot_kind.tolist()
        base = self.base.tolist()
        slope = self.slope.tolist()
        intercept = self.intercept.tolist()
        size = self.size.tolist()
        dense_keys = self.dense_keys
        mem = tracer.mem
        compute = tracer.compute
        nodes_list = path_node.tolist()
        pos_list = path_pos.tolist()
        keys_list = np.ascontiguousarray(keys, dtype=np.float64).tolist()
        for i in range(n):
            key = keys_list[i]
            row_nodes = nodes_list[i]
            row_pos = pos_list[i]
            tracer.phase("step1")
            in_step2 = False
            for level in range(depth):
                v = row_nodes[level]
                if v < 0:
                    continue
                k = kind[v]
                if not in_step2 and k != KIND_INTERNAL:
                    tracer.phase("step2")
                    in_step2 = True
                p = row_pos[level]
                if p == -2:  # dense leaf: Algorithm 1's last mile
                    m = size[v]
                    if m == 0:
                        break
                    mem(region[v])
                    compute(eta)
                    hint = clamp_slot(intercept[v] + slope[v] * key, m)
                    b = base[v]
                    exp_search_lub(
                        dense_keys[b:b + m], key, hint, tracer,
                        region[v], mu_e=mu_e,
                    )
                    break
                mem(region[v])
                compute(eta)
                if k == KIND_INTERNAL:
                    mem(region[v], 64 + p * 8)
                else:
                    mem(region[v], 64 + p * 16)
                    if slot_kind[base[v] + p] == SLOT_PAIR:
                        compute(branch)
            if not in_step2:
                tracer.phase("step2")

    def memory_bytes(self) -> int:
        """Bytes of the buffer prefixes this plan reads.

        Versions of one chain share their arenas, so each counts the
        shared prefix again, and none counts an arena's spare capacity
        or the slot copy it does not read: the figure is what one
        version reaches, not what a chain holds resident.
        """
        arrays = (
            self.kind, self.slope, self.intercept, self.size, self.base,
            self.region, self.slot_kind, self.slot_ref, self.pair_keys,
            self.dense_keys, self.sorted_keys,
        )
        return sum(a.nbytes for a in arrays) + 8 * len(self.values)

    def self_check(self) -> None:
        """Verify SoA cross-reference integrity.

        The sanitizer hook point (:mod:`repro.check.invariants` calls
        this during deep verification).  The checks run on the
        canonical form (:meth:`compacted`, which already fails unless
        the reachable keys are exactly ``sorted_keys``): every table
        length, slot reference, dense block, and sorted-key ordering.
        Raises :class:`repro.check.errors.InvariantError` on the first
        inconsistency.
        """
        plan = self.compacted()
        rows = len(plan.kind)
        for name in ("slope", "intercept", "size", "base", "region"):
            if len(getattr(plan, name)) != rows:
                raise InvariantError(
                    f"plan table '{name}' has {len(getattr(plan, name))} "
                    f"rows, kind has {rows}"
                )
        if len(plan.slot_kind) != len(plan.slot_ref):
            raise InvariantError(
                f"slot tables diverge: {len(plan.slot_kind)} kinds vs "
                f"{len(plan.slot_ref)} refs"
            )
        if plan.num_pairs != len(plan.pair_keys):
            raise InvariantError(
                f"num_pairs {plan.num_pairs} != pair table length "
                f"{len(plan.pair_keys)}"
            )
        if len(plan.values) != plan.num_pairs + len(plan.dense_keys):
            raise InvariantError(
                f"value table holds {len(plan.values)} entries for "
                f"{plan.num_pairs} pairs + {len(plan.dense_keys)} dense keys"
            )
        for name in ("pair_keys", "sorted_keys"):
            arr = getattr(plan, name)
            if len(arr) > 1 and not bool(np.all(arr[1:] > arr[:-1])):
                raise InvariantError(f"plan '{name}' not strictly ascending")
        n_slots = len(plan.slot_kind)
        for row in range(rows):
            b = int(plan.base[row])
            m = int(plan.size[row])
            if plan.kind[row] == KIND_DENSE:
                if b < 0 or b + m > len(plan.dense_keys):
                    raise InvariantError(
                        f"dense row {row} block [{b}, {b + m}) outside "
                        f"dense_keys[0, {len(plan.dense_keys)})"
                    )
                block = plan.dense_keys[b:b + m]
                if len(block) > 1 and not bool(np.all(block[1:] > block[:-1])):
                    raise InvariantError(f"dense row {row} block unsorted")
            elif b < 0 or m < 1 or b + m > n_slots:
                raise InvariantError(
                    f"row {row} slots [{b}, {b + m}) outside the slot "
                    f"table [0, {n_slots})"
                )
        bad_kind = ~np.isin(plan.slot_kind, (SLOT_EMPTY, SLOT_PAIR, SLOT_NODE))
        if bool(np.any(bad_kind)):
            raise InvariantError("slot table holds an unknown slot kind")
        pair_refs = plan.slot_ref[plan.slot_kind == SLOT_PAIR]
        if len(pair_refs) != plan.num_pairs or not bool(
            np.array_equal(np.sort(pair_refs), np.arange(plan.num_pairs))
        ):
            raise InvariantError(
                f"{len(pair_refs)} pair slots do not reference the "
                f"{plan.num_pairs} pair-table entries exactly once"
            )
        node_refs = plan.slot_ref[plan.slot_kind == SLOT_NODE]
        if len(node_refs) and (
            int(node_refs.min()) < 1 or int(node_refs.max()) >= rows
        ):
            raise InvariantError("slot table references a node row "
                                 "outside the node table")


def _sorted_view(pair_keys: np.ndarray, dense_keys: np.ndarray) -> np.ndarray:
    """A compiled plan's ``sorted_keys``: the one non-empty key table
    itself, or both merged (mixed trees cannot arise from bulk_load,
    but stay correct)."""
    if len(dense_keys) == 0:
        return pair_keys
    if len(pair_keys) == 0:
        return dense_keys
    return np.sort(np.concatenate([pair_keys, dense_keys]))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + n)`` for every ``(s, n)`` pair."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(
        starts - offsets, lengths
    )


def _object_array(items: list) -> np.ndarray:
    """1-D object ndarray holding each of ``items`` as one element.

    ``np.asarray`` would read equal-length tuples, lists or arrays as
    an extra dimension; ``fromiter`` never looks inside a payload.
    """
    return np.fromiter(items, dtype=object, count=len(items))


class _PlanBuilder:
    """Accumulates SoA rows for a (sub)tree in DFS preorder.

    Shared by :func:`compile_plan` (whole tree) and the maintenance
    tiers (one builder per successor collects every emitted subtree and
    appended pair; the successor offsets its locally 0-based references
    past the tables it extends).
    """

    __slots__ = (
        "kind", "slope", "intercept", "size", "base", "region",
        "slot_kind", "slot_ref", "pair_keys", "pair_vals",
        "dense_key_parts", "dense_vals", "dense_len", "max_depth",
    )

    def __init__(self) -> None:
        self.kind: list[int] = []
        self.slope: list[float] = []
        self.intercept: list[float] = []
        self.size: list[int] = []
        self.base: list[int] = []
        self.region: list[int] = []
        self.slot_kind: list[int] = []
        self.slot_ref: list[int] = []
        self.pair_keys: list[float] = []
        self.pair_vals: list = []
        self.dense_key_parts: list[np.ndarray] = []
        self.dense_vals: list = []
        self.dense_len = 0
        self.max_depth = 0

    def add_node(self, node, depth: int) -> int:
        if depth > self.max_depth:
            self.max_depth = depth
        kind = self.kind
        slot_kind = self.slot_kind
        slot_ref = self.slot_ref
        nid = len(kind)
        t = type(node)
        if t is InternalNode:
            children = node.children
            kind.append(KIND_INTERNAL)
            self.slope.append(node.slope)
            self.intercept.append(node.intercept)
            self.size.append(len(children))
            b = len(slot_kind)
            self.base.append(b)
            self.region.append(node.region)
            slot_kind.extend([SLOT_NODE] * len(children))
            slot_ref.extend([0] * len(children))
            for i, child in enumerate(children):
                slot_ref[b + i] = self.add_node(child, depth + 1)
        elif t is DenseLeafNode:
            kind.append(KIND_DENSE)
            self.slope.append(node.slope)
            self.intercept.append(node.intercept)
            self.size.append(len(node.keys))
            self.base.append(self.dense_len)
            self.region.append(node.region)
            self.dense_key_parts.append(
                np.asarray(node.keys, dtype=np.float64)
            )
            self.dense_vals.extend(node.values)
            self.dense_len += len(node.keys)
        else:
            slots = node.slots
            kind.append(KIND_LEAF)
            self.slope.append(node.slope)
            self.intercept.append(node.intercept)
            self.size.append(len(slots))
            b = len(slot_kind)
            self.base.append(b)
            self.region.append(node.region)
            slot_kind.extend([SLOT_EMPTY] * len(slots))
            slot_ref.extend([0] * len(slots))
            pair_keys = self.pair_keys
            pair_vals = self.pair_vals
            for i, entry in enumerate(slots):
                if entry is None:
                    continue
                if type(entry) is tuple:
                    slot_kind[b + i] = SLOT_PAIR
                    slot_ref[b + i] = len(pair_keys)
                    pair_keys.append(entry[0])
                    pair_vals.append(entry[1])
                else:
                    slot_kind[b + i] = SLOT_NODE
                    slot_ref[b + i] = self.add_node(entry, depth + 1)
        return nid


def compile_plan(root) -> FlatPlan:
    """Pack the node tree under ``root`` into a :class:`FlatPlan`.

    One DFS over the tree; payload objects are shared with the live
    tree, keys are copied into flat float64 buffers.  Slot/pair order
    follows the in-tree order, so ``pair_keys`` and ``dense_keys`` come
    out ascending (slot prediction is monotone in the key).
    """
    b = _PlanBuilder()
    b.add_node(root, 1)
    pair_arr = np.asarray(b.pair_keys, dtype=np.float64)
    dense_arr = (
        np.concatenate(b.dense_key_parts)
        if b.dense_key_parts
        else np.empty(0, dtype=np.float64)
    )
    return FlatPlan(
        kind=np.asarray(b.kind, dtype=np.int8),
        slope=np.asarray(b.slope, dtype=np.float64),
        intercept=np.asarray(b.intercept, dtype=np.float64),
        size=np.asarray(b.size, dtype=np.int64),
        base=np.asarray(b.base, dtype=np.int64),
        region=np.asarray(b.region, dtype=np.int64),
        slot_kind=np.asarray(b.slot_kind, dtype=np.int8),
        slot_ref=np.asarray(b.slot_ref, dtype=np.int64),
        pair_keys=pair_arr,
        dense_keys=dense_arr,
        values=_object_array(b.pair_vals + b.dense_vals),
        sorted_keys=_sorted_view(pair_arr, dense_arr),
        depth=b.max_depth,
    )


class InternalRouter:
    """Array-packed internal skeleton for routing whole write batches.

    Internal nodes are immutable after bulk load -- inserts, deletes and
    leaf adjustments only ever replace slots *inside* top-level leaves --
    so this skeleton stays valid for the lifetime of a root.  ``DILI``
    caches one per tree and rebuilds it only when the root object is
    replaced.  :meth:`route` descends a key batch level-synchronously
    (the same multiply-add as the flat plan) and returns each key's
    target top-level leaf; with ``record=True`` it also returns the
    per-level trace from which the batch write path synthesizes the
    scalar descent's tracer events.
    """

    __slots__ = (
        "root", "slope", "intercept", "size", "base", "region",
        "child_is_leaf", "child_ref", "leaves",
    )

    def __init__(self, root) -> None:
        self.root = root
        slope: list[float] = []
        intercept: list[float] = []
        size: list[int] = []
        base: list[int] = []
        region: list[int] = []
        child_is_leaf: list[bool] = []
        child_ref: list[int] = []
        leaves: list = []

        def add(node) -> int:
            nid = len(slope)
            children = node.children
            slope.append(node.slope)
            intercept.append(node.intercept)
            size.append(len(children))
            b = len(child_is_leaf)
            base.append(b)
            region.append(node.region)
            child_is_leaf.extend([False] * len(children))
            child_ref.extend([0] * len(children))
            for i, child in enumerate(children):
                if type(child) is InternalNode:
                    child_ref[b + i] = add(child)
                else:
                    child_is_leaf[b + i] = True
                    child_ref[b + i] = len(leaves)
                    leaves.append(child)
            return nid

        if type(root) is InternalNode:
            add(root)
        else:
            leaves.append(root)
        self.slope = np.asarray(slope, dtype=np.float64)
        self.intercept = np.asarray(intercept, dtype=np.float64)
        self.size = np.asarray(size, dtype=np.int64)
        self.base = np.asarray(base, dtype=np.int64)
        self.region = np.asarray(region, dtype=np.int64)
        self.child_is_leaf = np.asarray(child_is_leaf, dtype=bool)
        self.child_ref = np.asarray(child_ref, dtype=np.int64)
        self.leaves = leaves

    def route(
        self, keys: np.ndarray, record: bool = False
    ) -> tuple[np.ndarray, list | None]:
        """Target leaf index (into :attr:`leaves`) for every key.

        Returns ``(out, trace)``; ``trace`` is ``None`` unless
        ``record``, else per-level ``(idx, node, pos)`` arrays matching
        the flat plan's trace format (internal levels only).
        """
        n = len(keys)
        out = np.zeros(n, dtype=np.int64)
        trace: list | None = [] if record else None
        if len(self.slope) == 0 or n == 0:
            return out, trace
        idx = np.arange(n, dtype=np.int64)
        node = np.zeros(n, dtype=np.int64)
        for _ in range(_MAX_DESCENT):
            if idx.size == 0:
                break
            pos = clamp_slots(
                self.intercept[node] + self.slope[node] * keys[idx],
                self.size[node],
            )
            if record:
                trace.append((idx, node, pos))
            ref = self.base[node] + pos
            leafy = self.child_is_leaf[ref]
            tgt = self.child_ref[ref]
            out[idx[leafy]] = tgt[leafy]
            keep = ~leafy
            idx = idx[keep]
            node = tgt[keep]
        else:  # pragma: no cover - defended structural corruption
            raise RuntimeError("router descent did not terminate")
        return out, trace
