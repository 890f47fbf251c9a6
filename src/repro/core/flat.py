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
:meth:`repro.core.dili.DILI.get_batch`.  It *survives* mutations:
slot-level changes (insert into an empty slot, delete of a top-frame
pair, value update) patch the buffers in place (``patch_insert_many`` /
``patch_delete_many`` / ``patch_value``), structural changes (nested
leaf spawn, ``_adjust``, single-pair collapse) recompile only the
affected top-level leaves' subtrees (``recompile_subtrees``), and a full
recompile is the last resort (see ``DILI._invalidate_plan`` and the
``plan_patches`` / ``plan_subtree_recompiles`` / ``plan_recompiles``
counters).

:class:`InternalRouter` is the write-path sibling: internal nodes are
immutable after bulk load, so a cached array-packed skeleton of just
the internals routes whole write batches to their target top-level
leaves level-synchronously.

Layout
------
Node table (row = one node, in DFS preorder; the root is row 0):

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

``pair_keys`` / ``dense_keys`` hold the keys (both ascending -- a DFS of
the tree visits keys in order) and ``values`` holds every payload, pair
payloads first, so a lookup resolves to ``values[i]`` for a single flat
index ``i``.  ``values`` is a 1-D object ndarray (one element per
payload, whatever its type), so :meth:`FlatPlan.gather_values` fetches a
batch's hits with one ``take``: a read costs O(batch), not O(index).

Cost tracing
------------
``lookup_batch(..., record=True)`` additionally returns the per-level
descent trace (which node each key visited and at which slot).  The
tracer-aware callers replay that trace key by key, in batch order,
through the ordinary :class:`~repro.simulate.tracer.Tracer` protocol --
charging exactly the events the scalar ``get`` loop would have charged,
in the same order, so the stateful LRU cache simulation produces
identical totals.

Versioning and publication
--------------------------
Every plan carries a globally monotonic ``version`` and a ``frozen``
flag.  :meth:`FlatPlan.freeze` (called by
:class:`repro.core.epoch.PlanPublisher` at publication) makes the plan
immutable: the in-place ``patch_*`` / ``recompile_*`` mutators raise
:class:`~repro.check.errors.InvariantError` on a frozen plan.  Plan
maintenance goes through the ``applied_*`` constructors instead, which
mutate in place while the plan is private (the pre-publication fast
path, identical to the old behavior) and switch to copy-on-write once
it is frozen: the clone shares every unmodified SoA buffer with its
parent and copies only the arrays the patch writes (the slot tables
for inserts/deletes, the payload table for updates; subtree splices
rebuild whole arrays and need no private copies at all).  Lint rule
CHK008 keeps all other code off the in-place mutators.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.check.errors import InvariantError
from repro.core.epoch import next_plan_version
from repro.core.local_opt import _SAFE_PRED
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
        "version",
        "frozen",
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
        self.version = next_plan_version()
        self.frozen = False

    # ------------------------------------------------------------------
    # Versioning / copy-on-write publication support
    # ------------------------------------------------------------------

    def freeze(self) -> "FlatPlan":
        """Mark this plan immutable (idempotent); returns ``self``.

        Called at publication time: once other threads can hold
        lock-free references to the buffers, in-place patching would be
        a torn read waiting to happen, so the ``patch_*`` /
        ``recompile_*`` mutators refuse frozen plans and maintenance
        switches to the copy-on-write ``applied_*`` constructors.
        """
        self.frozen = True
        return self

    def _frozen_guard(self) -> None:
        if self.frozen:
            raise InvariantError(
                "in-place mutation of a frozen (published) FlatPlan; "
                "use the applied_* copy-on-write constructors"
            )

    def _cow_clone(
        self, *, copy_slots: bool = False, copy_values: bool = False
    ) -> "FlatPlan":
        """Unfrozen clone sharing every buffer its patch will not touch.

        The patch tiers validate fully before mutating and touch a
        known, small subset of the tables in place (everything else is
        rebuilt as fresh arrays), so the clone copies exactly that
        subset: ``copy_slots`` privatizes the slot tables
        (insert/delete patches), ``copy_values`` the payload table
        (value patches).  Subtree splices reassign whole arrays and need
        neither.
        """
        clone = FlatPlan.__new__(FlatPlan)
        for name in FlatPlan.__slots__:
            setattr(clone, name, getattr(self, name))
        if copy_slots:
            clone.slot_kind = self.slot_kind.copy()
            clone.slot_ref = self.slot_ref.copy()
        if copy_values:
            clone.values = self.values.copy()
        clone.version = next_plan_version()
        clone.frozen = False
        return clone

    def applied_values(self, pairs: list) -> "FlatPlan | None":
        """Plan with ``(key, value)`` payload replacements applied.

        Returns ``self`` (patched in place) while unfrozen, a
        copy-on-write clone once frozen, or ``None`` when any key's
        terminal cannot be located (plan out of sync): the caller must
        fall back to invalidation.  A frozen plan is never half
        patched -- the clone is discarded on failure.
        """
        target = self if not self.frozen else self._cow_clone(copy_values=True)
        for key, value in pairs:
            if not target.patch_value(key, value):
                return None
        return target

    def applied_insert_many(self, pairs: list) -> "FlatPlan | None":
        """Plan with newly inserted pairs spliced in (COW when frozen).

        Same contract as :meth:`applied_values`; the insert patch
        mutates only the slot tables in place (the key/value arrays are
        rebuilt), so the clone privatizes exactly those.
        """
        target = self if not self.frozen else self._cow_clone(copy_slots=True)
        return target if target.patch_insert_many(pairs) else None

    def applied_delete_many(self, keys: Sequence[float]) -> "FlatPlan | None":
        """Plan with top-frame pair deletions applied (COW when frozen)."""
        target = self if not self.frozen else self._cow_clone(copy_slots=True)
        return target if target.patch_delete_many(keys) else None

    def applied_recompile_subtrees(self, items: list) -> "FlatPlan | None":
        """Plan with structurally changed subtrees respliced.

        COW when frozen; the splice reassembles every table as fresh
        concatenations (unchanged chunks are copied by
        ``np.concatenate``), so the clone shares nothing it mutates and
        needs no private copies up front.
        """
        target = self if not self.frozen else self._cow_clone()
        return target if target.recompile_subtrees(items) else None

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
            # One multiply-add per in-flight key locates the next slot
            # (Eq. 1 / Algorithm 5 line 4), floored and clamped exactly
            # like the scalar predict_slot/child_index.
            pos = np.floor(
                self.intercept[node] + self.slope[node] * q[idx]
            ).astype(np.int64)
            np.clip(pos, 0, self.size[node] - 1, out=pos)
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

    # ------------------------------------------------------------------
    # Range counting
    # ------------------------------------------------------------------

    def count_range(self, lo: float, hi: float) -> int:
        """Number of stored keys in ``[lo, hi)``, two binary searches."""
        if hi <= lo:
            return 0
        sk = self.sorted_keys
        return int(
            np.searchsorted(sk, hi, side="left")
            - np.searchsorted(sk, lo, side="left")
        )

    def count_range_batch(
        self, los: np.ndarray, his: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`count_range` over paired bound arrays."""
        los = np.asarray(los, dtype=np.float64)
        his = np.asarray(his, dtype=np.float64)
        if los.shape != his.shape:
            raise ValueError("los and his must have the same shape")
        sk = self.sorted_keys
        counts = np.searchsorted(sk, his, side="left") - np.searchsorted(
            sk, los, side="left"
        )
        return np.maximum(counts, 0)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    #
    # All patch methods return False (leaving the plan untouched or --
    # for recompile_subtrees -- only consistently updated) when they
    # cannot prove the in-place edit is equivalent to a fresh
    # compile_plan(root); callers then fall back to full invalidation.
    # On success, the patched arrays are *identical* to what a fresh
    # compile of the mutated tree would produce (asserted by the
    # equivalence tests), so reads cannot tell the difference.

    def _locate(self, key: float) -> tuple[int, int] | None:
        """Scalar descent to ``key``'s terminal ``(node row, slot pos)``.

        Uses the same scalar ``int(math.floor(...))`` arithmetic as the
        live tree's ``child_index``/``predict_slot``, so the located
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
            if kind[row] == KIND_DENSE:
                return row, -1
            pos = int(math.floor(intercept[row] + slope[row] * key))
            last = int(size[row]) - 1
            if pos < 0:
                pos = 0
            elif pos > last:
                pos = last
            ref = int(base[row]) + pos
            if slot_kind[ref] == SLOT_NODE:
                row = int(slot_ref[ref])
                continue
            return row, pos
        return None

    def patch_value(self, key: float, value) -> bool:
        """Replace ``key``'s payload in the flat value table in place.

        Value updates never restructure the tree, so the plan's only
        stale state is one ``values`` entry.  Works on pair and dense
        terminals alike.
        """
        self._frozen_guard()
        loc = self._locate(key)
        if loc is None:
            return False
        row, pos = loc
        if pos < 0:  # dense terminal
            b = int(self.base[row])
            m = int(self.size[row])
            block = self.dense_keys[b:b + m]
            i = int(np.searchsorted(block, key))
            if i >= m or block[i] != key:
                return False
            self.values[self.num_pairs + b + i] = value
            return True
        ref = int(self.base[row]) + pos
        if self.slot_kind[ref] != SLOT_PAIR:
            return False
        p = int(self.slot_ref[ref])
        if self.pair_keys[p] != key:
            return False
        self.values[p] = value
        return True

    def patch_insert_many(self, pairs: list) -> bool:
        """Splice newly inserted pairs into the buffers in place.

        ``pairs`` are ``(key, value)`` tuples the live tree just placed
        into previously *empty* slots (no spawn, no adjust).  Slot
        positions come from re-running the descent on the plan itself;
        the key and payload tables each grow by one vectorized
        ``np.insert`` with the existing pair references shifted in bulk.
        """
        self._frozen_guard()
        if len(self.dense_keys):
            return False  # dense/mixed plans: patching keys not supported
        k = len(pairs)
        if k == 0:
            return True
        refs = []
        for key, _ in pairs:
            loc = self._locate(key)
            if loc is None or loc[1] < 0:
                return False
            row, pos = loc
            ref = int(self.base[row]) + pos
            if self.slot_kind[ref] != SLOT_EMPTY:
                return False
            refs.append(ref)
        keys_arr = np.fromiter(
            (p[0] for p in pairs), dtype=np.float64, count=k
        )
        order = np.argsort(keys_arr, kind="stable")
        keys_sorted = keys_arr[order]
        if k > 1 and not np.all(keys_sorted[1:] > keys_sorted[:-1]):
            return False  # duplicate keys in one patch batch
        old = self.pair_keys
        ins = np.searchsorted(old, keys_sorted)
        # Existing pair index i moves up by the number of new keys
        # landing at or before it.
        pair_mask = self.slot_kind == SLOT_PAIR
        prefs = self.slot_ref[pair_mask]
        self.slot_ref[pair_mask] = prefs + np.searchsorted(
            ins, prefs, side="right"
        )
        self.pair_keys = np.insert(old, ins, keys_sorted)
        self.sorted_keys = self.pair_keys
        final = ins + np.arange(k, dtype=np.int64)
        slot_kind = self.slot_kind
        slot_ref = self.slot_ref
        for t in range(k):
            ref = refs[int(order[t])]
            slot_kind[ref] = SLOT_PAIR
            slot_ref[ref] = final[t]
        self.values = np.insert(
            self.values, ins,
            _object_array([pairs[int(t)][1] for t in order]),
        )
        self.num_pairs += k
        return True

    def patch_delete_many(self, keys: Sequence[float]) -> bool:
        """Remove deleted top-frame pairs from the buffers in place.

        ``keys`` were just deleted from pair slots without any
        structural change (no nested-leaf collapse).  The vacated slots
        become ``SLOT_EMPTY`` with a zeroed ref -- exactly what a fresh
        compile of the mutated tree would emit.
        """
        self._frozen_guard()
        if len(self.dense_keys):
            return False
        k = len(keys)
        if k == 0:
            return True
        drop = np.empty(k, dtype=np.int64)
        slot_refs = []
        pair_keys = self.pair_keys
        for t, key in enumerate(keys):
            loc = self._locate(key)
            if loc is None or loc[1] < 0:
                return False
            row, pos = loc
            ref = int(self.base[row]) + pos
            if self.slot_kind[ref] != SLOT_PAIR:
                return False
            p = int(self.slot_ref[ref])
            if pair_keys[p] != key:
                return False
            drop[t] = p
            slot_refs.append(ref)
        drop.sort()
        if k > 1 and not np.all(drop[1:] > drop[:-1]):
            return False  # duplicate keys in one patch batch
        for ref in slot_refs:
            self.slot_kind[ref] = SLOT_EMPTY
            self.slot_ref[ref] = 0
        pair_mask = self.slot_kind == SLOT_PAIR
        prefs = self.slot_ref[pair_mask]
        self.slot_ref[pair_mask] = prefs - np.searchsorted(drop, prefs)
        self.pair_keys = np.delete(pair_keys, drop)
        self.sorted_keys = self.pair_keys
        self.values = np.delete(self.values, drop)
        self.num_pairs -= k
        return True

    def recompile_subtrees(self, items: list) -> bool:
        """Recompile structurally changed top-level leaves, one splice.

        ``items`` holds ``(key, top_leaf)`` pairs: each ``top_leaf`` is
        a live-tree top-level leaf that just changed *structurally*
        (spawn / adjust / collapse) and ``key`` is any key routing to
        it.  DFS-preorder construction makes each top-level leaf's plan
        footprint contiguous in all three tables (node rows, slot rows,
        pair indices), so every stale extent is cut out, the freshly
        built arrays spliced in, and all references outside the extents
        shifted by cumulative size deltas -- a single pass over the
        buffers no matter how many leaves changed, which is what makes
        write batches with many structural groups affordable.
        """
        self._frozen_guard()
        if len(self.dense_keys):
            return False
        if not items:
            return True
        kind = self.kind
        segs = []
        for key, top_leaf in items:
            row = 0
            hops = 0
            for _ in range(_MAX_DESCENT):
                if kind[row] != KIND_INTERNAL:
                    break
                pos = int(
                    math.floor(
                        self.intercept[row] + self.slope[row] * key
                    )
                )
                last = int(self.size[row]) - 1
                if pos < 0:
                    pos = 0
                elif pos > last:
                    pos = last
                row = int(self.slot_ref[int(self.base[row]) + pos])
                hops += 1
            else:
                return False
            if int(self.region[row]) != top_leaf.region:
                return False  # plan out of sync with the live tree
            ext = self._subtree_extent(row)
            if ext is None:
                return False
            node_end, slot_end, pair_lo, pair_count = ext
            b = _PlanBuilder()
            b.add_node(top_leaf, 1)
            if b.dense_len:
                return False
            if pair_count == 0:
                # Empty footprint (e.g. a previously empty leaf whose
                # batch inserts were all structural, so none were
                # patched in): no pair anchors the splice.  The pair
                # table is globally key-ordered, so the insertion point
                # of the rebuilt subtree's first key (or of the routing
                # key, when it stays empty) is the anchor.
                anchor = b.pair_keys[0] if b.pair_keys else key
                pair_lo = int(np.searchsorted(self.pair_keys, anchor))
            segs.append((
                row, node_end, int(self.base[row]), slot_end,
                pair_lo, pair_lo + pair_count, b, hops,
            ))
        segs.sort(key=lambda s: s[0])
        k = len(segs)
        # Disjointness guard: distinct top-level leaves always yield
        # ordered, non-overlapping extents in all three tables.
        for i in range(1, k):
            if (
                segs[i - 1][1] > segs[i][0]
                or segs[i - 1][3] > segs[i][2]
                or segs[i - 1][5] > segs[i][4]
            ):
                return False
        # Cumulative deltas before each segment (and after the last).
        dn = [0] * (k + 1)
        ds = [0] * (k + 1)
        dp = [0] * (k + 1)
        for i, (r, ne, sl, se, pl, pe, b, _h) in enumerate(segs):
            dn[i + 1] = dn[i] + len(b.kind) - (ne - r)
            ds[i + 1] = ds[i] + len(b.slot_kind) - (se - sl)
            dp[i + 1] = dp[i] + len(b.pair_keys) - (pe - pl)
        node_ends = np.asarray([s[1] for s in segs], dtype=np.int64)
        slot_ends = np.asarray([s[3] for s in segs], dtype=np.int64)
        pair_ends = np.asarray([s[5] for s in segs], dtype=np.int64)
        dn_arr = np.asarray(dn, dtype=np.int64)
        ds_arr = np.asarray(ds, dtype=np.int64)
        dp_arr = np.asarray(dp, dtype=np.int64)
        # Fix references in the slot rows *outside* every extent.  An
        # outside ref to old node x (or pair y) shifts by the cumulative
        # delta of the segments that end at or before it; a parent's
        # pointer to a segment root r_i lands on new_r_i the same way.
        old_sk = self.slot_kind
        old_sr = self.slot_ref.copy()
        outside = np.ones(len(old_sk), dtype=bool)
        for r, ne, sl, se, pl, pe, b, _h in segs:
            outside[sl:se] = False
        nmask = outside & (old_sk == SLOT_NODE)
        old_sr[nmask] += dn_arr[
            np.searchsorted(node_ends, old_sr[nmask], side="right")
        ]
        pmask = outside & (old_sk == SLOT_PAIR)
        old_sr[pmask] += dp_arr[
            np.searchsorted(pair_ends, old_sr[pmask], side="right")
        ]
        # Outside node rows keep their slot blocks; the block start
        # shifts by the cumulative slot delta before it.
        new_node_base = self.base + ds_arr[
            np.searchsorted(slot_ends, self.base, side="right")
        ]
        # Assemble every table as alternating [unchanged | rebuilt]
        # chunks -- one concatenate per array.
        kind_parts = []
        slope_parts = []
        intercept_parts = []
        size_parts = []
        region_parts = []
        base_parts = []
        sk_parts = []
        sr_parts = []
        pk_parts = []
        val_parts = []
        prev_n = 0
        prev_s = 0
        prev_p = 0
        vals = self.values
        max_new_depth = self.depth
        for i, (r, ne, sl, se, pl, pe, b, hops) in enumerate(segs):
            new_sk = np.asarray(b.slot_kind, dtype=np.int8)
            new_sr = np.asarray(b.slot_ref, dtype=np.int64)
            new_sr[new_sk == SLOT_NODE] += r + dn[i]
            new_sr[new_sk == SLOT_PAIR] += pl + dp[i]
            kind_parts += [kind[prev_n:r], np.asarray(b.kind, dtype=np.int8)]
            slope_parts += [
                self.slope[prev_n:r],
                np.asarray(b.slope, dtype=np.float64),
            ]
            intercept_parts += [
                self.intercept[prev_n:r],
                np.asarray(b.intercept, dtype=np.float64),
            ]
            size_parts += [
                self.size[prev_n:r],
                np.asarray(b.size, dtype=np.int64),
            ]
            region_parts += [
                self.region[prev_n:r],
                np.asarray(b.region, dtype=np.int64),
            ]
            base_parts += [
                new_node_base[prev_n:r],
                np.asarray(b.base, dtype=np.int64) + sl + ds[i],
            ]
            sk_parts += [old_sk[prev_s:sl], new_sk]
            sr_parts += [old_sr[prev_s:sl], new_sr]
            pk_parts += [
                self.pair_keys[prev_p:pl],
                np.asarray(b.pair_keys, dtype=np.float64),
            ]
            val_parts += [vals[prev_p:pl], _object_array(b.pair_vals)]
            prev_n, prev_s, prev_p = ne, se, pe
            if hops + b.max_depth > max_new_depth:
                max_new_depth = hops + b.max_depth
        kind_parts.append(kind[prev_n:])
        slope_parts.append(self.slope[prev_n:])
        intercept_parts.append(self.intercept[prev_n:])
        size_parts.append(self.size[prev_n:])
        region_parts.append(self.region[prev_n:])
        base_parts.append(new_node_base[prev_n:])
        sk_parts.append(old_sk[prev_s:])
        sr_parts.append(old_sr[prev_s:])
        pk_parts.append(self.pair_keys[prev_p:])
        val_parts.append(vals[prev_p:])
        self.kind = np.concatenate(kind_parts)
        self.slope = np.concatenate(slope_parts)
        self.intercept = np.concatenate(intercept_parts)
        self.size = np.concatenate(size_parts)
        self.region = np.concatenate(region_parts)
        self.base = np.concatenate(base_parts)
        self.slot_kind = np.concatenate(sk_parts)
        self.slot_ref = np.concatenate(sr_parts)
        self.pair_keys = np.concatenate(pk_parts)
        self.sorted_keys = self.pair_keys
        self.values = np.concatenate(val_parts)
        self.num_pairs += dp[k]
        # Upper bound: nesting may have shrunk elsewhere, but depth is
        # informational (the descent loops run until resolution).
        self.depth = max_new_depth
        return True

    def _subtree_extent(self, row: int) -> tuple[int, int, int, int] | None:
        """Extent of ``row``'s subtree: (node_end, slot_end, pair_lo, n).

        Walks the subtree's slot rows; returns ``None`` when it reaches
        a dense leaf (those interleave a fourth table).
        """
        kind = self.kind
        base = self.base
        size = self.size
        slot_kind = self.slot_kind
        slot_ref = self.slot_ref
        node_end = row + 1
        slot_end = int(base[row])
        pair_lo = -1
        pair_count = 0
        stack = [row]
        while stack:
            v = stack.pop()
            if kind[v] == KIND_DENSE:
                return None
            if v + 1 > node_end:
                node_end = v + 1
            b = int(base[v])
            e = b + int(size[v])
            if e > slot_end:
                slot_end = e
            for j in range(b, e):
                sk = slot_kind[j]
                if sk == SLOT_NODE:
                    stack.append(int(slot_ref[j]))
                elif sk == SLOT_PAIR:
                    p = int(slot_ref[j])
                    pair_count += 1
                    if pair_lo < 0 or p < pair_lo:
                        pair_lo = p
        return node_end, slot_end, pair_lo, pair_count

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
                    hint = int(np.floor(intercept[v] + slope[v] * key))
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
        """Actual buffer footprint of the plan itself."""
        arrays = (
            self.kind, self.slope, self.intercept, self.size, self.base,
            self.region, self.slot_kind, self.slot_ref, self.pair_keys,
            self.dense_keys, self.sorted_keys,
        )
        return sum(a.nbytes for a in arrays) + 8 * len(self.values)

    def self_check(self) -> None:
        """Verify SoA cross-reference integrity after patches/splices.

        The sanitizer hook point (:mod:`repro.check.invariants` calls
        this during deep verification): every table length, slot
        reference, dense block, and sorted-key ordering the patch and
        recompile paths maintain incrementally is re-checked from
        scratch.  Raises
        :class:`repro.check.errors.InvariantError` on the first
        inconsistency.
        """
        from repro.check.errors import InvariantError

        rows = len(self.kind)
        for name in ("slope", "intercept", "size", "base", "region"):
            if len(getattr(self, name)) != rows:
                raise InvariantError(
                    f"plan table '{name}' has {len(getattr(self, name))} "
                    f"rows, kind has {rows}"
                )
        if len(self.slot_kind) != len(self.slot_ref):
            raise InvariantError(
                f"slot tables diverge: {len(self.slot_kind)} kinds vs "
                f"{len(self.slot_ref)} refs"
            )
        if self.num_pairs != len(self.pair_keys):
            raise InvariantError(
                f"num_pairs {self.num_pairs} != pair table length "
                f"{len(self.pair_keys)}"
            )
        if len(self.values) != self.num_pairs + len(self.dense_keys):
            raise InvariantError(
                f"value table holds {len(self.values)} entries for "
                f"{self.num_pairs} pairs + {len(self.dense_keys)} dense keys"
            )
        for name in ("pair_keys", "sorted_keys"):
            arr = getattr(self, name)
            if len(arr) > 1 and not bool(np.all(arr[1:] > arr[:-1])):
                raise InvariantError(f"plan '{name}' not strictly ascending")
        n_slots = len(self.slot_kind)
        for row in range(rows):
            b = int(self.base[row])
            m = int(self.size[row])
            if self.kind[row] == KIND_DENSE:
                if b < 0 or b + m > len(self.dense_keys):
                    raise InvariantError(
                        f"dense row {row} block [{b}, {b + m}) outside "
                        f"dense_keys[0, {len(self.dense_keys)})"
                    )
                block = self.dense_keys[b:b + m]
                if len(block) > 1 and not bool(np.all(block[1:] > block[:-1])):
                    raise InvariantError(f"dense row {row} block unsorted")
            elif b < 0 or m < 1 or b + m > n_slots:
                raise InvariantError(
                    f"row {row} slots [{b}, {b + m}) outside the slot "
                    f"table [0, {n_slots})"
                )
        bad_kind = ~np.isin(self.slot_kind, (SLOT_EMPTY, SLOT_PAIR, SLOT_NODE))
        if bool(np.any(bad_kind)):
            raise InvariantError("slot table holds an unknown slot kind")
        pair_refs = self.slot_ref[self.slot_kind == SLOT_PAIR]
        if len(pair_refs) != self.num_pairs or not bool(
            np.array_equal(np.sort(pair_refs), np.arange(self.num_pairs))
        ):
            raise InvariantError(
                f"{len(pair_refs)} pair slots do not reference the "
                f"{self.num_pairs} pair-table entries exactly once"
            )
        node_refs = self.slot_ref[self.slot_kind == SLOT_NODE]
        if len(node_refs) and (
            int(node_refs.min()) < 1 or int(node_refs.max()) >= rows
        ):
            raise InvariantError("slot table references a node row "
                                 "outside the node table")


def _object_array(items: list) -> np.ndarray:
    """1-D object ndarray holding each of ``items`` as one element.

    ``np.asarray`` would read equal-length tuples, lists or arrays as
    an extra dimension; ``fromiter`` never looks inside a payload.
    """
    return np.fromiter(items, dtype=object, count=len(items))


class _PlanBuilder:
    """Accumulates SoA rows for a (sub)tree in DFS preorder.

    Shared by :func:`compile_plan` (whole tree) and
    :meth:`FlatPlan.recompile_subtrees` (one builder per changed
    top-level leaf's subtree, whose locally 0-based references the
    caller offsets into place).
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
    if len(dense_arr) == 0:
        sorted_keys = pair_arr
    elif len(pair_arr) == 0:
        sorted_keys = dense_arr
    else:  # mixed trees cannot arise from bulk_load, but stay correct
        sorted_keys = np.sort(np.concatenate([pair_arr, dense_arr]))
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
        sorted_keys=sorted_keys,
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
            v = self.intercept[node] + self.slope[node] * keys[idx]
            unsafe = ~((v > -_SAFE_PRED) & (v < _SAFE_PRED))
            if unsafe.any():
                vs = np.where(unsafe, 0.0, v)
                pos = np.floor(vs).astype(np.int64)
                # Slow path reproduces the scalar child_index exactly,
                # including its exceptions for non-finite keys.
                for j in np.flatnonzero(unsafe):
                    p = int(math.floor(float(v[j])))
                    last = int(self.size[node[j]]) - 1
                    pos[j] = 0 if p < 0 else (last if p > last else p)
            else:
                pos = np.floor(v).astype(np.int64)
            np.clip(pos, 0, self.size[node] - 1, out=pos)
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
