"""The DILI index: public API over the node tree.

Implements the paper's query and update algorithms:

* point lookup with local optimization (Algorithm 6) and without it
  (Algorithm 1, for the DILI-LO ablation),
* insertion with conflict-node creation and cost-triggered leaf
  adjustment (Algorithm 7),
* deletion with single-pair node trimming (Algorithm 8),
* ordered range scans.

The two ablation variants the paper evaluates are configuration flags:
``local_optimization=False`` yields DILI-LO and ``adjust=False`` yields
DILI-AD.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from repro.core.bulk_load import bulk_load
from repro.core.cost import CostParams
from repro.core.flat import FlatPlan, InternalRouter, compile_plan
from repro.core.local_opt import (
    LocalOptStats,
    fit_leaf_model,
    local_opt,
)
from repro.core.nodes import DenseLeafNode, InternalNode, LeafNode, Pair
from repro.simulate.latency import CyclesPerOp, DEFAULT_CYCLES
from repro.simulate.tracer import (
    NULL_TRACER,
    NullTracer,
    RecordingTracer,
    Tracer,
)

logger = logging.getLogger(__name__)

#: The payload :meth:`DILI.insert_batch` and :meth:`DILI.bulk_insert`
#: store for each key when called without values; anything that
#: replays such a batch (WAL recovery, plan-store overlays) stores the
#: same.
DEFAULT_PAYLOAD = "inserted"


@dataclass(frozen=True)
class DiliConfig:
    """Hyperparameters of DILI (defaults follow Section 7.1).

    Attributes:
        omega: Average maximum fanout bounding greedy merging (4096).
        rho: Level-decay rate of the BU cost model (0.2).
        enlarge: Entry-array enlarging ratio ``eta`` (2).
        lambda_adjust: Adjustment threshold ``lambda``; a leaf whose
            average entry accesses per lookup exceeds ``lambda * kappa``
            is rebuilt (2).
        local_optimization: False builds the DILI-LO ablation.
        adjust: False builds the DILI-AD ablation (never rebuilds leaves).
        sampling: Appendix A.7 fit-on-half-the-keys during construction.
        zoom: Subdivide pathologically overfull DILI-LO leaf ranges with
            equal-width zoom internals (see DESIGN.md; False reproduces
            the literal Algorithm 4).
        max_enlarge: Cap of the adjustment ratio ``phi`` (4).
        cycles: Cycle-charge table used for cost tracing and the BU-Tree
            layout search.
    """

    omega: int = 4096
    rho: float = 0.2
    enlarge: float = 2.0
    lambda_adjust: float = 2.0
    local_optimization: bool = True
    adjust: bool = True
    sampling: bool = False
    zoom: bool = True
    max_enlarge: float = 4.0
    cycles: CyclesPerOp = DEFAULT_CYCLES

    def cost_params(self) -> CostParams:
        return CostParams(cycles=self.cycles, rho=self.rho, omega=self.omega)

    def phi(self, alpha: int) -> float:
        """Adjustment enlarging ratio ``phi(alpha) = min(eta + 0.1a, max)``."""
        return min(self.enlarge + 0.1 * alpha, self.max_enlarge)

    @classmethod
    def for_disk(cls, io_cycles: float = 25_000.0) -> "DiliConfig":
        """Configuration for disk-resident data (the paper's Section 9).

        The future-work sketch: make the BU-Tree cost model price
        expected IOs instead of cache misses -- every node or pair fetch
        becomes a block read -- and disable the local optimization,
        which would otherwise create leaf nodes covering few keys
        (wasting a block each).  With every correction probe costing a
        full block read, the layout shifts toward more accurate leaves
        that answer in a single read.

        Args:
            io_cycles: Cost of one block read in cycles (default ~10us
                at 2.5 GHz, an NVMe-class random read).
        """
        io = replace(DEFAULT_CYCLES, cache_miss=io_cycles)
        return cls(local_optimization=False, cycles=io)


def check_batch_keys(keys) -> np.ndarray:
    """Validate a write batch's keys before any of them is applied.

    Batch writers apply keys one by one, so a key rejected halfway
    through would leave the earlier ones written and the count and
    plan untouched; a durable writer must also refuse the batch before
    logging it, or replay would raise on the record at every reopen.
    Returns the keys as a contiguous float64 array.
    """
    keys = np.ascontiguousarray(keys, dtype=np.float64)
    if keys.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    if len(keys) and not np.isfinite(keys).all():
        raise ValueError("batch keys must be finite")
    return keys


def check_key(key) -> float:
    """Validate a scalar write's key before it touches the index.

    A NaN or infinite key has no slot: into an empty index it would
    become the root leaf's only key and break every later insert, and
    in a loaded one it fails inside a slot prediction.  A durable
    writer checks before logging, as with :func:`check_batch_keys`.
    Returns the key as a float.
    """
    key = float(key)
    if not math.isfinite(key):
        raise ValueError("keys must be finite")
    return key


class DILI:
    """Distribution-driven learned index for one-dimensional keys.

    Typical use::

        index = DILI()
        index.bulk_load(sorted_unique_keys, payloads)
        index.get(key)            # -> payload or None
        index.insert(key, value)  # -> True if newly inserted
        index.delete(key)         # -> True if the key existed
        index.range_query(lo, hi) # -> [(key, value), ...] sorted

    Keys are float64 (integers up to 2**53 are exact); duplicates are
    rejected at bulk load and deduplicated semantically on insert.
    """

    def __init__(self, config: DiliConfig | None = None) -> None:
        self.config = config if config is not None else DiliConfig()
        self.root: InternalNode | LeafNode | DenseLeafNode | None = None
        self.butree = None
        self.opt_stats = LocalOptStats()
        self.adjustment_count = 0
        self.insert_count = 0
        self.moved_pairs = 0
        # Plan-maintenance counters: full lazy compiles, emitted
        # subtrees (nested-leaf spawns, re-emitted top-level leaves),
        # and slot or payload rewrites (see docs/performance.md).
        self.plan_recompiles = 0
        self.plan_subtree_recompiles = 0
        self.plan_patches = 0
        self._count = 0
        self._cycles = self.config.cycles
        self._flat: FlatPlan | None = None
        self._router: InternalRouter | None = None
        # Optional repro.check.invariants.TreeSanitizer; every mutating
        # operation reports the keys it touched (zero cost when None).
        self.sanitizer = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def bulk_load(
        self,
        keys: np.ndarray,
        values: list | np.ndarray | None = None,
        *,
        keep_butree: bool = False,
    ) -> None:
        """Build the index from sorted, strictly increasing keys.

        Args:
            keys: 1-D array-like of unique, ascending keys.
            values: Optional payloads; defaults to each key's position.
            keep_butree: Retain the phase-one BU-Tree on ``self.butree``
                for breakdown experiments (Table 9); otherwise it is
                dropped to free memory.
        """
        keys = np.asarray(keys, dtype=np.float64)
        if keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        if not np.all(np.isfinite(keys)):
            raise ValueError("keys must be finite")
        if np.any(np.diff(keys) <= 0):
            raise ValueError("keys must be sorted and strictly increasing")
        values = list(range(len(keys))) if values is None else list(values)
        if len(keys) and len(values) != len(keys):
            raise ValueError("values must match keys in length")
        self._invalidate_plan()
        self._router = None  # the root object is being replaced
        if len(keys) == 0:
            self.root = None
            self._count = 0
            return
        result = bulk_load(
            keys,
            values,
            self.config.cost_params(),
            enlarge=self.config.enlarge,
            local_optimization=self.config.local_optimization,
            sample=self.config.sampling,
            zoom=self.config.zoom,
        )
        self.root = result.root
        self.opt_stats = result.opt_stats
        self.butree = result.butree if keep_butree else None
        self._count = len(keys)
        if self.sanitizer is not None:
            self.sanitizer.after_bulk(self)

    @classmethod
    def from_pairs(cls, pairs: list[Pair], config: DiliConfig | None = None) -> "DILI":
        """Convenience constructor from unsorted (key, value) pairs."""
        index = cls(config)
        if pairs:
            pairs = sorted(pairs)
            keys = np.array([p[0] for p in pairs], dtype=np.float64)
            values = [p[1] for p in pairs]
            index.bulk_load(keys, values)
        return index

    # ------------------------------------------------------------------
    # Lookup (Algorithms 1 and 6)
    # ------------------------------------------------------------------

    def get(self, key: float, tracer: Tracer = NULL_TRACER) -> object | None:
        """Return the value stored under ``key``, or None."""
        node = self.root
        if node is None:
            return None
        c = self._cycles
        tracer.phase("step1")
        while type(node) is InternalNode:
            tracer.mem(node.region)
            tracer.compute(c.linear_model)
            idx = node.child_index(key)
            tracer.mem(node.region, 64 + idx * 8)
            node = node.children[idx]
        tracer.phase("step2")
        if type(node) is DenseLeafNode:
            return self._dense_lookup(node, key, tracer)
        # Algorithm 6: follow nested leaves until a pair or NULL.
        while True:
            tracer.mem(node.region)
            tracer.compute(c.linear_model)
            pos = node.predict_slot(key)
            tracer.mem(node.region, 64 + pos * 16)
            entry = node.slots[pos]
            if entry is None:
                return None
            if type(entry) is tuple:
                tracer.compute(c.branch)
                return entry[1] if entry[0] == key else None
            node = entry

    def _dense_lookup(
        self, node: DenseLeafNode, key: float, tracer: Tracer
    ) -> object | None:
        """Algorithm 1's last-mile: prediction + exponential search."""
        from repro.core.search_util import exp_search_lub

        if len(node.keys) == 0:
            return None
        tracer.mem(node.region)
        tracer.compute(self._cycles.linear_model)
        hint = node.predict_position(key)
        pos = exp_search_lub(
            node.keys, key, hint, tracer, node.region,
            mu_e=self._cycles.exp_search_step,
        )
        if pos < len(node.keys) and node.keys[pos] == key:
            return node.values[pos]
        return None

    def __contains__(self, key: float) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Vectorized batch reads (compiled flat plan)
    # ------------------------------------------------------------------

    def _invalidate_plan(self) -> None:
        """Drop the compiled read plan (the incremental-maintenance
        fallback for mutations no patch or subtree recompile covers)."""
        self._flat = None

    def _sanitize_after(self, keys) -> None:
        """TreeSanitizer hook: report a completed mutation.

        ``keys`` are the keys the operation touched (hit or miss --
        coherence of a miss is worth checking too).  A ``None``
        sanitizer costs one attribute load and a branch.
        """
        san = self.sanitizer
        if san is not None:
            san.after_write(self, keys)

    def _plan(self) -> FlatPlan:
        """The compiled flat read plan, building it on first use.

        The plan is a structure-of-arrays snapshot of the node tree
        (see :mod:`repro.core.flat`); it is compiled lazily on the
        first batch read and then *maintained incrementally* across
        mutations: each write yields a successor that rewrites the slots
        it changed and appends only the nested subtrees it created, so
        mixed read/write workloads do not pay a full recompile per
        write.
        """
        plan = self._flat
        if plan is None:
            if self.root is None:
                raise ValueError("cannot compile a plan for an empty index")
            plan = compile_plan(self.root)
            self._flat = plan
            self.plan_recompiles += 1
        return plan

    def peek_plan(self) -> FlatPlan | None:
        """The maintained plan *without* compiling one (None if dropped).

        Publication hook: after a mutation,
        :class:`repro.core.concurrent.ConcurrentDILI` republished the
        maintained plan version (or unpublishes when maintenance fell
        back to invalidation) without forcing an eager recompile on the
        write path.
        """
        return self._flat

    def export_plan(self) -> FlatPlan:
        """The maintained plan in canonical form (bitwise a fresh
        compile's), or else a fresh compile the index does *not* keep:
        writing a plan file never starts plan maintenance.  The caller
        excludes writers while it reads the plan."""
        plan = self.peek_plan()
        if plan is not None:
            return plan.compacted()
        if self.root is None:
            raise ValueError("cannot compile a plan for an empty index")
        return compile_plan(self.root)

    def _get_router(self) -> InternalRouter:
        """Cached write-batch router; rebuilt when the root is replaced.

        Internal nodes are immutable after bulk load, so the router
        survives every insert/delete/adjust and is rebuilt only when
        ``self.root`` is a different object (bulk load, first insert).
        """
        router = self._router
        if router is None or router.root is not self.root:
            router = self._router = InternalRouter(self.root)
        return router

    def get_batch(
        self, keys: np.ndarray | list, tracer: Tracer = NULL_TRACER
    ) -> list:
        """Values for a whole key batch (``None`` where absent).

        Semantically identical to ``[self.get(k) for k in keys]`` but
        descends the compiled flat plan level-synchronously with numpy,
        so the per-key cost is a handful of vectorized ops instead of a
        Python pointer chase.  With a real ``tracer`` the recorded
        descent is replayed per key in batch order, charging exactly
        the events (and therefore the same simulated cycles and cache
        misses) as the equivalent scalar loop.
        """
        keys = np.asarray(keys, dtype=np.float64)
        if keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        if self.root is None:
            return [None] * len(keys)
        plan = self._plan()
        record = not isinstance(tracer, NullTracer)
        out, trace = plan.lookup_batch(keys, record=record)
        if record:
            plan.replay_trace(keys, trace, tracer, self._cycles)
        return plan.gather_values(out)

    def contains_batch(self, keys: np.ndarray | list) -> np.ndarray:
        """Boolean membership for a key batch (vectorized ``in``)."""
        keys = np.asarray(keys, dtype=np.float64)
        if keys.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        if self.root is None:
            return np.zeros(len(keys), dtype=bool)
        return self._plan().contains_batch(keys)

    def count_range_batch(
        self, los: np.ndarray | list, his: np.ndarray | list
    ) -> np.ndarray:
        """Vectorized :meth:`count_range` over paired bound arrays."""
        los = np.asarray(los, dtype=np.float64)
        his = np.asarray(his, dtype=np.float64)
        if los.shape != his.shape:
            raise ValueError("los and his must have the same shape")
        if self.root is None:
            return np.zeros(len(los), dtype=np.int64)
        return self._plan().count_range_batch(los, his)

    # ------------------------------------------------------------------
    # Insertion (Algorithm 7)
    # ------------------------------------------------------------------

    def insert(
        self, key: float, value: object, tracer: Tracer = NULL_TRACER
    ) -> bool:
        """Insert a pair; returns False (and changes nothing) if present.

        With a real ``tracer`` the descent and slot probes charge the
        same events a ``get`` of the same key would (the probe cost of
        Algorithm 7); structural work (``local_opt`` during spawns and
        adjustments) charges nothing, matching the paper's cost model.
        The compiled read plan, if present, is replaced by a successor
        that rewrites the key's slot -- and left untouched entirely when
        the key already exists.
        """
        key = check_key(key)
        if self.root is None:
            leaf = LeafNode(key, key + 1.0)
            local_opt(leaf, [(key, value)], enlarge=self.config.enlarge)
            self.root = leaf
            self._count = 1
            self.insert_count += 1
            self._sanitize_after((key,))
            return True
        if not self.config.local_optimization:
            raise NotImplementedError(
                "the DILI-LO ablation is lookup-only (paper Section 7.2)"
            )
        c = self._cycles
        tracer.phase("step1")
        node = self.root
        while type(node) is InternalNode:
            tracer.mem(node.region)
            tracer.compute(c.linear_model)
            idx = node.child_index(key)
            tracer.mem(node.region, 64 + idx * 8)
            node = node.children[idx]
        tracer.phase("step2")
        adjustments = self.adjustment_count
        inserted = self._insert_to_leaf(node, (key, value), tracer)
        if inserted:
            self._count += 1
            self.insert_count += 1
            self._plan_note(FlatPlan.applied_insert_many, [
                (node, [key], self.adjustment_count != adjustments)
            ])
        self._sanitize_after((key,))
        return inserted

    def _insert_to_leaf(
        self, leaf: LeafNode, pair: Pair, tracer: Tracer = NULL_TRACER
    ) -> bool:
        """insertToLeafNode of Algorithm 7, including the adjust check.

        Returns whether the pair was new.
        """
        c = self._cycles
        tracer.mem(leaf.region)
        tracer.compute(c.linear_model)
        pos = leaf.predict_slot(pair[0])
        tracer.mem(leaf.region, 64 + pos * 16)
        entry = leaf.slots[pos]
        if entry is None:
            leaf.slots[pos] = pair
            leaf.delta += 1
            not_exist = True
        elif type(entry) is tuple:
            tracer.compute(c.branch)
            if entry[0] == pair[0]:
                not_exist = False
            else:
                child = LeafNode(
                    min(entry[0], pair[0]), max(entry[0], pair[0])
                )
                group = sorted([entry, pair])
                local_opt(child, group, enlarge=self.config.enlarge)
                leaf.slots[pos] = child
                leaf.delta += 1 + child.delta
                self.moved_pairs += 2
                not_exist = True
        else:
            delta_before = entry.delta
            not_exist = self._insert_to_leaf(entry, pair, tracer)
            leaf.delta += 1 + entry.delta - delta_before
        if not_exist:
            leaf.num_pairs += 1
            if (
                self.config.adjust
                and leaf.delta / leaf.num_pairs
                > self.config.lambda_adjust * leaf.kappa
            ):
                self._adjust(leaf)
        return not_exist

    def _adjust(self, leaf: LeafNode) -> None:
        """Rebuild a degraded leaf with an enlarged entry array.

        Collects every pair under the leaf, enlarges the array by
        ``phi(alpha)``, retrains the model stretched over the new fanout
        (Algorithm 7 lines 21-26) and redistributes with local opt.
        """
        pairs = list(leaf.iter_pairs())
        self.moved_pairs += len(pairs)
        ratio = self.config.phi(leaf.alpha)
        leaf.alpha += 1
        fanout = max(2, int(math.ceil(len(pairs) * ratio)))
        model = fit_leaf_model([p[0] for p in pairs], fanout)
        local_opt(
            leaf,
            pairs,
            enlarge=self.config.enlarge,
            fanout=fanout,
            model=model,
            stats=self.opt_stats,
        )
        self.adjustment_count += 1
        logger.debug(
            "adjusted leaf [%s, %s): %d pairs, ratio %.2f, alpha %d",
            leaf.lb,
            leaf.ub,
            len(pairs),
            ratio,
            leaf.alpha,
        )

    # ------------------------------------------------------------------
    # Deletion (Algorithm 8)
    # ------------------------------------------------------------------

    def delete(self, key: float, tracer: Tracer = NULL_TRACER) -> bool:
        """Remove ``key``; returns False if it was not present.

        Tracer semantics match :meth:`insert`: probes charge ``get``-like
        events, structural trimming charges nothing.  A miss leaves the
        compiled read plan untouched; a hit replaces it by a successor
        that rewrites the key's slot (or the collapsed nested leaf's).
        """
        key = check_key(key)
        node = self.root
        if node is None:
            return False
        if not self.config.local_optimization:
            raise NotImplementedError(
                "the DILI-LO ablation is lookup-only (paper Section 7.2)"
            )
        c = self._cycles
        tracer.phase("step1")
        while type(node) is InternalNode:
            tracer.mem(node.region)
            tracer.compute(c.linear_model)
            idx = node.child_index(key)
            tracer.mem(node.region, 64 + idx * 8)
            node = node.children[idx]
        tracer.phase("step2")
        existed = self._delete_from_leaf(node, key, tracer)
        if existed:
            self._count -= 1
            self._plan_note(FlatPlan.applied_delete_many, [(node, [key])])
        self._sanitize_after((key,))
        return existed

    def _delete_from_leaf(
        self, leaf: LeafNode, key: float, tracer: Tracer = NULL_TRACER
    ) -> bool:
        """deleteFromLeafNode of Algorithm 8, with single-pair trimming
        (a nested leaf left with one pair collapses into it).

        Returns whether the key existed.
        """
        c = self._cycles
        tracer.mem(leaf.region)
        tracer.compute(c.linear_model)
        pos = leaf.predict_slot(key)
        tracer.mem(leaf.region, 64 + pos * 16)
        entry = leaf.slots[pos]
        if entry is None:
            existed = False
        elif type(entry) is tuple:
            tracer.compute(c.branch)
            if entry[0] == key:
                leaf.slots[pos] = None
                leaf.delta -= 1
                existed = True
            else:
                existed = False
        else:
            delta_before = entry.delta
            existed = self._delete_from_leaf(entry, key, tracer)
            leaf.delta -= 1 + delta_before - entry.delta
            if existed and entry.num_pairs == 1:
                remaining = next(entry.iter_pairs())
                leaf.slots[pos] = remaining
                leaf.delta -= 1
        if existed:
            leaf.num_pairs -= 1
            leaf.kappa = (
                leaf.delta / leaf.num_pairs if leaf.num_pairs > 0 else 1.0
            )
        return existed

    def bulk_insert(
        self,
        keys: np.ndarray | list,
        values: list | None = None,
        *,
        rebuild_ratio: float = 0.3,
    ) -> int:
        """Insert many pairs at once; returns how many were new.

        Small batches route through :meth:`insert_batch` (the batched
        Algorithm 7 path).  When the batch exceeds ``rebuild_ratio`` of
        the current size, it is cheaper -- and yields a
        distribution-aware layout for the *combined* data -- to merge
        and re-run bulk loading, the strategy the paper's
        construction-cost discussion implies for large ingests.
        Existing keys keep their old values (insert semantics).
        """
        keys = np.asarray(keys, dtype=np.float64)
        if values is None:
            values = [DEFAULT_PAYLOAD] * len(keys)
        if len(values) != len(keys):
            raise ValueError("values must match keys in length")
        if len(keys) == 0:
            return 0
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        values = [values[int(i)] for i in order]
        if np.any(np.diff(keys) <= 0):
            raise ValueError("batch keys must be unique")
        if len(self) == 0 or len(keys) < rebuild_ratio * len(self):
            return int(np.count_nonzero(self.insert_batch(keys, values)))
        merged: dict[float, object] = {
            float(keys[i]): values[i] for i in range(len(keys))
        }
        before = len(self)
        batch_new = len(merged)
        for key, value in self.items():
            if key in merged:
                batch_new -= 1
            merged[key] = value  # existing pairs win, insert semantics
        ordered = sorted(merged)  # the key objects, so a NaN finds itself
        self.bulk_load(np.array(ordered), [merged[k] for k in ordered])
        self.insert_count += len(self) - before
        return batch_new

    # ------------------------------------------------------------------
    # Vectorized batch writes
    # ------------------------------------------------------------------
    #
    # The batch write path mirrors get_batch's structure: the whole
    # batch descends the cached InternalRouter level-synchronously
    # (internal nodes never change after bulk load), keys are grouped
    # by target top-level leaf, and every key then runs the scalar
    # Algorithm 7/8 leaf routine.  Results, tree structure, counters,
    # and -- under a real tracer -- the simulated cost trace are
    # identical to the equivalent scalar loop: keys within one leaf
    # keep their batch order (stable sort) and operations on different
    # top-level leaves commute.

    def insert_batch(
        self,
        keys: np.ndarray | list,
        values: list | None = None,
        tracer: Tracer = NULL_TRACER,
    ) -> np.ndarray:
        """Insert many pairs; boolean array, True where newly inserted.

        Semantically identical to
        ``[self.insert(k, v) for k, v in zip(keys, values)]`` --
        including duplicate handling, adjustment triggers, counters and
        (with a real ``tracer``) the exact simulated cost trace, which
        is recorded per key during grouped execution and replayed in
        batch order.  ``values`` defaults to :data:`DEFAULT_PAYLOAD`
        payloads, like :meth:`bulk_insert`.
        """
        keys = check_batch_keys(keys)
        n = len(keys)
        if values is None:
            values = [DEFAULT_PAYLOAD] * n
        elif len(values) != n:
            raise ValueError("values must match keys in length")
        out = np.zeros(n, dtype=bool)
        if n == 0:
            return out
        start = 0
        if self.root is None:
            # The first key builds the root exactly like scalar insert.
            out[0] = self.insert(float(keys[0]), values[0], tracer)
            if n == 1:
                return out
            start = 1
        if not self.config.local_optimization:
            raise NotImplementedError(
                "the DILI-LO ablation is lookup-only (paper Section 7.2)"
            )
        record = not isinstance(tracer, NullTracer)
        router = self._get_router()
        sub = keys[start:]
        leaf_of, rtrace = router.route(sub, record=record)
        recorders = (
            self._descent_recorders(router, len(sub), rtrace)
            if record
            else None
        )
        groups: list = []
        for leaf, members in _leaf_groups(leaf_of, router.leaves):
            adjustments = self.adjustment_count
            written = self._insert_group(
                leaf, members, sub, values, start, out, recorders
            )
            if written:
                groups.append(
                    (leaf, written, self.adjustment_count != adjustments)
                )
        newly = int(np.count_nonzero(out[start:]))
        self._count += newly
        self.insert_count += newly
        self._plan_note(FlatPlan.applied_insert_many, groups)
        if record:
            for rec in recorders:
                rec.replay(tracer)
        self._sanitize_after(keys)
        return out

    def _insert_group(
        self, leaf, members, keys_sub, values, offset, out, recorders
    ):
        """Apply one leaf's batch inserts in batch order.

        Every key runs :meth:`_insert_to_leaf`.  Returns the keys that
        were new, for plan maintenance.
        """
        written: list = []
        for j, k in zip(members.tolist(), keys_sub[members].tolist()):
            inserted = self._insert_to_leaf(
                leaf,
                (k, values[offset + j]),
                recorders[j] if recorders is not None else NULL_TRACER,
            )
            out[offset + j] = inserted
            if inserted:
                written.append(k)
        return written

    def delete_batch(
        self, keys: np.ndarray | list, tracer: Tracer = NULL_TRACER
    ) -> np.ndarray:
        """Remove many keys; boolean array, True where a key existed.

        Semantically identical to ``[self.delete(k) for k in keys]``,
        with the same vectorized routing, per-leaf grouping, plan
        maintenance, and batch-order trace replay as
        :meth:`insert_batch`.
        """
        keys = check_batch_keys(keys)
        n = len(keys)
        out = np.zeros(n, dtype=bool)
        if self.root is None or n == 0:
            return out
        if not self.config.local_optimization:
            raise NotImplementedError(
                "the DILI-LO ablation is lookup-only (paper Section 7.2)"
            )
        record = not isinstance(tracer, NullTracer)
        router = self._get_router()
        leaf_of, rtrace = router.route(keys, record=record)
        recorders = (
            self._descent_recorders(router, n, rtrace) if record else None
        )
        groups: list = []
        for leaf, members in _leaf_groups(leaf_of, router.leaves):
            removed = self._delete_group(leaf, members, keys, out, recorders)
            if removed:
                groups.append((leaf, removed))
        self._count -= int(np.count_nonzero(out))
        self._plan_note(FlatPlan.applied_delete_many, groups)
        if record:
            for rec in recorders:
                rec.replay(tracer)
        self._sanitize_after(keys)
        return out

    def _delete_group(self, leaf, members, keys_arr, out, recorders):
        """Apply one leaf's batch deletes in batch order.

        Every key runs :meth:`_delete_from_leaf`.  Returns the keys
        that existed, for plan maintenance.
        """
        removed: list = []
        for j, k in zip(members.tolist(), keys_arr[members].tolist()):
            existed = self._delete_from_leaf(
                leaf,
                k,
                recorders[j] if recorders is not None else NULL_TRACER,
            )
            out[j] = existed
            if existed:
                removed.append(k)
        return removed

    def update_batch(
        self, keys: np.ndarray | list, values: list
    ) -> np.ndarray:
        """Replace values for many existing keys; True where updated.

        Semantically identical to
        ``[self.update(k, v) for k, v in zip(keys, values)]``.  Updates
        never restructure the tree, so the plan maintenance is pure
        value-table patching.  (Like ``update``, this charges no
        simulated cost, so it takes no tracer.)
        """
        keys = check_batch_keys(keys)
        n = len(keys)
        if len(values) != n:
            raise ValueError("values must match keys in length")
        out = np.zeros(n, dtype=bool)
        if self.root is None or n == 0:
            return out
        router = self._get_router()
        leaf_of, _ = router.route(keys)
        updated: list = []
        for leaf, members in _leaf_groups(leaf_of, router.leaves):
            for j, k in zip(members.tolist(), keys[members].tolist()):
                if self._update_in_leaf(leaf, k, values[j]):
                    out[j] = True
                    updated.append((k, values[j]))
        self._plan_note_updates(updated)
        self._sanitize_after(keys)
        return out

    def _descent_recorders(
        self, router: InternalRouter, n: int, trace: list
    ) -> list[RecordingTracer]:
        """Per-key recorders pre-loaded with the routing descent events.

        Synthesizes, for every key, exactly the events the scalar
        insert/delete descent charges (phase step1, then per internal
        level: node header read, model evaluation, child-pointer read,
        then phase step2).  Group execution appends the leaf-probe
        events; the caller replays every recorder in batch order.
        """
        recs = [RecordingTracer() for _ in range(n)]
        eta = self._cycles.linear_model
        region = router.region.tolist()
        depth = len(trace)
        if depth:
            path_node = np.full((n, depth), -1, dtype=np.int64)
            path_pos = np.full((n, depth), -1, dtype=np.int64)
            for level, (idx, node, pos) in enumerate(trace):
                path_node[idx, level] = node
                path_pos[idx, level] = pos
            nodes_list = path_node.tolist()
            pos_list = path_pos.tolist()
        else:
            nodes_list = [[] for _ in range(n)]
            pos_list = nodes_list
        for i in range(n):
            rec = recs[i]
            rec.phase("step1")
            rn = nodes_list[i]
            rp = pos_list[i]
            for level in range(len(rn)):
                v = rn[level]
                if v < 0:
                    break  # resolved at the previous level
                rec.mem(region[v])
                rec.compute(eta)
                rec.mem(region[v], 64 + rp[level] * 8)
            rec.phase("step2")
        return recs

    def _plan_note(self, tier, groups: list) -> None:
        """Maintain the plan after an insert or delete.

        The one maintenance path for scalar and batch inserts/deletes
        (value updates use :meth:`_plan_note_updates`): exactly one
        call of ``tier``, an ``applied_*`` method of :class:`FlatPlan`,
        per write.  ``groups`` names every changed top-level leaf with
        the keys written to it, taken from the caller's own answers.
        The tier returns a successor and leaves the current plan,
        published or not, unchanged; a change it cannot absorb drops
        the plan.
        """
        plan = self._flat
        if not groups or plan is None:
            return
        done = tier(plan, groups)
        if done is None:
            self._invalidate_plan()
            return
        self._flat, patches, subtrees = done
        self.plan_patches += patches
        self.plan_subtree_recompiles += subtrees

    def _plan_note_updates(self, pairs: list) -> None:
        """Maintain the plan after successful value updates (scalar or
        batch): payload-table rewrites only, never a structural one."""
        plan = self._flat
        if not pairs or plan is None:
            return
        new = plan.applied_values(pairs)
        if new is None:
            self._invalidate_plan()
            return
        self._flat = new
        self.plan_patches += len(pairs)

    # ------------------------------------------------------------------
    # Value updates and convenience accessors
    # ------------------------------------------------------------------

    def update(self, key: float, value: object) -> bool:
        """Replace the value stored under an existing key.

        Returns False (and stores nothing) when the key is absent; use
        :meth:`insert` to add new keys.  Updates touch exactly one slot
        and never restructure the tree, so the compiled read plan is
        replaced by one whose payload table differs in one entry,
        rather than dropped.
        """
        key = check_key(key)
        node = self.root
        if node is None:
            return False
        while type(node) is InternalNode:
            node = node.children[node.child_index(key)]
        if not self._update_in_leaf(node, key, value):
            return False
        self._plan_note_updates([(key, value)])
        self._sanitize_after((key,))
        return True

    def _update_in_leaf(self, leaf, key: float, value: object) -> bool:
        """Store ``value`` under an existing ``key`` of a top-level leaf.

        A dense (DILI-LO) leaf is searched; a locally optimized leaf is
        walked slot by slot through its nested leaves.  Returns False
        when the key is absent.
        """
        if type(leaf) is DenseLeafNode:
            idx = int(np.searchsorted(leaf.keys, key, side="left"))
            if idx == len(leaf.keys) or leaf.keys[idx] != key:
                return False
            leaf.values[idx] = value
            return True
        node = leaf
        while True:
            pos = node.predict_slot(key)
            entry = node.slots[pos]
            if entry is None:
                return False
            if type(entry) is tuple:
                if entry[0] != key:
                    return False
                node.slots[pos] = (key, value)
                return True
            node = entry

    def pop(self, key: float, default: object = None) -> object:
        """Remove ``key`` and return its value (``default`` if absent)."""
        value = self.get(key)
        if value is None:
            return default
        self.delete(key)
        return value

    def min_item(self) -> Pair | None:
        """The smallest-key pair, or None when empty."""
        for pair in self.items():
            return pair
        return None

    def max_item(self) -> Pair | None:
        """The largest-key pair, or None when empty."""
        last = None
        for pair in self.items():
            last = pair
        return last

    def count_range(self, lo: float, hi: float) -> int:
        """Number of keys in [lo, hi).

        Counts without materializing pairs: with a compiled flat plan
        this is binary searches over the plan's key view; without
        one, the descent recurses only into the two boundary subtrees
        and takes strictly-interior subtrees wholesale from their
        ``num_pairs`` bookkeeping.
        """
        lo = float(lo)
        hi = float(hi)
        if self.root is None or not lo < hi:  # empty, or a NaN bound
            return 0
        if self._flat is not None:
            return self._flat.count_range(lo, hi)
        return _count_range_node(self.root, lo, hi)

    def keys(self) -> Iterator[float]:
        """All keys in ascending order (no pair tuples materialized)."""
        if self.root is not None:
            yield from _iter_node_keys(self.root)

    def values(self) -> Iterator[object]:
        """All values in ascending key order (no pair tuples built)."""
        if self.root is not None:
            yield from _iter_node_values(self.root)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    _PICKLE_VERSION = 2

    def __getstate__(self) -> dict:
        """Pickle without the compiled plan/router (derived state)."""
        state = dict(self.__dict__)
        state["_flat"] = None
        state["_router"] = None
        state["sanitizer"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Files written before the flat plan / batch write path existed
        # lack these fields.
        self.__dict__.setdefault("_flat", None)
        self.__dict__.setdefault("_cycles", self.config.cycles)
        self.__dict__.setdefault("_router", None)
        self.__dict__.setdefault("plan_recompiles", 0)
        self.__dict__.setdefault("plan_subtree_recompiles", 0)
        self.__dict__.setdefault("plan_patches", 0)
        self.__dict__.setdefault("sanitizer", None)

    def save(self, path) -> None:
        """Serialize the index to ``path``, atomically and checksummed.

        The pickled index travels inside an envelope carrying a format
        version and a CRC32 of the payload; :meth:`load` refuses files
        written by incompatible versions or whose checksum does not
        match.  The write goes to a temp file in the same directory,
        is fsynced, then renamed over ``path`` -- a crash mid-save
        leaves either the complete old file or the complete new one,
        never a torn mix.
        """
        import os
        import pickle
        import zlib

        path = os.fspath(path)
        index_bytes = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "format_version": self._PICKLE_VERSION,
            "crc32": zlib.crc32(index_bytes),
            "index_pickle": index_bytes,
        }
        tmp_path = path + ".tmp"
        with open(tmp_path, "wb") as fh:
            pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    @classmethod
    def load(cls, path, *, validate: bool = False) -> "DILI":
        """Deserialize an index written by :meth:`save`.

        Args:
            path: File written by :meth:`save`.
            validate: Also run :meth:`validate` on the loaded index,
                turning silent structural damage into a hard error.

        Raises:
            ValueError: The file is truncated, corrupt (checksum
                mismatch), from an incompatible version, or not a
                saved DILI at all.
        """
        import pickle
        import zlib

        try:
            with open(path, "rb") as fh:
                # The envelope predates the CRC discipline; the real
                # payload below is checksummed before unpickling.
                envelope = pickle.load(fh)  # repro-check: allow CHK007 -- legacy save envelope, payload CRC-checked below
        except OSError:
            raise
        except Exception as exc:
            # A truncated or bit-flipped pickle stream can raise nearly
            # anything; surface it as one clear error, not a traceback
            # from the pickle internals.
            raise ValueError(
                f"{path} is truncated or not a saved DILI index: {exc}"
            ) from exc
        if not isinstance(envelope, dict) or "format_version" not in envelope:
            raise ValueError(f"{path} is not a saved DILI index")
        version = envelope.get("format_version")
        if version == 1:
            # Legacy format: the index was pickled inline, no checksum.
            index = envelope.get("index")
        elif version == cls._PICKLE_VERSION:
            index_bytes = envelope.get("index_pickle")
            if not isinstance(index_bytes, bytes):
                raise ValueError(f"{path} is not a saved DILI index")
            if zlib.crc32(index_bytes) != envelope.get("crc32"):
                raise ValueError(
                    f"{path}: payload checksum mismatch -- the file is "
                    f"corrupt or was torn by an interrupted write"
                )
            index = pickle.loads(index_bytes)  # repro-check: allow CHK007 -- crc32 verified two lines up
        else:
            raise ValueError(
                f"unsupported DILI file version {version!r}"
            )
        if not isinstance(index, cls):
            raise ValueError(f"{path} does not contain a DILI index")
        if validate:
            index.validate()
        return index

    # ------------------------------------------------------------------
    # Ordered iteration and range queries
    # ------------------------------------------------------------------

    def items(self) -> Iterator[Pair]:
        """All (key, value) pairs in ascending key order."""
        if self.root is None:
            return
        yield from self._iter_node(self.root)

    def _iter_node(self, node) -> Iterator[Pair]:
        if type(node) is InternalNode:
            for child in node.children:
                yield from self._iter_node(child)
        elif type(node) is DenseLeafNode:
            yield from node.iter_pairs()
        else:
            yield from node.iter_pairs()

    def iter_from(self, lo: float) -> Iterator[Pair]:
        """Pairs with key >= lo, ascending (the scan primitive)."""
        if self.root is None:
            return
        yield from self._iter_node_from(self.root, lo)

    def _iter_node_from(self, node, lo: float) -> Iterator[Pair]:
        if type(node) is InternalNode:
            start = node.child_index(lo)
            children = node.children
            yield from self._iter_node_from(children[start], lo)
            for i in range(start + 1, len(children)):
                yield from self._iter_node(children[i])
        elif type(node) is DenseLeafNode:
            start = int(np.searchsorted(node.keys, lo, side="left"))
            for i in range(start, len(node.keys)):
                yield (float(node.keys[i]), node.values[i])
        else:
            start = node.predict_slot(lo)
            slots = node.slots
            for i in range(start, len(slots)):
                entry = slots[i]
                if entry is None:
                    continue
                if type(entry) is tuple:
                    if entry[0] >= lo:
                        yield entry
                else:
                    if i == start:
                        yield from self._iter_node_from(entry, lo)
                    else:
                        yield from entry.iter_pairs()

    def range_query(self, lo: float, hi: float) -> list[Pair]:
        """All pairs with lo <= key < hi, in ascending key order.

        Dense (DILI-LO) leaves are harvested with vectorised slices --
        the streaming advantage Fig. 6b credits them with -- while
        locally optimized leaves walk their slot arrays.
        """
        out: list[Pair] = []
        if self.root is not None:
            self._collect_range(self.root, lo, hi, out)
        return out

    def _collect_range(
        self, node, lo: float, hi: float, out: list[Pair]
    ) -> bool:
        """Append pairs in [lo, hi); False once a key >= hi is seen."""
        if type(node) is InternalNode:
            start = node.child_index(lo)
            for i in range(start, len(node.children)):
                if not self._collect_range(node.children[i], lo, hi, out):
                    return False
            return True
        if type(node) is DenseLeafNode:
            keys = node.keys
            a = int(np.searchsorted(keys, lo, side="left"))
            b = int(np.searchsorted(keys, hi, side="left"))
            out.extend(zip(keys[a:b].tolist(), node.values[a:b]))
            return b >= len(keys)
        start = node.predict_slot(lo)
        slots = node.slots
        for i in range(start, len(slots)):
            entry = slots[i]
            if entry is None:
                continue
            if type(entry) is tuple:
                key = entry[0]
                if key >= hi:
                    return False
                if key >= lo:
                    out.append(entry)
            else:
                if not self._collect_range(entry, lo, hi, out):
                    return False
        return True

    def scan(self, lo: float, count: int) -> list[Pair]:
        """Up to ``count`` pairs starting at the first key >= lo."""
        out = []
        for pair in self.iter_from(lo):
            out.append(pair)
            if len(out) >= count:
                break
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Modelled C++ footprint (header + slot/pointer arrays)."""
        return _memory_bytes(self.root)

    def validate(self) -> None:
        """Deep-check the tree; raises InvariantError on damage.

        Runs :func:`repro.check.invariants.verify_tree`: exact Eq. 1
        internal models, every pair at its predicted slot, per-leaf and
        tree-wide pair counts, strictly increasing iteration, and a
        live flat plan answering like the tree.  Its
        :class:`~repro.check.errors.SanitizerViolation` subclasses
        :class:`repro.check.errors.InvariantError`, which subclasses
        ``AssertionError`` but survives ``python -O``.
        """
        from repro.check.invariants import verify_tree

        verify_tree(self)


def _leaf_groups(leaf_of: np.ndarray, leaves: list):
    """Yield ``(leaf, members)`` per top-level leaf a routed batch hits.

    ``members`` are the batch positions routed to ``leaf``, in batch
    order (stable sort), so per-leaf execution applies a leaf's keys in
    the order the scalar loop would.
    """
    order = np.argsort(leaf_of, kind="stable")
    sorted_leaf = leaf_of[order]
    bounds = [
        0,
        *(np.flatnonzero(np.diff(sorted_leaf)) + 1).tolist(),
        len(order),
    ]
    for lo, hi in zip(bounds, bounds[1:]):
        yield leaves[int(sorted_leaf[lo])], order[lo:hi]


def _count_all(node) -> int:
    """Pairs under a subtree, from per-node bookkeeping (no pair walk)."""
    if type(node) is InternalNode:
        return sum(_count_all(c) for c in node.children)
    return node.num_pairs  # LeafNode counter / DenseLeafNode property


def _count_range_node(node, lo: float, hi: float) -> int:
    """Pairs with key in [lo, hi) under ``node``, counting interior
    subtrees wholesale.

    The key observation: a child strictly between the child owning
    ``lo`` and the child owning ``hi`` can only hold keys inside
    ``(lo, hi)`` -- the child mapping (``child_index`` for internals,
    ``predict_slot`` for leaves) is monotone in the key, and a key
    outside the range would have mapped to a boundary child or beyond.
    Only the two boundary subtrees need recursive filtering.
    """
    if type(node) is InternalNode:
        i_lo = node.child_index(lo)
        i_hi = node.child_index(hi)
        if i_lo == i_hi:
            return _count_range_node(node.children[i_lo], lo, hi)
        total = _count_range_node(node.children[i_lo], lo, hi)
        total += _count_range_node(node.children[i_hi], lo, hi)
        for i in range(i_lo + 1, i_hi):
            total += _count_all(node.children[i])
        return total
    if type(node) is DenseLeafNode:
        a = int(np.searchsorted(node.keys, lo, side="left"))
        b = int(np.searchsorted(node.keys, hi, side="left"))
        return b - a
    p_lo = node.predict_slot(lo)
    p_hi = node.predict_slot(hi)
    if p_lo == p_hi:
        return _count_slot(node.slots[p_lo], lo, hi)
    total = _count_slot(node.slots[p_lo], lo, hi)
    total += _count_slot(node.slots[p_hi], lo, hi)
    slots = node.slots
    for p in range(p_lo + 1, p_hi):
        entry = slots[p]
        if entry is None:
            continue
        total += 1 if type(entry) is tuple else entry.num_pairs
    return total


def _count_slot(entry, lo: float, hi: float) -> int:
    """Count within one boundary slot of a leaf."""
    if entry is None:
        return 0
    if type(entry) is tuple:
        return 1 if lo <= entry[0] < hi else 0
    return _count_range_node(entry, lo, hi)


def _iter_node_keys(node) -> Iterator[float]:
    """Keys in ascending order, straight off the node arrays."""
    if type(node) is InternalNode:
        for child in node.children:
            yield from _iter_node_keys(child)
    elif type(node) is DenseLeafNode:
        yield from (float(k) for k in node.keys)
    else:
        for entry in node.slots:
            if entry is None:
                continue
            if type(entry) is tuple:
                yield entry[0]
            else:
                yield from _iter_node_keys(entry)


def _iter_node_values(node) -> Iterator[object]:
    """Values in ascending key order, straight off the node arrays."""
    if type(node) is InternalNode:
        for child in node.children:
            yield from _iter_node_values(child)
    elif type(node) is DenseLeafNode:
        yield from node.values
    else:
        for entry in node.slots:
            if entry is None:
                continue
            if type(entry) is tuple:
                yield entry[1]
            else:
                yield from _iter_node_values(entry)


def _memory_bytes(node) -> int:
    if node is None:
        return 0
    if type(node) is InternalNode:
        return 32 + 8 * len(node.children) + sum(
            _memory_bytes(c) for c in node.children
        )
    if type(node) is DenseLeafNode:
        return 64 + 16 * len(node.keys)
    total = 64 + 16 * len(node.slots)
    for entry in node.slots:
        if entry is not None and type(entry) is not tuple:
            total += _memory_bytes(entry)
    return total
