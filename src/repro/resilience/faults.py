"""Process-wide fault registry: corrupt any layer of the stack, on purpose.

PR 1's :class:`repro.durability.faultpoints.FaultInjector` can only
crash the WAL/snapshot write path.  This module promotes fault
injection to a process-wide concern (importable as :mod:`repro.faults`)
able to damage every serving structure the sanitizers watch:

=================  ====================================================
kind               what it corrupts (and which check detects it)
=================  ====================================================
``flat_cell``      one ``FlatPlan.pair_keys`` SoA cell (plan sorted-key
                   table diverges from the tree's keys)
``leaf_model``     a top-level leaf's linear model (stored pairs no
                   longer sit at their model-predicted slots)
``internal_model`` an internal node's Eq. 1 model (exact equal-width
                   model equality fails)
``slot_clobber``   a pair slot zeroed without bookkeeping (per-leaf
                   walked-vs-tracked pair count diverges)
``dense_flip``     two adjacent dense-leaf (DILI-LO) entries swapped
                   jointly (keys array no longer strictly sorted)
``lock_stall``     the ``ConcurrentDILI`` writer lock delayed on
                   acquire (:class:`StallingLock`; counts its stalls)
=================  ====================================================

plus scheduled WAL/snapshot I/O failure via memoized durability
injectors (:meth:`FaultRegistry.durability` is the *only* sanctioned
construction site of ``FaultInjector`` outside the durability module
itself -- lint rule CHK006 enforces that).

Every injector is **detectability-verified**: it either returns a
:class:`FaultReport` for damage the ``repro.check`` sanitizers provably
flag, or it undoes its edit and returns ``None`` so the caller can
redraw.  Injections are driven by a seeded
:class:`FaultSchedule`, which is what makes chaos runs reproducible.

The ``flat_cell`` corruption deliberately stays *order-preserving*: the
poisoned cell is moved strictly between its own key and the next key of
the same top-level leaf, so every plan table stays ascending and only
lookups inside that leaf can answer wrongly.  No ordering check sees such
damage; the deep check (:func:`repro.check.verify_tree`, which
``DILI.validate()`` runs) finds it by comparing the plan's key table
with the tree's keys.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.check import SanitizerViolation, verify_subtree
from repro.core.flat import SLOT_PAIR
from repro.core.nodes import DenseLeafNode, InternalNode, LeafNode
from repro.durability.faultpoints import (
    CRASH_POINTS,
    TORN_POINTS,
    FaultInjector,
    SimulatedCrash,
)

__all__ = [
    "CRASH_POINTS",
    "TORN_POINTS",
    "FaultInjector",
    "SimulatedCrash",
    "FAULT_FLAT_CELL",
    "FAULT_LEAF_MODEL",
    "FAULT_INTERNAL_MODEL",
    "FAULT_SLOT_CLOBBER",
    "FAULT_DENSE_FLIP",
    "FAULT_LOCK_STALL",
    "TREE_FAULT_KINDS",
    "FaultReport",
    "FaultRegistry",
    "FaultSchedule",
    "StallingLock",
]

FAULT_FLAT_CELL = "flat_cell"
FAULT_LEAF_MODEL = "leaf_model"
FAULT_INTERNAL_MODEL = "internal_model"
FAULT_SLOT_CLOBBER = "slot_clobber"
FAULT_DENSE_FLIP = "dense_flip"
FAULT_LOCK_STALL = "lock_stall"

#: Structure-corrupting kinds applicable to a standard (locally
#: optimized) DILI; ``dense_flip`` additionally needs the DILI-LO
#: ablation and ``lock_stall`` a :class:`~repro.ConcurrentDILI`.
TREE_FAULT_KINDS: tuple[str, ...] = (
    FAULT_FLAT_CELL,
    FAULT_LEAF_MODEL,
    FAULT_INTERNAL_MODEL,
    FAULT_SLOT_CLOBBER,
)


@dataclass(frozen=True)
class FaultReport:
    """One successfully injected (and provably detectable) fault.

    Attributes:
        kind: One of the fault-kind constants above.
        message: Human-readable description of the damage.
    """

    kind: str
    message: str


def _top_nodes(root) -> list:
    """Top-level leaves (LeafNode or DenseLeafNode) in DFS order."""
    out: list = []

    def walk(node) -> None:
        if type(node) is InternalNode:
            for child in node.children:
                walk(child)
        else:
            out.append(node)

    if root is not None:
        walk(root)
    return out


def _internal_nodes(root) -> list[InternalNode]:
    out: list[InternalNode] = []

    def walk(node) -> None:
        if type(node) is InternalNode:
            out.append(node)
            for child in node.children:
                walk(child)

    if root is not None:
        walk(root)
    return out


def _subtree_is_clean(node) -> bool:
    try:
        verify_subtree(node)
    except SanitizerViolation:
        return False
    return True


def _inject_leaf_model(index, rng) -> FaultReport | None:
    """Poison a top-level leaf's linear model (detectably)."""
    leaves = [
        n for n in _top_nodes(index.root)
        if type(n) is LeafNode and n.num_pairs > 0
    ]
    if not leaves:
        return None
    leaf = leaves[int(rng.integers(len(leaves)))]
    for delta in (1.0, -1.0):
        leaf.intercept += delta
        if not _subtree_is_clean(leaf):
            return FaultReport(
                FAULT_LEAF_MODEL,
                f"leaf [{leaf.lb}, {leaf.ub}) intercept shifted by {delta}",
            )
        leaf.intercept -= delta  # undetectable: undo and try the other way
    return None


def _inject_internal_model(index, rng) -> FaultReport | None:
    """Poison an internal node's Eq. 1 model (always detectable)."""
    nodes = _internal_nodes(index.root)
    if not nodes:
        return None
    node = nodes[int(rng.integers(len(nodes)))]
    node.slope = node.slope * 1.5
    return FaultReport(
        FAULT_INTERNAL_MODEL,
        f"internal [{node.lb}, {node.ub}) slope scaled by 1.5",
    )


def _inject_slot_clobber(index, rng) -> FaultReport | None:
    """Zero a stored pair slot without fixing the leaf bookkeeping."""
    leaves = [
        n for n in _top_nodes(index.root)
        if type(n) is LeafNode and n.num_pairs > 0
    ]
    if not leaves:
        return None
    leaf = leaves[int(rng.integers(len(leaves)))]
    pair_slots = [
        i for i, e in enumerate(leaf.slots) if type(e) is tuple
    ]
    if not pair_slots:
        return None  # every pair sits under a nested leaf
    slot = pair_slots[int(rng.integers(len(pair_slots)))]
    key = leaf.slots[slot][0]
    leaf.slots[slot] = None
    return FaultReport(
        FAULT_SLOT_CLOBBER,
        f"leaf [{leaf.lb}, {leaf.ub}) slot {slot} (key {key}) zeroed",
    )


def _inject_dense_flip(index, rng) -> FaultReport | None:
    """Swap two adjacent dense-leaf entries, keys and values jointly."""
    leaves = [
        n for n in _top_nodes(index.root)
        if type(n) is DenseLeafNode and len(n.keys) >= 2
    ]
    if not leaves:
        return None
    leaf = leaves[int(rng.integers(len(leaves)))]
    i = int(rng.integers(len(leaf.keys) - 1))
    keys = leaf.keys
    keys[i], keys[i + 1] = float(keys[i + 1]), float(keys[i])
    vals = leaf.values
    vals[i], vals[i + 1] = vals[i + 1], vals[i]
    return FaultReport(
        FAULT_DENSE_FLIP,
        f"dense leaf [{leaf.lb}, {leaf.ub}) entries {i}/{i + 1} swapped",
    )


def _inject_flat_cell(index, rng) -> FaultReport | None:
    """Corrupt one plan ``pair_keys`` cell, order-preservingly.

    Requires a live (or compilable) plan over a pair-only tree.  The
    victim cell is found through the plan's own descent (a maintained
    plan's pair table is not in key order) and moved to the midpoint of
    its gap to the *next key of the same top-level leaf*, so key order
    survives and only the containing leaf's extent answers wrongly.
    """
    if index.root is None:
        return None
    plan = index._plan()
    if len(plan.dense_keys):
        return None
    leaves = [
        n for n in _top_nodes(index.root)
        if type(n) is LeafNode and n.num_pairs >= 2
    ]
    if not leaves:
        return None
    leaf = leaves[int(rng.integers(len(leaves)))]
    leaf_keys = [k for k, _ in leaf.iter_pairs()]
    j = int(rng.integers(len(leaf_keys) - 1))
    kj, knext = leaf_keys[j], leaf_keys[j + 1]
    mid = kj + (knext - kj) / 2.0
    if not (kj < mid < knext):
        return None  # gap too small to corrupt order-preservingly
    loc = plan._locate(kj)
    if loc is None or loc[1] < 0:
        return None
    ref = int(plan.base[loc[0]]) + loc[1]
    p = int(plan.slot_ref[ref])
    if plan.slot_kind[ref] != SLOT_PAIR or plan.pair_keys[p] != kj:
        return None  # plan out of sync with the tree; do not compound it
    # A freshly compiled plan's sorted_keys aliases pair_keys, so one
    # store corrupts both views consistently -- exactly the blast
    # radius a real stray write would have.
    plan.pair_keys[p] = mid  # repro-check: allow CHK001 -- deliberate fault injection
    return FaultReport(
        FAULT_FLAT_CELL,
        f"plan pair_keys[{p}] moved {kj} -> {mid}",
    )


_INJECTORS = {
    FAULT_FLAT_CELL: _inject_flat_cell,
    FAULT_LEAF_MODEL: _inject_leaf_model,
    FAULT_INTERNAL_MODEL: _inject_internal_model,
    FAULT_SLOT_CLOBBER: _inject_slot_clobber,
    FAULT_DENSE_FLIP: _inject_dense_flip,
}


class StallingLock:
    """Delegating lock wrapper that sleeps before every acquire.

    Wraps (never replaces) the underlying writer ``RLock``, so mutual
    exclusion is preserved: a thread that entered the old object
    before the swap releases that same object, and every later
    acquisition goes through the wrapper to the same inner lock.
    """

    def __init__(self, inner, stall_s: float) -> None:
        self.inner = inner
        self.stall_s = stall_s
        self.stalls = 0

    def acquire(self, *args, **kwargs):
        self.stalls += 1
        time.sleep(self.stall_s)
        return self.inner.acquire(*args, **kwargs)

    def release(self) -> None:
        self.inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def stall_lock(concurrent, stall_s: float) -> StallingLock:
    """Install a :class:`StallingLock` on a ConcurrentDILI's writer lock.

    Returns the wrapper; call :func:`unstall_lock` with it to restore
    the original lock object.
    """
    wrapper = StallingLock(concurrent._lock, stall_s)
    concurrent._lock = wrapper
    return wrapper


def unstall_lock(concurrent, wrapper: StallingLock) -> None:
    """Undo :func:`stall_lock` (restores the wrapped RLock)."""
    if concurrent._lock is wrapper:
        concurrent._lock = wrapper.inner


@dataclass(frozen=True)
class FaultSchedule:
    """Deterministic, seeded plan of (round, kind) injection events."""

    events: tuple[tuple[int, str], ...]

    @classmethod
    def random(
        cls,
        *,
        rounds: int,
        injections: int,
        kinds: tuple[str, ...] = TREE_FAULT_KINDS,
        seed: int = 0,
    ) -> "FaultSchedule":
        """Sample ``injections`` events over ``rounds`` workload rounds.

        Every kind in ``kinds`` appears at least once (provided
        ``injections >= len(kinds)``); rounds are distinct and sorted,
        so the schedule reads as a timeline.
        """
        if injections > rounds:
            raise ValueError("cannot schedule more injections than rounds")
        rng = np.random.default_rng(seed)
        when = np.sort(
            rng.choice(rounds, size=injections, replace=False)
        ).tolist()
        # Guaranteed coverage first, then a random tail; shuffled so
        # coverage kinds are not clustered at the start of the run.
        chosen = [kinds[i % len(kinds)] for i in range(len(kinds))]
        chosen += [
            kinds[int(rng.integers(len(kinds)))]
            for _ in range(max(0, injections - len(kinds)))
        ]
        chosen = chosen[:injections]
        rng.shuffle(chosen)
        return cls(tuple(zip(when, chosen)))

    def kinds_used(self) -> set[str]:
        return {kind for _, kind in self.events}


class FaultRegistry:
    """Process-wide registry of injectable faults.

    One registry typically lives for a whole chaos run: it hands out
    memoized durability injectors by name (the sanctioned
    ``FaultInjector`` construction site, rule CHK006) and applies
    structure-corrupting faults to live indexes, recording every
    successful injection in :attr:`reports`.
    """

    def __init__(self) -> None:
        self._durability: dict[str, FaultInjector] = {}
        self.reports: list[FaultReport] = []

    def durability(self, name: str = "default") -> FaultInjector:
        """The named durability crash-point injector (memoized)."""
        injector = self._durability.get(name)
        if injector is None:
            injector = self._durability[name] = FaultInjector()
        return injector

    def inject_plan(self, kind: str, path, rng):
        """Apply one plan-store file fault (``repro.planstore.corrupt``).

        The on-disk sibling of :meth:`inject`: damages a published plan
        base or delta file instead of a live index.  Returns the
        :class:`~repro.planstore.corrupt.PlanFaultReport` (recorded in
        :attr:`reports`), or ``None`` when not applicable.
        """
        # Imported lazily: planstore pulls in the serving ladder, which
        # imports back into resilience for the health monitor.
        from repro.planstore.corrupt import inject_plan_fault

        report = inject_plan_fault(kind, path, rng)
        if report is not None:
            self.reports.append(report)
        return report

    def inject(self, kind: str, index, rng) -> FaultReport | None:
        """Apply one fault of ``kind`` to ``index``.

        Returns the report, or ``None`` when no detectable injection of
        that kind was possible (e.g. ``dense_flip`` on a non-DILI-LO
        tree) -- the structures are then guaranteed unmodified.
        """
        try:
            injector = _INJECTORS[kind]
        except KeyError:
            raise ValueError(f"unknown fault kind {kind!r}") from None
        report = injector(index, rng)
        if report is not None:
            self.reports.append(report)
        return report

    def inject_any(
        self,
        index,
        rng,
        kinds: tuple[str, ...] = TREE_FAULT_KINDS,
    ) -> FaultReport | None:
        """Inject the first applicable kind from a shuffled ``kinds``."""
        order = list(kinds)
        rng.shuffle(order)
        for kind in order:
            report = self.inject(kind, index, rng)
            if report is not None:
                return report
        return None

