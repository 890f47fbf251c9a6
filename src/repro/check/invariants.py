"""Runtime tree sanitizer: structural invariants + plan cross-validation.

:func:`verify_tree` is the deep check -- it walks the whole object tree
and re-verifies every invariant the paper's construction relies on:

* internal nodes carry exactly the equal-width model of Eq. 1 for their
  ``[lb, ub)`` range and fanout (``slope = fo/(ub-lb)``,
  ``intercept = -slope*lb``);
* every stored pair sits at exactly its model-predicted slot, and every
  key under a nested leaf predicts the slot that nested leaf occupies
  in its parent (checked at the key-range endpoints; slot prediction is
  monotone in the key);
* dense (DILI-LO) leaves keep parallel, strictly sorted arrays;
* per-leaf and tree-wide pair counts agree with an actual walk, and
  in-order iteration yields strictly increasing keys;
* a compiled :class:`~repro.core.flat.FlatPlan`, if present, answers
  every key exactly like the object tree and carries the same sorted
  key table; a cached :class:`~repro.core.flat.InternalRouter` routes
  to the tree's actual top-level leaves.

:class:`TreeSanitizer` makes that affordable online: cheap per-write
coherence checks always run, and the O(n) deep verification is
*amortized* -- it reruns once the number of mutated keys since the last
deep check reaches the current tree size, bounding total sanitizer work
at a constant factor of the work the index itself did.
"""

from __future__ import annotations

import math

import numpy as np

from repro.check.errors import InvariantError, SanitizerViolation
from repro.core.linear_model import LinearModel
from repro.core.nodes import DenseLeafNode, InternalNode, LeafNode


def _fail(message: str) -> None:
    raise SanitizerViolation(message)


def _check_internal(node: InternalNode) -> None:
    fanout = len(node.children)
    if fanout < 1:
        _fail(f"internal node [{node.lb}, {node.ub}) has no children")
    if not node.ub > node.lb:
        _fail(f"internal node with empty range [{node.lb}, {node.ub})")
    model = LinearModel.from_range(node.lb, node.ub, fanout)
    if node.slope != model.slope or node.intercept != model.intercept:
        _fail(
            f"internal node [{node.lb}, {node.ub}) fo={fanout} carries "
            f"model ({node.slope}, {node.intercept}), equal-width model "
            f"is ({model.slope}, {model.intercept})"
        )
    for i, child in enumerate(node.children):
        if child is None:
            _fail(f"internal node [{node.lb}, {node.ub}) child {i} is None")


def _check_dense(node: DenseLeafNode) -> int:
    if len(node.keys) != len(node.values):
        _fail(
            f"dense leaf [{node.lb}, {node.ub}): {len(node.keys)} keys vs "
            f"{len(node.values)} values"
        )
    if len(node.keys) > 1 and not bool(np.all(np.diff(node.keys) > 0)):
        _fail(f"dense leaf [{node.lb}, {node.ub}) keys not strictly sorted")
    return len(node.keys)


def _leaf_key_span(leaf: LeafNode) -> tuple[float, float] | None:
    """(min, max) key under a leaf, or None when empty."""
    lo = math.inf
    hi = -math.inf
    for key, _ in leaf.iter_pairs():
        lo = min(lo, key)
        hi = max(hi, key)
    return None if lo is math.inf else (lo, hi)


def _check_leaf(leaf: LeafNode) -> int:
    if len(leaf.slots) < 1:
        _fail(f"leaf [{leaf.lb}, {leaf.ub}) has an empty slot array")
    if leaf.slope < 0:
        _fail(f"leaf [{leaf.lb}, {leaf.ub}) model slope {leaf.slope} < 0")
    count = 0
    for i, entry in enumerate(leaf.slots):
        if entry is None:
            continue
        if type(entry) is tuple:
            predicted = leaf.predict_slot(entry[0])
            if predicted != i:
                _fail(
                    f"pair {entry[0]} stored at slot {i}, model predicts "
                    f"slot {predicted}"
                )
            count += 1
        else:
            count += _check_leaf(entry)
            span = _leaf_key_span(entry)
            if span is None:
                _fail(f"empty nested leaf left in slot {i}")
            else:
                # predict_slot is monotone in the key, so the endpoints
                # bracket every key under the nested leaf.
                for key in span:
                    predicted = leaf.predict_slot(key)
                    if predicted != i:
                        _fail(
                            f"nested leaf in slot {i} covers key {key}, "
                            f"which predicts slot {predicted}"
                        )
    if count != leaf.num_pairs:
        _fail(
            f"leaf [{leaf.lb}, {leaf.ub}) pair count: walked {count}, "
            f"tracked {leaf.num_pairs}"
        )
    return count


def _check_node(node) -> int:
    if type(node) is InternalNode:
        _check_internal(node)
        return sum(_check_node(c) for c in node.children)
    if type(node) is DenseLeafNode:
        return _check_dense(node)
    return _check_leaf(node)


def _top_leaves(node, out: list) -> None:
    if type(node) is InternalNode:
        for child in node.children:
            _top_leaves(child, out)
    else:
        out.append(node)


def _values_match(a, b) -> bool:
    if a is b:
        return True
    try:
        return bool(a == b)
    except Exception:
        return False


def _check_plan(index, keys: np.ndarray, values: list) -> None:
    plan = index.peek_plan()
    if plan is None:
        return
    try:
        plan.self_check()  # SoA cross-reference integrity (flat.py hook)
    except InvariantError as exc:
        _fail(f"plan failed its self-check: {exc}")
    if not np.array_equal(plan.sorted_keys, keys):
        _fail(
            f"plan sorted-key table diverged from the tree "
            f"({len(plan.sorted_keys)} plan keys vs {len(keys)} tree keys)"
        )
    if len(keys):
        got = plan.get_batch(keys)
        for i, (expect, actual) in enumerate(zip(values, got)):
            if not _values_match(expect, actual):
                _fail(
                    f"plan lookup diverged from the tree at key "
                    f"{keys[i]!r}: tree holds {expect!r}, plan answers "
                    f"{actual!r}"
                )


def _check_router(index) -> None:
    router = index._router
    if router is None or index.root is None:
        return
    tops: list = []
    _top_leaves(index.root, tops)
    if len(router.leaves) != len(tops):
        _fail(
            f"router caches {len(router.leaves)} top-level leaves, tree "
            f"has {len(tops)}"
        )
    for i, (cached, live) in enumerate(zip(router.leaves, tops)):
        if cached is not live:
            _fail(f"router leaf {i} is not the tree's top-level leaf {i}")


def verify_subtree(node) -> int:
    """Deep-verify one subtree (any node kind); returns its pair count.

    The scoped form of :func:`verify_tree`, without the tree-wide
    count, iteration-order, plan and router checks.  The fault
    registry (:mod:`repro.resilience.faults`) runs it to confirm that
    an injected model fault is detectable.  Raises
    :class:`SanitizerViolation` on the first broken invariant.
    """
    return _check_node(node)


def verify_tree(index, *, check_plan: bool = True,
                check_router: bool = True) -> None:
    """Deep-verify ``index``; raises :class:`SanitizerViolation` on damage.

    ``index`` is a :class:`repro.core.dili.DILI`.  O(n) in keys; see
    :class:`TreeSanitizer` for the amortized online form.
    """
    if index.root is None:
        if index._count != 0:
            _fail(f"empty tree with tracked count {index._count}")
        return
    total = _check_node(index.root)
    if total != index._count:
        _fail(f"pair count mismatch: walked {total}, tracked {index._count}")
    keys = np.empty(total, dtype=np.float64)
    values: list = [None] * total
    last = -math.inf
    for i, (key, value) in enumerate(index.items()):
        if key <= last:
            _fail(f"iteration order broken at key {key}")
        last = key
        keys[i] = key
        values[i] = value
    if check_plan:
        _check_plan(index, keys, values)
    if check_router:
        _check_router(index)


class TreeSanitizer:
    """Online invariant checker attached to ``DILI.sanitizer``.

    Every mutating operation reports the keys it touched via
    :meth:`after_write`.  The sanitizer then

    1. cheaply cross-checks each touched key between the object tree
       and the compiled flat plan (when one is live), and
    2. counts touched keys and reruns :func:`verify_tree` once the
       tally reaches ``amortize`` times the current tree size (at least
       ``min_interval`` keys), so deep-verification work stays within a
       constant factor of the index's own work.

    ``full_every`` forces a deep verify every N calls instead (e.g.
    ``full_every=1`` in small unit tests); the amortized policy still
    applies when it is None.  The instance is intentionally
    picklable-free state: ``DILI.__getstate__`` drops it like the other
    derived fields.
    """

    def __init__(
        self,
        *,
        amortize: float = 1.0,
        min_interval: int = 256,
        full_every: int | None = None,
    ) -> None:
        if amortize <= 0:
            raise ValueError("amortize must be positive")
        self.amortize = amortize
        self.min_interval = min_interval
        self.full_every = full_every
        self.checks = 0
        self.full_checks = 0
        self._pending = 0
        self._calls = 0

    # -- hook entry points (called by repro.core.dili) -----------------

    def after_write(self, index, keys) -> None:
        """Validate after a mutation that touched ``keys``."""
        self.checks += 1
        self._calls += 1
        if index._count < 0:
            _fail(f"tree count went negative: {index._count}")
        self._spot_check(index, keys)
        self._pending += max(1, len(keys))
        threshold = max(self.min_interval, self.amortize * index._count)
        due = self._pending >= threshold
        if self.full_every is not None:
            due = due or (self._calls % self.full_every == 0)
        if due:
            self.verify(index)

    def after_bulk(self, index) -> None:
        """A bulk load replaced the whole tree: deep-verify it now."""
        self.checks += 1
        self.verify(index)

    def verify(self, index) -> None:
        """Deep verification (:func:`verify_tree`), resetting the tally."""
        self.full_checks += 1
        self._pending = 0
        verify_tree(index)

    # -- cheap per-write checks ---------------------------------------

    def _spot_check(self, index, keys) -> None:
        """Tree/plan answer coherence for just the touched keys."""
        plan = index.peek_plan()
        if plan is None or len(keys) == 0:
            return
        arr = np.asarray(keys, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        from_plan = plan.get_batch(arr)
        for i, key in enumerate(arr.tolist()):
            expect = index.get(key)
            if not _values_match(expect, from_plan[i]):
                _fail(
                    f"after write, plan diverged from tree at key {key!r}: "
                    f"tree holds {expect!r}, plan answers {from_plan[i]!r}"
                )
