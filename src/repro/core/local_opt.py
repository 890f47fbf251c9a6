"""Leaf local optimization (Algorithm 5).

The local optimization makes leaf predictions exact: each pair is stored
at precisely the slot its leaf's linear model predicts, so a lookup needs
no last-mile search.  Keys whose predictions collide are pushed into a
nested leaf with its own (rescaled) model, recursively.  The entry array
is over-allocated by the enlarging ratio ``eta`` (paper default 2) so
consecutive keys usually land in distinct slots.

The module also maintains the paper's bookkeeping: ``Delta`` (total entry
accesses to find every covered key from this node) and
``kappa = Delta/Omega`` captured right after optimization, which the
insertion path later compares against to trigger adjustments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.linear_model import LinearModel
from repro.core.nodes import LeafNode, Pair

# Scalar floor+int is only equivalent to numpy's floor/astype(int64) while
# the prediction is far from the int64 edge; beyond this bound the slow
# path reproduces the vectorised conversion exactly.
_SAFE_PRED = 4.0e18

MAX_NESTING_DEPTH = 64
"""Safety valve: with unique keys the model always separates the minimum
and maximum of a conflict group, so group sizes strictly shrink and this
depth is unreachable in practice; it guards against float-precision
pathologies."""


@dataclass
class LocalOptStats:
    """Counters accumulated across local-optimization calls.

    Attributes:
        conflicts: Number of pairs that landed in a conflicting slot
            (counted once per level of nesting they caused, at the level
            where the conflict occurred) -- the Table 6 metric.
        nested_leaves: Nested leaf nodes created for conflict groups.
        max_depth: Deepest nesting produced.
    """

    conflicts: int = 0
    nested_leaves: int = 0
    max_depth: int = 0
    _depths: list[int] = field(default_factory=list, repr=False)


def fit_leaf_model(keys: list[float] | np.ndarray, fanout: int) -> LinearModel:
    """Least-squares rank model stretched over ``fanout`` slots.

    Algorithm 4 fits keys against ranks ``0..n-1``; stretching both
    parameters by ``fanout/n`` (as the adjustment path of Algorithm 7
    lines 23-24 does explicitly) spreads predictions over the enlarged
    entry array so the over-allocation actually reduces conflicts.
    """
    n = len(keys)
    model = LinearModel.fit(keys)
    if n == 0:
        return model
    ratio = fanout / n
    return LinearModel(model.slope * ratio, model.intercept * ratio)


def local_opt(
    leaf: LeafNode,
    pairs: list[Pair],
    *,
    enlarge: float = 2.0,
    fanout: int | None = None,
    model: LinearModel | None = None,
    stats: LocalOptStats | None = None,
    depth: int = 0,
    max_fanout: int | None = None,
    keys: np.ndarray | None = None,
) -> None:
    """Distribute ``pairs`` into ``leaf``'s entry array (Algorithm 5).

    Args:
        leaf: Target leaf; its slots, model and bookkeeping are replaced.
        pairs: (key, value) tuples sorted by key; keys must be unique.
        enlarge: Enlarging ratio ``eta`` (> 1) for the entry array.
        fanout: Explicit slot count; defaults to ``ceil(enlarge * n)``.
            The adjustment path passes the enlarged ``Omega * phi(alpha)``.
        model: Explicit slot model; fitted and stretched when omitted.
        stats: Optional conflict counters (Table 6 instrumentation).
        depth: Current nesting depth (internal).
        max_fanout: Optional cap on the entry-array size, applied to
            this node and every nested conflict node (LIPP-style
            bounded allocation); None leaves fanouts unbounded.
        keys: Optional float64 array holding exactly the keys of
            ``pairs`` in order; callers that already have it (bulk
            load) pass it to skip the per-pair re-extraction.
    """
    n = len(pairs)
    if fanout is None:
        fanout = max(2, int(np.ceil(enlarge * max(n, 1))))
    if max_fanout is not None:
        fanout = max(2, min(fanout, max_fanout))
    if model is None:
        model = fit_leaf_model(
            keys if keys is not None else [p[0] for p in pairs], fanout
        )
    leaf.set_model(model)
    leaf.num_pairs = n
    leaf.delta = 0
    slots: list[object] = [None] * fanout
    leaf.slots = slots
    if n == 0:
        leaf.kappa = 1.0
        return

    # Two-pair groups dominate the recursion (most slot conflicts involve
    # exactly two keys); handle them scalar instead of spinning up the
    # vectorised bucketing below.  The arithmetic mirrors it exactly:
    # same model, same floor, same clamp.
    if n == 2:
        a = leaf.intercept
        b = leaf.slope
        v0 = a + b * pairs[0][0]
        v1 = a + b * pairs[1][0]
        if -_SAFE_PRED < v0 < _SAFE_PRED and -_SAFE_PRED < v1 < _SAFE_PRED:
            last = fanout - 1
            p0 = int(math.floor(v0))
            p0 = 0 if p0 < 0 else (last if p0 > last else p0)
            p1 = int(math.floor(v1))
            p1 = 0 if p1 < 0 else (last if p1 > last else p1)
            if p0 != p1:
                slots[p0] = pairs[0]
                slots[p1] = pairs[1]
                leaf.delta = 2
                leaf.kappa = 1.0
                return
            # Both keys predict the same slot: one nested group with no
            # separation progress, which always takes the fallback spread.
            if stats is not None:
                stats.conflicts += 2
                stats.nested_leaves += 1
                if depth + 1 > stats.max_depth:
                    stats.max_depth = depth + 1
            child = LeafNode(pairs[0][0], pairs[1][0])
            _fallback_spread(child, pairs)
            slots[p0] = child
            leaf.delta = 2 + child.delta
            leaf.kappa = leaf.delta / 2
            return

    # Bucket pairs by predicted slot: pairs arrive sorted by key and the
    # prediction is monotone (least-squares slopes over ranks are
    # non-negative), so equal-slot pairs are contiguous and one diff
    # pass over the predictions finds the group boundaries.  Small
    # groups (the nested-conflict recursion) predict scalar -- same
    # model, same floor, same clamp as the vectorised form, with the
    # int64 edge guarded -- to skip the numpy fixed costs.
    pred_l: list[int] | np.ndarray | None = None
    if n <= 32:
        a = leaf.intercept
        b = leaf.slope
        last = fanout - 1
        pred_l = []
        for p in pairs:
            v = a + b * p[0]
            if not (-_SAFE_PRED < v < _SAFE_PRED):
                pred_l = None
                break
            s = int(math.floor(v))
            pred_l.append(0 if s < 0 else (last if s > last else s))
    if pred_l is not None:
        bounds = [0]
        for i in range(1, n):
            if pred_l[i] != pred_l[i - 1]:
                bounds.append(i)
        bounds.append(n)
    else:
        if keys is not None:
            keys_arr = keys
        else:
            keys_arr = np.fromiter((p[0] for p in pairs), dtype=np.float64,
                                   count=n)
        predicted = np.floor(
            leaf.intercept + leaf.slope * keys_arr
        ).astype(np.int64)
        np.clip(predicted, 0, fanout - 1, out=predicted)
        bounds = [0, *(np.flatnonzero(np.diff(predicted)) + 1).tolist(), n]
        pred_l = predicted

    num_groups = len(bounds) - 1
    progress = num_groups > 1 or n == 1
    delta_acc = 0
    for g in range(num_groups):
        s = bounds[g]
        e = bounds[g + 1]
        if e - s == 1:
            slots[int(pred_l[s])] = pairs[s]
            delta_acc += 1
        else:
            group = pairs[s:e]
            if stats is not None:
                stats.conflicts += len(group)
                stats.nested_leaves += 1
                if depth + 1 > stats.max_depth:
                    stats.max_depth = depth + 1
            child = LeafNode(group[0][0], group[-1][0])
            if depth >= MAX_NESTING_DEPTH or not progress:
                _fallback_spread(child, group)
            else:
                local_opt(
                    child,
                    group,
                    enlarge=enlarge,
                    stats=stats,
                    depth=depth + 1,
                    max_fanout=max_fanout,
                )
            slots[int(pred_l[s])] = child
            delta_acc += len(group) + child.delta
    leaf.delta = delta_acc
    leaf.kappa = delta_acc / leaf.num_pairs


def _fallback_spread(leaf: LeafNode, pairs: list[Pair]) -> None:
    """Degenerate-case placement when least-squares cannot separate keys.

    Uses an equal-width model over the group's *exact* key span: distinct
    float64 keys then always map the minimum to slot 0 and the maximum to
    the last slot, so recursion on any remaining collision group strictly
    shrinks it.  Lookups stay prediction-exact.  Reached only via the
    depth guard.
    """
    n = len(pairs)
    lo = pairs[0][0]
    hi = pairs[-1][0]
    fanout = max(2 * n, 2)
    if hi > lo:
        span = hi - lo
        model = LinearModel.from_range(lo, lo + span * (1 + 1e-9), fanout)
    else:  # identical keys: precondition violated upstream
        raise ValueError(f"duplicate key {lo!r} reached local optimization")
    leaf.set_model(model)
    leaf.num_pairs = n
    leaf.delta = 0
    slots: list[object] = [None] * fanout
    leaf.slots = slots
    groups: dict[int, list[Pair]] = {}
    for pair in pairs:
        groups.setdefault(leaf.predict_slot(pair[0]), []).append(pair)
    for t, group in groups.items():
        if len(group) == 1:
            slots[t] = group[0]
            leaf.delta += 1
        else:
            child = LeafNode(group[0][0], group[-1][0])
            _fallback_spread(child, group)
            slots[t] = child
            leaf.delta += len(group) + child.delta
    leaf.kappa = leaf.delta / max(leaf.num_pairs, 1)
