"""Node structures of the DILI tree.

Three node kinds appear in a DILI:

* :class:`InternalNode` -- children equally divide the key range, so the
  Eq. 1 model locates the right child with one multiply-add and no local
  search.  Stores only the model and the child-pointer array ``C``.
* :class:`LeafNode` -- the locally optimized leaf of Section 5.  Its
  entry array ``V`` holds pairs at their model-predicted slots; slots
  where several keys collided hold a nested :class:`LeafNode` instead,
  and unused slots hold ``None``.
* :class:`DenseLeafNode` -- the DILI-LO ablation leaf: pairs packed
  tightly, looked up with model prediction plus exponential search
  (Algorithm 1).

Pairs are plain ``(key, value)`` tuples; slot-type dispatch is a cheap
``type(entry) is tuple`` check in the hot search loop.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.linear_model import LinearModel, clamp_slot
from repro.simulate.tracer import region_id

Pair = tuple  # (key, value)


class InternalNode:
    """Equal-width internal node (Section 2, "Internal Nodes")."""

    __slots__ = ("lb", "ub", "slope", "intercept", "children", "region")

    def __init__(self, lb: float, ub: float, fanout: int) -> None:
        self.lb = lb
        self.ub = ub
        model = LinearModel.from_range(lb, ub, fanout)
        self.slope = model.slope
        self.intercept = model.intercept
        self.children: list[object] = [None] * fanout
        self.region = region_id()

    @property
    def fanout(self) -> int:
        return len(self.children)

    def child_index(self, key: float) -> int:
        """Index of the child covering ``key``, clamped into range.

        Clamping makes out-of-range keys land in the boundary child,
        which is how inserts beyond the bulk-loaded range are absorbed.
        """
        pred = self.intercept + self.slope * key
        return clamp_slot(pred, len(self.children))

    def child_bounds(self, index: int) -> tuple[float, float]:
        """Key range [lb, ub) assigned to child ``index``."""
        width = (self.ub - self.lb) / len(self.children)
        return self.lb + index * width, self.lb + (index + 1) * width

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InternalNode([{self.lb}, {self.ub}), fo={self.fanout})"


class LeafNode:
    """Locally optimized leaf (Section 5, Fig. 4).

    Attributes mirror the paper's bookkeeping: ``num_pairs`` is Omega,
    ``delta`` is Delta (total entry accesses to find every covered key
    from here), ``kappa`` is Delta/Omega as of the last local
    optimization, and ``alpha`` counts adjustments so far.
    """

    __slots__ = (
        "lb",
        "ub",
        "slope",
        "intercept",
        "slots",
        "num_pairs",
        "delta",
        "kappa",
        "alpha",
        "region",
    )

    def __init__(self, lb: float, ub: float) -> None:
        self.lb = lb
        self.ub = ub
        self.slope = 0.0
        self.intercept = 0.0
        self.slots: list[object] = [None]
        self.num_pairs = 0
        self.delta = 0
        self.kappa = 1.0
        self.alpha = 0
        self.region = region_id()

    @property
    def fanout(self) -> int:
        return len(self.slots)

    def set_model(self, model: LinearModel) -> None:
        self.slope = model.slope
        self.intercept = model.intercept

    def predict_slot(self, key: float) -> int:
        """``f_D`` of Algorithm 5 line 4: floored, clamped prediction."""
        return clamp_slot(self.intercept + self.slope * key, len(self.slots))

    def iter_pairs(self) -> Iterator[Pair]:
        """All pairs under this leaf (including nested leaves), in key order.

        In-order traversal is key-ordered because the slot prediction is
        monotone in the key and nested leaves group equal-slot keys.
        """
        for entry in self.slots:
            if entry is None:
                continue
            if type(entry) is tuple:
                yield entry
            else:
                yield from entry.iter_pairs()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LeafNode([{self.lb}, {self.ub}), fo={self.fanout}, "
            f"pairs={self.num_pairs})"
        )


class DenseLeafNode:
    """Tightly packed leaf for the DILI-LO ablation (no local opt).

    Pairs are stored as parallel sorted arrays; lookups follow
    Algorithm 1: model prediction, then exponential search.
    """

    __slots__ = ("lb", "ub", "slope", "intercept", "keys", "values", "region")

    def __init__(
        self,
        lb: float,
        ub: float,
        keys: np.ndarray,
        values: list,
        model: LinearModel,
    ) -> None:
        self.lb = lb
        self.ub = ub
        self.keys = keys
        self.values = values
        self.slope = model.slope
        self.intercept = model.intercept
        self.region = region_id()

    @property
    def num_pairs(self) -> int:
        return len(self.keys)

    def predict_position(self, key: float) -> int:
        """Position estimate for the exponential search, clamped into
        the key array (the search clamps its start there anyway)."""
        return clamp_slot(self.intercept + self.slope * key, len(self.keys))

    def iter_pairs(self) -> Iterator[Pair]:
        for i in range(len(self.keys)):
            yield (float(self.keys[i]), self.values[i])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DenseLeafNode([{self.lb}, {self.ub}), n={len(self.keys)})"
