"""Learned routing of keys to contiguous range shards.

Two routers cover the two partitioning modes:

* :class:`ShardRouter` works in **key space**.  The partition is
  described by its interior boundary keys (the smallest stored key of
  every shard but the first), and the ground truth is
  ``np.searchsorted(boundaries, keys, side="right")``.  The fast path
  is a one-level Eq.1-style linear model fit over the boundary keys
  (the root-model-dispatches-to-sub-index pattern from "The Case for
  Learned Index Structures"), followed by a *last-mile correction*:
  every prediction is checked against the predicted shard's key range
  and only the mispredicted tail falls back to a real binary search.
  The result is exactly ``searchsorted``-equivalent -- a prediction is
  accepted only when ``lower[p] <= key < upper[p]``, and for a sorted
  boundary array that inequality pins the searchsorted answer uniquely
  (duplicate boundary keys make the shard between them empty, and its
  degenerate ``lower == upper`` window can never accept a key).

* :class:`AlignedRouter` works in **child-index space**.  When shards
  are built by splitting one global tree at the root's children (see
  :func:`repro.sharding.partition.split_aligned`), routing must agree
  *bit for bit* with the root's own floor-model dispatch, or a
  boundary-adjacent probe would land on a shard that holds only a
  placeholder for that child and trace a different descent.  The
  router therefore evaluates the root model with the identical
  ``floor(intercept + slope * key)``-and-clamp arithmetic (numpy
  float64 elementwise is IEEE-identical to the scalar path) and then
  maps child index to shard by its contiguous group starts.

Both routers are plain data (picklable, JSON-serializable via
``to_dict``/``from_dict``) so the coordinator can persist them in the
shard manifest and atomically swap them during a rebalance.
"""

from __future__ import annotations

import numpy as np

from repro.core.linear_model import LinearModel, clamp_slots


def _as_key_array(keys) -> np.ndarray:
    out = np.asarray(keys, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    return out


class ShardRouter:
    """Key-space router: learned prediction + last-mile binary search.

    Attributes:
        boundaries: Interior boundary keys, non-decreasing, length
            ``num_shards - 1``.  Shard ``j`` covers
            ``[boundaries[j-1], boundaries[j])`` with open ends at
            the extremes, so keys below the first boundary route to
            shard 0 and keys at or above the last route to the last
            shard.
        num_shards: Total shard count (>= 1).
        routed: Keys routed since construction (observability).
        corrected: Keys whose model prediction needed the binary-search
            last mile.
    """

    kind = "range"

    def __init__(self, boundaries, num_shards: int | None = None) -> None:
        self.boundaries = _as_key_array(boundaries)
        if np.any(np.diff(self.boundaries) < 0):
            raise ValueError("shard boundaries must be non-decreasing")
        self.num_shards = (
            len(self.boundaries) + 1 if num_shards is None else int(num_shards)
        )
        if self.num_shards != len(self.boundaries) + 1:
            raise ValueError(
                f"{self.num_shards} shards need "
                f"{self.num_shards - 1} boundaries, "
                f"got {len(self.boundaries)}"
            )
        self.model = self._fit_model(self.boundaries)
        # Acceptance windows for the learned prediction: shard j owns
        # [lower[j], upper[j]) with infinite sentinels at the extremes.
        self._lower = np.concatenate(([-np.inf], self.boundaries))
        self._upper = np.concatenate((self.boundaries, [np.inf]))
        self.routed = 0
        self.corrected = 0

    @staticmethod
    def _fit_model(boundaries: np.ndarray) -> LinearModel:
        # Boundary key boundaries[i] is the first key of shard i + 1,
        # so the model maps boundary -> owning shard index.
        if len(boundaries) == 0:
            return LinearModel(0.0, 0.0)
        lo, hi = float(boundaries[0]), float(boundaries[-1])
        if hi <= lo:  # single or duplicate boundary: no usable span
            return LinearModel(0.0, 1.0)
        ys = np.arange(1, len(boundaries) + 1, dtype=np.float64)
        return LinearModel.fit(boundaries, ys)

    def route(self, keys) -> np.ndarray:
        """Shard id per key; exactly searchsorted-right equivalent."""
        keys = _as_key_array(keys)
        self.routed += len(keys)
        if self.num_shards == 1 or len(keys) == 0:
            return np.zeros(len(keys), dtype=np.int64)
        # The clamp sends a NaN prediction (a NaN key, or an infinite
        # one times a zero slope) to shard 0.  A NaN key fails every
        # acceptance window, so it takes the searchsorted last mile
        # like any misprediction and lands where route_naive puts it.
        pred = clamp_slots(
            self.model.intercept + self.model.slope * keys, self.num_shards
        )
        wrong = ~((self._lower[pred] <= keys) & (keys < self._upper[pred]))
        n_wrong = int(np.count_nonzero(wrong))
        if n_wrong:
            self.corrected += n_wrong
            pred[wrong] = np.searchsorted(
                self.boundaries, keys[wrong], side="right"
            )
        return pred

    def route_naive(self, keys) -> np.ndarray:
        """The ground truth the learned path must match exactly."""
        keys = _as_key_array(keys)
        return np.searchsorted(self.boundaries, keys, side="right").astype(
            np.int64
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "boundaries": [float(b) for b in self.boundaries],
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "ShardRouter":
        return cls(spec["boundaries"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardRouter(shards={self.num_shards}, "
            f"slope={self.model.slope:.3g})"
        )


class AlignedRouter:
    """Child-index router for shards split at the global root's children.

    Attributes:
        slope/intercept: The global root's Eq.1 model, copied verbatim.
        fanout: The global root's child count.
        group_starts: First child index of each shard's contiguous
            group; ``group_starts[0]`` must be 0.
    """

    kind = "aligned"

    def __init__(
        self, slope: float, intercept: float, fanout: int, group_starts
    ) -> None:
        self.slope = float(slope)
        self.intercept = float(intercept)
        self.fanout = int(fanout)
        self.group_starts = np.asarray(group_starts, dtype=np.int64)
        if len(self.group_starts) == 0 or self.group_starts[0] != 0:
            raise ValueError("group_starts must begin with child 0")
        if np.any(np.diff(self.group_starts) <= 0):
            raise ValueError("group_starts must be strictly increasing")
        if self.group_starts[-1] >= self.fanout:
            raise ValueError("group start beyond the root's fanout")
        self.num_shards = len(self.group_starts)
        self.routed = 0
        self.corrected = 0  # parity with ShardRouter's counters

    def child_of(self, keys) -> np.ndarray:
        """Root child per key -- InternalNode.child_index, vectorized.

        Must stay arithmetic-identical to
        :meth:`repro.core.nodes.InternalNode.child_index`: same
        multiply-add, same floor, same clamp.  A NaN key goes to child
        0, where the flat plan's descent of the global root sends it.
        """
        keys = _as_key_array(keys)
        return clamp_slots(self.intercept + self.slope * keys, self.fanout)

    def route(self, keys) -> np.ndarray:
        keys = _as_key_array(keys)
        self.routed += len(keys)
        if self.num_shards == 1 or len(keys) == 0:
            return np.zeros(len(keys), dtype=np.int64)
        child = self.child_of(keys)
        return (
            np.searchsorted(self.group_starts, child, side="right") - 1
        ).astype(np.int64)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "slope": self.slope,
            "intercept": self.intercept,
            "fanout": self.fanout,
            "group_starts": [int(g) for g in self.group_starts],
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "AlignedRouter":
        return cls(
            spec["slope"], spec["intercept"], spec["fanout"],
            spec["group_starts"],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AlignedRouter(shards={self.num_shards}, fanout={self.fanout})"
        )


def router_from_dict(spec: dict):
    """Rebuild either router type from its manifest entry."""
    kind = spec.get("kind")
    if kind == ShardRouter.kind:
        return ShardRouter.from_dict(spec)
    if kind == AlignedRouter.kind:
        return AlignedRouter.from_dict(spec)
    raise ValueError(f"unknown router kind {kind!r}")
