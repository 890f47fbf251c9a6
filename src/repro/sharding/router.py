"""Routing of keys to contiguous range shards.

Two routers cover the two partitioning modes:

* :class:`ShardRouter` works in **key space**.  The partition is
  described by its interior boundary keys (the smallest stored key of
  every shard but the first), and a key's shard is
  ``np.searchsorted(boundaries, keys, side="right")``: one vectorised
  binary search over a few dozen boundaries at most.  Duplicate
  boundary keys make the shard between them empty, and a NaN key
  sorts past every boundary, so it routes to the last shard.  A
  learned Eq.1 model over the boundary keys (the root model of "The
  Case for Learned Index Structures" dispatching to sub-indexes) does
  not pay at shard fan-outs: over 1-63 boundaries it mispredicted
  5-94% of a 4,096-key batch and took longer than the search it had to
  equal (docs/performance.md).

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

from repro.core.linear_model import clamp_slots


def _as_key_array(keys) -> np.ndarray:
    out = np.asarray(keys, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    return out


class ShardRouter:
    """Key-space router: one ``searchsorted`` over the boundary keys.

    Attributes:
        boundaries: Interior boundary keys, non-decreasing, length
            ``num_shards - 1``.  Shard ``j`` covers
            ``[boundaries[j-1], boundaries[j])`` with open ends at
            the extremes, so keys below the first boundary route to
            shard 0 and keys at or above the last route to the last
            shard.
        num_shards: Total shard count (>= 1).
        routed: Keys routed since construction (observability).
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
        self.routed = 0

    def route(self, keys) -> np.ndarray:
        """Shard id per key: ``searchsorted(boundaries, keys, "right")``."""
        keys = _as_key_array(keys)
        self.routed += len(keys)
        return np.searchsorted(self.boundaries, keys, side="right")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "boundaries": [float(b) for b in self.boundaries],
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "ShardRouter":
        return cls(spec["boundaries"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardRouter(shards={self.num_shards})"


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
