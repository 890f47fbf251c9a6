"""The bottom-up mirror tree (BU-Tree, Algorithm 2).

The BU-Tree is the first phase of DILI's bulk load.  It is grown upward:
greedy merging partitions the raw keys into leaf pieces, then repeatedly
partitions the resulting lower bounds into the next level, until creating
an immediate root is estimated to be cheaper than growing another level.

Unlike DILI, a BU internal node's children do *not* equally divide its
range, so it stores the bounds array ``B`` and key search needs a local
search after the model prediction.  The BU-Tree is therefore a complete,
queryable index in its own right -- the paper benchmarks it directly in
Table 9 -- but its main role here is supplying the level layouts
(``theta`` lists) that Algorithm 4 converts into a DILI.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.core.cost import CostParams, DEFAULT_COST
from repro.core.linear_model import LinearModel, clamp_slot
from repro.core.search_util import exp_search_floor, exp_search_lub
from repro.core.segmentation import SegmentationResult, greedy_merging
from repro.simulate.tracer import NULL_TRACER, Tracer, region_id

logger = logging.getLogger(__name__)


@dataclass
class BUNode:
    """One BU-Tree node.

    Attributes:
        lb: Inclusive lower bound of the covered key range.
        ub: Exclusive upper bound.
        height: 0 for leaves, growing upward.
        model: Least-squares model predicting a *global* index at the
            level below (a key position for leaves, a child index for
            internal nodes); subtract ``offset`` for the local index.
        offset: Global index of this node's first element one level down
            (the ``l`` of Eq. 3 / ``zeta`` of Eq. 4).
        start: Global index of the first key covered.
        end: One past the last key covered.
        children: Child nodes (internal nodes only).
        bounds: Child lower bounds ``B`` (internal nodes only).
    """

    lb: float
    ub: float
    height: int
    model: LinearModel
    offset: int
    start: int
    end: int
    children: list["BUNode"] | None = None
    bounds: np.ndarray | None = None
    region: int = field(default_factory=region_id)

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def fanout(self) -> int:
        return 0 if self.children is None else len(self.children)

    @property
    def num_keys(self) -> int:
        return self.end - self.start


class BUTree:
    """A queryable bottom-up tree over sorted (key, value) arrays.

    Args:
        keys: Sorted, strictly increasing float64 array.
        values: Array of the same length (record pointers in the paper;
            arbitrary Python objects or ints here).
        params: Cost-model constants steering the layout search.
        sample: Enable the Appendix A.7 sampling strategy during greedy
            merging.
    """

    def __init__(
        self,
        keys: np.ndarray,
        values: np.ndarray | list,
        params: CostParams = DEFAULT_COST,
        sample: bool = False,
    ) -> None:
        self.keys = np.asarray(keys, dtype=np.float64)
        if len(self.keys) == 0:
            raise ValueError("BUTree requires at least one key")
        if np.any(np.diff(self.keys) <= 0):
            raise ValueError("keys must be sorted and strictly increasing")
        self.values = values
        self.params = params
        self.sample = sample
        self._keys_region = region_id()
        self.levels: list[list[BUNode]] = []
        self._build()

    # ------------------------------------------------------------------
    # Construction (Algorithm 2)
    # ------------------------------------------------------------------

    def _build(self) -> None:
        keys = self.keys
        n = len(keys)
        if self.sample and n > 64:
            # Appendix A.7: run the expensive level-0 layout search on
            # every second key.  Piece boundaries and models are mapped
            # back to full-key indices by the stride (models are linear,
            # so scaling both parameters by 2 converts sampled ranks to
            # full ranks); the final DILI leaves refit on all keys
            # anyway, so only the layout is approximate.
            result = greedy_merging(
                keys[::2], height=0, params=self.params
            )
            leaves = self._make_leaves(result, stride=2)
        else:
            result = greedy_merging(keys, height=0, params=self.params)
            leaves = self._make_leaves(result)
        self.levels = [leaves]
        height = 0
        while len(self.levels[height]) > 1:
            nodes = self.levels[height]
            lbs = np.array([nd.lb for nd in nodes], dtype=np.float64)
            root_cost = self._immediate_root_cost(lbs, height)
            next_result = greedy_merging(
                lbs, height=height + 1, params=self.params, sample=self.sample
            )
            grow_cost = next_result.cost
            if root_cost <= grow_cost or len(next_result.segments) <= 1:
                root = self._make_internal_level(
                    next_result_to_root(lbs), height
                )[0]
                self.levels.append([root])
                break
            self.levels.append(
                self._make_internal_level(next_result, height)
            )
            height += 1
        logger.debug(
            "BU-Tree built: %d keys, levels %s",
            n,
            [len(level) for level in self.levels],
        )
        # A single leaf: wrap it under a trivial root so H >= 1.
        if len(self.levels) == 1:
            only = self.levels[0][0]
            root = BUNode(
                lb=only.lb,
                ub=only.ub,
                height=1,
                model=LinearModel(0.0, 0.0),
                offset=0,
                start=only.start,
                end=only.end,
                children=[only],
                bounds=np.array([only.lb], dtype=np.float64),
            )
            self.levels.append([root])

    def _make_leaves(
        self, result: SegmentationResult, stride: int = 1
    ) -> list[BUNode]:
        keys = self.keys
        n = len(keys)
        leaves = []
        # ub of the last piece must strictly exceed the largest key.
        global_ub = float(keys[-1]) + max(1.0, abs(float(keys[-1])) * 1e-12)
        for seg in result.segments:
            start = min(seg.start * stride, n - 1)
            end = min(seg.end * stride, n)
            model = seg.model if stride == 1 else seg.model.scaled(stride)
            lb = float(keys[start])
            ub = float(keys[end]) if end < n else global_ub
            leaves.append(
                BUNode(
                    lb=lb,
                    ub=ub,
                    height=0,
                    model=model,
                    offset=start,
                    start=start,
                    end=end,
                )
            )
        leaves[0].lb = float(keys[0])
        return leaves

    def _make_internal_level(
        self, result: SegmentationResult, below_height: int
    ) -> list[BUNode]:
        below = self.levels[below_height]
        nodes = []
        for seg in result.segments:
            children = below[seg.start:seg.end]
            nodes.append(
                BUNode(
                    lb=children[0].lb,
                    ub=children[-1].ub,
                    height=below_height + 1,
                    model=seg.model,
                    offset=seg.start,
                    start=children[0].start,
                    end=children[-1].end,
                    children=list(children),
                    bounds=np.array([c.lb for c in children], dtype=np.float64),
                )
            )
        return nodes

    def _immediate_root_cost(self, lbs: np.ndarray, height: int) -> float:
        """Average per-key cost of topping the tree with one root now.

        Mirrors ``generateRoot`` of Algorithm 2: fit a model over the
        level's lower bounds, measure its per-key child-index error, and
        price one node visit plus the damped local search (Eq. 5).
        """
        model = LinearModel.fit(lbs)
        # True child index for every key, computed vectorised.
        child = np.searchsorted(lbs, self.keys, side="right") - 1
        np.clip(child, 0, len(lbs) - 1, out=child)
        pred = model.intercept + model.slope * self.keys
        err = np.abs(pred - child)
        mean_log_err = float(np.mean(np.log2(err + 1.0)))
        c = self.params.cycles
        local = mean_log_err * (c.exp_search_step + c.cache_miss)
        return c.cache_miss + c.linear_model + (
            self.params.rho ** (height + 1)
        ) * local

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def root(self) -> BUNode:
        return self.levels[-1][0]

    @property
    def height(self) -> int:
        """Number of levels above the leaves (H in Algorithm 4)."""
        return len(self.levels) - 1

    def level_lower_bounds(self, height: int) -> np.ndarray:
        """The ``theta^h`` list of Algorithm 4: lb of each node at height."""
        return np.array(
            [nd.lb for nd in self.levels[height]], dtype=np.float64
        )

    def get(self, key: float, tracer: Tracer = NULL_TRACER) -> object | None:
        """Point lookup; returns the stored value or None."""
        pos = self._locate(key, tracer)
        if pos is None:
            return None
        return self.values[pos]

    def _locate(self, key: float, tracer: Tracer) -> int | None:
        c = self.params.cycles
        node = self.root
        tracer.phase("step1")
        while not node.is_leaf:
            tracer.mem(node.region)
            tracer.compute(c.linear_model)
            assert (  # repro-check: allow CHK002 -- type narrowing only
                node.bounds is not None and node.children is not None
            )
            hint = clamp_slot(
                node.model.predict(key) - node.offset, len(node.bounds)
            )
            idx = exp_search_floor(
                node.bounds, key, hint, tracer, node.region,
                mu_e=c.exp_search_step,
            )
            if idx < 0:
                idx = 0
            elif idx >= len(node.children):
                idx = len(node.children) - 1
            node = node.children[idx]
        tracer.phase("step2")
        tracer.mem(node.region)
        tracer.compute(c.linear_model)
        hint = clamp_slot(node.model.predict(key), len(self.keys))
        pos = exp_search_lub(
            self.keys, key, hint, tracer, self._keys_region,
            mu_e=c.exp_search_step,
        )
        tracer.phase("done")
        if pos < len(self.keys) and self.keys[pos] == key:
            return pos
        return None

    def memory_bytes(self) -> int:
        """Modelled C++ footprint: 16 B of model + 8 B/child + 8 B/bound."""
        total = 0
        for level in self.levels:
            for node in level:
                total += 48  # lb, ub, model a/b, offset, flags
                if node.children is not None:
                    total += 16 * len(node.children)  # pointer + bound
        return total

    def node_count(self) -> int:
        return sum(len(level) for level in self.levels)


def next_result_to_root(lbs: np.ndarray) -> SegmentationResult:
    """A one-piece segmentation covering the whole level (for the root)."""
    from repro.core.segmentation import Segment

    model = LinearModel.fit(lbs)
    pred = model.intercept + model.slope * lbs
    err = pred - np.arange(len(lbs), dtype=np.float64)
    rmse = float(np.sqrt(np.mean(err * err))) if len(lbs) else 0.0
    seg = Segment(start=0, end=len(lbs), model=model, rmse=rmse)
    return SegmentationResult(segments=[seg], cost=0.0)
