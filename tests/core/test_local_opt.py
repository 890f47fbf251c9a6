"""Tests for the leaf local optimization (Algorithm 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.linear_model import LinearModel
from repro.core.local_opt import LocalOptStats, fit_leaf_model, local_opt
from repro.core.nodes import LeafNode


def _make_leaf(keys, **kwargs):
    pairs = [(float(k), i) for i, k in enumerate(keys)]
    leaf = LeafNode(pairs[0][0] if pairs else 0.0,
                    (pairs[-1][0] + 1.0) if pairs else 1.0)
    local_opt(leaf, pairs, **kwargs)
    return leaf, pairs


def _lookup(leaf, key):
    """Algorithm 6 walk restricted to leaf nodes."""
    node = leaf
    while True:
        entry = node.slots[node.predict_slot(key)]
        if entry is None:
            return None
        if type(entry) is tuple:
            return entry[1] if entry[0] == key else None
        node = entry


class TestPlacementExactness:
    def test_every_pair_found_at_predicted_slot(self):
        rng = np.random.default_rng(11)
        keys = np.unique(rng.uniform(0, 1e6, 500))
        leaf, pairs = _make_leaf(keys)
        for key, value in pairs:
            assert _lookup(leaf, key) == value

    def test_missing_keys_return_none(self):
        keys = np.array([10.0, 20.0, 30.0])
        leaf, _ = _make_leaf(keys)
        assert _lookup(leaf, 15.0) is None
        assert _lookup(leaf, 10.5) is None

    def test_heavily_clustered_keys_still_exact(self):
        # Keys piled into a tiny sub-range force deep conflict nesting.
        keys = np.concatenate([
            np.linspace(0.0, 1.0, 200),
            np.linspace(1e6, 1e6 + 1.0, 200),
        ])
        keys = np.unique(keys)
        leaf, pairs = _make_leaf(keys)
        for key, value in pairs:
            assert _lookup(leaf, key) == value

    def test_adjacent_float_keys(self):
        base = 1e15
        keys = np.array([base + i for i in range(20)], dtype=np.float64)
        leaf, pairs = _make_leaf(keys)
        for key, value in pairs:
            assert _lookup(leaf, key) == value


    @pytest.mark.parametrize("n", [2, 40])
    def test_overflowing_model_places_pairs_where_predict_slot_looks(
        self, n
    ):
        # Every prediction lies past the int64 range: placement and
        # lookup must clamp it the same way (to the last slot).
        leaf, pairs = _make_leaf(
            np.arange(1.0, n + 1.0), fanout=8, model=LinearModel(1e19, 0.0)
        )
        for key, value in pairs:
            assert _lookup(leaf, key) == value


class TestBookkeeping:
    def test_empty_leaf(self):
        leaf, _ = _make_leaf(np.array([]))
        assert leaf.num_pairs == 0
        assert leaf.delta == 0
        assert _lookup(leaf, 5.0) is None

    def test_single_pair(self):
        leaf, _ = _make_leaf(np.array([42.0]))
        assert leaf.num_pairs == 1
        assert leaf.delta == 1
        assert leaf.kappa == 1.0

    def test_delta_counts_total_entry_accesses(self):
        """Delta must equal the summed per-pair access depths: a pair at
        nesting depth d under this leaf costs d+1 entry accesses."""
        rng = np.random.default_rng(12)
        keys = np.unique(rng.lognormal(0, 2, 300) * 1e3)
        leaf, pairs = _make_leaf(keys)

        def access_count(node, key, acc=1):
            entry = node.slots[node.predict_slot(key)]
            if type(entry) is tuple:
                return acc
            return access_count(entry, key, acc + 1)

        total = sum(access_count(leaf, k) for k, _ in pairs)
        assert leaf.delta == total
        assert leaf.kappa == pytest.approx(total / len(pairs))

    def test_fanout_uses_enlarge_ratio(self):
        keys = np.linspace(0, 1000, 100)
        leaf, _ = _make_leaf(np.unique(keys), enlarge=3.0)
        assert leaf.fanout >= 3 * 100

    def test_explicit_fanout_and_model_respected(self):
        keys = np.linspace(0, 999, 50)
        fanout = 400
        model = fit_leaf_model(keys, fanout)
        leaf, pairs = _make_leaf(keys, fanout=fanout, model=model)
        assert leaf.fanout == fanout
        assert leaf.slope == pytest.approx(model.slope)
        for key, value in pairs:
            assert _lookup(leaf, key) == value

    def test_conflict_stats_recorded(self):
        # A strongly nonlinear key set must create conflicts.
        rng = np.random.default_rng(13)
        keys = np.unique(rng.lognormal(0, 3, 400))
        stats = LocalOptStats()
        _make_leaf(keys, stats=stats)
        assert stats.conflicts >= 0
        assert stats.nested_leaves >= 0
        if stats.nested_leaves:
            assert stats.max_depth >= 1
            assert stats.conflicts >= 2 * stats.nested_leaves - 1

    def test_linear_keys_cause_no_conflicts(self):
        keys = np.arange(200, dtype=np.float64)
        stats = LocalOptStats()
        leaf, _ = _make_leaf(keys, stats=stats)
        assert stats.conflicts == 0
        assert leaf.delta == 200


class TestFitLeafModel:
    def test_stretches_predictions_over_fanout(self):
        keys = np.linspace(100, 200, 50)
        model = fit_leaf_model(keys, fanout=100)
        assert model.predict(100.0) == pytest.approx(0.0, abs=1.0)
        assert model.predict(200.0) == pytest.approx(98.0, abs=2.0)

    def test_empty_keys(self):
        model = fit_leaf_model([], 10)
        assert model.predict(1.0) == 0.0

    def test_duplicate_keys_rejected_downstream(self):
        leaf = LeafNode(0.0, 10.0)
        with pytest.raises(ValueError):
            # Duplicate keys violate the documented precondition; the
            # degenerate-case guard must fail loudly, not loop.
            local_opt(
                leaf,
                [(5.0, "a"), (5.0, "b")],
                model=LinearModel(0.0, 0.0),
                fanout=4,
            )


@given(
    keys=st.lists(
        st.integers(min_value=0, max_value=2**50),
        min_size=1,
        max_size=250,
        unique=True,
    ),
    enlarge=st.floats(min_value=1.2, max_value=4.0),
)
@settings(max_examples=150, deadline=None)
def test_property_local_opt_is_lossless(keys, enlarge):
    """Whatever the key distribution, every pair stays retrievable and
    the tracked pair count matches."""
    keys = sorted(keys)
    pairs = [(float(k), i) for i, k in enumerate(keys)]
    leaf = LeafNode(pairs[0][0], pairs[-1][0] + 1.0)
    local_opt(leaf, pairs, enlarge=enlarge)
    assert leaf.num_pairs == len(pairs)
    for key, value in pairs:
        assert _lookup(leaf, key) == value
    assert [p for p in leaf.iter_pairs()] == pairs
