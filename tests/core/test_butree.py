"""Tests for the bottom-up mirror tree (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.butree import BUTree
from repro.core.cost import CostParams
from repro.simulate.tracer import CostTracer


def _uniform(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.unique(rng.uniform(0, 1e12, n))


def _lognormal(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.unique(rng.lognormal(0, 1, n) * 1e9)


class TestBUTreeConstruction:
    def test_rejects_empty_keys(self):
        with pytest.raises(ValueError):
            BUTree(np.array([]), [])

    def test_rejects_unsorted_keys(self):
        with pytest.raises(ValueError):
            BUTree(np.array([3.0, 1.0, 2.0]), [0, 1, 2])

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ValueError):
            BUTree(np.array([1.0, 1.0, 2.0]), [0, 1, 2])

    def test_height_is_at_least_one(self):
        keys = np.array([1.0, 2.0, 3.0])
        tree = BUTree(keys, [0, 1, 2])
        assert tree.height >= 1
        assert tree.root.fanout >= 1

    def test_levels_shrink_upward(self):
        tree = BUTree(_uniform(5000), list(range(5000)))
        sizes = [len(level) for level in tree.levels]
        assert sizes[-1] == 1
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_leaves_cover_all_keys_contiguously(self):
        keys = _lognormal(3000)
        tree = BUTree(keys, list(range(len(keys))))
        leaves = tree.levels[0]
        assert leaves[0].start == 0
        assert leaves[-1].end == len(keys)
        for a, b in zip(leaves, leaves[1:]):
            assert a.end == b.start
            assert a.ub == pytest.approx(b.lb)

    def test_internal_bounds_match_children(self):
        tree = BUTree(_uniform(4000, seed=1), list(range(4000)))
        for level in tree.levels[1:]:
            for node in level:
                assert node.children is not None
                assert node.lb == node.children[0].lb
                assert node.ub == node.children[-1].ub
                assert list(node.bounds) == [c.lb for c in node.children]

    def test_level_lower_bounds_accessor(self):
        tree = BUTree(_uniform(2000, seed=2), list(range(2000)))
        lbs = tree.level_lower_bounds(0)
        assert len(lbs) == len(tree.levels[0])
        assert bool(np.all(np.diff(lbs) > 0))


class TestBUTreeLookup:
    @pytest.mark.parametrize("make", [_uniform, _lognormal])
    def test_finds_every_key(self, make):
        keys = make(2500, seed=3)
        values = [f"v{i}" for i in range(len(keys))]
        tree = BUTree(keys, values)
        for i in range(0, len(keys), 13):
            assert tree.get(float(keys[i])) == values[i]

    def test_misses_return_none(self):
        keys = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        tree = BUTree(keys, list(range(6)))
        assert tree.get(15.0) is None
        assert tree.get(5.0) is None
        assert tree.get(65.0) is None

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make", [_uniform, _lognormal])
    def test_non_finite_keys_answer_none(self, make):
        # Every descent floors and clamps through clamp_slot, so a
        # non-finite key is a miss, not a ValueError / OverflowError.
        keys = make(2000, seed=6)
        tree = BUTree(keys, list(range(len(keys))))
        for key in (float("nan"), float("inf"), float("-inf")):
            assert tree.get(key) is None

    def test_traced_lookup_accumulates_cost(self):
        keys = _uniform(1000, seed=4)
        tree = BUTree(keys, list(range(len(keys))))
        tracer = CostTracer()
        assert tree.get(float(keys[500]), tracer) == 500
        assert tracer.total_cycles > 0
        assert tracer.mem_accesses > 0
        assert "step1" in tracer.phase_cycles
        assert "step2" in tracer.phase_cycles

    def test_memory_and_node_count_positive(self):
        tree = BUTree(_uniform(500, seed=5), list(range(500)))
        assert tree.memory_bytes() > 0
        assert tree.node_count() >= tree.height + 1


class TestCostModelEffects:
    def test_small_omega_means_more_leaves(self):
        keys = _lognormal(4000, seed=6)
        wide = BUTree(keys, list(range(len(keys))), params=CostParams(omega=4096))
        narrow = BUTree(keys, list(range(len(keys))), params=CostParams(omega=64))
        assert len(narrow.levels[0]) >= len(wide.levels[0])

    def test_sampling_build_still_correct(self):
        keys = _lognormal(3000, seed=7)
        tree = BUTree(keys, list(range(len(keys))), sample=True)
        for i in range(0, len(keys), 41):
            assert tree.get(float(keys[i])) == i


class TestBUTreeProperties:
    def test_lookup_agrees_with_searchsorted_on_random_shapes(self):
        """BU-Tree answers must match a reference search for a spread of
        distribution shapes (its own accuracy is only approximate, but
        its *answers* must be exact)."""
        import numpy as np

        rng = np.random.default_rng(123)
        shapes = {
            "uniform": np.unique(rng.integers(0, 10**9, 3000)),
            "lognormal": np.unique(
                np.floor(rng.lognormal(0, 2, 3000) * 1e5)
            ),
            "steps": np.unique(
                np.cumsum(rng.choice([1, 1000], size=3000))
            ),
        }
        for name, keys in shapes.items():
            keys = keys.astype(np.float64)
            tree = BUTree(keys, list(range(len(keys))))
            probes = np.concatenate(
                [keys[::37], keys[::41] + 0.5, [keys[0] - 5, keys[-1] + 5]]
            )
            lookup = {float(k): i for i, k in enumerate(keys)}
            for probe in probes:
                assert tree.get(float(probe)) == lookup.get(
                    float(probe)
                ), (name, probe)

    def test_breakdown_phases_recorded(self):
        keys = _uniform(1500, seed=9)
        tree = BUTree(keys, list(range(len(keys))))
        tracer = CostTracer()
        for k in keys[::101]:
            tree.get(float(k), tracer)
        assert tracer.phase_cycles.get("step1", 0) > 0
        assert tracer.phase_cycles.get("step2", 0) > 0

    def test_sampling_halves_level0_fit_input(self):
        keys = _lognormal(6000, seed=10)
        full = BUTree(keys, list(range(len(keys))))
        sampled = BUTree(keys, list(range(len(keys))), sample=True)
        # The sampled layout has a comparable number of leaf pieces and
        # still covers every key exactly once.
        n_full = len(full.levels[0])
        n_samp = len(sampled.levels[0])
        assert abs(n_full - n_samp) <= max(4, 0.5 * n_full)
        assert sampled.levels[0][0].start == 0
        assert sampled.levels[0][-1].end == len(keys)
