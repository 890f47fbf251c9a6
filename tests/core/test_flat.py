"""Unit tests for the compiled flat read plan (repro.core.flat)."""

import pickle

import numpy as np
import pytest

from repro import DILI, DiliConfig
from repro.core.flat import FlatPlan, compile_plan
from repro.simulate.cache import CacheSimulator
from repro.simulate.tracer import CostTracer


def _dataset(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    return np.unique(rng.lognormal(0, 1, n) * 1e9)


@pytest.fixture(scope="module")
def loaded():
    keys = _dataset(4000, seed=3)
    index = DILI()
    index.bulk_load(keys)
    return index, keys


@pytest.fixture(scope="module")
def loaded_dense():
    keys = _dataset(4000, seed=4)
    index = DILI(DiliConfig(local_optimization=False))
    index.bulk_load(keys)
    return index, keys


class TestCompile:
    def test_plan_compiles_lazily(self):
        keys = _dataset(500, seed=9)
        index = DILI()
        index.bulk_load(keys)
        assert index._flat is None
        index.get_batch(keys[:10])
        assert isinstance(index._flat, FlatPlan)

    def test_plan_is_reused_between_batch_reads(self, loaded):
        index, keys = loaded
        index.get_batch(keys[:5])
        plan = index._flat
        index.get_batch(keys[5:10])
        assert index._flat is plan

    def test_pair_keys_sorted(self, loaded):
        index, _ = loaded
        plan = compile_plan(index.root)
        assert np.all(np.diff(plan.pair_keys) > 0)
        assert plan.num_pairs == len(index)

    def test_dense_plan(self, loaded_dense):
        index, keys = loaded_dense
        plan = compile_plan(index.root)
        assert len(plan.dense_keys) == len(keys)
        assert np.all(np.diff(plan.dense_keys) > 0)

    def test_memory_bytes_positive(self, loaded):
        index, _ = loaded
        plan = compile_plan(index.root)
        assert plan.memory_bytes() > 0


class TestIncrementalMaintenance:
    @pytest.mark.parametrize("mutate", ["insert", "delete", "update",
                                        "bulk_insert"])
    def test_mutations_keep_the_plan_consistent(self, mutate):
        keys = _dataset(800, seed=11)
        index = DILI()
        index.bulk_load(keys)
        index.get_batch(keys[:4])
        assert index._flat is not None
        if mutate == "insert":
            index.insert(float(keys[-1]) + 7.0, "new")
        elif mutate == "delete":
            index.delete(float(keys[3]))
        elif mutate == "update":
            index.update(float(keys[3]), "changed")
        else:
            extra = np.array([float(keys[-1]) + k for k in (3.0, 9.0, 15.0)])
            index.bulk_insert(extra)
        # Mutations patch/splice the plan in place instead of dropping
        # it; the maintained plan must equal a fresh compile.
        plan = index._flat
        assert plan is not None, mutate
        fresh = compile_plan(index.root)
        assert np.array_equal(plan.pair_keys, fresh.pair_keys), mutate
        assert plan.values.tolist() == fresh.values.tolist(), mutate

    @pytest.mark.parametrize("mutate", ["insert", "delete"])
    def test_noop_mutations_leave_the_plan_untouched(self, mutate):
        keys = _dataset(800, seed=11)
        index = DILI()
        index.bulk_load(keys)
        index.get_batch(keys[:4])
        plan = index._flat
        if mutate == "insert":
            assert not index.insert(float(keys[3]), "dup")
        else:
            assert not index.delete(float(keys[3]) + 0.5)
        assert index._flat is plan, mutate
        assert index.plan_patches == 0
        assert index.plan_subtree_recompiles == 0

    def test_batch_sees_mutations(self):
        keys = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        index = DILI()
        index.bulk_load(keys, list("abcde"))
        assert index.get_batch([20.0, 25.0]) == ["b", None]
        index.insert(25.0, "x")
        index.delete(20.0)
        index.update(30.0, "C")
        assert index.get_batch([20.0, 25.0, 30.0]) == [None, "x", "C"]
        assert index.contains_batch([20.0, 25.0]).tolist() == [False, True]

    def test_bulk_load_replaces_plan(self):
        keys = _dataset(300, seed=13)
        index = DILI()
        index.bulk_load(keys)
        index.get_batch(keys[:2])
        index.bulk_load(keys[: len(keys) // 2])
        assert index._flat is None
        assert index.get_batch(keys[:2]) == [0, 1]


class TestBatchReads:
    def test_hits_and_misses(self, loaded):
        index, keys = loaded
        probe = np.concatenate([keys[:50], keys[:50] + 1.0])
        got = index.get_batch(probe)
        assert got[:50] == list(range(50))
        assert got[50:] == [None] * 50

    def test_dense_hits_and_misses(self, loaded_dense):
        index, keys = loaded_dense
        probe = np.concatenate([keys[-50:], keys[-50:] + 1.0])
        got = index.get_batch(probe)
        n = len(keys)
        assert got[:50] == list(range(n - 50, n))
        assert got[50:] == [None] * 50

    def test_empty_batch(self, loaded):
        index, _ = loaded
        assert index.get_batch([]) == []
        assert index.contains_batch([]).tolist() == []
        assert index.count_range_batch([], []).tolist() == []

    def test_empty_index(self):
        index = DILI()
        assert index.get_batch([1.0, 2.0]) == [None, None]
        assert index.contains_batch([1.0]).tolist() == [False]
        assert index.count_range_batch([0.0], [9.0]).tolist() == [0]

    def test_rejects_bad_shapes(self, loaded):
        index, keys = loaded
        with pytest.raises(ValueError):
            index.get_batch(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            index.count_range_batch([1.0, 2.0], [3.0])

    def test_count_range_batch_matches_scalar(self, loaded):
        index, keys = loaded
        rng = np.random.default_rng(17)
        los = rng.choice(keys, size=40)
        his = los + rng.uniform(0.0, 1e10, size=40)
        counts = index.count_range_batch(los, his)
        for lo, hi, c in zip(los, his, counts):
            assert c == index.count_range(float(lo), float(hi))


class TestTracedCostParity:
    @pytest.mark.parametrize("dense", [False, True])
    def test_batch_trace_equals_scalar_trace(self, dense):
        keys = _dataset(3000, seed=21)
        cfg = DiliConfig(local_optimization=not dense)
        index = DILI(cfg)
        index.bulk_load(keys)
        rng = np.random.default_rng(23)
        probe = np.concatenate([
            rng.choice(keys, size=600),
            rng.choice(keys, size=100) + 1.0,  # misses
        ])

        scalar = CostTracer(CacheSimulator(1024))
        for k in probe:
            index.get(float(k), scalar)

        batch = CostTracer(CacheSimulator(1024))
        index.get_batch(probe, batch)

        assert batch.total_cycles == scalar.total_cycles
        assert batch.cache_misses == scalar.cache_misses
        assert batch.mem_accesses == scalar.mem_accesses
        assert batch.phase_cycles == scalar.phase_cycles


class TestPersistence:
    def test_pickle_round_trip_drops_plan(self, loaded):
        index, keys = loaded
        index.get_batch(keys[:3])
        clone = pickle.loads(pickle.dumps(index))
        assert clone._flat is None
        assert clone.get_batch(keys[:3]) == [0, 1, 2]
