"""Unit tests for the compiled flat read plan (repro.core.flat)."""

import pickle
import warnings

import numpy as np
import pytest

from repro import DILI, DiliConfig
from repro.core.concurrent import ConcurrentDILI
from repro.core.flat import FlatPlan, compile_plan
from repro.planstore.format import write_plan_file
from repro.planstore.store import PlanStore
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
        old = index._flat
        assert old is not None
        # Plans are immutable values: keep copies of every buffer to
        # prove the write left the old plan exactly as it was.
        before = {
            name: getattr(old, name).copy()
            for name in ("kind", "slope", "intercept", "size", "base",
                         "region", "slot_kind", "slot_ref", "pair_keys",
                         "dense_keys", "values", "sorted_keys")
        }
        if mutate == "insert":
            index.insert(float(keys[-1]) + 7.0, "new")
        elif mutate == "delete":
            index.delete(float(keys[3]))
        elif mutate == "update":
            index.update(float(keys[3]), "changed")
        else:
            extra = np.array([float(keys[-1]) + k for k in (3.0, 9.0, 15.0)])
            index.bulk_insert(extra)
        # Mutations replace the plan with a patched or spliced
        # successor instead of dropping it; the maintained plan must
        # equal a fresh compile.
        plan = index._flat
        assert plan is not None, mutate
        assert plan is not old, mutate
        for name, array in before.items():
            assert getattr(old, name).tolist() == array.tolist(), (mutate, name)
        fresh = compile_plan(index.root)
        canonical = plan.compacted()
        for name in before:
            a, b = getattr(canonical, name), getattr(fresh, name)
            if name == "values":
                assert a.tolist() == b.tolist(), mutate
            else:
                assert a.dtype == b.dtype, (mutate, name)
                assert np.array_equal(a, b), (mutate, name)
        probe = np.concatenate([fresh.sorted_keys, fresh.sorted_keys + 1.0])
        tracers = []
        for p in (plan, fresh):
            tracer = CostTracer(CacheSimulator(256))
            out, trace = p.lookup_batch(probe, record=True)
            p.replay_trace(probe, trace, tracer)
            tracers.append((p.gather_values(out), tracer.total_cycles,
                            tracer.cache_misses))
        assert tracers[0] == tracers[1], mutate

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

    def test_writes_keep_old_rows_in_place(self):
        """Maintenance scales with the write, not the index: a 64-key
        insert batch and a delete batch leave every old node row at its
        index and rewrite at most one old slot row per key written."""
        rng = np.random.default_rng(19)
        keys = _dataset(60_000, seed=19)
        index = DILI()
        index.bulk_load(keys)
        index.get_batch(keys[:4])
        fresh = np.setdiff1d(rng.uniform(keys[0], keys[-1], 200), keys)[:64]
        gone = rng.choice(keys, size=64, replace=False)
        for write, batch in ((index.insert_batch, fresh),
                             (index.delete_batch, gone)):
            old = index.peek_plan()
            written = int(np.count_nonzero(write(batch)))
            assert written == 64
            new = index.peek_plan()
            assert new is not None and new is not old
            rows = len(old.kind)
            assert np.array_equal(new.region[:rows], old.region)
            assert np.array_equal(new.kind[:rows], old.kind)
            slots = len(old.slot_kind)
            changed = (new.slot_kind[:slots] != old.slot_kind) | (
                new.slot_ref[:slots] != old.slot_ref
            )
            assert int(np.count_nonzero(changed)) <= written
        assert index.plan_recompiles == 1


class TestPredictionClamp:
    """Batch reads clamp the slot prediction in float before the int64
    cast, like the scalar ``predict_slot`` / ``child_index``."""

    @pytest.fixture()
    def front_ends(self, tmp_path):
        keys = np.arange(1000, dtype=np.float64) * 3
        index = DILI()
        index.bulk_load(keys)
        assert index.insert(1e300, "x")
        wrapped = ConcurrentDILI()
        wrapped.bulk_load(keys)
        assert wrapped.insert(1e300, "x")
        path = tmp_path / "p.plan"
        write_plan_file(path, index.export_plan())
        store = PlanStore.open(path)
        yield index, wrapped, store
        store.close()

    def test_huge_key_answers_like_get(self, front_ends):
        index, wrapped, store = front_ends
        for front in front_ends:
            assert front.get_batch([1e300]) == ["x"]
            assert front.contains_batch([1e300]).tolist() == [True]
        scalar = CostTracer(CacheSimulator(256))
        assert index.get(1e300, scalar) == "x"
        for front in (index, store):
            batch = CostTracer(CacheSimulator(256))
            front.get_batch([1e300], batch)
            assert (batch.total_cycles, batch.cache_misses) == (
                scalar.total_cycles, scalar.cache_misses
            )

    def test_non_finite_keys_answer_none_without_warnings(self, front_ends):
        probe = [np.nan, np.inf, -np.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for front in front_ends:
                assert front.get_batch(probe) == [None] * 3
                assert front.contains_batch(probe).tolist() == [False] * 3


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
