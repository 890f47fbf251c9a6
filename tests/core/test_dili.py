"""End-to-end tests for the DILI index (Algorithms 1, 6, 7, 8)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DILI, DiliConfig
from repro.simulate.tracer import CostTracer


def _dataset(n=5000, seed=0, kind="lognormal"):
    rng = np.random.default_rng(seed)
    if kind == "lognormal":
        keys = rng.lognormal(0, 1, n) * 1e9
    elif kind == "uniform":
        keys = rng.uniform(0, 1e12, n)
    else:
        raise ValueError(kind)
    return np.unique(keys)


@pytest.fixture(scope="module")
def loaded():
    keys = _dataset(8000, seed=1)
    index = DILI()
    index.bulk_load(keys)
    return index, keys


class TestBulkLoadAndGet:
    def test_every_key_found(self, loaded):
        index, keys = loaded
        for i in range(0, len(keys), 29):
            assert index.get(float(keys[i])) == i

    def test_misses(self, loaded):
        index, keys = loaded
        assert index.get(float(keys[0]) - 1.0) is None
        assert index.get(float(keys[-1]) + 1.0) is None
        probe = (float(keys[10]) + float(keys[11])) / 2.0
        if probe not in (keys[10], keys[11]):
            assert index.get(probe) is None

    def test_len_and_contains(self, loaded):
        index, keys = loaded
        assert len(index) == len(keys)
        assert float(keys[5]) in index
        assert -1.0 not in index

    def test_validate_passes(self, loaded):
        index, _ = loaded
        index.validate()

    def test_custom_values(self):
        keys = np.array([1.0, 5.0, 9.0])
        index = DILI()
        index.bulk_load(keys, ["a", "b", "c"])
        assert index.get(5.0) == "b"

    def test_rejects_bad_inputs(self):
        index = DILI()
        with pytest.raises(ValueError):
            index.bulk_load(np.array([3.0, 1.0]))
        with pytest.raises(ValueError):
            index.bulk_load(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            index.bulk_load(np.array([[1.0], [2.0]]))
        with pytest.raises(ValueError):
            index.bulk_load(np.array([1.0, 2.0]), ["only-one"])

    @pytest.mark.parametrize(
        "keys",
        [[1.0, 2.0, np.nan], [1.0, 2.0, np.inf], [-np.inf, 1.0, 2.0]],
        ids=["nan", "inf", "-inf"],
    )
    def test_rejects_non_finite_keys(self, keys):
        index = DILI()
        index.bulk_load(np.array([5.0, 6.0]), ["a", "b"])
        index.get_batch([5.0])  # a compiled plan must survive too
        with pytest.raises(ValueError, match="finite"):
            index.bulk_load(np.array(keys))
        # A batch this large (vs 2 keys) takes bulk_insert's rebuild.
        with pytest.raises(ValueError, match="finite"):
            index.bulk_insert(np.array(keys))
        assert list(index.items()) == [(5.0, "a"), (6.0, "b")]
        assert len(index) == 2
        assert index.peek_plan() is not None
        index.validate()

    def test_empty_bulk_load(self):
        index = DILI()
        index.bulk_load(np.array([]))
        assert len(index) == 0
        assert index.get(1.0) is None
        index.validate()

    def test_tiny_datasets(self):
        for n in (1, 2, 3, 5):
            keys = np.arange(n, dtype=np.float64) * 10.0 + 1.0
            index = DILI()
            index.bulk_load(keys)
            index.validate()
            for i, k in enumerate(keys):
                assert index.get(float(k)) == i

    def test_from_pairs_sorts(self):
        index = DILI.from_pairs([(3.0, "c"), (1.0, "a"), (2.0, "b")])
        assert index.get(1.0) == "a"
        assert index.get(3.0) == "c"

    def test_keep_butree(self):
        keys = _dataset(2000, seed=2)
        index = DILI()
        index.bulk_load(keys, keep_butree=True)
        assert index.butree is not None
        assert index.butree.get(float(keys[7])) == 7


class TestTracedLookup:
    def test_cost_tracer_records(self, loaded):
        index, keys = loaded
        tracer = CostTracer()
        index.get(float(keys[123]), tracer)
        assert tracer.total_cycles > 0
        assert tracer.phase_cycles.get("step1", 0) > 0
        assert tracer.phase_cycles.get("step2", 0) > 0

    def test_warm_cache_is_cheaper(self, loaded):
        index, keys = loaded
        tracer = CostTracer()
        key = float(keys[999])
        index.get(key, tracer)
        cold = tracer.total_cycles
        tracer.reset_counters()
        index.get(key, tracer)
        warm = tracer.total_cycles
        assert warm < cold


class TestInsert:
    def test_insert_then_get(self):
        keys = _dataset(3000, seed=3)
        half = keys[::2]
        rest = keys[1::2]
        index = DILI()
        index.bulk_load(half)
        for k in rest:
            assert index.insert(float(k), "new")
        assert len(index) == len(half) + len(rest)
        for k in rest[::17]:
            assert index.get(float(k)) == "new"
        for i in range(0, len(half), 31):
            assert index.get(float(half[i])) == i
        index.validate()

    def test_duplicate_insert_rejected(self):
        index = DILI.from_pairs([(1.0, "a"), (2.0, "b")])
        assert not index.insert(1.0, "other")
        assert index.get(1.0) == "a"
        assert len(index) == 2

    def test_insert_outside_bulk_range(self):
        keys = np.linspace(100.0, 200.0, 500)
        index = DILI()
        index.bulk_load(np.unique(keys))
        assert index.insert(5.0, "low")
        assert index.insert(999.0, "high")
        assert index.get(5.0) == "low"
        assert index.get(999.0) == "high"
        index.validate()

    def test_insert_into_empty_index(self):
        index = DILI()
        assert index.insert(7.0, "x")
        assert index.get(7.0) == "x"
        assert len(index) == 1
        index.validate()

    def test_adjustments_trigger_under_conflict_pressure(self):
        # Bulk load a linear range, then hammer one tiny sub-range so one
        # leaf degrades and must adjust (Algorithm 7 lines 20-26).
        index = DILI()
        index.bulk_load(np.arange(0, 10000, 10, dtype=np.float64))
        rng = np.random.default_rng(4)
        hot = np.unique(rng.uniform(5000.0, 5010.0, 800))
        for k in hot:
            index.insert(float(k), "hot")
        assert index.adjustment_count > 0
        for k in hot[::13]:
            assert index.get(float(k)) == "hot"
        index.validate()

    def test_dili_ad_never_adjusts(self):
        index = DILI(DiliConfig(adjust=False))
        index.bulk_load(np.arange(0, 10000, 10, dtype=np.float64))
        rng = np.random.default_rng(5)
        hot = np.unique(rng.uniform(5000.0, 5010.0, 800))
        for k in hot:
            index.insert(float(k), "hot")
        assert index.adjustment_count == 0
        for k in hot[::13]:
            assert index.get(float(k)) == "hot"
        index.validate()


class TestDelete:
    def test_delete_then_miss(self):
        keys = _dataset(2000, seed=6)
        index = DILI()
        index.bulk_load(keys)
        for k in keys[::3]:
            assert index.delete(float(k))
        for k in keys[::3]:
            assert index.get(float(k)) is None
        for i in range(1, len(keys), 3):
            assert index.get(float(keys[i])) == i
        assert len(index) == len(keys) - len(keys[::3])
        index.validate()

    def test_delete_missing_returns_false(self):
        index = DILI.from_pairs([(1.0, "a")])
        assert not index.delete(99.0)
        assert not index.delete(1.5)
        assert len(index) == 1

    def test_delete_from_empty(self):
        assert not DILI().delete(1.0)

    def test_nested_leaf_trimming(self):
        """Deleting down to one pair in a nested leaf must pull the
        survivor up into the parent slot (Algorithm 8 lines 13-15)."""
        index = DILI()
        index.bulk_load(np.arange(0, 1000, 1, dtype=np.float64))
        # Force a conflict: two keys inside one slot's key interval.
        assert index.insert(500.25, "a")
        assert index.insert(500.5, "b")
        assert index.delete(500.25)
        assert index.get(500.5) == "b"
        assert index.get(500.25) is None
        index.validate()

    def test_insert_delete_interleaved(self):
        rng = np.random.default_rng(7)
        keys = np.unique(rng.uniform(0, 1e6, 3000))
        index = DILI()
        index.bulk_load(keys[:1000])
        live = {float(k): i for i, k in enumerate(keys[:1000])}
        for i, k in enumerate(keys[1000:]):
            k = float(k)
            if i % 3 == 2 and live:
                victim = next(iter(live))
                assert index.delete(victim)
                del live[victim]
            else:
                assert index.insert(k, i)
                live[k] = i
        assert len(index) == len(live)
        for k, v in list(live.items())[::37]:
            assert index.get(k) == v
        index.validate()


class TestRangeAndIteration:
    def test_items_sorted(self, loaded):
        index, keys = loaded
        got = [k for k, _ in index.items()]
        assert got == sorted(got)
        assert len(got) == len(keys)

    def test_range_query_matches_reference(self, loaded):
        index, keys = loaded
        lo, hi = float(keys[100]), float(keys[400])
        got = index.range_query(lo, hi)
        expected = [(float(k), i) for i, k in enumerate(keys) if lo <= k < hi]
        assert got == expected

    def test_range_query_empty(self, loaded):
        index, keys = loaded
        assert index.range_query(-10.0, -5.0) == []
        big = float(keys[-1]) + 10.0
        assert index.range_query(big, big + 1) == []

    def test_scan_counts(self, loaded):
        index, keys = loaded
        got = index.scan(float(keys[10]), 50)
        assert len(got) == 50
        assert [k for k, _ in got] == [float(k) for k in keys[10:60]]

    def test_range_after_updates(self):
        index = DILI()
        index.bulk_load(np.arange(0, 100, 2, dtype=np.float64))
        index.insert(51.0, "odd")
        index.delete(52.0)
        got = [k for k, _ in index.range_query(50.0, 56.0)]
        assert got == [50.0, 51.0, 54.0]


class TestDiliLoVariant:
    def test_lookup_via_algorithm1(self):
        keys = _dataset(4000, seed=8)
        index = DILI(DiliConfig(local_optimization=False))
        index.bulk_load(keys)
        for i in range(0, len(keys), 23):
            assert index.get(float(keys[i])) == i
        assert index.get(float(keys[0]) - 1) is None
        index.validate()

    def test_updates_unsupported(self):
        keys = _dataset(500, seed=9)
        index = DILI(DiliConfig(local_optimization=False))
        index.bulk_load(keys)
        with pytest.raises(NotImplementedError):
            index.insert(1.5, "x")
        with pytest.raises(NotImplementedError):
            index.delete(float(keys[0]))

    def test_uses_less_memory_than_full_dili(self):
        keys = _dataset(4000, seed=10)
        full = DILI()
        full.bulk_load(keys)
        lo = DILI(DiliConfig(local_optimization=False))
        lo.bulk_load(keys)
        # Fig. 6a: DILI-LO's dense arrays undercut DILI's gapped slots.
        assert lo.memory_bytes() < full.memory_bytes()

    def test_range_query_dense(self):
        keys = np.arange(0, 1000, 1, dtype=np.float64)
        index = DILI(DiliConfig(local_optimization=False))
        index.bulk_load(keys)
        got = [k for k, _ in index.range_query(100.0, 110.0)]
        assert got == list(np.arange(100.0, 110.0))


# Integer keys match the paper's domain (SOSD datasets are uint64 ids);
# pathological float spacing below the float64 model resolution is
# rejected explicitly by LinearModel.from_range instead.
@given(
    bulk=st.lists(
        st.integers(min_value=0, max_value=2**40),
        min_size=0,
        max_size=120,
        unique=True,
    ),
    updates=st.lists(
        st.tuples(
            st.booleans(), st.integers(min_value=0, max_value=2**40)
        ),
        max_size=80,
    ),
)
@settings(max_examples=100, deadline=None)
def test_property_dili_matches_dict_semantics(bulk, updates):
    """DILI behaves exactly like a dict under any operation sequence."""
    bulk = sorted(bulk)
    index = DILI()
    if bulk:
        index.bulk_load(np.array(bulk, dtype=np.float64))
    reference = {float(k): i for i, k in enumerate(bulk)}
    for is_insert, key in updates:
        key = float(key)
        if is_insert:
            assert index.insert(key, "u") == (key not in reference)
            reference.setdefault(key, "u")
        else:
            assert index.delete(key) == (key in reference)
            reference.pop(key, None)
    assert len(index) == len(reference)
    for key, value in reference.items():
        assert index.get(key) == value
    index.validate()
