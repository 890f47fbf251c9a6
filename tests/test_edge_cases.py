"""Consolidated edge-case coverage across packages."""

import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from repro import ConcurrentDILI, DILI, DiliConfig, DurableDILI
from repro.data import load_dataset
from repro.baselines import (
    AlexIndex,
    BPlusTree,
    DynamicPGM,
    MassTree,
    UnsupportedOperation,
)
from repro.sharding import ShardedDILI
from repro.workloads.generator import NAMED_SPECS, Operation, make_workload
from repro.workloads.runner import run_workload


class TestRunnerEdges:
    def test_unsupported_operation_propagates(self):
        from repro.baselines import RMIIndex

        index = RMIIndex(64)
        index.bulk_load(np.arange(100, dtype=np.float64))
        ops = [(Operation.INSERT, 0.5)]
        with pytest.raises(UnsupportedOperation):
            run_workload(index, ops, warmup=0)

    def test_empty_stream(self):
        index = DILI()
        index.bulk_load(np.arange(10, dtype=np.float64))
        result = run_workload(index, [], warmup=0)
        assert result.operations == 0
        assert result.sim_ns_per_op == 0.0

    def test_lookup_misses_counted_as_non_hits(self):
        index = DILI()
        index.bulk_load(np.arange(0, 100, 2, dtype=np.float64))
        ops = [(Operation.LOOKUP, 1.0), (Operation.LOOKUP, 2.0)]
        result = run_workload(index, ops, warmup=0)
        assert result.hits == 1


class TestWorkloadSpecEdges:
    def test_scaled_to_tiny_total(self):
        spec = NAMED_SPECS["Read-Heavy"].scaled(3)
        assert spec.lookups + spec.inserts <= 3

    def test_zero_insert_pool_read_only(self):
        keys = np.arange(50, dtype=np.float64)
        ops = make_workload(
            NAMED_SPECS["Read-Only"].scaled(20), keys, np.array([])
        )
        assert len(ops) == 20


class TestIndexChurnEdges:
    def test_btree_range_after_heavy_churn(self):
        tree = BPlusTree(4)
        rng = np.random.default_rng(11)
        live = {}
        for step, key in enumerate(rng.integers(0, 500, 2_000)):
            key = float(key)
            if step % 3 == 0 and key in live:
                tree.delete(key)
                del live[key]
            elif key not in live:
                tree.insert(key, step)
                live[key] = step
        got = tree.range_query(100.0, 400.0)
        expected = sorted(
            (k, v) for k, v in live.items() if 100.0 <= k < 400.0
        )
        assert got == expected
        tree.validate()

    def test_alex_range_after_splits(self):
        index = AlexIndex(4096)
        index.bulk_load(np.arange(0, 5_000, 5, dtype=np.float64))
        rng = np.random.default_rng(12)
        extra = np.unique(rng.integers(1_000, 1_200, 500)).astype(float)
        fresh = [k for k in extra if k % 5 != 0]
        for k in fresh:
            assert index.insert(float(k), "x")
        got = [k for k, _ in index.range_query(1_000.0, 1_200.0)]
        expected = sorted(
            set(np.arange(1_000, 1_200, 5, dtype=float).tolist())
            | set(float(k) for k in fresh)
        )
        assert got == expected

    def test_dynamic_pgm_range_after_tombstones(self):
        index = DynamicPGM(8, base=16)
        index.bulk_load(np.arange(0, 200, 2, dtype=np.float64))
        for k in range(0, 100, 4):
            assert index.delete(float(k))
        got = [k for k, _ in index.range_query(0.0, 50.0)]
        expected = [
            float(k)
            for k in range(0, 50, 2)
            if not (k < 100 and k % 4 == 0)
        ]
        assert got == expected

    def test_masstree_memory_shrinks_with_pruning(self):
        tree = MassTree()
        keys = np.arange(0, 2_000, 1, dtype=np.float64)
        tree.bulk_load(keys)
        full = tree.memory_bytes()
        for k in keys[:1_900]:
            assert tree.delete(float(k))
        assert tree.memory_bytes() < full

    def test_dili_delete_everything_then_rebuild_by_insert(self):
        keys = np.arange(0, 500, 1, dtype=np.float64)
        index = DILI()
        index.bulk_load(keys)
        for k in keys:
            assert index.delete(float(k))
        assert len(index) == 0
        index.validate()
        for k in keys[::2]:
            assert index.insert(float(k), "back")
        assert len(index) == 250
        index.validate()

    def test_dili_insert_same_key_many_times(self):
        index = DILI()
        index.bulk_load(np.arange(10, dtype=np.float64))
        for _ in range(50):
            assert not index.insert(5.0, "dup")
        assert len(index) == 10

    def test_dili_alternating_insert_delete_same_key(self):
        index = DILI()
        index.bulk_load(np.arange(0, 100, 2, dtype=np.float64))
        for round_no in range(30):
            assert index.insert(51.0, round_no)
            assert index.get(51.0) == round_no
            assert index.delete(51.0)
        assert index.get(51.0) is None
        index.validate()


class TestConfigEdges:
    def test_enlarge_exactly_one_still_works(self):
        keys = np.unique(
            np.random.default_rng(13).integers(0, 10**6, 2_000)
        ).astype(float)
        index = DILI(DiliConfig(enlarge=1.0))
        index.bulk_load(keys)
        for i in range(0, len(keys), 59):
            assert index.get(float(keys[i])) == i
        index.validate()

    def test_tiny_omega(self):
        keys = np.arange(0, 3_000, 3, dtype=np.float64)
        index = DILI(DiliConfig(omega=16))
        index.bulk_load(keys)
        for i in range(0, len(keys), 83):
            assert index.get(float(keys[i])) == i
        index.validate()

    def test_lambda_barely_above_one(self):
        keys = np.arange(0, 5_000, 5, dtype=np.float64)
        index = DILI(DiliConfig(lambda_adjust=1.01))
        index.bulk_load(keys)
        rng = np.random.default_rng(14)
        for k in np.unique(rng.uniform(100.0, 200.0, 500)):
            index.insert(float(k), "w")
        index.validate()


@contextmanager
def _range_counter(front_end, keys, tmp_path):
    """``count(lo, hi)`` through one of the six range-count front-ends."""
    if front_end in ("dili", "dili-plan", "dili-batch"):
        index = DILI()
        index.bulk_load(keys)
        if front_end == "dili-plan":
            index.get_batch(keys[:4])  # compile the plan
        if front_end == "dili-batch":
            yield lambda lo, hi: int(index.count_range_batch([lo], [hi])[0])
        else:
            yield index.count_range
    elif front_end == "concurrent":
        index = ConcurrentDILI()
        index.bulk_load(keys)
        yield index.count_range
    elif front_end == "sharded":
        with ShardedDILI.create(
            tmp_path / "shards", keys, num_shards=2, tuning="none",
            processes=False, sync=False,
        ) as index:
            yield index.count_range
    else:
        durable = DurableDILI(tmp_path / "durable", sync=False)
        durable.bulk_load(keys)
        durable.publish_plan()
        mmap = durable.serve_mmap()
        try:
            yield lambda lo, hi: int(mmap.count_range_batch([lo], [hi])[0])
        finally:
            mmap.close()
            durable.close()


class TestNaNRangeBounds:
    """No key satisfies ``lo <= k < hi`` when a bound is NaN, so every
    range-count front-end answers 0 for such a pair."""

    @pytest.mark.parametrize("bounds", ["nan-lo", "nan-hi", "nan-both"])
    @pytest.mark.parametrize(
        "front_end",
        ["dili", "dili-plan", "concurrent", "dili-batch", "sharded", "mmap"],
    )
    def test_nan_bound_counts_zero(self, tmp_path, front_end, bounds):
        rng = np.random.default_rng(5)
        keys = np.unique(rng.lognormal(0.0, 2.0, 5_000))
        lo, hi = {
            "nan-lo": (np.nan, keys[100]),
            "nan-hi": (keys[10], np.nan),
            "nan-both": (np.nan, np.nan),
        }[bounds]
        with _range_counter(front_end, keys, tmp_path) as count:
            assert count(lo, hi) == 0
            assert count(keys[10], keys[100]) == 90


_NON_FINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}


def _non_finite_call(index, verb, key):
    """One scalar write of ``key`` through ``index``'s ``verb``."""
    if verb == "delete":
        return index.delete(key)
    if verb == "bulk_insert":
        return index.bulk_insert([2000.5, key], ["a", "b"])
    return getattr(index, verb)(key, "x")


class TestNonFiniteReads:
    """No NaN or infinite key is ever stored, so every read front-end
    answers one as a miss, without raising or warning, like
    ``get_batch``.  The logn keys build a single-pair (zero-slope)
    leaf on the +inf path, where the slot prediction meets 0 * inf."""

    @pytest.mark.parametrize(
        "front_end",
        ["dili", "dili-lo", "concurrent", "concurrent-plan", "durable",
         "durable-concurrent"],
    )
    def test_answers_none_without_warnings(self, tmp_path, front_end):
        keys = load_dataset("logn", 20_000)
        if front_end.startswith("durable"):
            index = DurableDILI(
                tmp_path, concurrent=front_end.endswith("concurrent"),
                sync=False,
            )
        elif front_end.startswith("concurrent"):
            index = ConcurrentDILI()
        else:
            index = DILI(
                DiliConfig(local_optimization=front_end != "dili-lo")
            )
        index.bulk_load(keys)
        if front_end == "concurrent-plan":
            index.get_batch(keys[:4])  # compile + publish the plan
            assert index.published_plan_version is not None
        probe = [_NON_FINITE[k] for k in sorted(_NON_FINITE)]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for key in probe:
                    assert index.get(key) is None
                    assert key not in index
                assert index.get_batch(probe) == [None] * len(probe)
        finally:
            if front_end.startswith("durable"):
                index.close()


class TestNonFiniteScalarWrites:
    """A NaN or infinite key is refused before a scalar write touches
    the index, empty or loaded, and the index stays writable."""

    @pytest.mark.parametrize("verb", ["insert", "delete", "update"])
    @pytest.mark.parametrize("state", ["empty", "loaded"])
    @pytest.mark.parametrize("key", sorted(_NON_FINITE))
    @pytest.mark.parametrize("front_end", ["dili", "concurrent"])
    def test_refused(self, front_end, key, state, verb):
        index = DILI() if front_end == "dili" else ConcurrentDILI()
        if state == "loaded":
            index.bulk_load(np.arange(100.0), list(range(100)))
        with pytest.raises(ValueError, match="keys must be finite"):
            _non_finite_call(index, verb, _NON_FINITE[key])
        assert len(index) == (100 if state == "loaded" else 0)
        assert index.insert(1000.5, "ok")
        assert index.get(1000.5) == "ok"
        (index if front_end == "dili" else index.index).validate()


class TestNonFiniteDurableWrites:
    """``DurableDILI`` refuses a non-finite key before the WAL append,
    so no refused call leaves a record for later opens to fail on."""

    @pytest.mark.parametrize(
        "verb", ["insert", "delete", "update", "bulk_insert"]
    )
    @pytest.mark.parametrize("state", ["empty", "loaded"])
    @pytest.mark.parametrize("key", sorted(_NON_FINITE))
    @pytest.mark.parametrize("concurrent", [False, True])
    def test_refused_before_logging(
        self, tmp_path, concurrent, key, state, verb
    ):
        with DurableDILI(
            tmp_path, concurrent=concurrent, sync=False
        ) as index:
            if state == "loaded":
                index.bulk_load(np.arange(100.0), list(range(100)))
            seqno = index.wal.last_seqno
            with pytest.raises(ValueError, match="keys must be finite"):
                _non_finite_call(index, verb, _NON_FINITE[key])
            assert index.wal.last_seqno == seqno
            assert index.insert(1000.5, "logged")
        with DurableDILI(tmp_path, sync=False) as reopened:
            assert reopened.recovery.failed == 0
            assert reopened.get(1000.5) == "logged"
            assert len(reopened) == (101 if state == "loaded" else 1)
