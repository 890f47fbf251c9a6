"""Property tests: batch writes agree with the scalar loop, always.

The contract of ``insert_batch`` / ``delete_batch`` / ``update_batch``
(docs/api.md) is *semantic identity* with the per-key loop:

* identical resulting tree (same items, validates, same bookkeeping
  counters),
* identical simulated cost trace under a real tracer -- same total
  cycles, memory accesses, cache misses and per-phase breakdown, to
  the cycle,
* and, when a compiled flat plan is being maintained, the patched /
  subtree-spliced plan is bit-identical to a fresh ``compile_plan`` of
  the mutated tree -- with interleaved batch reads staying correct the
  whole time.

The same equivalence is asserted through the ``ConcurrentDILI`` wrapper
and across a ``DurableDILI`` crash-replay of the single framed
batch-write WAL records.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DILI
from repro.core.concurrent import ConcurrentDILI
from repro.core.dili import DiliConfig
from repro.core.flat import FlatPlan, compile_plan
from repro.simulate.cache import CacheSimulator
from repro.simulate.tracer import CostTracer

key_sets = st.sets(
    st.integers(min_value=0, max_value=2**40), min_size=4, max_size=100
)
# Write batches reuse the same universe so batches overlap existing
# keys (duplicate inserts, misses on delete/update) as well as miss it.
write_lists = st.lists(
    st.integers(min_value=0, max_value=2**40), min_size=0, max_size=60
)

_PLAN_ARRAYS = (
    "kind", "slope", "intercept", "size", "base", "region",
    "slot_kind", "slot_ref", "pair_keys", "sorted_keys",
)


def _bulk(keys_set):
    keys = np.array(sorted(float(k) for k in keys_set))
    index = DILI()
    index.bulk_load(keys, [("v", float(k)) for k in keys])
    return index, keys


def _writes(raw):
    return np.asarray([float(k) for k in raw], dtype=np.float64)


def _assert_same_tree(a, b):
    assert list(a.items()) == list(b.items())
    assert len(a) == len(b)
    assert a.insert_count == b.insert_count
    assert a.moved_pairs == b.moved_pairs
    a.validate()
    b.validate()


def _assert_same_trace(ta, tb):
    assert ta.total_cycles == tb.total_cycles
    assert ta.mem_accesses == tb.mem_accesses
    assert ta.cache_misses == tb.cache_misses
    assert ta.phase_cycles == tb.phase_cycles


def _assert_plan_matches_fresh(index):
    plan = index._flat
    assert plan is not None, "a batch write dropped the compiled plan"
    fresh = compile_plan(index.root)
    # A maintained plan keeps its rows stable and carries garbage; its
    # canonical form is bitwise the fresh compile.
    canonical = plan.compacted()
    for name in _PLAN_ARRAYS:
        a, b = getattr(canonical, name), getattr(fresh, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert canonical.values.tolist() == fresh.values.tolist()
    assert canonical.num_pairs == fresh.num_pairs
    assert canonical.depth == fresh.depth
    # The maintained plan itself answers and charges like the fresh one.
    probe = np.concatenate([fresh.sorted_keys, fresh.sorted_keys + 0.5])
    answers, tracers = [], []
    for p in (plan, fresh):
        tracer = CostTracer(CacheSimulator(64))
        out, trace = p.lookup_batch(probe, record=True)
        p.replay_trace(probe, trace, tracer)
        answers.append(p.gather_values(out))
        tracers.append(tracer)
    assert answers[0] == answers[1]
    _assert_same_trace(*tracers)
    assert np.array_equal(plan.sorted_keys, fresh.sorted_keys)
    los, his = _range_bounds(fresh.sorted_keys)
    assert np.array_equal(
        plan.count_range_batch(los, his), fresh.count_range_batch(los, his)
    )


def _range_bounds(keys):
    """Bound pairs over ascending ``keys``: every pair of a few edges
    (so empty, reversed, NaN and infinite bounds too) and a window
    around each gap between neighbours."""
    picks = keys[np.linspace(0, len(keys) - 1, 5).astype(int)]
    edges = np.concatenate([picks, picks + 0.5, [-np.inf, np.inf, np.nan]])
    los, his = np.meshgrid(edges, edges)
    return (
        np.concatenate([los.ravel(), keys[:-1] - 0.25]),
        np.concatenate([his.ravel(), keys[1:] + 0.25]),
    )


class TestScalarLoopEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(keys_set=key_sets, ins=write_lists, dels=write_lists)
    def test_insert_delete_batch(self, keys_set, ins, dels):
        a, keys = _bulk(keys_set)
        b, _ = _bulk(keys_set)
        ta = CostTracer(CacheSimulator(64))
        tb = CostTracer(CacheSimulator(64))
        ins_arr = _writes(ins)
        vals = [("new", float(k)) for k in ins_arr]
        got = [a.insert(float(k), v, ta) for k, v in zip(ins_arr, vals)]
        out = b.insert_batch(ins_arr, vals, tb)
        assert out.tolist() == got
        _assert_same_tree(a, b)
        _assert_same_trace(ta, tb)
        dels_arr = _writes(dict.fromkeys(dels))  # scalar==batch on dups
        got = [a.delete(float(k), ta) for k in dels_arr]
        out = b.delete_batch(dels_arr, tb)
        assert out.tolist() == got
        _assert_same_tree(a, b)
        _assert_same_trace(ta, tb)

    def test_adjusts_inside_one_leaf_group(self):
        """A batch whose one leaf group adjusts its top-level leaf again
        and again, each time between two keys of the same group.

        At lambda = 1 the 300 keys crowded into [1000, 1040) all route
        to one top-level leaf and trigger hundreds of adjustments (407,
        273 of them on that leaf); the default-config property tests
        above reach this case only by chance.
        """
        config = DiliConfig(lambda_adjust=1.0)
        bulk = np.arange(0, 4000, 4, dtype=np.float64)
        rng = np.random.default_rng(3)
        fresh = np.unique(rng.uniform(1000.0, 1040.0, 300))
        rng.shuffle(fresh)
        a, b = DILI(config), DILI(config)
        for index in (a, b):
            index.bulk_load(bulk, [("v", float(k)) for k in bulk])
        leaf_of, _ = b._get_router().route(fresh)
        assert len(set(leaf_of.tolist())) == 1
        ta = CostTracer(CacheSimulator(64))
        tb = CostTracer(CacheSimulator(64))
        vals = [("n", float(k)) for k in fresh]
        got = [a.insert(float(k), v, ta) for k, v in zip(fresh, vals)]
        assert b.insert_batch(fresh, vals, tb).tolist() == got
        assert a.adjustment_count > 200
        assert b.adjustment_count == a.adjustment_count
        _assert_same_tree(a, b)
        _assert_same_trace(ta, tb)
        gone = fresh[::2]
        got = [a.delete(float(k), ta) for k in gone]
        assert b.delete_batch(gone, tb).tolist() == got
        _assert_same_tree(a, b)
        _assert_same_trace(ta, tb)

    def test_crowded_leaf_crosses_the_compaction_rule(self, monkeypatch):
        """The crowding above, one insert at a time on a compiled plan.

        Every adjust re-emits the whole top-level leaf, so dead pair
        entries pile up until they outnumber the live keys; the tier
        then compacts.  The plan stays alive, its garbage stays bounded
        and no full recompile happens.
        """
        compactions = []
        compacted = FlatPlan.compacted

        def spy(plan):
            compactions.append(plan.num_pairs)
            return compacted(plan)

        monkeypatch.setattr(FlatPlan, "compacted", spy)
        index = DILI(DiliConfig(lambda_adjust=1.0))
        bulk = np.arange(0, 4000, 4, dtype=np.float64)
        index.bulk_load(bulk, [("v", float(k)) for k in bulk])
        index.get_batch(bulk[:4])
        rng = np.random.default_rng(3)
        fresh = np.unique(rng.uniform(1000.0, 1040.0, 300))
        rng.shuffle(fresh)
        for k in fresh.tolist():
            assert index.insert(k, ("n", k))
            plan = index.peek_plan()
            assert plan is not None
            assert plan.num_pairs - len(index) <= len(index)
        assert index.adjustment_count > 200
        assert compactions, "the garbage rule never fired"
        assert index.plan_recompiles == 1
        _assert_plan_matches_fresh(index)

    @settings(max_examples=30, deadline=None)
    @given(keys_set=key_sets, ups=write_lists)
    def test_update_batch(self, keys_set, ups):
        a, keys = _bulk(keys_set)
        b, _ = _bulk(keys_set)
        ups_arr = _writes(dict.fromkeys(ups))
        vals = [("up", float(k)) for k in ups_arr]
        got = [a.update(float(k), v) for k, v in zip(ups_arr, vals)]
        out = b.update_batch(ups_arr, vals)
        assert out.tolist() == got
        _assert_same_tree(a, b)


class TestPlanMaintenance:
    @settings(max_examples=50, deadline=None)
    @given(keys_set=key_sets, ins=write_lists, dels=write_lists,
           ups=write_lists)
    def test_patched_plan_equals_fresh_compile(
        self, keys_set, ins, dels, ups
    ):
        index, keys = _bulk(keys_set)
        index.get_batch(keys[:4])  # compile the flat plan
        probe = np.concatenate([keys, keys + 1.0])

        def check():
            _assert_plan_matches_fresh(index)
            batch = index.get_batch(probe)
            assert batch == [index.get(float(k)) for k in probe]

        index.insert_batch(_writes(ins), [("n", k) for k in ins])
        check()
        index.delete_batch(_writes(dict.fromkeys(dels)))
        check()
        ups_arr = _writes(dict.fromkeys(ups))
        index.update_batch(ups_arr, [("u", float(k)) for k in ups_arr])
        check()
        # Full plan recompiles never happened: only patches/splices.
        assert index.plan_recompiles == 1

    @settings(max_examples=30, deadline=None)
    @given(keys_set=key_sets, rounds=st.lists(
        st.tuples(write_lists, write_lists), min_size=1, max_size=4,
    ))
    def test_interleaved_batches_keep_plan_alive(self, keys_set, rounds):
        index, keys = _bulk(keys_set)
        index.get_batch(keys[:4])
        for ins, dels in rounds:
            index.insert_batch(_writes(ins), [("n", k) for k in ins])
            index.delete_batch(_writes(dict.fromkeys(dels)))
            _assert_plan_matches_fresh(index)
        assert index.plan_recompiles == 1


#: Write histories over a small key universe, so that they delete base
#: keys and insert them again, and fold the key view's sides (past
#: sqrt(base) keys) and compact the plan (dead pairs past live keys).
history_keys = st.sets(st.integers(0, 399), min_size=40, max_size=160)
history = st.lists(
    st.tuples(
        st.sampled_from([
            "insert_batch", "delete_batch", "update_batch", "bulk_insert",
            "insert", "delete",
        ]),
        st.lists(st.integers(0, 399), min_size=1, max_size=30, unique=True),
    ),
    min_size=1,
    max_size=20,
)


def _apply(front, model: dict, verb: str, raw: list, step: int) -> None:
    """One history step on ``front`` and on the ``model`` dict."""
    keys = [float(k) for k in raw]
    if verb in ("insert", "delete"):
        keys = keys[:1]
        if verb == "insert":
            front.insert(keys[0], step)
        else:
            front.delete(keys[0])
    elif verb == "delete_batch":
        front.delete_batch(np.asarray(keys))
    else:
        getattr(front, verb)(np.asarray(keys), [step] * len(keys))
    for key in keys:
        if verb.startswith("delete"):
            model.pop(key, None)
        elif verb.startswith("update"):
            if key in model:
                model[key] = step
        else:
            model.setdefault(key, step)


def _model_counts(model: dict, los, his) -> np.ndarray:
    live = np.array(sorted(model), dtype=np.float64)
    counts = np.searchsorted(live, his) - np.searchsorted(live, los)
    return np.where(los < his, counts, 0)


class TestKeyView:
    """A maintained plan's key view -- a shared base plus two small
    sorted sides -- counts and lists exactly the live keys."""

    @pytest.mark.parametrize("front", ["dili", "concurrent"])
    @settings(max_examples=25, deadline=None)
    @given(base=history_keys, steps=history)
    def test_histories_match_a_fresh_compile_and_a_model(
        self, front, base, steps
    ):
        keys = np.array(sorted(float(k) for k in base))
        index = DILI() if front == "dili" else ConcurrentDILI()
        index.bulk_load(keys, [-1] * len(keys))
        model = dict.fromkeys(keys.tolist(), -1)
        plain = index if front == "dili" else index.index
        checked = None
        for step, (verb, raw) in enumerate(steps):
            index.get_batch(keys[:2])  # compile a plan if none is alive
            _apply(index, model, verb, raw, step)
            live = np.array(sorted(model), dtype=np.float64)
            los, his = _range_bounds(live)
            assert np.array_equal(
                index.count_range_batch(los, his),
                _model_counts(model, los, his),
            )
            plan = plain.peek_plan()
            if plan is None:
                continue  # a bulk_insert rebuild dropped the plan
            if front == "concurrent":
                assert index._published is plan
            # Neither a write nor the count built a new plan's merged
            # view, and the sides stay within the fold rule.
            assert plan is checked or plan._key_view is None
            sides = len(plan.key_added) + len(plan.key_removed)
            assert sides ** 2 <= len(plan.key_base)
            assert np.array_equal(plan.sorted_keys, live)
            assert np.array_equal(
                plan.count_range_batch(los, his),
                compile_plan(plain.root).count_range_batch(los, his),
            )
            checked = plan
        if plain.peek_plan() is not None:
            _assert_plan_matches_fresh(plain)

    def test_a_history_folds_the_sides_and_compacts_the_plan(self):
        """Deleting and re-inserting base keys in small batches grows
        the sides past sqrt(base) (a fold) and leaves dead pair entries
        past the live keys (a compaction), with no full recompile."""
        keys = np.arange(0.0, 400.0)
        index = DILI()
        index.bulk_load(keys, [-1] * len(keys))
        index.get_batch(keys[:2])
        model = dict.fromkeys(keys.tolist(), -1)
        folds = compactions = 0
        rng = np.random.default_rng(5)
        for step in range(60):
            before = index.peek_plan()
            raw = rng.choice(400, size=8, replace=False).tolist()
            verb = "delete_batch" if step % 2 else "insert_batch"
            if step % 4 == 3:
                verb = "update_batch"
            _apply(index, model, verb, raw, step)
            plan = index.peek_plan()
            if plan.arenas is None:
                compactions += 1
            elif (plan.key_base is not before.key_base
                  and before.arenas is not None):
                folds += 1
            sides = len(plan.key_added) + len(plan.key_removed)
            assert sides ** 2 <= len(plan.key_base)
            live = np.array(sorted(model), dtype=np.float64)
            los, his = _range_bounds(live)
            assert np.array_equal(
                plan.count_range_batch(los, his),
                _model_counts(model, los, his),
            )
        assert folds and compactions, (folds, compactions)
        assert index.plan_recompiles == 1
        _assert_plan_matches_fresh(index)


class TestConcurrentWrapper:
    @settings(max_examples=30, deadline=None)
    @given(keys_set=key_sets, ins=write_lists, dels=write_lists)
    def test_concurrent_batches_match_plain(self, keys_set, ins, dels):
        plain, keys = _bulk(keys_set)
        wrapped = ConcurrentDILI()
        wrapped.bulk_load(
            keys.copy(), [("v", float(k)) for k in keys]
        )
        ins_arr = _writes(ins)
        vals = [("new", float(k)) for k in ins_arr]
        assert (
            wrapped.insert_batch(ins_arr, vals).tolist()
            == plain.insert_batch(ins_arr, vals).tolist()
        )
        dels_arr = _writes(dict.fromkeys(dels))
        assert (
            wrapped.delete_batch(dels_arr).tolist()
            == plain.delete_batch(dels_arr).tolist()
        )
        assert list(wrapped.items()) == list(plain.items())
        wrapped._index.validate()


class TestDurableCrashReplay:
    @settings(max_examples=15, deadline=None)
    @given(keys_set=key_sets, ins=write_lists, dels=write_lists,
           ups=write_lists)
    def test_batch_wal_records_replay(self, keys_set, ins, dels, ups):
        from repro.durability import DurableDILI, recover

        with tempfile.TemporaryDirectory() as d:
            live = DurableDILI(d, sync=False)
            keys = np.array(sorted(float(k) for k in keys_set))
            live.bulk_load(keys, [("v", float(k)) for k in keys])
            ins_arr = _writes(ins)
            live.insert_batch(ins_arr, [("n", float(k)) for k in ins_arr])
            live.delete_batch(_writes(dict.fromkeys(dels)))
            ups_arr = _writes(dict.fromkeys(ups))
            live.update_batch(ups_arr, [("u", float(k)) for k in ups_arr])
            live.sync_wal()
            # Crash: reopen from disk without close/snapshot.  The
            # three batch records replay through the same batch APIs.
            result = recover(d)
            assert result.replayed == 3
            assert result.failed == 0
            assert list(result.index.items()) == list(live.items())
            live.close()


class TestBadKeyRejectedBeforeAnyWrite:
    """A batch with a non-finite key raises before its first key is
    written, on the plain and the concurrent front-end alike."""

    PROBE = [3.0, 3.5, 4.0, 7.0]

    @staticmethod
    def _index(front):
        index = front()
        index.bulk_load(np.arange(10.0))
        index.get_batch([1.0])  # compile the plan the writes maintain
        return index

    @staticmethod
    def _state(index, probe):
        plain = index.index if isinstance(index, ConcurrentDILI) else index
        plain.validate()
        return (
            [index.get(k) for k in probe],
            index.get_batch(probe),
            len(index),
        )

    @pytest.mark.parametrize("front", [DILI, ConcurrentDILI])
    @pytest.mark.parametrize(
        "verb, args",
        [
            ("insert_batch", ([3.5, np.nan], ["a", "b"])),
            ("delete_batch", ([3.0, np.nan],)),
            ("update_batch", ([4.0, np.inf], ["u", "v"])),
        ],
        ids=["insert", "delete", "update"],
    )
    def test_state_is_unchanged(self, front, verb, args):
        index = self._index(front)
        before = self._state(index, self.PROBE)
        with pytest.raises(ValueError, match="finite"):
            getattr(index, verb)(*args)
        assert self._state(index, self.PROBE) == before

    @pytest.mark.parametrize("front", [DILI, ConcurrentDILI])
    def test_an_empty_index_rejects_them_too(self, front):
        index = front()
        for verb, args in [
            ("insert_batch", ([np.nan], ["a"])),
            ("delete_batch", ([np.nan],)),
            ("update_batch", ([np.nan], ["u"])),
        ]:
            with pytest.raises(ValueError, match="finite"):
                getattr(index, verb)(*args)
        assert len(index) == 0
