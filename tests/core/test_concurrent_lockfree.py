"""Lock-free batch reads of the published plan on ConcurrentDILI.

Covers the properties that are not wall-clock gates (those live in
``benchmarks/check_batch_baseline.py``):

* trace identity -- a published plan, however many copy-on-write
  patches produced it, simulates to *exactly* the same cycles and
  cache misses as a fresh compile of the same tree (Hypothesis over
  random mutation histories);
* snapshot semantics -- a reader holding a published plan keeps a
  coherent pre-write view while writers publish new versions; the
  writing thread reads its own writes back;
* reclamation -- a superseded plan is freed as soon as no reader holds
  it, whatever older plan another reader still holds;
* threaded stress -- 4 reader threads against structural writers,
  every read consistent with the loaded base data, with a
  :class:`~repro.check.LockSanitizer` attached and clean.
"""

import gc
import sys
import threading
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import LockSanitizer
from repro.core.concurrent import ConcurrentDILI
from repro.core.flat import compile_plan
from repro.simulate.cache import CacheSimulator
from repro.simulate.tracer import CostTracer


def _keys(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.unique(rng.lognormal(0, 1, n) * 1e9)


def _fresh(keys, n, seed):
    rng = np.random.default_rng(seed)
    lo, hi = float(keys[0]), float(keys[-1])
    out = np.unique(rng.uniform(lo, hi, 4 * n))
    return out[~np.isin(out, keys)][:n]


def _loaded(keys):
    index = ConcurrentDILI()
    index.bulk_load(keys, list(range(len(keys))))
    index.get_batch(keys[:4])  # compile + publish
    return index


def _trace(plan, queries, cycles):
    tracer = CostTracer(CacheSimulator(2048))
    out, trace = plan.lookup_batch(queries, record=True)
    plan.replay_trace(queries, trace, tracer, cycles)
    return plan.gather_values(out), tracer.total_cycles, tracer.cache_misses


class TestTraceIdentity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_published_plan_matches_fresh_compile_cycle_for_cycle(
        self, seed, data
    ):
        keys = _keys(1500, seed=seed)
        index = _loaded(keys)
        fresh = _fresh(keys, 64, seed + 1)

        # A random mutation history drives the plan through the
        # copy-on-write tiers (value patches, slot patches, splices).
        ops = data.draw(
            st.lists(
                st.sampled_from(["insert", "delete", "update"]),
                min_size=1,
                max_size=6,
            )
        )
        inserted: list[float] = []
        rng = np.random.default_rng(seed + 2)
        for op in ops:
            if op == "insert" and len(inserted) < len(fresh):
                key = float(fresh[len(inserted)])
                assert index.insert(key, "new")
                inserted.append(key)
            elif op == "delete" and inserted:
                assert index.delete(inserted.pop())
            else:
                pos = int(rng.integers(0, len(keys)))
                assert index.update(float(keys[pos]), ("upd", pos))

        published = index._published
        # The published plan is the maintained plan itself, not a copy.
        assert published is not None
        assert published is index.index.peek_plan()
        rebuilt = compile_plan(index.index.root)
        queries = np.concatenate(
            [keys[:: max(1, len(keys) // 200)], np.asarray(inserted or [0.0])]
        )
        cycles = index.index._cycles
        got_pub, cyc_pub, miss_pub = _trace(published, queries, cycles)
        got_fresh, cyc_fresh, miss_fresh = _trace(rebuilt, queries, cycles)
        assert got_pub == got_fresh
        assert cyc_pub == cyc_fresh  # +-0 simulated cycles
        assert miss_pub == miss_fresh


class TestSnapshotSemantics:
    def test_pinned_reader_keeps_prewrite_view(self):
        keys = _keys(1000, seed=3)
        index = _loaded(keys)
        victim = float(keys[100])
        plan = index._published
        before = plan.version
        assert index.update(victim, "rewritten")  # publishes anew
        # The held snapshot is immutable: same version, old value.
        assert plan.version == before
        assert plan.get_batch(np.asarray([victim])) == [100]
        # A fresh read observes the new version and the new value.
        assert index.published_plan_version > before
        assert index.get_batch([victim]) == ["rewritten"]

    def test_writer_thread_reads_its_own_writes(self):
        keys = _keys(1000, seed=4)
        index = _loaded(keys)
        fresh = _fresh(keys, 32, 5)
        index.insert_batch(fresh, [("mine", i) for i in range(len(fresh))])
        assert index.get_batch(fresh) == [
            ("mine", i) for i in range(len(fresh))
        ]
        index.delete_batch(fresh[:16])
        assert index.get_batch(fresh[:16]) == [None] * 16

    def test_unabsorbable_mutation_falls_back_and_republishes(self):
        keys = _keys(400, seed=6)
        index = _loaded(keys)
        # A bulk_load replaces the tree wholesale: nothing to patch,
        # so the wrapper republishes whatever plan state results and
        # reads stay correct through the fallback path.
        index.bulk_load(keys, [("v2", i) for i in range(len(keys))])
        assert index.get_batch(keys[:8]) == [("v2", i) for i in range(8)]


class TestReclamation:
    def test_superseded_plan_is_freed_while_older_one_is_held(self):
        keys = _keys(1000, seed=7)
        index = _loaded(keys)
        held = threading.Event()
        release = threading.Event()
        refs: list = []
        answers: list = []

        def reader():
            plan = index._published  # v1, held across both writes
            refs.append(weakref.ref(plan))
            held.set()
            assert release.wait(timeout=30)
            answers.append(plan.get_batch(keys[:4]))

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            assert held.wait(timeout=30)
            assert index.update(float(keys[0]), "two")  # publishes v2
            v2 = weakref.ref(index._published)
            assert index.update(float(keys[1]), "three")  # publishes v3
            gc.collect()
            # Nothing holds v2 any more, although a reader still holds
            # the older v1.
            assert v2() is None
            assert refs[0]() is not None
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert answers == [[0, 1, 2, 3]]  # v1 answered as it was
        assert index.get_batch(keys[:2]) == ["two", "three"]


class TestThreadedStress:
    def test_plan_reads_is_exact_under_threads(self):
        keys = _keys(500, seed=9)
        index = _loaded(keys)
        before = index.lock_stats["plan_reads"]
        readers, reads = 8, 200

        def reader():
            for _ in range(reads):
                index.get_batch(keys[:2])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=reader) for _ in range(readers)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)
        # A lost update in the counter would break this equality.
        assert index.lock_stats["plan_reads"] - before == readers * reads

    def test_lock_free_range_counts_beside_a_writer(self):
        """Range counts read the published plan's key view (a base and
        two sorted sides) without the lock while a writer inserts and
        deletes chunks of fresh keys, folding the sides as it goes.
        Each chunk is written whole, so every count holds all of a
        chunk or none of it, and one call's counts agree."""
        keys = _keys(4000, seed=21)
        index = _loaded(keys)
        chunks = np.array_split(np.sort(_fresh(keys, 480, 22)), 8)
        los = np.array([c[0] for c in chunks] + [-np.inf])
        his = np.array([np.nextafter(c[-1], np.inf) for c in chunks]
                       + [np.inf])
        base_in = np.searchsorted(keys, his) - np.searchsorted(keys, los)
        sizes = np.array([len(c) for c in chunks])
        stop = threading.Event()
        errors: list[BaseException] = []
        reads = [0]

        def reader():
            try:
                while not stop.is_set():
                    extra = index.count_range_batch(los, his) - base_in
                    per_chunk = extra[:-1]
                    whole = (per_chunk == 0) | (per_chunk == sizes)
                    if not whole.all() or extra[-1] != per_chunk.sum():
                        raise AssertionError(
                            f"counts {extra.tolist()} match no published "
                            f"version"
                        )
                    reads[0] += 1
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def writer():
            try:
                for r in range(40):
                    index.insert_batch(chunks[r % 8], [r] * len(chunks[r % 8]))
                    if r >= 3:
                        index.delete_batch(chunks[(r - 3) % 8])
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        before = index.lock_stats["plan_reads"]
        pool = [threading.Thread(target=reader) for _ in range(2)]
        churn = threading.Thread(target=writer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in pool:
                t.start()
            churn.start()
            churn.join(timeout=60)
            stop.set()
            for t in pool:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [churn, *pool])
        assert not errors, errors[0]
        assert reads[0] and index.lock_stats["plan_reads"] - before >= reads[0]
        final = index.count_range_batch(los, his) - base_in
        assert final.tolist() == [*(sizes * [0, 0, 0, 0, 0, 1, 1, 1]),
                                  sizes[5:].sum()]
        assert index.index.plan_recompiles == 1

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_four_readers_vs_writers_sanitizer_clean(self, seed):
        keys = _keys(2000, seed=seed)
        index = _loaded(keys)
        san = LockSanitizer(index)
        fresh = _fresh(keys, 96, seed + 1)
        stop = threading.Event()
        errors: list[BaseException] = []

        def reader(rseed):
            rng = np.random.default_rng(rseed)
            try:
                while not stop.is_set():
                    idx = rng.integers(0, len(keys), size=64)
                    got = index.get_batch(keys[idx])
                    # Base keys are never touched by the writers, so
                    # every published version agrees on their values.
                    if got != [int(i) for i in idx]:
                        raise AssertionError(
                            "lock-free batch read returned a value "
                            "inconsistent with every published version"
                        )
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def writer():
            try:
                chunks = np.array_split(fresh, 6)
                for round_no in range(12):
                    chunk = chunks[round_no % len(chunks)]
                    if round_no % 2 == 0:
                        index.insert_batch(chunk, [round_no] * len(chunk))
                    else:
                        index.delete_batch(chunk)
                index.bulk_insert(fresh, [-1] * len(fresh))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        readers = [
            threading.Thread(target=reader, args=(seed + 10 + r,))
            for r in range(4)
        ]
        churn = threading.Thread(target=writer)
        for t in readers:
            t.start()
        churn.start()
        churn.join()
        stop.set()
        for t in readers:
            t.join()
        try:
            assert not errors, errors[0]
            san.assert_clean()
            stats = index.lock_stats
            assert stats["plan_publishes"] >= 1
            assert stats["plan_reads"] >= 1
            index.index.validate()
        finally:
            san.detach()
