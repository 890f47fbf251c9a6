"""Plan versions share their tables instead of copying them.

A chain of maintained plans keeps node rows, pair keys and payloads in
append-only arenas and its slot tables in a left-right pair of copies
(``repro.core.flat._Arenas``).  These tests pin what that sharing must
never cost: a plan that exists never changes, whoever holds it and
whatever the writer does next, and every successor still answers like
a fresh compile of the tree it was maintained for.
"""

import gc
import pickle
import sys
import threading
import weakref

import numpy as np

from repro import DILI, DiliConfig
from repro.core.concurrent import ConcurrentDILI
from repro.core.flat import FlatPlan, compile_plan
from repro.simulate.cache import CacheSimulator
from repro.simulate.tracer import CostTracer

BUFFERS = (
    "kind", "slope", "intercept", "size", "base", "region", "slot_kind",
    "slot_ref", "pair_keys", "dense_keys", "values", "sorted_keys",
)
NODE_COLUMNS = ("kind", "slope", "intercept", "size", "base", "region")
BULK = np.unique(np.random.default_rng(1).lognormal(0, 1, 3000) * 1e3)
#: A narrow key range that crowded inserts pile into.
CROWD = (float(BULK[1500]), float(BULK[1510]))
PROBE = np.concatenate([BULK, BULK + 0.5, np.linspace(*CROWD, 81)])


def _loaded(index):
    index.bulk_load(BULK, list(range(len(BULK))))
    index.get_batch(BULK[:4])  # compile the plan
    return index


def _snapshot(plan: FlatPlan) -> dict:
    """Copies of every buffer, plus the plan's answers to PROBE."""
    out = {name: getattr(plan, name).copy() for name in BUFFERS}
    out["answers"] = plan.get_batch(PROBE)
    return out


def _assert_unchanged(plan: FlatPlan, snap: dict) -> None:
    for name in BUFFERS:
        now = getattr(plan, name)
        if name == "values":
            assert all(a is b for a, b in zip(now, snap[name])), name
            assert len(now) == len(snap[name]), name
        else:
            assert now.dtype == snap[name].dtype, name
            assert np.array_equal(now, snap[name]), name
    assert plan.get_batch(PROBE) == snap["answers"]


def _assert_fresh(plan: FlatPlan, root) -> None:
    """``plan`` answers and replays like ``compile_plan(root)``, and its
    canonical form is bitwise that compile."""
    fresh = compile_plan(root)
    canonical = plan.compacted()
    for name in BUFFERS:
        a, b = getattr(canonical, name), getattr(fresh, name)
        if name == "values":
            assert a.tolist() == b.tolist()
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    got = []
    for p in (plan, fresh):
        tracer = CostTracer(CacheSimulator(256))
        out, trace = p.lookup_batch(PROBE, record=True)
        p.replay_trace(PROBE, trace, tracer)
        got.append((p.gather_values(out), tracer.total_cycles,
                    tracer.cache_misses))
    assert got[0] == got[1]


def _history(index):
    """At least 100 maintained writes through every tier.

    Yields after each write a short tag of what it was.  Crowded inserts
    spawn nested leaves and, at lambda 1, adjust (and so re-emit) their
    top-level leaf; a key next to a base key spawns a nested leaf that
    its delete collapses again; updates append pairs, until dead pair
    entries cross the garbage rule.
    """
    tree = getattr(index, "index", index)  # a ConcurrentDILI's DILI
    rng = np.random.default_rng(5)
    crowded = np.unique(rng.uniform(*CROWD, 160))
    rng.shuffle(crowded)
    for i, chunk in enumerate(np.array_split(crowded, 40)):
        index.insert_batch(chunk, [("n", float(k)) for k in chunk])
        yield "insert"
        near = float(BULK[50 + i]) + 1e-3
        rows = len(compile_plan(tree.root).kind)
        assert index.insert(near, "near")
        spawned = len(compile_plan(tree.root).kind)
        yield "spawn" if spawned > rows else "insert"
        assert index.delete(near)
        collapsed = len(compile_plan(tree.root).kind) < spawned
        yield "collapse" if collapsed else "delete"
        ups = BULK[rng.integers(0, len(BULK), 64)]
        index.update_batch(ups, [i] * len(ups))
        yield "update"
        if i % 4 == 3:
            index.delete_batch(chunk[:2])
            yield "delete"


class TestSharing:
    def test_consecutive_successors_share_arena_memory(self):
        # Big enough that six writes fit the arenas' growth headroom
        # (a full arena is copied into a larger one).
        keys = np.unique(np.random.default_rng(0).lognormal(0, 1, 20000))
        index = DILI()
        index.bulk_load(keys * 1e9)
        index.get_batch(keys[:4] * 1e9)
        plans = []
        for i in range(6):
            # Keys next to base keys: each spawns a nested leaf, so
            # every write appends node rows and pairs.
            near = keys[400 * i:400 * i + 8] * 1e9 + 1e-3
            assert index.insert_batch(near).all()
            plans.append(index.peek_plan())
        # The first successor of the compiled plan starts a chain (and
        # copies); every later one appends to the same arenas.
        for older, newer in zip(plans, plans[1:]):
            assert newer.arenas is older.arenas
            assert len(newer.kind) > len(older.kind)
            assert newer.num_pairs > older.num_pairs
            for name in ("pair_keys", "values", *NODE_COLUMNS):
                assert np.shares_memory(getattr(older, name),
                                        getattr(newer, name)), name
        _assert_fresh(plans[-1], index.root)

    def test_slot_copy_is_reused_once_its_readers_are_gone(self):
        index = _loaded(DILI())
        updates = iter(BULK[::7].tolist())

        def write():
            assert index.update(next(updates), "u")
            return index.peek_plan()

        write()
        p_prev = write()
        copy = p_prev.slot_kind.base  # the slot copy P(k-1) reads
        p_k = write()
        assert not np.shares_memory(p_k.slot_kind, copy)
        del p_prev
        p_next = write()  # P(k+1): writes the copy P(k-1) read
        assert p_next.slot_kind.base is copy
        # A held P(k) keeps its copy: P(k+2) must go elsewhere.
        p_after = write()
        assert not np.shares_memory(p_after.slot_kind, p_k.slot_kind)
        _assert_fresh(p_after, index.root)

    def test_held_plan_blocks_reuse_of_its_copy(self):
        index = _loaded(DILI())
        held = []
        for key in BULK[:40:2].tolist():
            assert index.update(key, "u")
            held.append((index.peek_plan(), _snapshot(index.peek_plan())))
        for plan, snap in held:
            _assert_unchanged(plan, snap)
        _assert_fresh(index.peek_plan(), index.root)


class TestHeldPlansNeverChange:
    def test_single_thread(self):
        index = _loaded(DILI(DiliConfig(lambda_adjust=1.0)))
        held = []
        tags = []
        compactions = 0
        recompiles = index.plan_recompiles
        for step, tag in enumerate(_history(index)):
            tags.append(tag)
            plan = index.peek_plan()
            assert plan is not None
            compactions += plan.arenas is None
            if step % 9 == 0:  # every ninth version, held to the end
                held.append((plan, _snapshot(plan)))
            for old, snap in held[-3:]:
                _assert_unchanged(old, snap)
        assert len(tags) >= 100
        assert {"insert", "spawn", "collapse", "update", "delete"} <= set(tags)
        assert index.adjustment_count > 0  # re-emitted leaves
        assert compactions > 0, "the garbage rule never fired"
        assert index.plan_recompiles == recompiles
        for plan, snap in held:
            _assert_unchanged(plan, snap)
        _assert_fresh(index.peek_plan(), index.root)

    def test_beside_a_writer_thread(self):
        """Three readers (more threads than cores) each hold the first
        plan and a rolling window of published ones while the writer
        runs the history, with a short switch interval so the writer
        is interrupted mid-successor: a write into a copy a live plan
        reads would break some reader's snapshot."""
        index = ConcurrentDILI(DiliConfig(lambda_adjust=1.0))
        _loaded(index)
        plan = index._published
        snap = _snapshot(plan)
        stop = threading.Event()
        errors: list[BaseException] = []
        checks = []

        def reader():
            try:
                held = [(plan, snap)]
                while not stop.is_set():
                    newest = index._published
                    held = held[:1] + held[-3:] + [(newest, _snapshot(newest))]
                    for old, old_snap in held:
                        _assert_unchanged(old, old_snap)
                    checks.append(len(held))
            except BaseException as exc:  # pragma: no cover - surfaced
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            writes = sum(1 for _ in _history(index))
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=120)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert not errors, errors[0]
        assert writes >= 100 and checks
        assert index.index.adjustment_count > 0
        _assert_unchanged(plan, snap)
        _assert_fresh(index._published, index.index.root)


class TestTipRule:
    def test_two_successors_of_one_parent(self):
        a = _loaded(DILI())
        fresh = np.setdiff1d(np.arange(1.0, 4000.0, 8.0), BULK)
        a.insert_batch(fresh[:8])
        a.insert_batch(fresh[8:16])  # the parent is a chain's newest
        parent = a.peek_plan()
        snap = _snapshot(parent)
        b = pickle.loads(pickle.dumps(a))  # same tree, no plan
        b._flat = parent
        a.insert_batch(fresh[16:24])  # appends to the parent's chain
        first = a.peek_plan()
        b.delete_batch(BULK[100:108])  # must not see the first's rows
        b.update_batch(BULK[200:204], ["b"] * 4)
        second = b.peek_plan()
        assert second.arenas is not first.arenas
        _assert_unchanged(parent, snap)
        _assert_fresh(first, a.root)
        _assert_fresh(second, b.root)
        a.insert_batch(fresh[24:32])  # the first's chain goes on
        assert a.peek_plan().arenas is first.arenas
        _assert_fresh(a.peek_plan(), a.root)
        _assert_fresh(second, b.root)


class TestUpdates:
    def test_update_answers_type_identically(self):
        index = _loaded(DILI())
        key = float(BULK[17])
        assert index.update(key, 5)
        plan = index.peek_plan()
        got = plan.get(key)
        assert got == 5 and type(got) is int
        got = index.get_batch([key])[0]
        assert got == 5 and type(got) is int
        assert plan.get_batch([float(BULK[18])]) == [18]

    def test_update_heavy_run_crosses_the_garbage_rule(self):
        index = _loaded(DILI())
        compactions = 0
        rng = np.random.default_rng(11)
        for round_no in range(64):
            keys = BULK[rng.integers(0, len(BULK), 64)]
            index.update_batch(keys, [round_no] * len(keys))
            plan = index.peek_plan()
            assert plan.num_pairs - len(index) <= len(index)
            compactions += plan.arenas is None
        assert compactions > 0, "the garbage rule never fired"
        assert index.plan_recompiles == 1
        _assert_fresh(index.peek_plan(), index.root)

    def test_superseded_versions_are_freed(self):
        index = _loaded(DILI())
        refs = []
        for key in BULK[:12].tolist():
            assert index.update(key, "u")
            refs.append(weakref.ref(index.peek_plan()))
        gc.collect()
        assert [r() is None for r in refs] == [True] * 11 + [False]
