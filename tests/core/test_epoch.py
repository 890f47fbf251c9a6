"""Unit tests for RCU-style epoch publication (repro.core.epoch)."""

import threading

import numpy as np
import pytest

from repro import DILI
from repro.core.epoch import EpochManager, PlanPublisher, next_plan_version


def _plan(n=500, seed=0):
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.lognormal(0, 1, n) * 1e9)
    index = DILI()
    index.bulk_load(keys, list(range(len(keys))))
    index.get_batch(keys[:4])  # compile
    return index.peek_plan()


class TestVersionCounter:
    def test_monotonic_and_unique(self):
        versions = [next_plan_version() for _ in range(50)]
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)

    def test_monotonic_under_threads(self):
        out: list[int] = []
        lock = threading.Lock()

        def worker():
            mine = [next_plan_version() for _ in range(200)]
            with lock:
                out.extend(mine)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(out)) == len(out)  # never a duplicate


class TestEpochManager:
    def test_pin_yields_epoch_and_unpins(self):
        em = EpochManager()
        assert not em.current_thread_pinned()
        with em.pin() as epoch:
            assert epoch == em.epoch == 0
            assert em.current_thread_pinned()
            assert em.min_active() == 0
        assert not em.current_thread_pinned()
        assert em.min_active() is None

    def test_pin_is_reentrant(self):
        em = EpochManager()
        with em.pin():
            with em.pin():
                assert em.current_thread_pinned()
            assert em.current_thread_pinned()
        assert not em.current_thread_pinned()
        assert em.stats()["epoch_pins"] == 2

    def test_retire_without_pins_reclaims_immediately(self):
        em = EpochManager()
        em.retire("old")
        assert em.drained()
        stats = em.stats()
        assert stats["plans_retired"] == 1
        assert stats["plans_reclaimed"] == 1
        assert stats["plans_limbo"] == 0

    def test_retire_under_pin_waits_for_drain(self):
        em = EpochManager()
        with em.pin():
            em.retire("old")
            # The pin entered at epoch 0; the entry is tagged 0 and
            # must survive while the pin is active.
            assert not em.drained()
            assert em.reclaim() == 0
        assert em.reclaim() == 1
        assert em.drained()

    def test_late_pin_does_not_block_earlier_retires(self):
        em = EpochManager()
        em.retire("a")  # tagged epoch 0, epoch now 1
        with em.pin():  # pinned at epoch 1 > tag 0
            em.retire("b")  # tagged 1: observable by the pin
            stats = em.stats()
            assert stats["plans_reclaimed"] == 1  # "a" went
            assert stats["plans_limbo"] == 1  # "b" waits
        em.reclaim()
        assert em.drained()

    def test_min_active_across_threads(self):
        em = EpochManager(shards=4)
        ready = threading.Event()
        release = threading.Event()

        def reader():
            with em.pin():
                ready.set()
                release.wait(timeout=10)

        t = threading.Thread(target=reader)
        t.start()
        assert ready.wait(timeout=10)
        em.retire("x")  # other thread pinned at 0 -> cannot reclaim
        assert em.min_active() == 0
        assert not em.drained()
        release.set()
        t.join()
        em.reclaim()
        assert em.drained()

    def test_shards_must_be_positive(self):
        with pytest.raises(ValueError):
            EpochManager(shards=0)


class TestPlanPublisher:
    def test_publish_freezes_and_loads(self):
        pub = PlanPublisher()
        assert pub.load() is None
        plan = _plan()
        assert pub.publish(plan)
        assert pub.load() is plan
        assert pub.stats()["plan_publishes"] == 1

    def test_frozen_plan_rejects_inplace_mutation(self):
        # Plans are immutable values: maintaining a published plan
        # returns a new plan the publisher accepts and leaves the
        # published one unchanged.
        pub = PlanPublisher()
        plan = _plan(seed=1)
        key = float(plan.pair_keys[0])
        before = plan.values.copy()
        pub.publish(plan)
        clone = plan.applied_values([(key, "fine")])
        assert clone is not None and clone is not plan
        assert clone.get_batch(np.asarray([key])) == ["fine"]
        assert plan.values.tolist() == before.tolist()
        assert pub.publish(clone)
        assert pub.load() is clone

    def test_same_plan_and_stale_version_rejected(self):
        pub = PlanPublisher()
        old = _plan(seed=2)
        new = _plan(seed=2)
        assert new.version > old.version  # global monotonic counter
        assert pub.publish(new)
        assert not pub.publish(new)  # already current
        assert not pub.publish(old)  # stale version loses the race
        assert pub.load() is new

    def test_replaced_plan_retires_and_reclaims(self):
        pub = PlanPublisher()
        a, b = _plan(seed=3), _plan(seed=4)
        pub.publish(a)
        pub.publish(b)
        stats = pub.stats()
        assert stats["plans_retired"] == 1
        assert stats["plans_limbo"] == 0  # no pins: reclaimed at once

    def test_pinned_snapshot_survives_republish(self):
        pub = PlanPublisher()
        a, b = _plan(seed=5), _plan(seed=6)
        pub.publish(a)
        with pub.pinned() as snap:
            assert snap is a
            pub.publish(b)  # supersedes a mid-read
            assert snap.lookup_batch is not None  # still fully usable
            assert pub.stats()["plans_limbo"] == 1  # a waits on us
            assert pub.load() is b  # new readers see b
        pub.epochs.reclaim()
        assert pub.stats()["plans_limbo"] == 0

    def test_unpublish_retires(self):
        pub = PlanPublisher()
        assert not pub.unpublish()
        pub.publish(_plan(seed=7))
        assert pub.unpublish()
        assert pub.load() is None
        with pub.pinned() as snap:
            assert snap is None

    def test_current_thread_pinned_tracks_pinned_block(self):
        pub = PlanPublisher()
        pub.publish(_plan(seed=8))
        assert not pub.current_thread_pinned()
        with pub.pinned():
            assert pub.current_thread_pinned()
        assert not pub.current_thread_pinned()
