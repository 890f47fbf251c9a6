"""Fault registry: every injector is detectable or a clean no-op."""

import numpy as np
import pytest

from repro import DILI, DiliConfig
from repro.check.errors import InvariantError
from repro.core.nodes import DenseLeafNode
from repro.data import load_dataset
from repro.durability.faultpoints import FaultInjector
from repro.resilience import (
    FaultRegistry,
    FaultSchedule,
    StallingLock,
    TREE_FAULT_KINDS,
)
from repro.resilience.faults import (
    FAULT_DENSE_FLIP,
    _top_nodes,
    stall_lock,
    unstall_lock,
)


class TestInjectors:
    @pytest.mark.parametrize("kind", TREE_FAULT_KINDS)
    def test_injection_is_detected_by_a_scan(self, loaded, rng, kind):
        loaded.validate()
        registry = FaultRegistry()
        fault = registry.inject(kind, loaded, rng)
        assert fault is not None and fault.kind == kind
        assert registry.reports == [fault]
        with pytest.raises(InvariantError):
            loaded.validate()

    def test_dense_flip_on_pair_tree_is_a_clean_noop(self, loaded, rng):
        registry = FaultRegistry()
        assert registry.inject(FAULT_DENSE_FLIP, loaded, rng) is None
        assert registry.reports == []
        loaded.validate()  # guaranteed-unmodified contract

    def test_dense_flip_on_dili_lo_tree(self, rng):
        keys = load_dataset("logn", 4_000, seed=0)
        index = DILI(DiliConfig(local_optimization=False))
        index.bulk_load(keys)
        assert any(type(n) is DenseLeafNode for n in _top_nodes(index.root))
        fault = FaultRegistry().inject(FAULT_DENSE_FLIP, index, rng)
        assert fault is not None and fault.kind == FAULT_DENSE_FLIP
        with pytest.raises(InvariantError):
            index.validate()

    def test_unknown_kind_raises(self, loaded, rng):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRegistry().inject("bitsquatting", loaded, rng)

    def test_inject_any_picks_an_applicable_kind(self, loaded, rng):
        fault = FaultRegistry().inject_any(loaded, rng)
        assert fault is not None
        assert fault.kind in TREE_FAULT_KINDS


class TestDurabilityHandles:
    def test_memoized_by_name(self):
        registry = FaultRegistry()
        a = registry.durability()
        assert isinstance(a, FaultInjector)
        assert registry.durability() is a
        assert registry.durability("other") is not a
        assert registry.durability("other") is registry.durability("other")


class TestFaultSchedule:
    def test_deterministic_per_seed(self):
        kwargs = dict(rounds=50, injections=9, seed=11)
        assert (
            FaultSchedule.random(**kwargs).events
            == FaultSchedule.random(**kwargs).events
        )
        assert (
            FaultSchedule.random(rounds=50, injections=9, seed=12).events
            != FaultSchedule.random(**kwargs).events
        )

    def test_covers_every_kind_and_orders_rounds(self):
        schedule = FaultSchedule.random(rounds=40, injections=8, seed=3)
        assert schedule.kinds_used() == set(TREE_FAULT_KINDS)
        rounds = [when for when, _ in schedule.events]
        assert rounds == sorted(rounds)
        assert len(set(rounds)) == len(rounds)  # distinct rounds

    def test_rejects_more_injections_than_rounds(self):
        with pytest.raises(ValueError):
            FaultSchedule.random(rounds=3, injections=4)


class TestStallingLock:
    def test_wraps_counts_and_restores(self):
        from repro import ConcurrentDILI

        cc = ConcurrentDILI()
        cc.bulk_load(np.arange(0.0, 100.0))
        original = cc._lock
        wrapper = stall_lock(cc, stall_s=0.0)
        assert isinstance(wrapper, StallingLock)
        assert wrapper.inner is original
        with wrapper:
            pass
        assert wrapper.stalls == 1
        # The wrapper is the writer lock now, so exclusive() goes
        # through it.
        with cc.exclusive():
            pass
        assert wrapper.stalls == 2
        unstall_lock(cc, wrapper)
        assert cc._lock is original
        unstall_lock(cc, wrapper)  # idempotent
        assert cc._lock is original
