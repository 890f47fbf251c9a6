"""Repair engine: quarantine, degraded serving, online repair, re-verify."""

import numpy as np
import pytest

from repro.check.errors import InvariantError
from repro.resilience import (
    FaultRegistry,
    Health,
    PairTable,
    ResilientDILI,
    TREE_FAULT_KINDS,
)


def _model(loaded):
    """Ground-truth dict mirroring the fixture's bulk load."""
    return dict(loaded.auth.items())


class TestDetectAndRepairPerKind:
    @pytest.mark.parametrize("kind", TREE_FAULT_KINDS)
    def test_full_cycle(self, loaded, rng, kind):
        model = _model(loaded)
        fault = FaultRegistry().inject(kind, loaded.index, rng)
        assert fault is not None

        assert loaded.detect() >= 1
        assert loaded.health is Health.DEGRADED
        assert loaded.stats()["open_tickets"] >= 1

        # Degraded reads: the representative damaged key answers from
        # authority; a batch mixing quarantined and clean keys is
        # entirely correct.
        if fault.key is not None:
            assert loaded.get(fault.key) == model[fault.key]
        probe = loaded.auth.keys[::211]
        assert loaded.get_batch(probe) == [model[k] for k in probe.tolist()]

        loaded.repair_all()
        assert loaded.health is Health.HEALTHY
        loaded.verify()
        stats = loaded.stats()
        assert stats["open_tickets"] == 0
        assert stats["full_rebuilds"] == 0
        assert sum(stats["repairs"].values()) >= 1

    def test_flat_cell_on_a_maintained_plan(self, loaded, rng):
        """After a write the plan's pair table is not in key order and
        its ``sorted_keys`` is its own array: the fault still finds its
        cell through the plan's descent, the scan turns the failed
        self-check into a plan finding, and the repair re-emits the
        leaf."""
        model = _model(loaded)
        keys = loaded.auth.keys
        fresh = np.setdiff1d((keys[:-1] + keys[1:]) / 2.0, keys)[::7]
        assert loaded.insert_batch(fresh, ["f"] * len(fresh)).all()
        model.update(dict.fromkeys(fresh.tolist(), "f"))
        plan = loaded.index.peek_plan()
        assert plan is not None and plan.sorted_keys is not plan.pair_keys
        fault = FaultRegistry().inject("flat_cell", loaded.index, rng)
        assert fault is not None
        assert loaded.detect() >= 1
        assert loaded.stats()["findings"]["plan"] == 1
        loaded.repair_all()
        assert loaded.health is Health.HEALTHY
        assert loaded.stats()["plan_drops"] == 0
        loaded.verify()
        probe = np.fromiter(model, dtype=np.float64, count=len(model))
        assert loaded.get_batch(probe) == [model[k] for k in probe.tolist()]

    def test_scan_on_clean_index_finds_nothing(self, loaded):
        assert loaded.detect() == 0
        assert loaded.health is Health.HEALTHY
        assert loaded.stats()["scans"] == 1


class TestQuarantinedWrites:
    def test_update_buffers_to_authority_and_survives_repair(
        self, loaded, rng
    ):
        fault = FaultRegistry().inject("slot_clobber", loaded.index, rng)
        assert loaded.detect() >= 1
        assert loaded.engine.is_quarantined(fault.key)

        assert loaded.update(fault.key, "patched")
        (ticket,) = [
            t for t in loaded.engine.tickets if t.buffered
        ]
        assert ("update", fault.key) in ticket.buffered
        assert loaded.get(fault.key) == "patched"  # served from authority

        loaded.repair_all()
        assert loaded.health is Health.HEALTHY
        assert loaded.get(fault.key) == "patched"  # absorbed by the rebuild
        loaded.verify()

    def test_insert_and_delete_inside_quarantine(self, loaded, rng):
        fault = FaultRegistry().inject("leaf_model", loaded.index, rng)
        assert loaded.detect() >= 1
        leaf = fault.node
        fresh = leaf.lb + (fault.key - leaf.lb) / 2.0
        if not loaded.engine.is_quarantined(fresh):
            fresh = fault.key + (leaf.ub - fault.key) / 2.0
        assert loaded.engine.is_quarantined(fresh)

        before = len(loaded)
        assert loaded.insert(fresh, "buffered")
        assert not loaded.insert(fresh, "dup")
        assert loaded.get(fresh) == "buffered"
        assert loaded.delete(fault.key)
        assert loaded.get(fault.key) is None
        assert len(loaded) == before  # +1 insert, -1 delete

        loaded.repair_all()
        assert loaded.health is Health.HEALTHY
        assert loaded.get(fresh) == "buffered"
        assert loaded.get(fault.key) is None
        loaded.verify()

    def test_writes_outside_quarantine_go_through_the_index(
        self, loaded, rng
    ):
        # Poison one leaf's model: everything under the other top-level
        # leaves stays outside the quarantine.
        FaultRegistry().inject("leaf_model", loaded.index, rng)
        assert loaded.detect() >= 1
        keys = loaded.auth.keys
        outside = [
            float(k) for k in keys[::97] if not loaded.engine.is_quarantined(k)
        ]
        assert outside
        assert loaded.update(outside[0], "direct")
        assert loaded.index.get(outside[0]) == "direct"  # tree, not buffer
        loaded.repair_all()
        loaded.verify()


class TestEngineMechanics:
    def test_sanitizer_suspended_while_degraded_and_restored(
        self, loaded, rng
    ):
        sentinel = object()
        loaded.index.sanitizer = sentinel
        FaultRegistry().inject("slot_clobber", loaded.index, rng)
        assert loaded.detect() >= 1
        assert loaded.index.sanitizer is None  # known-damaged: checks off
        loaded.repair_all()
        assert loaded.health is Health.HEALTHY
        assert loaded.index.sanitizer is sentinel

    def test_repair_step_is_bounded_and_reentrant(self, loaded, rng):
        registry = FaultRegistry()
        registry.inject("slot_clobber", loaded.index, rng)
        assert loaded.detect() >= 1
        assert loaded.repair_step() is True   # repaired the only ticket
        assert loaded.repair_step() is False  # nothing left
        assert loaded.health is Health.HEALTHY
        loaded.verify()

    def test_detect_is_idempotent_on_open_tickets(self, loaded, rng):
        FaultRegistry().inject("leaf_model", loaded.index, rng)
        assert loaded.detect() >= 1
        open_tickets = len(loaded.engine.tickets)
        assert loaded.detect() == 0  # same damage, no duplicate tickets
        assert len(loaded.engine.tickets) == open_tickets
        loaded.repair_all()
        loaded.verify()

    def test_repair_splices_go_through_plan_maintenance(self, loaded):
        """A rebuilt leaf's plan extent is spliced by the index's own
        maintenance path, so every repair splice is also counted as a
        subtree recompile, and the spliced plan answers correctly."""
        model = _model(loaded)
        before = loaded.index.plan_subtree_recompiles
        rng = np.random.default_rng(1)
        assert FaultRegistry().inject("leaf_model", loaded.index, rng)
        assert loaded.detect() >= 1
        loaded.repair_all()
        splices = loaded.stats()["plan_splices"]
        assert splices >= 1
        assert loaded.index.plan_subtree_recompiles - before == splices
        assert loaded.index.peek_plan() is not None
        keys = loaded.auth.keys
        expected = [model[k] for k in keys.tolist()]
        assert loaded.get_batch(keys) == expected
        assert [loaded.get(k) for k in keys.tolist()] == expected

    def test_repair_all_respects_max_steps(self, loaded, rng):
        registry = FaultRegistry()
        for kind in ("slot_clobber", "leaf_model"):
            registry.inject(kind, loaded.index, rng)
        assert loaded.detect() >= 1
        with pytest.raises(InvariantError, match="did not converge"):
            loaded.repair_all(max_steps=0)
        loaded.repair_all()
        loaded.verify()


class TestVerify:
    def test_verify_catches_index_authority_divergence(self, loaded):
        loaded.verify()
        loaded.auth.apply_insert(-1.0, "ghost")  # authority-only pair
        with pytest.raises(InvariantError):
            loaded.verify()


class TestPairTable:
    def test_bulk_set_validates(self):
        table = PairTable()
        with pytest.raises(ValueError):
            table.bulk_set(np.array([2.0, 1.0]), ["a", "b"])  # unsorted
        with pytest.raises(ValueError):
            table.bulk_set(np.array([1.0, 2.0]), ["a"])  # length mismatch

    def test_point_operations(self):
        table = PairTable()
        table.bulk_set(np.array([1.0, 3.0]), ["a", "c"])
        assert table.get(1.0) == "a" and table.get(2.0) is None
        assert 3.0 in table and 2.0 not in table
        assert table.apply_insert(2.0, "b")
        assert not table.apply_insert(2.0, "dup")
        assert table.apply_update(2.0, "B")
        assert not table.apply_update(9.0, "absent")
        assert table.apply_delete(1.0)
        assert not table.apply_delete(1.0)
        assert table.items() == [(2.0, "B"), (3.0, "c")]
        assert len(table) == 2
