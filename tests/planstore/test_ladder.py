"""The fallback ladder under fire: corruption sweep and crash points.

Zero wrong reads is the contract: a damaged artifact may cost a rung
(older generation, rebuild, or -- at the bottom -- an explicit refusal),
but a served answer must always match the snapshot+WAL oracle, and
damaged files are quarantined for forensics, never deleted.
"""

import os
import pickle
import shutil

import numpy as np
import pytest

from repro.check.plan_audit import audit_plans
from repro.durability.durable import DurableDILI
from repro.durability.faultpoints import (
    PLAN_CRASH_POINTS,
    FaultInjector,
    SimulatedCrash,
)
from repro.durability.recovery import recover
from repro.durability.wal import OP_DELETE
from repro.planstore.chaos import EXPECTED_RUNG, run_plan_chaos
from repro.planstore.corrupt import (
    FAULT_PLAN_FLIPPED_BYTE,
    FAULT_PLAN_MISSING_DELTA,
    FAULT_PLAN_TORN_HEADER,
    PLAN_FAULT_KINDS,
    inject_plan_fault,
)
from repro.planstore.format import read_plan_header
from repro.planstore.serve import STOP_LSN_REGRESS, MmapDILI, PlanDirectory


class TestCorruptionSweep:
    @pytest.mark.parametrize("kind", PLAN_FAULT_KINDS)
    def test_fault_lands_on_expected_rung_with_zero_wrong_reads(
        self, tmp_path, kind
    ):
        result = run_plan_chaos(tmp_path, seed=3, n_keys=250, kinds=(kind,))
        (run,) = result.runs
        assert run.wrong_reads == 0
        assert run.rung == EXPECTED_RUNG[kind], run.report
        assert run.ok
        if kind != FAULT_PLAN_MISSING_DELTA:
            assert len(run.quarantined) >= 1

    def test_full_sweep_is_clean(self, tmp_path):
        result = run_plan_chaos(tmp_path, seed=11, n_keys=200)
        assert result.ok, [r.report for r in result.runs]
        assert result.wrong_reads == 0
        assert len(result.runs) == len(PLAN_FAULT_KINDS)
        # Faults land on both value encodings across the sweep.
        assert {run.int_payloads for run in result.runs} == {True, False}


class TestQuarantine:
    def test_corrupt_base_is_renamed_never_deleted(self, tmp_path):
        rng = np.random.default_rng(5)
        keys = np.unique(rng.uniform(0.0, 1e6, 300))
        durable = DurableDILI(tmp_path, sync=False)
        durable.bulk_load(keys)
        durable.publish_plan()
        oracle = durable.get_batch(keys)

        plans = PlanDirectory.for_state_dir(tmp_path)
        base = plans.base_path(plans.generations()[0])
        original = os.path.getsize(base)
        inject_plan_fault(FAULT_PLAN_FLIPPED_BYTE, base, rng)

        served = MmapDILI(tmp_path)
        assert served.rung == 1  # lazy open cannot see a buffer flip yet
        assert served.get_batch(keys) == oracle  # read-verify + fallback
        assert served.rung == 3, served.events

        # The damaged file survives, bytes intact, under a new name.
        assert not os.path.exists(base)
        (moved,) = plans.quarantined()
        assert moved.endswith(".quarantined")
        assert os.path.getsize(moved) == original
        served.close()
        durable.close()

    def test_flipped_byte_in_the_int_column_is_caught_and_audited(
        self, tmp_path
    ):
        rng = np.random.default_rng(9)
        keys = np.unique(rng.uniform(0.0, 1e6, 300))
        durable = DurableDILI(tmp_path, sync=False)
        durable.bulk_load(keys)  # positional payloads: all ints
        durable.publish_plan()
        durable.close()
        oracle = recover(tmp_path).index.get_batch(keys)

        base = PlanDirectory.for_state_dir(tmp_path).base_path(1)
        header = read_plan_header(base)
        (desc,) = [d for d in header["buffers"] if d["name"] == "value_ints"]
        offset = header["data_start"] + desc["offset"] + desc["nbytes"] // 2
        raw = bytearray(open(base, "rb").read())
        raw[offset] ^= 0xFF
        with open(base, "wb") as fh:
            fh.write(raw)

        (finding,) = audit_plans(tmp_path).findings
        assert finding.kind == "plan-buffer-crc"
        assert "'value_ints'" in finding.detail
        served = MmapDILI(tmp_path)
        assert served.rung == 1  # the O(1) open cannot see it
        assert served.get_batch(keys) == oracle
        assert served.rung == 3, served.events
        assert served.quarantined == [base + ".quarantined"]
        served.close()

    def test_verify_descends_to_rebuild_without_raising(self, tmp_path):
        # With no WAL tail, open stays lazily at rung 1; verify() itself
        # must discover the flip, quarantine, and land on the rung-3
        # rebuild as a no-op — never forward "verify" to the live DILI.
        rng = np.random.default_rng(9)
        keys = np.unique(rng.uniform(0.0, 1e6, 300))
        durable = DurableDILI(tmp_path, sync=False)
        durable.bulk_load(keys)
        durable.publish_plan()
        oracle = durable.get_batch(keys)

        plans = PlanDirectory.for_state_dir(tmp_path)
        inject_plan_fault(
            FAULT_PLAN_FLIPPED_BYTE, plans.base_path(plans.generations()[0]), rng
        )

        served = MmapDILI(tmp_path)
        assert served.rung == 1
        served.verify()  # trips the CRC, re-descends, then no-ops
        assert served.rung == 3, served.events
        assert len(plans.quarantined()) == 1
        assert served.get_batch(keys) == oracle
        served.verify()  # already on the rebuild: still a no-op
        served.close()
        durable.close()

    def test_older_generation_takes_over(self, tmp_path):
        rng = np.random.default_rng(6)
        keys = np.unique(rng.uniform(0.0, 1e6, 300))
        durable = DurableDILI(tmp_path, sync=False)
        durable.bulk_load(keys[:200])
        durable.publish_plan()
        for key in keys[200:]:
            durable.insert(float(key), float(key))
        durable.publish_plan()
        durable.sync_wal()
        oracle = durable.get_batch(keys)

        plans = PlanDirectory.for_state_dir(tmp_path)
        newest = plans.base_path(plans.generations()[-1])
        inject_plan_fault(FAULT_PLAN_FLIPPED_BYTE, newest, rng)

        served = MmapDILI(tmp_path)
        assert served.get_batch(keys) == oracle
        # Rung 2: generation 1 plus WAL-tail replay covers the gap.
        assert served.rung == 2, served.events
        assert served.generation == 1
        served.close()
        durable.close()

    def test_tail_publish_past_a_chain_gap_starts_a_new_base(self, tmp_path):
        rng = np.random.default_rng(7)
        keys = np.unique(rng.uniform(0.0, 1e6, 300))
        durable = DurableDILI(tmp_path, sync=False)
        durable.bulk_load(keys[:200])
        durable.publish_plan()
        for part in (keys[200:250], keys[250:]):
            durable.insert_batch(part, list(part))
            durable.publish_tail()
        plans = PlanDirectory.for_state_dir(tmp_path)
        inject_plan_fault(
            FAULT_PLAN_MISSING_DELTA, plans.delta_path(1, 1), rng
        )
        durable.delete_batch(keys[:20])

        # Readers stop at the gap, so no delta may extend this chain.
        assert durable.publish_tail() == plans.base_path(2)
        durable.sync_wal()
        served = MmapDILI(tmp_path)
        assert served.get_batch(keys) == durable.get_batch(keys)
        assert (served.rung, served.generation) == (1, 2), served.events
        served.close()
        durable.close()

    def test_tail_publish_past_a_torn_base_starts_a_new_base(self, tmp_path):
        rng = np.random.default_rng(8)
        keys = np.unique(rng.uniform(0.0, 1e6, 300))
        durable = DurableDILI(tmp_path, sync=False)
        durable.bulk_load(keys[:200])
        durable.publish_plan()
        plans = PlanDirectory.for_state_dir(tmp_path)
        torn = plans.base_path(1)
        inject_plan_fault(FAULT_PLAN_TORN_HEADER, torn, rng)
        durable.insert_batch(keys[200:], list(keys[200:]))

        # An unreadable newest base takes no deltas: the writer
        # publishes a new base past it and leaves the quarantine to
        # the reader.
        published = durable.publish_tail()
        assert published == plans.base_path(2)
        assert published.endswith(".plan")
        assert os.path.exists(torn)
        durable.close()
        served = MmapDILI(tmp_path)
        assert served.get_batch(keys) == recover(tmp_path).index.get_batch(
            keys
        )
        assert (served.rung, served.generation) == (1, 2), served.events
        served.close()


class TestChainRule:
    """Publisher, reader and auditor follow one chain walk."""

    @staticmethod
    def _even_keys(state) -> DurableDILI:
        keys = np.arange(0.0, 1000.0, 2.0)
        durable = DurableDILI(state, sync=False)
        durable.bulk_load(keys, [f"v{int(k)}" for k in keys])
        durable.publish_plan()
        return durable

    def test_tail_publish_after_a_snapshot_answers_like_recovery(
        self, tmp_path
    ):
        durable = self._even_keys(tmp_path)
        durable.insert_batch([1.0, 3.0], ["a", "b"])
        durable.delete_batch([4.0])
        durable.snapshot()
        durable.insert_batch([5.0], ["c"])
        # The snapshot truncated the two batches a delta on generation 1
        # would need, so the chain is stale and takes no more deltas.
        published = durable.publish_tail()
        durable.close()

        probe = [1.0, 3.0, 4.0, 5.0]
        served = MmapDILI(tmp_path)
        assert served.get_batch(probe) == ["a", "b", None, "c"]
        assert served.get_batch(probe) == recover(tmp_path).index.get_batch(
            probe
        )
        plans = PlanDirectory.for_state_dir(tmp_path)
        assert published == plans.base_path(2)
        assert (served.rung, served.generation) == (1, 2), served.events
        served.close()

    def test_lsn_regress_ends_the_chain_for_every_consumer(self, tmp_path):
        state = tmp_path / "state"
        durable = self._even_keys(state)
        durable.insert_batch([1.0], ["a"])
        durable.publish_tail()  # delta 1 at LSN 1
        durable.close()
        plans = PlanDirectory.for_state_dir(state)
        # Delta 2 claims LSN 0 and deletes what delta 1 inserted.
        regress = plans.publish_delta(
            1,
            [(OP_DELETE, pickle.dumps((1.0,)))],
            seq=2,
            wal_lsn=0,
        )
        twin = tmp_path / "twin"
        shutil.copytree(state, twin)

        walk = plans.walk(1)
        assert [delta["seq"] for delta in walk.deltas] == [1]
        assert (walk.lsn, walk.complete) == (1, False)
        assert walk.stop.kind == STOP_LSN_REGRESS
        assert walk.stop.path == regress

        report = audit_plans(state)
        assert [(f.kind, f.detail) for f in report.findings] == [
            (STOP_LSN_REGRESS, walk.stop.detail)
        ]

        served = MmapDILI(state)
        assert served.get_batch([1.0]) == ["a"]
        assert recover(state).index.get_batch([1.0]) == ["a"]
        assert served.rung == 1, served.events
        assert served.quarantined == [regress + ".quarantined"]
        served.close()

        # The publisher, on an untouched copy, never extends past it.
        with DurableDILI(twin, sync=False) as publisher:
            publisher.insert_batch([3.0], ["b"])
            assert publisher.publish_tail() == (
                PlanDirectory.for_state_dir(twin).base_path(2)
            )


class TestReadBound:
    """The retry bound lists the plan directory only after a failure."""

    @staticmethod
    def _spy_listings(monkeypatch, plans_dir) -> list:
        listed = []
        real = os.listdir

        def listdir(path="."):
            if os.fspath(path) == plans_dir:
                listed.append(path)
            return real(path)

        monkeypatch.setattr(os, "listdir", listdir)
        return listed

    def test_clean_reads_do_not_list_the_plan_directory(
        self, tmp_path, monkeypatch
    ):
        rng = np.random.default_rng(12)
        keys = np.unique(rng.uniform(0.0, 1e6, 300))
        durable = DurableDILI(tmp_path, sync=False)
        durable.bulk_load(keys)
        durable.publish_plan()
        oracle = durable.get_batch(keys)

        served = MmapDILI(tmp_path)
        listed = self._spy_listings(
            monkeypatch, PlanDirectory.for_state_dir(tmp_path).dirpath
        )
        # The first read also verifies every buffer lazily.
        assert served.get_batch(keys) == oracle
        assert served.contains_batch(keys).all()
        assert served.count_range_batch([0.0], [1e6]).tolist() == [len(keys)]
        served.verify()
        assert listed == []
        assert served.rung == 1
        served.close()
        durable.close()

    def test_corrupt_generation_still_descends_the_ladder(
        self, tmp_path, monkeypatch
    ):
        rng = np.random.default_rng(13)
        keys = np.unique(rng.uniform(0.0, 1e6, 300))
        durable = DurableDILI(tmp_path, sync=False)
        durable.bulk_load(keys[:200])
        durable.publish_plan()
        durable.insert_batch(keys[200:], list(keys[200:]))
        durable.publish_plan()
        durable.sync_wal()
        oracle = durable.get_batch(keys)

        plans = PlanDirectory.for_state_dir(tmp_path)
        newest = plans.base_path(plans.generations()[-1])
        inject_plan_fault(FAULT_PLAN_FLIPPED_BYTE, newest, rng)
        served = MmapDILI(tmp_path)
        assert served.rung == 1  # the flip hides until the first read
        listed = self._spy_listings(monkeypatch, plans.dirpath)

        assert served.get_batch(keys) == oracle
        assert served.rung == 2, served.events
        assert served.generation == 1
        assert len(served.quarantined) == 1
        assert listed  # the failed read took the bound and re-descended
        listed.clear()
        assert served.get_batch(keys) == oracle
        assert listed == []
        served.close()
        durable.close()


class TestCrashPoints:
    @pytest.mark.parametrize("point", PLAN_CRASH_POINTS)
    def test_publish_crash_never_costs_a_read(self, tmp_path, point):
        rng = np.random.default_rng(9)
        keys = np.unique(rng.uniform(0.0, 1e6, 300))
        faults = FaultInjector()
        durable = DurableDILI(tmp_path, sync=False, faults=faults)
        durable.bulk_load(keys[:250])
        if point.endswith("delta_write"):
            durable.publish_plan()  # deltas need a base to extend
        for key in keys[250:]:
            durable.insert(float(key), float(key))
        durable.sync_wal()
        oracle = durable.get_batch(keys)

        faults.arm(point)
        with pytest.raises(SimulatedCrash):
            if point.endswith("delta_write"):
                durable.publish_tail()
            else:
                durable.publish_plan()
        faults.disarm()

        served = MmapDILI(tmp_path)
        assert served.get_batch(keys) == oracle, point
        assert served.rung in (1, 2, 3), served.events
        # A crash may leave a temp file behind (kill-9 cannot clean up),
        # but the generation listing must never adopt it.
        plans_dir = tmp_path / "plans"
        if plans_dir.exists():
            plans = PlanDirectory.for_state_dir(tmp_path)
            listed = {
                os.path.basename(plans.base_path(g))
                for g in plans.generations()
            }
            for p in plans_dir.iterdir():
                if p.name.endswith(".tmp"):
                    assert p.name not in listed
        served.close()
        durable.close()
