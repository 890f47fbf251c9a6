"""PlanStore vs the live index: identical answers, lazy verification."""

import json
import pickle
import struct
import zlib

import numpy as np
import pytest

import repro.planstore.format as fmt
from repro import DILI
from repro.durability.durable import DurableDILI
from repro.durability.wal import (
    OP_DELETE,
    OP_DELETE_BATCH,
    OP_INSERT,
    OP_INSERT_BATCH,
    OP_UPDATE,
)
from repro.planstore.format import (
    PLAN_MAGIC,
    PlanFormatError,
    PlanStoreError,
    read_plan_header,
    write_delta_file,
    write_plan_file,
)
from repro.planstore.serve import STOP_FOREIGN, STOP_GAP, PlanDirectory
from repro.planstore.store import PlanStore
from tests.payloads import (
    PAYLOAD_KINDS,
    assert_same_payloads,
    payload_rounds,
    payloads,
)


def _enc(*args):
    return pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL)


@pytest.fixture()
def plan_path(tmp_path, plan):
    path = tmp_path / "plan-00000001.plan"
    write_plan_file(path, plan, wal_lsn=0, generation=1)
    return path


class TestBaseEquality:
    def test_get_contains_count_match_the_live_index(
        self, plan_path, index, keys, rng
    ):
        store = PlanStore.open(plan_path)
        probe = np.concatenate(
            [keys[::7], rng.uniform(0.0, 1e6, 500)]  # hits and misses
        )
        assert store.get_batch(probe) == index.get_batch(probe)
        assert (
            store.contains_batch(probe) == index.contains_batch(probe)
        ).all()
        los = rng.uniform(0.0, 1e6, 64)
        his = los + rng.uniform(0.0, 2e5, 64)
        assert (
            store.count_range_batch(los, his)
            == index.count_range_batch(los, his)
        ).all()
        assert len(store) == len(index)
        store.close()

    def test_open_does_not_read_buffers(self, plan_path):
        # Lazy verification: corrupt a buffer byte *after* the header;
        # open must still succeed (it maps, it does not read) ...
        raw = bytearray(plan_path.read_bytes())
        raw[len(raw) - 100] ^= 0xFF
        plan_path.write_bytes(raw)
        store = PlanStore.open(plan_path)
        # ... and the first verified read must catch the lie.
        with pytest.raises(PlanFormatError, match="checksum"):
            store.verify()

    def test_read_verifies_and_raises_on_corruption(
        self, plan_path, keys
    ):
        raw = bytearray(plan_path.read_bytes())
        raw[len(raw) - 100] ^= 0xFF
        plan_path.write_bytes(raw)
        store = PlanStore.open(plan_path)
        with pytest.raises(PlanStoreError):
            store.get_batch(keys[:32])


class TestMaintainedPlanFile:
    """A plan file written from a maintained plan -- whose pair table
    carries garbage and is not in key order -- is the canonical file a
    fresh compile writes."""

    def test_file_matches_fresh_compile_and_live_answers(self, tmp_path):
        from repro import DILI
        from repro.core.flat import compile_plan

        rng = np.random.default_rng(53)
        keys = np.unique(rng.uniform(0.0, 1e6, 4000))
        index = DILI()
        index.bulk_load(keys, [f"v{i}" for i in range(len(keys))])
        index.get_batch(keys[:4])
        fresh = np.setdiff1d(rng.uniform(0.0, 1e6, 700), keys)
        index.insert_batch(fresh, [f"n{i}" for i in range(len(fresh))])
        index.delete_batch(keys[::5])
        maintained = index.peek_plan()
        assert maintained is not None and index.plan_recompiles == 1
        assert maintained.num_pairs > len(index)  # it does carry garbage
        paths = (tmp_path / "maintained.plan", tmp_path / "fresh.plan")
        write_plan_file(paths[0], index.export_plan())
        write_plan_file(paths[1], compile_plan(index.root))
        headers = [read_plan_header(path) for path in paths]
        assert headers[0]["buffers"] == headers[1]["buffers"]
        assert headers[0]["sorted_is_pair"]
        store = PlanStore.open(paths[0])
        live = np.sort(np.fromiter(index.keys(), dtype=np.float64))
        los = rng.uniform(0.0, 1e6, 300)
        his = los + rng.uniform(0.0, 1e5, 300)
        want = np.searchsorted(live, his) - np.searchsorted(live, los)
        assert store.count_range_batch(los, his).tolist() == want.tolist()
        assert index.count_range_batch(los, his).tolist() == want.tolist()
        probe = np.concatenate([keys, fresh])
        assert store.get_batch(probe) == index.get_batch(probe)
        store.close()

    def test_audit_flags_an_out_of_order_key_view(self, tmp_path, plan):
        from repro.check.plan_audit import audit_plans
        from repro.core.flat import FlatPlan

        keys = plan.pair_keys.copy()
        keys[[0, 1]] = keys[[1, 0]]
        bad = FlatPlan(
            kind=plan.kind, slope=plan.slope, intercept=plan.intercept,
            size=plan.size, base=plan.base, region=plan.region,
            slot_kind=plan.slot_kind, slot_ref=plan.slot_ref,
            pair_keys=keys, dense_keys=plan.dense_keys,
            values=plan.values, sorted_keys=keys, depth=plan.depth,
        )
        plans = PlanDirectory.for_state_dir(tmp_path)
        plans.publish_base(plan, wal_lsn=0)
        assert audit_plans(tmp_path).clean
        plans.publish_base(bad, wal_lsn=0)
        report = audit_plans(tmp_path)
        assert [f.kind for f in report.findings] == ["plan-key-order"]
        assert report.verified_generations == 1


class TestOverlay:
    def test_ops_shadow_the_base(self, plan_path, index, keys):
        store = PlanStore.open(plan_path)
        k_new, k_del, k_upd = 1e6 + 3.5, float(keys[10]), float(keys[20])
        store.apply_ops(
            [
                (OP_INSERT, _enc(k_new, "fresh")),
                (OP_DELETE, _enc(k_del)),
                (OP_UPDATE, _enc(k_upd, "bumped")),
            ]
        )
        probe = [k_new, k_del, k_upd, float(keys[30])]
        assert store.get_batch(probe) == [
            "fresh", None, "bumped", index.get_batch([keys[30]])[0]
        ]
        assert list(store.contains_batch(probe)) == [
            True, False, True, True
        ]
        assert len(store) == len(index)  # +1 insert, -1 delete

    def test_batch_opcodes_and_range_counts(self, plan_path, index, keys):
        store = PlanStore.open(plan_path)
        added = [2e6 + i for i in range(8)]
        removed = [float(k) for k in keys[40:44]]
        store.apply_ops(
            [
                (OP_INSERT_BATCH, _enc(added, ["x"] * len(added))),
                (OP_DELETE_BATCH, _enc(removed)),
            ]
        )
        los = np.array([0.0, 2e6, float(keys[35])])
        his = np.array([3e6, 2e6 + 100.0, float(keys[50])])
        base = index.count_range_batch(los, his)
        got = store.count_range_batch(los, his)
        assert got[0] == base[0] + len(added) - len(removed)
        assert got[1] == base[1] + len(added)
        assert got[2] == base[2] - len(removed)

    def test_overlay_only_insert_then_delete_vanishes(self, plan_path):
        store = PlanStore.open(plan_path)
        store.apply_ops(
            [(OP_INSERT, _enc(5e6, "temp")), (OP_DELETE, _enc(5e6))]
        )
        assert store.get_batch([5e6]) == [None]
        assert not store.contains_batch([5e6])[0]
        assert store.overlay_size == 0


class TestDeltaChain:
    """The one chain walk (``PlanDirectory.walk``) over a base's deltas."""

    def _delta(self, tmp_path, seq, ops, *, generation=1, lsn=None):
        path = tmp_path / f"plan-00000001.{seq:04d}.delta"
        write_delta_file(
            path, ops, base_generation=generation, seq=seq,
            wal_lsn=lsn if lsn is not None else seq,
        )
        return path

    def test_chain_replays_in_order(self, tmp_path, plan_path):
        self._delta(tmp_path, 1, [(OP_INSERT, _enc(7e6, "a"))])
        self._delta(tmp_path, 2, [(OP_UPDATE, _enc(7e6, "b"))])
        walk = PlanDirectory(tmp_path).walk(1)
        assert (walk.stop, walk.complete, walk.lsn) == (None, True, 2)
        store = PlanStore.open(plan_path)
        for delta in walk.deltas:
            store.apply_ops(delta["ops"], wal_lsn=delta["wal_lsn"])
        assert store.get_batch([7e6]) == ["b"]
        assert store.wal_lsn == 2

    def test_gap_in_chain_is_refused(self, tmp_path, plan_path):
        d2 = self._delta(tmp_path, 2, [(OP_INSERT, _enc(7e6, "a"))])
        walk = PlanDirectory(tmp_path).walk(1)
        assert (walk.deltas, walk.complete, walk.lsn) == ([], False, 0)
        assert walk.stop.kind == STOP_GAP
        assert walk.stop.path == str(d2)
        assert "expected delta seq 1" in walk.stop.detail

    def test_foreign_generation_is_refused(self, tmp_path, plan_path):
        d1 = self._delta(
            tmp_path, 1, [(OP_INSERT, _enc(7e6, "a"))], generation=9
        )
        walk = PlanDirectory(tmp_path).walk(1)
        assert (walk.deltas, walk.complete) == ([], False)
        assert walk.stop.kind == STOP_FOREIGN
        assert walk.stop.path == str(d1)
        assert "targets generation 9" in walk.stop.detail


class TestPublishPlan:
    @pytest.mark.parametrize("concurrent", [False, True])
    def test_publish_reuses_a_maintained_plan_and_keeps_no_other(
        self, tmp_path, keys, concurrent
    ):
        durable = DurableDILI(tmp_path, sync=False, concurrent=concurrent)
        durable.bulk_load(keys, [f"v{i}" for i in range(len(keys))])
        inner = durable.recovery.index
        plans = PlanDirectory.for_state_dir(tmp_path)
        # No maintained plan: publish compiles one for the file only,
        # so later writes have no plan to maintain.
        assert durable.publish_plan() == 1
        assert inner.peek_plan() is None
        durable.insert_batch([7e6], ["a"])
        assert inner.peek_plan() is None

        # A maintained plan (warmed by a batch read) is the one written.
        assert durable.get_batch([7e6]) == ["a"]
        plan = inner.peek_plan()
        assert durable.publish_plan() == 2
        assert inner.peek_plan() is plan
        assert inner.plan_recompiles == 1
        durable.close()

        # Reopened, the same tree has no plan: a fresh compile for the
        # file writes the same buffers as the maintained plan did.
        durable = DurableDILI(tmp_path, sync=False, concurrent=concurrent)
        assert durable.publish_plan() == 3
        assert durable.recovery.index.peek_plan() is None
        maintained, fresh = (
            [b["crc32"] for b in read_plan_header(path)["buffers"]]
            for path in (plans.base_path(2), plans.base_path(3))
        )
        assert maintained == fresh
        served = durable.serve_mmap()
        assert served.get_batch(keys[:50]) == durable.get_batch(keys[:50])
        served.close()
        durable.close()


class TestPayloadKinds:
    @pytest.mark.parametrize("kind", PAYLOAD_KINDS)
    def test_mmap_reads_match_scalar_get(self, tmp_path, kind):
        durable = DurableDILI(tmp_path, sync=False)
        probe = payload_rounds(durable, kind)
        # The published payload table was maintained by patches and
        # splices; a WAL tail past it lands in the overlay.
        assert durable.index.plan_patches > 0
        assert durable.index.plan_subtree_recompiles > 0
        assert durable.index.plan_recompiles == 1
        durable.publish_plan()
        tail = probe[2::7] + 0.125
        durable.insert_batch(tail, payloads(kind, 30_000, len(tail)))
        durable.delete_batch(probe[::9])
        durable.sync_wal()

        probe = np.concatenate([probe, tail])
        served = durable.serve_mmap()
        assert served.rung == 1, served.events
        assert_same_payloads(
            served.get_batch(probe), [durable.get(float(k)) for k in probe]
        )
        served.close()
        durable.close()


PICKLED = {"value_offsets", "value_bytes"}


class TestIntValueColumn:
    """All-int payloads are one int64 column; any other set is pickled."""

    @staticmethod
    def _publish(tmp_path, values):
        keys = np.arange(len(values), dtype=np.float64) * 2.0
        index = DILI()
        index.bulk_load(keys, values)
        path = tmp_path / "plan-00000001.plan"
        write_plan_file(path, index.export_plan(), generation=1)
        names = {d["name"] for d in read_plan_header(path)["buffers"]}
        return path, keys, index, names

    def test_int_payloads_come_back_as_python_ints(self, tmp_path):
        values = [-(2**63), 2**63 - 1, 0] + list(range(-50, 250))
        path, keys, index, names = self._publish(tmp_path, values)
        assert "value_ints" in names
        assert not names & PICKLED
        store = PlanStore.open(path)
        probe = np.concatenate([keys, keys + 0.5])
        got = store.get_batch(probe)
        assert got == index.get_batch(probe)
        assert got[:len(keys)] == values
        assert all(type(v) is int for v in got[:len(keys)])
        store.close()

    @pytest.mark.parametrize(
        "odd",
        [True, np.int64(5), 2**63, "s"],
        ids=["bool", "np.int64", "2**63", "str"],
    )
    def test_other_payload_sets_keep_the_pickled_column(
        self, tmp_path, odd
    ):
        values = list(range(200))
        values[17] = odd
        path, keys, _, names = self._publish(tmp_path, values)
        assert PICKLED <= names
        assert "value_ints" not in names
        store = PlanStore.open(path)
        assert_same_payloads(store.get_batch(keys), values)
        store.close()

    def test_a_file_with_pickled_int_payloads_still_opens(
        self, tmp_path, monkeypatch
    ):
        # Plan files written before the int column pickled every payload.
        monkeypatch.setattr(fmt, "int_column", lambda values: None)
        values = list(range(300))
        path, keys, index, names = self._publish(tmp_path, values)
        monkeypatch.undo()
        assert PICKLED <= names
        store = PlanStore.open(path)
        got = store.get_batch(keys)
        assert got == values and all(type(v) is int for v in got)
        store.close()

    def test_header_without_any_value_column_is_refused(self, tmp_path):
        path, _, _, _ = self._publish(tmp_path, list(range(100)))
        header = read_plan_header(path)
        body = path.read_bytes()[header.pop("data_start"):]
        for desc in header["buffers"]:
            if desc["name"] == "value_ints":
                desc["name"] = "value_intz"  # same length, same file size
        blob = json.dumps(header, sort_keys=True).encode("ascii")
        path.write_bytes(
            PLAN_MAGIC + struct.pack("<II", len(blob), zlib.crc32(blob))
            + blob + body
        )
        with pytest.raises(PlanFormatError, match="missing buffers"):
            read_plan_header(path)
