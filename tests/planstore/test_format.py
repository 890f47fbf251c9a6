"""On-disk plan/delta framing: round-trips, and every way a file can lie."""

import json
import pickle

import numpy as np
import pytest

from repro import DILI, DiliConfig
from repro.durability.wal import OP_DELETE, OP_INSERT
from repro.planstore.format import (
    COMMIT_MARKER,
    PLAN_MAGIC,
    PLAN_VERSION,
    PlanFormatError,
    PlanStoreError,
    encode_values,
    read_delta_file,
    read_plan_header,
    write_delta_file,
    write_plan_file,
)
from repro.planstore.store import PlanStore


def _enc(*args):
    return pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL)


class TestPlanRoundTrip:
    def test_header_reflects_the_plan(self, tmp_path, plan):
        path = tmp_path / "p.plan"
        nbytes = write_plan_file(path, plan, wal_lsn=17, generation=3)
        assert path.stat().st_size == nbytes
        header = read_plan_header(path)
        assert header["version"] == PLAN_VERSION
        assert header["wal_lsn"] == 17
        assert header["generation"] == 3
        assert header["depth"] == plan.depth
        assert header["num_pairs"] == plan.num_pairs
        assert header["value_count"] == len(plan.values)
        names = [d["name"] for d in header["buffers"]]
        for required in ("kind", "slope", "intercept", "slot_ref",
                         "pair_keys", "value_bytes", "value_offsets"):
            assert required in names

    def test_file_starts_with_magic_ends_with_commit(self, tmp_path, plan):
        path = tmp_path / "p.plan"
        write_plan_file(path, plan)
        raw = path.read_bytes()
        assert raw.startswith(PLAN_MAGIC)
        assert raw.endswith(COMMIT_MARKER)

    def test_encode_values_round_trips(self):
        values = ["a", 17, None, {"k": [1.5]}]
        blob, offsets = encode_values(values)
        out = [
            pickle.loads(blob[offsets[i]:offsets[i + 1]].tobytes())
            for i in range(len(values))
        ]
        assert out == values


class TestAlignedLayout:
    """Every buffer starts at a 64-byte-aligned file offset, so every
    column a store maps is 64-byte aligned, whatever the header's
    length, the value encoding or the tree's shape."""

    #: wal_lsn / generation pairs across digit counts: headers of many
    #: lengths, so the padding takes many values.
    STAMPS = [
        (lsn, gen)
        for lsn in (0, 7, 42, 999, 12_345, 10**9 + 1, 2**62)
        for gen in (0, 3, 10**4, 987_654_321)
    ]

    @pytest.mark.parametrize("dense", [False, True], ids=["pairs", "dense"])
    @pytest.mark.parametrize(
        "ints", [True, False], ids=["value_ints", "pickled"]
    )
    def test_every_mapped_buffer_is_64_byte_aligned(
        self, tmp_path, dense, ints
    ):
        rng = np.random.default_rng(5)
        keys = np.unique(rng.lognormal(0.0, 1.0, 3000) * 1e6)
        values = (
            list(range(len(keys))) if ints
            else [f"v{i}" for i in range(len(keys))]
        )
        index = DILI(DiliConfig(local_optimization=not dense))
        index.bulk_load(keys, values)
        plan = index.export_plan()
        assert (plan.num_pairs == 0) == dense
        pads = set()
        for lsn, gen in self.STAMPS:
            path = tmp_path / f"p-{lsn}-{gen}.plan"
            write_plan_file(path, plan, wal_lsn=lsn, generation=gen)
            header = read_plan_header(path)
            names = {d["name"] for d in header["buffers"]}
            assert ("value_ints" in names) == ints
            assert ("sorted_keys" in names) == dense
            assert header["data_start"] % 64 == 0
            assert all(d["offset"] % 64 == 0 for d in header["buffers"])
            # The padding is a JSON value: the header dumps again to
            # its own length.
            pads.add(len(header["pad"]))
            data_start = header.pop("data_start")
            assert 16 + len(json.dumps(header, sort_keys=True)) == data_start
            store = PlanStore.open(path)
            assert set(store._arrays) == names
            mapped = [a for a in store._arrays.values() if a.size]
            assert [a.ctypes.data % 64 for a in mapped] == [0] * len(mapped)
            probe = np.concatenate([keys[::97], keys[::89] + 0.5])
            assert store.get_batch(probe) == index.get_batch(probe)
            store.close()
        assert len(pads) > 8


class TestPlanRejection:
    """Every lie a base file can tell must be a PlanStoreError at open."""

    @pytest.fixture()
    def path(self, tmp_path, plan):
        p = tmp_path / "p.plan"
        write_plan_file(p, plan, wal_lsn=5)
        return p

    def test_bad_magic(self, path):
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTAPLAN"
        path.write_bytes(raw)
        with pytest.raises(PlanFormatError, match="not a DILI plan"):
            read_plan_header(path)

    def test_header_bitflip(self, path):
        raw = bytearray(path.read_bytes())
        raw[40] ^= 0xFF  # inside the JSON header blob
        path.write_bytes(raw)
        with pytest.raises(PlanStoreError):
            read_plan_header(path)

    def test_missing_commit_marker(self, path):
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - len(COMMIT_MARKER)])
        with pytest.raises(PlanStoreError, match="commit"):
            read_plan_header(path)

    def test_truncated_buffer_region(self, path):
        raw = path.read_bytes()
        # Cut from the middle and re-append the marker: the recorded
        # file_size no longer matches reality.
        path.write_bytes(raw[: len(raw) // 2] + COMMIT_MARKER)
        with pytest.raises(PlanStoreError):
            read_plan_header(path)

    def test_future_version_is_refused(self, path, monkeypatch, tmp_path,
                                       plan):
        import repro.planstore.format as fmt

        monkeypatch.setattr(fmt, "PLAN_VERSION", PLAN_VERSION + 9)
        future = tmp_path / "future.plan"
        write_plan_file(future, plan)
        monkeypatch.undo()
        with pytest.raises(PlanFormatError, match="version"):
            read_plan_header(future)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.plan"
        p.write_bytes(b"")
        with pytest.raises(PlanStoreError):
            read_plan_header(p)


class TestDeltaFraming:
    OPS = [
        (OP_INSERT, _enc(1.5, "one")),
        (OP_INSERT, _enc(2.5, "two")),
        (OP_DELETE, _enc(1.5)),
    ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "d.delta"
        write_delta_file(
            path, self.OPS, base_generation=2, seq=1, wal_lsn=44
        )
        delta = read_delta_file(path)
        assert delta["base_generation"] == 2
        assert delta["seq"] == 1
        assert delta["wal_lsn"] == 44
        assert delta["ops"] == self.OPS

    def test_payload_bitflip_is_caught_before_unpickling(self, tmp_path):
        path = tmp_path / "d.delta"
        write_delta_file(
            path, self.OPS, base_generation=1, seq=1, wal_lsn=3
        )
        raw = bytearray(path.read_bytes())
        raw[-20] ^= 0xFF  # inside the pickled payload
        path.write_bytes(raw)
        with pytest.raises(PlanStoreError):
            read_delta_file(path)

    def test_truncation_is_caught(self, tmp_path):
        path = tmp_path / "d.delta"
        write_delta_file(
            path, self.OPS, base_generation=1, seq=1, wal_lsn=3
        )
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(PlanStoreError):
            read_delta_file(path)
