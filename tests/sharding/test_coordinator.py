"""ShardedDILI end to end: scatter/gather, writes, restarts, rebalance.

Process-backed tests use the real multiprocessing pipe stack (fork
where available); in-process tests cover the same coordinator logic
without spawn cost.  Every read is audited against a shadow dict.
"""

import os

import numpy as np
import pytest

from repro import DILI
from repro.core.dili import DEFAULT_PAYLOAD
from repro.planstore.corrupt import FAULT_PLAN_TORN_HEADER, inject_plan_fault
from repro.planstore.serve import PlanDirectory
from repro.sharding import ShardedDILI, ShardWorker, read_manifest
from tests.payloads import PAYLOAD_KINDS, assert_same_payloads, payloads


def make_data(n=3_000, seed=13):
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(0, 10_000_000, size=n)).astype(np.float64)
    values = [int(k) * 7 for k in keys]
    return keys, values


def make_index(tmp_path, *, num_shards=2, processes=False, **kwargs):
    keys, values = make_data()
    index = ShardedDILI.create(
        tmp_path / "shards",
        keys,
        values,
        num_shards=num_shards,
        partition="range",
        tuning="none",
        processes=processes,
        sync=False,
        **kwargs,
    )
    return index, keys, values


@pytest.mark.parametrize("num_shards", [2, 4])
@pytest.mark.parametrize("processes", [False, True])
def test_scatter_gather_order_identity(tmp_path, num_shards, processes):
    keys, values = make_data()
    shadow = dict(zip(keys.tolist(), values))
    rng = np.random.default_rng(31)
    queries = np.concatenate(
        (
            rng.choice(keys, size=500),
            rng.uniform(-1e6, 1.1e7, size=250),
        )
    )
    rng.shuffle(queries)
    with ShardedDILI.create(
        tmp_path / "s",
        keys,
        values,
        num_shards=num_shards,
        tuning="none",
        processes=processes,
        sync=False,
    ) as index:
        got = index.get_batch(queries)
        present = index.contains_batch(queries)
    want = [shadow.get(float(q)) for q in queries.tolist()]
    assert got == want
    assert present.tolist() == [
        float(q) in shadow for q in queries.tolist()
    ]


@pytest.mark.parametrize("partition", ["range", "aligned"])
def test_nan_key_reads_answer_like_dili(tmp_path, partition):
    keys, values = make_data()
    reference = DILI()
    reference.bulk_load(keys, values)
    probe = np.array([np.nan, keys[5]])
    with ShardedDILI.create(
        tmp_path / "s", keys, values, num_shards=3, partition=partition,
        tuning="none", processes=False, sync=False,
    ) as index:
        assert 0 <= index.router.route([np.nan])[0] < index.num_shards
        assert index.get_batch(probe) == reference.get_batch(probe)
        assert (
            index.contains_batch(probe).tolist()
            == reference.contains_batch(probe).tolist()
        )


def test_writes_visible_and_order_preserved(tmp_path):
    index, keys, values = make_index(tmp_path, num_shards=3)
    with index:
        fresh = np.array([1.5, 5_000_000.5, 9_999_999.5])
        inserted = index.insert_batch(fresh, ["a", "b", "c"])
        assert inserted.tolist() == [True, True, True]
        assert index.get_batch(fresh) == ["a", "b", "c"]
        assert len(index) == len(keys) + 3

        updated = index.update_batch(fresh, ["a2", "b2", "c2"])
        assert updated.tolist() == [True, True, True]
        assert index.get_batch(fresh) == ["a2", "b2", "c2"]

        deleted = index.delete_batch(fresh[:2])
        assert deleted.tolist() == [True, True]
        assert index.get_batch(fresh) == [None, None, "c2"]
        assert len(index) == len(keys) + 1


@pytest.mark.parametrize("processes", [False, True])
def test_a_valueless_insert_batch_stores_the_default_payload(
    tmp_path, processes
):
    index, keys, values = make_index(tmp_path, processes=processes)
    with index:
        fresh = np.array([1.5, 5_000_000.5, 9_999_999.5])
        assert index.insert_batch(fresh).tolist() == [True, True, True]
        assert index.get_batch(fresh) == [DEFAULT_PAYLOAD] * 3
        assert index.get_batch(keys[:50]) == values[:50]
        assert len(index) == len(keys) + 3


def test_count_range_matches_numpy(tmp_path):
    index, keys, _ = make_index(tmp_path, num_shards=4)
    with index:
        rng = np.random.default_rng(37)
        los = rng.uniform(0, 9e6, size=16)
        his = los + rng.uniform(0, 3e6, size=16)
        got = index.count_range_batch(los, his)
        # count_range is half-open [lo, hi).
        want = [
            int(
                np.searchsorted(keys, hi, side="left")
                - np.searchsorted(keys, lo, side="left")
            )
            for lo, hi in zip(los, his)
        ]
        assert got.tolist() == want
        assert index.count_range(
            float(keys[0]), float(keys[-1]) + 1.0
        ) == len(keys)


def test_worker_restart_after_kill(tmp_path):
    index, keys, values = make_index(tmp_path, processes=True)
    shadow = dict(zip(keys.tolist(), values))
    with index:
        victim = 1
        old_pid = index.kill_worker(victim)
        # Stride across the whole keyspace so every shard -- including
        # the corpse -- receives part of the scatter.
        queries = keys[:: max(1, len(keys) // 300)]
        got = index.get_batch(queries)
        assert got == [shadow[float(q)] for q in queries.tolist()]
        assert index.restarts == 1
        status = index.status()
        assert status["health"] == "healthy"
        assert status["shards"][victim]["pid"] != old_pid
        assert status["shards"][victim]["rung"] == 1


def test_split_and_merge_zero_wrong_reads(tmp_path):
    index, keys, values = make_index(tmp_path, num_shards=2)
    shadow = dict(zip(keys.tolist(), values))
    queries = keys[:: max(1, len(keys) // 400)]
    want = [shadow[float(q)] for q in queries.tolist()]
    with index:
        base_generation = index.status()["generation"]
        index.split_shard(0)
        assert index.num_shards == 3
        assert index.get_batch(queries) == want
        assert len(index) == len(keys)

        index.merge_shards(0)
        assert index.num_shards == 2
        assert index.get_batch(queries) == want
        assert len(index) == len(keys)
        status = index.status()
        assert status["generation"] == base_generation + 2
        assert status["partition"] == "range"
        # Every rebalance rewrote the manifest atomically.
        manifest = read_manifest(index.dirpath)
        assert manifest.generation == status["generation"]
        assert len(manifest.shards) == 2


def test_maybe_rebalance_splits_hot_shard(tmp_path):
    index, keys, values = make_index(tmp_path, num_shards=2)
    with index:
        # Hammer shard 0 only: its ops counter becomes the hot outlier.
        hot = keys[keys < np.median(keys)][:256]
        for _ in range(4):
            index.get_batch(hot)
        action = index.maybe_rebalance(split_ratio=1.5)
        assert action is not None and action["action"] == "split"
        assert index.num_shards == 3
        assert index.rebalances == 1
        shadow = dict(zip(keys.tolist(), values))
        got = index.get_batch(keys[:300])
        assert got == [shadow[float(k)] for k in keys[:300].tolist()]


def test_reopen_from_directory(tmp_path):
    index, keys, values = make_index(tmp_path, num_shards=3)
    with index:
        fresh = np.array([2.5, 3.5])
        index.insert_batch(fresh, ["x", "y"])
    with ShardedDILI.open(
        tmp_path / "shards", processes=False, sync=False
    ) as reopened:
        assert len(reopened) == len(keys) + 2
        assert reopened.get_batch(fresh) == ["x", "y"]
        got = reopened.get_batch(keys[:200])
        assert got == values[:200]


def test_invalid_write_batch_rejected_before_scatter(tmp_path):
    index, keys, _ = make_index(tmp_path)
    with index:
        with pytest.raises(ValueError):
            index.insert_batch(np.array([1.0, np.nan]), ["a", "b"])
        with pytest.raises(ValueError):
            index.update_batch(np.array([1.0]), None)
        # Nothing partial happened.
        assert len(index) == len(keys)


def test_write_past_a_torn_newest_base_publishes_a_new_base(tmp_path):
    index, keys, values = make_index(tmp_path)
    with index:
        shard_dir = os.path.join(index.dirpath, index.manifest.shards[0].name)
        plans = PlanDirectory.for_state_dir(shard_dir)
        inject_plan_fault(
            FAULT_PLAN_TORN_HEADER,
            plans.base_path(plans.generations()[-1]),
            np.random.default_rng(3),
        )
        fresh = keys[:20] + 0.5
        assert (index.router.route(fresh) == 0).all()
        # The write is logged and applied, so it must report success.
        assert index.insert_batch(fresh, ["new"] * len(fresh)).all()
        assert index.get_batch(fresh) == ["new"] * len(fresh)
        assert index.get_batch(keys) == values
        shard = index.status()["shards"][0]
        assert (shard["rung"], shard["generation"]) == (1, 2), shard


def test_status_reports_per_shard_counters(tmp_path):
    index, keys, _ = make_index(tmp_path, num_shards=2)
    with index:
        index.get_batch(keys[:100])
        status = index.status()
    assert status["num_shards"] == 2
    assert status["router"]["kind"] == "range"
    assert status["router"]["routed"] >= 100
    total_reads = sum(
        s["ops"]["reads"] for s in status["shards"]
    )
    assert total_reads == 100
    for shard in status["shards"]:
        assert shard["health"] == "healthy"
        assert shard["generations"]
        assert shard["keys"] > 0


#: Malformed ``get_batch`` replies, each made from the worker's real
#: ``(hits, payload, segments)`` reply.
MALFORMED_REPLIES = {
    "mask too long": lambda h, p, s: (
        np.append(h, True), np.append(p, p[:1]), s
    ),
    "mask too short": lambda h, p, s: (h[1:], p[int(h[0]):], s),
    "int mask": lambda h, p, s: (h.astype(np.int64), p, s),
    "payload short": lambda h, p, s: (h, p[:-1], s),
    "payload long": lambda h, p, s: (h, np.append(p, p[:1]), s),
    "payload of one": lambda h, p, s: (h, p[:1], s),
    "2-D payload": lambda h, p, s: (h, p.reshape(-1, 1), s),
    "float payload": lambda h, p, s: (h, p.astype(np.float64), s),
    "2-tuple": lambda h, p, s: (h, p),
}


@pytest.mark.parametrize("plant", sorted(MALFORMED_REPLIES))
def test_a_malformed_reply_never_becomes_an_answer(
    tmp_path, monkeypatch, plant
):
    index, keys, _ = make_index(tmp_path, num_shards=2)
    real = ShardWorker.get_batch

    def planted(self, *args):
        return MALFORMED_REPLIES[plant](*real(self, *args))

    monkeypatch.setattr(ShardWorker, "get_batch", planted)
    got = []
    with index:
        # Hits in both shards, so a length-1 payload could broadcast.
        with pytest.raises(ValueError, match="malformed get_batch reply"):
            got.append(index.get_batch(keys[::10]))
    assert got == []


def _payload_fleet_and_dili(tmp_path, values, processes):
    keys, _ = make_data(n=800, seed=23)
    fleet = ShardedDILI.create(
        tmp_path / "fleet", keys, values(0, len(keys)), num_shards=2,
        tuning="none", processes=processes, sync=False,
    )
    reference = DILI()
    reference.bulk_load(keys, values(0, len(keys)))
    return fleet, reference, keys


@pytest.mark.parametrize("processes", [False, True])
@pytest.mark.parametrize("kind", PAYLOAD_KINDS)
def test_payload_kinds_survive_the_fleet(tmp_path, kind, processes):
    fleet, reference, keys = _payload_fleet_and_dili(
        tmp_path, lambda start, n: payloads(kind, start, n), processes
    )
    added = keys[::3] + 0.5
    removed = keys[1::4]
    updated = keys[::5]
    with fleet:
        for index in (fleet, reference):
            index.insert_batch(added, payloads(kind, 5_000, len(added)))
            index.delete_batch(removed)
            index.update_batch(updated, payloads(kind, 9_000, len(updated)))
        probe = np.concatenate([keys, added, keys + 0.25])
        assert_same_payloads(fleet.get_batch(probe), reference.get_batch(probe))


@pytest.mark.parametrize("processes", [False, True])
def test_int_column_overlay_answers_any_payload_type(tmp_path, processes):
    """An int-column base with int and non-int overlay hits: each
    answer keeps its type (the int64 payload is only for exact ints)."""
    fleet, reference, keys = _payload_fleet_and_dili(
        tmp_path, lambda start, n: list(range(start, start + n)), processes
    )
    odd = [True, np.int64(5), 2**63, "s", ("t", 1)]
    updated = np.concatenate([keys[:3], keys[-2:]])  # both shards
    added = keys[::7] + 0.5
    removed = keys[1::9]
    with fleet:
        for index in (fleet, reference):
            index.insert_batch(added, list(range(7_000, 7_000 + len(added))))
            index.delete_batch(removed)
            index.update_batch(updated, odd)
        probe = np.concatenate([keys, added, keys + 0.25])
        assert_same_payloads(fleet.get_batch(probe), reference.get_batch(probe))
        # Each odd payload as its shard's only non-int hit, beside int
        # hits from the base and from the overlay of both shards.
        intact = np.setdiff1d(keys, np.concatenate([removed, updated]))
        for key in updated:
            few = np.array([key, intact[5], intact[-5], added[1], added[-1]])
            assert_same_payloads(
                fleet.get_batch(few), reference.get_batch(few)
            )
        # Without the odd keys every answer is a Python int or None.
        plain = np.setdiff1d(probe, updated)
        got = fleet.get_batch(plain)
        assert_same_payloads(got, reference.get_batch(plain))
        assert {type(v) for v in got} == {int, type(None)}


class TestPipeProtocolValidation:
    """The frame validators are the pipe protocol's trust boundary:
    whatever a half-dead peer pickles gets shape-checked before
    dispatch (worker side) or field access (coordinator side)."""

    def test_validate_request_passes_good_frames(self):
        from repro.sharding.worker import _validate_request

        frame = (7, "get_batch", (np.asarray([1.0]),))
        assert _validate_request(frame) is frame

    @pytest.mark.parametrize(
        "frame",
        [
            None,
            "stop",
            (1, "get_batch"),  # missing args
            (1, "get_batch", (), "extra"),
            ("1", "get_batch", ()),  # req_id not an int
            (True, "get_batch", ()),  # bool is not a req_id
            (1, 2, ()),  # method not a str
            (1, "get_batch", [1.0]),  # args not a tuple
        ],
    )
    def test_validate_request_rejects_malformed_frames(self, frame):
        from repro.sharding.worker import _validate_request

        with pytest.raises(ValueError):
            _validate_request(frame)

    def test_validate_response_passes_good_frames(self):
        from repro.sharding.coordinator import _validate_response

        frame = (7, True, [1, 2, 3])
        assert _validate_response(frame) is frame

    @pytest.mark.parametrize(
        "frame",
        [
            None,
            (1, True),
            (1, True, None, None),
            ("1", True, None),
            (True, True, None),  # bool is not a req_id
            (1, 1, None),  # ok not a bool
        ],
    )
    def test_validate_response_rejects_malformed_frames(self, frame):
        from repro.sharding.coordinator import _validate_response

        with pytest.raises(ValueError):
            _validate_response(frame)

    def test_worker_survives_until_malformed_frame(self, tmp_path):
        # A process worker that receives garbage exits instead of
        # dispatching on it; the coordinator sees a dead worker and
        # restarts it on the next request.
        index, keys, values = make_index(tmp_path, processes=True)
        with index:
            handle = index._handles[0]
            handle.conn.send("not a frame")
            got = index.get_batch(keys[:10])
            assert got == [values[i] for i in range(10)]


class TestRepublish:
    def test_republish_rolls_every_shard_generation(self, tmp_path):
        index, keys, values = make_index(tmp_path)
        with index:
            new_keys = keys[:50] + 0.5
            index.insert_batch(new_keys, [int(k) for k in new_keys])
            generations = index.republish()
            assert set(generations) == {
                entry.name for entry in index.manifest.shards
            }
            assert all(g >= 1 for g in generations.values())
            # Serving continues from the fresh generation.
            got = index.get_batch(keys[:20])
            assert got == [values[i] for i in range(20)]

    def test_republish_single_shard(self, tmp_path):
        index, keys, values = make_index(tmp_path)
        with index:
            generations = index.republish(0)
            assert len(generations) == 1
