"""A shard write's plan-store upkeep costs what the write costs.

``DurableDILI.publish_tail`` extends the chain it published itself
without reading it back, ``MmapDILI.refresh`` reads only the WAL bytes
past the record it last replayed, and ``PlanStore.apply_ops`` edits an
overlay of sorted arrays.  The counts here are deterministic: delta
files read back and WAL byte ranges read.  The fallbacks keep the
chain walk's answers: whatever invalidates the publisher's memo makes
it walk the chain, and a rewritten WAL is scanned from its start.
"""

import builtins
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.durability.wal as wal_mod
import repro.planstore.serve as serve
from repro import DILI
from repro.durability.durable import DurableDILI
from repro.durability.recovery import SNAPSHOT_NAME, recover
from repro.durability.snapshot import write_snapshot
from repro.durability.wal import (
    OP_DELETE_BATCH,
    OP_INSERT_BATCH,
    OP_UPDATE_BATCH,
)
from repro.planstore.corrupt import FAULT_PLAN_TORN_HEADER, inject_plan_fault
from repro.planstore.format import write_plan_file
from repro.planstore.serve import MmapDILI, PlanDirectory
from repro.planstore.store import PlanStore

KEYS = np.arange(0.0, 2000.0, 2.0)


class _SpiedFile:
    """A read-only file that logs ``(offset, nbytes)`` of every read."""

    def __init__(self, fh, log: list) -> None:
        self._fh = fh
        self._log = log

    def read(self, n=-1):
        offset = self._fh.tell()
        data = self._fh.read(n)
        if data:
            self._log.append((offset, len(data)))
        return data

    def seek(self, *args):
        return self._fh.seek(*args)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.fixture()
def wal_reads(monkeypatch):
    """``(offset, nbytes)`` of every byte range read from a WAL file."""
    log: list = []

    def spied_open(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        return _SpiedFile(fh, log) if mode == "rb" else fh

    monkeypatch.setattr(wal_mod, "open", spied_open, raising=False)
    return log


@pytest.fixture()
def delta_reads(monkeypatch):
    """Paths of every delta file read back and verified."""
    log: list = []
    real = serve.read_delta_file

    def spied(path):
        log.append(os.fspath(path))
        return real(path)

    monkeypatch.setattr(serve, "read_delta_file", spied)
    return log


@pytest.fixture()
def durable(tmp_path):
    durable = DurableDILI(tmp_path, sync=False)
    durable.bulk_load(KEYS, [int(k) for k in KEYS])
    durable.publish_plan()
    yield durable
    durable.close()


def _batch(step: int) -> np.ndarray:
    return np.arange(8.0) * 2.0 + 1.0 + 16.0 * step


def _wrong_reads(served: MmapDILI, state_dir) -> int:
    probe = np.concatenate([KEYS, KEYS + 1.0])
    oracle = recover(state_dir).index
    wrong = sum(
        g != w
        for g, w in zip(served.get_batch(probe), oracle.get_batch(probe))
    )
    los = probe[::7]
    his = los + 37.0
    wrong += int(np.sum(
        served.count_range_batch(los, his)
        != oracle.count_range_batch(los, his)
    ))
    return wrong + abs(len(served) - len(oracle))


def test_publish_tail_reads_only_the_batch_just_logged(
    tmp_path, durable, delta_reads, wal_reads
):
    plans = PlanDirectory.for_state_dir(tmp_path)
    durable.insert_batch(_batch(0), list(range(8)))
    durable.publish_tail()  # the memo holds since publish_plan
    assert delta_reads == []
    for step in range(1, 33):
        chain_end = durable.wal.cursor.offset  # the chain's last record
        durable.insert_batch(_batch(step), list(range(8)))
        record = durable.wal.cursor.offset - chain_end
        wal_reads.clear()
        path = durable.publish_tail()
        assert path == plans.delta_path(1, step + 1)
        # The chain's last CRC, then the new record: nothing older.
        assert min(offset for offset, _ in wal_reads) == chain_end - 4
        assert sum(n for _, n in wal_reads) == 4 + record
    assert delta_reads == []

    served = MmapDILI(tmp_path)  # a fresh reader walks all 33 deltas
    assert len(delta_reads) == 33
    assert (served.rung, served.generation) == (1, 1), served.events
    assert _wrong_reads(served, tmp_path) == 0
    served.close()


def test_a_fresh_writer_walks_once_then_reads_nothing_back(
    tmp_path, durable, delta_reads
):
    for step in range(3):
        durable.insert_batch(_batch(step), list(range(8)))
        durable.publish_tail()
    durable.close()
    with DurableDILI(tmp_path, sync=False) as writer:
        for step in range(3, 6):
            writer.insert_batch(_batch(step), list(range(8)))
            assert writer.publish_tail().endswith(f".{step + 1:04d}.delta")
        assert len(delta_reads) == 3  # one walk of the three deltas
    served = MmapDILI(tmp_path)
    assert _wrong_reads(served, tmp_path) == 0
    served.close()


def test_refresh_reads_no_wal_bytes_before_its_store_lsn(
    tmp_path, durable, wal_reads
):
    served = MmapDILI(tmp_path)
    for step in range(12):
        replayed_end = durable.wal.cursor.offset if step else 8
        durable.insert_batch(_batch(step), list(range(8)))
        record = durable.wal.cursor.offset - replayed_end
        wal_reads.clear()
        served.refresh()
        assert served.wal_lsn == durable.wal.last_seqno
        if step:  # the last replayed CRC, then the new record
            assert min(o for o, _ in wal_reads) == replayed_end - 4
            assert sum(n for _, n in wal_reads) == 4 + record
        else:  # nothing replayed yet: the log from its header
            assert sum(n for _, n in wal_reads) == 8 + record
    assert (served.rung, served.generation) == (1, 1), served.events
    assert _wrong_reads(served, tmp_path) == 0
    served.close()


def test_a_truncated_and_regrown_wal_is_rescanned(
    tmp_path, durable, wal_reads
):
    served = MmapDILI(tmp_path)
    for step in range(4):
        durable.insert_batch(_batch(step), list(range(8)))
    served.refresh()
    remembered = durable.wal.cursor.offset
    # A checkpoint that truncates nothing the handle has not replayed,
    # then writes that grow the new log past the remembered offset.
    durable.snapshot()
    step = 4
    while durable.wal.cursor is None or durable.wal.cursor.offset <= (
        remembered + 64
    ):
        durable.delete_batch(KEYS[8 * step:8 * step + 3])
        durable.insert_batch(_batch(step), [-step] * 8)
        step += 1
    wal_reads.clear()
    served.refresh()

    assert (0, 8) in wal_reads  # read again from the header
    assert served.wal_lsn == durable.wal.last_seqno
    assert (served.rung, served.generation) == (1, 1), served.events
    assert _wrong_reads(served, tmp_path) == 0
    served.close()


def _tear_header(durable, tmp_path):
    plans = PlanDirectory.for_state_dir(tmp_path)
    inject_plan_fault(
        FAULT_PLAN_TORN_HEADER, plans.base_path(1), np.random.default_rng(3)
    )


def _delete_delta(durable, tmp_path):
    os.unlink(PlanDirectory.for_state_dir(tmp_path).delta_path(1, 1))


def _reader_quarantines_delta(durable, tmp_path):
    path = PlanDirectory.for_state_dir(tmp_path).delta_path(1, 2)
    with open(path, "r+b") as fh:  # flipped in place: the reader's to see
        fh.seek(os.path.getsize(path) - 12)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0xFF]))
    reader = MmapDILI(tmp_path)
    assert reader.quarantined == [path + ".quarantined"]
    reader.close()


def _foreign_snapshot(durable, tmp_path):
    # A checkpoint this writer did not take (a backup tool's, say),
    # of a write past the chain's LSN: the chain is stale now.
    durable.insert_batch([9001.0], [1])
    durable.sync_wal()
    write_snapshot(
        recover(tmp_path).index,
        os.path.join(tmp_path, SNAPSHOT_NAME),
        last_seqno=durable.wal.last_seqno,
    )


@pytest.mark.parametrize(
    "disturb",
    [_tear_header, _delete_delta, _reader_quarantines_delta,
     _foreign_snapshot],
)
def test_a_changed_chain_makes_the_next_tail_a_new_base(
    tmp_path, durable, disturb
):
    for step in range(2):
        durable.insert_batch(_batch(step), list(range(8)))
        durable.publish_tail()
    disturb(durable, tmp_path)
    durable.insert_batch(_batch(2), list(range(8)))

    plans = PlanDirectory.for_state_dir(tmp_path)
    assert durable.publish_tail() == plans.base_path(2)
    durable.sync_wal()
    served = MmapDILI(tmp_path)
    assert (served.rung, served.generation) == (1, 2), served.events
    assert _wrong_reads(served, tmp_path) == 0
    served.close()
    # The new base's chain takes the next delta without a walk.
    durable.insert_batch(_batch(3), list(range(8)))
    assert durable.publish_tail() == plans.delta_path(2, 1)


def test_another_writers_base_is_the_chain_extended(tmp_path, durable):
    durable.insert_batch(_batch(0), list(range(8)))
    durable.publish_tail()
    durable.close()
    with DurableDILI(tmp_path, sync=False) as other:
        assert other.publish_plan() == 2
    with DurableDILI(tmp_path, sync=False) as writer:
        writer.insert_batch(_batch(1), list(range(8)))
        plans = PlanDirectory.for_state_dir(tmp_path)
        assert writer.publish_tail() == plans.delta_path(2, 1)


def test_repeated_keys_in_one_batch_replay_like_the_scalar_loop(
    tmp_path, durable
):
    served = MmapDILI(tmp_path)
    # Insert: the first of a repeated key wins; a stored key stays.
    durable.insert_batch([1.0, 1.0, 3.0, 2.0], [10, 11, 30, 20])
    # Update: the last wins; a key absent from the index stays absent.
    durable.update_batch([1.0, 4.0, 1.0, 5.0], [12, 40, 13, 50])
    # Delete twice, then re-insert within one batch history.
    durable.delete_batch([6.0, 6.0, 3.0, 3.0, 7.0])
    durable.insert_batch([6.0, 3.0, 3.0], [60, 31, 32])
    served.refresh()

    probe = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    expected = recover(tmp_path).index.get_batch(probe)
    assert expected == [10 + 3, 2, 31, 40, None, 60, None]
    assert served.get_batch(probe) == expected
    assert _wrong_reads(served, tmp_path) == 0
    served.close()


# ----------------------------------------------------------------------
# The array overlay against a dict model
# ----------------------------------------------------------------------

BASE = np.arange(0.0, 60.0, 3.0)
_key = st.sampled_from(np.arange(0.0, 64.0).tolist())
_payload = st.one_of(
    st.integers(-5, 5), st.text(max_size=2), st.tuples(st.integers(0, 3))
)
_op = st.one_of(
    st.tuples(
        st.just(OP_INSERT_BATCH),
        st.lists(st.tuples(_key, _payload), max_size=6),
    ),
    st.tuples(st.just(OP_DELETE_BATCH), st.lists(_key, max_size=6)),
    st.tuples(
        st.just(OP_UPDATE_BATCH),
        st.lists(st.tuples(_key, _payload), max_size=6),
    ),
)


def _frame(opcode: int, items: list) -> tuple[int, bytes]:
    import pickle

    if opcode == OP_DELETE_BATCH:
        args = ([float(k) for k in items],)
    else:
        args = ([float(k) for k, _ in items], [v for _, v in items])
    return opcode, pickle.dumps(args)


def _model_apply(model: dict, opcode: int, items: list) -> None:
    if opcode == OP_DELETE_BATCH:
        for key in items:
            model.pop(key, None)
        return
    for key, value in items:
        if opcode == OP_INSERT_BATCH and key not in model:
            model[key] = value
        elif opcode == OP_UPDATE_BATCH and key in model:
            model[key] = value


@pytest.fixture(scope="module")
def base_plan(tmp_path_factory):
    index = DILI()
    index.bulk_load(BASE, [int(k) for k in BASE])
    path = tmp_path_factory.mktemp("overlay") / "plan-00000001.plan"
    write_plan_file(path, index._plan(), generation=1)
    return path


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(history=st.lists(_op, max_size=12), cut=st.integers(0, 12))
def test_array_overlay_answers_like_a_dict_model(base_plan, history, cut):
    store = PlanStore.open(base_plan)
    model = {float(k): int(k) for k in BASE}
    frames = [_frame(opcode, items) for opcode, items in history]
    # Replayed in two calls, as a reader's open and its refresh do.
    store.apply_ops(frames[:cut])
    store.apply_ops(frames[cut:])
    for opcode, items in history:
        _model_apply(model, opcode, items)

    probe = np.arange(-1.0, 65.0, 0.5)
    assert store.get_batch(probe) == [model.get(k) for k in probe.tolist()]
    assert store.contains_batch(probe).tolist() == [
        k in model for k in probe.tolist()
    ]
    los = np.array([-1.0, 0.0, 10.5, 30.0, 63.0, 5.0])
    his = np.array([70.0, 30.0, 40.0, 30.0, 64.0, 4.0])
    assert store.count_range_batch(los, his).tolist() == [
        sum(lo <= k < hi for k in model) if lo < hi else 0
        for lo, hi in zip(los.tolist(), his.tolist())
    ]
    assert len(store) == len(model)
    store.close()


# ----------------------------------------------------------------------
# Base membership: the key view against the descent
# ----------------------------------------------------------------------

#: Keys inside the base's range, both zeros (the base holds 0.0), and
#: keys below and above it.
_edge_key = st.one_of(_key, st.sampled_from([-0.0, -1e9, -3.0, 0.5, 1e9]))
_edge_op = st.one_of(
    st.tuples(
        st.just(OP_INSERT_BATCH),
        st.lists(st.tuples(_edge_key, _payload), max_size=6),
    ),
    st.tuples(st.just(OP_DELETE_BATCH), st.lists(_edge_key, max_size=6)),
    st.tuples(
        st.just(OP_UPDATE_BATCH),
        st.lists(st.tuples(_edge_key, _payload), max_size=6),
    ),
)


def _descent_store(path) -> PlanStore:
    """A store whose base membership is a descent of the base plan
    (``FlatPlan.contains_batch``): the reference for the key view."""
    store = PlanStore.open(path)
    store._base_contains = store._plan.contains_batch
    return store


def _bits(overlay) -> tuple:
    keys, payloads, live, in_base = overlay.rows()
    return (
        keys.view(np.uint64).tolist(),  # tells -0.0 from 0.0
        payloads.dtype.str,
        [(type(v), v) for v in payloads.tolist()],
        live.tolist(),
        in_base.tolist(),
    )


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(history=st.lists(_edge_op, max_size=12), cut=st.integers(0, 12))
@example(
    # A tombstoned base key inserted again, repeats within a batch, both
    # zeros and keys outside the base's range.
    history=[
        (OP_DELETE_BATCH, [3.0, 3.0, -0.0, 1e9]),
        (OP_INSERT_BATCH, [(3.0, 1), (3.0, 2), (0.0, 9), (-1e9, 4)]),
        (OP_UPDATE_BATCH, [(-1e9, 5), (3.0, 6), (3.0, 7), (-0.0, 8)]),
        (OP_DELETE_BATCH, [-1e9, 0.0]),
    ],
    cut=2,
)
def test_key_view_membership_builds_the_descents_overlay(
    base_plan, history, cut
):
    frames = [_frame(opcode, items) for opcode, items in history]
    store, reference = PlanStore.open(base_plan), _descent_store(base_plan)
    for replica in (store, reference):
        replica.apply_ops(frames[:cut])
        replica.apply_ops(frames[cut:])
    assert _bits(store._overlay) == _bits(reference._overlay)

    probe = np.concatenate(
        [[-1e9, -3.0, -0.0, 0.0, 5e-324, 1e9], np.arange(0.0, 64.0, 0.5)]
    )
    want = reference._plan.contains_batch(probe)
    at, rows = store._overlay.find(probe)
    want[at] = store._overlay.live[rows]
    assert store.contains_batch(probe).tolist() == want.tolist()
    store.close()
    reference.close()
