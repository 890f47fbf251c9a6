"""``MmapDILI.refresh``: one open handle kept current across writes.

Every test audits the handle against a recovery rebuild of the same
directory (``recover()``, snapshot + WAL): zero wrong reads.
"""

import numpy as np
import pytest

import repro.planstore.serve as serve
from repro.core.dili import DEFAULT_PAYLOAD
from repro.durability.durable import DurableDILI
from repro.durability.recovery import recover
from repro.planstore.corrupt import FAULT_PLAN_FLIPPED_BYTE, inject_plan_fault
from repro.planstore.serve import MmapDILI, PlanDirectory
from repro.planstore.store import PlanStore

KEYS = np.arange(0.0, 2000.0, 2.0)
#: Every stored key, and every odd key the tests insert.
PROBE = np.concatenate([KEYS, KEYS + 1.0])


@pytest.fixture()
def durable(tmp_path):
    durable = DurableDILI(tmp_path, sync=False)
    durable.bulk_load(KEYS, [int(k) for k in KEYS])
    durable.publish_plan()
    yield durable
    durable.close()


@pytest.fixture()
def verify_calls(monkeypatch):
    """Stores whose :meth:`PlanStore.verify` ran, one entry per call."""
    calls = []
    original = PlanStore.verify

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(PlanStore, "verify", counted)
    return calls


def wrong_reads(served: MmapDILI, state_dir) -> int:
    oracle = recover(state_dir).index
    got = served.get_batch(PROBE)
    wrong = sum(g != w for g, w in zip(got, oracle.get_batch(PROBE)))
    wrong += int(np.sum(
        served.contains_batch(PROBE) != oracle.contains_batch(PROBE)
    ))
    los = PROBE[::7]
    his = los + 37.0
    wrong += int(np.sum(
        served.count_range_batch(los, his)
        != oracle.count_range_batch(los, his)
    ))
    return wrong


def test_logged_writes_replay_into_the_same_verified_store(
    tmp_path, durable, verify_calls
):
    served = MmapDILI(tmp_path)
    assert wrong_reads(served, tmp_path) == 0  # the first read verifies
    store = served._store
    assert verify_calls == [store]

    durable.insert_batch(KEYS[:50] + 1.0, list(range(50)))
    durable.delete_batch(KEYS[100:120])
    durable.update_batch(KEYS[200:210], [-1] * 10)
    served.refresh()

    assert served._store is store
    assert served.wal_lsn == durable.wal.last_seqno
    assert (served.rung, served.generation) == (1, 1)
    assert served.get_batch(KEYS[:2] + 1.0) == [0, 1]
    assert wrong_reads(served, tmp_path) == 0
    assert verify_calls == [store]  # the unchanged base is not re-checked
    served.close()


def test_publish_then_refresh_serves_the_new_generation(
    tmp_path, durable, verify_calls
):
    served = MmapDILI(tmp_path)
    durable.insert_batch(KEYS[:30] + 1.0, list(range(30)))
    served.refresh()  # the replay verifies generation 1
    assert durable.publish_plan() == 2
    served.refresh()

    assert (served.rung, served.generation) == (1, 2), served.events
    assert served._store.overlay_size == 0
    # The re-descend verified the new store before returning.
    assert verify_calls[1:] == [served._store]
    assert wrong_reads(served, tmp_path) == 0
    served.close()


def test_a_snapshot_past_the_store_lsn_forces_a_redescend(
    tmp_path, durable
):
    served = MmapDILI(tmp_path)
    fresh = KEYS[:40] + 1.0
    durable.insert_batch(fresh, list(range(40)))
    durable.delete_batch(KEYS[500:520])
    # The checkpoint truncates both records before the handle replayed
    # either, and leaves an empty WAL: only the snapshot says so.
    durable.snapshot()
    served.refresh()

    assert served.get_batch(fresh) == list(range(40))
    assert wrong_reads(served, tmp_path) == 0
    # Generation 1 predates the snapshot: stale, so the rebuild serves.
    assert served.rung == 3, served.events
    served.close()


def test_a_wal_gap_forces_a_redescend(tmp_path, durable, monkeypatch):
    served = MmapDILI(tmp_path)
    durable.insert_batch(KEYS[:20] + 1.0, list(range(20)))
    durable.snapshot()
    durable.insert_batch(KEYS[20:25] + 1.0, list(range(5)))
    # A checkpoint that lands between refresh's snapshot-header read
    # and its WAL scan: the header still reads as before.
    real = serve._snapshot_seqno
    reads = []

    def racy(state_dir):
        reads.append(state_dir)
        return 0 if len(reads) == 1 else real(state_dir)

    monkeypatch.setattr(serve, "_snapshot_seqno", racy)
    served.refresh()

    assert served.get_batch(KEYS[:25] + 1.0) == list(range(20)) + list(
        range(5)
    )
    assert wrong_reads(served, tmp_path) == 0
    assert served.rung == 3, served.events
    served.close()


def test_a_rung_three_handle_redescends(tmp_path, durable):
    base = PlanDirectory.for_state_dir(tmp_path).base_path(1)
    inject_plan_fault(FAULT_PLAN_FLIPPED_BYTE, base, np.random.default_rng(4))
    served = MmapDILI(tmp_path)
    served.verify()  # trips the CRC: quarantine, then the rebuild
    assert served.rung == 3, served.events

    durable.insert_batch(KEYS[:10] + 1.0, list(range(10)))
    served.refresh()  # a fresh rebuild, which holds the write
    assert served.rung == 3
    assert served.get_batch(KEYS[:10] + 1.0) == list(range(10))
    assert wrong_reads(served, tmp_path) == 0

    durable.publish_plan()
    served.refresh()
    assert (served.rung, served.generation) == (1, 2), served.events
    assert wrong_reads(served, tmp_path) == 0
    served.close()


def test_a_failed_replay_quarantines_the_base_and_redescends(
    tmp_path, durable
):
    served = MmapDILI(tmp_path)  # opened, not yet verified
    base = PlanDirectory.for_state_dir(tmp_path).base_path(1)
    inject_plan_fault(FAULT_PLAN_FLIPPED_BYTE, base, np.random.default_rng(5))
    durable.insert_batch(KEYS[:10] + 1.0, list(range(10)))
    served.refresh()  # the replay verifies the base and trips its CRC

    assert served.quarantined == [base + ".quarantined"]
    assert served.rung == 3, served.events
    assert wrong_reads(served, tmp_path) == 0
    served.close()


@pytest.mark.parametrize("verb", ["insert_batch", "bulk_insert"])
def test_a_batch_logged_without_values_replays_the_default_payload(
    tmp_path, durable, verb
):
    fresh = np.array([1.0, 3.0])
    getattr(durable, verb)(fresh)  # logged with values=None
    assert recover(tmp_path).index.get_batch(fresh) == [DEFAULT_PAYLOAD] * 2

    served = MmapDILI(tmp_path)  # the record sits in the WAL tail
    assert served.rung == 1, served.events
    assert served.get_batch(fresh) == [DEFAULT_PAYLOAD] * 2
    assert wrong_reads(served, tmp_path) == 0

    durable.publish_tail()  # ... and now in a delta
    getattr(durable, verb)(fresh + 2.0)
    served.refresh()
    assert served.rung == 1, served.events
    assert served.get_batch(fresh + 2.0) == [DEFAULT_PAYLOAD] * 2
    assert wrong_reads(served, tmp_path) == 0
    served.close()
    reopened = MmapDILI(tmp_path)
    assert reopened.rung == 1, reopened.events
    assert wrong_reads(reopened, tmp_path) == 0
    reopened.close()
