"""ShardWorker: one serving handle kept open, a checkpoint per republish.

Every read is audited against a recovery rebuild of the shard
directory (snapshot + WAL).
"""

import os
import pickle

import numpy as np

from repro.check.plan_audit import audit_plans
from repro.durability.durable import DurableDILI
from repro.durability.recovery import WAL_NAME, recover
from repro.durability.snapshot import read_snapshot_header
from repro.durability.wal import scan_wal
from repro.planstore.corrupt import FAULT_PLAN_FLIPPED_BYTE, inject_plan_fault
from repro.planstore.serve import PlanDirectory
from repro.sharding.worker import REPUBLISH_THRESHOLD, ShardWorker

KEYS = np.arange(0.0, 20_000.0, 2.0)
FRESH = KEYS + 1.0
BATCH = 256


def wal_ops(state_dir) -> int:
    """Operations held by the shard's WAL (every record is a batch)."""
    records = scan_wal(os.path.join(state_dir, WAL_NAME)).records
    return sum(len(pickle.loads(r.payload)[0]) for r in records)


def wrong_reads(worker: ShardWorker, state_dir) -> int:
    probe = np.concatenate([KEYS, FRESH])
    hits, payload, _ = worker.get_batch(probe)
    got = np.full(len(probe), None, dtype=object)
    got[hits] = payload
    want = recover(state_dir).index.get_batch(probe)
    return sum(g != w for g, w in zip(got, want))


def test_a_republish_checkpoints_and_a_restart_replays_under_it(tmp_path):
    with DurableDILI(tmp_path, sync=False) as durable:
        durable.bulk_load(KEYS, [int(k) for k in KEYS])
    worker = ShardWorker(tmp_path, sync=False)
    served = worker.served
    batches = REPUBLISH_THRESHOLD // BATCH + 4
    for i in range(batches):
        part = FRESH[i * BATCH:(i + 1) * BATCH]
        assert worker.insert_batch(part, [i] * len(part)).all()

    # One crossing, one checkpoint: a new base, and a WAL truncated to
    # the four batches written since.
    assert worker.ops["republishes"] == 1
    assert wal_ops(tmp_path) == 4 * BATCH < REPUBLISH_THRESHOLD
    _, last_seqno, _, _ = read_snapshot_header(
        os.path.join(tmp_path, "snapshot.dili")
    )
    assert last_seqno == batches - 4
    status = worker.status()
    assert (status["rung"], status["generation"]) == (1, 2)
    assert worker.served is served  # refreshed, never reopened
    assert wrong_reads(worker, tmp_path) == 0
    worker.close()

    restarted = ShardWorker(tmp_path, sync=False)
    assert restarted.durable.recovery.replayed == 4
    assert wrong_reads(restarted, tmp_path) == 0
    # The publish verb (ShardedDILI.republish) checkpoints too.
    assert restarted.publish() == 3
    assert wal_ops(tmp_path) == 0
    status = restarted.status()
    assert (status["rung"], status["generation"]) == (1, 3)
    assert wrong_reads(restarted, tmp_path) == 0
    restarted.close()


def test_a_checkpoint_retires_every_older_generation(tmp_path):
    from repro.__main__ import main

    with DurableDILI(tmp_path, sync=False) as durable:
        durable.bulk_load(KEYS, [int(k) for k in KEYS])
    worker = ShardWorker(tmp_path, sync=False)
    plans = PlanDirectory.for_state_dir(tmp_path)
    # A quarantined artifact is evidence, never retired.
    inject_plan_fault(
        FAULT_PLAN_FLIPPED_BYTE, plans.base_path(1),
        np.random.default_rng(3),
    )
    worker.served.verify()
    quarantined = plans.quarantined()
    assert len(quarantined) == 1
    # The first write checkpoints to generation 2 (1 is quarantined)
    # and the other five add deltas to it; then two checkpoints, the
    # second over one delta of generation 3.
    for i in range(6):
        part = FRESH[i * BATCH:(i + 1) * BATCH]
        assert worker.insert_batch(part, [i] * len(part)).all()
    assert (plans.generations(), len(plans.delta_seqs(2))) == ([2], 5)
    assert worker.publish() == 3
    assert worker.insert_batch(FRESH[-2:], [-1, -2]).all()
    assert worker.publish() == 4

    assert plans.generations() == [4]
    assert plans.delta_seqs(4) == []
    assert plans.quarantined() == quarantined
    assert (worker.status()["rung"], worker.served.generation) == (1, 4)
    assert wrong_reads(worker, tmp_path) == 0
    worker.close()

    restarted = ShardWorker(tmp_path, sync=False)
    assert wrong_reads(restarted, tmp_path) == 0
    assert restarted.publish() == 5  # numbers still pass every file's
    assert plans.generations() == [5]
    restarted.close()
    report = audit_plans(tmp_path)
    assert [f.kind for f in report.findings] == ["plan-quarantined"]
    assert report.generations == report.verified_generations == 1
    assert main(["audit", str(tmp_path)]) == 3  # the quarantine only
