"""Whole-stack chaos schedules: ``tree`` and ``lock``.

:func:`run_chaos` (the ``tree`` schedule) drives a
:class:`~repro.durability.durable.DurableDILI` through a seeded 50/50
read/write workload while a seeded
:class:`~repro.resilience.faults.FaultSchedule` corrupts its in-memory
tree mid-flight.  The way back from damage is the one a restarted
shard worker takes: the snapshot and WAL are the authority and the
tree is derived from them, so one deep scan (``validate()``) detects
each fault and reopening the directory heals it (crash-only recovery).
Both happen in the injection round, before its reads, so one fault is
live at a time and no read sees a damaged tree.  Every read is audited
against a model dict maintained alongside the workload, every recovery
is compared with the model (a key whose recovered value differs is a
lost write), and the report's checks hold the rest of the contract:

* ``undetected`` -- the scan that follows an injection must fail;
* ``false_positives`` -- periodic scans of the clean tree pass;
* ``verify_clean`` / ``content_clean`` -- a final ``validate()``
  passes and the content equals the model dict.

:func:`run_lock_chaos` (the ``lock`` schedule) runs ``ConcurrentDILI``
point ops, lock-free reads and rebuilds under a stalled writer lock
(:class:`~repro.resilience.faults.StallingLock`).

Both return a :class:`~repro.check.chaos.ChaosReport`, are
deterministic per seed (the lock schedule's interleaving aside), and
run from ``repro chaos``, the resilience test suite and the CI
``chaos`` job.
"""

from __future__ import annotations

import tempfile
import threading
from collections import deque

import numpy as np

from repro.check.chaos import ChaosReport
from repro.check.errors import InvariantError
from repro.core.concurrent import ConcurrentDILI
from repro.data import load_dataset
from repro.durability.durable import DurableDILI
from repro.resilience.faults import (
    TREE_FAULT_KINDS,
    FaultRegistry,
    FaultSchedule,
    stall_lock,
    unstall_lock,
)

__all__ = ["run_chaos", "run_lock_chaos"]


def _scan(durable: DurableDILI) -> bool:
    """One deep scan: True when ``validate()`` finds damage."""
    try:
        durable.validate()
    except InvariantError:
        return True
    return False


def _lost_writes(durable: DurableDILI, model: dict) -> int:
    """Keys whose recovered value differs from the model: a lost insert
    or update, or a deleted key that came back."""
    recovered = dict(durable.items())
    return sum(
        1 for key in model.keys() | recovered.keys()
        if recovered.get(key) != model.get(key)
    )


def _write_batch(
    durable: DurableDILI, model: dict, pool: deque, rng, batch: int,
    next_value: int,
) -> tuple[int, int]:
    """One write batch: inserts of fresh keys, deletes, updates.

    Every write the store acknowledges is applied to ``model`` too.
    Returns ``(writes issued, next unused value)``.
    """
    model_keys = np.fromiter(model, dtype=np.float64, count=len(model))
    third = batch // 3
    ins_keys = [pool.popleft() for _ in range(min(third, len(pool)))]
    ins_vals = list(range(next_value, next_value + len(ins_keys)))
    next_value += len(ins_keys)
    del_keys = rng.choice(
        model_keys, size=min(third, len(model_keys)), replace=False
    ).tolist()
    deleted = set(del_keys)
    survivors = [k for k in model if k not in deleted]
    upd_keys = [
        survivors[int(i)]
        for i in rng.integers(len(survivors), size=third)
    ] if survivors else []
    upd_vals = list(range(next_value, next_value + len(upd_keys)))
    next_value += len(upd_keys)

    ok = durable.insert_batch(np.array(ins_keys), ins_vals)
    for i in np.flatnonzero(ok):
        model[float(ins_keys[int(i)])] = ins_vals[int(i)]
    ok = durable.delete_batch(np.array(del_keys))
    for i in np.flatnonzero(ok):
        model.pop(float(del_keys[int(i)]), None)
    if upd_keys:
        ok = durable.update_batch(np.array(upd_keys), upd_vals)
        for i in np.flatnonzero(ok):
            model[float(upd_keys[int(i)])] = upd_vals[int(i)]
    return len(ins_keys) + len(del_keys) + len(upd_keys), next_value


def run_chaos(
    *,
    num_keys: int = 20_000,
    rounds: int = 60,
    batch: int = 256,
    write_fraction: float = 0.5,
    injections: int = 12,
    kinds: tuple[str, ...] = TREE_FAULT_KINDS,
    seed: int = 0,
) -> ChaosReport:
    """Run the ``tree`` schedule; returns its :class:`ChaosReport`.

    Args:
        num_keys: Initial bulk-loaded keys (an equal-sized disjoint
            pool feeds the insert stream).
        rounds: Workload rounds; each issues one read batch and one
            write batch.
        batch: Operations per batch.
        write_fraction: Fraction of write rounds that actually issue
            the write batch (0.5 gives the 50/50 mix).
        injections: Scheduled fault count (>= len(kinds) so every kind
            fires at least once).
        kinds: Fault kinds to schedule.
        seed: Master seed for dataset, schedule, and workload draws.
    """
    rng = np.random.default_rng(seed)
    universe = load_dataset("logn", 2 * num_keys, seed=seed)
    initial = universe[::2].copy()
    pool_keys = universe[1::2].tolist()
    rng.shuffle(pool_keys)
    pool = deque(pool_keys)

    schedule = FaultSchedule.random(
        rounds=rounds, injections=injections, kinds=kinds, seed=seed
    )
    scheduled = dict(schedule.events)  # round -> kind; rounds distinct
    registry = FaultRegistry()
    report = ChaosReport(schedule="tree", seed=seed)
    counts = report.counts
    counts["injections"] = 0
    counts.update({f"injected.{kind}": 0 for kind in kinds})
    counts.update(undetected=0, false_positives=0, recoveries=0)
    values = [int(i) for i in range(len(initial))]
    model = dict(zip(initial.tolist(), values))
    next_value = len(initial)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as state_dir:
        durable = DurableDILI(state_dir)
        try:
            durable.bulk_load(initial, values)
            durable.get_batch(initial[:batch])  # compile + warm the plan
            for r in range(rounds):
                # -- injection, scan and recovery, all before this
                #    round's reads: one live fault at a time
                fault = None
                if r in scheduled:
                    fault = registry.inject(scheduled[r], durable.index, rng)
                    if fault is None:
                        fault = registry.inject_any(durable.index, rng, kinds)
                if fault is not None:
                    counts["injections"] += 1
                    counts[f"injected.{fault.kind}"] += 1
                    event = f"round {r}: injected {fault.kind} -> "
                    if _scan(durable):
                        durable.close()
                        durable = DurableDILI(state_dir)
                        counts["recoveries"] += 1
                        lost = _lost_writes(durable, model)
                        report.lost_writes += lost
                        event += (
                            f"recovered {len(durable)} keys "
                            f"({durable.recovery.replayed} WAL records), "
                            f"{lost} lost"
                        )
                    else:
                        counts["undetected"] += 1
                        event += "undetected"
                    report.events.append(event)
                elif r % 10 == 5:
                    # Periodic scan of the clean tree: must find nothing.
                    counts["false_positives"] += _scan(durable)

                # -- reads: half present keys, half probes that may miss
                present = np.fromiter(
                    model, dtype=np.float64, count=len(model)
                )
                read_keys = np.concatenate([
                    rng.choice(present, size=batch // 2, replace=False),
                    rng.uniform(
                        float(universe[0]), float(universe[-1]),
                        size=batch // 2,
                    ),
                ])
                report.audit(
                    durable.get_batch(read_keys),
                    [model.get(k) for k in read_keys.tolist()],
                )

                if rng.random() < write_fraction:
                    writes, next_value = _write_batch(
                        durable, model, pool, rng, batch, next_value
                    )
                    report.writes += writes

            report.checks.update(
                undetected=counts["undetected"] == 0,
                false_positives=counts["false_positives"] == 0,
                verify_clean=not _scan(durable),
                content_clean=dict(durable.items()) == model,
            )
        finally:
            durable.close()
    return report


def run_lock_chaos(
    *,
    seed: int = 0,
    num_keys: int = 2_000,
    threads: int = 4,
    ops_per_thread: int = 200,
    stall_s: float = 2e-4,
) -> ChaosReport:
    """Run the ``lock`` schedule: stalled writer lock, lock-free reads.

    Runs point ops, lock-free reads and rebuilds from ``threads``
    threads while a :class:`StallingLock` delays every acquisition of
    the writer lock.  Reads race the writers lock-free; base keys are
    never deleted and updates rewrite a base key's own value, so every
    point ``get`` and every ``get_batch`` answer for a base key must be
    its value in whatever published plan it loaded, or the snapshot
    was torn.  The answers are audited once the threads are joined.
    Checks: ``lock_free_reads`` (a plan was published and read from)
    and ``lock_stalled`` (the stalled lock was taken); counts: the
    final ``lock_stats`` plus ``stalls`` and ``batch_reads``.
    """
    rng = np.random.default_rng(seed)
    cc = ConcurrentDILI()
    keys = load_dataset("logn", num_keys, seed=seed + 1)
    values = list(range(num_keys))
    base = dict(zip(keys.tolist(), values))
    cc.bulk_load(keys, values)
    cc.get_batch(keys[:8])  # compile + publish the plan
    wrapper = stall_lock(cc, stall_s)
    errors: list[BaseException] = []
    answers: list[tuple[list, list]] = []  # (got, expected) per read
    writes: list[int] = []

    def worker(worker_seed: int) -> None:
        wrng = np.random.default_rng(worker_seed)
        written = 0
        try:
            for _ in range(ops_per_thread):
                key = float(wrng.choice(keys))
                op = wrng.random()
                if op < 0.35:
                    answers.append(([cc.get(key)], [base[key]]))
                elif op < 0.6:
                    # Lock-free batch read racing the writers below.
                    probe = wrng.choice(keys, size=16)
                    expected = [base[k] for k in probe.tolist()]
                    answers.append((cc.get_batch(probe), expected))
                elif op < 0.8:
                    cc.update(key, base[key])
                    written += 1
                else:
                    # Rebuild pressure: a bulk insert may replace the
                    # whole tree under the writer lock.
                    cc.bulk_insert(
                        wrng.uniform(keys[0], keys[-1], size=4),
                        ["chaos"] * 4,
                        rebuild_ratio=0.0,
                    )
                    written += 4
        except BaseException as exc:  # surfaced by the caller
            errors.append(exc)
        writes.append(written)

    pool = [
        threading.Thread(target=worker, args=(int(rng.integers(2**31)),))
        for _ in range(threads)
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    unstall_lock(cc, wrapper)
    if errors:
        raise errors[0]
    report = ChaosReport(schedule="lock", seed=seed, writes=sum(writes))
    for got, expected in answers:
        report.audit(got, expected)
    stats = cc.lock_stats
    report.counts.update(
        stalls=wrapper.stalls,
        plan_publishes=stats["plan_publishes"],
        plan_reads=stats["plan_reads"],
        batch_reads=sum(len(expected) > 1 for _, expected in answers),
    )
    report.checks.update(
        lock_free_reads=(
            stats["plan_publishes"] >= 1 and stats["plan_reads"] >= 1
        ),
        lock_stalled=wrapper.stalls >= 1,
    )
    return report
