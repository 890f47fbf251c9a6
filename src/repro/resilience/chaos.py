"""Whole-stack chaos schedules: ``tree`` and ``lock``.

:func:`run_chaos` (the ``tree`` schedule) drives a
:class:`~repro.resilience.serving.ResilientDILI` through a seeded
50/50 read/write workload while a seeded
:class:`~repro.resilience.faults.FaultSchedule` corrupts the serving
structures mid-flight (one live fault at a time -- a new injection
waits for the index to return to HEALTHY, like real incidents queue
behind an ongoing repair).  Every read is audited against a model dict
maintained alongside the workload, healthy or degraded, and the
report's checks hold the rest of the resilience contract:

* ``undetected`` -- the scan that follows an injection must open at
  least one ticket;
* ``full_rebuilds`` -- repair is online and scoped: health converges
  back to HEALTHY through ``repair_step`` units and the engine never
  rebuilds the whole index;
* ``false_positives`` -- periodic scans while HEALTHY find nothing;
* ``final_health`` / ``verify_clean`` / ``content_clean`` -- the run
  ends HEALTHY with ``ResilientDILI.verify()`` passing and the index
  content equal to the model dict.

:func:`run_lock_chaos` (the ``lock`` schedule) runs ``ConcurrentDILI``
point ops, lock-free reads and rebuilds under a stalled writer lock
(:class:`~repro.resilience.faults.StallingLock`).

Both return a :class:`~repro.check.chaos.ChaosReport`, are
deterministic per seed (the lock schedule's interleaving aside), and
run from ``repro chaos``, the resilience test suite and the CI
``chaos`` job.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

from repro.check.chaos import ChaosReport
from repro.core.concurrent import ConcurrentDILI
from repro.data import load_dataset
from repro.resilience.faults import (
    TREE_FAULT_KINDS,
    FaultRegistry,
    FaultSchedule,
    stall_lock,
    unstall_lock,
)
from repro.resilience.health import Health
from repro.resilience.serving import ResilientDILI

__all__ = ["run_chaos", "run_lock_chaos"]


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
            write batch and advances any ongoing repair.
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

    index = ResilientDILI()
    values = [int(i) for i in range(len(initial))]
    index.bulk_load(initial, values)
    model = dict(zip(initial.tolist(), values))
    index.get_batch(initial[:batch])  # compile + warm the flat plan

    schedule = FaultSchedule.random(
        rounds=rounds, injections=injections, kinds=kinds, seed=seed
    )
    by_round: dict[int, list[str]] = {}
    for when, kind in schedule.events:
        by_round.setdefault(int(when), []).append(kind)
    pending: deque[str] = deque()
    registry = FaultRegistry()
    report = ChaosReport(schedule="tree", seed=seed)
    counts = report.counts
    counts["injections"] = 0
    counts.update({f"injected.{kind}": 0 for kind in kinds})
    counts.update(
        undetected=0, false_positives=0, repair_steps=0, max_steps_degraded=0
    )
    next_value = len(initial)
    degraded_streak = 0

    for r in range(rounds):
        pending.extend(by_round.get(r, ()))

        # -- injection: one live fault at a time, like queued incidents
        if pending and index.health is Health.HEALTHY:
            kind = pending.popleft()
            fault = registry.inject(kind, index.index, rng)
            if fault is None:
                fault = registry.inject_any(index.index, rng, kinds)
            if fault is not None:
                counts["injections"] += 1
                counts[f"injected.{fault.kind}"] += 1
                if index.detect() < 1:
                    counts["undetected"] += 1
                report.events.append(
                    f"round {r}: injected {fault.kind} -> "
                    f"{index.health.value} "
                    f"({len(index.engine.tickets)} ticket(s))"
                )
        elif index.health is Health.HEALTHY and r % 10 == 5:
            # Periodic scan while clean: must find nothing.
            counts["false_positives"] += index.detect()

        # -- reads: half present keys, half probes that may miss
        model_keys = np.fromiter(model, dtype=np.float64, count=len(model))
        sample = rng.choice(model_keys, size=batch // 2, replace=False)
        misses = rng.uniform(
            float(universe[0]), float(universe[-1]), size=batch // 2
        )
        read_keys = np.concatenate([sample, misses])
        report.audit(
            index.get_batch(read_keys),
            [model.get(k) for k in read_keys.tolist()],
        )

        # -- writes: inserts of fresh keys, deletes, updates
        if rng.random() < write_fraction:
            third = batch // 3
            ins_keys = [pool.popleft() for _ in range(min(third, len(pool)))]
            ins_vals = list(range(next_value, next_value + len(ins_keys)))
            next_value += len(ins_keys)
            del_keys = rng.choice(
                model_keys, size=min(third, len(model_keys)), replace=False
            ).tolist()
            survivors = [k for k in model if k not in set(del_keys)]
            upd_keys = [
                survivors[int(i)]
                for i in rng.integers(len(survivors), size=third)
            ] if survivors else []
            upd_vals = list(range(next_value, next_value + len(upd_keys)))
            next_value += len(upd_keys)

            ok = index.insert_batch(np.array(ins_keys), ins_vals)
            for i in np.flatnonzero(ok):
                model[float(ins_keys[int(i)])] = ins_vals[int(i)]
            ok = index.delete_batch(np.array(del_keys))
            for i in np.flatnonzero(ok):
                model.pop(float(del_keys[int(i)]), None)
            if upd_keys:
                ok = index.update_batch(np.array(upd_keys), upd_vals)
                for i in np.flatnonzero(ok):
                    model[float(upd_keys[int(i)])] = upd_vals[int(i)]
            report.writes += len(ins_keys) + len(del_keys) + len(upd_keys)

        # -- repair: one bounded step per round keeps serving live
        if index.health is not Health.HEALTHY:
            degraded_streak += 1
            counts["max_steps_degraded"] = max(
                counts["max_steps_degraded"], degraded_streak
            )
            if index.repair_step():
                counts["repair_steps"] += 1
        else:
            degraded_streak = 0

    # -- convergence: drain any tail repair, then deep-verify
    counts["repair_steps"] += index.repair_all()
    health = index.health.value
    report.events.append(f"final health: {health}")
    try:
        index.verify()
        verify_clean = True
    except AssertionError:
        verify_clean = False
    stats = index.stats()
    counts.update(
        plan_splices=stats["plan_splices"],
        plan_drops=stats["plan_drops"],
        full_rebuilds=stats["full_rebuilds"],
    )
    report.checks.update(
        undetected=counts["undetected"] == 0,
        false_positives=counts["false_positives"] == 0,
        full_rebuilds=counts["full_rebuilds"] == 0,
        final_health=health == "healthy",
        verify_clean=verify_clean,
        content_clean=(
            len(index) == len(model) and dict(index.index.items()) == model
        ),
    )
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
