"""Whole-stack chaos harness: mixed workload under scheduled faults.

:func:`run_chaos` drives a :class:`~repro.resilience.serving.ResilientDILI`
through a seeded 50/50 read/write workload while a seeded
:class:`~repro.resilience.faults.FaultSchedule` corrupts the serving
structures mid-flight (one live fault at a time -- a new injection
waits for the index to return to HEALTHY, like real incidents queue
behind an ongoing repair).  Throughout the run it checks the
resilience contract:

* **zero wrong reads** -- every answer, healthy or degraded, matches a
  model dict maintained alongside the workload;
* **every injection detected** -- the scan that follows an injection
  must open at least one ticket;
* **repair is online and scoped** -- health converges back to HEALTHY
  through ``repair_step`` units, and the engine's ``full_rebuilds``
  counter stays zero;
* **no false positives** -- periodic scans while HEALTHY must find
  nothing;
* **clean convergence** -- the run ends HEALTHY with
  ``ResilientDILI.verify()`` passing and the index content equal to
  the model dict.

:func:`run_lock_chaos` is the concurrency leg: it runs
``ConcurrentDILI`` point ops, lock-free reads and rebuilds under a
stalled writer lock (:class:`~repro.resilience.faults.StallingLock`),
returning the wrapper's ``lock_stats``.

Both entry points are deterministic per seed and are what the CLI
(``repro chaos``), the resilience test suite, and the CI ``chaos`` job
run.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

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

__all__ = ["ChaosReport", "run_chaos", "run_lock_chaos"]


@dataclass
class ChaosReport:
    """Outcome of one :func:`run_chaos` invocation."""

    num_keys: int
    rounds: int
    reads: int = 0
    writes: int = 0
    wrong_reads: int = 0
    injected: list = field(default_factory=list)  # [(round, kind), ...]
    undetected: int = 0
    false_positives: int = 0
    repair_steps: int = 0
    max_steps_degraded: int = 0
    plan_splices: int = 0
    plan_drops: int = 0
    full_rebuilds: int = 0
    final_health: str = ""
    verify_clean: bool = False
    content_clean: bool = False
    lock_stats: dict | None = None
    wall_s: float = 0.0

    @property
    def kinds_injected(self) -> set:
        return {kind for _, kind in self.injected}

    @property
    def ok(self) -> bool:
        """The whole resilience contract, as one boolean."""
        return (
            self.wrong_reads == 0
            and self.undetected == 0
            and self.false_positives == 0
            and self.full_rebuilds == 0
            and self.final_health == "healthy"
            and self.verify_clean
            and self.content_clean
        )


def run_chaos(
    *,
    num_keys: int = 20_000,
    rounds: int = 60,
    batch: int = 256,
    write_fraction: float = 0.5,
    injections: int = 12,
    kinds: tuple[str, ...] = TREE_FAULT_KINDS,
    seed: int = 0,
    with_locks: bool = True,
    log=None,
) -> ChaosReport:
    """Run the chaos workload; returns a :class:`ChaosReport`.

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
        with_locks: Also run :func:`run_lock_chaos` and attach its
            ``lock_stats``.
        log: Optional ``print``-like callable for progress lines.
    """
    t0 = time.perf_counter()
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
    report = ChaosReport(num_keys=num_keys, rounds=rounds)
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
                report.injected.append((r, fault.kind))
                if index.detect() < 1:
                    report.undetected += 1
                if log is not None:
                    log(
                        f"round {r:3d}: injected {fault.kind} -> "
                        f"{index.health.value} "
                        f"({len(index.engine.tickets)} ticket(s))"
                    )
        elif index.health is Health.HEALTHY and r % 10 == 5:
            # Periodic scan while clean: must find nothing.
            report.false_positives += index.detect()

        # -- reads: half present keys, half probes that may miss
        model_keys = np.fromiter(model, dtype=np.float64, count=len(model))
        sample = rng.choice(model_keys, size=batch // 2, replace=False)
        misses = rng.uniform(
            float(universe[0]), float(universe[-1]), size=batch // 2
        )
        read_keys = np.concatenate([sample, misses])
        got = index.get_batch(read_keys)
        for k, actual in zip(read_keys.tolist(), got):
            expect = model.get(k)
            if actual is not expect and actual != expect:
                report.wrong_reads += 1
        report.reads += len(read_keys)

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
            report.max_steps_degraded = max(
                report.max_steps_degraded, degraded_streak
            )
            if index.repair_step():
                report.repair_steps += 1
        else:
            degraded_streak = 0

    # -- convergence: drain any tail repair, then deep-verify
    report.repair_steps += index.repair_all()
    report.final_health = index.health.value
    try:
        index.verify()
        report.verify_clean = True
    except AssertionError:
        report.verify_clean = False
    expect_keys = np.fromiter(
        sorted(model), dtype=np.float64, count=len(model)
    )
    got = index.get_batch(expect_keys) if len(expect_keys) else []
    report.content_clean = len(index) == len(model) and all(
        actual == model[k] for k, actual in zip(expect_keys.tolist(), got)
    )
    stats = index.stats()
    report.plan_splices = stats["plan_splices"]
    report.plan_drops = stats["plan_drops"]
    report.full_rebuilds = stats["full_rebuilds"]

    if with_locks:
        report.lock_stats = run_lock_chaos(seed=seed)
    report.wall_s = time.perf_counter() - t0
    return report


def run_lock_chaos(
    *,
    seed: int = 0,
    num_keys: int = 2_000,
    threads: int = 4,
    ops_per_thread: int = 200,
    stall_s: float = 2e-4,
) -> dict:
    """Concurrency chaos: stalled writer lock, lock-free reads.

    Runs point ops, lock-free reads and rebuilds from ``threads``
    threads while a :class:`StallingLock` delays every acquisition of
    the writer lock.  Reads race the writers lock-free: base keys are
    never deleted, so every point ``get`` and every ``get_batch``
    answer for a base key must resolve (its original value or a
    writer's) in whatever published plan it loaded, or the snapshot
    was torn.  Returns the final ``lock_stats`` (``plan_publishes``
    and ``plan_reads``, the reads answered from the published plan)
    plus ``stalls`` and ``batch_reads``.
    """
    from repro.check.errors import InvariantError

    rng = np.random.default_rng(seed)
    cc = ConcurrentDILI()
    keys = load_dataset("logn", num_keys, seed=seed + 1)
    cc.bulk_load(keys, list(range(num_keys)))
    cc.get_batch(keys[:8])  # compile + publish the plan
    wrapper = stall_lock(cc, stall_s)
    errors: list[BaseException] = []
    batch_reads = [0]

    def worker(worker_seed: int) -> None:
        wrng = np.random.default_rng(worker_seed)
        try:
            for _ in range(ops_per_thread):
                key = float(wrng.choice(keys))
                op = wrng.random()
                if op < 0.35:
                    if cc.get(key) is None:
                        raise InvariantError(
                            f"lock-free get lost base key {key!r}"
                        )
                elif op < 0.6:
                    # Lock-free batch read racing the writers below:
                    # base keys are never deleted, so every answer must
                    # resolve in whatever published plan it loaded.
                    probe = wrng.choice(keys, size=16)
                    got = cc.get_batch(probe)
                    if any(v is None for v in got):
                        raise InvariantError(
                            "lock-free get_batch lost a base key: "
                            "torn or stale-beyond-publication snapshot"
                        )
                    batch_reads[0] += 1
                elif op < 0.8:
                    cc.update(key, "touched")
                else:
                    # Rebuild pressure: a bulk insert may replace the
                    # whole tree under the writer lock.
                    cc.bulk_insert(
                        wrng.uniform(keys[0], keys[-1], size=4),
                        ["chaos"] * 4,
                        rebuild_ratio=0.0,
                    )
        except BaseException as exc:  # surfaced by the caller
            errors.append(exc)

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
    stats = dict(cc.lock_stats)
    if stats["plan_publishes"] < 1 or stats["plan_reads"] < 1:
        raise InvariantError(
            "lock-free read path never engaged: no plan publication or "
            "read from the published plan was recorded"
        )
    if wrapper.stalls < 1:
        raise InvariantError("the stalled writer lock was never acquired")
    stats["stalls"] = wrapper.stalls
    stats["batch_reads"] = batch_reads[0]
    return stats
