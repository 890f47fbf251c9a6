"""Chaos schedules for sharded serving: ``kill`` and ``supervision``.

:func:`run_shard_chaos` (the ``kill`` schedule) drives a real
multi-process :class:`~repro.sharding.coordinator.ShardedDILI` through
a scripted schedule of batch reads and writes while SIGKILLing workers
-- including one killed *mid-rebalance*, between the moment the
replacement shard directories are fully built and the atomic router
swap -- and audits every single read against a shadow dict: zero wrong
reads, zero lost writes, surviving shards keep serving, and every dead
worker restarts from its shard directory through the plan store's
fallback ladder (the restarted worker must come back serving a
published plan generation, not a degraded stub).

:func:`run_supervision_chaos` (the ``supervision`` schedule) adds, on
top of SIGKILL, **hangs** (SIGSTOP -- the process lives, heartbeats
stop), **slow workers** (the ``set_delay`` verb: serving latency with
heartbeats flowing) and a **crash loop** (the shard directory poisoned
into a plain file, so every restart dies at startup), and checks the
fleet-supervision contract: hung workers are replaced within one
request deadline, slow workers are *not* killed, the crash-looping
shard trips its circuit breaker within the restart budget while every
healthy shard keeps answering, partial-mode reads report exactly the
unavailable keys, and the fleet heals to HEALTHY once the poison is
removed.

Both return a :class:`~repro.check.chaos.ChaosReport` and are
deterministic per seed: all scheduling flows from one seeded RNG, so a
failure reproduces from its seed.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from repro.check.chaos import ChaosReport
from repro.sharding.breaker import BreakerState, RestartPolicy
from repro.sharding.coordinator import ShardedDILI
from repro.sharding.supervision import UNAVAILABLE, ShardUnavailableError


def run_shard_chaos(
    *,
    num_shards: int = 4,
    num_keys: int = 2_000,
    rounds: int = 6,
    batch: int = 256,
    seed: int = 0,
    kill_every: int = 2,
    rebalance_round: int = 3,
    dirpath=None,
    processes: bool = True,
) -> ChaosReport:
    """Serve under fire (the ``kill`` schedule); return the audit.

    Schedule per round: audit a read batch (existing + absent keys),
    apply an insert + delete batch, audit again.  Every
    ``kill_every``-th round SIGKILLs a random worker right before the
    read audit (the next request finds the corpse, restarts it from
    its shard directory, and retries).  On ``rebalance_round`` the
    busiest shard is split with a worker kill injected *between* the
    build of the replacement directories and the atomic swap.  Counts:
    ``rounds``, ``kills``, ``mid_rebalance_kills``, ``restarts``,
    ``rebalances``, ``final_shards`` and ``final_keys``.
    """
    rng = np.random.default_rng(seed)
    report = ChaosReport(schedule="kill", seed=seed)
    counts = report.counts
    counts.update(rounds=0, kills=0, mid_rebalance_kills=0)
    keys = np.unique(rng.integers(0, 10_000_000, size=num_keys)).astype(
        np.float64
    )
    values = [int(k) * 3 for k in keys]
    shadow = dict(zip(keys.tolist(), values))
    own_dir = dirpath is None
    if own_dir:
        tmp = tempfile.TemporaryDirectory(prefix="repro-shard-chaos-")
        dirpath = tmp.name
    next_fresh = 20_000_000  # insert keys disjoint from the loaded range
    try:
        with ShardedDILI.create(
            dirpath,
            keys,
            values,
            num_shards=num_shards,
            partition="range",
            tuning="local",
            processes=processes,
            sync=False,
        ) as index:
            for round_no in range(rounds):
                counts["rounds"] = round_no + 1
                if kill_every and round_no % kill_every == 1:
                    victim = int(rng.integers(0, index.num_shards))
                    index.kill_worker(victim)
                    counts["kills"] += 1
                    report.events.append(
                        f"round {round_no}: killed worker {victim}"
                    )
                hits = rng.choice(keys, size=batch // 2, replace=True)
                misses = rng.uniform(0, 30_000_000, size=batch // 2)
                queries = np.concatenate((hits, misses))
                rng.shuffle(queries)
                _audit_supervised(index, queries, shadow, report)

                fresh = np.arange(
                    next_fresh, next_fresh + batch // 4, dtype=np.float64
                )
                next_fresh += batch // 4
                inserted = index.insert_batch(fresh, [int(k) for k in fresh])
                report.writes += len(fresh)
                for key, ok in zip(fresh.tolist(), inserted.tolist()):
                    shadow[key] = int(key)
                    if not ok:
                        report.lost_writes += 1
                doomed = rng.choice(keys, size=batch // 8, replace=False)
                index.delete_batch(doomed)
                report.writes += len(doomed)
                for key in doomed.tolist():
                    shadow.pop(key, None)
                keys = np.asarray(
                    sorted(set(keys.tolist()) - set(doomed.tolist())),
                    dtype=np.float64,
                )

                if round_no == rebalance_round and index.num_shards > 1:
                    busiest = int(np.argmax(index.ops_counts))
                    victim = (busiest + 1) % index.num_shards

                    def mid_kill() -> None:
                        index.kill_worker(victim)
                        counts["kills"] += 1
                        counts["mid_rebalance_kills"] += 1
                        report.events.append(
                            f"round {round_no}: killed worker {victim} "
                            f"mid-rebalance of shard {busiest}"
                        )

                    index.split_shard(busiest, mid_hook=mid_kill)
                    report.events.append(
                        f"round {round_no}: split shard {busiest}"
                    )
                _audit_supervised(index, queries, shadow, report)

            # Closing audit: every surviving key, plus worker health.
            all_keys = np.asarray(sorted(shadow), dtype=np.float64)
            _audit_supervised(index, all_keys, shadow, report)
            counts.update(
                restarts=index.restarts,
                rebalances=index.rebalances,
                final_shards=index.num_shards,
                final_keys=len(index),
            )
            report.lost_writes += abs(len(index) - len(shadow))
            status = index.status()
            for shard in status["shards"]:
                rung = shard.get("rung")
                if shard.get("health") not in (None, "healthy") or (
                    rung is not None and rung >= 4
                ):
                    report.events.append(
                        f"unhealthy shard after chaos: {shard}"
                    )
    finally:
        if own_dir:
            tmp.cleanup()
    return report


# ----------------------------------------------------------------------
# Supervision chaos: hangs, slow workers, crash loops
# ----------------------------------------------------------------------


def poison_shard_dir(dirpath, name: str) -> str:
    """Crash-loop injector: replace a shard directory with a plain file.

    Every restarted worker then dies at startup (``DurableDILI``'s
    ``os.makedirs`` finds a non-directory in the way), which is the
    crash-loop signature the circuit breaker must contain.  Returns
    the quarantine path holding the real directory; undo with
    :func:`heal_shard_dir`.
    """
    shard_dir = os.path.join(os.fspath(dirpath), name)
    quarantine = shard_dir + ".quarantine"
    os.rename(shard_dir, quarantine)
    with open(shard_dir, "w", encoding="utf-8") as fh:
        fh.write("poisoned by run_supervision_chaos\n")
    return quarantine


def heal_shard_dir(dirpath, name: str) -> None:
    """Undo :func:`poison_shard_dir`: restore the real shard directory."""
    shard_dir = os.path.join(os.fspath(dirpath), name)
    os.remove(shard_dir)
    os.rename(shard_dir + ".quarantine", shard_dir)


def _wait_until(predicate, timeout: float, interval: float = 0.05) -> bool:
    """Poll ``predicate`` until true or ``timeout`` elapses."""
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


def _worker_pid(index: ShardedDILI, shard: int):
    return index.status()["shards"][shard].get("pid")


def _audit_supervised(
    index: ShardedDILI,
    queries: np.ndarray,
    shadow: dict,
    report: ChaosReport,
    *,
    unavailable_shard: int | None = None,
) -> None:
    """Audit one batch read against the shadow dict.

    Without ``unavailable_shard`` the read is fail-fast and every key
    must come back with its shadow value (both chaos schedules audit
    this way).  With ``unavailable_shard`` set the read runs in
    partial mode and the audit demands *exact* per-key
    unavailability: every key routed to that shard comes back
    :data:`UNAVAILABLE` (counted in ``unavailable_marks``, and as a
    read), every other key comes back with its shadow value -- a false
    or missing mark counts in ``misreported_unavailability``.
    """
    expected = [shadow.get(key) for key in queries.tolist()]
    if unavailable_shard is None:
        report.audit(index.get_batch(queries), expected)
        return
    counts = report.counts
    counts["partial_reads"] += 1
    down = (index.router.route(queries) == unavailable_shard).tolist()
    got = index.get_batch(queries, partial=True)
    got_up, expected_up = [], []  # answers from shards that are up
    for value, expect, is_down in zip(got, expected, down):
        if is_down or value is UNAVAILABLE:
            report.reads += 1
            if is_down and value is UNAVAILABLE:
                counts["unavailable_marks"] += 1
            else:
                counts["misreported_unavailability"] += 1
        else:
            got_up.append(value)
            expected_up.append(expect)
    report.audit(got_up, expected_up)


def run_supervision_chaos(
    *,
    num_shards: int = 3,
    num_keys: int = 1_200,
    batch: int = 240,
    seed: int = 0,
    request_timeout: float = 4.0,
    heartbeat_interval: float = 0.1,
    hang_timeout: float = 0.8,
    probe_interval: float = 0.1,
    slow_delay: float = 0.25,
    dirpath=None,
) -> ChaosReport:
    """Drive the fleet through every supervised failure mode; audit all.

    The seeded ``supervision`` schedule mixes the four injectors and
    checks the fleet-supervision contract phase by phase (each check
    below is named after its phase's term):

    1. **baseline** -- audited reads on a healthy fleet.
    2. **SIGKILL** -- one worker killed; the next request restarts it
       transparently (the ``kill`` schedule's contract still holds
       under supervision).
    3. **hang (SIGSTOP)** -- the worker stays alive but heartbeats
       stop; a full-fleet batch read must complete *within one request
       deadline* because the supervisor escalates poll -> SIGTERM ->
       SIGKILL -> restart mid-request (``hung_replaced_within_deadline``).
    4. **slow** -- injected serving delay with heartbeats flowing.
       Under the deadline the read just succeeds; over the deadline a
       partial-mode read marks exactly the slow shard's keys
       :data:`UNAVAILABLE` -- and the worker is *not* killed (slow is
       not hung: ``slow_worker_survived``).
    5. **crash loop** -- the shard directory is poisoned so every
       restart dies at startup; the breaker must trip within the
       restart budget (``breaker_tripped_within_budget``), writes to
       the shard must be rejected with a *typed, retryable* error
       (``write_rejected_retryable``), and the healthy shards must
       keep serving (fail-fast on their keys, partial over the full
       keyspace: ``healthy_shards_kept_serving``).
    6. **heal** -- the poison is removed; the background probe's
       HALF_OPEN restart must close the breaker (``healed``) and
       return the fleet to HEALTHY (``final_health``) with zero wrong
       reads on the full keyspace.

    ``misreported_unavailability`` checks that no partial-mode read
    marked a key wrongly.
    """
    if num_shards < 3:
        raise ValueError("supervision chaos needs >= 3 shards")
    rng = np.random.default_rng(seed)
    report = ChaosReport(schedule="supervision", seed=seed)
    counts = report.counts
    counts.update(
        partial_reads=0,
        unavailable_marks=0,
        misreported_unavailability=0,
        kills=0,
        hang_recovery_seconds=0.0,
        failures_at_trip=0,
    )
    checks = report.checks
    checks["write_rejected_retryable"] = False
    policy = RestartPolicy(
        backoff_base=0.05,
        backoff_factor=2.0,
        backoff_cap=0.5,
        budget=2,
        cooldown=2.5,
        probe_timeout=5.0,
        term_grace=0.5,
    )
    keys = np.unique(rng.integers(0, 10_000_000, size=num_keys)).astype(
        np.float64
    )
    values = [int(k) * 3 for k in keys]
    shadow = dict(zip(keys.tolist(), values))
    own_dir = dirpath is None
    if own_dir:
        tmp = tempfile.TemporaryDirectory(prefix="repro-supervision-chaos-")
        dirpath = tmp.name

    def draw_queries() -> np.ndarray:
        hits = rng.choice(keys, size=batch // 2, replace=True)
        misses = rng.uniform(0, 30_000_000, size=batch // 2)
        queries = np.concatenate((hits, misses))
        rng.shuffle(queries)
        return queries

    try:
        with ShardedDILI.create(
            dirpath,
            keys,
            values,
            num_shards=num_shards,
            partition="range",
            tuning="local",
            processes=True,
            sync=False,
            request_timeout=request_timeout,
            heartbeat_interval=heartbeat_interval,
            hang_timeout=hang_timeout,
            policy=policy,
            probe_interval=probe_interval,
        ) as index:
            victims = rng.permutation(num_shards)
            hang_victim = int(victims[0])
            slow_victim = int(victims[1])
            crash_victim = int(victims[2])

            # Phase 1: baseline.
            _audit_supervised(index, draw_queries(), shadow, report)
            report.events.append("baseline audit clean")

            # Phase 2: plain SIGKILL -- restart stays transparent.
            kill_victim = int(rng.integers(0, num_shards))
            index.kill_worker(kill_victim)
            counts["kills"] += 1
            _audit_supervised(index, draw_queries(), shadow, report)
            report.events.append(f"SIGKILL worker {kill_victim}: served on")

            # Phase 3: hang.  SIGSTOP stops heartbeats but not the
            # process; the in-request escalation must replace it within
            # one deadline.
            old_pid = _worker_pid(index, hang_victim)
            index.pause_worker(hang_victim)
            counts["kills"] += 1
            started = time.monotonic()
            _audit_supervised(index, draw_queries(), shadow, report)
            hang_s = time.monotonic() - started
            counts["hang_recovery_seconds"] = hang_s
            replaced = _wait_until(
                lambda: _worker_pid(index, hang_victim) not in (None, old_pid),
                timeout=request_timeout,
            )
            checks["hung_replaced_within_deadline"] = (
                replaced and hang_s <= request_timeout + 0.5
            )
            report.events.append(
                f"SIGSTOP worker {hang_victim}: replaced in {hang_s:.2f}s"
            )

            # Phase 4a: slow under the deadline -- reads just succeed.
            slow_pid = _worker_pid(index, slow_victim)
            index.set_worker_delay(slow_victim, slow_delay)
            _audit_supervised(index, draw_queries(), shadow, report)

            # Phase 4b: slow over the deadline -- partial mode marks
            # exactly the slow shard's keys, and the worker survives
            # (heartbeats kept flowing, so it was never "hung").
            over_delay = request_timeout + 1.5
            index.set_worker_delay(slow_victim, over_delay)
            _audit_supervised(
                index, draw_queries(), shadow, report,
                unavailable_shard=slow_victim,
            )
            index.set_worker_delay(slow_victim, 0.0)
            survived = _worker_pid(index, slow_victim) == slow_pid
            checks["slow_worker_survived"] = survived
            _audit_supervised(index, draw_queries(), shadow, report)
            report.events.append(
                f"slow worker {slow_victim}: survived={survived}"
            )

            # Phase 5: crash loop.  Poison the shard directory, kill
            # the worker; the background probe's restarts all die at
            # startup and must trip the breaker within the budget.
            crash_name = index.manifest.shards[crash_victim].name
            poison_shard_dir(dirpath, crash_name)
            index.kill_worker(crash_victim)
            counts["kills"] += 1
            ledger = index.supervisor.ledger(crash_victim)
            _wait_until(
                lambda: ledger.breaker.state is BreakerState.OPEN,
                timeout=request_timeout + policy.budget,
            )
            counts["failures_at_trip"] = ledger.consecutive_failures
            checks["breaker_tripped_within_budget"] = (
                ledger.breaker.state is BreakerState.OPEN
                and ledger.consecutive_failures <= policy.budget
            )
            report.events.append(
                f"crash loop {crash_name}: breaker "
                f"{ledger.breaker.state.value} after "
                f"{ledger.consecutive_failures} failures"
            )

            # Writes to the isolated shard: typed, retryable rejection
            # with no side effects.
            target = keys[index.router.route(keys) == crash_victim][:8]
            if len(target):
                try:
                    index.update_batch(
                        target, [int(k) * 7 for k in target]
                    )
                except ShardUnavailableError as exc:
                    checks["write_rejected_retryable"] = bool(
                        getattr(exc, "retryable", False)
                    )
                except Exception as exc:  # cooldown raced: not typed
                    report.events.append(f"write rejection raced: {exc!r}")

            # Healthy shards keep serving: fail-fast on their keys,
            # partial with exact unavailability over the full keyspace.
            queries = draw_queries()
            healthy = queries[index.router.route(queries) != crash_victim]
            before_wrong = report.wrong_reads
            _audit_supervised(index, healthy, shadow, report)
            _audit_supervised(
                index, draw_queries(), shadow, report,
                unavailable_shard=crash_victim,
            )
            checks["healthy_shards_kept_serving"] = (
                report.wrong_reads == before_wrong
                and counts["misreported_unavailability"] == 0
            )

            # Phase 6: heal.  The next HALF_OPEN probe restart succeeds,
            # closes the breaker, and the fleet returns to HEALTHY.
            heal_shard_dir(dirpath, crash_name)
            healed = _wait_until(
                lambda: ledger.up and ledger.breaker.closed,
                timeout=4.0 * policy.cooldown,
            )
            checks["healed"] = healed
            if healed and len(target):
                # The previously rejected write now lands.
                index.update_batch(target, [int(k) * 7 for k in target])
                report.writes += len(target)
                for key in target.tolist():
                    shadow[key] = int(key) * 7
            all_keys = np.asarray(sorted(shadow), dtype=np.float64)
            _audit_supervised(
                index, all_keys, shadow, report,
                unavailable_shard=None if healed else crash_victim,
            )
            status = index.status()
            counts["restarts"] = index.restarts
            checks["final_health"] = status["health"] == "healthy"
            checks["misreported_unavailability"] = (
                counts["misreported_unavailability"] == 0
            )
            report.events.append(
                f"healed: health={status['health']} "
                f"open_breakers={status['open_breakers']}"
            )
    finally:
        if own_dir:
            tmp.cleanup()
    return report
