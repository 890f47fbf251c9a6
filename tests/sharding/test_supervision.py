"""Fleet supervision: deadlines, breakers, ledgers, degraded serving.

Unit tests drive the clock-injected state machines (Deadline,
CircuitBreaker, RestartPolicy, FleetSupervisor, HealthMonitor.drive_to)
without sleeping; integration tests use real SIGSTOP'd / delayed /
killed worker processes to pin the coordinator-level contracts: hung
workers are replaced within one request deadline, slow workers are not
killed, a worker killed mid-request is revived and the request resent
once, partial-mode reads report exact per-key unavailability, writes
to isolated shards fail with a typed retryable error, aggregate health
reflects *every* shard, and shutdown stays bounded even with a
SIGSTOP'd worker.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.check.errors import InvariantError
from repro.data.datasets import lognormal
from repro.resilience.health import Health, HealthMonitor
from repro.sharding.breaker import BreakerState, CircuitBreaker, RestartPolicy
from repro.sharding.coordinator import ShardedDILI
from repro.sharding.supervision import (
    HEARTBEAT_RID,
    STARTUP_RID,
    UNAVAILABLE,
    Deadline,
    DeadlineExceeded,
    FleetSupervisor,
    ShardUnavailableError,
    WorkerDied,
    _validate_response,
    drain_stale,
    poll_frame,
    recv_frame,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class FakeConn:
    """A pipe endpoint stub: queued frames, optional raising."""

    def __init__(self, frames=(), fail=None) -> None:
        self.frames = list(frames)
        self.fail = fail

    def poll(self, timeout=0.0):
        if self.fail is not None:
            raise self.fail
        return bool(self.frames)

    def recv(self):
        if self.fail is not None:
            raise self.fail
        return self.frames.pop(0)


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------


class TestDeadline:
    def test_unbounded_never_expires(self):
        d = Deadline(None)
        assert d.remaining() == float("inf")
        assert not d.expired
        assert d.slice(0.05) == 0.05

    def test_counts_down_and_expires(self):
        clock = FakeClock()
        d = Deadline(2.0, clock=clock)
        assert d.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert d.remaining() == pytest.approx(0.5)
        assert not d.expired
        clock.advance(1.0)
        assert d.expired
        assert d.slice(0.05) == 0.0

    def test_slice_is_bounded_by_both_cap_and_budget(self):
        clock = FakeClock()
        d = Deadline(1.0, clock=clock)
        assert d.slice(0.05) == 0.05
        clock.advance(0.98)
        assert d.slice(0.05) == pytest.approx(0.02)

    def test_negative_budget_is_an_invariant_violation(self):
        with pytest.raises(InvariantError):
            Deadline(-0.1)


# ----------------------------------------------------------------------
# RestartPolicy backoff
# ----------------------------------------------------------------------


class TestRestartPolicy:
    def test_first_failure_restarts_immediately(self):
        policy = RestartPolicy(backoff_base=0.1, backoff_factor=2.0)
        assert policy.backoff(0) == 0.0
        assert policy.backoff(1) == 0.0

    def test_exponential_with_cap(self):
        policy = RestartPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_cap=0.5
        )
        assert policy.backoff(2) == pytest.approx(0.1)
        assert policy.backoff(3) == pytest.approx(0.2)
        assert policy.backoff(4) == pytest.approx(0.4)
        assert policy.backoff(5) == pytest.approx(0.5)  # capped
        assert policy.backoff(50) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=5.0):
        clock = FakeClock()
        return CircuitBreaker(
            threshold=threshold, cooldown=cooldown, clock=clock
        ), clock

    def test_starts_closed_and_allows(self):
        b, _ = self.make()
        assert b.state is BreakerState.CLOSED
        assert b.closed
        assert b.allow_attempt()

    def test_trips_after_threshold_consecutive_failures(self):
        b, _ = self.make(threshold=3)
        b.record_failure()
        b.record_failure()
        assert b.state is BreakerState.CLOSED
        b.record_failure()
        assert b.state is BreakerState.OPEN
        assert b.trips == 1
        assert not b.allow_attempt()

    def test_cooldown_gates_the_half_open_probe(self):
        b, clock = self.make(threshold=1, cooldown=5.0)
        b.record_failure()
        assert b.state is BreakerState.OPEN
        assert b.cooldown_remaining() == pytest.approx(5.0)
        clock.advance(4.9)
        assert not b.allow_attempt()
        clock.advance(0.2)
        assert b.allow_attempt()
        assert b.state is BreakerState.HALF_OPEN
        # The probe is in flight; a concurrent attempt is still allowed
        # (the coordinator lock serializes them).
        assert b.allow_attempt()

    def test_failed_probe_reopens_and_counts_a_trip(self):
        b, clock = self.make(threshold=1, cooldown=5.0)
        b.record_failure()
        clock.advance(5.1)
        assert b.allow_attempt()
        b.record_failure()
        assert b.state is BreakerState.OPEN
        assert b.trips == 2
        assert b.cooldown_remaining() == pytest.approx(5.0)

    def test_successful_probe_restores_full_trust(self):
        b, clock = self.make(threshold=2, cooldown=5.0)
        b.record_failure()
        b.record_failure()
        clock.advance(5.1)
        assert b.allow_attempt()
        b.record_success()
        assert b.state is BreakerState.CLOSED
        assert b.failures == 0
        assert b.cooldown_remaining() == 0.0
        # One fresh failure does not re-trip a threshold-2 breaker.
        b.record_failure()
        assert b.state is BreakerState.CLOSED

    def test_snapshot_is_side_effect_free(self):
        b, clock = self.make(threshold=1, cooldown=5.0)
        b.record_failure()
        clock.advance(6.0)
        snap = b.snapshot()
        assert snap["state"] == "open"  # reading must not flip HALF_OPEN
        assert b.state is BreakerState.OPEN
        assert snap["failures"] == 1
        assert snap["trips"] == 1

    def test_threshold_must_be_positive(self):
        with pytest.raises(InvariantError):
            CircuitBreaker(threshold=0)


# ----------------------------------------------------------------------
# FleetSupervisor
# ----------------------------------------------------------------------


class TestFleetSupervisor:
    def make(self, names=("a", "b"), **policy_kwargs):
        clock = FakeClock()
        policy = RestartPolicy(
            backoff_base=0.1,
            backoff_factor=2.0,
            backoff_cap=1.0,
            budget=2,
            cooldown=5.0,
            **policy_kwargs,
        )
        return FleetSupervisor(names, policy=policy, clock=clock), clock

    def test_fresh_fleet_is_available_and_healthy(self):
        sup, _ = self.make()
        assert sup.available(0) and sup.available(1)
        assert sup.target_health() is Health.HEALTHY
        assert sup.open_breakers() == 0

    def test_down_shard_degrades_until_revived(self):
        sup, _ = self.make()
        sup.note_down(0, "killed")
        assert not sup.available(0)
        assert sup.target_health() is Health.DEGRADED
        sup.note_success(0)
        assert sup.available(0)
        assert sup.target_health() is Health.HEALTHY

    def test_alive_callback_catches_unnoticed_deaths(self):
        # The two-concurrent-kills case: ledgers say up, but a worker
        # process is gone and no request has noticed yet.
        sup, _ = self.make()
        assert sup.target_health(alive=lambda i: i != 1) is Health.DEGRADED
        assert sup.target_health(alive=lambda i: True) is Health.HEALTHY

    def test_backoff_schedule_gates_restart_attempts(self):
        sup, clock = self.make()
        assert sup.authorize_restart(0) == 0.0  # first failure: immediate
        sup.note_failure(0, "boom")
        delay = sup.authorize_restart(0)
        assert delay == pytest.approx(0.1)
        clock.advance(0.05)
        assert sup.authorize_restart(0) == pytest.approx(0.05)
        clock.advance(0.1)
        assert sup.authorize_restart(0) == 0.0

    def test_budget_exhaustion_trips_the_breaker_and_types_the_error(self):
        sup, clock = self.make()
        sup.note_failure(0, "poisoned dir")
        sup.note_failure(0, "poisoned dir")
        led = sup.ledger(0)
        assert led.breaker.state is BreakerState.OPEN
        with pytest.raises(ShardUnavailableError) as info:
            sup.authorize_restart(0)
        err = info.value
        assert err.retryable is True
        assert err.shard == 0
        assert err.name == "a"
        assert err.state is BreakerState.OPEN
        assert err.retry_after == pytest.approx(5.0)
        # After the cooldown the probe attempt is authorized again.
        clock.advance(5.1)
        assert sup.authorize_restart(0) >= 0.0
        sup.note_success(0)
        assert led.breaker.closed
        assert led.consecutive_failures == 0
        assert sup.target_health() is Health.HEALTHY

    def test_open_breaker_degrades_even_while_up(self):
        sup, _ = self.make()
        sup.note_failure(1, "x")
        sup.note_failure(1, "x")
        sup.ledger(1).up = True  # even if somehow marked up...
        assert sup.target_health() is Health.DEGRADED
        assert sup.open_breakers() == 1
        assert not sup.available(1)

    def test_probe_candidates_respect_backoff_and_cooldown(self):
        sup, clock = self.make()
        sup.note_down(0, "killed")
        assert sup.probe_candidates() == [0]
        sup.note_failure(0, "spawn failed")
        assert sup.probe_candidates() == []  # backing off
        clock.advance(0.2)
        assert sup.probe_candidates() == [0]
        sup.note_failure(0, "spawn failed")  # trips (budget=2)
        clock.advance(1.0)
        assert sup.probe_candidates() == []  # OPEN, cooling down
        clock.advance(5.0)
        assert sup.probe_candidates() == [0]  # probe-ready

    def test_splice_mirrors_a_rebalance_with_fresh_ledgers(self):
        sup, _ = self.make(names=("a", "b", "c"))
        sup.note_failure(1, "x")
        sup.splice(1, 1, ["b1", "b2"])
        names = [led.name for led in sup.ledgers]
        assert names == ["a", "b1", "b2", "c"]
        assert all(led.up for led in sup.ledgers)
        assert sup.target_health() is Health.HEALTHY

    def test_status_snapshots_every_ledger(self):
        sup, _ = self.make()
        sup.note_down(1, "killed")
        rows = sup.status()
        assert [row["name"] for row in rows] == ["a", "b"]
        assert rows[1]["up"] is False
        assert rows[1]["last_error"] == "killed"
        assert rows[0]["breaker"]["state"] == "closed"


# ----------------------------------------------------------------------
# HealthMonitor.drive_to
# ----------------------------------------------------------------------


class TestHealthDriveTo:
    @pytest.mark.parametrize("start", list(Health))
    @pytest.mark.parametrize("target", list(Health))
    def test_reaches_any_target_via_legal_hops(self, start, target):
        monitor = HealthMonitor()
        monitor.drive_to(start)
        before = len(monitor.history)
        monitor.drive_to(target)
        assert monitor.state is target
        # Every hop was committed through .to(), which enforces the
        # transition table -- so reaching the target proves legality;
        # also check the walk was minimal (<= 2 hops in this machine).
        assert len(monitor.history) - before <= 2

    def test_degraded_to_healthy_routes_through_repairing(self):
        monitor = HealthMonitor()
        monitor.to(Health.DEGRADED)
        monitor.drive_to(Health.HEALTHY)
        assert monitor.history == [
            (Health.HEALTHY, Health.DEGRADED),
            (Health.DEGRADED, Health.REPAIRING),
            (Health.REPAIRING, Health.HEALTHY),
        ]


# ----------------------------------------------------------------------
# Frame validation + sanctioned pipe wrappers
# ----------------------------------------------------------------------


class TestFrameValidation:
    def test_good_frame_passes_through(self):
        assert _validate_response((3, True, "pong")) == (3, True, "pong")

    @pytest.mark.parametrize(
        "frame",
        [
            None,
            (1, True),
            (1, True, None, None),
            ("1", True, None),
            (True, True, None),  # bool is not an acceptable req id
            (1, "yes", None),
            [1, True, None],
        ],
    )
    def test_malformed_frames_are_rejected(self, frame):
        with pytest.raises(ValueError):
            _validate_response(frame)


class TestUnavailableMarker:
    def test_falsy_distinct_singleton(self):
        assert not UNAVAILABLE
        assert UNAVAILABLE is not None
        assert repr(UNAVAILABLE) == "<unavailable>"


class TestPipeWrappers:
    def test_poll_frame_translates_os_errors_to_worker_died(self):
        conn = FakeConn(fail=OSError("broken"))
        with pytest.raises(WorkerDied):
            poll_frame(conn, 0.0, "shard-x")

    def test_recv_frame_validates_and_translates(self):
        assert recv_frame(FakeConn([(1, True, "ok")]), "s") == (1, True, "ok")
        with pytest.raises(WorkerDied):
            recv_frame(FakeConn([("bad", True, None)]), "s")
        with pytest.raises(WorkerDied):
            recv_frame(FakeConn(fail=EOFError()), "s")

    def test_drain_stale_notes_heartbeats_and_drops_responses(self):
        beats = []
        conn = FakeConn(
            [
                (HEARTBEAT_RID, True, None),
                (7, True, "stale response"),
                (HEARTBEAT_RID, True, None),
            ]
        )
        drain_stale(conn, "s", on_heartbeat=lambda: beats.append(1))
        assert conn.frames == []
        assert len(beats) == 2

    def test_drain_stale_surfaces_buffered_startup_failure(self):
        conn = FakeConn([(STARTUP_RID, False, ("OSError", "no such dir"))])
        with pytest.raises(WorkerDied, match="startup failed"):
            drain_stale(conn, "s")


# ----------------------------------------------------------------------
# Coordinator integration: real processes, real signals
# ----------------------------------------------------------------------


def make_data(n=1_500, seed=13):
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(0, 10_000_000, size=n)).astype(np.float64)
    values = [int(k) * 7 for k in keys]
    return keys, values


def make_index(tmp_path, *, num_shards=3, processes=True, **kwargs):
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


class TestHungWorkerEscalation:
    def test_hung_worker_replaced_within_one_request_deadline(self, tmp_path):
        request_timeout = 10.0
        index, keys, values = make_index(
            tmp_path,
            request_timeout=request_timeout,
            heartbeat_interval=0.1,
            hang_timeout=0.5,
            policy=RestartPolicy(term_grace=0.3),
            supervise=False,  # force the *in-request* escalation path
        )
        shadow = dict(zip(keys.tolist(), values))
        with index:
            victim = 1
            old_pid = index._handles[victim].pid
            index.pause_worker(victim)
            queries = keys[:: max(1, len(keys) // 120)]  # spans all shards
            started = time.monotonic()
            got = index.get_batch(queries)
            elapsed = time.monotonic() - started
            assert got == [shadow[k] for k in queries.tolist()]
            assert elapsed <= request_timeout + 0.5
            assert index.restarts == 1
            assert index._handles[victim].pid != old_pid
            led = index.supervisor.ledger(victim)
            assert led.up and led.breaker.closed
            assert index.health.state is Health.HEALTHY


class TestSlowWorkerIsNotHung:
    def test_deadline_exceeded_without_killing_the_worker(self, tmp_path):
        index, keys, values = make_index(
            tmp_path,
            request_timeout=1.5,
            heartbeat_interval=0.1,
            hang_timeout=2.0,
            supervise=False,
        )
        shadow = dict(zip(keys.tolist(), values))
        with index:
            victim = 0
            pid = index._handles[victim].pid
            slow_keys = keys[index.router.route(keys) == victim][:20]
            index.set_worker_delay(victim, 3.5)
            with pytest.raises(DeadlineExceeded):
                index.get_batch(slow_keys)
            # Slow is not hung: heartbeats kept flowing, so the worker
            # was neither put down nor restarted.
            assert index._handles[victim].pid == pid
            assert index._handles[victim].alive()
            assert index.restarts == 0
            # Partial mode degrades instead: exactly the slow shard's
            # keys are UNAVAILABLE, every other key is exact.
            mixed = keys[:: max(1, len(keys) // 90)]
            routed = index.router.route(mixed)
            got = index.get_batch(mixed, partial=True)
            for key, shard, value in zip(
                mixed.tolist(), routed.tolist(), got
            ):
                if shard == victim:
                    assert value is UNAVAILABLE
                else:
                    assert value == shadow[key]


class TestForcedOpenBreaker:
    def test_partial_reads_and_typed_write_rejection(self, tmp_path):
        index, keys, values = make_index(tmp_path, processes=False)
        shadow = dict(zip(keys.tolist(), values))
        with index:
            sup = index.supervisor
            for _ in range(sup.policy.budget):
                sup.note_failure(0, "forced open for test")
            assert sup.ledger(0).breaker.state is BreakerState.OPEN

            zero_keys = keys[index.router.route(keys) == 0][:10]
            with pytest.raises(ShardUnavailableError):
                index.get_batch(zero_keys)  # fail-fast default
            # The range-count broadcast has no partial mode.
            with pytest.raises(ShardUnavailableError):
                index.count_range_batch([keys[0]], [keys[-1]])

            def coordinator_ops():
                return [s["coordinator_ops"] for s in index.status()["shards"]]

            mixed = keys[:: max(1, len(keys) // 60)]
            routed = index.router.route(mixed)
            before = coordinator_ops()
            got = index.get_batch(mixed, partial=True)
            for key, shard, value in zip(
                mixed.tolist(), routed.tolist(), got
            ):
                if shard == 0:
                    assert value is UNAVAILABLE
                else:
                    assert value == shadow[key]
            # Only keys actually sent count towards a shard's load.
            grew = np.subtract(coordinator_ops(), before).tolist()
            assert grew == [0] + np.bincount(
                routed, minlength=index.num_shards
            )[1:].tolist()

            # Writes touching the isolated shard are rejected before
            # any scatter: typed, retryable, and with zero side
            # effects on the healthy shards' keys.
            healthy_key = mixed[routed != 0][0]
            batch = np.array([zero_keys[0], healthy_key])
            with pytest.raises(ShardUnavailableError) as info:
                index.update_batch(batch, ["w0", "w1"])
            assert info.value.retryable is True
            assert info.value.shard == 0
            assert index.get_batch(np.array([healthy_key])) == [
                shadow[float(healthy_key)]
            ]

            # contains_batch degrades the same way.
            present = index.contains_batch(mixed, partial=True)
            for shard, flag, key in zip(
                routed.tolist(), list(present), mixed.tolist()
            ):
                if shard == 0:
                    assert flag is UNAVAILABLE
                else:
                    assert bool(flag) == (key in shadow)


class TestInFlightKill:
    def test_worker_killed_mid_request_is_restarted_once(self, tmp_path):
        index, keys, values = make_index(tmp_path, supervise=False)
        shadow = dict(zip(keys.tolist(), values))
        with index:
            index.set_worker_delay(0, 1.0)
            pid = index._handles[0].pid
            # kill_worker would wait for the coordinator lock the read
            # holds, so the signal comes straight from a timer.
            killer = threading.Timer(0.3, os.kill, (pid, signal.SIGKILL))
            queries = keys[:: max(1, len(keys) // 90)]  # spans all shards
            killer.start()
            try:
                got = index.get_batch(queries)
            finally:
                killer.join(timeout=10.0)
            assert not killer.is_alive()
            assert got == [shadow[k] for k in queries.tolist()]
            assert index.restarts == 1
            assert index._handles[0].pid != pid
            led = index.supervisor.ledger(0)
            assert led.up and led.breaker.closed
            assert index.health.state is Health.HEALTHY


class TestAggregateHealthRegression:
    def test_two_concurrent_kills_do_not_mask_each_other(self, tmp_path):
        # PR 8 regression: _restart marked the whole coordinator
        # HEALTHY after reviving one worker while another was dead.
        index, keys, _ = make_index(tmp_path, supervise=False)
        with index:
            a_keys = keys[index.router.route(keys) == 0][:10]
            b_keys = keys[index.router.route(keys) == 1][:10]
            index.kill_worker(0)
            index.kill_worker(1)
            index.get_batch(a_keys)  # revives shard 0 only
            assert index.restarts == 1
            assert index.health.state is Health.DEGRADED
            index.get_batch(b_keys)  # revives shard 1 too
            assert index.restarts == 2
            assert index.health.state is Health.HEALTHY


class TestStaleResponses:
    def test_abandoned_response_is_discarded_not_misdelivered(self, tmp_path):
        index, keys, _ = make_index(tmp_path, supervise=False)
        with index:
            handle = index._handles[0]
            index.set_worker_delay(0, 0.6)
            shard_keys = keys[index.router.route(keys) == 0][:5]
            stale_rid = handle.send("get_batch", (shard_keys, False))
            # Abandon that request; the next call must skip the stale
            # frame by id and return its own response.
            assert handle.call("ping", deadline=10.0) == "pong"
            assert handle._next_req > stale_rid
            index.set_worker_delay(0, 0.0)


class TestBoundedShutdown:
    def test_close_returns_despite_a_sigstopped_worker(self, tmp_path):
        index, _, _ = make_index(
            tmp_path,
            num_shards=2,
            policy=RestartPolicy(term_grace=0.3),
            supervise=False,
        )
        procs = [handle.process for handle in index._handles]
        index.pause_worker(0)
        started = time.monotonic()
        index.close()
        elapsed = time.monotonic() - started
        # stop() budget (5s) + term_grace + kill reaping, per the
        # escalation contract -- never the old unbounded join.
        assert elapsed < 15.0
        assert not any(proc.is_alive() for proc in procs)
        index.close()  # idempotent


class TestStartUpHeartbeats:
    def test_a_start_up_longer_than_the_hang_timeout_is_not_a_hang(
        self, tmp_path
    ):
        """A worker heartbeats from its first instant, so a build or a
        recovery that outlasts ``hang_timeout`` (ten heartbeats) is
        slow, not hung: the first read answers without a restart."""
        keys = lognormal(400_000, 0)
        queries = keys[::101]
        want = list(range(0, len(keys), 101))
        options = {"heartbeat_interval": 0.05, "sync": False}
        started = time.monotonic()
        with ShardedDILI.create(
            tmp_path / "s", keys, num_shards=2, tuning="none", **options
        ) as fleet:
            assert time.monotonic() - started > 2 * fleet.hang_timeout
            assert fleet.get_batch(queries) == want
            assert fleet.restarts == 0
        with ShardedDILI.open(tmp_path / "s", **options) as fleet:
            assert fleet.get_batch(queries) == want
            assert fleet.restarts == 0
