"""``ShardedDILI``: scatter/gather coordination over shard workers.

The coordinator owns the router and the worker handles; it never
touches index state itself (CHK009).  Every batch op goes through one
fan-out (``_fan_out``): it routes its keys, sends the per-shard
sub-batches over the worker pipes -- all sub-requests are in flight
simultaneously, which is where the multi-process parallelism comes
from -- and gathers the responses back into input order through the
stable routing permutation.  Each op keeps only its own argument
building and answer assembly.

Reads travel as arrays.  A request carries one float64 key array; a
``get_batch`` reply is ``(hits, payload, segments)``: a bool mask over
the part, the hits' values as one int64 or 1-D object array, and the
trace segments (None untraced).  The coordinator checks each reply's
arity, lengths and dtypes against its part, then fills one
``None``-initialised object array with ``out[positions[hits]] =
payload`` per shard, so each answer is boxed once, on the client, and
a malformed reply raises instead of becoming an answer.

Guarantees:

* **Order identity**: results come back in input order, exactly as an
  unsharded index would return them.
* **Trace identity** (aligned partitions, read-only): traced
  ``get_batch`` replays the workers' recorded per-key event segments
  into the caller's tracer in input order, so a stateful cost tracer
  (LRU cache simulation included) observes the event stream of the
  equivalent unsharded index, ±0 cycles.  See
  :mod:`repro.sharding.partition`.
* **Worker death is survivable**: a dead worker (broken pipe, kill -9)
  transitions coordinator health HEALTHY -> DEGRADED, is restarted
  from its shard directory -- recovery runs the PR 6 fallback ladder:
  newest published plan, older generation, snapshot+WAL rebuild --
  then health walks REPAIRING -> HEALTHY and the request is resent
  once, if its deadline still has budget (``_recv_retry``, the one
  retry rule for batch ops and single calls alike).
  Reads are idempotent; a write retried across a crash is
  at-least-once (the final state is idempotent because the WAL logs
  validated ops, but the returned inserted/deleted flags can
  understate if the first attempt had partially applied).
* **Rebalancing is atomic**: splits and merges build fully published
  replacement shard directories first, then swap the shard table and
  router inside the coordinator lock, then stop the old workers.  A
  reader never observes a half-updated router, and old directories
  are kept on disk, never deleted.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np

from repro.core.dili import DiliConfig, check_batch_keys
from repro.durability.durable import DurableDILI
from repro.resilience.health import Health, HealthMonitor
from repro.sharding.breaker import RestartPolicy
from repro.sharding.manifest import (
    Manifest,
    ShardEntry,
    read_manifest,
    write_manifest,
)
from repro.sharding.partition import (
    build_range_shards,
    fit_shard_config,
    split_aligned,
)
from repro.sharding.router import ShardRouter, router_from_dict
from repro.sharding.supervision import (
    HEARTBEAT_RID,
    POLL_INTERVAL,
    STARTUP_RID,
    UNAVAILABLE,
    Deadline,
    DeadlineExceeded,
    FleetSupervisor,
    ShardUnavailableError,
    WorkerDied,
    WorkerHung,
    _validate_response,
    drain_stale,
    poll_frame,
    recv_frame,
)
from repro.sharding.worker import (
    HEARTBEAT_INTERVAL,
    ShardWorker,
    replay_segment,
    worker_main,
)
from repro.simulate.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "LocalHandle",
    "ProcessHandle",
    "ShardedDILI",
    "ShardUnavailableError",
    "WorkerDied",
    "WorkerHung",
    "WorkerRemoteError",
]


class WorkerRemoteError(RuntimeError):
    """The worker raised; carries the remote type name and message."""


_REMOTE_TYPES = {
    "ValueError": ValueError,
    "KeyError": KeyError,
    "NotImplementedError": NotImplementedError,
}


def _raise_remote(name: str, message: str):
    exc_type = _REMOTE_TYPES.get(name)
    if exc_type is not None:
        raise exc_type(f"shard worker: {message}")
    raise WorkerRemoteError(f"shard worker {name}: {message}")


_PAYLOAD_DTYPES = (np.dtype(np.int64), np.dtype(object))


def _checked_reply(answer, n: int, record: bool, shard: str) -> tuple:
    """A worker's ``get_batch`` reply for a part of ``n`` keys, checked.

    The reply must be ``(hits, payload, segments)``: ``hits`` a bool
    array of shape ``(n,)``, ``payload`` an int64 or object array of
    shape ``(hits.sum(),)`` -- a length-1 payload would otherwise
    broadcast over every hit -- and, when ``record``, ``segments`` a
    list of ``n`` trace segments.

    Raises:
        ValueError: The reply does not fit its part; nothing of it may
            become an answer.
    """
    def malformed(what: str):
        return ValueError(f"shard {shard}: malformed get_batch reply: {what}")

    if not isinstance(answer, tuple) or len(answer) != 3:
        raise malformed(f"{type(answer).__name__}, not a 3-tuple")
    hits, payload, segments = answer
    if (
        not isinstance(hits, np.ndarray)
        or hits.dtype != np.bool_
        or hits.shape != (n,)
    ):
        raise malformed(f"hit mask is not a bool array of {n}")
    count = int(np.count_nonzero(hits))
    if (
        not isinstance(payload, np.ndarray)
        or payload.dtype not in _PAYLOAD_DTYPES
        or payload.shape != (count,)
    ):
        raise malformed(f"payload is not an int64 or object array of {count}")
    if record and (not isinstance(segments, list) or len(segments) != n):
        raise malformed(f"trace is not a list of {n} segments")
    return hits, payload, segments


def _mp_context():
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class ProcessHandle:
    """One worker process behind a duplex pipe.

    All pipe waits flow through the sanctioned supervision wrappers
    (CHK014), sliced from the caller's :class:`Deadline`, and the
    handle tracks ``last_heard`` -- the monotonic time of the last
    frame (response *or* heartbeat) -- so receives can distinguish a
    *hung* worker (heartbeat-silent past ``hang_timeout``:
    :class:`WorkerHung`, escalate and replace) from a merely *slow*
    one (heartbeats flowing: :class:`DeadlineExceeded`, leave it be).
    """

    def __init__(
        self,
        dirpath,
        *,
        sync: bool,
        ctx=None,
        heartbeat: float = HEARTBEAT_INTERVAL,
        term_grace: float = 1.0,
    ) -> None:
        self.dirpath = os.fspath(dirpath)
        self.heartbeat = heartbeat
        self.term_grace = term_grace
        ctx = ctx if ctx is not None else _mp_context()
        parent, child = ctx.Pipe()
        self.process = ctx.Process(
            target=worker_main,
            args=(self.dirpath, child, sync, heartbeat),
            daemon=True,
        )
        self.process.start()
        child.close()
        self.conn = parent
        self._next_req = 0
        self.last_heard = time.monotonic()

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()

    def _note_heard(self) -> None:
        self.last_heard = time.monotonic()

    def send(self, method: str, args: tuple = ()) -> int:
        # Anything buffered before a fresh request id is issued is
        # stale by construction (heartbeats, responses to abandoned
        # requests); draining here keeps a slow worker's heartbeats
        # from filling the pipe between requests.
        drain_stale(self.conn, self.dirpath, on_heartbeat=self._note_heard)
        self._next_req += 1
        rid = self._next_req
        try:
            self.conn.send((rid, method, args))
        except (OSError, BrokenPipeError) as exc:
            raise WorkerDied(
                f"{self.dirpath}: worker pipe is broken: {exc}"
            ) from exc
        return rid

    def recv(
        self,
        rid: int,
        deadline: Deadline | float | None = None,
        hang_timeout: float | None = None,
    ):
        """Wait for response ``rid`` within the request's budget.

        Raises:
            WorkerDied: The process exited (its last frames are
                drained first -- a buffered startup failure surfaces
                as the remote error it reported).
            WorkerHung: Alive but heartbeat-silent past
                ``hang_timeout`` -- the caller should escalate.
            DeadlineExceeded: Budget exhausted while the worker is
                alive and heartbeating -- slow, not hung; retryable.
        """
        if not isinstance(deadline, Deadline):
            deadline = Deadline(deadline)
        while True:
            if poll_frame(
                self.conn, deadline.slice(POLL_INTERVAL), self.dirpath
            ):
                got, ok, payload = recv_frame(self.conn, self.dirpath)
                self._note_heard()
                if got == HEARTBEAT_RID:
                    continue
                if got == STARTUP_RID and not ok:
                    _raise_remote(payload[0], f"startup failed: {payload[1]}")
                if got != rid:
                    continue  # stale response from an abandoned request
                if not ok:
                    _raise_remote(payload[0], payload[1])
                return payload
            if not self.process.is_alive():
                # Drain anything flushed before death.
                if poll_frame(self.conn, 0.0, self.dirpath):
                    continue
                raise WorkerDied(f"{self.dirpath}: worker process exited")
            if (
                hang_timeout is not None
                and self.heartbeat > 0
                and time.monotonic() - self.last_heard > hang_timeout
            ):
                raise WorkerHung(
                    f"{self.dirpath}: no heartbeat for {hang_timeout}s; "
                    f"worker pid {self.pid} presumed hung"
                )
            if deadline.expired:
                raise DeadlineExceeded(
                    f"{self.dirpath}: request {rid} exceeded its "
                    f"{deadline.budget}s deadline budget"
                )

    def call(
        self,
        method: str,
        args: tuple = (),
        deadline: Deadline | float | None = None,
        hang_timeout: float | None = None,
    ):
        return self.recv(self.send(method, args), deadline, hang_timeout)

    def hang_suspected(self, hang_timeout: float) -> bool:
        """Idle-time hang check (no request in flight): drain any
        buffered heartbeats, then judge the silence."""
        if self.heartbeat <= 0 or not self.process.is_alive():
            return False
        drain_stale(self.conn, self.dirpath, on_heartbeat=self._note_heard)
        return time.monotonic() - self.last_heard > hang_timeout

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful, *bounded* shutdown: ask -> join -> TERM -> KILL.

        Every wait is bounded and each escalation rung joins at most
        once, so ``stop`` returns within roughly ``timeout +
        term_grace`` even for a SIGSTOP'd worker (SIGTERM stays
        pending on a stopped process; SIGKILL does not).
        """
        budget = Deadline(timeout)
        try:
            rid = self.send("stop")
            self.recv(rid, deadline=budget)
        except (WorkerDied, WorkerRemoteError, DeadlineExceeded):
            pass
        self.process.join(timeout=budget.slice(timeout))
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=self.term_grace)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=10.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def put_down(self, grace: float | None = None) -> None:
        """Hung-worker escalation: SIGTERM -> bounded join -> SIGKILL.

        No goodbye frame: the target is presumed unresponsive (the
        poll already happened -- this *is* the poll -> SIGTERM ->
        SIGKILL ladder's kill end)."""
        grace = self.term_grace if grace is None else grace
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=grace)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=10.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def kill(self) -> None:
        """SIGKILL, no goodbye -- the chaos harness's verb."""
        self.process.kill()
        self.process.join(timeout=10.0)


class LocalHandle:
    """In-process transport: same protocol, no pipe, no process.

    Used by property-based tests (no per-example spawn cost) and by
    ``processes=False`` coordinators.  Never "dies".
    """

    def __init__(self, dirpath, *, sync: bool) -> None:
        self.dirpath = os.fspath(dirpath)
        self.worker = ShardWorker(dirpath, sync=sync)
        self._results: dict[int, object] = {}
        self._next_req = 0
        self.heartbeat = 0.0
        self.last_heard = time.monotonic()

    @property
    def pid(self) -> int:
        return os.getpid()

    def alive(self) -> bool:
        return True

    def send(self, method: str, args: tuple = ()) -> int:
        self._next_req += 1
        rid = self._next_req
        self._results[rid] = self.worker.dispatch(method, args)
        return rid

    def recv(self, rid: int, deadline=None, hang_timeout=None):
        return self._results.pop(rid)

    def call(self, method: str, args: tuple = (), deadline=None,
             hang_timeout=None):
        return self.recv(self.send(method, args), deadline, hang_timeout)

    def hang_suspected(self, hang_timeout: float) -> bool:
        return False

    def stop(self, timeout: float = 5.0) -> None:
        self.worker.close()

    def put_down(self, grace: float | None = None) -> None:
        self.worker.close()

    def kill(self) -> None:
        self.worker.close()


def _shard_dir_name(number: int) -> str:
    return f"shard-{number:04d}"


def _config_summary(config: DiliConfig) -> dict:
    return {"omega": config.omega, "rho": config.rho}


def _build_shard_dir(
    dirpath, keys, values, config: DiliConfig
) -> None:
    """Bulk-load one shard directory and publish its first plan."""
    with DurableDILI(dirpath, config=config) as durable:
        if len(keys):
            durable.bulk_load(keys, values)
            durable.publish_plan()


class ShardedDILI:
    """Multi-process sharded serving facade over one state directory.

    The directory holds ``shards.json`` plus one DurableDILI state
    subdirectory per shard.  Batch ops mirror the unsharded API:
    ``get_batch`` (with optional tracer), ``contains_batch``,
    ``count_range`` / ``count_range_batch``, ``insert_batch``,
    ``delete_batch``, ``update_batch``, ``len()``.

    Thread-safety: all public ops serialize on one coordinator lock;
    parallelism is *across worker processes*, not across caller
    threads (in-process read concurrency is
    :class:`~repro.core.concurrent.ConcurrentDILI`'s lock-free batch
    reads of its published plan).

    Supervision (see :mod:`repro.sharding.supervision`): every batch
    op draws all its pipe waits, restarts and retries from **one**
    ``request_timeout`` deadline budget; workers heartbeat every
    ``heartbeat_interval`` seconds and a worker silent past
    ``hang_timeout`` is escalated SIGTERM -> SIGKILL -> restart;
    restarts are gated per shard by ``policy`` (exponential backoff +
    budget) and repeated failures trip that shard's circuit breaker,
    isolating it while the rest of the fleet keeps serving.  With
    ``supervise=True`` (the default for process-backed fleets) a
    background thread probes for dead/hung workers and revives them
    off the request path.  Batch reads accept ``partial=True`` to
    return healthy-shard results with explicit per-key
    :data:`~repro.sharding.supervision.UNAVAILABLE` markers instead
    of failing; writes touching an isolated shard always fail fast
    with a retryable
    :class:`~repro.sharding.supervision.ShardUnavailableError`.
    """

    def __init__(
        self,
        dirpath,
        manifest: Manifest,
        *,
        processes: bool = True,
        sync: bool = True,
        request_timeout: float | None = 120.0,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        hang_timeout: float | None = None,
        policy: RestartPolicy | None = None,
        supervise: bool | None = None,
        probe_interval: float = 0.5,
    ) -> None:
        self.dirpath = os.fspath(dirpath)
        self.manifest = manifest
        self.processes = processes
        self.sync = sync
        self.request_timeout = request_timeout
        self.heartbeat_interval = heartbeat_interval if processes else 0.0
        if hang_timeout is None and self.heartbeat_interval > 0:
            hang_timeout = 10.0 * self.heartbeat_interval
        self.hang_timeout = hang_timeout if processes else None
        self.policy = policy if policy is not None else RestartPolicy()
        self.router = router_from_dict(manifest.router)
        self.health = HealthMonitor()
        self.supervisor = FleetSupervisor(
            [entry.name for entry in manifest.shards], policy=self.policy
        )
        self.restarts = 0
        self.rebalances = 0
        self._ctx = _mp_context() if processes else None
        self._lock = threading.RLock()
        self._handles = [
            self._spawn(entry.name) for entry in manifest.shards
        ]
        self.ops_counts = [0] * len(self._handles)
        self.supervise = processes if supervise is None else supervise
        self._probe_interval = probe_interval
        self._stop_probe = threading.Event()
        self._probe_thread = None
        if self.supervise:
            self._probe_thread = threading.Thread(
                target=self._probe_loop, name="shard-supervisor", daemon=True
            )
            self._probe_thread.start()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        dirpath,
        keys,
        values: list | None = None,
        *,
        num_shards: int = 2,
        partition: str = "range",
        tuning: str = "local",
        config: DiliConfig | None = None,
        seed: int = 0,
        **open_kwargs,
    ) -> "ShardedDILI":
        """Partition ``keys``, build + publish every shard, and serve.

        Args:
            partition: ``"range"`` quantile-partitions the keys and
                bulk-loads each shard independently (``tuning`` picks
                per-shard vs global cost parameters);  ``"aligned"``
                splits one global tree at the root's children, which
                preserves ±0 trace parity with the unsharded index.
            num_shards: Shard count (aligned mode caps it at the root
                fanout).
            open_kwargs: Forwarded to the constructor (``processes``,
                ``sync``, ``request_timeout``).
        """
        dirpath = os.fspath(dirpath)
        os.makedirs(dirpath, exist_ok=True)
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        entries: list[ShardEntry] = []
        if partition == "range":
            plan = build_range_shards(
                keys, values, num_shards, tuning=tuning, base=config,
                seed=seed,
            )
            for j, spec in enumerate(plan.shards):
                name = _shard_dir_name(j)
                _build_shard_dir(
                    os.path.join(dirpath, name),
                    spec.keys,
                    spec.values,
                    spec.config,
                )
                entries.append(
                    ShardEntry(name, len(spec.keys),
                               _config_summary(spec.config))
                )
            router = plan.router
        elif partition == "aligned":
            from repro.durability.recovery import SNAPSHOT_NAME
            from repro.durability.snapshot import write_snapshot

            part = split_aligned(keys, values, num_shards, config=config)
            for j, shard in enumerate(part.shards):
                name = _shard_dir_name(j)
                shard_dir = os.path.join(dirpath, name)
                os.makedirs(shard_dir, exist_ok=True)
                write_snapshot(
                    shard.index,
                    os.path.join(shard_dir, SNAPSHOT_NAME),
                    last_seqno=0,
                )
                with DurableDILI(shard_dir, config=config) as durable:
                    if durable.index.root is not None:
                        durable.publish_plan()
                entries.append(
                    ShardEntry(name, shard.count,
                               _config_summary(shard.index.config))
                )
            router = part.router
        else:
            raise ValueError(f"unknown partition mode {partition!r}")
        manifest = Manifest(
            router=router.to_dict(),
            shards=entries,
            generation=1,
            next_shard=len(entries),
            partition=partition,
        )
        write_manifest(dirpath, manifest)
        return cls(dirpath, manifest, **open_kwargs)

    @classmethod
    def open(cls, dirpath, **open_kwargs) -> "ShardedDILI":
        """Serve an existing sharded directory."""
        return cls(dirpath, read_manifest(dirpath), **open_kwargs)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._handles)

    def _spawn(self, name: str):
        shard_dir = os.path.join(self.dirpath, name)
        if self.processes:
            return ProcessHandle(
                shard_dir,
                sync=self.sync,
                ctx=self._ctx,
                heartbeat=self.heartbeat_interval,
                term_grace=self.policy.term_grace,
            )
        return LocalHandle(shard_dir, sync=self.sync)

    def _alive(self, index: int) -> bool:
        return self._handles[index].alive()

    def _deadline(self) -> Deadline:
        return Deadline(self.request_timeout)

    def _revive(self, index: int, *, deadline: Deadline | None = None) -> None:
        """Replace a dead worker under supervision gating.

        Recovery is the shard dir's problem: the fresh process
        re-opens the directory through DurableDILI + MmapDILI, i.e.
        the PR 6 fallback ladder decides what serves (published plan
        first, snapshot+WAL rebuild last).  The supervisor gates the
        attempt: a first failure revives immediately (a single crash
        stays transparent to callers), repeated failures back off
        exponentially and eventually trip the shard's breaker, which
        raises :class:`ShardUnavailableError` here instead of
        re-spawning the corpse.  Aggregate health is re-derived from
        *all* shards afterwards -- reviving one worker cannot declare
        the fleet healthy while another shard is down.
        """
        sup = self.supervisor
        delay = sup.authorize_restart(index)
        if delay > 0.0:
            if deadline is not None and delay >= deadline.remaining():
                led = sup.ledger(index)
                raise ShardUnavailableError(
                    f"shard {led.name} is backing off ({delay:.2f}s) "
                    f"past the request deadline",
                    shard=index,
                    name=led.name,
                    state=led.breaker.state,
                    retry_after=delay,
                )
            time.sleep(delay)
        self.restarts += 1
        sup.note_attempt(index)
        self.health.drive_to(Health.DEGRADED)
        old = self._handles[index]
        try:
            old.put_down(self.policy.term_grace)
        except Exception:
            pass
        probe_budget = (
            deadline if deadline is not None
            else Deadline(self.policy.probe_timeout)
        )
        try:
            self._handles[index] = self._spawn(
                self.manifest.shards[index].name
            )
            self.health.drive_to(Health.REPAIRING)
            self._handles[index].call(
                "ping", (),
                deadline=probe_budget, hang_timeout=self.hang_timeout,
            )
        except (
            WorkerDied, WorkerRemoteError, DeadlineExceeded, OSError
        ) as exc:
            sup.note_failure(index, str(exc))
            self.health.drive_to(sup.target_health(self._alive))
            raise WorkerDied(
                f"{self.manifest.shards[index].name}: restart failed: {exc}"
            ) from exc
        sup.note_success(index)
        self.health.drive_to(sup.target_health(self._alive))

    def _probe_loop(self) -> None:
        while not self._stop_probe.wait(self._probe_interval):
            try:
                self._probe_once()
            except Exception:
                # The supervisor must outlive any single probe error.
                pass

    def _probe_once(self) -> None:
        """One background supervision sweep, off the request path.

        Marks silently-dead and heartbeat-silent (hung) workers down
        -- putting hung ones down SIGTERM -> SIGKILL -- then revives
        every shard whose backoff has elapsed and whose breaker
        permits an attempt, and re-derives aggregate health.
        """
        with self._lock:
            if not self._handles:
                return
            sup = self.supervisor
            for index, handle in enumerate(self._handles):
                if not sup.ledger(index).up:
                    continue
                try:
                    hung = self.hang_timeout is not None and (
                        handle.hang_suspected(self.hang_timeout)
                    )
                except WorkerDied as exc:
                    sup.note_down(index, str(exc))
                    continue
                if hung:
                    handle.put_down(self.policy.term_grace)
                    sup.note_down(index, "heartbeat-silent (hung)")
                elif not handle.alive():
                    sup.note_down(index, "worker process exited")
            for index in sup.probe_candidates():
                try:
                    self._revive(index)
                except (WorkerDied, ShardUnavailableError):
                    pass
            self.health.drive_to(sup.target_health(self._alive))

    def _call(self, index: int, method: str, args: tuple = ()):
        """One synchronous worker call under its own request deadline:
        :meth:`_send_retry`, then :meth:`_recv_retry`."""
        deadline = self._deadline()
        rid = self._send_retry(index, method, args, deadline)
        return self._recv_retry(index, rid, method, args, deadline)

    # ------------------------------------------------------------------
    # Fan-out: route, send, retry, gather
    # ------------------------------------------------------------------

    def _send_retry(
        self, index: int, method: str, args: tuple, deadline: Deadline
    ) -> int:
        """Send one request, reviving a down shard first; a broken
        pipe marks the shard down, revives it and sends again."""
        if not self.supervisor.available(index):
            self._revive(index, deadline=deadline)
        try:
            return self._handles[index].send(method, args)
        except WorkerDied as exc:
            self.supervisor.note_down(index, str(exc))
            self._revive(index, deadline=deadline)
            return self._handles[index].send(method, args)

    def _recv_retry(
        self, index: int, rid: int, method: str, args: tuple,
        deadline: Deadline,
    ):
        """Receive one in-flight response under the one retry rule.

        A failed receive marks the shard down, putting a hung
        (heartbeat-silent) worker down SIGTERM -> SIGKILL first.  Then,
        only while ``deadline`` still has budget, the worker is revived
        and the request resent once.  A slow worker's
        :class:`DeadlineExceeded` propagates untouched.
        """
        for resend in (False, True):
            if resend:
                rid = self._send_retry(index, method, args, deadline)
            handle = self._handles[index]
            try:
                return handle.recv(
                    rid, deadline=deadline, hang_timeout=self.hang_timeout
                )
            except WorkerDied as exc:
                if isinstance(exc, WorkerHung):
                    handle.put_down(self.policy.term_grace)
                self.supervisor.note_down(index, str(exc))
                if resend or deadline.expired:
                    raise

    def _route(self, keys: np.ndarray) -> list:
        """Split a batch by shard: one ``(shard, positions)`` part per
        shard that got keys, ``positions`` ascending (a stable sort).

        The shard ids are sorted in the smallest unsigned type that
        holds them (uint8 up to 255 shards, then uint16), which numpy's
        stable sort orders by radix: 14-18 us for 4,096 keys at 2-64
        shards, cast included, against 54-187 us as int64.
        """
        shard_ids = self.router.route(keys).astype(
            np.min_scalar_type(self.num_shards)
        )
        order = np.argsort(shard_ids, kind="stable")
        cuts = np.searchsorted(
            shard_ids[order], np.arange(self.num_shards + 1)
        )
        return [
            (s, order[cuts[s]:cuts[s + 1]])
            for s in range(self.num_shards)
            if cuts[s] < cuts[s + 1]
        ]

    _READ_FAULTS = (ShardUnavailableError, WorkerDied, DeadlineExceeded)

    def _fan_out(
        self, method: str, parts: list, build_args, deadline: Deadline,
        *, partial: bool = False,
    ) -> list:
        """Send every part's request, then gather every answer.

        A part is ``(shard, positions)``: the positions of the keys
        routed to that shard, or ``None`` for a broadcast part (the
        shard answers the whole batch).  ``build_args(positions)``
        makes the part's request arguments.  Every request is in flight
        before the first receive, which is where the multi-process
        parallelism comes from, and ``ops_counts`` grows by the keys
        actually sent.  Returns one answer per part, in part order;
        with ``partial``, a shard that fails at send or at receive
        answers :data:`UNAVAILABLE` instead of failing the batch.
        """
        sent = []
        for s, positions in parts:
            args = build_args(positions)
            try:
                rid = self._send_retry(s, method, args, deadline)
            except self._READ_FAULTS:
                if not partial:
                    raise
                sent.append(None)
                continue
            sent.append((rid, args))
            if positions is not None:
                self.ops_counts[s] += len(positions)
        answers = []
        for (s, _), request in zip(parts, sent):
            answer = UNAVAILABLE
            if request is not None:
                rid, args = request
                try:
                    answer = self._recv_retry(s, rid, method, args, deadline)
                except self._READ_FAULTS:
                    if not partial:
                        raise
            answers.append(answer)
        return answers

    # ------------------------------------------------------------------
    # Batch reads
    # ------------------------------------------------------------------

    def get_batch(
        self, keys, tracer: Tracer = NULL_TRACER, *, partial: bool = False
    ) -> list:
        """Values per key (None where absent), input order preserved.

        With a real tracer, the per-key simulated event streams the
        workers recorded are replayed here in input order -- on an
        aligned read-only partition that is the exact unsharded stream
        (±0 cycles; once WAL-tail overlays apply the per-key costs are
        the documented PR 6 base-descent approximation).

        ``partial=True`` opts into degraded serving: keys routed to a
        shard that is isolated (breaker OPEN), dead beyond revival, or
        too slow for the request deadline come back as the
        :data:`~repro.sharding.supervision.UNAVAILABLE` marker while
        every other key is answered normally.  The default stays
        fail-fast: any unavailable shard raises.
        """
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        n = len(keys)
        if n == 0:
            return []
        record = not isinstance(tracer, NullTracer)
        out = np.full(n, None, dtype=object)
        segments: list = [None] * n if record else []
        with self._lock:
            parts = self._route(keys)
            answers = self._fan_out(
                "get_batch", parts,
                lambda positions: (keys[positions], record),
                self._deadline(), partial=partial,
            )
            for (s, positions), answer in zip(parts, answers):
                if answer is UNAVAILABLE:
                    out[positions] = UNAVAILABLE
                    continue
                hits, payload, segs = _checked_reply(
                    answer, len(positions), record,
                    self.manifest.shards[s].name,
                )
                out[positions[hits]] = payload
                if record:
                    for pos, seg in zip(positions.tolist(), segs):
                        segments[pos] = seg
            for seg in segments:
                if seg is not None:
                    replay_segment(seg, tracer)
        return out.tolist()

    def contains_batch(self, keys, *, partial: bool = False) -> np.ndarray:
        """Membership per key.  ``partial=True`` returns an object
        array holding True/False/:data:`UNAVAILABLE` per key instead
        of failing on an unavailable shard."""
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        n = len(keys)
        out = (
            np.empty(n, dtype=object) if partial
            else np.zeros(n, dtype=bool)
        )
        if n == 0:
            return out
        with self._lock:
            parts = self._route(keys)
            answers = self._fan_out(
                "contains_batch", parts,
                lambda positions: (keys[positions],),
                self._deadline(), partial=partial,
            )
            for (_, positions), answer in zip(parts, answers):
                # An object array takes a bool answer as Python bools.
                out[positions] = (
                    answer if answer is UNAVAILABLE else np.asarray(answer)
                )
        return out

    def count_range(self, lo: float, hi: float) -> int:
        return int(self.count_range_batch([lo], [hi])[0])

    def count_range_batch(self, los, his) -> np.ndarray:
        """Per-pair counts; shard contents are disjoint, so the
        all-shard broadcast sums are exact."""
        los = np.ascontiguousarray(los, dtype=np.float64)
        his = np.ascontiguousarray(his, dtype=np.float64)
        if len(los) != len(his):
            raise ValueError("los and his must match in length")
        totals = np.zeros(len(los), dtype=np.int64)
        if len(los) == 0:
            return totals
        with self._lock:
            # No partial mode: the broadcast sums need every shard's
            # answer to be exact, so a missing shard must fail loudly.
            answers = self._fan_out(
                "count_range_batch",
                [(s, None) for s in range(self.num_shards)],
                lambda _: (los, his),
                self._deadline(),
            )
        for answer in answers:
            totals += np.asarray(answer, dtype=np.int64)
        return totals

    # ------------------------------------------------------------------
    # Batch writes
    # ------------------------------------------------------------------

    def _write_batch(
        self, method: str, keys, values: list | None
    ) -> np.ndarray:
        keys = check_batch_keys(keys)
        n = len(keys)
        if values is not None and len(values) != n:
            raise ValueError("values must match keys in length")
        out = np.zeros(n, dtype=bool)
        if n == 0:
            return out

        def build_args(positions) -> tuple:
            if method == "delete_batch":
                return (keys[positions],)
            if values is None:
                return (keys[positions], None)
            return (keys[positions], [values[i] for i in positions])

        with self._lock:
            deadline = self._deadline()
            parts = self._route(keys)
            # Writes never degrade partially: every target shard must
            # be available (or revivable right now) *before* anything
            # is sent, so an isolated shard rejects the whole batch
            # with a typed, retryable error and no side effects.
            for s, _ in parts:
                if not self.supervisor.available(s):
                    self._revive(s, deadline=deadline)
            answers = self._fan_out(method, parts, build_args, deadline)
            for (_, positions), answer in zip(parts, answers):
                out[positions] = np.asarray(answer)
        return out

    def insert_batch(self, keys, values: list | None = None) -> np.ndarray:
        return self._write_batch("insert_batch", keys, values)

    def delete_batch(self, keys) -> np.ndarray:
        return self._write_batch("delete_batch", keys, None)

    def update_batch(self, keys, values: list) -> np.ndarray:
        if values is None:
            raise ValueError("update_batch requires values")
        return self._write_batch("update_batch", keys, values)

    def republish(self, index: int | None = None) -> dict:
        """Force shard(s) to checkpoint now: publish a fresh base
        generation, then snapshot (which truncates the WAL).

        Workers checkpoint automatically once their WAL tail reaches
        :data:`~repro.sharding.worker.REPUBLISH_THRESHOLD` ops; this
        triggers it eagerly -- e.g. before a planned shutdown, so the
        next recovery opens a published plan and a snapshot instead of
        replaying a WAL tail.  Returns ``{shard_name: generation}`` for
        the affected shards.
        """
        targets = range(self.num_shards) if index is None else [index]
        with self._lock:
            return {
                self.manifest.shards[s].name: int(self._call(s, "publish"))
                for s in targets
            }

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------

    def _boundaries(self) -> np.ndarray:
        """Current interior boundaries, converting aligned -> range.

        An aligned router has no key-space boundaries; the conversion
        uses each shard's first *stored* key, which routes every
        stored key to its current shard (absent keys may flip to a
        neighbour, which answers None either way -- correct).  After
        conversion the partition is a plain range partition and the
        ±0 alignment guarantee is documented as create-time-only.
        """
        if isinstance(self.router, ShardRouter):
            return self.router.boundaries.copy()
        boundaries = []
        previous = -np.inf
        for s in range(1, self.num_shards):
            first = self._call(s, "first_key")
            boundary = previous if first is None else float(first)
            boundaries.append(max(boundary, previous))
            previous = boundaries[-1]
        return np.asarray(boundaries, dtype=np.float64)

    def _fresh_shard_names(self, count: int) -> list[str]:
        names = [
            _shard_dir_name(self.manifest.next_shard + i)
            for i in range(count)
        ]
        self.manifest.next_shard += count
        return names

    def _swap_topology(
        self,
        at: int,
        drop: int,
        new_names: list[str],
        new_handles: list,
        new_entries: list[ShardEntry],
        new_boundaries: np.ndarray,
    ) -> None:
        """Atomically replace shards [at, at+drop) with the new ones.

        The router and shard table flip together under the coordinator
        lock; the manifest is written before the old workers stop, so
        a crash at any instant leaves a directory that reopens to
        either the old or the new complete topology.
        """
        old_handles = self._handles[at:at + drop]
        self._handles[at:at + drop] = new_handles
        self.supervisor.splice(at, drop, new_names)
        self.manifest.shards[at:at + drop] = new_entries
        self.manifest.router = ShardRouter(new_boundaries).to_dict()
        self.manifest.generation += 1
        self.manifest.partition = "range"
        self.router = router_from_dict(self.manifest.router)
        self.ops_counts[at:at + drop] = [0] * len(new_handles)
        write_manifest(self.dirpath, self.manifest)
        self.rebalances += 1
        for handle in old_handles:
            try:
                handle.stop()
            except Exception:
                pass

    def split_shard(self, index: int, *, mid_hook=None) -> dict:
        """Split shard ``index`` at its median key into two shards.

        Both replacement shards are bulk-loaded with configs re-fit to
        their *local* key distribution and fully published through
        their own PlanDirectory before the router flips.  ``mid_hook``
        (tests only) runs after the new directories are built but
        before the swap -- the chaos harness kills workers there.
        """
        with self._lock:
            if not 0 <= index < self.num_shards:
                raise ValueError(f"no shard {index}")
            boundaries = self._boundaries()
            items = self._call(index, "items")
            if len(items) < 2:
                raise ValueError(
                    f"shard {index} has {len(items)} keys; nothing to split"
                )
            mid = len(items) // 2
            halves = [items[:mid], items[mid:]]
            split_key = float(items[mid][0])
            names = self._fresh_shard_names(2)
            entries = []
            for name, half in zip(names, halves):
                half_keys = np.asarray([k for k, _ in half], dtype=np.float64)
                half_values = [v for _, v in half]
                config, _ = fit_shard_config(half_keys)
                _build_shard_dir(
                    os.path.join(self.dirpath, name),
                    half_keys,
                    half_values,
                    config,
                )
                entries.append(
                    ShardEntry(name, len(half_keys), _config_summary(config))
                )
            handles = [self._spawn(name) for name in names]
            if mid_hook is not None:
                mid_hook()
            new_boundaries = np.insert(boundaries, index, split_key)
            self._swap_topology(
                index, 1, names, handles, entries, new_boundaries
            )
            return {
                "action": "split",
                "shard": index,
                "at": split_key,
                "new": names,
            }

    def merge_shards(self, index: int) -> dict:
        """Merge shards ``index`` and ``index + 1`` into one."""
        with self._lock:
            if not 0 <= index < self.num_shards - 1:
                raise ValueError(f"no adjacent pair at {index}")
            boundaries = self._boundaries()
            items = list(self._call(index, "items")) + list(
                self._call(index + 1, "items")
            )
            merged_keys = np.asarray([k for k, _ in items], dtype=np.float64)
            merged_values = [v for _, v in items]
            name = self._fresh_shard_names(1)[0]
            config, _ = fit_shard_config(merged_keys)
            _build_shard_dir(
                os.path.join(self.dirpath, name),
                merged_keys,
                merged_values,
                config,
            )
            entries = [
                ShardEntry(name, len(merged_keys), _config_summary(config))
            ]
            handles = [self._spawn(name)]
            new_boundaries = np.delete(boundaries, index)
            self._swap_topology(
                index, 2, [name], handles, entries, new_boundaries
            )
            return {"action": "merge", "shards": [index, index + 1],
                    "new": [name]}

    def maybe_rebalance(
        self,
        *,
        split_ratio: float = 2.0,
        merge_ratio: float = 0.25,
    ) -> dict | None:
        """Split the hot shard / merge the coldest adjacent pair.

        Driven by the per-shard ops counters the fan-out
        maintains: a shard carrying more than ``split_ratio`` times
        the mean load splits; an adjacent pair carrying less than
        ``merge_ratio`` of the mean (each) merges.  Counters reset
        after every action so decisions reflect fresh traffic.
        """
        with self._lock:
            total = sum(self.ops_counts)
            if total == 0 or self.num_shards == 0:
                return None
            mean = total / self.num_shards
            hot = int(np.argmax(self.ops_counts))
            if self.num_shards > 1 and self.ops_counts[hot] > split_ratio * mean:
                if self._call(hot, "len") >= 2:
                    action = self.split_shard(hot)
                    self.ops_counts = [0] * self.num_shards
                    return action
            if self.num_shards >= 2:
                pair_load = [
                    self.ops_counts[i] + self.ops_counts[i + 1]
                    for i in range(self.num_shards - 1)
                ]
                coldest = int(np.argmin(pair_load))
                if pair_load[coldest] < merge_ratio * mean * 2:
                    action = self.merge_shards(coldest)
                    self.ops_counts = [0] * self.num_shards
                    return action
            return None

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    def kill_worker(self, index: int) -> int | None:
        """SIGKILL one worker (chaos harness); returns its old pid."""
        with self._lock:
            handle = self._handles[index]
            pid = handle.pid
            handle.kill()
            return pid

    def pause_worker(self, index: int) -> int | None:
        """SIGSTOP one worker (chaos harness); returns its pid.

        The process stays alive but stops heartbeating, which is the
        hang signature the supervisor must detect and escalate
        (SIGTERM stays pending on a stopped process; SIGKILL works).
        """
        with self._lock:
            pid = self._handles[index].pid
            if pid is not None and pid != os.getpid():
                os.kill(pid, signal.SIGSTOP)
            return pid

    def set_worker_delay(self, index: int, seconds: float) -> float:
        """Chaos harness: inject per-verb serving latency into one
        worker (it keeps heartbeating -- slow, not hung)."""
        with self._lock:
            return float(self._call(index, "set_delay", (float(seconds),)))

    def status(self) -> dict:
        """Topology, router, health and per-shard worker status."""
        with self._lock:
            shards = []
            for s, entry in enumerate(self.manifest.shards):
                try:
                    worker = self._call(s, "status")
                except (
                    WorkerDied, WorkerRemoteError,
                    ShardUnavailableError, DeadlineExceeded,
                ) as exc:
                    worker = {"error": str(exc)}
                worker["name"] = entry.name
                worker["coordinator_ops"] = self.ops_counts[s]
                worker["supervision"] = self.supervisor.ledger(s).snapshot()
                shards.append(worker)
            return {
                "dir": self.dirpath,
                "generation": self.manifest.generation,
                "partition": self.manifest.partition,
                "num_shards": self.num_shards,
                "health": self.health.state.value,
                "restarts": self.restarts,
                "rebalances": self.rebalances,
                "open_breakers": self.supervisor.open_breakers(),
                "supervise": self.supervise,
                "router": {
                    **self.router.to_dict(),
                    "routed": self.router.routed,
                },
                "shards": shards,
            }

    def __len__(self) -> int:
        with self._lock:
            return sum(
                int(self._call(s, "len")) for s in range(self.num_shards)
            )

    def close(self) -> None:
        # Stop the probe thread *before* taking the lock (its loop
        # acquires the lock per sweep -- joining under it deadlocks).
        self._stop_probe.set()
        probe = self._probe_thread
        if probe is not None:
            probe.join(timeout=30.0)
        with self._lock:
            self._probe_thread = None
            for handle in self._handles:
                try:
                    handle.stop()
                except Exception:
                    pass
            self._handles = []

    def __enter__(self) -> "ShardedDILI":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
