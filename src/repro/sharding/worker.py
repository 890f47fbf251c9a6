"""The shard worker: one process, one shard, served from its plan dir.

A worker owns exactly one shard directory -- a standard
:class:`~repro.durability.durable.DurableDILI` state dir.  It is the
**only** place in the sharding layer allowed to touch index state, and
it does so exclusively through the durability/planstore APIs (lint
rule CHK009 enforces this): its build, recovery and logged writes go
through ``DurableDILI``, and every read is served zero-copy from the
published plan via one :class:`~repro.planstore.serve.MmapDILI` handle
(the plan store's fallback ladder), opened at start and kept open.
Every write batch publishes a WAL-tail delta and refreshes that handle,
which replays the batch's WAL record into its overlay.  Once the tail
reaches :data:`REPUBLISH_THRESHOLD` ops (or no base survives) the
write checkpoints instead: it publishes a fresh base generation, takes
a snapshot that truncates the WAL, and the refresh moves the handle to
the new base -- so the WAL that each write scans, and that a restart
replays, stays within the threshold.

A shard has one build path: the worker that serves it.  Handed a
:class:`ShardBuild` (its key slice, and how to tune), a starting worker
fits the shard's config, bulk-loads its ``DurableDILI`` (which writes
the snapshot), publishes the first plan base and opens its serving
handle; without one it recovers the directory.  The coordinator starts
all of a fleet's workers at once, so the shards build in parallel.

The same :class:`ShardWorker` object serves two transports:

* :func:`worker_main` runs it as a dedicated *process* behind a
  ``multiprocessing`` pipe -- the GIL-escaping path.
* The coordinator can also drive it in-process (``processes=False``),
  which the property-based tests use to avoid per-example process
  spawns.

A read replies with arrays, not Python objects: a bool hit mask over
the keys it was sent and the hits' values as one int64 array (or, for
any other payload, one object array of the hits only), so the pipe
carries two buffers and the coordinator boxes each answer once.

Traced reads ship their simulated cost back to the coordinator as
:class:`~repro.simulate.tracer.RecordingTracer` event tuples, split
into per-key segments on the ``step1`` phase marker each key's replay
begins with.  The coordinator reorders the segments into input order
and replays them into the caller's tracer, so the (stateful, LRU
cache-simulating) cost accounting sees exactly the event stream an
unsharded index would have produced.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.dili import DiliConfig
from repro.durability.durable import DurableDILI
from repro.durability.recovery import SNAPSHOT_NAME, WAL_NAME
from repro.durability.wal import LOCK_NAME, lock_writer, unlock_writer
from repro.planstore.serve import PlanDirectory
from repro.sharding.partition import fit_shard_config
from repro.sharding.supervision import HEARTBEAT_RID, STARTUP_RID
from repro.simulate.tracer import (
    NULL_TRACER,
    RecordingTracer,
    skip_region_ids,
)

#: WAL-tail ops accumulated before a write checkpoints (a new base
#: generation and a snapshot) instead of publishing another delta.
REPUBLISH_THRESHOLD = 4096

#: Seconds between worker heartbeat frames (0 disables them).
HEARTBEAT_INTERVAL = 0.5

#: Verbs the chaos ``set_delay`` injector slows down.  Liveness verbs
#: (``ping``, ``status``, ``set_delay`` itself) stay fast so probes and
#: injector cleanup are never behind the injected latency.
_DELAYABLE = frozenset(
    {
        "get_batch",
        "contains_batch",
        "count_range_batch",
        "insert_batch",
        "delete_batch",
        "update_batch",
        "items",
    }
)


@dataclass(frozen=True)
class ShardBuild:
    """What a starting worker builds its shard from.

    Attributes:
        keys: The shard's sorted unique keys.
        values: Their payloads.
        config: The bulk-load config; with ``tune``, the base that
            :func:`~repro.sharding.partition.fit_shard_config` perturbs.
        tune: Fit the config to the shard's own keys first.
        seed: The fit's probe seed.
    """

    keys: np.ndarray
    values: list
    config: DiliConfig = field(default_factory=DiliConfig)
    tune: bool = True
    seed: int = 0


def config_summary(config: DiliConfig) -> dict:
    """The tuned knobs of a shard's config, as status and the manifest
    report them."""
    return {"omega": config.omega, "rho": config.rho}


def split_trace_segments(events: list, n: int) -> list:
    """Split a recorded event stream into ``n`` per-key segments.

    Every key replayed by the flat plan opens with a
    ``("step1", ...)`` phase marker, so segment boundaries are exactly
    the marker positions.  An empty index records no events at all for
    a batch; that is ``n`` empty segments, not an error.
    """
    if n == 0:
        return []
    if not events:
        return [[] for _ in range(n)]
    phase = RecordingTracer._PHASE
    starts = [
        i
        for i, (kind, name, _) in enumerate(events)
        if kind == phase and name == "step1"
    ]
    if len(starts) != n or starts[0] != 0:
        raise ValueError(
            f"cannot segment trace: {len(starts)} step1 markers "
            f"for {n} keys"
        )
    starts.append(len(events))
    return [events[starts[i]:starts[i + 1]] for i in range(n)]


def replay_segment(events: list, tracer) -> None:
    """Replay one per-key event segment into ``tracer``."""
    mem = RecordingTracer._MEM
    compute = RecordingTracer._COMPUTE
    for kind, a, b in events:
        if kind == mem:
            tracer.mem(a, b)
        elif kind == compute:
            tracer.compute(a)
        else:
            tracer.phase(a)


class ShardWorker:
    """Serves one shard directory through durability/planstore APIs.

    Reads go to the :class:`~repro.planstore.serve.MmapDILI` handle in
    ``served``, opened once and refreshed after every write batch.
    Writes go to the in-memory ``DurableDILI``, which keeps no flat
    plan: nothing in the worker reads one, and a base republish
    compiles its plan for the file alone
    (:meth:`~repro.core.dili.DILI.export_plan`).  A worker restarted
    over a shard counts its tail from zero, so the WAL it inherits
    (under the threshold) can grow to twice the threshold before its
    first checkpoint.

    Args:
        dirpath: The shard's DurableDILI state directory.
        sync: fsync the WAL on every append (see DurableDILI).
        build: Build the shard from these items (and publish its first
            plan base) instead of recovering what the directory holds.
    """

    def __init__(
        self,
        dirpath,
        *,
        sync: bool = True,
        build: ShardBuild | None = None,
    ) -> None:
        self.dirpath = os.fspath(dirpath)
        if build is None:
            self.durable = DurableDILI(self.dirpath, sync=sync)
        else:
            self.durable = _build_shard(self.dirpath, build, sync)
        self.ops = {
            "reads": 0,
            "writes": 0,
            "batches": 0,
            "republishes": 0,
        }
        self._tail_ops = 0
        self._delay = 0.0
        self._ensure_published()
        self.served = self.durable.serve_mmap()

    # ------------------------------------------------------------------
    # Serving-handle maintenance
    # ------------------------------------------------------------------

    def _ensure_published(self) -> None:
        """Publish a first base generation for a non-empty shard."""
        plans = PlanDirectory.for_state_dir(self.dirpath)
        if self.durable.index.root is None or plans.generations():
            return
        self.durable.publish_plan()

    def _checkpoint(self) -> int:
        """Publish a new base, snapshot, retire the older generations,
        and serve the new base.

        Publishing first stamps the base with the WAL's LSN, which the
        snapshot then records as its ``last_seqno``, so the new base is
        current, not stale, and every older generation is stale or a
        duplicate of it (:meth:`PlanDirectory.retire`).  Returns the new
        generation.
        """
        generation = self.durable.publish_plan()
        self.durable.snapshot()
        PlanDirectory.for_state_dir(self.dirpath).retire(generation)
        self.ops["republishes"] += 1
        self._tail_ops = 0
        self.served.refresh()
        return generation

    def _after_write(self, n: int) -> None:
        """Publish the write and bring the serving handle up to it.

        A delta costs what the write costs: ``publish_tail`` reads back
        only the WAL record just logged, and ``refresh`` replays only
        that record, so the one listing of ``plans/`` is the refresh's
        check for a newer base.  A handle serving no generation (none
        survived, or the shard was empty) means no base to extend: the
        write checkpoints instead, as it does at the threshold.
        """
        self.ops["writes"] += n
        self._tail_ops += n
        if self.durable.index.root is not None:
            if (
                self.served.generation is None
                or self._tail_ops >= REPUBLISH_THRESHOLD
            ):
                self._checkpoint()
                return
            self.durable.publish_tail()
        self.served.refresh()

    # ------------------------------------------------------------------
    # Request handlers (the wire protocol's verbs)
    # ------------------------------------------------------------------

    def get_batch(self, keys, record: bool = False) -> tuple:
        """The reply ``(hits, payload, segments)``: the served store's
        hit mask and payload array (:meth:`MmapDILI.get_batch` with
        ``arrays=True``), and the per-key trace segments when
        ``record``, else None."""
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        self.ops["reads"] += len(keys)
        self.ops["batches"] += 1
        tracer = RecordingTracer() if record else NULL_TRACER
        hits, payload = self.served.get_batch(keys, tracer, arrays=True)
        segments = (
            split_trace_segments(tracer.events, len(keys)) if record else None
        )
        return hits, payload, segments

    def contains_batch(self, keys):
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        self.ops["reads"] += len(keys)
        self.ops["batches"] += 1
        return np.asarray(self.served.contains_batch(keys))

    def count_range_batch(self, los, his):
        self.ops["reads"] += len(los)
        self.ops["batches"] += 1
        return np.asarray(self.served.count_range_batch(los, his))

    def insert_batch(self, keys, values=None):
        out = self.durable.insert_batch(keys, values)
        self._after_write(len(out))
        return np.asarray(out)

    def delete_batch(self, keys):
        out = self.durable.delete_batch(keys)
        self._after_write(len(out))
        return np.asarray(out)

    def update_batch(self, keys, values):
        out = self.durable.update_batch(keys, values)
        self._after_write(len(out))
        return np.asarray(out)

    def items(self) -> list:
        """Every (key, value) pair, sorted -- the rebalance feed."""
        return list(self.durable.items())

    def first_key(self) -> float | None:
        """Smallest stored key (None when empty); feeds the
        aligned-to-range router conversion before a rebalance."""
        for key, _ in self.durable.items():
            return float(key)
        return None

    def status(self) -> dict:
        plans = PlanDirectory.for_state_dir(self.dirpath)
        generations = plans.generations()
        served = self.served
        return {
            "pid": os.getpid(),
            "dir": self.dirpath,
            "keys": len(self.durable),
            "config": config_summary(self.durable.index.config),
            "generations": generations,
            "generation": served.generation,
            "rung": served.rung,
            "health": served.health.state.value,
            "wal_lsn": self.durable.wal.last_seqno,
            "ops": dict(self.ops),
        }

    def __len__(self) -> int:
        return len(self.durable)

    def ping(self) -> str:
        return "pong"

    def set_delay(self, seconds: float) -> float:
        """Chaos injector: sleep before every serving verb.

        Models a slow-but-alive worker (cold page cache, noisy
        neighbour).  The worker keeps heartbeating, so the supervisor
        must *not* kill it -- callers see a retryable
        ``DeadlineExceeded`` (or per-key unavailability in partial
        mode) when the latency exceeds their budget.
        """
        self._delay = max(0.0, float(seconds))
        return self._delay

    def publish(self) -> int:
        return self._checkpoint()

    def close(self) -> None:
        if self.served is not None:
            self.served.close()
            self.served = None
        self.durable.close()

    def dispatch(self, method: str, args: tuple):
        """Invoke one protocol verb; the transports' single entry."""
        if self._delay and method in _DELAYABLE:
            time.sleep(self._delay)
        if method == "len":
            return len(self)
        if method.startswith("_") or not hasattr(self, method):
            raise ValueError(f"unknown shard-worker method {method!r}")
        return getattr(self, method)(*args)


def _build_shard(dirpath: str, build: ShardBuild, sync: bool) -> DurableDILI:
    """Tune, bulk-load (which snapshots) and publish a first plan base.

    A build starts from the items it was handed: whatever shard state
    the directory held (an earlier fleet's, or a failed build's) is
    discarded first -- its snapshot, its WAL and its live plan files --
    so nothing of it is recovered, replayed or served, and the index is
    built with the config fitted or asked for.  Quarantined plan files
    stay, and keep their numbers spent.  The discard runs under the
    directory's writer lock, so a directory another writer holds is
    refused (:class:`~repro.durability.wal.WriterLockedError`) before
    anything of it is deleted.
    """
    config = build.config
    if build.tune:
        config, _ = fit_shard_config(build.keys, base=config, seed=build.seed)
    os.makedirs(dirpath, exist_ok=True)
    lock = lock_writer(os.path.join(dirpath, LOCK_NAME))
    try:
        for name in (SNAPSHOT_NAME, WAL_NAME):
            try:
                os.unlink(os.path.join(dirpath, name))
            except FileNotFoundError:
                pass
        plans = PlanDirectory.for_state_dir(dirpath)
        plans.retire(plans.next_generation())
    finally:
        unlock_writer(lock)
    durable = DurableDILI(dirpath, config=config, sync=sync)
    try:
        if len(build.keys):
            durable.bulk_load(build.keys, build.values)
            durable.publish_plan()
    except BaseException:
        durable.close()
        raise
    return durable


def _validate_request(frame) -> tuple:
    """Verify a request frame's shape before dispatching on it.

    The pipe hands over whatever the peer pickled; a version-skewed or
    half-dead coordinator can deliver garbage that would otherwise be
    splatted straight into ``getattr`` dispatch.  The frame must be
    ``(req_id: int, method: str, args: tuple)``.
    """
    if (
        not isinstance(frame, tuple)
        or len(frame) != 3
        or isinstance(frame[0], bool)
        or not isinstance(frame[0], int)
        or not isinstance(frame[1], str)
        or not isinstance(frame[2], tuple)
    ):
        raise ValueError(f"malformed request frame: {frame!r}")
    return frame


def worker_main(
    dirpath,
    conn,
    sync: bool = True,
    heartbeat: float = HEARTBEAT_INTERVAL,
    build: ShardBuild | None = None,
    region_base: int = 0,
) -> None:
    """Process entry point: build or recover ``dirpath``, serve it over
    a pipe.

    Protocol: requests are ``(req_id, method, args)``; responses are
    ``(req_id, ok, payload)`` where a failed call carries
    ``(exception_type_name, message)``.  ``stop`` acknowledges, closes
    the shard cleanly, and exits; losing the pipe (coordinator death)
    exits too.  A start-up that raises reports on ``STARTUP_RID`` and
    exits.

    A daemon thread additionally sends a heartbeat frame (req_id
    ``HEARTBEAT_RID``) every ``heartbeat`` seconds, from before the
    build or recovery starts: a long start-up is slow, not hung.
    Heartbeats flow even while a verb is sleeping or grinding (the GIL
    is released in both), so the coordinator can tell *slow*
    (heartbeats arriving: leave the worker alone, let the caller's
    deadline decide) from *hung* (SIGSTOP, deadlock: heartbeats stop
    with the process -- escalate SIGTERM -> SIGKILL -> restart).  Both
    threads share one send lock so frames never interleave on the pipe.

    Every region id the process allocates is at least ``region_base``
    (the coordinator gives each shard a range of its own), so nodes
    that two workers create never share an id in a merged trace.

    Where the platform has it (Linux), the worker runs under
    ``SCHED_BATCH``, set before the heartbeat thread starts: a worker
    woken by its request never preempts the coordinator, which is
    still sending the fan-out's other parts from the same CPU.
    """
    skip_region_ids(region_base)
    if hasattr(os, "sched_setscheduler"):
        try:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        except OSError:
            pass  # a sandbox may refuse it; the worker serves the same
    send_lock = threading.Lock()

    def _send(frame) -> None:
        with send_lock:
            conn.send(frame)

    stop_beating = threading.Event()

    def _beat() -> None:
        while not stop_beating.wait(heartbeat):
            try:
                _send((HEARTBEAT_RID, True, None))
            except (OSError, BrokenPipeError):
                return

    if heartbeat > 0:
        threading.Thread(
            target=_beat, name="shard-heartbeat", daemon=True
        ).start()
    try:
        worker = ShardWorker(dirpath, sync=sync, build=build)
    except Exception as exc:  # startup failure must reach the coordinator
        stop_beating.set()
        try:
            _send((STARTUP_RID, False, (type(exc).__name__, str(exc))))
        except (OSError, BrokenPipeError):
            pass
        return
    try:
        while True:
            try:
                # The worker's whole job is to wait for its
                # coordinator; liveness is the heartbeat thread's
                # problem, so this receive may block forever.
                req_id, method, args = _validate_request(
                    conn.recv()  # repro-check: allow CHK014 -- worker request loop blocks for its coordinator by design
                )
            except (EOFError, OSError):
                break
            except ValueError:
                # A peer not speaking our frames is as dead as a
                # broken pipe; there is no req_id to answer on.
                break
            if method == "stop":
                _send((req_id, True, None))
                break
            try:
                _send((req_id, True, worker.dispatch(method, args)))
            except Exception as exc:
                try:
                    _send((req_id, False, (type(exc).__name__, str(exc))))
                except (OSError, BrokenPipeError):
                    break
    finally:
        stop_beating.set()
        worker.close()
