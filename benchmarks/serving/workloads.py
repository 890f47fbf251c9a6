"""The three serving workloads and the closed-loop client that drives them.

One client thread sends the schedule's requests one at a time through a
public serving front-end (``DILI``, ``DurableDILI`` or ``ShardedDILI``),
times each call, and checks every answer against a shadow dict.
:func:`run_pass` is one complete set-up + schedule + end-of-run audit;
the untraced run makes one pass, the traced run makes an untraced pass
and then a traced one.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.dili import DILI
from repro.durability.durable import DurableDILI
from repro.durability.recovery import WAL_NAME
from repro.sharding.coordinator import ShardedDILI
from repro.simulate.cache import CacheSimulator
from repro.simulate.tracer import CostTracer

import tracing
from schedule import Request, Schedule

#: Simulated last-level cache for ``sim_ns_per_lookup`` (256 KiB).
SIM_CACHE_LINES = 4096
SIM_GHZ = 2.5

#: Keys per ``get_batch`` call in the end-of-run audits.
AUDIT_CHUNK = 65_536

#: Iterations of the host reference loop (about 1.3 ms of pure Python
#: on an uncontended core).
REF_LOOP = 20_000

#: Reference measurements on each side of a request whose median is its
#: local host reference time.
REF_NEIGHBOURS = 3


def _dir_bytes(path: str, name: str | None = None) -> int:
    """Bytes of every regular file under ``path`` (only files called
    ``name`` when given)."""
    total = 0
    for root, _, files in os.walk(path):
        for fname in files:
            if name is None or fname == name:
                total += os.path.getsize(os.path.join(root, fname))
    return total


def _sim_cost(get_batch, sched: Schedule) -> dict:
    """Simulated cost of a fixed query sample, after a warm-up sample."""
    tracer = CostTracer(CacheSimulator(SIM_CACHE_LINES))
    get_batch(sched.sim_warm, tracer)
    tracer.reset_counters()
    get_batch(sched.sim_sample, tracer)
    n = len(sched.sim_sample)
    return {
        "sim_ns_per_lookup": tracer.nanoseconds(SIM_GHZ) / n,
        "simulate.misses_per_lookup": tracer.cache_misses / n,
        "simulate.accesses_per_lookup": tracer.mem_accesses / n,
    }


class MultiGet:
    """``DILI`` bulk-loaded with the whole keyset, read-only."""

    def __init__(self, sched: Schedule, state_dir: str,
                 cpus: list[int]) -> None:
        self.index = DILI()
        self.index.bulk_load(sched.bulk_keys, sched.bulk_values)

    def call(self, req: Request):
        return self.index.get_batch(req.keys)

    def get_batch(self, keys):
        return self.index.get_batch(keys)

    def begin(self) -> None:
        self.counters0 = tracing.plan_counters(self.index)

    def finish(self, sched: Schedule, oracle: "Oracle", out: dict) -> None:
        oracle.audit(self.get_batch, sched)
        out.update(_sim_cost(self.index.get_batch, sched))
        out["bytes_per_key"] = self.index.memory_bytes() / len(self.index)
        now = tracing.plan_counters(self.index)
        out.update({k: now[k] - self.counters0[k] for k in now})

    def close(self) -> None:
        self.index = None


class DurableRW:
    """``DurableDILI(concurrent=True, sync=True)``: reads beside fsynced
    write batches, then close, reopen and audit."""

    def __init__(self, sched: Schedule, state_dir: str,
                 cpus: list[int]) -> None:
        self.state_dir = state_dir
        self.store = DurableDILI(state_dir, concurrent=True, sync=True)
        self.store.bulk_load(sched.bulk_keys, sched.bulk_values)

    def call(self, req: Request):
        if req.kind == "get":
            return self.store.get_batch(req.keys)
        if req.kind == "insert":
            return self.store.insert_batch(req.keys, req.values)
        return self.store.delete_batch(req.keys)

    def get_batch(self, keys):
        return self.store.get_batch(keys)

    def begin(self) -> None:
        self.wal0 = self.store.wal.size_bytes()
        self.counters0 = tracing.plan_counters(self.store.index.index)
        self.publishes0 = self.store.index.lock_stats["plan_publishes"]

    def finish(self, sched: Schedule, oracle: "Oracle", out: dict) -> None:
        index = self.store.index
        now = tracing.plan_counters(index.index)
        out.update({k: now[k] - self.counters0[k] for k in now})
        out["core.epoch.publishes"] = (
            index.lock_stats["plan_publishes"] - self.publishes0)
        out["durability.wal.bytes"] = self.store.wal.size_bytes() - self.wal0
        out["disk_bytes"] = _dir_bytes(self.state_dir)
        # recover_s: close, reopen the state directory, first read.
        probe = sched.requests[0]
        t0 = time.perf_counter()
        self.store.close()
        self.store = DurableDILI(self.state_dir, concurrent=True, sync=True)
        got = self.store.get_batch(probe.keys)
        out["recover_s"] = time.perf_counter() - t0
        oracle.check(probe, got)
        out["durability.replayed_records"] = self.store.recovery.replayed
        oracle.audit(self.get_batch, sched)
        plain = self.store.index.index
        out.update(_sim_cost(plain.get_batch, sched))
        out["bytes_per_key"] = plain.memory_bytes() / len(plain)
        out["live_keys"] = len(plain)

    def close(self) -> None:
        self.store.close()


class ShardedRW:
    """``ShardedDILI.create`` defaults: range partition, per-shard
    tuning, ``sync=True``; 2 shards served by 2 worker processes, each
    pinned to its own CPU.

    Unpinned on a 2-vCPU VM, the scheduler often woke both workers on
    one core, which serialised a read: across runs of identical
    schedules the median read took 16 ms in some and 26 ms in others.
    """

    def __init__(self, sched: Schedule, state_dir: str,
                 cpus: list[int]) -> None:
        self.state_dir = state_dir
        self.fleet = ShardedDILI.create(
            state_dir, sched.bulk_keys, sched.bulk_values, num_shards=2)
        for j, shard in enumerate(self.fleet.status()["shards"]):
            os.sched_setaffinity(shard["pid"], {cpus[j % len(cpus)]})

    def call(self, req: Request):
        if req.kind == "get":
            return self.fleet.get_batch(req.keys)
        if req.kind == "insert":
            return self.fleet.insert_batch(req.keys, req.values)
        return self.fleet.delete_batch(req.keys)

    def get_batch(self, keys):
        return self.fleet.get_batch(keys)

    def begin(self) -> None:
        self.wal0 = _dir_bytes(self.state_dir, WAL_NAME)

    def finish(self, sched: Schedule, oracle: "Oracle", out: dict) -> None:
        out["durability.wal.bytes"] = (
            _dir_bytes(self.state_dir, WAL_NAME) - self.wal0)
        out["disk_bytes"] = _dir_bytes(self.state_dir)
        oracle.audit(self.get_batch, sched)
        out.update(_sim_cost(self.fleet.get_batch, sched))
        status = self.fleet.status()
        out["sharding.restarts"] = status["restarts"]
        out["planstore.republishes"] = sum(
            shard["ops"]["republishes"] for shard in status["shards"])
        out["live_keys"] = len(self.fleet)

    def close(self) -> None:
        self.fleet.close()


FRONTENDS = {"multiget": MultiGet, "durable-rw": DurableRW,
           "sharded-rw": ShardedRW}


class Oracle:
    """Shadow dict of every acknowledged write; checks each answer."""

    def __init__(self, sched: Schedule) -> None:
        self.shadow = dict(zip(sched.bulk_keys.tolist(), sched.bulk_values))
        self.wrong = 0
        self.first_error: str | None = None

    def _fail(self, message: str) -> None:
        self.wrong += 1
        if self.first_error is None:
            self.first_error = message

    def check(self, req: Request, got) -> None:
        keys = req.keys.tolist()
        if req.kind == "get":
            expected = [self.shadow.get(k) for k in keys]
            got = list(got)
            if len(got) != len(expected):
                self._fail(f"get_batch answered {len(got)} of "
                           f"{len(expected)} keys")
            elif got != expected:
                bad = next(i for i, (a, b) in enumerate(zip(got, expected))
                           if a != b)
                self._fail(f"get_batch answered {got[bad]!r} for key "
                           f"{keys[bad]!r}, expected {expected[bad]!r}")
            return
        flags = np.asarray(got, dtype=bool)
        if flags.shape != (len(keys),) or not flags.all():
            self._fail(f"{req.kind}_batch acknowledged "
                       f"{int(flags.sum())} of {len(keys)} keys")
        if req.kind == "insert":
            self.shadow.update(zip(keys, req.values))
        else:
            for k in keys:
                self.shadow.pop(k, None)

    def audit(self, get_batch, sched: Schedule) -> None:
        """Read back every key the run ever stored or deleted."""
        keys = np.concatenate((sched.bulk_keys, sched.inserted_keys))
        for lo in range(0, len(keys), AUDIT_CHUNK):
            chunk = keys[lo:lo + AUDIT_CHUNK]
            self.check(Request("get", chunk), get_batch(chunk))


class GcClock:
    """``gc.callbacks`` hook: pause time and count of collections."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._t0: float | None = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        elif self._t0 is not None:
            self.seconds += time.perf_counter() - self._t0
            self.collections += 1
            self._t0 = None


def serving_cpus() -> list[int]:
    """The CPUs a run uses: the first two this process may run on."""
    return sorted(os.sched_getaffinity(0))[:2]


def host_reference(cpus: list[int]) -> float:
    """Mean seconds of a fixed pure-Python job timed once on each CPU.

    The client moves itself to each CPU in turn and back to all of
    them, so the figure covers the cores the shard workers are pinned
    to as well as its own.
    """
    total = 0.0
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i % 7
        total += time.perf_counter() - t0
    os.sched_setaffinity(0, cpus)
    return total / len(cpus)


@dataclass
class PassResult:
    setup_s: list[float]
    read_s: list[float] = field(default_factory=list)
    read_t0: list[float] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    round_s: dict[int, float] = field(default_factory=dict)
    round_t0: dict[int, float] = field(default_factory=dict)
    read_keys: int = 0
    write_keys: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    host_ref_s: list[float] = field(default_factory=list)
    host_ref_t0: list[float] = field(default_factory=list)
    gc_s: float = 0.0
    gc_collections: int = 0
    end: dict = field(default_factory=dict)
    workers: list[dict] = field(default_factory=list)
    wrong: int = 0
    first_error: str | None = None


def run_pass(sched: Schedule, state_root: str, *, setups: int,
             recorder: "tracing.SpanRecorder | None" = None) -> PassResult:
    """Set up ``setups`` times, then serve the schedule and audit.

    The run is held to :func:`serving_cpus`.  Every set-up is timed from
    handing the bulk arrays to the front-end until the schedule's first
    request is answered; all but the last are closed and deleted again.
    The remaining requests are timed one by one, with the host
    reference job before every ``sched.canary_every``-th of them.
    """
    frontend_cls = FRONTENDS[sched.workload]
    cpus = serving_cpus()
    oracle = Oracle(sched)
    first = sched.requests[0]
    reports = os.path.join(state_root, "reports")
    os.makedirs(reports, exist_ok=True)
    result = PassResult(setup_s=[])
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    frontend = None
    try:
        with tracing.worker_reports(reports):
            for i in range(setups):
                state_dir = os.path.join(state_root, f"state{i}")
                for name in os.listdir(reports):
                    os.unlink(os.path.join(reports, name))
                if recorder is not None:
                    recorder.request = 0
                t0 = time.perf_counter()
                frontend = frontend_cls(sched, state_dir, cpus)
                got = frontend.call(first)
                result.setup_s.append(time.perf_counter() - t0)
                oracle.check(first, got)
                if i < setups - 1:
                    frontend.close()
                    frontend = None
                    shutil.rmtree(state_dir, ignore_errors=True)
            frontend.begin()
            _serve(frontend, sched, oracle, result, recorder, cpus)
            if recorder is not None:
                recorder.request = -1
            frontend.finish(sched, oracle, result.end)
            frontend.close()
            frontend = None
    finally:
        if frontend is not None:
            frontend.close()
        os.sched_setaffinity(0, allowed)
    result.workers = tracing.read_worker_reports(reports)
    result.wrong = oracle.wrong
    result.first_error = oracle.first_error
    return result


def _serve(frontend, sched: Schedule, oracle: Oracle, result: PassResult,
           recorder, cpus: list[int]) -> None:
    gc_clock = GcClock()
    clock = time.perf_counter
    gc.callbacks.append(gc_clock)
    try:
        for i, req in enumerate(sched.requests[1:], 1):
            if i % sched.canary_every == 0:
                result.host_ref_t0.append(clock())
                result.host_ref_s.append(host_reference(cpus))
            result.attempted += 1
            try:
                if recorder is None:
                    t0 = clock()
                    got = frontend.call(req)
                    dt = clock() - t0
                else:
                    recorder.request = i
                    with recorder.span(f"request.{req.kind}"):
                        t0 = clock()
                        got = frontend.call(req)
                        dt = clock() - t0
            except Exception as exc:  # counted, reported, run fails
                result.failed += 1
                result.errors.append(f"request {i} ({req.kind}): "
                                     f"{type(exc).__name__}: {exc}")
                continue
            result.round_s[req.round] = result.round_s.get(req.round, 0.0) + dt
            result.round_t0.setdefault(req.round, t0)
            if req.kind == "get":
                result.read_s.append(dt)
                result.read_t0.append(t0)
                result.read_keys += len(req.keys)
            else:
                result.write_s.append(dt)
                result.write_keys += len(req.keys)
            oracle.check(req, got)
    finally:
        gc.callbacks.remove(gc_clock)
    result.gc_s = gc_clock.seconds
    result.gc_collections = gc_clock.collections


def local_reference(res: PassResult, times: list[float]) -> np.ndarray:
    """Host reference time around each instant: the median of the
    :data:`REF_NEIGHBOURS` canaries on either side of it."""
    ref_t = np.asarray(res.host_ref_t0)
    ref_s = np.asarray(res.host_ref_s)
    at = np.searchsorted(ref_t, times)
    lo = np.clip(at - REF_NEIGHBOURS, 0, len(ref_s) - 1)
    hi = np.maximum(np.clip(at + REF_NEIGHBOURS, 0, len(ref_s)), lo + 1)
    return np.array([np.median(ref_s[a:b]) for a, b in zip(lo, hi)])


def end_to_end(sched: Schedule, res: PassResult) -> dict:
    """Every end-to-end figure of one pass, in the units of ``run.py``.

    ``*_ref`` latencies divide each request's (or round's) time by the
    host reference time measured around it, so the speed of a shared
    host cancels out.  Round 0 is left out of the round figures: its
    first request is part of set-up.
    """
    live = res.end.get("live_keys", len(sched.bulk_keys))
    client_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = sum(w["maxrss_kb"] for w in res.workers)
    read_ref = np.asarray(res.read_s) / local_reference(res, res.read_t0)
    rounds = sorted(r for r in res.round_s if r > 0)
    round_ref = (np.array([res.round_s[r] for r in rounds])
                 / local_reference(res, [res.round_t0[r] for r in rounds]))
    out = {
        "setup_s": statistics.median(res.setup_s),
        "read_p50_ref": float(np.median(read_ref)),
        "round_p50_ref": float(np.median(round_ref)),
        "sim_ns_per_lookup": res.end["sim_ns_per_lookup"],
        "peak_rss_mb": (client_kb + worker_kb) / 1024.0,
        "read_keys_per_s": res.read_keys / sum(res.read_s),
        "read_p50_ms": float(np.percentile(res.read_s, 50)) * 1e3,
        "read_p90_ms": float(np.percentile(res.read_s, 90)) * 1e3,
    }
    if res.write_s:
        out["write_keys_per_s"] = res.write_keys / sum(res.write_s)
        out["write_p50_ms"] = float(np.percentile(res.write_s, 50)) * 1e3
        out["write_p90_ms"] = float(np.percentile(res.write_s, 90)) * 1e3
    if "recover_s" in res.end:
        out["recover_s"] = res.end["recover_s"]
    if "bytes_per_key" in res.end:
        out["bytes_per_key"] = res.end["bytes_per_key"]
    if "disk_bytes" in res.end:
        out["disk_bytes_per_key"] = res.end["disk_bytes"] / live
    return out


#: ``PassResult.end`` entries that repeat exactly for a given seed.
EXACT = (
    "sim_ns_per_lookup", "simulate.misses_per_lookup",
    "simulate.accesses_per_lookup", "bytes_per_key", "core.flat.patches",
    "core.flat.splices", "core.flat.recompiles", "core.dili.adjustments",
    "core.epoch.publishes", "durability.wal.bytes",
    "durability.replayed_records", "planstore.republishes",
    "sharding.restarts",
)


def exact_counts(sched: Schedule, res: PassResult) -> dict:
    """Every figure of a pass that a rerun with the same seed must
    reproduce exactly: simulated cost, modelled and on-disk bytes, plan
    and adjustment counters (the workers' too), WAL bytes."""
    out = {k: res.end[k] for k in EXACT if k in res.end}
    for report in res.workers:
        for name, value in report["counters"].items():
            out[name] = out.get(name, 0) + value
    if "disk_bytes" in res.end:
        live = res.end.get("live_keys", len(sched.bulk_keys))
        out["disk_bytes_per_key"] = res.end["disk_bytes"] / live
    return out
