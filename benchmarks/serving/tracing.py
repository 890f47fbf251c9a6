"""Span recording around the calls into each ``repro`` layer.

The traced run installs wrappers on the public functions listed in
:data:`LAYER_CALLS` (and a few special cases below).  Every wrapped call
records one span ``(name, start_ns, end_ns, span_id, parent_id,
request)`` in memory; parents come from a per-thread stack, so a span's
self time is its duration minus the part its children cover.

Shard workers are forked from the client, so wrappers installed before
``ShardedDILI`` spawns them run inside the workers too.  A worker keeps
its spans in its own copy of the recorder and writes them out when
``ShardWorker.close`` runs; :meth:`SpanRecorder.load_worker_spans`
joins them to the client's requests through the shared monotonic clock
(only one request is ever in flight).

:func:`worker_reports` is the one hook the untraced run uses:
at ``ShardWorker.close`` each worker writes its peak RSS and its
index's plan counters, which the client cannot read across processes.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import os
import resource
import threading
import time
from contextlib import contextmanager

import repro.core.dili as dili_mod
import repro.durability.durable as durable_mod
import repro.sharding.coordinator as coordinator_mod
from repro.core.concurrent import ConcurrentDILI
from repro.core.dili import DILI
from repro.core.flat import FlatPlan
from repro.durability.durable import DurableDILI
from repro.durability.wal import WriteAheadLog
from repro.planstore.serve import PlanDirectory
from repro.planstore.store import PlanStore
from repro.sharding.coordinator import ProcessHandle
from repro.sharding.router import ShardRouter
from repro.sharding.worker import ShardWorker

#: (owner, attribute, span name) for every plain timed call.
LAYER_CALLS = (
    (DILI, "bulk_load", "core.bulk_load"),
    (dili_mod, "compile_plan", "core.flat.compile"),
    (FlatPlan, "lookup_batch", "core.flat.descent"),
    (FlatPlan, "gather_values", "core.flat.gather"),
    (FlatPlan, "applied_values", "core.flat.maintain"),
    (FlatPlan, "applied_insert_many", "core.flat.maintain"),
    (FlatPlan, "applied_delete_many", "core.flat.maintain"),
    (FlatPlan, "applied_recompile_subtrees", "core.flat.maintain"),
    (DILI, "insert_batch", "core.dili.mutate"),
    (DILI, "delete_batch", "core.dili.mutate"),
    (WriteAheadLog, "append", "durability.wal.append"),
    (durable_mod, "write_snapshot", "durability.snapshot"),
    (durable_mod, "recover", "durability.recover"),
    (PlanDirectory, "publish_base", "planstore.publish_base"),
    (DurableDILI, "publish_tail", "planstore.publish_delta"),
    (DurableDILI, "serve_mmap", "planstore.open"),
    (PlanStore, "verify", "planstore.verify"),
    (coordinator_mod, "build_range_shards", "sharding.partition"),
    (ShardRouter, "route", "sharding.route"),
    (ProcessHandle, "send", "sharding.send"),
    (ShardWorker, "dispatch", "sharding.worker"),
)


def plan_counters(index: DILI) -> dict:
    """The index's plan-maintenance and adjustment counters."""
    return {
        "core.flat.patches": index.plan_patches,
        "core.flat.splices": index.plan_subtree_recompiles,
        "core.flat.recompiles": index.plan_recompiles,
        "core.dili.adjustments": index.adjustment_count,
    }


@contextmanager
def worker_reports(report_dir: str):
    """While active, every shard worker reports its peak RSS and plan
    counters: ``report-<pid>.json`` in ``report_dir``, written when the
    worker closes, with counters as deltas since it opened its shard."""
    original_init = ShardWorker.__init__
    original_close = ShardWorker.close

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self._bench_counters0 = plan_counters(self.durable.index)

    @functools.wraps(original_close)
    def close(self):
        if hasattr(self, "_bench_counters0"):
            now = plan_counters(self.durable.index)
            report = {
                "pid": os.getpid(),
                "dir": os.path.basename(self.dirpath),
                "maxrss_kb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss,
                "counters": {k: now[k] - self._bench_counters0[k]
                             for k in now},
            }
            path = os.path.join(report_dir, f"report-{os.getpid()}.json")
            with open(path, "w") as fh:
                json.dump(report, fh)
        original_close(self)

    ShardWorker.__init__ = init
    ShardWorker.close = close
    try:
        yield
    finally:
        ShardWorker.__init__ = original_init
        ShardWorker.close = original_close


def read_worker_reports(report_dir: str) -> list[dict]:
    reports = []
    for name in sorted(os.listdir(report_dir)):
        if name.startswith("report-") and name.endswith(".json"):
            with open(os.path.join(report_dir, name)) as fh:
                reports.append(json.load(fh))
    return reports


class SpanRecorder:
    """In-memory span log for one process (copied into forked workers).

    ``request`` is the id of the client request in flight (0 during
    set-up, -1 after the schedule); spans recorded in a worker carry
    -1 until :meth:`load_worker_spans` joins them by time.
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: list[tuple] = []
        self.samples: dict[str, list[float]] = {}
        self.request = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.monotonic_ns()
        try:
            yield sid
        finally:
            t1 = time.monotonic_ns()
            stack.pop()
            self.spans.append((name, t0, t1, sid, parent, self.request))

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def _timed(self, fn, name: str):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with recorder.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- installing wrappers -------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer call; undone by :meth:`uninstall`."""
        for owner, attr, name in LAYER_CALLS:
            self._patch(owner, attr, self._timed(getattr(owner, attr), name))
        self._install_lock_wait()
        self._install_overlay_sample()
        self._install_spawn()
        self._install_worker_flush()

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _install_lock_wait(self) -> None:
        """Time acquiring ``ConcurrentDILI.exclusive()``, not holding it."""
        recorder = self
        original = ConcurrentDILI.exclusive

        class _TimedAcquire:
            def __init__(self, cm) -> None:
                self.cm = cm

            def __enter__(self):
                with recorder.span("core.concurrent.lock_wait"):
                    return self.cm.__enter__()

            def __exit__(self, *exc):
                return self.cm.__exit__(*exc)

        @functools.wraps(original)
        def exclusive(self):
            return _TimedAcquire(original(self))

        self._patch(ConcurrentDILI, "exclusive", exclusive)

    def _install_overlay_sample(self) -> None:
        recorder = self
        original = PlanStore.get_batch

        @functools.wraps(original)
        def get_batch(self, *args, **kwargs):
            recorder.sample("planstore.overlay_keys", self.overlay_size)
            with recorder.span("planstore.get"):
                return original(self, *args, **kwargs)

        self._patch(PlanStore, "get_batch", get_batch)

    def _install_spawn(self) -> None:
        """``sharding.spawn``: worker start until its first reply."""
        recorder = self
        original_init = ProcessHandle.__init__
        original_recv = ProcessHandle.recv

        @functools.wraps(original_init)
        def init(self, *args, **kwargs):
            self._bench_spawned = time.monotonic_ns()
            original_init(self, *args, **kwargs)

        @functools.wraps(original_recv)
        def recv(self, *args, **kwargs):
            out = original_recv(self, *args, **kwargs)
            start = self.__dict__.pop("_bench_spawned", None)
            if start is not None:
                recorder.spans.append((
                    "sharding.spawn", start, time.monotonic_ns(),
                    next(recorder._ids), 0, recorder.request,
                ))
            return out

        self._patch(ProcessHandle, "__init__", init)
        self._patch(ProcessHandle, "recv", recv)

    def _install_worker_flush(self) -> None:
        """Reset the forked span log at worker start; flush at close."""
        recorder = self
        original_init = ShardWorker.__init__
        original_close = ShardWorker.close

        @functools.wraps(original_init)
        def init(self, *args, **kwargs):
            recorder.spans = []
            recorder.samples = {}
            recorder.request = -1
            recorder._local = threading.local()
            original_init(self, *args, **kwargs)

        @functools.wraps(original_close)
        def close(self):
            original_close(self)
            path = os.path.join(recorder.out_dir,
                                f"spans-{os.getpid()}.json")
            with open(path, "w") as fh:
                json.dump({"spans": recorder.spans,
                           "samples": recorder.samples}, fh)

        self._patch(ShardWorker, "__init__", init)
        self._patch(ShardWorker, "close", close)

    # -- joining worker spans ------------------------------------------

    def load_worker_spans(self) -> None:
        """Merge flushed worker spans, assigning each to the client
        request (or set-up phase) whose interval contains it."""
        requests = sorted(
            (s[1], s[2], s[3], s[5]) for s in self.spans
            if s[0].startswith("request.")
        )
        starts = [r[0] for r in requests]
        offset = max((s[3] for s in self.spans), default=0) + 1
        for name in sorted(os.listdir(self.out_dir)):
            if not (name.startswith("spans-") and name.endswith(".json")):
                continue
            with open(os.path.join(self.out_dir, name)) as fh:
                data = json.load(fh)
            top = offset
            for sname, t0, t1, sid, parent, _ in data["spans"]:
                req, req_sid = _containing(requests, starts, t0, t1)
                new_parent = parent + offset if parent else req_sid
                self.spans.append(
                    (sname, t0, t1, sid + offset, new_parent, req))
                top = max(top, sid + offset)
            for key, values in data["samples"].items():
                self.samples.setdefault(key, []).extend(values)
            offset = top + 1

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "id",
                                  "parent", "request"],
                       "spans": self.spans}, fh)


def _containing(requests, starts, t0: int, t1: int) -> tuple[int, int]:
    """(request id, request span id) of the request covering [t0, t1];
    worker spans outside every request belong to set-up (0) or the end
    phase (-1)."""
    i = bisect.bisect_right(starts, t0) - 1
    if i >= 0:
        r0, r1, sid, req = requests[i]
        if t1 <= r1:
            return req, sid
    if not requests or t0 < requests[0][0]:
        return 0, 0
    return -1, 0
