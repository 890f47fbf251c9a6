"""Per-layer metrics from a traced pass's spans.

Conventions (see README.md for the layer-to-end-to-end map):

* ``*_ms`` on the request path is **busy time per request**: the total
  duration of that layer's spans inside timed requests, divided by the
  number of requests in which the layer ran at all.  Worker spans count
  once per worker, so on sharded-rw two parallel workers add up.
* Set-up metrics (``core.bulk_load_s``, ``core.flat.compile_ms``,
  ``durability.snapshot_ms``, ``sharding.partition_s``) are totals over
  the one set-up of the traced pass.
* Counts are exact totals over the schedule.
* A layer the workload bypasses reads 0.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

#: Every per-layer metric with its unit, in output order.
UNITS: dict[str, str] = {
    "core.bulk_load_s": "s",
    "core.flat.compile_ms": "ms",
    "core.flat.descent_ms": "ms",
    "core.flat.gather_ms": "ms",
    "core.flat.maintain_ms": "ms",
    "core.dili.mutate_ms": "ms",
    "core.flat.patches": "count",
    "core.flat.splices": "count",
    "core.flat.recompiles": "count",
    "core.dili.adjustments": "count",
    "core.concurrent.lock_wait_ms": "ms",
    "core.epoch.publishes": "count",
    "durability.wal.append_ms": "ms",
    "durability.wal.bytes_per_key": "B",
    "durability.snapshot_ms": "ms",
    "durability.recover_ms": "ms",
    "durability.replayed_records": "count",
    "planstore.publish_base_ms": "ms",
    "planstore.republishes": "count",
    "planstore.publish_delta_ms": "ms",
    "planstore.open_ms": "ms",
    "planstore.verify_ms": "ms",
    "planstore.get_ms": "ms",
    "planstore.overlay_keys": "count",
    "sharding.partition_s": "s",
    "sharding.spawn_ms": "ms",
    "sharding.route_ms": "ms",
    "sharding.send_ms": "ms",
    "sharding.transport_ms": "ms",
    "sharding.worker_ms": "ms",
    "sharding.skew": "ratio",
    "sharding.restarts": "count",
    "simulate.misses_per_lookup": "count",
    "simulate.accesses_per_lookup": "count",
    "python.gc_ms": "ms",
    "python.gc_collections": "count",
    "unattributed_ms": "ms",
    "host.ref_ms": "ms",
}

#: Request-path spans reported as busy ms per request that reached them.
REQUEST_SPANS = {
    "core.flat.descent_ms": "core.flat.descent",
    "core.flat.gather_ms": "core.flat.gather",
    "core.flat.maintain_ms": "core.flat.maintain",
    "core.concurrent.lock_wait_ms": "core.concurrent.lock_wait",
    "durability.wal.append_ms": "durability.wal.append",
    "planstore.publish_base_ms": "planstore.publish_base",
    "planstore.publish_delta_ms": "planstore.publish_delta",
    "planstore.open_ms": "planstore.open",
    "planstore.verify_ms": "planstore.verify",
    "planstore.get_ms": "planstore.get",
    "sharding.route_ms": "sharding.route",
    "sharding.send_ms": "sharding.send",
    "sharding.worker_ms": "sharding.worker",
}

#: Set-up spans reported as totals: metric -> (span, seconds per unit).
SETUP_SPANS = {
    "core.bulk_load_s": ("core.bulk_load", 1.0),
    "core.flat.compile_ms": ("core.flat.compile", 1e-3),
    "durability.snapshot_ms": ("durability.snapshot", 1e-3),
    "sharding.partition_s": ("sharding.partition", 1.0),
}

#: Figures the pass reports itself (from the index, WAL, status or
#: cost tracer).
FROM_PASS = ("core.flat.patches", "core.flat.splices",
             "core.flat.recompiles", "core.dili.adjustments",
             "core.epoch.publishes", "durability.replayed_records",
             "planstore.republishes", "sharding.restarts",
             "simulate.misses_per_lookup", "simulate.accesses_per_lookup")


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list[tuple], samples: dict, end: dict,
                  workers: list[dict], written_keys: int,
                  host_ref_s: list[float], gc_s: float,
                  gc_collections: int) -> dict:
    """Reduce one traced pass to the per-layer metrics of :data:`UNITS`."""
    children: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        if s[4]:
            children[s[4]].append(s)
    requests = [s for s in spans if s[0].startswith("request.")]

    busy: dict[str, float] = defaultdict(float)
    reached: dict[str, set] = defaultdict(set)
    for name, t0, t1, _, _, req in spans:
        if req > 0:
            busy[name] += (t1 - t0) / 1e6
            reached[name].add(req)

    out: dict[str, float] = {name: 0.0 for name in UNITS}
    for metric, span in REQUEST_SPANS.items():
        if reached[span]:
            out[metric] = busy[span] / len(reached[span])
    for metric, (span, unit) in SETUP_SPANS.items():
        out[metric] = sum((s[2] - s[1]) / 1e9 for s in spans
                          if s[0] == span and s[5] == 0) / unit

    # core.dili.mutate: DILI batch writes minus the plan maintenance
    # (and any other wrapped call) they made.
    mutate_ms = 0.0
    mutate_reqs = set()
    for s in spans:
        if s[0] == "core.dili.mutate" and s[5] > 0:
            kids = sum(c[2] - c[1] for c in children[s[3]])
            mutate_ms += (s[2] - s[1] - kids) / 1e6
            mutate_reqs.add(s[5])
    if mutate_reqs:
        out["core.dili.mutate_ms"] = mutate_ms / len(mutate_reqs)

    recovers = [s[2] - s[1] for s in spans if s[0] == "durability.recover"]
    if recovers:
        out["durability.recover_ms"] = max(recovers) / 1e6
    spawns = [s[2] - s[1] for s in spans if s[0] == "sharding.spawn"]
    if spawns:
        out["sharding.spawn_ms"] = max(spawns) / 1e6
    overlay = samples.get("planstore.overlay_keys")
    if overlay:
        out["planstore.overlay_keys"] = float(np.mean(overlay))

    # Request self time, worker skew and transport.
    unattributed = []
    transport = []
    skews = []
    for req in requests:
        kids = children[req[3]]
        unattributed.append(
            (req[2] - req[1] - _union_ns([(c[1], c[2]) for c in kids])) / 1e6)
        worker = [c[2] - c[1] for c in kids if c[0] == "sharding.worker"]
        if worker:
            route = sum(c[2] - c[1] for c in kids if c[0] == "sharding.route")
            transport.append((req[2] - req[1] - route - max(worker)) / 1e6)
            if len(worker) > 1:
                skews.append(max(worker) / (sum(worker) / len(worker)))
    if unattributed:
        out["unattributed_ms"] = float(np.mean(unattributed))
    if transport:
        out["sharding.transport_ms"] = float(np.mean(transport))
    if skews:
        out["sharding.skew"] = float(np.mean(skews))

    for name in FROM_PASS:
        out[name] = float(end.get(name, 0))
    for report in workers:
        for name, value in report["counters"].items():
            out[name] += value
    if written_keys:
        out["durability.wal.bytes_per_key"] = (
            end.get("durability.wal.bytes", 0) / written_keys)
    out["python.gc_ms"] = gc_s * 1e3
    out["python.gc_collections"] = float(gc_collections)
    out["host.ref_ms"] = float(np.median(host_ref_s)) * 1e3
    return out


def span_table(spans: list[tuple]) -> list[tuple]:
    """(name, calls, busy ms, self ms) per span name inside requests,
    largest self time first.  Self time is a span minus the union of
    its children, so parallel worker spans are not subtracted twice."""
    kids: dict[int, list] = defaultdict(list)
    for s in spans:
        if s[4]:
            kids[s[4]].append((s[1], s[2]))
    rows: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for name, t0, t1, sid, _, req in spans:
        if req > 0:
            row = rows[name]
            row[0] += 1
            row[1] += (t1 - t0) / 1e6
            row[2] += (t1 - t0 - _union_ns(kids[sid])) / 1e6
    return sorted(((n, *r) for n, r in rows.items()), key=lambda r: -r[3])
