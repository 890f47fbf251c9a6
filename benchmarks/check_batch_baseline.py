"""Regression gate for the vectorized batch read and write paths.

Compares the current tree against ``BENCH_baseline.json`` (committed at
the repository root) and exits non-zero when any of

* the *simulated* lookup cost of the traced batch path regresses by
  more than 2% on any dataset (the simulation is deterministic, so this
  catches real cost-model or descent changes, not machine noise),
* the wall-clock speedup of ``get_batch`` over the scalar ``get`` loop
  drops below 5x at 10^5 keys on any dataset (generous against runner
  jitter; the measured margin is typically >10x),
* the serving-state speedup of ``insert_batch`` over the scalar
  ``insert`` loop (both keeping the compiled flat plan consistent)
  drops below 5x, or its traced simulated cost diverges by even one
  cycle from the scalar loop's, or
* a mixed read/write workload performs *any* full plan recompile --
  the incremental-maintenance invariant: every write batch must keep
  the plan alive through patches and subtree splices alone, or
* ``MmapDILI`` open latency over a published plan of 10^5 keys exceeds
  5x the committed ``open_ms`` baseline (with an absolute 25 ms floor
  against runner jitter) -- the O(1)-open invariant: opening a plan
  verifies a framed header and memory-maps buffers, it never
  deserializes them, or
* the lock-free concurrent read path loses its win: any wrong read or
  lost writer insert (always fatal), a contention speedup -- 4
  lock-free readers vs the same readers forced through ``exclusive()``
  while a writer churns the tree -- below 2.5x, zero plan publishes or
  zero batch reads answered from the published plan during the
  contended run, or (only on machines with >= 4
  CPUs, where thread scaling is physically possible under CPython) a
  4-reader/1-reader throughput ratio below 2.5x, or
* the sharded multi-process serving path loses its win: any wrong
  read through the coordinator (always fatal), per-shard distribution
  tuning failing to beat the single best global config on the
  mixed-distribution keyset (the comparison is simulated, hence
  deterministic), or (only on machines with >= 2 CPUs, where process
  scaling is physically possible) batch-get throughput at 2 worker
  processes below 1.7x the 1-worker throughput through the identical
  coordinator/pipe stack.

Regenerate the baseline after an intentional cost change with::

    PYTHONPATH=src python benchmarks/check_batch_baseline.py --write
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.bench.harness import (
    MAIN_DATASETS,
    SCALES,
    BuildCache,
    measure_batch_lookup,
    measure_batch_write,
    measure_concurrent_read_scaling,
    measure_mixed_workload,
)

BASELINE_PATH = Path(__file__).resolve().parents[1] / "BENCH_baseline.json"

SCALE = "medium"  # 10^5 keys, the acceptance-criteria scale
QUERIES = 100_000
SIM_TOLERANCE = 0.02
MIN_SPEEDUP = 5.0
MIN_WRITE_SPEEDUP = 5.0
MAX_FULL_RECOMPILES = 0
MIXES = [("95/5", 0.05), ("80/20", 0.20), ("50/50", 0.50)]
OPEN_FACTOR = 5.0
OPEN_FLOOR_MS = 25.0
MIN_CONTENTION_SPEEDUP = 2.5
MIN_SCALING_4 = 2.5  # gated only where >= 4 CPUs make it measurable
MIN_SHARD_SCALING_2 = 1.7  # gated only where >= 2 CPUs make it measurable


def measure_sharded() -> dict:
    """Sharded multi-process throughput scaling + tuning comparison."""
    from repro.bench.harness import (
        measure_shard_tuning,
        measure_sharded_throughput,
        mixed_distribution_keys,
    )

    m = measure_sharded_throughput(mixed_distribution_keys(60_000))
    t = measure_shard_tuning()
    return {
        "worker_counts": list(m.worker_counts),
        "ops_per_s": {
            str(n): round(v) for n, v in m.ops_per_s.items()
        },
        "scaling_2": round(m.scaling_2, 2),
        "wrong_reads": m.wrong_reads,
        "num_keys": m.num_keys,
        "batch": m.batch,
        "cpu_count": m.cpu_count,
        "tuning": {
            "num_shards": t.num_shards,
            "local_cycles_per_op": round(t.local_cycles_per_op, 2),
            "global_cycles_per_op": round(t.global_cycles_per_op, 2),
            "gain_pct": round(t.gain_pct, 2),
            "local_configs": [list(c) for c in t.local_configs],
            "global_config": list(t.global_config),
        },
    }


def measure_plan_store(cache: BuildCache) -> dict:
    """Publish the logn plan and time ``MmapDILI`` open (best of 5)."""
    import tempfile
    import time

    from repro.durability.durable import DurableDILI

    keys = cache.keys("logn")
    with tempfile.TemporaryDirectory() as tmp:
        durable = DurableDILI(tmp, sync=False)
        durable.bulk_load(keys)
        t0 = time.perf_counter()
        durable.publish_plan()
        publish_ms = (time.perf_counter() - t0) * 1e3
        open_ms = float("inf")
        rung = None
        for _ in range(5):
            t0 = time.perf_counter()
            served = durable.serve_mmap()
            open_ms = min(open_ms, (time.perf_counter() - t0) * 1e3)
            rung = served.rung
            served.close()
        durable.close()
    return {
        "keys": len(keys),
        "publish_ms": round(publish_ms, 2),
        "open_ms": round(open_ms, 3),
        "rung": rung,
    }


def measure() -> dict:
    from repro.bench.harness import DATASETS, query_sample

    scale = SCALES[SCALE]
    cache = BuildCache(scale)
    out: dict[str, dict] = {}
    for dataset in DATASETS:
        index = cache.index("DILI", dataset)
        queries = query_sample(cache.keys(dataset), QUERIES)
        m = measure_batch_lookup(index, queries, scale)
        out[dataset] = {
            "sim_ns_per_op": round(m.sim_ns_per_op, 4),
            "sim_misses_per_op": round(m.sim_misses_per_op, 6),
            "scalar_ms": round(m.scalar_s * 1e3, 2),
            "batch_ms": round(m.batch_s * 1e3, 2),
            "speedup": round(m.speedup, 2),
        }
    writes: dict[str, dict] = {}
    for dataset in MAIN_DATASETS:
        w = measure_batch_write(cache.keys(dataset), scale)
        writes[dataset] = {
            "scalar_ms": round(w.scalar_s * 1e3, 2),
            "batch_ms": round(w.batch_s * 1e3, 2),
            "speedup": round(w.speedup, 2),
            "tree_speedup": round(w.tree_speedup, 2),
            "sim_parity": bool(w.sim_parity),
        }
    mixed: dict[str, dict] = {}
    for name, frac in MIXES:
        x = measure_mixed_workload(cache.keys("logn"), write_fraction=frac)
        mixed[name] = {
            "ops": x.ops,
            "wall_mops": round(x.wall_mops, 3),
            "patches": x.patches,
            "subtree_recompiles": x.subtree_recompiles,
            "full_recompiles": x.full_recompiles,
            "plan_alive": bool(x.plan_alive),
        }
    r = measure_concurrent_read_scaling(cache.keys("logn"))
    scaling = {
        "threads": list(r.thread_counts),
        "ops_per_s": {
            str(n): round(v) for n, v in r.ops_per_s.items()
        },
        "scaling_4": round(r.scaling_4, 2),
        "contention_lockfree_ops": round(r.contention_lockfree_ops),
        "contention_locked_ops": round(r.contention_locked_ops),
        "contention_speedup": round(r.contention_speedup, 2),
        "wrong_reads": r.wrong_reads,
        "lost_updates": r.lost_updates,
        "plan_publishes": r.plan_publishes,
        "plan_reads": r.plan_reads,
        "cpu_count": r.cpu_count,
    }
    return {
        "scale": SCALE,
        "num_keys": scale.num_keys,
        "num_queries": QUERIES,
        "datasets": out,
        "batch_write": writes,
        "mixed": mixed,
        "plan_store": measure_plan_store(cache),
        "concurrent_read_scaling": scaling,
        "sharded_throughput": measure_sharded(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write",
        action="store_true",
        help="overwrite BENCH_baseline.json with current measurements",
    )
    args = parser.parse_args(argv)

    current = measure()
    if args.write:
        BASELINE_PATH.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    failures: list[str] = []
    for dataset, want in baseline["datasets"].items():
        got = current["datasets"][dataset]
        limit = want["sim_ns_per_op"] * (1.0 + SIM_TOLERANCE)
        if got["sim_ns_per_op"] > limit:
            failures.append(
                f"{dataset}: simulated cost regressed "
                f"{want['sim_ns_per_op']:.1f} -> "
                f"{got['sim_ns_per_op']:.1f} ns/op (>{SIM_TOLERANCE:.0%})"
            )
        if got["speedup"] < MIN_SPEEDUP:
            failures.append(
                f"{dataset}: batch speedup {got['speedup']:.1f}x "
                f"below the {MIN_SPEEDUP:.0f}x floor "
                f"(baseline {want['speedup']:.1f}x)"
            )
        print(
            f"{dataset}: sim {got['sim_ns_per_op']:.1f} ns/op "
            f"(baseline {want['sim_ns_per_op']:.1f}), "
            f"speedup {got['speedup']:.1f}x "
            f"(baseline {want['speedup']:.1f}x)"
        )
    for dataset, want in baseline.get("batch_write", {}).items():
        got = current["batch_write"][dataset]
        if got["speedup"] < MIN_WRITE_SPEEDUP:
            failures.append(
                f"{dataset}: batch write speedup {got['speedup']:.1f}x "
                f"below the {MIN_WRITE_SPEEDUP:.0f}x floor "
                f"(baseline {want['speedup']:.1f}x)"
            )
        if not got["sim_parity"]:
            failures.append(
                f"{dataset}: traced insert_batch cost diverged from "
                "the scalar loop (must match cycle-for-cycle)"
            )
        print(
            f"{dataset}: write speedup {got['speedup']:.1f}x "
            f"(baseline {want['speedup']:.1f}x), "
            f"sim parity {'yes' if got['sim_parity'] else 'NO'}"
        )
    for mix, want in baseline.get("mixed", {}).items():
        got = current["mixed"][mix]
        if got["full_recompiles"] > MAX_FULL_RECOMPILES:
            failures.append(
                f"{mix}: {got['full_recompiles']} full plan recompiles "
                f"(ceiling {MAX_FULL_RECOMPILES}; every write batch "
                "must keep the plan alive via patches/splices)"
            )
        if not got["plan_alive"]:
            failures.append(f"{mix}: a write batch dropped the plan")
        print(
            f"{mix}: full recompiles {got['full_recompiles']} "
            f"(ceiling {MAX_FULL_RECOMPILES}), "
            f"patches {got['patches']}, "
            f"subtree splices {got['subtree_recompiles']}"
        )
    want_plan = baseline.get("plan_store")
    if want_plan is not None:
        got = current["plan_store"]
        limit = max(want_plan["open_ms"] * OPEN_FACTOR, OPEN_FLOOR_MS)
        if got["open_ms"] > limit:
            failures.append(
                f"plan_store: open latency {got['open_ms']:.2f} ms over a "
                f"{got['keys']:,}-key plan exceeds {limit:.1f} ms "
                f"(baseline {want_plan['open_ms']:.2f} ms; open must stay "
                f"O(1) -- header verify + mmap, no deserialization)"
            )
        if got["rung"] != 1:
            failures.append(
                f"plan_store: freshly published plan served from rung "
                f"{got['rung']}, not rung 1 (the mmap fast path)"
            )
        print(
            f"plan_store: open {got['open_ms']:.2f} ms at "
            f"{got['keys']:,} keys (baseline {want_plan['open_ms']:.2f}, "
            f"limit {limit:.1f}), publish {got['publish_ms']:.1f} ms, "
            f"rung {got['rung']}"
        )
    if baseline.get("concurrent_read_scaling") is not None:
        got = current["concurrent_read_scaling"]
        if got["wrong_reads"] != 0:
            failures.append(
                f"concurrent: {got['wrong_reads']} wrong reads -- a "
                "lock-free batch read returned a value inconsistent "
                "with the loaded data"
            )
        if got["lost_updates"] != 0:
            failures.append(
                f"concurrent: {got['lost_updates']} writer inserts "
                "lost while lock-free readers ran"
            )
        if got["contention_speedup"] < MIN_CONTENTION_SPEEDUP:
            failures.append(
                f"concurrent: contention speedup "
                f"{got['contention_speedup']:.2f}x below the "
                f"{MIN_CONTENTION_SPEEDUP}x floor (lock-free reads "
                "vs exclusive-locked reads under a churning writer)"
            )
        if got["plan_publishes"] < 1 or got["plan_reads"] < 1:
            failures.append(
                "concurrent: the contended run did not take the "
                f"lock-free path (publishes {got['plan_publishes']}, "
                f"plan reads {got['plan_reads']})"
            )
        many_cpus = (os.cpu_count() or 1) >= 4
        if many_cpus and got["scaling_4"] < MIN_SCALING_4:
            failures.append(
                f"concurrent: 4-reader scaling {got['scaling_4']:.2f}x "
                f"below the {MIN_SCALING_4}x floor on a "
                f"{os.cpu_count()}-CPU machine"
            )
        scaling_note = (
            f"scaling_4 {got['scaling_4']:.2f}x"
            + ("" if many_cpus else
               f" (not gated: {got['cpu_count']} CPU)")
        )
        print(
            f"concurrent: contention speedup "
            f"{got['contention_speedup']:.2f}x "
            f"(floor {MIN_CONTENTION_SPEEDUP}x), {scaling_note}, "
            f"wrong reads {got['wrong_reads']}, "
            f"lost updates {got['lost_updates']}, "
            f"publishes {got['plan_publishes']}, "
            f"plan reads {got['plan_reads']}"
        )
    if baseline.get("sharded_throughput") is not None:
        got = current["sharded_throughput"]
        if got["wrong_reads"] != 0:
            failures.append(
                f"sharded: {got['wrong_reads']} wrong reads -- the "
                "coordinator returned a value inconsistent with the "
                "loaded data"
            )
        tuning = got["tuning"]
        if tuning["gain_pct"] <= 0.0:
            failures.append(
                f"sharded: per-shard tuning gain "
                f"{tuning['gain_pct']:.2f}% -- heterogeneous configs "
                "no longer beat the single global config on the "
                "mixed-distribution keyset (deterministic simulation)"
            )
        two_cpus = (os.cpu_count() or 1) >= 2
        ops = got["ops_per_s"]
        throughput = (
            f"{ops['1']:,} keys/s at 1 worker, {ops['2']:,} at 2"
        )
        if two_cpus and got["scaling_2"] < MIN_SHARD_SCALING_2:
            failures.append(
                f"sharded: 2-worker scaling {got['scaling_2']:.2f}x "
                f"({throughput}) below the {MIN_SHARD_SCALING_2}x "
                f"floor on a {os.cpu_count()}-CPU machine"
            )
        scaling_note = (
            f"scaling_2 {got['scaling_2']:.2f}x"
            + ("" if two_cpus else
               f" (not gated: {got['cpu_count']} CPU)")
        )
        print(
            f"sharded: {scaling_note} ({throughput}), "
            f"wrong reads {got['wrong_reads']}, "
            f"tuning gain {tuning['gain_pct']:.2f}% "
            f"(local {tuning['local_cycles_per_op']:.1f} vs global "
            f"{tuning['global_cycles_per_op']:.1f} cycles/op)"
        )
    if failures:
        print("\nBATCH BASELINE CHECK FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("batch baseline check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
