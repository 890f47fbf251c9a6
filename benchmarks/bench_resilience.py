"""Resilience bench: degraded-read tax, repair latency, chaos throughput.

The self-healing layer trades peak throughput for a serving guarantee:
while a subtree is quarantined, batch reads abandon the flat plan and
split per key between the scalar tree and the authoritative table.
This bench prices that trade:

* the **degraded-read tax** -- batch-lookup latency HEALTHY (flat plan)
  vs DEGRADED (fallback chain) over the same probe set;
* **repair latency** per fault kind -- wall-clock from detection to a
  re-verified HEALTHY state, which the repair engine keeps bounded by
  rebuilding only the quarantined subtree;
* **chaos throughput** -- rounds/s of the full mixed-workload harness
  with scheduled injections, plus its contract verdict.
"""

import time

import numpy as np

from repro.bench import print_table
from repro.resilience import (
    FaultRegistry,
    Health,
    ResilientDILI,
    TREE_FAULT_KINDS,
    run_chaos,
    run_lock_chaos,
)


def _loaded_index(keys):
    index = ResilientDILI()
    index.bulk_load(keys, list(range(len(keys))))
    index.get_batch(keys[:64])  # compile + warm the flat plan
    return index


def test_degraded_read_tax_and_repair_latency(
    cache, scale, benchmark, capsys
):
    keys = cache.keys("logn")[: min(40_000, scale.num_keys)]
    index = _loaded_index(keys)
    probe = keys[:: max(1, len(keys) // 2_000)]

    t0 = time.perf_counter()
    healthy_got = index.get_batch(probe)
    healthy_s = time.perf_counter() - t0
    assert healthy_got == list(range(0, len(keys), max(1, len(keys) // 2_000)))

    rng = np.random.default_rng(11)
    registry = FaultRegistry()
    rows = []
    degraded_s = None
    for kind in TREE_FAULT_KINDS:
        fault = registry.inject(kind, index.index, rng)
        assert fault is not None
        t0 = time.perf_counter()
        opened = index.detect()
        detect_s = time.perf_counter() - t0
        assert opened >= 1 and index.health is Health.DEGRADED

        if degraded_s is None:  # price the fallback chain once
            t0 = time.perf_counter()
            degraded_got = index.get_batch(probe)
            degraded_s = time.perf_counter() - t0
            assert degraded_got == healthy_got  # never wrong, just slower

        t0 = time.perf_counter()
        steps = index.repair_all()
        repair_s = time.perf_counter() - t0
        assert index.health is Health.HEALTHY
        rows.append(
            [kind, detect_s * 1e3, steps, repair_s * 1e3]
        )
    index.verify()
    assert index.stats()["full_rebuilds"] == 0

    with capsys.disabled():
        print_table(
            f"Degraded-read tax, scale={scale.name} "
            f"({len(keys):,} keys, {len(probe):,} probes)",
            ["Read path", "batch (ms)", "vs healthy", ""],
            [
                ["healthy (plan)", healthy_s * 1e3, 1.0, ""],
                ["degraded (fallback)", degraded_s * 1e3,
                 degraded_s / healthy_s, ""],
            ],
            first_col_width=20,
        )
        print_table(
            f"Repair latency by fault kind, scale={scale.name}",
            ["Fault", "detect (ms)", "steps", "repair (ms)"],
            rows,
            first_col_width=20,
        )

    benchmark(index.get, float(probe[0]))


def test_chaos_throughput_and_contract(cache, scale, benchmark, capsys):
    num_keys = min(10_000, scale.num_keys // 5)
    rounds = 40
    t0 = time.perf_counter()
    report = run_chaos(
        num_keys=num_keys,
        rounds=rounds,
        batch=128,
        injections=8,
        seed=7,
    )
    wall_s = time.perf_counter() - t0
    lock = run_lock_chaos(seed=7)
    assert report.ok, report.to_dict()
    assert lock.ok, lock.to_dict()
    counts = report.counts
    assert all(counts[f"injected.{kind}"] for kind in TREE_FAULT_KINDS)

    with capsys.disabled():
        print_table(
            f"Chaos harness, scale={scale.name} ({num_keys:,} keys, "
            f"{rounds} rounds)",
            ["Metric", "value", "", ""],
            [
                ["rounds/s", rounds / wall_s, "", ""],
                ["reads checked", report.reads, "", ""],
                ["writes applied", report.writes, "", ""],
                ["injections", counts["injections"], "", ""],
                ["repair steps", counts["repair_steps"], "", ""],
                ["max rounds degraded", counts["max_steps_degraded"], "", ""],
                ["plan splices", counts["plan_splices"], "", ""],
                ["plan publishes", lock.counts["plan_publishes"], "", ""],
                ["plan reads", lock.counts["plan_reads"], "", ""],
                ["contract", "held" if report.ok else "VIOLATED", "", ""],
            ],
            first_col_width=22,
        )

    benchmark(
        lambda: run_chaos(
            num_keys=1_000,
            rounds=4,
            batch=32,
            injections=2,
            seed=1,
        )
    )
