"""Resilience bench: detect and recover per fault kind, chaos throughput.

An in-memory fault is healed the way a restarted shard worker heals:
the snapshot and WAL of a ``DurableDILI`` are the authority, the tree
is derived from them, and reopening the directory rebuilds it.  This
bench prices that path:

* **detect** per fault kind -- one deep scan of the damaged tree
  (``validate()``, which runs ``verify_tree``);
* **recover** per fault kind -- close and reopen the directory
  (snapshot load, WAL-tail replay and the same deep check) plus the
  first ``get_batch``, which compiles the flat plan again;
* **chaos throughput** -- rounds/s of the ``tree`` schedule with its
  injections, recoveries and lost writes, plus its contract verdict.
"""

import time

import numpy as np
import pytest

from repro import DurableDILI
from repro.bench import print_table
from repro.check.errors import InvariantError
from repro.resilience import (
    FaultRegistry,
    TREE_FAULT_KINDS,
    run_chaos,
    run_lock_chaos,
)


def test_detect_and_recover_per_fault_kind(
    cache, scale, benchmark, capsys, tmp_path
):
    keys = cache.keys("logn")[: min(40_000, scale.num_keys)]
    base, tail = keys[::2], keys[1::2][:512]
    durable = DurableDILI(tmp_path)
    durable.bulk_load(base, list(range(len(base))))
    # A WAL tail for every reopen to replay, as between checkpoints.
    for chunk in np.split(tail, len(tail) // 64):
        durable.insert_batch(chunk, [-1] * len(chunk))
    probe = base[:: max(1, len(base) // 2_000)]
    expected = durable.get_batch(probe)  # also compiles the flat plan

    rng = np.random.default_rng(11)
    registry = FaultRegistry()
    rows = []
    for kind in TREE_FAULT_KINDS:
        assert registry.inject(kind, durable.index, rng) is not None
        t0 = time.perf_counter()
        with pytest.raises(InvariantError):
            durable.validate()
        detect_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        durable.close()
        durable = DurableDILI(tmp_path)
        got = durable.get_batch(probe)
        recover_s = time.perf_counter() - t0
        assert got == expected  # the recovered tree answers exactly
        rows.append(
            [kind, detect_s * 1e3, durable.recovery.replayed, recover_s * 1e3]
        )
    durable.validate()

    with capsys.disabled():
        print_table(
            f"Detect and recover by fault kind, scale={scale.name} "
            f"({len(base) + len(tail):,} keys, {len(tail)} in the WAL tail)",
            ["Fault", "detect (ms)", "replayed", "recover (ms)"],
            rows,
            first_col_width=20,
        )

    benchmark(durable.validate)  # the clean scan
    durable.close()


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
    assert counts["recoveries"] == counts["injections"]

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
                ["recoveries", counts["recoveries"], "", ""],
                ["lost writes", report.lost_writes, "", ""],
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
