"""Extension bench: the Appendix A.8 wrapper with lock-free reads.

Measures the overhead of :class:`ConcurrentDILI` against the bare
index (single-threaded wall-clock), verifies a multi-threaded mixed
workload completes losslessly, and tables batch-read throughput at
1/2/4/8 reader threads.  Reads load the published flat plan once and
descend it without taking the writer lock, so they scale with
available cores and -- on any machine, GIL or not -- never stall
behind a writer's critical sections; the contention rows price
exactly that stall by re-running the same readers forced through
``exclusive()``.  Right after ``bulk_load`` no plan is published, so
the first table's scalar ``get`` times the locked tree fallback.
"""

import os
import threading
import time

import numpy as np

from repro import ConcurrentDILI, DILI
from repro.bench import print_table
from repro.bench.harness import measure_concurrent_read_scaling
from repro.data import split_initial


def test_concurrent_wrapper(cache, scale, benchmark, capsys):
    keys = cache.keys("wikits")
    initial, pool = split_initial(keys, 0.5, seed=3)
    probes = cache.queries("wikits")[:2_000]

    plain = DILI()
    plain.bulk_load(initial)
    wrapped = ConcurrentDILI()
    wrapped.bulk_load(initial)

    def time_lookups(index):
        t0 = time.perf_counter()
        for key in probes:
            index.get(float(key))
        return (time.perf_counter() - t0) / len(probes) * 1e6

    plain_us = time_lookups(plain)
    wrapped_us = time_lookups(wrapped)

    # Multi-threaded churn: 4 writers + 2 readers, lossless.
    chunks = np.array_split(pool, 4)
    stop = threading.Event()
    errors: list[Exception] = []

    def writer(chunk):
        try:
            for key in chunk:
                assert wrapped.insert(float(key), "w")
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def reader():
        try:
            while not stop.is_set():
                for key in initial[::501]:
                    assert wrapped.get(float(key)) is not None
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(c,)) for c in chunks]
    threads += [threading.Thread(target=reader) for _ in range(2)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads[:4]:
        thread.join()
    stop.set()
    for thread in threads[4:]:
        thread.join()
    churn_s = time.perf_counter() - t0

    with capsys.disabled():
        print_table(
            f"Concurrent DILI (A.8), scale={scale.name}",
            ["Metric", "value"],
            [
                ["bare lookup (us)", plain_us],
                ["locked lookup (us)", wrapped_us],
                ["lock overhead", wrapped_us / plain_us],
                ["4w+2r churn (s)", churn_s],
                ["inserts applied", float(len(pool))],
            ],
            first_col_width=24,
        )

    assert not errors
    assert len(wrapped) == len(initial) + len(pool)
    wrapped.index.validate()
    # The writer lock should cost well under 10x a bare lookup.
    assert wrapped_us < plain_us * 10

    benchmark(wrapped.get, float(initial[77]))


def test_lockfree_read_scaling(cache, scale, benchmark, capsys):
    keys = cache.keys("logn")
    m = measure_concurrent_read_scaling(keys)

    rows = [
        [f"{n} reader{'s' if n > 1 else ''}",
         m.ops_per_s[n] / 1e3, m.scaling(n), ""]
        for n in m.thread_counts
    ]
    with capsys.disabled():
        print_table(
            f"Lock-free batch reads, scale={scale.name} "
            f"({len(keys):,} keys, {os.cpu_count()} CPU)",
            ["Readers (no writer)", "klookups/s", "vs 1 reader", ""],
            rows,
            first_col_width=22,
        )
        print_table(
            f"4 readers vs churning writer, scale={scale.name}",
            ["Read protocol", "klookups/s", "vs locked", ""],
            [
                ["published plan (lock-free)",
                 m.contention_lockfree_ops / 1e3,
                 m.contention_speedup, ""],
                ["exclusive() (locked)",
                 m.contention_locked_ops / 1e3, 1.0, ""],
            ],
            first_col_width=26,
        )

    assert m.wrong_reads == 0
    assert m.lost_updates == 0
    assert m.plan_publishes >= 1 and m.plan_reads >= 1
    # The hard >= 2.5x floors live in check_batch_baseline.py; here a
    # loose sanity bound keeps the bench robust on loaded runners.
    assert m.contention_speedup > 1.5
    if (os.cpu_count() or 1) >= 4:
        assert m.scaling_4 > 1.5

    index = ConcurrentDILI()
    index.bulk_load(keys, list(range(len(keys))))
    index.get_batch(keys[:16])  # compile + publish the plan
    benchmark(index.get_batch, keys[:256])
