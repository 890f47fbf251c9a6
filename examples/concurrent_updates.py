"""Concurrent readers and writers (Appendix A.8, one writer lock).

The paper notes that a DILI update touches exactly one top-level leaf
subtree, so B+Tree-style lock crabbing reduces to per-leaf locks that
let C++ writers run in parallel.  Python writers cannot run in
parallel under the interpreter lock, so :class:`~repro.ConcurrentDILI`
serializes writes on one writer lock and, once a batch read has
compiled and published its flat plan, answers reads lock-free from
that plan.  This example hammers the index from reader and writer
threads, verifies nothing is lost with one batch read (which publishes
the plan), then shows a point read answered lock-free from it.

Run:
    python examples/concurrent_updates.py
"""

import threading
import time

import numpy as np

from repro import ConcurrentDILI
from repro.data import load_dataset, split_initial


def main() -> None:
    keys = load_dataset("wikits", 60_000, seed=7)
    initial, pool = split_initial(keys, fraction=0.5, seed=3)
    index = ConcurrentDILI()
    index.bulk_load(initial)
    print(f"loaded {len(index):,} keys; inserting {len(pool):,} "
          f"from 4 writer threads under 2 readers")

    stop = threading.Event()
    read_counts = [0, 0]

    def reader(slot: int) -> None:
        rng = np.random.default_rng(slot)
        while not stop.is_set():
            key = float(initial[rng.integers(0, len(initial))])
            assert index.get(key) is not None
            read_counts[slot] += 1

    def writer(chunk: np.ndarray) -> None:
        for key in chunk:
            assert index.insert(float(key), "w")

    readers = [
        threading.Thread(target=reader, args=(i,)) for i in range(2)
    ]
    writers = [
        threading.Thread(target=writer, args=(chunk,))
        for chunk in np.array_split(pool, 4)
    ]
    t0 = time.perf_counter()
    for thread in readers + writers:
        thread.start()
    for thread in writers:
        thread.join()
    stop.set()
    for thread in readers:
        thread.join()
    elapsed = time.perf_counter() - t0

    print(f"writers done in {elapsed:.2f}s "
          f"({len(pool) / elapsed:,.0f} inserts/s with readers running)")
    print(f"readers performed {sum(read_counts):,} concurrent lookups")
    assert len(index) == len(initial) + len(pool)
    assert index.get_batch(pool) == ["w"] * len(pool)  # publishes the plan
    assert index.get(float(pool[0])) == "w"
    assert index.lock_stats["plan_reads"] == 1  # the get, not the compile
    print("a batch read published the plan; point reads now answer "
          "lock-free from it")
    index.index.validate()
    print(f"final size {len(index):,}; validate() passed")


if __name__ == "__main__":
    main()
