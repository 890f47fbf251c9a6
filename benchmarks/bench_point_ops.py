"""Point-op throughput and latency of ``ConcurrentDILI`` (ROADMAP item 3).

Reruns the probe behind the wrapper's locking design: a logn index
(``scale.num_keys`` keys, 10⁵ at the default scale) serving 1, 2 and
4 threads, each running a mix of 50% ``get`` of a base key, 25%
``insert`` of a fresh key from its own pool, 15% ``update`` of a base
key and 10% ``delete`` of one of its own inserts.  The mix runs once
with no plan published (every op takes the writer lock) and once with
a published plan (gets answer lock-free from it; every write maintains
it).  A second table times one paced reader's point gets beside one
thread inserting fresh keys, in both plan states.

Only correctness is asserted: no write is lost, base keys always
answer, ``validate()`` passes, and a published plan survives every
write without a recompile.  Throughput and latency are printed, never
gated: one wall-clock run on a shared runner carries no verdict
(ROADMAP item 2).
"""

import pickle
import statistics
import threading
import time

import numpy as np
import pytest

from repro import ConcurrentDILI
from repro.bench import print_table

THREADS = (1, 2, 4)
OPS_PER_THREAD = 4_000  # in both plan states
LATENCY_GETS = 2_000  # p99 then has 20 samples beyond it
READ_GAP_S = 1e-4
MAX_LATENCY_INSERTS = 50_000
RUNS = 3


def _fresh_pools(keys: np.ndarray, pools: int, size: int, seed: int):
    """``pools`` disjoint arrays of ``size`` keys absent from ``keys``."""
    rng = np.random.default_rng(seed)
    fresh = np.setdiff1d(
        np.unique(rng.uniform(keys[0], keys[-1], 2 * pools * size)), keys
    )
    rng.shuffle(fresh)
    return [fresh[i * size:(i + 1) * size] for i in range(pools)]


def _serving(blob: bytes, keys: np.ndarray, plan: bool) -> ConcurrentDILI:
    """A fresh copy of the loaded index, with or without a plan."""
    index = ConcurrentDILI(index=pickle.loads(blob))
    if plan:
        index.get_batch(keys[:8])  # compile + publish the plan
    return index


def _check(index: ConcurrentDILI, keys, live: dict, gone: list,
           plan: bool, recompiles: int) -> None:
    """The correctness contract of one run (the only assertions)."""
    inner = index.index
    if plan:
        assert inner.peek_plan() is not None, "a write dropped the plan"
        assert inner.plan_recompiles == recompiles, "a write recompiled"
    assert len(index) == len(keys) + len(live)
    written = np.array(list(live), dtype=np.float64)
    assert index.get_batch(written) == list(live.values()), "lost write"
    assert index.get_batch(gone) == [None] * len(gone), "lost delete"
    assert None not in index.get_batch(keys[::97]), "lost base key"
    inner.validate()


def _run_mix(index: ConcurrentDILI, keys, threads: int, ops: int,
             seed: int) -> tuple[float, dict, list]:
    """Run the point-op mix; returns (ops/s, live inserts, deletes)."""
    pools = _fresh_pools(keys, threads, ops, seed)
    barrier = threading.Barrier(threads)
    live = [{} for _ in range(threads)]
    gone = [[] for _ in range(threads)]
    spans = [(0.0, 0.0)] * threads  # each worker's (start, end)
    errors: list[BaseException] = []

    def worker(t: int) -> None:
        rng = np.random.default_rng(seed + 1 + t)
        picks = keys[rng.integers(0, len(keys), ops)].tolist()
        draws = rng.random(ops).tolist()
        pool = iter(pools[t].tolist())
        mine = live[t]
        order: list[float] = []  # this thread's inserts still present
        try:
            barrier.wait()
            start = time.perf_counter()
            for i in range(ops):
                r = draws[i]
                key = picks[i]
                if r < 0.5:
                    if index.get(key) is None:
                        raise AssertionError(f"base key {key!r} missed")
                elif r < 0.75:
                    k = next(pool)
                    assert index.insert(k, (t, i)), f"insert {k!r}"
                    mine[k] = (t, i)
                    order.append(k)
                elif r < 0.9:
                    assert index.update(key, (t, i)), f"update {key!r}"
                elif order:
                    j = int(rng.integers(len(order)))
                    order[j], order[-1] = order[-1], order[j]
                    k = order.pop()
                    assert index.delete(k), f"delete {k!r}"
                    del mine[k]
                    gone[t].append(k)
            spans[t] = (start, time.perf_counter())
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    pool_threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(threads)
    ]
    for thread in pool_threads:
        thread.start()
    for thread in pool_threads:
        thread.join()
    if errors:
        raise errors[0]
    wall = max(end for _, end in spans) - min(start for start, _ in spans)
    merged = {k: v for part in live for k, v in part.items()}
    return threads * ops / wall, merged, [k for part in gone for k in part]


def _get_latency(index: ConcurrentDILI, keys, seed: int):
    """Time one paced reader's point gets while one thread inserts.

    The writer inserts fresh keys until the reader has taken
    ``LATENCY_GETS`` samples; the reader sleeps ``READ_GAP_S`` before
    each get, so it does not starve the writer of the interpreter lock.
    Returns the get latencies (ns) and the keys written.
    """
    pool = _fresh_pools(keys, 1, MAX_LATENCY_INSERTS, seed)[0].tolist()
    rng = np.random.default_rng(seed)
    probe = keys[rng.integers(0, len(keys), LATENCY_GETS)].tolist()
    barrier = threading.Barrier(2)
    done = threading.Event()
    samples: list[int] = []
    written: list[float] = []
    errors: list[BaseException] = []

    def writer() -> None:
        try:
            barrier.wait()
            for k in pool:
                if done.is_set():
                    break
                assert index.insert(k, "w"), f"insert {k!r}"
                written.append(k)
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    def reader() -> None:
        clock = time.perf_counter_ns
        try:
            barrier.wait()
            for key in probe:
                time.sleep(READ_GAP_S)
                t0 = clock()
                value = index.get(key)
                samples.append(clock() - t0)
                if value is None:
                    raise AssertionError(f"base key {key!r} missed")
        except BaseException as exc:  # surfaced below
            errors.append(exc)
        finally:
            done.set()

    pair = [threading.Thread(target=writer), threading.Thread(target=reader)]
    for thread in pair:
        thread.start()
    for thread in pair:
        thread.join()
    if errors:
        raise errors[0]
    return samples, written


def _state(plan: bool) -> str:
    return "published plan" if plan else "no plan"


@pytest.fixture(scope="module")
def logn(cache):
    """The logn keys and one pickled bulk load that every run restores."""
    keys = cache.keys("logn")
    loaded = ConcurrentDILI()
    loaded.bulk_load(keys)
    return keys, pickle.dumps(loaded.index, protocol=pickle.HIGHEST_PROTOCOL)


def test_point_op_mix(logn, benchmark, capsys):
    keys, blob = logn
    rows = []
    for plan in (False, True):
        for threads in THREADS:
            rates = []
            for run in range(RUNS):
                index = _serving(blob, keys, plan)
                recompiles = index.index.plan_recompiles
                rate, live, gone = _run_mix(
                    index, keys, threads, OPS_PER_THREAD,
                    seed=100 * threads + run,
                )
                _check(index, keys, live, gone, plan, recompiles)
                rates.append(rate)
            rows.append([
                f"{_state(plan)}, {threads} thread"
                + ("s" if threads > 1 else ""),
                statistics.median(rates) / 1e3, min(rates) / 1e3,
                max(rates) / 1e3,
            ])
    with capsys.disabled():
        print_table(
            f"Point-op mix 50/25/15/10 get/insert/update/delete, "
            f"{len(keys):,} logn keys, median of {RUNS} runs",
            ["State, threads", "kops/s", "min", "max"],
            rows,
            first_col_width=28,
        )

    index = _serving(blob, keys, plan=True)
    benchmark(index.get, float(keys[77]))


def test_point_get_latency_beside_writer(logn, capsys):
    keys, blob = logn
    rows = []
    for plan in (False, True):
        for run in range(RUNS):
            index = _serving(blob, keys, plan)
            recompiles = index.index.plan_recompiles
            samples, written = _get_latency(index, keys, seed=7 + run)
            assert written, "the writer never ran beside the reader"
            _check(index, keys, dict.fromkeys(written, "w"), [], plan,
                   recompiles)
            us = np.asarray(samples, dtype=np.float64) / 1e3
            rows.append([
                f"{_state(plan)}, run {run + 1}",
                float(len(written)),
                float(np.percentile(us, 50)),
                float(np.percentile(us, 99)),
            ])
    with capsys.disabled():
        print_table(
            f"Point get beside one inserting writer: {LATENCY_GETS:,} "
            f"gets paced {READ_GAP_S * 1e6:.0f} us apart, "
            f"{len(keys):,} logn keys",
            ["State, run", "keys written", "p50 (us)", "p99 (us)"],
            rows,
            first_col_width=24,
        )
