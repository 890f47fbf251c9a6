"""Shared infrastructure for the table/figure benchmarks.

Scale
-----
The paper indexes 200-800M keys; pure Python cannot.  Benchmarks run at
a configurable scale (``REPRO_SCALE`` environment variable: ``small``,
``medium`` -- the default -- or ``large``).  The simulated LL cache is
sized *relative to the dataset* (about 1% of the pair bytes) so the
hot-top/cold-leaf regime of the paper's machine is preserved at every
scale; see DESIGN.md's substitution notes.

Method registry
---------------
``METHOD_FACTORIES`` maps the paper's method labels to zero-argument
factories with the paper's representative configurations, adapted to
benchmark scale where the original value is tied to 200M keys (e.g.
ALEX's Gamma = 16 MB at 200M keys corresponds to node budgets around
1 MiB at 10**5 keys).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import DILI, DiliConfig
from repro.baselines import (
    AlexIndex,
    BinarySearchIndex,
    BPlusTree,
    DynamicPGM,
    LippIndex,
    MassTree,
    PGMIndex,
    RadixSplineIndex,
    RMIIndex,
)
from repro.simulate.cache import CacheSimulator
from repro.simulate.tracer import CostTracer

GHZ = 2.5
"""Simulated clock used to convert cycles to nanoseconds."""

DATASETS = ["fb", "wikits", "osm", "books", "logn"]
"""All five paper datasets in Table 4 order."""

MAIN_DATASETS = ["fb", "wikits", "logn"]
"""Section 7.2 keeps these three after dropping OSM/Books to save space."""


@dataclass(frozen=True)
class BenchScale:
    """One benchmark scale configuration.

    Attributes:
        name: Scale label.
        num_keys: Keys per dataset.
        num_queries: Point queries per measurement.
        cache_lines: Simulated LL-cache lines (~1% of pair bytes).
    """

    name: str
    num_keys: int
    num_queries: int

    @property
    def cache_lines(self) -> int:
        return max(512, self.num_keys // 100)


SCALES = {
    "small": BenchScale("small", 50_000, 3_000),
    "medium": BenchScale("medium", 100_000, 4_000),
    "large": BenchScale("large", 200_000, 5_000),
}


def current_scale() -> BenchScale:
    """Scale selected by the REPRO_SCALE environment variable."""
    name = os.environ.get("REPRO_SCALE", "medium").lower()
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"REPRO_SCALE must be one of {sorted(SCALES)}, got {name!r}"
        ) from None


def _dili_lo() -> DILI:
    return DILI(DiliConfig(local_optimization=False))


METHOD_FACTORIES: dict[str, Callable[[], object]] = {
    "BinS": BinarySearchIndex,
    "B+Tree(16)": lambda: BPlusTree(16),
    "B+Tree(32)": lambda: BPlusTree(32),
    "B+Tree(64)": lambda: BPlusTree(64),
    "B+Tree(128)": lambda: BPlusTree(128),
    "B+Tree(256)": lambda: BPlusTree(256),
    "B+Tree(512)": lambda: BPlusTree(512),
    "ALEX(16KB)": lambda: AlexIndex(16 * 1024),
    "ALEX(64KB)": lambda: AlexIndex(64 * 1024),
    "ALEX(256KB)": lambda: AlexIndex(256 * 1024),
    "ALEX(1MB)": lambda: AlexIndex(1 << 20),
    "RMI(S)": lambda: RMIIndex(256, "cubic"),
    "RMI(L)": lambda: RMIIndex(16384, "auto"),
    "RS(S)": lambda: RadixSplineIndex(128, 12),
    "RS(L)": lambda: RadixSplineIndex(16, 18),
    "MassTree": MassTree,
    "PGM": lambda: PGMIndex(64),
    "DynPGM": lambda: DynamicPGM(64, base=256),
    "LIPP": LippIndex,
    "DILI-LO": _dili_lo,
    "DILI": DILI,
}

REPRESENTATIVE = [
    "BinS",
    "B+Tree(32)",
    "MassTree",
    "RMI(L)",
    "RS(L)",
    "PGM",
    "ALEX(1MB)",
    "LIPP",
    "DILI-LO",
    "DILI",
]
"""Section 7.2's representative subset used after Table 4."""


def make_index(name: str):
    """Instantiate the method registered under ``name``."""
    try:
        return METHOD_FACTORIES[name]()
    except KeyError:
        raise ValueError(f"unknown method {name!r}") from None


def method_names(representative_only: bool = False) -> list[str]:
    if representative_only:
        return list(REPRESENTATIVE)
    return list(METHOD_FACTORIES)


def query_sample(
    keys: np.ndarray, count: int, seed: int = 1
) -> np.ndarray:
    """Random existing-key point queries (the paper's query workload)."""
    rng = np.random.default_rng(seed)
    return keys[rng.integers(0, len(keys), size=count)]


class BuildCache:
    """Cache of datasets, query batches, built indexes and measurements.

    Builds are the expensive part of every experiment; sharing one cache
    across experiments mirrors the paper's protocol of measuring one
    build per method per dataset.  Used by the pytest benchmarks (via a
    session fixture) and by the programmatic experiment API
    (:mod:`repro.bench.experiments`).
    """

    def __init__(self, scale: BenchScale, seed: int = 7) -> None:
        self.scale = scale
        self.seed = seed
        self._keys: dict[str, np.ndarray] = {}
        self._queries: dict[str, np.ndarray] = {}
        self._indexes: dict[tuple[str, str], object] = {}
        self._lookup: dict[tuple[str, str], tuple] = {}

    def keys(self, dataset: str) -> np.ndarray:
        """Sorted unique keys of ``dataset`` at the cache's scale."""
        if dataset not in self._keys:
            from repro.data import load_dataset

            self._keys[dataset] = load_dataset(
                dataset, self.scale.num_keys, seed=self.seed
            )
        return self._keys[dataset]

    def queries(self, dataset: str) -> np.ndarray:
        """The point-query batch used for every lookup measurement."""
        if dataset not in self._queries:
            self._queries[dataset] = query_sample(
                self.keys(dataset), self.scale.num_queries
            )
        return self._queries[dataset]

    def index(self, method: str, dataset: str):
        """The built index for (method, dataset), building once."""
        key = (method, dataset)
        if key not in self._indexes:
            index = make_index(method)
            index.bulk_load(self.keys(dataset))
            self._indexes[key] = index
        return self._indexes[key]

    def lookup_result(self, method: str, dataset: str) -> tuple:
        """(ns, misses, phases) for one built method on one dataset."""
        key = (method, dataset)
        if key not in self._lookup:
            self._lookup[key] = measure_lookup(
                self.index(method, dataset),
                self.queries(dataset),
                self.scale,
            )
        return self._lookup[key]


@dataclass(frozen=True)
class BatchMeasurement:
    """One batch-vs-scalar lookup measurement.

    Attributes:
        scalar_s: Wall-clock seconds of the per-key ``get`` loop.
        batch_s: Wall-clock seconds of one ``get_batch`` call with the
            flat plan already compiled (best of ``repeats``).
        compile_s: Wall-clock seconds of the first ``get_batch`` call,
            which includes compiling the plan.
        sim_ns_per_op: Simulated nanoseconds per lookup from the traced
            batch path (same cost model as :func:`measure_lookup`).
        sim_misses_per_op: Simulated LL-cache misses per lookup.
    """

    scalar_s: float
    batch_s: float
    compile_s: float
    sim_ns_per_op: float
    sim_misses_per_op: float

    @property
    def speedup(self) -> float:
        """Wall-clock scalar/batch ratio (plan warm)."""
        return self.scalar_s / self.batch_s if self.batch_s > 0 else float("inf")


def measure_batch_lookup(
    index,
    queries: np.ndarray,
    scale: BenchScale,
    *,
    repeats: int = 3,
) -> BatchMeasurement:
    """Wall-clock batch-vs-scalar comparison plus simulated batch cost.

    Runs the scalar ``get`` loop and the vectorized ``get_batch`` over
    the same query batch, checks they return identical results, and
    traces the batch path through the simulated cost model (the replay
    charges exactly the scalar loop's events, so the simulated numbers
    are directly comparable with :func:`measure_lookup`).
    """
    q = np.ascontiguousarray(queries, dtype=np.float64)
    t0 = time.perf_counter()
    batch_out = index.get_batch(q)
    compile_s = time.perf_counter() - t0
    batch_s = compile_s
    for _ in range(max(repeats - 1, 0)):
        t0 = time.perf_counter()
        batch_out = index.get_batch(q)
        batch_s = min(batch_s, time.perf_counter() - t0)

    key_list = q.tolist()
    get = index.get
    t0 = time.perf_counter()
    scalar_out = [get(k) for k in key_list]
    scalar_s = time.perf_counter() - t0
    if scalar_out != batch_out:
        raise AssertionError("get_batch disagrees with the scalar get loop")

    tracer = CostTracer(CacheSimulator(scale.cache_lines))
    try:
        index.get_batch(q, tracer)
    except TypeError:
        # Wrapper without a tracer-aware batch path (e.g. the
        # concurrent one): trace through the wrapped plain index.
        base = getattr(index, "index", index)
        base = getattr(base, "index", base)
        base.get_batch(q, tracer)
    n = max(len(q), 1)
    return BatchMeasurement(
        scalar_s=scalar_s,
        batch_s=batch_s,
        compile_s=compile_s,
        sim_ns_per_op=tracer.total_cycles / GHZ / n,
        sim_misses_per_op=tracer.cache_misses / n,
    )


def batch_lookup_rows(
    cache: "BuildCache",
    datasets: Sequence[str] = DATASETS,
    method: str = "DILI",
) -> list[list[object]]:
    """Batch-mode benchmark rows: simulated cost next to wall-clock.

    One row per dataset: simulated ns and LL misses per lookup (from
    the traced batch path), then the measured wall-clock of the scalar
    loop and of the warm batch call, and their ratio.
    """
    rows: list[list[object]] = []
    for dataset in datasets:
        index = cache.index(method, dataset)
        queries = cache.queries(dataset)
        m = measure_batch_lookup(index, queries, cache.scale)
        rows.append(
            [
                dataset,
                m.sim_ns_per_op,
                m.sim_misses_per_op,
                m.scalar_s * 1e3,
                m.batch_s * 1e3,
                m.speedup,
            ]
        )
    return rows


BATCH_COLUMNS = [
    "Dataset",
    "sim ns/op",
    "misses/op",
    "scalar (ms)",
    "batch (ms)",
    "speedup x",
]
"""Column labels matching :func:`batch_lookup_rows`."""


@dataclass(frozen=True)
class WriteBatchMeasurement:
    """One batch-vs-scalar write measurement.

    Two comparisons at the same tree size, both against the identical
    scalar ``insert`` loop semantics:

    * *serving state* (the mixed-workload scenario of Fig. 7 /
      Table 10): the flat read plan is compiled and must stay usable,
      so every scalar insert patches or splices the plan per operation
      while ``insert_batch`` maintains it once per batch.
    * *tree only*: no plan exists; the comparison isolates the batched
      descent and per-leaf grouping from plan maintenance.

    Attributes:
        scalar_s / batch_s: Serving-state wall-clock seconds.
        tree_scalar_s / tree_batch_s: Tree-only wall-clock seconds.
        writes: Operations per measured run.
        sim_parity: True when a :class:`CostTracer` charged bit-equal
            totals (cycles, memory accesses, cache misses) to the
            scalar loop and the batch call on twin trees.
        plan_patches / plan_subtree_recompiles / plan_recompiles:
            Counter values of the serving-state batch index afterwards.
    """

    scalar_s: float
    batch_s: float
    tree_scalar_s: float
    tree_batch_s: float
    writes: int
    sim_parity: bool
    plan_patches: int
    plan_subtree_recompiles: int
    plan_recompiles: int

    @property
    def speedup(self) -> float:
        """Serving-state scalar/batch wall-clock ratio."""
        return self.scalar_s / self.batch_s if self.batch_s > 0 else float("inf")

    @property
    def tree_speedup(self) -> float:
        """Tree-only scalar/batch wall-clock ratio."""
        if self.tree_batch_s <= 0:
            return float("inf")
        return self.tree_scalar_s / self.tree_batch_s


def _fresh_keys(keys: np.ndarray, count: int, seed: int) -> np.ndarray:
    """``count`` keys inside the data range but absent from ``keys``."""
    rng = np.random.default_rng(seed)
    lo, hi = float(keys[0]), float(keys[-1])
    out = np.empty(0, dtype=np.float64)
    while len(out) < count:
        cand = np.unique(rng.uniform(lo, hi, 2 * count))
        cand = cand[~np.isin(cand, keys)]
        out = np.unique(np.concatenate([out, cand]))
    rng.shuffle(out)
    return out[:count]


def measure_batch_write(
    keys: np.ndarray,
    scale: BenchScale,
    *,
    writes: int = 256,
    parity_keys: int = 20_000,
    parity_writes: int = 2_000,
    seed: int = 23,
) -> WriteBatchMeasurement:
    """Wall-clock batch-vs-scalar insert comparison plus trace parity.

    Builds twin DILI trees from ``keys`` and inserts the same fresh
    keys into each -- a scalar ``insert`` loop on one, one
    ``insert_batch`` call on the other -- first in serving state (flat
    plan compiled and kept consistent throughout) and then tree-only.
    Twin results are verified identical.  A separate pair of smaller
    twins is traced through the simulated cost model to check the
    batch path charges exactly the scalar loop's events.
    """
    new = _fresh_keys(keys, writes, seed)
    vals = [None] * writes

    def build(compile_plan: bool) -> DILI:
        index = DILI()
        index.bulk_load(keys, [None] * len(keys))
        if compile_plan:
            index.get_batch(keys[:16])
        return index

    # Serving state: plan alive, every write keeps it consistent.
    a, b = build(True), build(True)
    t0 = time.perf_counter()
    for k, v in zip(new.tolist(), vals):
        a.insert(k, v)
    scalar_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    b.insert_batch(new, vals)
    batch_s = time.perf_counter() - t0
    if list(a.items()) != list(b.items()):
        raise AssertionError("insert_batch disagrees with the scalar loop")
    if a.peek_plan() is None or b.peek_plan() is None:
        raise AssertionError("a write dropped the compiled plan")
    stats = (b.plan_patches, b.plan_subtree_recompiles, b.plan_recompiles)

    # Tree only: no plan, no maintenance on either side.
    a, b = build(False), build(False)
    t0 = time.perf_counter()
    for k, v in zip(new.tolist(), vals):
        a.insert(k, v)
    tree_scalar_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    b.insert_batch(new, vals)
    tree_batch_s = time.perf_counter() - t0
    if list(a.items()) != list(b.items()):
        raise AssertionError("insert_batch disagrees with the scalar loop")

    # Simulated-cost parity on smaller twins (trace replay is per key,
    # so the subset keeps the check fast without weakening it).
    pk = keys[:: max(1, len(keys) // parity_keys)]
    pnew = _fresh_keys(pk, parity_writes, seed + 1)
    ta = CostTracer(CacheSimulator(scale.cache_lines))
    tb = CostTracer(CacheSimulator(scale.cache_lines))
    a = DILI()
    a.bulk_load(pk, [None] * len(pk))
    b = DILI()
    b.bulk_load(pk, [None] * len(pk))
    for k in pnew.tolist():
        a.insert(k, None, tracer=ta)
    b.insert_batch(pnew, [None] * len(pnew), tracer=tb)
    sim_parity = (
        ta.total_cycles == tb.total_cycles
        and ta.mem_accesses == tb.mem_accesses
        and ta.cache_misses == tb.cache_misses
        and ta.phase_cycles == tb.phase_cycles
        and list(a.items()) == list(b.items())
    )
    return WriteBatchMeasurement(
        scalar_s=scalar_s,
        batch_s=batch_s,
        tree_scalar_s=tree_scalar_s,
        tree_batch_s=tree_batch_s,
        writes=writes,
        sim_parity=sim_parity,
        plan_patches=stats[0],
        plan_subtree_recompiles=stats[1],
        plan_recompiles=stats[2],
    )


@dataclass(frozen=True)
class MixedWorkloadMeasurement:
    """One YCSB-style batched read/write mixed-workload run.

    Attributes:
        ops: Total operations executed.
        reads / writes: Read and write operation counts.
        wall_s: Total wall-clock seconds across all rounds.
        full_recompiles: Full plan recompiles *during* the workload
            (beyond the initial lazy compile) -- the CI gate requires 0.
        subtree_recompiles / patches: Incremental-maintenance counters.
        plan_alive: True when the flat plan survived every round.
    """

    ops: int
    reads: int
    writes: int
    wall_s: float
    full_recompiles: int
    subtree_recompiles: int
    patches: int
    plan_alive: bool

    @property
    def wall_mops(self) -> float:
        return self.ops / self.wall_s / 1e6 if self.wall_s > 0 else 0.0


def measure_mixed_workload(
    keys: np.ndarray,
    *,
    rounds: int = 20,
    ops_per_round: int = 1024,
    write_fraction: float = 0.05,
    seed: int = 29,
) -> MixedWorkloadMeasurement:
    """Run a batched read/write mix against one DILI in serving state.

    Each round issues one ``get_batch`` over existing keys and one
    write batch sized by ``write_fraction`` -- rounds alternate between
    ``insert_batch`` of fresh keys and ``delete_batch`` of keys a
    previous round inserted, so the tree stays near its initial size.
    The flat plan is compiled before the first round and must survive
    the whole run via patches and subtree splices; the lazy-recompile
    counter is read before and after to prove no full recompile
    happened between structural changes.
    """
    rng = np.random.default_rng(seed)
    per_round_writes = max(1, int(round(ops_per_round * write_fraction)))
    per_round_reads = ops_per_round - per_round_writes
    index = DILI()
    index.bulk_load(keys, [None] * len(keys))
    index.get_batch(keys[:16])  # compile the plan: serving state
    base_recompiles = index.plan_recompiles
    pool = _fresh_keys(keys, per_round_writes * rounds, seed + 1)
    inserted: list[np.ndarray] = []
    reads = writes = 0
    wall = 0.0
    for r in range(rounds):
        qs = keys[rng.integers(0, len(keys), per_round_reads)]
        if r % 2 == 0 or not inserted:
            chunk = pool[:per_round_writes]
            pool = pool[per_round_writes:]
            t0 = time.perf_counter()
            index.get_batch(qs)
            index.insert_batch(chunk, [None] * len(chunk))
            wall += time.perf_counter() - t0
            inserted.append(chunk)
        else:
            chunk = inserted.pop(0)
            t0 = time.perf_counter()
            index.get_batch(qs)
            index.delete_batch(chunk)
            wall += time.perf_counter() - t0
        reads += per_round_reads
        writes += len(chunk)
    index.validate()
    return MixedWorkloadMeasurement(
        ops=reads + writes,
        reads=reads,
        writes=writes,
        wall_s=wall,
        full_recompiles=index.plan_recompiles - base_recompiles,
        subtree_recompiles=index.plan_subtree_recompiles,
        patches=index.plan_patches,
        plan_alive=index.peek_plan() is not None,
    )


@dataclass(frozen=True)
class ReadScalingMeasurement:
    """Concurrent batch-read scaling and contention measurement.

    Attributes:
        thread_counts: Reader-thread counts measured (e.g. ``(1,2,4,8)``).
        ops_per_s: Lock-free ``get_batch`` lookups/s by reader count,
            with no writer running.
        contention_lockfree_ops: Lookups/s of 4 lock-free readers while
            a writer thread churns the tree under the writer lock
            (readers descend the published plan, never block).
        contention_locked_ops: Same readers and writer, but every read
            forced through ``exclusive()`` -- the older protocol where
            batch reads serialized against writers and each other.
        wrong_reads: Reads (across every phase) that returned a value
            inconsistent with the loaded base data.  Must be zero.
        lost_updates: Writer-inserted keys missing after the contention
            phases.  Must be zero.
        plan_publishes: Plan versions published during the lock-free
            contention phase.
        plan_reads: Batch reads answered from the published plan
            during the lock-free contention phase.
        cpu_count: ``os.cpu_count()`` on the measuring machine; pure
            thread scaling is only meaningful when it is >= the thread
            count (CPython threads share one interpreter lock).
    """

    thread_counts: tuple[int, ...]
    ops_per_s: dict[int, float]
    contention_lockfree_ops: float
    contention_locked_ops: float
    wrong_reads: int
    lost_updates: int
    plan_publishes: int
    plan_reads: int
    cpu_count: int

    def scaling(self, threads: int) -> float:
        """Throughput at ``threads`` readers relative to one reader."""
        base = self.ops_per_s[self.thread_counts[0]]
        return self.ops_per_s[threads] / base if base > 0 else 0.0

    @property
    def scaling_4(self) -> float:
        return self.scaling(4) if 4 in self.ops_per_s else 0.0

    @property
    def contention_speedup(self) -> float:
        """Lock-free vs exclusive-locked read throughput under writers."""
        if self.contention_locked_ops <= 0:
            return float("inf")
        return self.contention_lockfree_ops / self.contention_locked_ops


def measure_concurrent_read_scaling(
    keys: np.ndarray,
    *,
    thread_counts: Sequence[int] = (1, 2, 4, 8),
    batch: int = 256,
    rounds: int = 30,
    writer_keys: int = 1024,
    writer_chunk: int = 128,
    repeats: int = 2,
    seed: int = 31,
) -> ReadScalingMeasurement:
    """Measure lock-free batch-read scaling and lock contention.

    Loads one :class:`~repro.core.concurrent.ConcurrentDILI` with
    ``keys`` (value = position), compiles and publishes the flat plan,
    then runs three phases:

    1. **Pure scaling** -- for each count in ``thread_counts``, that
       many reader threads each issue ``rounds`` lock-free
       ``get_batch`` calls over pre-drawn base-key batches; every
       result is checked against the loaded values.
    2. **Lock-free contention** -- 4 readers as above while a writer
       thread inserts fresh keys with ``insert_batch`` and churns them
       with ``update_batch``/``bulk_insert`` (all lock-taking paths).
    3. **Locked contention** -- identical workload, but each read is
       forced through ``exclusive()`` to price the older protocol
       where batch reads serialized against writers.

    Wrong reads and lost writer inserts are counted, never tolerated:
    callers gate both at zero.
    """
    import threading

    from repro import ConcurrentDILI

    rng = np.random.default_rng(seed)
    index = ConcurrentDILI()
    index.bulk_load(keys, list(range(len(keys))))
    index.get_batch(keys[:16])  # compile + publish the plan
    wrong_reads = 0
    lost_updates = 0

    def draw_probes(n_threads: int) -> list[list[tuple[np.ndarray, list]]]:
        per_thread = []
        for _ in range(n_threads):
            plan = []
            for _ in range(rounds):
                idx = rng.integers(0, len(keys), size=batch)
                plan.append((keys[idx], [int(i) for i in idx]))
            per_thread.append(plan)
        return per_thread

    def run_readers(
        n_threads: int, read_one: Callable
    ) -> tuple[float, int]:
        """Run the pre-drawn probe plans; return (wall_s, wrong)."""
        probes = draw_probes(n_threads)
        barrier = threading.Barrier(n_threads + 1)
        wrong = [0] * n_threads
        errors: list[BaseException] = []

        def reader(tid: int) -> None:
            try:
                barrier.wait()
                bad = 0
                for q, expect in probes[tid]:
                    if read_one(q) != expect:
                        bad += 1
                wrong[tid] = bad
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(t,))
            for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        t0 = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        if errors:
            raise errors[0]
        return wall, sum(wrong)

    # Phase 1: pure lock-free reader scaling, no writers.
    ops_per_s: dict[int, float] = {}
    for n in thread_counts:
        wall, wrong = run_readers(n, index.get_batch)
        wrong_reads += wrong
        ops_per_s[n] = n * rounds * batch / wall if wall > 0 else 0.0

    # Phases 2-3: 4 readers vs one lock-taking writer.  The writer
    # inserts a disjoint pool of fresh keys chunk by chunk, then churns
    # them (update_batch + periodic bulk_insert re-upserts) until the
    # readers finish, so the writer lock stays hot the whole phase.
    # Base keys are never touched: reader expectations hold.
    def run_contended(read_one: Callable, pool: np.ndarray) -> float:
        stop = threading.Event()
        writer_errors: list[BaseException] = []

        def writer() -> None:
            try:
                # Insert the whole pool even if readers finish first:
                # the lost-update check audits every key written here.
                values = [-1] * writer_chunk
                for start in range(0, len(pool), writer_chunk):
                    chunk = pool[start : start + writer_chunk]
                    index.insert_batch(chunk, values[: len(chunk)])
                # Structural churn: delete and re-insert rotating
                # chunks (long writer-lock critical sections --
                # the workload the exclusive() protocol stalls reads
                # behind), plus periodic whole-pool value updates.
                # Delete/insert always run as a pair so the pool is
                # fully present whenever the loop observes ``stop``.
                nchunks = max(1, len(pool) // writer_chunk)
                generation = 0
                while not stop.is_set():
                    generation += 1
                    start = (generation % nchunks) * writer_chunk
                    chunk = pool[start : start + writer_chunk]
                    index.delete_batch(chunk)
                    index.insert_batch(chunk, [generation] * len(chunk))
                    if generation % 8 == 0:
                        index.update_batch(
                            pool, [generation] * len(pool)
                        )
            except BaseException as exc:  # pragma: no cover
                writer_errors.append(exc)

        churn = threading.Thread(target=writer)
        churn.start()
        try:
            wall, wrong = run_readers(4, read_one)
        finally:
            stop.set()
            churn.join()
        if writer_errors:
            raise writer_errors[0]
        nonlocal wrong_reads
        wrong_reads += wrong
        return 4 * rounds * batch / wall if wall > 0 else 0.0

    def locked_read(q: np.ndarray) -> list:
        with index.exclusive():
            return index.index.get_batch(q)

    # Best-of-``repeats`` on each contended phase: thread scheduling on
    # a busy runner is noisy, and (as with the warm batch timings
    # above) the best observed throughput is the stable estimate of
    # what each protocol can sustain.  Re-running over the same pool is
    # sound -- inserts of present keys are no-ops and the churn loop is
    # self-restoring, so the lost-update audit still covers every key.
    pools = np.array_split(
        _fresh_keys(keys, 2 * writer_keys, seed + 1), 2
    )
    stats0 = index.lock_stats
    contention_lockfree = max(
        run_contended(index.get_batch, pools[0])
        for _ in range(max(repeats, 1))
    )
    stats1 = index.lock_stats
    contention_locked = max(
        run_contended(locked_read, pools[1])
        for _ in range(max(repeats, 1))
    )

    for pool in pools:
        present = index.contains_batch(pool)
        lost_updates += sum(1 for p in present if not p)
    index.index.validate()

    return ReadScalingMeasurement(
        thread_counts=tuple(thread_counts),
        ops_per_s=ops_per_s,
        contention_lockfree_ops=contention_lockfree,
        contention_locked_ops=contention_locked,
        wrong_reads=wrong_reads,
        lost_updates=lost_updates,
        plan_publishes=(
            stats1["plan_publishes"] - stats0["plan_publishes"]
        ),
        plan_reads=stats1["plan_reads"] - stats0["plan_reads"],
        cpu_count=os.cpu_count() or 1,
    )


@dataclass(frozen=True)
class ShardedThroughputMeasurement:
    """Multi-process sharded batch-read throughput by worker count.

    Every worker count -- including 1 -- serves through the full
    coordinator/pipe/worker-process stack, so the scaling ratio
    isolates parallelism from serialization overhead.

    Attributes:
        worker_counts: Worker-process counts measured (e.g. ``(1, 2)``).
        ops_per_s: Batch-get lookups/s by worker count (best of
            ``rounds``), every result audited against the loaded
            values.
        wrong_reads: Lookups that returned a value inconsistent with
            the loaded data.  Must be zero.
        num_keys: Keys loaded per configuration.
        batch: Keys per measured ``get_batch`` call.
        cpu_count: ``os.cpu_count()`` on the measuring machine; process
            scaling is only physically possible when it is >= the
            worker count.
        median_s: Median seconds of one ``get_batch`` call over the
            ``rounds`` by worker count.
        in_process_s: Median seconds of an in-process
            ``DILI.get_batch`` of the same batch over the same keys.
    """

    worker_counts: tuple[int, ...]
    ops_per_s: dict[int, float]
    wrong_reads: int
    num_keys: int
    batch: int
    cpu_count: int
    median_s: dict[int, float]
    in_process_s: float

    def scaling(self, workers: int) -> float:
        """Throughput at ``workers`` relative to one worker."""
        base = self.ops_per_s[self.worker_counts[0]]
        return self.ops_per_s[workers] / base if base > 0 else 0.0

    @property
    def scaling_2(self) -> float:
        return self.scaling(2) if 2 in self.ops_per_s else 0.0

    @property
    def one_worker_ratio(self) -> float:
        """Median 1-worker sharded read over the in-process read of the
        same keys (the sharded path aims at 2x or less); 0 when 1
        worker was not measured."""
        if 1 not in self.median_s or self.in_process_s <= 0:
            return 0.0
        return self.median_s[1] / self.in_process_s


def measure_sharded_throughput(
    keys: np.ndarray,
    *,
    worker_counts: Sequence[int] = (1, 2),
    batch: int = 32_768,
    rounds: int = 5,
    seed: int = 37,
) -> ShardedThroughputMeasurement:
    """Measure sharded multi-process batch-read scaling.

    For each worker count, creates a fresh range-sharded directory
    (``tuning="none"`` -- the grid search is a build-time cost priced
    by :func:`measure_shard_tuning`, not a serving cost), serves it
    with that many dedicated worker processes reading zero-copy from
    the published plans, and times repeated ``get_batch`` calls over
    one pre-drawn existing-key batch.  Large batches amortize the pipe
    round-trip the way the paper's batch API amortizes interpreter
    dispatch; every returned value is audited against the loaded data.
    The same batch is also timed through an in-process ``DILI`` over
    the same keys, the yardstick of the 1-worker sharded read.

    Each worker is pinned to its own CPU (where the platform has
    ``os.sched_setaffinity``), as in the serving benchmark, so the
    scheduler cannot wake two workers on one core and serialise a
    read.
    """
    import tempfile

    from repro.sharding import ShardedDILI

    keys = np.ascontiguousarray(keys, dtype=np.float64)
    values = list(range(len(keys)))
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(keys), size=batch)
    queries = keys[idx]
    expected = [int(i) for i in idx]
    ops_per_s: dict[int, float] = {}
    median_s: dict[int, float] = {}
    wrong_reads = 0

    def timed(get_batch) -> tuple[list[float], int]:
        """Seconds of each of ``rounds`` reads of the batch, and the
        wrong answers of the last."""
        get_batch(queries[:256])  # warm pages, workers and the plan
        times = []
        got: list = []
        for _ in range(max(rounds, 1)):
            t0 = time.perf_counter()
            got = get_batch(queries)
            times.append(time.perf_counter() - t0)
        return times, sum(1 for g, e in zip(got, expected) if g != e)

    for workers in worker_counts:
        with tempfile.TemporaryDirectory(
            prefix="repro-shard-bench-"
        ) as tmp:
            with ShardedDILI.create(
                tmp,
                keys,
                values,
                num_shards=workers,
                partition="range",
                tuning="none",
                processes=True,
                sync=False,
            ) as index:
                if hasattr(os, "sched_setaffinity"):
                    cpus = sorted(os.sched_getaffinity(0))
                    for j, shard in enumerate(index.status()["shards"]):
                        os.sched_setaffinity(
                            shard["pid"], {cpus[j % len(cpus)]}
                        )
                times, wrong = timed(index.get_batch)
                wrong_reads += wrong
                best = min(times)
                ops_per_s[workers] = batch / best if best > 0 else 0.0
                median_s[workers] = float(np.median(times))
    # Built after the fleets are gone: alive beside them (and forked
    # into their workers) it slowed the 1-worker read from about 9 ms
    # to 14 ms at 60,000 keys.
    in_process = DILI()
    in_process.bulk_load(keys, values)
    in_process_s = float(np.median(timed(in_process.get_batch)[0]))
    return ShardedThroughputMeasurement(
        worker_counts=tuple(worker_counts),
        ops_per_s=ops_per_s,
        wrong_reads=wrong_reads,
        num_keys=len(keys),
        batch=batch,
        cpu_count=os.cpu_count() or 1,
        median_s=median_s,
        in_process_s=in_process_s,
    )


def mixed_distribution_keys(
    num_keys: int, seed: int = 41
) -> np.ndarray:
    """A deliberately non-stationary keyset for the tuning benchmark.

    Three contiguous regimes -- a uniform span, a band of tight
    Gaussian clusters, and a heavy lognormal tail -- so quantile range
    shards land on genuinely different local distributions and a
    single global configuration has to compromise.
    """
    rng = np.random.default_rng(seed)
    third = num_keys // 3
    uniform = rng.uniform(0.0, 1.0e7, size=third)
    centers = rng.integers(0, 50, size=third).astype(np.float64)
    clusters = 2.0e7 + centers * 1.0e5 + rng.normal(0.0, 40.0, size=third)
    tail = 5.0e7 + np.exp(
        rng.normal(14.0, 1.2, size=num_keys - 2 * third)
    )
    return np.unique(np.concatenate((uniform, clusters, tail))).astype(
        np.float64
    )


@dataclass(frozen=True)
class ShardTuningMeasurement:
    """Heterogeneous per-shard tuning vs one global configuration.

    Both variants use the identical quantile partition and the
    identical query workload; only the per-shard bulk-load parameters
    differ.  Costs come from the deterministic simulated cost model
    (one LRU cache per shard, matching the per-process reality), so
    the comparison is machine-noise-free.

    Attributes:
        num_shards: Shards in both partitions.
        local_cycles_per_op: Simulated cycles/lookup with per-shard
            fitted configs.
        global_cycles_per_op: Same workload with the single best
            global config everywhere.
        local_configs: The fitted ``(omega, rho)`` per shard.
        global_config: The ``(omega, rho)`` the global fit chose.
    """

    num_shards: int
    local_cycles_per_op: float
    global_cycles_per_op: float
    local_configs: tuple
    global_config: tuple

    @property
    def gain_pct(self) -> float:
        """How much cheaper per-shard tuning is, in percent."""
        if self.global_cycles_per_op <= 0:
            return 0.0
        return 100.0 * (
            1.0 - self.local_cycles_per_op / self.global_cycles_per_op
        )


def measure_shard_tuning(
    keys: np.ndarray | None = None,
    *,
    num_keys: int = 60_000,
    num_shards: int = 3,
    num_queries: int = 4_096,
    seed: int = 42,
) -> ShardTuningMeasurement:
    """Score per-shard distribution tuning against one global config.

    Plans the same quantile partition twice (``tuning="local"`` vs
    ``tuning="global"``), bulk-loads every shard under its chosen
    config, routes one shared random existing-key workload, and traces
    each shard's queries through its own simulated LRU cache.  Reports
    total simulated cycles per lookup for both variants.
    """
    from repro.sharding.partition import build_range_shards

    if keys is None:
        keys = mixed_distribution_keys(num_keys, seed=seed)
    keys = np.ascontiguousarray(keys, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    queries = keys[rng.integers(0, len(keys), size=num_queries)]

    def score(tuning: str) -> tuple[float, tuple]:
        part = build_range_shards(
            keys, None, num_shards, tuning=tuning, seed=seed
        )
        shard_ids = part.router.route(queries)
        cycles = 0.0
        configs = []
        for j, spec in enumerate(part.shards):
            configs.append((spec.config.omega, spec.config.rho))
            index = DILI(spec.config)
            index.bulk_load(spec.keys, list(spec.values))
            mine = queries[shard_ids == j]
            if len(mine) == 0:
                continue
            lines = max(512, len(spec.keys) // 100)
            tracer = CostTracer(CacheSimulator(lines))
            index.get_batch(mine, tracer)
            cycles += tracer.total_cycles
        return cycles / max(len(queries), 1), tuple(configs)

    local_cost, local_configs = score("local")
    global_cost, global_configs = score("global")
    return ShardTuningMeasurement(
        num_shards=num_shards,
        local_cycles_per_op=local_cost,
        global_cycles_per_op=global_cost,
        local_configs=local_configs,
        global_config=global_configs[0],
    )


def measure_lookup(
    index,
    queries: np.ndarray,
    scale: BenchScale,
    *,
    warm_fraction: float = 0.3,
) -> tuple[float, float, dict[str, float]]:
    """Average simulated lookup time over a query batch.

    The first ``warm_fraction`` of queries warms the simulated cache
    (steady state); the remainder is measured.

    Returns:
        (nanoseconds per lookup, LL-cache misses per lookup,
        per-phase nanoseconds dict -- 'step1'/'step2' where the index
        reports them).
    """
    tracer = CostTracer(CacheSimulator(scale.cache_lines))
    split = int(len(queries) * warm_fraction)
    for key in queries[:split]:
        index.get(float(key), tracer)
    tracer.reset_counters()
    measured = queries[split:]
    for key in measured:
        index.get(float(key), tracer)
    n = max(len(measured), 1)
    phases = {
        name: cycles / GHZ / n
        for name, cycles in tracer.phase_cycles.items()
        if name in ("step1", "step2")
    }
    return (
        tracer.total_cycles / GHZ / n,
        tracer.cache_misses / n,
        phases,
    )
