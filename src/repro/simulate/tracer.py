"""Tracing protocol connecting index probes to the cost model.

Every index in this repository implements its lookup as
``_lookup(key, tracer)``.  The tracer receives two kinds of events:

* ``mem(region, offset)`` -- the probe read memory at byte ``offset``
  inside the object identified by ``region``.  The tracer folds this to a
  cache-line identifier and charges a hit or a miss.
* ``compute(cycles)`` -- the probe performed ``cycles`` worth of
  arithmetic (model evaluations, comparisons, search-loop overhead).

Production-path calls (``index.get``) pass :data:`NULL_TRACER`, whose
methods are no-ops, so correctness tests and real-time benchmarks pay only
an attribute lookup.  Cost benchmarks pass a :class:`CostTracer`.

The vectorized batch read path (:mod:`repro.core.flat`) also speaks
this protocol: it records the batch descent and replays it per key, so
one tracer sees the identical event stream -- and therefore produces
identical totals -- whether lookups went through ``get`` or
``get_batch``.  Event *order* is part of that contract (the LRU cache
simulation is stateful); replayers must emit events in batch order.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Hashable

from repro.simulate.cache import CacheSimulator
from repro.simulate.latency import CACHE_LINE_BYTES, DEFAULT_CYCLES, CyclesPerOp

_region_counter = itertools.count(1)


def _fresh_skip_lock() -> None:
    global _skip_lock
    _skip_lock = threading.Lock()


_fresh_skip_lock()
if hasattr(os, "register_at_fork"):
    # A child forked while another thread held the lock would keep it
    # held forever; shard workers are forked and skip at start-up.
    os.register_at_fork(after_in_child=_fresh_skip_lock)


def region_id() -> int:
    """Return a fresh identifier for a contiguous memory region.

    Index structures call this once per allocated node or array and pass
    the identifier to ``tracer.mem``; the tracer then distinguishes
    cache lines *within* the region by byte offset.
    """
    return next(_region_counter)


def skip_region_ids(below: int) -> None:
    """Never hand out a region id below ``below`` again.

    Ids are unique within one process only, and the cache simulator
    takes two nodes with one id for one region.  So a process that
    loads a tree written elsewhere skips past the tree's ids, and each
    shard worker process allocates from a range of its own shard's.
    Skipping may leave an unused id behind; only id equality matters.
    """
    global _region_counter
    with _skip_lock:
        if next(_region_counter) < below:
            _region_counter = itertools.count(below)


class Tracer:
    """Base tracer; both events are no-ops.  Subclass to record costs."""

    __slots__ = ()

    def mem(self, region: int, offset: int = 0) -> None:
        """Record a memory access at ``offset`` bytes into ``region``."""

    def compute(self, cycles: float) -> None:
        """Record ``cycles`` of non-memory work."""

    def phase(self, name: str) -> None:
        """Switch the accounting phase (e.g. 'step1' / 'step2')."""


class NullTracer(Tracer):
    """Shared do-nothing tracer for production code paths."""

    __slots__ = ()


NULL_TRACER = NullTracer()


class RecordingTracer(Tracer):
    """Tracer that buffers events for later replay into a real tracer.

    The batched write path processes keys grouped by target leaf, but
    the simulated LRU cache is stateful: event *order* changes hit/miss
    outcomes, and the contract is that batch operations charge exactly
    what the equivalent scalar loop would have charged, in the same
    order.  So each key's events are recorded into one of these while
    the batch executes in group order, then :meth:`replay` emits the
    per-key streams back in original batch order.

    Per-key event streams are identical under both execution orders
    because operations on different top-level leaves touch disjoint
    state and keys within one leaf keep their relative order.
    """

    __slots__ = ("events",)

    _MEM = 0
    _COMPUTE = 1
    _PHASE = 2

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def mem(self, region: int, offset: int = 0) -> None:
        self.events.append((self._MEM, region, offset))

    def compute(self, cycles: float) -> None:
        self.events.append((self._COMPUTE, cycles, 0))

    def phase(self, name: str) -> None:
        self.events.append((self._PHASE, name, 0))

    def replay(self, tracer: Tracer) -> None:
        """Emit every buffered event into ``tracer``, in order."""
        mem = tracer.mem
        compute = tracer.compute
        phase = tracer.phase
        for kind, a, b in self.events:
            if kind == self._MEM:
                mem(a, b)
            elif kind == self._COMPUTE:
                compute(a)
            else:
                phase(a)


class CostTracer(Tracer):
    """Tracer that accumulates simulated cycles and cache misses.

    Args:
        cache: Cache simulator deciding hits vs. misses.  A fresh 4 MiB
            LRU cache is created when omitted.
        cycles: Charge table; defaults to the paper's constants.

    Attributes:
        total_cycles: Simulated cycles accumulated so far.
        mem_accesses: Number of ``mem`` events.
        phase_cycles: Mapping from phase name to cycles spent in it.
    """

    __slots__ = (
        "cache",
        "cycles_per_op",
        "total_cycles",
        "mem_accesses",
        "phase_cycles",
        "_phase",
    )

    def __init__(
        self,
        cache: CacheSimulator | None = None,
        cycles: CyclesPerOp = DEFAULT_CYCLES,
    ) -> None:
        self.cache = cache if cache is not None else CacheSimulator()
        self.cycles_per_op = cycles
        self.total_cycles = 0.0
        self.mem_accesses = 0
        self.phase_cycles: dict[str, float] = {}
        self._phase: str | None = None

    @property
    def cache_misses(self) -> int:
        """Total misses recorded by the underlying cache simulator."""
        return self.cache.misses

    def mem(self, region: int, offset: int = 0) -> None:
        self.mem_accesses += 1
        block: Hashable = (region, offset // CACHE_LINE_BYTES)
        if self.cache.touch(block):
            self._charge(self.cycles_per_op.cache_miss)
        else:
            self._charge(self.cycles_per_op.cache_hit)

    def compute(self, cycles: float) -> None:
        self._charge(cycles)

    def phase(self, name: str) -> None:
        # Hot in batch replay (two calls per key): skip the setdefault
        # machinery once the phase bucket exists.
        self._phase = name
        if name not in self.phase_cycles:
            self.phase_cycles[name] = 0.0

    def _charge(self, cycles: float) -> None:
        self.total_cycles += cycles
        if self._phase is not None:
            self.phase_cycles[self._phase] += cycles

    def reset_counters(self) -> None:
        """Zero the accumulated cycles/accesses but keep cache contents.

        Benchmarks warm the cache with a batch of probes, reset counters,
        then measure, mimicking steady-state hardware counters.
        """
        self.total_cycles = 0.0
        self.mem_accesses = 0
        self.phase_cycles = {}
        self._phase = None
        self.cache.hits = 0
        self.cache.misses = 0

    def nanoseconds(self, ghz: float = 2.5) -> float:
        """Total simulated time in nanoseconds."""
        return self.cycles_per_op.to_nanoseconds(self.total_cycles, ghz)
