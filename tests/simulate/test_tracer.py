"""Tests for the cost tracer and cycle model."""

import pickle

import numpy as np
import pytest

from repro.core.dili import DILI
from repro.simulate.cache import CacheSimulator
from repro.simulate.latency import CACHE_LINE_BYTES, CyclesPerOp, DEFAULT_CYCLES
from repro.simulate.tracer import (
    NULL_TRACER,
    CostTracer,
    region_id,
    skip_region_ids,
)


class TestRegionId:
    def test_ids_are_unique(self):
        ids = {region_id() for _ in range(1000)}
        assert len(ids) == 1000

    def test_skipping_moves_only_forward(self):
        start = region_id()
        skip_region_ids(start + 100)
        assert region_id() == start + 100
        skip_region_ids(start)
        assert region_id() > start + 100

    def test_an_unpickled_trees_ids_are_not_handed_out_again(self):
        """A tree written by another process may hold ids this
        process has not reached; loading it skips past them."""
        index = DILI()
        index.bulk_load(np.arange(1_000, dtype=np.float64))
        index.root.region = region_id() + 1_000
        loaded = pickle.loads(pickle.dumps(index))
        assert region_id() > loaded.root.region


class TestNullTracer:
    def test_all_events_are_noops(self):
        NULL_TRACER.mem(1, 0)
        NULL_TRACER.compute(100.0)
        NULL_TRACER.phase("x")  # must not raise


class TestCostTracer:
    def test_miss_then_hit_charges_differ(self):
        tracer = CostTracer()
        tracer.mem(1, 0)
        first = tracer.total_cycles
        tracer.mem(1, 0)
        second = tracer.total_cycles - first
        assert first == DEFAULT_CYCLES.cache_miss
        assert second == DEFAULT_CYCLES.cache_hit

    def test_same_line_offsets_share_a_line(self):
        tracer = CostTracer()
        tracer.mem(7, 0)
        tracer.mem(7, CACHE_LINE_BYTES - 1)  # same line
        assert tracer.cache_misses == 1
        tracer.mem(7, CACHE_LINE_BYTES)  # next line
        assert tracer.cache_misses == 2

    def test_regions_do_not_collide(self):
        tracer = CostTracer()
        tracer.mem(1, 0)
        tracer.mem(2, 0)
        assert tracer.cache_misses == 2

    def test_compute_accumulates(self):
        tracer = CostTracer()
        tracer.compute(10.0)
        tracer.compute(5.0)
        assert tracer.total_cycles == 15.0

    def test_phase_accounting(self):
        tracer = CostTracer()
        tracer.phase("step1")
        tracer.compute(10.0)
        tracer.phase("step2")
        tracer.compute(20.0)
        tracer.compute(5.0)
        assert tracer.phase_cycles == {"step1": 10.0, "step2": 25.0}

    def test_reset_keeps_cache_contents(self):
        tracer = CostTracer()
        tracer.mem(3, 0)
        tracer.reset_counters()
        assert tracer.total_cycles == 0.0
        tracer.mem(3, 0)  # still resident -> hit
        assert tracer.total_cycles == DEFAULT_CYCLES.cache_hit

    def test_custom_cycle_table(self):
        cycles = CyclesPerOp(cache_miss=1000.0, cache_hit=1.0)
        tracer = CostTracer(cycles=cycles)
        tracer.mem(1, 0)
        assert tracer.total_cycles == 1000.0

    def test_nanoseconds_conversion(self):
        tracer = CostTracer()
        tracer.compute(250.0)
        assert tracer.nanoseconds(ghz=2.5) == pytest.approx(100.0)

    def test_shared_cache_between_tracers(self):
        cache = CacheSimulator()
        a = CostTracer(cache=cache)
        b = CostTracer(cache=cache)
        a.mem(9, 0)
        b.mem(9, 0)  # warmed by tracer a
        assert b.total_cycles == DEFAULT_CYCLES.cache_hit
