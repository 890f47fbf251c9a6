"""Crash-safe memory-mapped serving format for the compiled flat plan.

ROADMAP item 2 ("disk mode done right"): the flat plan is already
structure-of-arrays numpy, so serving it from disk is a matter of
writing those buffers into a file that can be *verified* without being
*deserialized* and then ``np.memmap``-ing them back.  Opening a plan is
O(1) -- no unpickle, no rebuild -- and N server processes share one
physical copy of the buffers through the page cache.

* :mod:`repro.planstore.format` -- the on-disk base/delta file layout:
  CRC-framed header (format version, per-buffer checksums, source WAL
  LSN, commit marker), written with the same temp + fsync +
  ``os.replace`` discipline as snapshots.
* :mod:`repro.planstore.store` -- :class:`PlanStore`: memory-maps a
  verified base file, replays deltas and WAL-tail records into an
  overlay, and serves ``get_batch`` / ``contains_batch`` /
  ``count_range_batch`` zero-copy and trace-identical to the in-memory
  :class:`~repro.core.flat.FlatPlan`.
* :mod:`repro.planstore.serve` -- :class:`PlanDirectory` (generation
  naming, publishing, quarantine, and the one delta-chain walk that the
  publisher, the ladder and the auditor share) and :class:`MmapDILI`,
  the serving handle whose ``open`` is a *fallback ladder*: newest
  verified plan -> previous verified generation -> snapshot+WAL
  rebuild -> DEGRADED.  ``refresh`` keeps an open handle current by
  replaying new WAL records into its overlay.
* :mod:`repro.planstore.corrupt` -- byte-surgery fault injectors
  (torn header, truncated buffer, flipped byte, stale LSN, missing
  delta) used by :class:`repro.faults.FaultRegistry` and the chaos
  harness.
* :mod:`repro.planstore.chaos` -- the seeded corruption sweep asserting
  every ladder rung serves zero wrong reads (``repro chaos --schedule
  plan``).

This package and :mod:`repro.durability` are the only modules allowed
to touch ``np.memmap`` / raw ``mmap`` / ``pickle.load`` (lint rule
CHK007): every byte read here is checksummed before it is trusted.
"""

from repro.planstore.chaos import run_plan_chaos
from repro.planstore.corrupt import (
    PLAN_FAULT_KINDS,
    PlanFaultReport,
    inject_plan_fault,
)
from repro.planstore.format import (
    DELTA_MAGIC,
    PLAN_MAGIC,
    PLAN_VERSION,
    PlanFormatError,
    PlanStaleError,
    PlanStoreError,
    read_delta_file,
    read_plan_header,
    write_delta_file,
    write_plan_file,
)
from repro.planstore.serve import (
    MmapDILI,
    PlanDirectory,
    ServingUnavailable,
)
from repro.planstore.store import PlanStore

__all__ = [
    "DELTA_MAGIC",
    "PLAN_FAULT_KINDS",
    "PLAN_MAGIC",
    "PLAN_VERSION",
    "MmapDILI",
    "PlanDirectory",
    "PlanFaultReport",
    "PlanFormatError",
    "PlanStaleError",
    "PlanStore",
    "PlanStoreError",
    "ServingUnavailable",
    "inject_plan_fault",
    "read_delta_file",
    "read_plan_header",
    "run_plan_chaos",
    "write_delta_file",
    "write_plan_file",
]
