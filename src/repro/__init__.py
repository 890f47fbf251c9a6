"""repro -- a reproduction of "DILI: A Distribution-Driven Learned Index".

Public surface:

* :class:`repro.DILI` / :class:`repro.DiliConfig` -- the paper's index.
* :class:`repro.ConcurrentDILI` -- the Appendix A.8 thread-safe wrapper.
* :class:`repro.DurableDILI` -- crash-safe persistence (WAL +
  checksummed snapshots + recovery, see :mod:`repro.durability`).
* :mod:`repro.resilience` -- health states and the chaos schedules
  that heal a damaged tree by recovery (fault injection via
  :mod:`repro.faults`).
* :mod:`repro.baselines` -- every competitor of Section 7, from scratch.
* :mod:`repro.data` -- SOSD-shaped synthetic datasets.
* :mod:`repro.workloads` -- the paper's workload mixes and a runner.
* :mod:`repro.simulate` -- the cache/cycle cost model behind the tables.
* :mod:`repro.bench` -- the experiment harness regenerating each
  table/figure (see DESIGN.md for the per-experiment index).
"""

from repro.core.concurrent import ConcurrentDILI
from repro.core.dili import DILI, DiliConfig
from repro.core.mapping import DiliMap
from repro.durability import DurableDILI
from repro.core.stats import (
    MemoryBreakdown,
    TreeStats,
    describe,
    memory_breakdown,
    tree_stats,
)

__all__ = [
    "DILI",
    "DiliConfig",
    "DiliMap",
    "ConcurrentDILI",
    "DurableDILI",
    "MemoryBreakdown",
    "TreeStats",
    "describe",
    "memory_breakdown",
    "tree_stats",
]
__version__ = "1.0.0"
