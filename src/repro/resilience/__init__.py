"""Self-healing resilience layer: faults, repair, degraded serving, chaos.

Four cooperating pieces (see ``docs/resilience.md``):

* :mod:`repro.resilience.faults` -- process-wide fault registry
  (importable as :mod:`repro.faults`): detectability-verified
  corruption of plan cells, node models, pair slots, dense arrays,
  the ``ConcurrentDILI`` writer lock, plus the memoized durability
  crash-point injectors.
* :mod:`repro.resilience.repair` -- the online repair engine:
  sanitizer finding -> containing subtree -> quarantine -> bulk-load-
  identical rebuild from authority -> scoped re-verification.
* :mod:`repro.resilience.serving` -- :class:`ResilientDILI`, the
  degraded-mode wrapper whose read path falls back flat plan ->
  scalar tree -> authoritative table and never answers wrong.
* :mod:`repro.resilience.chaos` -- the seeded ``tree`` and ``lock``
  chaos schedules (``repro chaos``) checking the contract end to end,
  with :mod:`repro.resilience.oracle` providing the repaired-vs-fresh
  bit-identity check.

Everything is exported lazily: the fault/chaos machinery imports
benchmark-style dependencies the hot path never needs.
"""

from __future__ import annotations

from repro.resilience.health import Health, HealthMonitor

_LAZY = {
    "FaultRegistry": ("repro.resilience.faults", "FaultRegistry"),
    "FaultReport": ("repro.resilience.faults", "FaultReport"),
    "FaultSchedule": ("repro.resilience.faults", "FaultSchedule"),
    "StallingLock": ("repro.resilience.faults", "StallingLock"),
    "TREE_FAULT_KINDS": ("repro.resilience.faults", "TREE_FAULT_KINDS"),
    "RepairEngine": ("repro.resilience.repair", "RepairEngine"),
    "RepairTicket": ("repro.resilience.repair", "RepairTicket"),
    "Finding": ("repro.resilience.repair", "Finding"),
    "PairTable": ("repro.resilience.serving", "PairTable"),
    "ResilientDILI": ("repro.resilience.serving", "ResilientDILI"),
    "run_chaos": ("repro.resilience.chaos", "run_chaos"),
    "run_lock_chaos": ("repro.resilience.chaos", "run_lock_chaos"),
    "tree_signature": ("repro.resilience.oracle", "tree_signature"),
    "trees_identical": ("repro.resilience.oracle", "trees_identical"),
    "diff_trees": ("repro.resilience.oracle", "diff_trees"),
    "simulated_cost": ("repro.resilience.oracle", "simulated_cost"),
}

__all__ = ["Health", "HealthMonitor", *_LAZY]


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.resilience' has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), attr)
