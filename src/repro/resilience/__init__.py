"""Resilience layer: fault injection, health states, chaos schedules.

The way back from a damaged in-memory tree is recovery: the snapshot
and WAL of a :class:`~repro.durability.durable.DurableDILI` are the
authority, the tree is derived from them, and reopening the directory
rebuilds it (see ``docs/resilience.md``).  Three pieces:

* :mod:`repro.resilience.faults` -- process-wide fault registry
  (importable as :mod:`repro.faults`): detectability-verified
  corruption of plan cells, node models, pair slots, dense arrays,
  the ``ConcurrentDILI`` writer lock, plus the memoized durability
  crash-point injectors.
* :mod:`repro.resilience.health` -- the HEALTHY / DEGRADED / REPAIRING
  state machine the shard fleet and the plan-store reader report.
* :mod:`repro.resilience.chaos` -- the seeded ``tree`` and ``lock``
  chaos schedules (``repro chaos``) checking the contract end to end:
  the ``tree`` schedule detects each injected fault with one deep scan
  and heals it by reopening the durable directory.

Everything but the health machine is exported lazily: the fault/chaos
machinery imports benchmark-style dependencies the hot path never
needs.
"""

from __future__ import annotations

from repro.resilience.health import Health, HealthMonitor

_LAZY = {
    "FaultRegistry": ("repro.resilience.faults", "FaultRegistry"),
    "FaultReport": ("repro.resilience.faults", "FaultReport"),
    "FaultSchedule": ("repro.resilience.faults", "FaultSchedule"),
    "StallingLock": ("repro.resilience.faults", "StallingLock"),
    "TREE_FAULT_KINDS": ("repro.resilience.faults", "TREE_FAULT_KINDS"),
    "run_chaos": ("repro.resilience.chaos", "run_chaos"),
    "run_lock_chaos": ("repro.resilience.chaos", "run_lock_chaos"),
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
