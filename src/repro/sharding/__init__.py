"""Sharded multi-process serving over the mmap plan store.

The first GIL-escaping path: the keyspace is cut into contiguous range
shards, each a full :class:`~repro.durability.durable.DurableDILI`
state directory whose compiled plan is published through
:mod:`repro.planstore` and served zero-copy by a dedicated worker
*process*; a coordinator scatter/gathers batches over the worker
pipes as arrays, preserving input order and -- for aligned partitions
-- per-key simulated costs (±0 cycles vs the unsharded index).

Modules:

* :mod:`repro.sharding.router` -- the ``searchsorted`` key-space
  router, plus the bit-exact aligned child router.
* :mod:`repro.sharding.partition` -- quantile partitioning, per-shard
  distribution tuning (grid search on the local CDF under the
  simulated cost model), and the aligned global-tree split.
* :mod:`repro.sharding.manifest` -- the atomic ``shards.json``.
* :mod:`repro.sharding.worker` -- the per-shard worker process (the
  only sharding module allowed to touch index state; CHK009), with a
  heartbeat thread so the coordinator can tell hung from slow.
* :mod:`repro.sharding.coordinator` -- ``ShardedDILI``: scatter /
  gather, supervised worker restart, and the split/merge rebalancer.
* :mod:`repro.sharding.supervision` -- per-request ``Deadline``
  budgets, the sanctioned pipe-receive wrappers (CHK014), and the
  ``FleetSupervisor`` per-shard health ledgers that derive aggregate
  coordinator health and gate restarts.
* :mod:`repro.sharding.breaker` -- per-shard ``CircuitBreaker``
  (CLOSED -> OPEN -> HALF_OPEN) and the exponential-backoff
  ``RestartPolicy`` that isolate crash-looping shards.
* :mod:`repro.sharding.chaos` -- seeded chaos harnesses: worker-kill +
  mid-rebalance (zero wrong reads) and the supervision schedule
  (SIGSTOP hangs, slow workers, crash loops, partial-result audits).
"""

from repro.sharding.breaker import BreakerState, CircuitBreaker, RestartPolicy
from repro.sharding.coordinator import (
    ShardedDILI,
    WorkerDied,
    WorkerRemoteError,
)
from repro.sharding.supervision import (
    UNAVAILABLE,
    Deadline,
    DeadlineExceeded,
    FleetSupervisor,
    ShardUnavailableError,
    WorkerHung,
)
from repro.sharding.manifest import Manifest, read_manifest, write_manifest
from repro.sharding.partition import (
    build_range_shards,
    fit_shard_config,
    quantile_boundaries,
    split_aligned,
)
from repro.sharding.router import AlignedRouter, ShardRouter, router_from_dict
from repro.sharding.worker import ShardWorker

__all__ = [
    "AlignedRouter",
    "BreakerState",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "FleetSupervisor",
    "Manifest",
    "RestartPolicy",
    "ShardRouter",
    "ShardUnavailableError",
    "ShardWorker",
    "ShardedDILI",
    "UNAVAILABLE",
    "WorkerDied",
    "WorkerHung",
    "WorkerRemoteError",
    "build_range_shards",
    "fit_shard_config",
    "quantile_boundaries",
    "read_manifest",
    "router_from_dict",
    "split_aligned",
    "write_manifest",
]
