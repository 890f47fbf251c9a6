"""Serving health state machine (HEALTHY -> DEGRADED -> REPAIRING).

The state says how much a serving front-end can be trusted right now,
and the machine makes its transitions explicit and auditable.  Two
front-ends drive it:

* the sharded coordinator (``ShardedDILI``): a failed worker takes
  the fleet HEALTHY -> DEGRADED, respawning it DEGRADED -> REPAIRING,
  and the target the supervisor derives from its per-shard ledgers
  (``FleetSupervisor.target_health``) ends the restart at HEALTHY or
  back at DEGRADED;
* the plan-store reader (:class:`~repro.planstore.serve.MmapDILI`)
  goes HEALTHY -> DEGRADED at rung 4, when not even recovery gives it
  a store to serve.

Legal transitions:

* ``HEALTHY -> DEGRADED``   -- a failure was observed.
* ``DEGRADED -> REPAIRING`` -- recovery (a worker restart) started.
* ``REPAIRING -> DEGRADED`` -- the recovery failed.
* ``REPAIRING -> HEALTHY``  -- the recovery succeeded.

Any other transition is a bug in the caller and raises
:class:`~repro.check.errors.InvariantError`; same-state transitions are
no-ops so a failure may be re-reported idempotently.
"""

from __future__ import annotations

import enum

from repro.check.errors import InvariantError


class Health(enum.Enum):
    """Trust level of the serving structures."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    REPAIRING = "repairing"


_ALLOWED: frozenset[tuple[Health, Health]] = frozenset(
    {
        (Health.HEALTHY, Health.DEGRADED),
        (Health.DEGRADED, Health.REPAIRING),
        (Health.REPAIRING, Health.DEGRADED),
        (Health.REPAIRING, Health.HEALTHY),
    }
)


#: For each (current, target) pair, the next legal hop on the shortest
#: path; the state machine is small enough to enumerate by hand.
_NEXT_HOP: dict[tuple[Health, Health], Health] = {
    (Health.HEALTHY, Health.DEGRADED): Health.DEGRADED,
    (Health.HEALTHY, Health.REPAIRING): Health.DEGRADED,
    (Health.DEGRADED, Health.HEALTHY): Health.REPAIRING,
    (Health.DEGRADED, Health.REPAIRING): Health.REPAIRING,
    (Health.REPAIRING, Health.HEALTHY): Health.HEALTHY,
    (Health.REPAIRING, Health.DEGRADED): Health.DEGRADED,
}


class HealthMonitor:
    """Tracks the health state and its full transition history."""

    def __init__(self) -> None:
        self._state = Health.HEALTHY
        #: Every committed transition, oldest first.
        self.history: list[tuple[Health, Health]] = []

    @property
    def state(self) -> Health:
        return self._state

    @property
    def healthy(self) -> bool:
        return self._state is Health.HEALTHY

    def to(self, new: Health) -> None:
        """Transition to ``new``; same-state is a no-op.

        Raises:
            InvariantError: The transition is not in the state machine
                (e.g. HEALTHY -> REPAIRING without an observed failure,
                or DEGRADED -> HEALTHY without a recovery).
        """
        old = self._state
        if new is old:
            return
        if (old, new) not in _ALLOWED:
            raise InvariantError(
                f"illegal health transition {old.name} -> {new.name}"
            )
        self._state = new
        self.history.append((old, new))

    def drive_to(self, target: Health) -> None:
        """Walk legal transitions until ``target`` is reached.

        Supervisors derive a *target* health from per-shard state (see
        :class:`~repro.sharding.supervision.FleetSupervisor`) without
        caring which state the monitor is currently in; this walks the
        connecting edges -- e.g. DEGRADED -> HEALTHY routes through
        REPAIRING -- so every hop stays auditable in ``history`` and
        illegal jumps remain impossible by construction.
        """
        while self._state is not target:
            self.to(_NEXT_HOP[(self._state, target)])
