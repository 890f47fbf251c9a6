"""RCU-style epoch publication for compiled read plans.

:class:`repro.core.concurrent.ConcurrentDILI` used to run every batch
read under ``exclusive()`` -- the global lock plus all 256 stripes -- so
the vectorized descent of :class:`repro.core.flat.FlatPlan` was
throttled to one reader at a time.  This module supplies the classic
read-copy-update alternative (BLI in PAPERS.md is the learned-index
exemplar): a compiled plan is an immutable value, and the current one
is the *published version* that readers grab with a single attribute
load, while writers build successor plans off to the side (the
copy-on-write ``applied_*`` tiers in :mod:`repro.core.flat`) and swap
them in atomically.

Protocol
--------
* **Publish.** :meth:`PlanPublisher.publish` checks the version is
  newer than the current one (concurrent writers may race to publish;
  the monotonic version counter makes the last tree state win
  regardless of arrival order), and installs the plan with one
  reference store -- atomic under CPython, and the only write readers
  ever see.
* **Read.** :meth:`PlanPublisher.pinned` pins the current epoch in a
  sharded counter *before* loading the plan, yields the snapshot, and
  unpins on exit.  No lock is taken and no writer is blocked; the
  descent runs against buffers that are guaranteed not to mutate.
* **Retire.** Replacing (or dropping) the published plan moves the old
  version onto a limbo list tagged with the current epoch, then
  advances the epoch.  A retired plan is *reclaimed* -- its reference
  dropped so the SoA buffers can be freed -- only once every pin that
  could still observe it has drained (``min active pinned epoch >
  tag``).

CPython already guarantees memory safety here (a reader's reference
keeps the buffers alive), so the epoch machinery is the *discipline*
layer: it makes use-after-retire a detectable event (the lock
sanitizer's ``unpinned-plan-read``), bounds how long superseded buffers
stay resident, and gives ``lock_stats`` honest ``plan_publishes`` /
``plans_retired`` / ``epoch_pins`` telemetry.  The same structure maps
directly onto a free-threaded or multi-process port where reclamation
is load-bearing.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["EpochManager", "PlanPublisher", "next_plan_version"]

_VERSION_LOCK = threading.Lock()
_NEXT_VERSION = 1


def next_plan_version() -> int:
    """Globally monotonic plan version (thread-safe).

    Process-wide rather than per-index so a plan version never repeats:
    publication uses ``version`` to order racing publishes, and a
    counter that restarted per compile could move backwards across an
    invalidate -> recompile cycle.
    """
    global _NEXT_VERSION
    with _VERSION_LOCK:
        version = _NEXT_VERSION
        _NEXT_VERSION += 1
    return version


class _Shard:
    """One stripe of the sharded pin table (own lock, own counters)."""

    __slots__ = ("lock", "epochs", "threads")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: pinned epoch -> number of active pins that entered at it
        self.epochs: dict[int, int] = {}
        #: thread ident -> nesting depth of its active pins
        self.threads: dict[int, int] = {}


class EpochManager:
    """Sharded epoch counter with a limbo list for retired objects.

    Readers :meth:`pin` the current epoch for the duration of a
    snapshot read; writers :meth:`retire` superseded objects, which
    tags them with the pre-advance epoch and reclaims every limbo entry
    no still-active pin could observe.  Pins shard by thread ident so
    concurrent readers touch different locks.
    """

    def __init__(self, shards: int = 16) -> None:
        if shards <= 0:
            raise ValueError("shards must be positive")
        self._shards = [_Shard() for _ in range(shards)]
        self._epoch_lock = threading.Lock()
        self._epoch = 0
        #: retired-but-not-reclaimed (epoch tag, object) entries
        self._limbo: list[tuple[int, object]] = []
        self._pins = 0
        self._retired = 0
        self._reclaimed = 0

    @property
    def epoch(self) -> int:
        return self._epoch

    @contextmanager
    def pin(self):
        """Pin the current epoch for the duration of the ``with`` body.

        The pinned epoch is recorded *before* the caller loads whatever
        snapshot it reads, so any object retired afterwards carries a
        tag greater than or equal to this pin and cannot be reclaimed
        until the pin drops.  Reentrant, and yields the pinned epoch.
        """
        tid = threading.get_ident()
        shard = self._shards[tid % len(self._shards)]
        with shard.lock:
            epoch = self._epoch
            shard.epochs[epoch] = shard.epochs.get(epoch, 0) + 1
            shard.threads[tid] = shard.threads.get(tid, 0) + 1
            self._pins += 1
        try:
            yield epoch
        finally:
            with shard.lock:
                left = shard.epochs[epoch] - 1
                if left:
                    shard.epochs[epoch] = left
                else:
                    del shard.epochs[epoch]
                depth = shard.threads[tid] - 1
                if depth:
                    shard.threads[tid] = depth
                else:
                    del shard.threads[tid]

    def current_thread_pinned(self) -> bool:
        """Whether the calling thread holds at least one active pin."""
        tid = threading.get_ident()
        shard = self._shards[tid % len(self._shards)]
        with shard.lock:
            return tid in shard.threads

    def min_active(self) -> int | None:
        """Oldest epoch any active pin entered at (None when idle)."""
        lo: int | None = None
        for shard in self._shards:
            with shard.lock:
                for epoch in shard.epochs:
                    if lo is None or epoch < lo:
                        lo = epoch
        return lo

    def retire(self, obj: object) -> None:
        """Move ``obj`` to limbo and advance the epoch, then reclaim.

        The entry is tagged with the *pre-advance* epoch: every reader
        that could have loaded ``obj`` pinned at or before that tag
        (publication swaps the reference before retiring the old one),
        so the entry survives exactly until those pins drain.
        """
        with self._epoch_lock:
            self._limbo.append((self._epoch, obj))
            self._epoch += 1
            self._retired += 1
            self._reclaim_locked()

    def reclaim(self) -> int:
        """Drop every limbo entry no active pin could observe.

        Called automatically by :meth:`retire`; exposed so quiescent
        periods (e.g. after a burst of readers exits) can drain limbo
        without waiting for the next publication.  Returns how many
        entries were reclaimed.
        """
        with self._epoch_lock:
            return self._reclaim_locked()

    def _reclaim_locked(self) -> int:
        floor = self.min_active()
        if floor is None:
            floor = self._epoch
        keep = [entry for entry in self._limbo if entry[0] >= floor]
        dropped = len(self._limbo) - len(keep)
        if dropped:
            self._limbo = keep
            self._reclaimed += dropped
        return dropped

    def drained(self) -> bool:
        """True when no retired object is still awaiting reclamation."""
        with self._epoch_lock:
            return not self._limbo

    def stats(self) -> dict:
        with self._epoch_lock:
            return {
                "epoch_pins": self._pins,
                "plans_retired": self._retired,
                "plans_reclaimed": self._reclaimed,
                "plans_limbo": len(self._limbo),
            }


class PlanPublisher:
    """The single published-plan slot of one concurrent index.

    Holds at most one :class:`~repro.core.flat.FlatPlan` (or
    ``None`` while no plan is servable -- empty tree, or a mutation the
    copy-on-write tiers could not absorb).  Readers snapshot it through
    :meth:`pinned`; writers race through :meth:`publish`, where the
    monotonic plan version decides the winner.
    """

    def __init__(self, epochs: EpochManager | None = None) -> None:
        self._epochs = epochs if epochs is not None else EpochManager()
        self._swap_lock = threading.Lock()
        self._current = None
        self._publishes = 0

    @property
    def epochs(self) -> EpochManager:
        return self._epochs

    def load(self):
        """The currently published plan (None when unpublished).

        One attribute read -- atomic under CPython -- and no lock; the
        caller must hold an epoch pin (:meth:`pinned`) while using the
        returned plan, or the retire bookkeeping cannot see it.
        """
        return self._current

    @contextmanager
    def pinned(self):
        """Pin an epoch and yield the published plan snapshot.

        Pin *then* load: anything retired after this pin was installed
        carries an epoch tag at or above ours, so the yielded plan --
        even if superseded mid-read -- stays in limbo until we exit.
        """
        with self._epochs.pin():
            yield self._current

    def current_thread_pinned(self) -> bool:
        return self._epochs.current_thread_pinned()

    def publish(self, plan) -> bool:
        """Install ``plan`` and retire the one it replaces.

        Returns False without publishing when ``plan`` is already
        current or is older than (or the same version as) the current
        one -- racing writers may each try to publish their own view of
        the maintained plan, and versions are assigned under
        ``DILI._plan_mutex`` in tree-mutation order, so rejecting stale
        versions keeps the slot converging on the latest tree state.
        """
        with self._swap_lock:
            old = self._current
            if old is plan:
                return False
            if old is not None and plan.version <= old.version:
                return False
            self._current = plan
            self._publishes += 1
            if old is not None:
                self._epochs.retire(old)
            return True

    def unpublish(self) -> bool:
        """Drop the published plan (tree emptied or plan invalidated)."""
        with self._swap_lock:
            old = self._current
            if old is None:
                return False
            self._current = None
            self._epochs.retire(old)
            return True

    def stats(self) -> dict:
        out = self._epochs.stats()
        out["plan_publishes"] = self._publishes
        return out
