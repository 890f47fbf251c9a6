"""Thread-safe DILI wrapper: one writer lock, lock-free plan reads.

Appendix A.8 of the extended paper observes that DILI updates touch
exactly one top-level leaf subtree, so B+Tree-style lock crabbing
degenerates to per-leaf locking and writers on different leaves run in
parallel.  That parallelism exists for C++ writers; under CPython's
interpreter lock two Python writers never run at once, and one writer
lock measured at least as fast as hashed per-leaf locks (see
``docs/performance.md``).  This wrapper therefore substitutes one
reentrant writer lock for A.8's per-leaf locks (a recorded deviation,
see DESIGN.md): every point write, batch write, scan, bulk load and
plan compile holds it through :meth:`exclusive`.

Reads are **lock-free** while a plan is published: writers maintain the
compiled :class:`~repro.core.flat.FlatPlan` as an immutable value and
publish each version through one attribute, so ``get`` / ``in`` /
``get_batch`` / ``contains_batch`` / ``count_range`` /
``count_range_batch`` load the published plan once and descend it
without taking a lock -- a read never blocks a writer and is never
blocked by one.  The reader's own reference keeps its version alive for
the whole descent, and a superseded version is freed as soon as its
last reader drops it.  Each read answers from *some* published version
(snapshot semantics): a racing writer's mutation becomes visible when
its version is published, and a writer's own thread always sees its
completed writes because every mutator republishes before returning.
Only when no plan is published (empty tree, or a mutation the
maintenance tiers could not absorb) does a read take the writer lock:
a point read answers from the tree, a batch read recompiles and
republishes.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterable

import numpy as np

from repro.core.dili import DILI, DiliConfig, check_key
from repro.core.nodes import Pair


def _key_array(keys) -> np.ndarray:
    """A batch read's keys as a 1-D float64 array (or ValueError)."""
    arr = np.asarray(keys, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    return arr


class ConcurrentDILI:
    """A DILI safe for concurrent readers and writers.

    Writes (point and batch), scans (``range_query`` / ``items``),
    bulk loads and plan compiles serialize on one writer lock, held
    through :meth:`exclusive`.  Point and batch reads run lock-free
    against the published flat plan (see the module docstring).

    Args:
        config: Forwarded to the underlying :class:`DILI`.
        index: Adopt an existing :class:`DILI` (e.g. one rebuilt by
            crash recovery) instead of creating a fresh empty one;
            ``config`` is ignored when given.
    """

    def __init__(
        self,
        config: DiliConfig | None = None,
        *,
        index: DILI | None = None,
    ) -> None:
        self._index = index if index is not None else DILI(config)
        self._lock = threading.RLock()
        self._stats_lock = threading.Lock()
        # Publication telemetry, read through :attr:`lock_stats`.
        self._stats = {"plan_publishes": 0, "plan_reads": 0}
        #: The published plan (None while none is servable): readers
        #: load it once, lock-free; every mutator republishes the
        #: maintained version (or None on invalidation) before
        #: returning.
        self._published = None
        # Adopting an index with a live maintained plan (e.g. crash
        # recovery warmed it) publishes it, so reads start lock-free.
        self._republish()

    @property
    def lock_stats(self) -> dict:
        """Publication telemetry, one flat dict.

        ``plan_publishes`` counts the plan versions published and
        ``plan_reads`` the reads, point or batch, answered lock-free
        from one (a read that found no plan and ran under
        :meth:`exclusive` is not counted).
        """
        with self._stats_lock:
            return dict(self._stats)

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------

    @contextmanager
    def exclusive(self):
        """Hold the writer lock (writes, scans, bulk loads, compiles).

        Reentrant, so a caller already holding it (e.g.
        :class:`repro.durability.DurableDILI` logging then applying)
        can nest operations.
        """
        with self._lock:
            yield

    def instrument_locks(self, wrap, index_proxy=None) -> None:
        """Hook point for :class:`repro.check.locks.LockSanitizer`.

        Maps the writer lock through ``wrap(lock)`` (which must return
        a lock-compatible object) and, when ``index_proxy`` is
        given, replaces the wrapped index with ``index_proxy(index)``.
        The sanitizer keeps the originals and restores them on detach.
        """
        with self._lock:
            if index_proxy is not None:
                self._index = index_proxy(self._index)
            self._lock = wrap(self._lock)

    # ------------------------------------------------------------------
    # Published plan (lock-free reads)
    # ------------------------------------------------------------------

    def _republish(self) -> None:
        """Publish the index's maintained plan version (or None).

        Called by every mutator while it still holds the writer lock,
        which orders every change of the maintained plan, so the
        calling thread's subsequent reads see its own writes and a
        publish can never put back an older version.  Plans never
        change once built, so publishing one can never expose a
        half-patched plan.
        """
        plan = self._index.peek_plan()
        if plan is self._published:
            return
        self._published = plan
        if plan is not None:
            with self._stats_lock:
                self._stats["plan_publishes"] += 1

    @property
    def published_plan_version(self) -> int | None:
        """Version of the currently published plan (None if none)."""
        plan = self._published
        return None if plan is None else plan.version

    def _read(self, from_plan, from_index):
        """Answer a read lock-free from the published plan.

        The plan is loaded once, and ``from_plan(plan)`` runs against
        it without taking the writer lock; that reference keeps the
        version alive however many writers publish past it.  Only the
        ``plan_reads`` count takes the stats lock, after the answer.
        When no plan is published, ``from_index(index)`` runs under
        :meth:`exclusive` instead, and any plan it compiles is
        republished.
        """
        plan = self._published
        if plan is not None:
            out = from_plan(plan)
            with self._stats_lock:
                self._stats["plan_reads"] += 1
            return out
        with self.exclusive():
            out = from_index(self._index)
            self._republish()
            return out

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def bulk_load(self, keys: np.ndarray, values: list | None = None) -> None:
        """Build the index; excludes every concurrent operation."""
        with self.exclusive():
            self._index.bulk_load(keys, values)
            self._republish()

    def get(self, key: float) -> object | None:
        """Point lookup, lock-free from the published plan (from the
        tree under :meth:`exclusive` while none is published)."""
        return self._read(
            lambda plan: plan.get(key),
            lambda index: index.get(key),
        )

    def get_batch(self, keys: np.ndarray | list) -> list:
        """Vectorized multi-key lookup, lock-free.

        Descends the published plan without taking the writer lock;
        falls back to :meth:`exclusive` (compile + republish) only when
        no plan is published.  Answers come from *some* published
        version: a batch racing a writer sees the tree state of its
        snapshot, never a torn mix.
        """
        arr = _key_array(keys)
        return self._read(
            lambda plan: plan.get_batch(arr),
            lambda index: index.get_batch(arr),
        )

    def contains_batch(self, keys: np.ndarray | list) -> np.ndarray:
        """Vectorized membership test; lock-free like :meth:`get_batch`."""
        arr = _key_array(keys)
        return self._read(
            lambda plan: plan.contains_batch(arr),
            lambda index: index.contains_batch(arr),
        )

    def count_range(self, lo: float, hi: float) -> int:
        """Count keys in ``[lo, hi)``; lock-free like :meth:`get_batch`.

        Binary searches over the published plan's key view (a base
        and two small sides) -- no pairs are materialized and no lock
        is taken.
        """
        lo = float(lo)
        hi = float(hi)
        return self._read(
            lambda plan: plan.count_range(lo, hi),
            lambda index: index.count_range(lo, hi),
        )

    def count_range_batch(
        self, los: np.ndarray | list, his: np.ndarray | list
    ) -> np.ndarray:
        """Vectorized range counts; lock-free like :meth:`get_batch`.

        Both sides check the bounds' shapes themselves.
        """
        return self._read(
            lambda plan: plan.count_range_batch(los, his),
            lambda index: index.count_range_batch(los, his),
        )

    def insert(self, key: float, value: object) -> bool:
        """Insert under the writer lock.

        Like every mutator, republishes the maintained plan version
        before releasing the lock, so the new pair is visible to
        lock-free readers (and to this thread's next read).
        """
        key = check_key(key)
        with self.exclusive():
            out = self._index.insert(key, value)
            self._republish()
            return out

    def delete(self, key: float) -> bool:
        """Delete under the writer lock."""
        key = check_key(key)
        with self.exclusive():
            out = self._index.delete(key)
            self._republish()
            return out

    def update(self, key: float, value: object) -> bool:
        """Replace an existing key's value under the writer lock."""
        key = check_key(key)
        with self.exclusive():
            out = self._index.update(key, value)
            self._republish()
            return out

    def range_query(self, lo: float, hi: float) -> list[Pair]:
        """Ordered scan of the live tree, exclusive of every writer."""
        with self.exclusive():
            return self._index.range_query(lo, hi)

    def items(self) -> list[Pair]:
        """Every pair in key order, as a consistent snapshot list."""
        with self.exclusive():
            return list(self._index.items())

    def insert_batch(
        self, keys: np.ndarray | list, values: list | None = None
    ) -> np.ndarray:
        """Vectorized multi-key insert under the writer lock."""
        with self.exclusive():
            out = self._index.insert_batch(keys, values)
            self._republish()
            return out

    def delete_batch(self, keys: np.ndarray | list) -> np.ndarray:
        """Vectorized multi-key delete under the writer lock."""
        with self.exclusive():
            out = self._index.delete_batch(keys)
            self._republish()
            return out

    def update_batch(
        self, keys: np.ndarray | list, values: list
    ) -> np.ndarray:
        """Vectorized multi-key update under the writer lock."""
        with self.exclusive():
            out = self._index.update_batch(keys, values)
            self._republish()
            return out

    def insert_many(self, pairs: Iterable[Pair]) -> int:
        """Insert pairs one by one; returns how many were new."""
        return sum(1 for k, v in pairs if self.insert(k, v))

    def bulk_insert(
        self, keys: np.ndarray | list, values: list | None = None, **kwargs
    ) -> int:
        """Batch insert under the writer lock (it may rebuild the tree)."""
        with self.exclusive():
            out = self._index.bulk_insert(keys, values, **kwargs)
            self._republish()
            return out

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: float) -> bool:
        return self.get(key) is not None

    @property
    def index(self) -> DILI:
        """The wrapped single-threaded index (for stats/validation)."""
        return self._index
