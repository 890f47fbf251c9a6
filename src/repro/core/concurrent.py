"""Thread-safe DILI wrapper following the Appendix A.8 protocol.

The paper observes that DILI updates touch exactly one top-level leaf
subtree (internal nodes are immutable after bulk loading -- adjustments
rebuild a leaf's entry array in place), so B+Tree-style lock crabbing
degenerates to per-leaf locking.  This wrapper implements that: the
internal descent is lock-free, then the operation holds the lock of the
top leaf it reached.  Locks are striped so millions of leaves do not each
carry a lock object.

Lock-free descent admits one race: between reaching a leaf and
acquiring its stripe, a whole-tree rebuild (``bulk_load`` or a large
``bulk_insert``) can replace the leaf.  Acquisition therefore verifies:
after taking the stripe lock it re-descends and checks the reached leaf
still maps to the held stripe, retrying with exponential backoff (and
falling back to fully exclusive locking) when it does not.  Tree
rebuilds run under :meth:`exclusive`, which holds the global lock *and*
every stripe, so they can never overlap a verified per-leaf operation.

Batch reads are **lock-free**: writers maintain the compiled
:class:`~repro.core.flat.FlatPlan` as an immutable value and publish
each version through one attribute, so ``get_batch`` /
``contains_batch`` / ``count_range`` / ``count_range_batch`` load the
published plan once and descend it without taking a lock -- a long
batch read never blocks a writer and is never blocked by one.  The
reader's own reference keeps its version alive for the whole descent,
and a superseded version is freed as soon as its last reader drops it.
Each read answers from *some* published version (snapshot semantics):
a racing writer's mutation becomes visible when its version is
published, and a writer's own thread always sees its completed writes
because every mutator republishes before returning.  Only when no plan
is published (empty tree, or a mutation the copy-on-write tiers could
not absorb) does a batch read fall back to :meth:`exclusive` to
recompile and republish.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterable

import numpy as np

from repro.core.dili import DILI, DiliConfig, check_key
from repro.core.nodes import InternalNode, Pair

# Verified lock acquisition retries before escalating to exclusive mode.
_MAX_LOCK_RETRIES = 8
_BACKOFF_INITIAL_S = 1e-6
_BACKOFF_MAX_S = 1e-3


def _key_array(keys) -> np.ndarray:
    """A batch read's keys as a 1-D float64 array (or ValueError)."""
    arr = np.asarray(keys, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    return arr


class ConcurrentDILI:
    """A DILI safe for concurrent readers and writers.

    Point operations (get / insert / delete / update) serialize per
    top-level leaf via striped locks; operations on different leaves
    proceed in parallel.  Batch reads run lock-free against the
    published flat plan (see the module docstring).  Scans
    (``range_query`` / ``items``) cross leaf boundaries *through the
    live tree*, so they run under :meth:`exclusive` (global + every
    stripe) -- as do bulk loads and rebuilds -- which keeps every
    point writer out for the duration.

    Args:
        config: Forwarded to the underlying :class:`DILI`.
        stripes: Number of leaf locks; must be positive.
        index: Adopt an existing :class:`DILI` (e.g. one rebuilt by
            crash recovery) instead of creating a fresh empty one;
            ``config`` is ignored when given.
    """

    def __init__(
        self,
        config: DiliConfig | None = None,
        stripes: int = 256,
        *,
        index: DILI | None = None,
    ) -> None:
        if stripes <= 0:
            raise ValueError("stripes must be positive")
        self._index = index if index is not None else DILI(config)
        self._locks = [threading.RLock() for _ in range(stripes)]
        self._global = threading.RLock()
        self._stats_lock = threading.Lock()
        # Locking and publication telemetry, read through the
        # :attr:`lock_stats` property.
        self._stats = {
            "acquisitions": 0, "retries": 0, "escalations": 0,
            "plan_publishes": 0, "plan_reads": 0,
        }
        #: The published plan (None while none is servable): batch
        #: readers load it once, lock-free; every mutator republishes
        #: the maintained version (or None on invalidation) before
        #: returning.
        self._published = None
        # Adopting an index with a live maintained plan (e.g. crash
        # recovery warmed it) publishes it, so reads start lock-free.
        self._republish()

    @property
    def lock_stats(self) -> dict:
        """Locking + publication telemetry, one flat dict.

        ``acquisitions`` / ``retries`` / ``escalations`` count the
        verified stripe-lock protocol (see :meth:`locked`);
        ``plan_publishes`` counts the plan versions published and
        ``plan_reads`` the batch reads answered lock-free from one (a
        read that found no plan and compiled under :meth:`exclusive`
        is not counted).
        """
        with self._stats_lock:
            return dict(self._stats)

    # ------------------------------------------------------------------
    # Locking protocol
    # ------------------------------------------------------------------

    def _descend(self, key: float):
        """Lock-free walk to the top-level leaf owning ``key``."""
        node = self._index.root
        while type(node) is InternalNode:
            node = node.children[node.child_index(key)]
        return node

    @contextmanager
    def locked(self, key: float):
        """Hold the stripe lock of the top-level leaf owning ``key``.

        Verified acquisition: descend lock-free, take the stripe the
        reached leaf hashes to, then re-descend and confirm the leaf
        still maps to the held stripe.  A concurrent tree rebuild
        between descent and acquisition fails the check; we release,
        back off, and retry a bounded number of times before escalating
        to :meth:`exclusive` (which cannot race with anything).

        Reentrant: the stripe locks are RLocks, so a caller already
        holding the stripe (e.g. :class:`repro.durability.DurableDILI`
        logging then applying) can nest operations on the same key.

        Every outcome is counted in :attr:`lock_stats`, so the
        escalation path -- previously silent -- is observable.
        """
        delay = _BACKOFF_INITIAL_S
        retries = 0
        for _ in range(_MAX_LOCK_RETRIES):
            leaf = self._descend(key)
            if leaf is None:  # empty tree: no leaf to lock
                break
            lock = self._locks[id(leaf) % len(self._locks)]
            with lock:
                current = self._descend(key)
                if (
                    current is not None
                    and self._locks[id(current) % len(self._locks)] is lock
                ):
                    with self._stats_lock:
                        self._stats["acquisitions"] += 1
                        self._stats["retries"] += retries
                    yield
                    return
            retries += 1
            time.sleep(delay)
            delay = min(delay * 2.0, _BACKOFF_MAX_S)
        with self._stats_lock:
            self._stats["escalations"] += 1
            self._stats["retries"] += retries
        with self.exclusive():
            yield

    def instrument_locks(self, wrap, index_proxy=None) -> None:
        """Hook point for :class:`repro.check.locks.LockSanitizer`.

        Maps every stripe lock and the global lock through ``wrap(lock,
        name)`` (which must return a lock-compatible object) and, when
        ``index_proxy`` is given, replaces the wrapped index with
        ``index_proxy(index)``.  :meth:`locked`'s verified acquisition
        compares lock objects by identity against ``self._locks``, so
        wrappers installed here participate in the protocol unchanged.
        The sanitizer keeps the originals and restores them on detach.
        """
        self._locks = [
            wrap(lock, f"stripe[{i}]") for i, lock in enumerate(self._locks)
        ]
        self._global = wrap(self._global, "global")
        if index_proxy is not None:
            self._index = index_proxy(self._index)

    @contextmanager
    def exclusive(self):
        """Hold the global lock and every stripe (rebuilds, scans,
        snapshots).

        Point operations hold at most one stripe and never block on
        another lock while doing so, so acquiring the stripes in index
        order cannot deadlock against them.
        """
        with self._global:
            acquired = 0
            try:
                for lock in self._locks:
                    lock.acquire()
                    acquired += 1
                yield
            finally:
                for lock in reversed(self._locks[:acquired]):
                    lock.release()

    # ------------------------------------------------------------------
    # Published plan (lock-free batch reads)
    # ------------------------------------------------------------------

    def _republish(self) -> None:
        """Publish the index's maintained plan version (or None).

        Called by every mutator while it still holds its stripe or
        exclusive locks, so the calling thread's subsequent reads see
        its own writes.  Plans never change once built, so publishing
        one can never expose a half-patched plan.  ``DILI._plan_mutex``
        orders every change of the maintained plan, and publishing
        loads and stores it under the same mutex, so a publish can
        never put back a version older than the one it replaces.
        """
        with self._index._plan_mutex:
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

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def bulk_load(self, keys: np.ndarray, values: list | None = None) -> None:
        """Build the index; excludes every concurrent operation."""
        with self.exclusive():
            self._index.bulk_load(keys, values)
            self._republish()

    def get(self, key: float) -> object | None:
        """Point lookup under the owning leaf's lock."""
        if self._index.root is None:
            return None
        with self.locked(key):
            return self._index.get(key)

    def _read(self, from_plan, from_index):
        """Answer a batch read lock-free from the published plan.

        The plan is loaded once, and ``from_plan(plan)`` runs against
        it without taking a stripe or the global lock; that reference
        keeps the version alive however many writers publish past it.
        Only the ``plan_reads`` count takes the stats lock, after the
        answer.  When no plan is published, ``from_index(index)`` runs
        under :meth:`exclusive` instead, and the plan it compiles is
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

    def get_batch(self, keys: np.ndarray | list) -> list:
        """Vectorized multi-key lookup, lock-free.

        Descends the published plan without taking a stripe or the
        global lock; falls back to :meth:`exclusive` (compile +
        republish) only when no plan is published.  Answers come from
        *some* published version: a batch racing a writer sees the
        tree state of its snapshot, never a torn mix.
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

        Two binary searches over the published plan's sorted key
        array -- no pairs are materialized and no lock is taken.
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
        """Insert under the owning leaf's lock (A.8 insertion protocol).

        Like every mutator, republishes the maintained plan version
        before releasing the lock, so the new pair is visible to
        lock-free batch readers (and to this thread's next read).
        """
        key = check_key(key)
        with self.locked(key):
            out = self._index.insert(key, value)
            self._republish()
            return out

    def delete(self, key: float) -> bool:
        """Delete under the owning leaf's lock (A.8 deletion protocol)."""
        key = check_key(key)
        if self._index.root is None:
            return False
        with self.locked(key):
            out = self._index.delete(key)
            self._republish()
            return out

    def update(self, key: float, value: object) -> bool:
        """Replace an existing key's value under the owning leaf's lock."""
        key = check_key(key)
        if self._index.root is None:
            return False
        with self.locked(key):
            out = self._index.update(key, value)
            self._republish()
            return out

    def range_query(self, lo: float, hi: float) -> list[Pair]:
        """Ordered scan, exclusive of every writer.

        Scans cross leaf boundaries while point writers hold only one
        stripe, so the global lock alone would not keep a mid-scan leaf
        mutation out; :meth:`exclusive` (global + every stripe) does.
        """
        with self.exclusive():
            return self._index.range_query(lo, hi)

    def items(self) -> list[Pair]:
        """Every pair in key order, as a consistent snapshot list.

        Exclusive for the same reason as :meth:`range_query`: holding
        only the global lock would let a stripe-locked point writer
        mutate a leaf mid-scan.
        """
        with self.exclusive():
            return list(self._index.items())

    def insert_batch(
        self, keys: np.ndarray | list, values: list | None = None
    ) -> np.ndarray:
        """Vectorized multi-key insert, exclusive of every other writer.

        A batch crosses top-level leaf boundaries (its keys group onto
        many leaves), so like scans it takes the global lock plus every
        stripe rather than a single leaf's.
        """
        with self.exclusive():
            out = self._index.insert_batch(keys, values)
            self._republish()
            return out

    def delete_batch(self, keys: np.ndarray | list) -> np.ndarray:
        """Vectorized multi-key delete; exclusive like :meth:`insert_batch`."""
        with self.exclusive():
            out = self._index.delete_batch(keys)
            self._republish()
            return out

    def update_batch(
        self, keys: np.ndarray | list, values: list
    ) -> np.ndarray:
        """Vectorized multi-key update; exclusive like :meth:`insert_batch`."""
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
        """Batch insert; exclusive because it may rebuild the tree."""
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
