"""Lock-discipline sanitizer for :class:`repro.core.concurrent.ConcurrentDILI`.

The A.8 protocol is easy to get subtly wrong: a point writer must hold
the stripe of the top-level leaf it mutates, scans and batch operations
must hold :meth:`~repro.core.concurrent.ConcurrentDILI.exclusive`
(global + every stripe), and any code path that acquires two locks must
acquire them in a globally consistent order or a deadlock is one
unlucky schedule away.

:class:`LockSanitizer` attaches to a live ``ConcurrentDILI`` (via its
``instrument_locks`` hook) and checks all three *as the workload runs*:

* every stripe and the global lock are wrapped so each thread's
  acquisition order feeds a shared lock-order graph; an acquisition
  that closes a cycle in that graph is reported as a **lock-order
  inversion** (the deadlock precondition, caught even when the run got
  lucky);
* the wrapped index intercepts structure access: point operations
  without the owning stripe are reported as **unlocked access**, scans
  and batch operations without every stripe as **non-exclusive scans**.

Batch reads of the published plan are *legal without any lock*: the
lock-free read path descends the published plan, an immutable value
that the reader's own reference keeps alive, never the inner index, so
there is nothing for the sanitizer to check on it.  Batch calls that
reach the *inner* index (the recompile fallback) still require
``exclusive()``: they may compile and install a new plan, which is a
write.

Violations are recorded (not raised) so a whole workload can be
examined; call :meth:`LockSanitizer.assert_clean` at the end to turn
any finding into a :class:`~repro.check.errors.SanitizerViolation`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.check.errors import SanitizerViolation
from repro.core.nodes import InternalNode


@dataclass(frozen=True)
class LockViolation:
    """One observed breach of the locking protocol."""

    # "order-inversion" | "unlocked-access" | "non-exclusive-scan"
    kind: str
    message: str
    thread: str

    def format(self) -> str:
        return f"[{self.kind}] {self.message} (thread {self.thread})"


class _InstrumentedLock:
    """RLock proxy that reports acquisitions to the sanitizer."""

    __slots__ = ("inner", "name", "_san", "_counts")

    def __init__(self, inner, name: str, san: "LockSanitizer") -> None:
        self.inner = inner
        self.name = name
        self._san = san
        self._counts: dict[int, int] = {}  # thread id -> recursion depth

    def held_by_me(self) -> bool:
        return self._counts.get(threading.get_ident(), 0) > 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self.inner.acquire(blocking, timeout)
        if got:
            tid = threading.get_ident()
            depth = self._counts.get(tid, 0)
            if depth == 0:
                self._san._note_acquire(self)
            self._counts[tid] = depth + 1
        return got

    def release(self) -> None:
        tid = threading.get_ident()
        depth = self._counts.get(tid, 0)
        if depth <= 1:
            self._counts.pop(tid, None)
            if depth == 1:
                self._san._note_release(self)
        else:
            self._counts[tid] = depth - 1
        self.inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


# Operations that cross top-level leaf boundaries (or rebuild the tree)
# and therefore require exclusive() -- mirrors docs/api.md's contract.
_EXCLUSIVE_OPS = frozenset(
    {
        "get_batch", "contains_batch", "count_range", "count_range_batch",
        "insert_batch", "delete_batch", "update_batch",
        "bulk_insert", "bulk_load", "range_query", "items", "scan",
        "iter_from",
    }
)
# Point operations that must hold the owning leaf's stripe.
_POINT_WRITES = frozenset({"insert", "delete", "update"})
_POINT_READS = frozenset({"get"})


class _GuardedDILI:
    """Wraps the inner ``DILI`` to flag structure access without locks."""

    def __init__(self, inner, san: "LockSanitizer") -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_san", san)

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        san = self._san
        if name in _EXCLUSIVE_OPS:
            def exclusive_guard(*args, __attr=attr, __name=name, **kwargs):
                san._check_exclusive(__name)
                return __attr(*args, **kwargs)

            return exclusive_guard
        if name in _POINT_WRITES or name in _POINT_READS:
            def point_guard(key, *args, __attr=attr, __name=name, **kwargs):
                san._check_point(__name, key)
                return __attr(key, *args, **kwargs)

            return point_guard
        return attr


class LockSanitizer:
    """Attach to a ``ConcurrentDILI``; detach restores the original locks.

    Usage::

        cd = ConcurrentDILI(stripes=32)
        san = LockSanitizer(cd)
        ...run a threaded workload...
        san.assert_clean()   # raises SanitizerViolation on any finding
        san.detach()
    """

    def __init__(self, target) -> None:
        self._target = target
        self._orig_locks = list(target._locks)
        self._orig_global = target._global
        self._orig_index = target._index
        self._mutex = threading.Lock()
        self._edges: dict[str, set[str]] = {}  # name -> names locked after
        self._held = threading.local()
        self.violations: list[LockViolation] = []
        target.instrument_locks(
            lambda lock, name: _InstrumentedLock(lock, name, self),
            index_proxy=lambda inner: _GuardedDILI(inner, self),
        )

    # -- lifecycle -----------------------------------------------------

    def detach(self) -> None:
        """Restore the original locks and index object."""
        self._target._locks = self._orig_locks
        self._target._global = self._orig_global
        self._target._index = self._orig_index

    def assert_clean(self) -> None:
        if self.violations:
            lines = "\n".join(v.format() for v in self.violations)
            raise SanitizerViolation(
                f"{len(self.violations)} lock-discipline violation(s):\n"
                f"{lines}"
            )

    # -- bookkeeping from the instrumented locks ------------------------

    def _held_list(self) -> list:
        held = getattr(self._held, "locks", None)
        if held is None:
            held = []
            self._held.locks = held
        return held

    def _note_acquire(self, lock: _InstrumentedLock) -> None:
        held = self._held_list()
        with self._mutex:
            for prior in held:
                if prior.name == lock.name:
                    continue
                if self._reaches(lock.name, prior.name):
                    self._record(
                        "order-inversion",
                        f"acquired {lock.name} while holding {prior.name}, "
                        f"but another path acquires them in the opposite "
                        f"order",
                    )
                else:
                    self._edges.setdefault(prior.name, set()).add(lock.name)
        held.append(lock)

    def _note_release(self, lock: _InstrumentedLock) -> None:
        held = self._held_list()
        for i in range(len(held) - 1, -1, -1):
            if held[i] is lock:
                del held[i]
                break

    def _reaches(self, src: str, dst: str) -> bool:
        """Is there a path src -> dst in the acquired-after graph?"""
        stack = [src]
        seen = set()
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._edges.get(node, ()))
        return False

    def _record(self, kind: str, message: str) -> None:
        # May run while _mutex is held (from _note_acquire); list.append
        # is atomic under the GIL, so no extra latch is needed.
        self.violations.append(
            LockViolation(kind, message, threading.current_thread().name)
        )

    # -- structure-access checks (from _GuardedDILI) --------------------

    def _stripe_count_held(self) -> int:
        return sum(1 for lock in self._target._locks if lock.held_by_me())

    def _holds_all_stripes(self) -> bool:
        return all(lock.held_by_me() for lock in self._target._locks)

    def _holds_stripe_for(self, key: float) -> bool:
        node = self._orig_index.root
        while type(node) is InternalNode:
            node = node.children[node.child_index(key)]
        if node is None:  # empty tree: only exclusive() is safe
            return False
        locks = self._target._locks
        lock = locks[id(node) % len(locks)]
        return lock.held_by_me()

    def _check_exclusive(self, op: str) -> None:
        if not self._holds_all_stripes():
            held = self._stripe_count_held()
            self._record(
                "non-exclusive-scan",
                f"{op}() crosses leaf boundaries but ran with {held} of "
                f"{len(self._target._locks)} stripes held; it requires "
                f"exclusive()",
            )

    def _check_point(self, op: str, key) -> None:
        if self._holds_all_stripes():
            return
        if not self._holds_stripe_for(key):
            self._record(
                "unlocked-access",
                f"{op}({key!r}) touched the tree without holding the "
                f"owning leaf's stripe",
            )
