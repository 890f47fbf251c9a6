"""Lock-discipline sanitizer for :class:`repro.core.concurrent.ConcurrentDILI`.

The wrapper's protocol has one rule: every call that reaches the
*inner* index -- a point or batch write, a scan, a bulk load, and a
read that finds no published plan (it answers from the tree or
compiles a plan, which is a write) -- holds the writer lock, through
:meth:`~repro.core.concurrent.ConcurrentDILI.exclusive`.  Lock-free
reads descend the published plan, an immutable value that the reader's
own reference keeps alive, never the inner index, so there is nothing
for the sanitizer to check on them.

:class:`LockSanitizer` attaches to a live ``ConcurrentDILI`` (via its
``instrument_locks`` hook) and checks that rule *as the workload runs*:
the writer lock is wrapped so each thread knows whether it holds it,
and the wrapped index reports any call made without it as **unlocked
access**.  One lock has no acquisition order to get wrong, so there is
no lock-order check.

Violations are recorded (not raised) so a whole workload can be
examined; call :meth:`LockSanitizer.assert_clean` at the end to turn
any finding into a :class:`~repro.check.errors.SanitizerViolation`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.check.errors import SanitizerViolation


@dataclass(frozen=True)
class LockViolation:
    """One observed breach of the locking protocol."""

    kind: str  # "unlocked-access"
    message: str
    thread: str

    def format(self) -> str:
        return f"[{self.kind}] {self.message} (thread {self.thread})"


class _InstrumentedLock:
    """RLock proxy that knows which threads hold it."""

    __slots__ = ("inner", "_counts")

    def __init__(self, inner) -> None:
        self.inner = inner
        self._counts: dict[int, int] = {}  # thread id -> recursion depth

    def held_by_me(self) -> bool:
        return self._counts.get(threading.get_ident(), 0) > 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self.inner.acquire(blocking, timeout)
        if got:
            tid = threading.get_ident()
            self._counts[tid] = self._counts.get(tid, 0) + 1
        return got

    def release(self) -> None:
        tid = threading.get_ident()
        depth = self._counts.get(tid, 0)
        if depth <= 1:
            self._counts.pop(tid, None)
        else:
            self._counts[tid] = depth - 1
        self.inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


# Every inner-index operation a ConcurrentDILI forwards: each one runs
# under the writer lock (docs/api.md's contract).
_GUARDED_OPS = frozenset(
    {
        "get", "insert", "delete", "update",
        "get_batch", "contains_batch", "count_range", "count_range_batch",
        "insert_batch", "delete_batch", "update_batch",
        "bulk_insert", "bulk_load", "range_query", "items", "scan",
        "iter_from",
    }
)


class _GuardedDILI:
    """Wraps the inner ``DILI`` to flag structure access without the
    writer lock."""

    def __init__(self, inner, san: "LockSanitizer") -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_san", san)

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if name not in _GUARDED_OPS:
            return attr
        san = self._san

        def guard(*args, __attr=attr, __name=name, **kwargs):
            san._check(__name)
            return __attr(*args, **kwargs)

        return guard


class LockSanitizer:
    """Attach to a ``ConcurrentDILI``; detach restores the original lock.

    Usage::

        cd = ConcurrentDILI()
        san = LockSanitizer(cd)
        ...run a threaded workload...
        san.assert_clean()   # raises SanitizerViolation on any finding
        san.detach()
    """

    def __init__(self, target) -> None:
        self._target = target
        self._orig_lock = target._lock
        self._orig_index = target._index
        self.violations: list[LockViolation] = []
        target.instrument_locks(
            _InstrumentedLock,
            index_proxy=lambda inner: _GuardedDILI(inner, self),
        )

    def detach(self) -> None:
        """Restore the original lock and index object."""
        self._target._lock = self._orig_lock
        self._target._index = self._orig_index

    def assert_clean(self) -> None:
        if self.violations:
            lines = "\n".join(v.format() for v in self.violations)
            raise SanitizerViolation(
                f"{len(self.violations)} lock-discipline violation(s):\n"
                f"{lines}"
            )

    def _check(self, op: str) -> None:
        """An inner-index call: report it unless this thread holds the
        writer lock.  ``list.append`` is atomic under the GIL, so the
        record needs no latch of its own."""
        if not self._target._lock.held_by_me():
            self.violations.append(
                LockViolation(
                    "unlocked-access",
                    f"{op}() reached the index without holding the "
                    f"writer lock",
                    threading.current_thread().name,
                )
            )
