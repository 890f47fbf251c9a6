"""Plan publishing, quarantine, and the serving fallback ladder.

:class:`PlanDirectory` owns the ``plans/`` subdirectory of a durable
state directory: generation-numbered base files (``plan-00000001.plan``)
with sequence-numbered delta chains (``plan-00000001.0001.delta``),
published atomically and *quarantined* -- renamed aside, never deleted
-- when they fail verification, so every corrupt artifact stays
available for forensics.

One chain rule: :meth:`PlanDirectory.walk` reads a generation's base
header and deltas once and stops at the first delta that is missing,
unreadable, written for another generation, or behind the chain's LSN.
A reader replays exactly the walked deltas; the publisher extends a
chain only when the walk covered every delta number on disk and is not
*stale* (its LSN predates the snapshot's ``last_seqno``, whose WAL
truncation took records it would need), else it publishes a new base;
the auditor reports each stop and staleness as a finding.

:class:`MmapDILI` is the read-only serving handle.  Opening one walks a
fallback ladder until something serves:

1. newest plan generation: header-verified base + its walked delta
   chain + the live WAL tail replayed into the overlay (a delta the
   walk stopped on is quarantined; a gap has no file to move aside);
2. on any checksum / version / staleness failure: quarantine the bad
   file and try the previous generation the same way;
3. no generation survives: rebuild in memory from snapshot + WAL via
   the existing recovery path;
4. even recovery fails: transition :class:`HealthMonitor` to DEGRADED
   and raise :class:`ServingUnavailable` on every read.

Buffer contents are CRC-verified lazily (first read), so a flipped
byte that slips past the O(1) open is still caught before an answer is
served: the read quarantines the file, re-descends the ladder, and
retries -- the zero-wrong-reads contract the chaos harness asserts.

A writer keeps one handle open across its writes with
:meth:`MmapDILI.refresh`, which replays only the new WAL records into
the open overlay, so a store's CRCs are checked once per open, not
once per write.
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass
from typing import NamedTuple

from repro.durability.faultpoints import FaultInjector
from repro.durability.recovery import SNAPSHOT_NAME, WAL_NAME, recover
from repro.durability.snapshot import fsync_dir, read_snapshot_header
from repro.durability.wal import WalScan, scan_wal
from repro.planstore.format import (
    PlanFormatError,
    PlanStaleError,
    PlanStoreError,
    read_delta_file,
    read_plan_header,
    write_delta_file,
    write_plan_file,
)
from repro.planstore.store import PlanStore
from repro.resilience.health import Health, HealthMonitor
from repro.simulate.tracer import NULL_TRACER, Tracer

PLANS_SUBDIR = "plans"
QUARANTINE_SUFFIX = ".quarantined"

_BASE_RE = re.compile(r"^plan-(\d{8})\.plan$")
_DELTA_RE = re.compile(r"^plan-(\d{8})\.(\d{4})\.delta$")
# Any base or delta name, also with a quarantine (or other) suffix.
_USED_RE = re.compile(r"^plan-(\d{8})\.(?:(\d{4})\.delta)?")


#: Why a chain walk stopped before the generation's last delta file.
#: The strings are also :class:`~repro.check.plan_audit.PlanAuditor`'s
#: finding kinds.
STOP_GAP = "delta-chain-gap"
STOP_CORRUPT = "delta-corrupt"
STOP_FOREIGN = "delta-orphan"
STOP_LSN_REGRESS = "delta-lsn-regress"


def _snapshot_seqno(state_dir: str) -> int:
    """The snapshot's ``last_seqno`` -- an O(1) header read; 0 when the
    snapshot is absent or unreadable (a damaged one is rung 3's and the
    WAL auditor's to report)."""
    try:
        _, seqno, _, _ = read_snapshot_header(
            os.path.join(state_dir, SNAPSHOT_NAME)
        )
    except (OSError, ValueError):
        return 0
    return seqno


class ServingUnavailable(RuntimeError):
    """Every rung of the fallback ladder failed; reads cannot be served."""


class ChainStop(NamedTuple):
    """A ``STOP_*`` kind, the delta file the walk stopped on, and why."""

    kind: str
    path: str
    detail: str


@dataclass(frozen=True)
class ChainWalk:
    """One generation's base and delta chain, read and judged once.

    ``deltas`` are the verified delta dicts a reader replays, in order;
    ``lsn`` is the base ``wal_lsn`` advanced by them; ``listed`` counts
    the generation's live delta files, walked or not; ``complete`` says
    the walk covered every delta number a file of the generation names
    (quarantined, lost and temp files too); ``snapshot_seqno`` is the
    snapshot's ``last_seqno`` (0 when absent or unreadable).
    """

    generation: int
    header: dict
    deltas: list
    lsn: int
    snapshot_seqno: int
    listed: int
    complete: bool
    stop: ChainStop | None

    @property
    def stale(self) -> bool:
        """The chain predates the snapshot: the WAL truncation took
        records it would need to become current."""
        return self.lsn < self.snapshot_seqno


class PlanDirectory:
    """Generation-numbered plan files under a state directory's
    ``plans/`` subdirectory.

    Base files are ``plan-<gen:08d>.plan``; deltas extend a base as
    ``plan-<gen:08d>.<seq:04d>.delta`` with ``seq`` starting at 1.
    Nothing here is ever deleted: failed verification renames the file
    aside with a ``.quarantined`` suffix.  Numbers are never reused
    either: a new base is numbered past every generation a file on disk
    names, quarantined ones included, and a delta is only ever appended
    to a chain whose :meth:`walk` is complete, so a reader never
    mistakes an old artifact for part of a new chain.
    """

    def __init__(self, dirpath) -> None:
        self.dirpath = os.fspath(dirpath)

    @classmethod
    def for_state_dir(cls, state_dir) -> "PlanDirectory":
        return cls(os.path.join(os.fspath(state_dir), PLANS_SUBDIR))

    # -- naming --------------------------------------------------------

    def base_path(self, generation: int) -> str:
        return os.path.join(self.dirpath, f"plan-{generation:08d}.plan")

    def delta_path(self, generation: int, seq: int) -> str:
        return os.path.join(
            self.dirpath, f"plan-{generation:08d}.{seq:04d}.delta"
        )

    def _names(self) -> list[str]:
        """File names in the directory (none before the first publish)."""
        return os.listdir(self.dirpath) if os.path.isdir(self.dirpath) else []

    def generations(self) -> list[int]:
        """Generation numbers with a (non-quarantined) base file, sorted."""
        return sorted(
            int(m.group(1)) for m in map(_BASE_RE.match, self._names()) if m
        )

    def delta_seqs(self, generation: int) -> list[tuple[int, str]]:
        """``(seq, path)`` for the generation's delta files, seq-sorted."""
        return sorted(
            (int(m.group(2)), os.path.join(self.dirpath, m.group(0)))
            for m in map(_DELTA_RE.match, self._names())
            if m and int(m.group(1)) == generation
        )

    def _used_numbers(self) -> list[tuple[int, int]]:
        """``(generation, seq)`` named by every file in the directory,
        quarantined ones included (``seq`` is 0 for a base)."""
        return [
            (int(m.group(1)), int(m.group(2) or 0))
            for m in map(_USED_RE.match, self._names())
            if m
        ]

    def quarantined(self) -> list[str]:
        """Every quarantined artifact in the directory, sorted."""
        return sorted(
            os.path.join(self.dirpath, name)
            for name in self._names()
            if QUARANTINE_SUFFIX in name
        )

    # -- publishing ----------------------------------------------------

    def publish_base(
        self,
        plan,
        *,
        wal_lsn: int,
        faults: FaultInjector | None = None,
    ) -> int:
        """Write ``plan`` as a new base generation; returns its number.

        The number is one past the highest generation any file here
        names: reusing a quarantined base's number would make the new
        base adopt that base's deltas.
        """
        os.makedirs(self.dirpath, exist_ok=True)
        generation = 1 + max(
            (gen for gen, _ in self._used_numbers()), default=0
        )
        write_plan_file(
            self.base_path(generation),
            plan,
            wal_lsn=wal_lsn,
            generation=generation,
            faults=faults,
        )
        return generation

    def publish_delta(
        self,
        generation: int,
        ops,
        *,
        seq: int,
        wal_lsn: int,
        faults: FaultInjector | None = None,
    ) -> str:
        """Append one delta to ``generation``'s chain; returns its path."""
        path = self.delta_path(generation, seq)
        if os.path.exists(path):
            raise PlanFormatError(f"{path}: delta seq {seq} already exists")
        write_delta_file(
            path,
            ops,
            base_generation=generation,
            seq=seq,
            wal_lsn=wal_lsn,
            faults=faults,
        )
        return path

    def walk(self, generation: int) -> ChainWalk:
        """Read ``generation``'s base header and delta chain once.

        Deltas are taken in sequence order from 1 while each one
        verifies, names this generation and does not move the LSN
        backwards; the first that does not ends the walk.  Staleness is
        judged against the snapshot of the state directory this
        ``plans/`` belongs to.

        Raises:
            PlanStoreError: The base header fails verification.
        """
        header = read_plan_header(self.base_path(generation))
        lsn = int(header["wal_lsn"])
        files = self.delta_seqs(generation)
        deltas: list[dict] = []
        stop = None
        for seq, path in files:
            name = os.path.basename(path)
            if seq != len(deltas) + 1:
                stop = ChainStop(
                    STOP_GAP, path,
                    f"generation {generation}: expected delta seq "
                    f"{len(deltas) + 1}, found {name}",
                )
                break
            try:
                delta = read_delta_file(path)
            except PlanStoreError as exc:
                stop = ChainStop(STOP_CORRUPT, path, str(exc))
                break
            if delta["base_generation"] != generation:
                stop = ChainStop(
                    STOP_FOREIGN, path,
                    f"{name} targets generation "
                    f"{delta['base_generation']}, not {generation}",
                )
                break
            if delta["wal_lsn"] < lsn:
                stop = ChainStop(
                    STOP_LSN_REGRESS, path,
                    f"{name} carries LSN {delta['wal_lsn']} behind "
                    f"the chain's {lsn}",
                )
                break
            lsn = int(delta["wal_lsn"])
            deltas.append(delta)
        named = max(
            (seq for gen, seq in self._used_numbers() if gen == generation),
            default=0,
        )
        return ChainWalk(
            generation=generation,
            header=header,
            deltas=deltas,
            lsn=lsn,
            snapshot_seqno=_snapshot_seqno(os.path.dirname(self.dirpath)),
            listed=len(files),
            complete=stop is None and named == len(deltas),
            stop=stop,
        )

    # -- quarantine ----------------------------------------------------

    def quarantine(self, path) -> str:
        """Rename a failed artifact aside (never delete); returns new path.

        A vanished file (the torn-rename race) is a no-op returning the
        original path.
        """
        path = os.fspath(path)
        target = path + QUARANTINE_SUFFIX
        n = 0
        while os.path.exists(target):
            n += 1
            target = f"{path}{QUARANTINE_SUFFIX}.{n}"
        try:
            os.replace(path, target)
        except FileNotFoundError:
            return path
        fsync_dir(os.path.dirname(path))
        return target


class MmapDILI:
    """Read-only serving handle over a durable state directory.

    Descends the fallback ladder at construction and re-descends
    whenever a lazily verified read fails, so a successfully
    constructed handle keeps serving correct answers (or raises
    :class:`ServingUnavailable`) no matter which file rots underneath
    it.  :meth:`refresh` brings an open handle up to the directory's
    latest logged write.

    Attributes:
        rung: Ladder rung currently serving (1 newest plan, 2 older
            generation, 3 recovery rebuild, 4 degraded).
        generation: Served plan generation (None on rungs 3-4).
        health: The :class:`HealthMonitor` (DEGRADED on rung 4).
        events: Human-readable log of every fallback decision.
        quarantined: Paths this handle moved aside, in order.
    """

    def __init__(self, dirpath) -> None:
        self.dirpath = os.fspath(dirpath)
        self.plans = PlanDirectory.for_state_dir(self.dirpath)
        self.health = HealthMonitor()
        self.events: list[str] = []
        self.quarantined: list[str] = []
        self.rung = 0
        self.generation: int | None = None
        self._max_gen_seen = 0
        self._store: PlanStore | None = None
        self._fallback = None
        self._lock = threading.Lock()
        with self._lock:
            self._descend()

    # ------------------------------------------------------------------
    # The ladder
    # ------------------------------------------------------------------

    def _descend(self) -> None:
        """Walk the ladder until a rung serves.  Caller holds the lock."""
        self._store = None
        self._fallback = None
        self.generation = None
        scan = scan_wal(os.path.join(self.dirpath, WAL_NAME))
        candidates = list(reversed(self.plans.generations()))
        # Rung 1 means the newest base this handle has *ever* seen --
        # falling back past a generation quarantined mid-read is rung 2
        # even though the re-descend no longer lists the damaged file.
        if candidates:
            self._max_gen_seen = max(self._max_gen_seen, candidates[0])
        for gen in candidates:
            store = self._try_generation(gen, scan)
            if store is not None:
                self._store = store
                self.generation = gen
                self.rung = 1 if gen == self._max_gen_seen else 2
                self.events.append(
                    f"serving generation {gen} at LSN {store.wal_lsn} "
                    f"(rung {self.rung})"
                )
                return
        try:
            result = recover(self.dirpath)
        except Exception as exc:
            self.events.append(f"recovery rebuild failed: {exc}")
            self.rung = 4
            self.health.to(Health.DEGRADED)
            self.events.append("no rung can serve: DEGRADED")
            return
        self._fallback = result.index
        self.rung = 3
        self.events.append(
            f"serving recovery rebuild at seqno {result.next_seqno - 1} "
            f"(rung 3)"
        )

    def _quarantine(self, path: str, reason: str) -> None:
        self.events.append(f"quarantining {os.path.basename(path)}: {reason}")
        moved = self.plans.quarantine(path)
        if moved != path:
            self.quarantined.append(moved)

    def _try_generation(self, gen: int, scan: WalScan) -> PlanStore | None:
        base = self.plans.base_path(gen)
        try:
            walk = self.plans.walk(gen)
            store = PlanStore.open(base)
        except PlanStoreError as exc:
            self._quarantine(base, str(exc))
            return None
        if walk.stop is not None:
            # The chain simply ends early; tail replay (or the staleness
            # rule) takes over.  A gap has no bad file to move aside.
            if walk.stop.kind == STOP_GAP:
                self.events.append(walk.stop.detail)
            else:
                self._quarantine(walk.stop.path, walk.stop.detail)
        try:
            if walk.stale:
                raise PlanStaleError(
                    f"{base}: plan LSN {walk.lsn} predates snapshot "
                    f"seqno {walk.snapshot_seqno}; the gap was truncated "
                    f"away"
                )
            ops = [op for delta in walk.deltas for op in delta["ops"]]
            ops += [
                (r.opcode, r.payload)
                for r in scan.records
                if r.seqno > walk.lsn
            ]
            if ops:
                store.apply_ops(ops, wal_lsn=max(walk.lsn, scan.last_seqno))
        except PlanStoreError as exc:
            # Includes lazy buffer verification tripped by overlay
            # replay and the staleness rule above.
            store.close()
            self._quarantine(base, str(exc))
            return None
        return store

    # ------------------------------------------------------------------
    # Keeping an open handle current
    # ------------------------------------------------------------------

    def refresh(self) -> None:
        """Bring the handle up to the state directory's latest write.

        A writer calls this after each logged write or publish instead
        of opening a new handle.  It replays the WAL records past the
        served store's LSN into the open overlay with one
        :meth:`PlanStore.apply_ops` call and keeps the store's
        verified-CRC memo.  It re-descends the ladder instead, as a
        fresh open would, when replaying would be wrong:

        * the served generation is no longer the newest base in
          ``plans/`` (a republish, or the served base is gone);
        * the handle is on rung 3 or 4;
        * the snapshot's ``last_seqno`` is past the store's LSN, or the
          WAL's first record leaves a gap after it -- a checkpoint
          truncated records the store never replayed;
        * the replay raises :class:`PlanStoreError` (the base is
          quarantined first, as a failed read does).

        A re-descend ends with an eager :meth:`verify`, so the new
        store's CRC check is paid by the writer that refreshed, not by
        the next read.
        """
        with self._lock:
            current = self._replay_wal_tail()
            if not current:
                self._descend()
        if not current:
            self.verify()

    def _replay_wal_tail(self) -> bool:
        """Replay the WAL past the served store's LSN; False when only
        a re-descend can bring the handle current.  Caller holds the
        lock."""
        store = self._store
        if store is None:
            return False  # rung 3 or 4
        generations = self.plans.generations()
        if not generations or generations[-1] != self.generation:
            return False
        if _snapshot_seqno(self.dirpath) > store.wal_lsn:
            return False
        records = scan_wal(os.path.join(self.dirpath, WAL_NAME)).records
        if records and records[0].seqno > store.wal_lsn + 1:
            return False
        tail = [
            (r.opcode, r.payload) for r in records if r.seqno > store.wal_lsn
        ]
        if not tail:
            return True
        try:
            store.apply_ops(tail, wal_lsn=records[-1].seqno)
        except PlanStoreError as exc:
            store.close()
            self._quarantine(store.path, str(exc))
            return False
        return True

    # ------------------------------------------------------------------
    # Reads (retry down the ladder on lazy-verify failure)
    # ------------------------------------------------------------------

    def _retry(self, attempt):
        """Run ``attempt(store, fallback, rung)`` against the current
        rung, quarantining and re-descending each time the served plan
        fails lazy verification.

        Bounded by the artifacts that can fail: each retry quarantines
        at least one file, so the ladder strictly shrinks.  Counting
        them lists the plan directory, so the bound is taken only once
        an attempt has failed -- a clean read never touches the
        directory.
        """
        attempts = None
        tries = 0
        while attempts is None or tries < attempts:
            tries += 1
            with self._lock:
                store, fallback, rung = self._store, self._fallback, self.rung
            try:
                return attempt(store, fallback, rung)
            except PlanStoreError as exc:
                if attempts is None:
                    attempts = len(self.plans.generations()) + 2
                with self._lock:
                    if self._store is store and store is not None:
                        store.close()
                        self._quarantine(store.path, str(exc))
                        self._descend()
        raise ServingUnavailable(
            f"{self.dirpath}: fallback ladder exhausted"
        )

    def _read(self, method: str, *args, **kwargs):
        def attempt(store, fallback, rung):
            if rung == 4:
                raise ServingUnavailable(
                    f"{self.dirpath}: no plan, no snapshot+WAL rebuild; "
                    f"serving is DEGRADED"
                )
            target = store if store is not None else fallback
            return getattr(target, method)(*args, **kwargs)

        return self._retry(attempt)

    def get_batch(self, keys, tracer: Tracer = NULL_TRACER) -> list:
        """Values for a key batch, ``None`` where absent."""
        return self._read("get_batch", keys, tracer)

    def contains_batch(self, keys):
        """Boolean membership for a key batch."""
        return self._read("contains_batch", keys)

    def count_range_batch(self, los, his):
        """Vectorized count of stored keys in ``[lo, hi)`` per pair."""
        return self._read("count_range_batch", los, his)

    def verify(self) -> None:
        """Eagerly verify the served plan's buffers (re-descending on
        failure), or no-op on rungs 3-4."""
        # Not routed through _read: a retry that lands on the rung-3
        # rebuild has nothing left to verify and must no-op, not
        # forward "verify" to the live DILI.
        def attempt(store, fallback, rung):
            if store is not None:
                store.verify()

        self._retry(attempt)

    def __len__(self) -> int:
        with self._lock:
            if self._store is not None:
                return len(self._store)
            if self._fallback is not None:
                return len(self._fallback)
        raise ServingUnavailable(f"{self.dirpath}: serving is DEGRADED")

    @property
    def wal_lsn(self) -> int | None:
        with self._lock:
            return self._store.wal_lsn if self._store is not None else None

    def close(self) -> None:
        with self._lock:
            if self._store is not None:
                self._store.close()
                self._store = None
