"""Seeded plan-store corruption sweep: every fault, zero wrong reads.

For each plan fault kind this harness builds a fresh durable state
directory with a realistic publish history (bulk load, logged inserts,
two base generations, a delta chain, a live WAL tail), injects exactly
one fault through :meth:`repro.faults.FaultRegistry.inject_plan`, then
opens an :class:`~repro.planstore.serve.MmapDILI` and checks three
things:

1. the ladder lands on the **expected rung** for that damage --
   torn header / truncated buffer / flipped byte fall back to the
   previous generation (rung 2), a stale LSN invalidates every
   generation and forces the recovery rebuild (rung 3), a missing delta
   is healed by WAL-tail replay without leaving rung 1;
2. **zero wrong reads**: every ``get_batch`` / ``contains_batch`` /
   ``count_range_batch`` answer matches an oracle rebuilt from
   snapshot + WAL (which the injections never touch), with refusal
   (:class:`ServingUnavailable`) counting as unavailable, never wrong;
3. checksum-style damage is **quarantined, never deleted** -- the
   corrupt artifact survives on disk under its ``.quarantined`` name.

The writer then carries on over the damage for three more rounds, each
deleting a quarter of the live keys and updating a third of the rest.
The first round publishes the way a shard worker does after a write (a
WAL-tail delta, or a base when no generation survives), the second a
new base.  The third checkpoints (``snapshot()``, which truncates the
WAL) after its writes, inserts up to 16 fresh keys, and publishes like
the first: the newest chain now predates the snapshot, so the records
a delta would need are gone and the publisher must start a new base.
After each round a fresh reader is audited the same way, and its wrong
reads and probes count toward the run's: a new delta or base must
never pick up an artifact left over from before the damage, and the
reader must serve it at rung 1.

Payloads alternate across the fault kinds (by position in
:data:`~repro.planstore.corrupt.PLAN_FAULT_KINDS`): every other kind's
state holds only ints, whose base files store the int64 value column,
and the rest hold strings, whose files keep the pickled column, so
each fault hits both encodings across the sweep.

Runs are fully determined by the seed (``repro plan chaos`` is the CI
entry point).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.durability.durable import DurableDILI
from repro.durability.recovery import recover
from repro.planstore.corrupt import (
    FAULT_PLAN_FLIPPED_BYTE,
    FAULT_PLAN_MISSING_DELTA,
    FAULT_PLAN_STALE_LSN,
    FAULT_PLAN_TORN_HEADER,
    FAULT_PLAN_TRUNCATED_BUFFER,
    PLAN_FAULT_KINDS,
    PlanFaultReport,
)
from repro.planstore.serve import MmapDILI, PlanDirectory, ServingUnavailable

#: Rung each kind must land on under the standard publish history.
EXPECTED_RUNG: dict[str, int] = {
    FAULT_PLAN_TORN_HEADER: 2,
    FAULT_PLAN_TRUNCATED_BUFFER: 2,
    FAULT_PLAN_FLIPPED_BYTE: 2,
    FAULT_PLAN_STALE_LSN: 3,
    FAULT_PLAN_MISSING_DELTA: 1,
}

#: Kinds whose damaged file must end up quarantined (a missing delta
#: is a chain gap, not a corrupt file the reader can rename).
QUARANTINE_KINDS: frozenset[str] = frozenset(
    {
        FAULT_PLAN_TORN_HEADER,
        FAULT_PLAN_TRUNCATED_BUFFER,
        FAULT_PLAN_FLIPPED_BYTE,
        FAULT_PLAN_STALE_LSN,
    }
)


@dataclass(frozen=True)
class PlanChaosRun:
    """Outcome of one (kind, fresh directory) chaos round.

    ``rung``, ``served`` and ``quarantined`` describe the first reader,
    opened on the damage; ``later_readers`` holds ``(rung, served)`` of
    the reader opened after each later writer round; ``int_payloads``
    says the state held only ints (the int64 value column).
    """

    kind: str
    int_payloads: bool
    rung: int
    expected_rung: int
    wrong_reads: int
    probes: int
    served: bool
    quarantined: tuple[str, ...]
    report: PlanFaultReport | None
    later_readers: tuple[tuple[int, bool], ...]

    @property
    def ok(self) -> bool:
        if self.wrong_reads != 0 or self.rung != self.expected_rung:
            return False
        if self.kind in QUARANTINE_KINDS and not self.quarantined:
            return False
        # A publish on top of the damage must be what the next reader
        # serves: the newest plan, at rung 1.
        return all(
            rung == 1 and served for rung, served in self.later_readers
        )


@dataclass
class PlanChaosResult:
    """Aggregate of a full sweep; ``ok`` is the CI gate."""

    seed: int
    runs: list[PlanChaosRun] = field(default_factory=list)

    @property
    def wrong_reads(self) -> int:
        return sum(run.wrong_reads for run in self.runs)

    @property
    def ok(self) -> bool:
        return bool(self.runs) and all(run.ok for run in self.runs)


def _payloads(keys, tag: int, ints: bool) -> list:
    """Payloads for ``keys`` that differ per ``tag``: ints, or
    strings."""
    if ints:
        return [tag * 1_000_000 + int(k) for k in keys]
    return [f"v{tag}-{int(k)}" for k in keys]


def _build_state(
    state_dir: str,
    rng: np.random.Generator,
    n_keys: int,
    *,
    ints: bool,
    tail_deltas: int,
    late_generation: bool,
    final_snapshot: bool,
) -> np.ndarray:
    """Publish history: bulk load + logged inserts + plan generations.

    ``tail_deltas`` deltas are cut from the post-generation-2 inserts;
    with ``late_generation`` every insert lands *before* generation 2
    (so a final snapshot leaves it exactly current); ``final_snapshot``
    checkpoints at the end, truncating the WAL.
    """
    keys = np.sort(
        rng.choice(n_keys * 10, size=n_keys, replace=False)
    ).astype(np.float64)
    segs = np.array_split(np.arange(n_keys), 5)
    values = _payloads(keys, 0, ints)

    def vals(seg):
        return [values[i] for i in seg]

    durable = DurableDILI(state_dir)
    durable.bulk_load(keys[segs[0]], vals(segs[0]))
    durable.insert_batch(keys[segs[1]], vals(segs[1]))
    durable.publish_plan()
    durable.insert_batch(keys[segs[2]], vals(segs[2]))
    if late_generation:
        durable.insert_batch(keys[segs[3]], vals(segs[3]))
        durable.insert_batch(keys[segs[4]], vals(segs[4]))
        durable.publish_plan()
    else:
        durable.publish_plan()
        durable.insert_batch(keys[segs[3]], vals(segs[3]))
        if tail_deltas >= 1:
            durable.publish_tail()
        durable.insert_batch(keys[segs[4]], vals(segs[4]))
        if tail_deltas >= 2:
            durable.publish_tail()
    if final_snapshot:
        durable.snapshot()
    durable.close()
    return keys


def _count_wrong_reads(
    served: MmapDILI,
    oracle,
    keys: np.ndarray,
    rng: np.random.Generator,
) -> tuple[int, int, bool]:
    """``(wrong, probes, served_any)`` comparing every read family."""
    probes = np.concatenate([keys, keys + 0.37, keys - 0.41])
    rng.shuffle(probes)
    lo, hi = float(keys.min()) - 2.0, float(keys.max()) + 2.0
    los = rng.uniform(lo, hi, size=32)
    his = los + rng.uniform(0.0, (hi - lo) / 2.0, size=32)
    total = len(probes) * 2 + len(los)
    wrong = 0
    try:
        got_values = served.get_batch(probes)
        got_contains = served.contains_batch(probes)
        got_counts = served.count_range_batch(los, his)
    except ServingUnavailable:
        # Refusing to serve is degraded, never wrong.
        return 0, total, False
    want_values = oracle.get_batch(probes)
    wrong += sum(
        1 for g, w in zip(got_values, want_values) if g != w
    )
    wrong += int(
        np.sum(got_contains != oracle.contains_batch(probes))
    )
    wrong += int(
        np.sum(
            np.asarray(got_counts)
            != np.asarray(oracle.count_range_batch(los, his))
        )
    )
    return wrong, total, True


def _write_round(
    state_dir: str,
    rng: np.random.Generator,
    *,
    tag: int,
    mode: str,
    ints: bool,
) -> None:
    """Delete a quarter of the live keys, update a third of the rest,
    then publish a base (mode ``"base"``) or, while a generation
    survives, a WAL-tail delta.  A ``"checkpoint"`` round snapshots
    after its writes and inserts up to 16 fresh keys before publishing
    like a ``"tail"`` round."""
    durable = DurableDILI(state_dir)
    live = np.fromiter(
        (key for key, _ in durable.items()), dtype=np.float64
    )
    rng.shuffle(live)
    cut = len(live) // 4
    durable.delete_batch(np.sort(live[:cut]))
    updates = np.sort(live[cut:cut + (len(live) - cut) // 3])
    durable.update_batch(updates, _payloads(updates, tag, ints))
    if mode == "checkpoint":
        durable.snapshot()
        # Stored keys are integers, so these are fresh; the audit's
        # probes (every original key + 0.37) cover them.
        fresh = np.sort(live[-16:]) + 0.37
        durable.insert_batch(fresh, _payloads(fresh, 10 + tag, ints))
    plans = PlanDirectory.for_state_dir(state_dir)
    if mode == "base" or not plans.generations():
        durable.publish_plan()
    else:
        durable.publish_tail()
    durable.close()


def _audit(
    state_dir: str, keys: np.ndarray, rng: np.random.Generator
) -> tuple[MmapDILI, int, int, bool]:
    """Open a fresh reader and compare it with a recovery rebuild;
    returns the (closed) reader and :func:`_count_wrong_reads`."""
    oracle = recover(state_dir).index
    served = MmapDILI(state_dir)
    try:
        return (served, *_count_wrong_reads(served, oracle, keys, rng))
    finally:
        served.close()


def run_plan_chaos(
    workdir,
    *,
    seed: int = 0,
    n_keys: int = 400,
    kinds: tuple[str, ...] = PLAN_FAULT_KINDS,
    registry=None,
) -> PlanChaosResult:
    """Run the full corruption sweep under ``workdir``.

    Args:
        workdir: Scratch directory; one fresh state dir per kind.
        seed: Determines keys, segment splits, injection offsets and
            the writer's later rounds.
        n_keys: Keys per state directory (5 segments are cut from it).
        kinds: Fault kinds to sweep (default: all of them).
        registry: A :class:`repro.faults.FaultRegistry` to record the
            injections in (a private one is created if omitted).
    """
    if registry is None:
        from repro.resilience.faults import FaultRegistry

        registry = FaultRegistry()
    workdir = os.fspath(workdir)
    result = PlanChaosResult(seed=seed)
    for round_no, kind in enumerate(kinds):
        rng = np.random.default_rng((seed, round_no))
        state_dir = os.path.join(workdir, kind)
        stale = kind == FAULT_PLAN_STALE_LSN
        ints = PLAN_FAULT_KINDS.index(kind) % 2 == 0
        keys = _build_state(
            state_dir,
            rng,
            n_keys,
            ints=ints,
            tail_deltas=2 if kind == FAULT_PLAN_MISSING_DELTA else 1,
            late_generation=stale,
            final_snapshot=stale,
        )
        plans = PlanDirectory.for_state_dir(state_dir)
        newest = plans.generations()[-1]
        if kind == FAULT_PLAN_MISSING_DELTA:
            target = plans.delta_path(newest, 1)
        else:
            target = plans.base_path(newest)
        report = registry.inject_plan(kind, target, rng)
        served, wrong, probes, was_served = _audit(state_dir, keys, rng)
        later = []
        for tag, mode in enumerate(("tail", "base", "checkpoint"), 1):
            _write_round(state_dir, rng, tag=tag, mode=mode, ints=ints)
            reader, more_wrong, more_probes, reader_served = _audit(
                state_dir, keys, rng
            )
            wrong += more_wrong
            probes += more_probes
            later.append((reader.rung, reader_served))
        result.runs.append(
            PlanChaosRun(
                kind=kind,
                int_payloads=ints,
                rung=served.rung,
                expected_rung=EXPECTED_RUNG.get(kind, served.rung),
                wrong_reads=wrong,
                probes=probes,
                served=was_served,
                quarantined=tuple(served.quarantined),
                report=report,
                later_readers=tuple(later),
            )
        )
    return result
