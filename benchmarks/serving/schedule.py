"""Seeded, fixed-length request schedules for the serving benchmark.

Everything a run sends is generated here, before any timing starts, so
the program under test receives only arrays.  The same ``(workload,
seed, seconds)`` always yields the same bulk/held-out split, read
batches and write batches, and therefore the same amount of work: the
schedule length is a fixed number of rounds per second of
``--seconds``, never a time limit.

Each workload's keyset and its bulk/held-out split are fixed (drawn
with :data:`DATASET_SEED`), like the paper's fixed dataset files; the
workload seed drives the traffic: read batches, absent keys, and the
order in which held-out keys are written.  Reseeding the keyset itself
moved ``sim_ns_per_lookup`` by about 13% on fb-like keys (7% for a
reseeded logn split), which would hide real changes in the run-to-run
spread.

Absent keys are midpoints between adjacent keys of the *whole* key
universe (bulk-loaded plus every key a write may insert), so they are
never stored at any point of the schedule.  On the read/write workloads
a quarter of each read batch's absent share is taken from the most
recently deleted batch, so deletes are checked through reads too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.datasets import fb_like, lognormal

#: Value given to the i-th inserted key; disjoint from bulk payloads
#: (which are key positions below the keyset size).
INSERT_VALUE_BASE = 1_000_000_000


@dataclass(frozen=True)
class Spec:
    """Shape of one workload (sizes in keys, rounds per second).

    ``canary_every`` spaces the host reference job: one measurement
    before every that many requests, about every 50-100 ms of schedule.
    """

    dataset: str
    keys: int
    bulk_share: float
    reads_per_round: int
    read_batch: int
    write_batch: int
    rounds_per_second: float
    canary_every: int
    skewed_inserts: bool = False


SPECS: dict[str, Spec] = {
    "multiget": Spec("fb", 300_000, 1.0, 1, 256, 0, 125.0, 8),
    "durable-rw": Spec("logn", 400_000, 0.5, 1, 256, 64, 20.0, 2),
    "sharded-rw": Spec("logn", 400_000, 0.5, 3, 4096, 256, 10.0, 4,
                       skewed_inserts=True),
}

GENERATORS = {"fb": fb_like, "logn": lognormal}

#: Generator seed of every workload's keyset.
DATASET_SEED = 0

#: Share of every read batch made of absent keys (1 in 8).
ABSENT_SHARE = 8

#: Keys in the traced query sample that prices ``sim_ns_per_lookup``.
SIM_SAMPLE = 4096


@dataclass
class Request:
    """One client request: ``kind`` is get, insert or delete; ``round``
    is the closed-loop client iteration it belongs to."""

    kind: str
    keys: np.ndarray
    values: list | None = None
    round: int = 0


@dataclass
class Schedule:
    """A workload's inputs: the bulk load plus the request sequence."""

    workload: str
    seed: int
    bulk_keys: np.ndarray
    bulk_values: list
    requests: list[Request]
    sim_warm: np.ndarray
    sim_sample: np.ndarray
    inserted_keys: np.ndarray
    canary_every: int


def _midpoints(universe: np.ndarray) -> np.ndarray:
    """Keys strictly between adjacent keys of a sorted key universe."""
    mids = (universe[:-1] + universe[1:]) / 2.0
    return mids[(mids > universe[:-1]) & (mids < universe[1:])]


def _squeeze_top_tenth(held: np.ndarray, lo: float, hi: float,
                       bulk: np.ndarray) -> np.ndarray:
    """Map keys linearly into the top tenth of ``[lo, hi]`` (Fig 10).

    The result is integer-valued, unique and disjoint from ``bulk``.
    """
    span = hi - lo
    top = hi - 0.1 * span
    squeezed = np.floor(top + (held - held.min()) * (0.1 * span)
                        / (held.max() - held.min() + 1.0))
    squeezed = np.unique(squeezed)
    return squeezed[~np.isin(squeezed, bulk)]


def build(workload: str, seed: int, seconds: int,
          scale: float = 1.0) -> Schedule:
    """Generate the complete input of one run.

    Args:
        workload: A key of :data:`SPECS`.
        seed: Workload seed: every read and write batch.
        seconds: Schedule length in nominal seconds of work.
        scale: Shrinks the keyset and batches (self-tests only).
    """
    spec = SPECS[workload]
    fixed = np.random.default_rng(DATASET_SEED)
    rng = np.random.default_rng(seed)
    n = max(int(spec.keys * scale), 2048)
    keys = GENERATORS[spec.dataset](n, DATASET_SEED)
    read_batch = max(int(spec.read_batch * scale), 64)
    write_batch = (max(int(spec.write_batch * scale), 16)
                   if spec.write_batch else 0)
    rounds = max(int(round(spec.rounds_per_second * seconds)), 4)

    if spec.bulk_share < 1.0:
        pick = np.zeros(n, dtype=bool)
        pick[fixed.choice(n, int(n * spec.bulk_share), replace=False)] = True
        bulk = keys[pick]
        held = keys[~pick]
        if spec.skewed_inserts:
            held = _squeeze_top_tenth(held, bulk[0], bulk[-1], bulk)
        held = rng.permutation(held)
    else:
        bulk = keys
        held = np.empty(0, dtype=np.float64)
    bulk = np.ascontiguousarray(bulk)
    universe = np.union1d(bulk, held)
    absent_pool = _midpoints(universe)

    requests: list[Request] = []
    live_batches: dict[int, np.ndarray] = {}
    deleted_recent = np.empty(0, dtype=np.float64)
    inserted: list[np.ndarray] = []
    next_held = 0
    n_absent = read_batch // ABSENT_SHARE
    n_present = read_batch - n_absent
    for r in range(rounds):
        live_extra = (np.concatenate(list(live_batches.values()))
                      if live_batches else np.empty(0))
        for _ in range(spec.reads_per_round):
            idx = rng.integers(0, len(bulk) + len(live_extra), n_present)
            in_bulk = idx < len(bulk)
            present = np.empty(n_present, dtype=np.float64)
            present[in_bulk] = bulk[idx[in_bulk]]
            present[~in_bulk] = live_extra[idx[~in_bulk] - len(bulk)]
            n_deleted = min(n_absent // 4, len(deleted_recent))
            absent = np.concatenate((
                rng.choice(deleted_recent, n_deleted, replace=False)
                if n_deleted else np.empty(0),
                rng.choice(absent_pool, n_absent - n_deleted),
            ))
            batch = rng.permutation(np.concatenate((present, absent)))
            requests.append(Request("get", batch, round=r))
        if not write_batch:
            continue
        # Writes come in pairs: two inserts of held-out keys, then two
        # deletes, each removing the batch inserted two rounds earlier,
        # so the index size stays within two batches of the bulk load.
        if r % 4 in (0, 1):
            if next_held + write_batch > len(held):
                raise ValueError(f"{workload}: schedule needs more held-out "
                                 "keys; lower --seconds")
            batch = held[next_held:next_held + write_batch]
            values = list(range(INSERT_VALUE_BASE + next_held,
                                INSERT_VALUE_BASE + next_held + write_batch))
            next_held += write_batch
            live_batches[r] = batch
            inserted.append(batch)
            requests.append(Request("insert", batch, values, round=r))
        else:
            batch = live_batches.pop(r - 2)
            deleted_recent = batch
            requests.append(Request("delete", batch, round=r))

    sim = rng.choice(bulk, 2 * SIM_SAMPLE)
    return Schedule(
        workload=workload,
        seed=seed,
        bulk_keys=bulk,
        bulk_values=list(range(len(bulk))),
        requests=requests,
        sim_warm=sim[:SIM_SAMPLE],
        sim_sample=sim[SIM_SAMPLE:],
        inserted_keys=(np.concatenate(inserted) if inserted
                       else np.empty(0, dtype=np.float64)),
        canary_every=spec.canary_every,
    )
