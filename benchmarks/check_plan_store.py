"""CI gate for the crash-safe plan store (the ``plan-store`` job).

Five contracts, each a hard failure:

* **O(1) open** -- ``PlanStore.open`` parses and checks a framed header
  and memory-maps the buffers; it never deserializes them.  Opening a
  10^6-key plan must cost no more than ``OPEN_RATIO``x opening a
  10^4-key plan (with a small absolute floor so microsecond timings
  don't fail on scheduler jitter).
* **Zero wrong reads** -- the seeded corruption sweep
  (:func:`repro.planstore.chaos.run_plan_chaos`) injects every fault
  kind (torn header, truncated buffer, flipped byte, stale LSN,
  missing delta); every served answer must match the snapshot+WAL
  oracle and every fault must land on its expected ladder rung.
* **Cross-process agreement** -- two independent reader processes map
  the same published state; both must report rung 1 and return
  byte-identical answers, which must equal the oracle computed from
  the writer's live index.
* **O(write) upkeep** -- a writer publishes ``WRITE_STEPS`` deltas onto
  one chain and refreshes an open reader after each.  Counted, not
  timed: the writer must read back no delta file, and each
  ``publish_tail`` and each ``refresh`` must read at most the one WAL
  record just logged (plus the 4-byte CRC of the record it resumes
  after), and the reader must answer like a recovery rebuild.
* **Aligned buffers** -- every base published above (the open-latency
  plans, the cross-process state and the write-cost chain) must map
  each of its buffers 64-byte aligned.  Counted, not timed: a column
  mapped unaligned sends numpy down its unaligned loops.

Run locally with::

    PYTHONPATH=src python benchmarks/check_plan_store.py
"""

from __future__ import annotations

import builtins
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import repro.durability.wal as wal_module  # noqa: E402
import repro.planstore.serve as serve_module  # noqa: E402
from repro import DILI  # noqa: E402
from repro.durability.durable import DurableDILI  # noqa: E402
from repro.durability.recovery import recover  # noqa: E402
from repro.planstore.chaos import run_plan_chaos  # noqa: E402
from repro.planstore.format import write_plan_file  # noqa: E402
from repro.planstore.serve import MmapDILI, PlanDirectory  # noqa: E402
from repro.planstore.store import PlanStore  # noqa: E402

SMALL_KEYS = 10_000
LARGE_KEYS = 1_000_000
OPEN_RATIO = 3.0
OPEN_FLOOR_MS = 2.0  # absolute slack: sub-ms opens jitter more than 3x
SMOKE_KEYS = 50_000
SMOKE_PROBES = 4_096
WRITE_STEPS = 32
WRITE_BATCH = 256
#: What a scan resumes after: the CRC of the record before it, or the
#: log's 8-byte header when none precedes it.
WAL_CRC_BYTES, WAL_HEADER_BYTES = 4, 8
#: Every mapped buffer's address must be a multiple of this.
ALIGN = 64

_READER = """
import json, sys
sys.path.insert(0, {src!r})
import numpy as np
from repro.planstore.serve import MmapDILI

served = MmapDILI({state!r})
probe = np.load({probe!r})
los, his = np.load({los!r}), np.load({his!r})
print(json.dumps({{
    "rung": served.rung,
    "generation": served.generation,
    "values": served.get_batch(probe),
    "contains": [bool(b) for b in served.contains_batch(probe)],
    "counts": [int(c) for c in served.count_range_batch(los, his)],
}}))
"""


def _open_ms(path, rounds: int = 7) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        store = PlanStore.open(path)
        best = min(best, (time.perf_counter() - t0) * 1e3)
        store.close()
    return best


def check_open_latency(workdir: Path, failures: list[str]) -> None:
    rng = np.random.default_rng(1)
    timings = {}
    for n in (SMALL_KEYS, LARGE_KEYS):
        keys = np.unique(rng.uniform(0.0, 1e9, n))
        index = DILI()
        index.bulk_load(keys)
        path = workdir / f"plan-{n}.plan"
        t0 = time.perf_counter()
        write_plan_file(path, index._plan())
        publish_ms = (time.perf_counter() - t0) * 1e3
        timings[n] = _open_ms(path)
        print(
            f"open latency: {len(keys):>9,} keys -> "
            f"{timings[n]:.3f} ms (publish {publish_ms:.0f} ms, "
            f"{path.stat().st_size:,} bytes)"
        )
    limit = max(timings[SMALL_KEYS] * OPEN_RATIO, OPEN_FLOOR_MS)
    if timings[LARGE_KEYS] > limit:
        failures.append(
            f"open latency scales with key count: {timings[LARGE_KEYS]:.3f} "
            f"ms at {LARGE_KEYS:,} keys vs {timings[SMALL_KEYS]:.3f} ms at "
            f"{SMALL_KEYS:,} (limit {limit:.3f} ms) -- open must stay "
            f"header-verify + mmap, no buffer reads"
        )


def check_corruption_sweep(workdir: Path, failures: list[str]) -> None:
    report = run_plan_chaos(workdir / "chaos", seed=0, n_keys=400)
    for event in report.events:
        print(f"corruption sweep: {event}")
    print(
        f"corruption sweep: wrong reads {report.wrong_reads}/{report.reads}"
    )
    if report.wrong_reads:
        failures.append(
            f"{report.wrong_reads} wrong read(s) -- a corrupted artifact "
            f"leaked into served answers"
        )
    failures.extend(
        f"corruption sweep check {name} failed (rung, quarantine, or a "
        f"later reader not at rung 1)"
        for name, held in report.checks.items()
        if not held
    )


def check_cross_process(workdir: Path, failures: list[str]) -> None:
    rng = np.random.default_rng(2)
    keys = np.unique(rng.uniform(0.0, 1e9, SMOKE_KEYS))
    state = workdir / "smoke-state"
    durable = DurableDILI(state, sync=False)
    durable.bulk_load(keys)
    durable.publish_plan()
    for key in rng.uniform(2e9, 3e9, 64):  # WAL tail past the plan
        durable.insert(float(key), float(key))
    durable.sync_wal()

    probe = np.concatenate(
        [rng.choice(keys, SMOKE_PROBES // 2), rng.uniform(0.0, 3e9, SMOKE_PROBES // 2)]
    )
    los = rng.uniform(0.0, 1e9, 64)
    his = los + rng.uniform(0.0, 1e8, 64)
    oracle = {
        "values": durable.get_batch(probe),
        "contains": [bool(b) for b in durable.contains_batch(probe)],
        "counts": [int(c) for c in durable.count_range_batch(los, his)],
    }
    durable.close()

    paths = {}
    for name, arr in (("probe", probe), ("los", los), ("his", his)):
        paths[name] = str(workdir / f"{name}.npy")
        np.save(paths[name], arr)
    script = _READER.format(
        src=str(SRC), state=str(state), probe=paths["probe"],
        los=paths["los"], his=paths["his"],
    )
    reports = []
    for i in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            failures.append(
                f"reader process {i} died: {proc.stderr.strip()[-400:]}"
            )
            return
        reports.append(json.loads(proc.stdout))
        print(
            f"cross-process: reader {i} rung {reports[i]['rung']}, "
            f"generation {reports[i]['generation']}, "
            f"{len(reports[i]['values'])} probes answered"
        )
    if reports[0] != reports[1]:
        failures.append("cross-process: the two readers disagree")
    for i, rep in enumerate(reports):
        if rep["rung"] != 1:
            failures.append(
                f"cross-process: reader {i} served from rung {rep['rung']}"
            )
        for field in ("values", "contains", "counts"):
            if rep[field] != oracle[field]:
                failures.append(
                    f"cross-process: reader {i} {field} diverge from the "
                    f"writer's live index"
                )


class _CountedFile:
    """A WAL file opened for reading that counts the bytes read."""

    def __init__(self, fh, counts: dict) -> None:
        self._fh = fh
        self._counts = counts

    def read(self, n=-1):
        data = self._fh.read(n)
        self._counts["wal_bytes"] += len(data)
        return data

    def seek(self, *args):
        return self._fh.seek(*args)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def check_write_cost(workdir: Path, failures: list[str]) -> None:
    rng = np.random.default_rng(3)
    keys = np.unique(rng.uniform(0.0, 1e9, SMOKE_KEYS))
    state = workdir / "write-cost"
    durable = DurableDILI(state, sync=False)
    durable.bulk_load(keys, list(range(len(keys))))
    durable.publish_plan()
    served = MmapDILI(state)

    counts = {"wal_bytes": 0, "deltas_read": 0}
    real_read_delta = serve_module.read_delta_file

    def counted_open(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        return _CountedFile(fh, counts) if mode == "rb" else fh

    def counted_read_delta(path):
        counts["deltas_read"] += 1
        return real_read_delta(path)

    wal_module.open = counted_open
    serve_module.read_delta_file = counted_read_delta
    worst = {"publish_tail": 0, "refresh": 0}
    try:
        for step in range(WRITE_STEPS):
            fresh = np.sort(rng.uniform(1e9, 2e9, WRITE_BATCH))
            before = os.path.getsize(durable.wal.path)
            durable.insert_batch(fresh, list(range(WRITE_BATCH)))
            record = os.path.getsize(durable.wal.path) - before
            lead = (
                WAL_HEADER_BYTES if before == WAL_HEADER_BYTES
                else WAL_CRC_BYTES
            )
            for name, call in (
                ("publish_tail", durable.publish_tail),
                ("refresh", served.refresh),
            ):
                counts["wal_bytes"] = 0
                call()
                over = counts["wal_bytes"] - record - lead
                worst[name] = max(worst[name], over)
    finally:
        del wal_module.open
        serve_module.read_delta_file = real_read_delta
    print(
        f"write cost: {WRITE_STEPS} deltas of {WRITE_BATCH} keys, "
        f"{counts['deltas_read']} delta file(s) read back, WAL bytes "
        f"read past one record: publish_tail {worst['publish_tail']}, "
        f"refresh {worst['refresh']}"
    )
    if counts["deltas_read"]:
        failures.append(
            f"write cost: the writer read back {counts['deltas_read']} "
            f"delta file(s) -- publish_tail must extend its own chain "
            f"without walking it"
        )
    for name, over in worst.items():
        if over > 0:
            failures.append(
                f"write cost: a {name} read {over} WAL bytes beyond the "
                f"record just logged -- it must resume past the record "
                f"it last read"
            )
    probe = np.concatenate([keys[::7], rng.uniform(1e9, 2e9, 512)])
    if served.get_batch(probe) != recover(state).index.get_batch(probe):
        failures.append("write cost: the refreshed reader answers wrong")
    served.close()
    durable.close()


def check_aligned_buffers(workdir: Path, failures: list[str]) -> None:
    bases = sorted(workdir.glob("plan-*.plan"))
    for state in ("smoke-state", "write-cost"):
        plans = PlanDirectory.for_state_dir(workdir / state)
        bases += [plans.base_path(g) for g in plans.generations()]
    mapped = misaligned = 0
    for path in bases:
        store = PlanStore.open(path)
        for arr in store._arrays.values():
            if arr.size:
                mapped += 1
                misaligned += arr.ctypes.data % ALIGN != 0
        store.close()
    print(
        f"aligned buffers: {len(bases)} base(s), {mapped} buffers mapped, "
        f"{misaligned} not {ALIGN}-byte aligned"
    )
    if len(bases) < 4 or misaligned:
        failures.append(
            f"aligned buffers: {misaligned} of {mapped} buffers in "
            f"{len(bases)} base(s) map unaligned -- every buffer must "
            f"start at a {ALIGN}-byte-aligned file offset"
        )


def main() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        check_open_latency(workdir, failures)
        check_corruption_sweep(workdir, failures)
        check_cross_process(workdir, failures)
        check_write_cost(workdir, failures)
        check_aligned_buffers(workdir, failures)
    if failures:
        print("\nPLAN STORE CHECK FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("plan store check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
