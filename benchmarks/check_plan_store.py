"""CI gate for the crash-safe plan store (the ``plan-store`` job).

Three contracts, each a hard failure:

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

Run locally with::

    PYTHONPATH=src python benchmarks/check_plan_store.py
"""

from __future__ import annotations

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

from repro import DILI  # noqa: E402
from repro.durability.durable import DurableDILI  # noqa: E402
from repro.planstore.chaos import run_plan_chaos  # noqa: E402
from repro.planstore.format import write_plan_file  # noqa: E402
from repro.planstore.store import PlanStore  # noqa: E402

SMALL_KEYS = 10_000
LARGE_KEYS = 1_000_000
OPEN_RATIO = 3.0
OPEN_FLOOR_MS = 2.0  # absolute slack: sub-ms opens jitter more than 3x
SMOKE_KEYS = 50_000
SMOKE_PROBES = 4_096

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
    result = run_plan_chaos(workdir / "chaos", seed=0, n_keys=400)
    for run in result.runs:
        status = "ok" if run.ok else "VIOLATION"
        print(
            f"corruption sweep: {run.kind:<20} rung {run.rung} "
            f"(expected {run.expected_rung}), after later publishes "
            f"{list(run.later_readers)}, wrong reads "
            f"{run.wrong_reads}/{run.probes}: {status}"
        )
        if run.wrong_reads:
            failures.append(
                f"{run.kind}: {run.wrong_reads} wrong read(s) -- a "
                f"corrupted artifact leaked into served answers"
            )
        elif not run.ok:
            failures.append(
                f"{run.kind}: landed on rung {run.rung} (expected "
                f"{run.expected_rung}); (rung, served) after later "
                f"publishes {list(run.later_readers)} (expected rung 1, "
                f"served)"
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


def main() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        check_open_latency(workdir, failures)
        check_corruption_sweep(workdir, failures)
        check_cross_process(workdir, failures)
    if failures:
        print("\nPLAN STORE CHECK FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("plan store check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
