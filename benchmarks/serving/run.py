"""Serving benchmark: seeded fixed schedules through DILI's front-ends.

Run from the root of a checkout::

    python3 benchmarks/serving/run.py --workload multiget --seed 1 --seconds 15 --trace 0
    python3 benchmarks/serving/run.py --workload all --seed 1 --seconds 15 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` makes one untraced pass and then one traced pass of the
same schedule, and reports the per-layer metrics plus the tracing
overhead on every end-to-end metric.  The last line of standard output
is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); the exit code is 0 only when every answer and audit was
correct and no request raised.  State directories and traces are kept
under ``.serving-bench/`` in the checkout.  See ``README.md`` beside
this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".serving-bench")

if not os.path.isdir(os.path.join(SRC, "repro")):
    raise SystemExit(f"serving benchmark: no repro package under {SRC}; "
                     "run it from the root of a full checkout")
for _path in (HERE, SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import layers  # noqa: E402
import schedule  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("multiget", "durable-rw", "sharded-rw")

#: The gated end-to-end metrics (printed by every workload) and units.
END_TO_END = {
    "setup_s": "s",
    "read_p50_ref": "ref",
    "round_p50_ref": "ref",
    "sim_ns_per_lookup": "ns",
    "peak_rss_mb": "MB",
}

#: End-to-end metrics printed where they apply but not gated: the
#: medians, tails and throughputs move with the host's contention (see
#: README.md), and the rest exist on some workloads only.  The traced
#: run reports them from its untraced pass (0 where they do not apply).
REPORTED = {
    "read_keys_per_s": "keys/s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "write_keys_per_s": "keys/s",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "recover_s": "s",
    "bytes_per_key": "B",
    "disk_bytes_per_key": "B",
}

#: Set-ups per untraced run; setup_s is their median.
SETUPS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Run every workload in its own process (peak RSS is per process)."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        code = subprocess.call([
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ])
        status = status or code
    return status


def _table(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<32} {value:>14.6g} {unit:<7} {note}")


def _summary(sched, res, e2e: dict) -> None:
    """Print one pass's end-to-end figures, exact counts and diagnostics."""
    n_read, n_write = len(res.read_s), len(res.write_s)
    n_rounds = len([r for r in res.round_s if r > 0])
    notes = {
        "setup_s": f"median of {len(res.setup_s)} set-ups",
        "read_p50_ref": f"n={n_read}",
        "round_p50_ref": f"n={n_rounds} rounds",
        "read_keys_per_s": f"{res.read_keys} keys / {n_read} requests",
        "read_p50_ms": f"n={n_read}",
        "read_p90_ms": f"n={n_read}",
        "write_keys_per_s": f"{res.write_keys} keys / {n_write} requests",
        "write_p50_ms": f"n={n_write}",
        "write_p90_ms": f"n={n_write}",
    }
    units = {**END_TO_END, **REPORTED}
    _table("end-to-end", [(k, v, units[k], notes.get(k, ""))
                          for k, v in e2e.items()])
    _table("counts (exact per seed)",
           [(k, v, "", "") for k, v in
            sorted(workloads.exact_counts(sched, res).items())])
    ref = sorted(res.host_ref_s)
    _table("diagnostics (not gated)", [
        ("host.ref_ms", 1e3 * ref[len(ref) // 2], "ms",
         f"median of {len(ref)} canaries"),
        ("python.gc_ms", res.gc_s * 1e3, "ms",
         f"{res.gc_collections} collections"),
    ])


def _check(res) -> bool:
    ok = res.wrong == 0 and res.failed == 0
    if res.end.get("sharding.restarts", 0):
        print(f"FAIL: {res.end['sharding.restarts']} worker restarts")
        ok = False
    if res.wrong:
        print(f"FAIL: {res.wrong} wrong answers; first: {res.first_error}")
    for err in res.errors[:5]:
        print(f"FAIL: {err}")
    return ok


def main(argv=None, *, scale: float = 1.0) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    sched = schedule.build(args.workload, args.seed, args.seconds, scale)
    print(f"serving benchmark: {args.workload} seed={args.seed} "
          f"requests={len(sched.requests)} bulk={len(sched.bulk_keys)} "
          f"trace={args.trace}")
    state_root = os.path.join(OUT, f"state-{args.workload}-{os.getpid()}")
    shutil.rmtree(state_root, ignore_errors=True)
    os.makedirs(state_root)
    try:
        if args.trace:
            ok, attempted, failed, metrics = _traced(sched, state_root)
        else:
            res = workloads.run_pass(sched, state_root, setups=SETUPS)
            e2e = workloads.end_to_end(sched, res)
            _summary(sched, res, e2e)
            ok = _check(res)
            metrics = {k: {"value": e2e[k], "unit": u}
                       for k, u in END_TO_END.items()}
            attempted, failed = res.attempted, res.failed
    finally:
        shutil.rmtree(state_root, ignore_errors=True)
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


def layer_units() -> dict:
    """Every metric the traced run prints, with its unit.

    ``trace_overhead.<metric>`` is how much worse the traced pass read
    than the untraced pass of the same run, in percent.
    """
    units = {**layers.UNITS, **REPORTED}
    for name in (*END_TO_END, *REPORTED):
        units[f"trace_overhead.{name}"] = "%"
    return units


def _traced(sched, state_root: str):
    """An untraced pass, then a traced pass of the same schedule."""
    base = workloads.run_pass(
        sched, os.path.join(state_root, "untraced"), setups=1)
    e2e_base = workloads.end_to_end(sched, base)
    print("-- untraced pass")
    _summary(sched, base, e2e_base)
    span_dir = os.path.join(state_root, "spans")
    os.makedirs(span_dir)
    recorder = tracing.SpanRecorder(span_dir)
    recorder.install()
    try:
        traced = workloads.run_pass(
            sched, os.path.join(state_root, "traced"), setups=1,
            recorder=recorder)
    finally:
        recorder.uninstall()
    recorder.load_worker_spans()
    e2e_traced = workloads.end_to_end(sched, traced)
    print("-- traced pass")
    _summary(sched, traced, e2e_traced)
    values = layers.layer_metrics(
        recorder.spans, recorder.samples, traced.end, traced.workers,
        traced.write_keys, traced.host_ref_s, traced.gc_s,
        traced.gc_collections)
    for name in (*END_TO_END, *REPORTED):
        before, after = e2e_base.get(name, 0.0), e2e_traced.get(name, 0.0)
        if name in REPORTED:
            values[name] = before
        if name.endswith("_per_s"):  # higher is better: invert
            before, after = after, before
        values[f"trace_overhead.{name}"] = (
            100.0 * (after / before - 1.0) if before else 0.0)
    units = layer_units()
    _table("per-layer (traced pass; overheads are traced vs untraced)",
           [(k, values[k], u, "") for k, u in units.items()])
    print("spans inside requests: name, calls, busy ms, self ms")
    for name, calls, busy, own in layers.span_table(recorder.spans):
        print(f"  {name:<32} {calls:>7} {busy:>12.3f} {own:>12.3f}")
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    trace_path = os.path.join(
        OUT, "traces", f"{sched.workload}-seed{sched.seed}.json")
    recorder.dump(trace_path)
    print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    ok = _check(base) and _check(traced)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return (ok, base.attempted + traced.attempted,
            base.failed + traced.failed, metrics)


if __name__ == "__main__":
    sys.exit(main())
