"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compare``   -- build the representative methods on one dataset and
  print a Table-4-style comparison.
* ``batch``     -- compare DILI's vectorized ``get_batch`` against the
  scalar ``get`` loop (wall-clock next to simulated cost).
* ``workload``  -- run one of the paper's named workload mixes against
  a chosen method and report throughput.
* ``mixed``     -- batched reads interleaved with batched writes on one
  serving DILI; reports write speedup and the plan-maintenance
  counters (patches / subtree splices / full recompiles).
* ``datasets``  -- summarize the five synthetic datasets.
* ``structure`` -- build a DILI and print its Table-6 statistics.
* ``bench``     -- run the paper's table/figure benchmarks (pytest
  under the hood), optionally filtered and teed to a report file.
* ``report``    -- run the core experiments programmatically (no
  pytest) and write a markdown report.
* ``snapshot``  -- build/open a durable index directory, checkpoint it,
  and optionally leave fresh inserts in the WAL tail.
* ``recover``   -- replay snapshot + WAL from a durable directory and
  report what survived (exit 3 when records failed to replay).
* ``chaos``     -- run a seeded chaos schedule and check its contract
  (no wrong read, no lost write, every schedule check held):
  ``--schedule tree`` (mixed workload under scheduled tree faults,
  online repair), ``lock`` (stalled writer lock, lock-free reads),
  ``plan`` (plan-store corruption sweep), ``kill`` (worker SIGKILLs
  and a mid-rebalance kill) or ``supervision`` (hangs, slow workers,
  crash loops); no ``--schedule`` runs ``tree`` then ``lock``.
* ``plan``      -- the memory-mapped plan store: ``plan write``
  publishes the compiled flat plan (and optionally a WAL-tail delta),
  and ``plan open`` opens the serving ladder and reports which rung
  serves.
* ``audit``     -- one-shot offline integrity sweep of a whole state
  directory: snapshot header + WAL framing + plan files and delta
  chains.  Exit 0 clean / 3 recoverable damage / 4 unrecoverable.
* ``check``     -- static analysis and sanitizers: ``check lint`` runs
  the CHK rule set over source trees, ``check dataflow`` runs only the
  interprocedural rules, and ``check sanitize`` measures a mixed
  workload with the tree sanitizer on vs off.
* ``shard``     -- sharded multi-process serving: ``shard init``
  partitions a dataset into per-shard plan directories, ``shard
  serve`` scatter/gathers an audited read workload over worker
  processes, ``shard bench`` measures batch-read scaling by worker
  count plus per-shard tuning vs one global config, and ``shard
  status`` reports per-shard key counts, plan generations, ops
  counters, health, restart ledgers and circuit-breaker states.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro import DILI, tree_stats
from repro.bench.harness import (
    DATASETS,
    current_scale,
    make_index,
    measure_batch_lookup,
    measure_lookup,
    method_names,
    query_sample,
)
from repro.bench.reporting import print_table
from repro.data import DATASET_NAMES, load_dataset, split_initial
from repro.baselines.base import UnsupportedOperation
from repro.workloads.generator import NAMED_SPECS, make_workload
from repro.workloads.runner import run_workload


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        default="logn",
        choices=sorted(DATASET_NAMES),
        help="synthetic dataset to generate (default: logn)",
    )
    parser.add_argument(
        "--keys",
        type=int,
        default=50_000,
        help="number of keys to generate (default: 50000)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="dataset RNG seed"
    )


def cmd_compare(args: argparse.Namespace) -> int:
    scale = current_scale()
    keys = load_dataset(args.dataset, args.keys, seed=args.seed)
    queries = query_sample(keys, min(3_000, args.keys // 4))
    rows = []
    for method in method_names(representative_only=True):
        index = make_index(method)
        index.bulk_load(keys)
        ns, misses, _ = measure_lookup(index, queries, scale)
        rows.append([method, ns, misses, index.memory_bytes() / 1e6])
    rows.sort(key=lambda r: r[1])
    print_table(
        f"Point lookups on {args.dataset} ({args.keys:,} keys)",
        ["Method", "lookup (ns)", "LL misses", "memory (MB)"],
        rows,
    )
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    scale = current_scale()
    keys = load_dataset(args.dataset, args.keys, seed=args.seed)
    queries = query_sample(keys, args.queries)
    index = DILI()
    index.bulk_load(keys)
    m = measure_batch_lookup(index, queries, scale)
    print_table(
        f"Batch lookups on {args.dataset} "
        f"({args.keys:,} keys, {args.queries:,} queries)",
        ["Metric", "value"],
        [
            ["sim lookup (ns/op)", m.sim_ns_per_op],
            ["sim LL misses/op", m.sim_misses_per_op],
            ["scalar loop (ms)", m.scalar_s * 1e3],
            ["batch call (ms)", m.batch_s * 1e3],
            ["compile+first batch (ms)", m.compile_s * 1e3],
            ["speedup (x)", m.speedup],
        ],
        first_col_width=26,
    )
    return 0


def cmd_mixed(args: argparse.Namespace) -> int:
    from repro.bench.harness import (
        measure_batch_write,
        measure_mixed_workload,
    )

    scale = current_scale()
    keys = load_dataset(args.dataset, args.keys, seed=args.seed)
    w = measure_batch_write(keys, scale, writes=args.writes)
    print_table(
        f"Batch vs scalar inserts on {args.dataset} "
        f"({args.keys:,} keys, {w.writes:,} writes, serving state)",
        ["Metric", "value"],
        [
            ["scalar loop (ms)", w.scalar_s * 1e3],
            ["batch call (ms)", w.batch_s * 1e3],
            ["speedup (x)", w.speedup],
            ["tree-only speedup (x)", w.tree_speedup],
            ["sim parity", 1.0 if w.sim_parity else 0.0],
        ],
        first_col_width=26,
    )
    m = measure_mixed_workload(
        keys, write_fraction=args.write_fraction
    )
    print_table(
        f"Mixed workload on {args.dataset} "
        f"({m.ops:,} ops, {args.write_fraction:.0%} writes)",
        ["Metric", "value"],
        [
            ["reads", float(m.reads)],
            ["writes", float(m.writes)],
            ["wall Mops", m.wall_mops],
            ["plan patches", float(m.patches)],
            ["subtree splices", float(m.subtree_recompiles)],
            ["full recompiles", float(m.full_recompiles)],
            ["plan alive", 1.0 if m.plan_alive else 0.0],
        ],
        first_col_width=26,
    )
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    scale = current_scale()
    if args.mix not in NAMED_SPECS:
        print(
            f"unknown mix {args.mix!r}; choose from "
            f"{sorted(NAMED_SPECS)}",
            file=sys.stderr,
        )
        return 2
    keys = load_dataset(args.dataset, args.keys, seed=args.seed)
    initial, pool = split_initial(keys, 0.5, seed=3)
    index = make_index(args.method)
    index.bulk_load(initial)
    spec = NAMED_SPECS[args.mix].scaled(min(args.ops, 2 * len(pool)))
    ops = make_workload(spec, keys, pool, seed=11)
    try:
        result = run_workload(
            index, ops, name=args.mix, cache_lines=scale.cache_lines
        )
    except UnsupportedOperation as exc:
        print(f"cannot run {args.mix} on {args.method}: {exc}",
              file=sys.stderr)
        return 2
    print(
        f"{args.method} on {args.dataset}/{args.mix}: "
        f"{result.sim_mops:.2f} Mops simulated "
        f"({result.sim_ns_per_op:.0f} ns/op), "
        f"{result.wall_mops:.3f} Mops wall-clock; "
        f"hits={result.hits:,} inserted={result.inserted:,} "
        f"deleted={result.deleted:,}"
    )
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    from repro.data import hardness_report

    rows = []
    for name in DATASETS:
        keys = load_dataset(name, args.keys, seed=args.seed)
        gaps = np.diff(keys)
        report = hardness_report(keys)
        rows.append(
            [
                name,
                float(np.median(gaps)),
                float(gaps.max()),
                report.gap_cv,
                report.tail_ratio,
                report.conflict_rate * 1000.0,
            ]
        )
    print_table(
        f"Synthetic datasets ({args.keys:,} keys each)",
        ["Dataset", "med gap", "max gap", "gap CV", "tail share",
         "est conf/1K"],
        rows,
    )
    return 0


def cmd_structure(args: argparse.Namespace) -> int:
    keys = load_dataset(args.dataset, args.keys, seed=args.seed)
    index = DILI()
    index.bulk_load(keys)
    st = tree_stats(index)
    print_table(
        f"DILI structure on {args.dataset} ({args.keys:,} keys)",
        ["Metric", "value"],
        [
            ["pairs", float(st.num_pairs)],
            ["min height", float(st.min_height)],
            ["max height", float(st.max_height)],
            ["avg height", st.avg_height],
            ["internal nodes", float(st.internal_nodes)],
            ["leaf nodes", float(st.leaf_nodes)],
            ["nested leaves", float(st.nested_leaves)],
            ["conflicts / 1K keys", st.conflicts_per_1k],
            ["memory (MB)", st.memory_bytes / 1e6],
        ],
        first_col_width=24,
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import subprocess
    from pathlib import Path

    bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
    if not bench_dir.is_dir():
        print(f"benchmarks directory not found at {bench_dir}",
              file=sys.stderr)
        return 2
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        str(bench_dir),
        # Plain pytest collection is scoped to tests/ (pyproject keeps
        # python_files at test_*.py); benchmarks opt back in here.
        "-o",
        "python_files=bench_*.py",
        "--benchmark-only",
        "-q",
    ]
    if args.filter:
        cmd += ["-k", args.filter]
    env = dict(os.environ, REPRO_SCALE=args.scale)
    if args.output:
        with open(args.output, "w") as fh:
            proc = subprocess.run(
                cmd, env=env, stdout=fh, stderr=subprocess.STDOUT
            )
        print(f"report written to {args.output}")
    else:
        proc = subprocess.run(cmd, env=env)
    return proc.returncode


def cmd_report(args: argparse.Namespace) -> int:
    from repro.bench.experiments import CORE_EXPERIMENTS, run_report
    from repro.bench.harness import SCALES, BuildCache

    names = args.experiments or list(CORE_EXPERIMENTS)
    unknown = [n for n in names if n not in CORE_EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiments {unknown}; choose from "
            f"{sorted(CORE_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    cache = BuildCache(SCALES[args.scale])
    report = run_report(cache, names)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report)
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.durability import DurableDILI

    index = DurableDILI(args.dir, sync=args.sync)
    if len(index) == 0:
        keys = load_dataset(args.dataset, args.keys, seed=args.seed)
        index.bulk_load(keys)
        print(
            f"bulk-loaded {len(index):,} {args.dataset} keys into "
            f"{args.dir}"
        )
    index.snapshot()
    print(
        f"snapshot written (last seqno {index.wal.last_seqno}, "
        f"{len(index):,} keys)"
    )
    if args.wal_tail > 0:
        rng = np.random.default_rng(args.seed + 1)
        added = 0
        while added < args.wal_tail:
            key = float(rng.uniform(0.0, 2.0 ** 52))
            if index.insert(key, "wal-tail"):
                added += 1
        print(
            f"left {added:,} inserts in the WAL tail "
            f"({index.wal.size_bytes():,} bytes, not snapshotted)"
        )
    index.validate()
    index.close()
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    from repro.durability import recover

    try:
        result = recover(args.dir, validate=True)
    except (ValueError, AssertionError) as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"recovered {len(result.index):,} keys from {args.dir}: "
        f"snapshot seqno {result.snapshot_seqno}, "
        f"replayed {result.replayed} WAL records "
        f"(skipped {result.skipped} already snapshotted)"
    )
    if result.wal_truncated:
        print(
            f"WAL tail stopped early: {result.wal_reason} "
            f"(valid prefix {result.wal_valid_offset} bytes)"
        )
    print("validate() passed")
    if result.failed:
        # Recovery is lossy, not failed: the index is valid but some
        # WAL records could not be replayed.  Distinct exit code so
        # scripts can tell "complete" from "partial".
        print(
            f"warning: {result.failed} WAL record(s) failed to replay "
            f"and were skipped -- recovered state is incomplete",
            file=sys.stderr,
        )
        return 3
    return 0


#: ``repro chaos --schedule`` name -> (module, schedule function).
CHAOS_SCHEDULES = {
    "tree": ("repro.resilience.chaos", "run_chaos"),
    "lock": ("repro.resilience.chaos", "run_lock_chaos"),
    "plan": ("repro.planstore.chaos", "run_plan_chaos"),
    "kill": ("repro.sharding.chaos", "run_shard_chaos"),
    "supervision": ("repro.sharding.chaos", "run_supervision_chaos"),
}


def _print_chaos(report, wall_s: float) -> None:
    from repro.bench.reporting import format_table

    rows = [
        ["reads checked", report.reads],
        ["wrong reads", report.wrong_reads],
        ["writes", report.writes],
        ["lost writes", report.lost_writes],
        *([name, value] for name, value in report.counts.items()),
        *([f"check {name}", "held" if held else "FAILED"]
          for name, held in report.checks.items()),
    ]
    print(
        format_table(
            f"Chaos schedule {report.schedule}, seed {report.seed} "
            f"({wall_s:.1f} s)",
            ["Metric", "value"],
            rows,
            first_col_width=40,
        )
    )
    for event in report.events:
        print(f"  - {event}")
    print(
        f"{report.schedule}: contract "
        f"{'held' if report.ok else 'VIOLATED'}\n"
    )


def cmd_chaos(args: argparse.Namespace) -> int:
    import importlib
    import json
    import time

    reports = []
    for name in [args.schedule] if args.schedule else ["tree", "lock"]:
        module, func = CHAOS_SCHEDULES[name]
        schedule = getattr(importlib.import_module(module), func)
        start = time.perf_counter()
        report = schedule(seed=args.seed)
        reports.append(report)
        if not args.json:
            _print_chaos(report, time.perf_counter() - start)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    if all(r.ok for r in reports):
        return 0
    print("chaos contract VIOLATED", file=sys.stderr)
    return 1


def cmd_plan_write(args: argparse.Namespace) -> int:
    import time

    from repro.durability import DurableDILI
    from repro.planstore import PlanDirectory

    index = DurableDILI(args.dir)
    if len(index) == 0:
        keys = load_dataset(args.dataset, args.keys, seed=args.seed)
        index.bulk_load(keys)
        print(
            f"bulk-loaded {len(index):,} {args.dataset} keys into "
            f"{args.dir}"
        )
    start = time.perf_counter()
    generation = index.publish_plan()
    elapsed_ms = (time.perf_counter() - start) * 1e3
    path = PlanDirectory.for_state_dir(args.dir).base_path(generation)
    print(
        f"published generation {generation} at LSN "
        f"{index.wal.last_seqno} ({os.path.getsize(path):,} bytes, "
        f"{elapsed_ms:.1f} ms): {path}"
    )
    if args.tail:
        delta = index.publish_tail()
        if delta is None:
            print("WAL tail already covered; no delta written")
        else:
            print(f"published delta: {delta}")
    index.close()
    return 0


def cmd_plan_open(args: argparse.Namespace) -> int:
    import time

    from repro.planstore import MmapDILI

    start = time.perf_counter()
    served = MmapDILI(args.dir)
    open_ms = (time.perf_counter() - start) * 1e3
    rung_names = {1: "newest plan", 2: "older generation",
                  3: "recovery rebuild", 4: "DEGRADED"}
    print(
        f"{args.dir}: rung {served.rung} ({rung_names[served.rung]}), "
        f"open {open_ms:.2f} ms"
    )
    if served.generation is not None:
        print(
            f"  generation {served.generation} at LSN {served.wal_lsn}, "
            f"{len(served):,} keys"
        )
    for event in served.events:
        print(f"  {event}")
    if args.verify and served.rung <= 2:
        start = time.perf_counter()
        served.verify()
        print(
            f"  buffers verified in "
            f"{(time.perf_counter() - start) * 1e3:.1f} ms "
            f"(now serving rung {served.rung})"
        )
    served.close()
    return 0 if served.rung < 4 else 1


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.check import audit_directory, audit_plans

    if not os.path.isdir(args.dir):
        print(f"audit failed: {args.dir} is not a directory",
              file=sys.stderr)
        return 2
    try:
        wal_report = audit_directory(args.dir)
        plan_report = audit_plans(args.dir)
    except FileNotFoundError as exc:
        print(f"audit failed: {exc}", file=sys.stderr)
        return 2
    print(
        f"{wal_report.directory}: snapshot seqno "
        f"{wal_report.snapshot_seqno}, {wal_report.wal_records} WAL "
        f"records ({wal_report.wal_valid_bytes:,} valid bytes)"
    )
    print(
        f"plans: {plan_report.generations} generation(s) "
        f"({plan_report.verified_generations} verified clean), "
        f"{plan_report.deltas} delta(s), "
        f"{plan_report.quarantined} quarantined"
    )
    findings = list(wal_report.findings) + list(plan_report.findings)
    for finding in findings:
        print(f"  {finding.format()}")
    if not findings:
        print("clean")
        return 0
    if wal_report.damaged or plan_report.damaged:
        print(
            "unrecoverable damage: some acknowledged state cannot be "
            "reconstructed",
            file=sys.stderr,
        )
        return 4
    print(
        "recoverable damage only: recovery/the serving ladder will "
        "route around it"
    )
    return 3


def _emit_findings(findings, fmt: str, clean_message: str) -> int:
    import json

    active = [f for f in findings if not f.waived]
    if fmt == "json":
        print(json.dumps([f.to_json() for f in findings], indent=2))
        return 1 if active else 0
    for finding in active:
        print(finding.format())
    if active:
        print(f"{len(active)} finding(s)", file=sys.stderr)
        return 1
    print(clean_message)
    return 0


def cmd_check_lint(args: argparse.Namespace) -> int:
    from repro.check.dataflow import analyze_parsed
    from repro.check.lint import lint_parsed
    from repro.check.parsing import parse_paths

    paths = args.paths or ["src", "benchmarks"]
    include_waived = args.format == "json"
    # One parse per file, shared by the pattern rules (CHK001-009)
    # and the dataflow rules (CHK010-013).
    parsed = parse_paths(paths)
    findings = lint_parsed(parsed, include_waived=include_waived)
    findings += analyze_parsed(parsed, include_waived=include_waived)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return _emit_findings(
        findings, args.format,
        f"lint clean ({', '.join(str(p) for p in paths)})",
    )


def cmd_check_dataflow(args: argparse.Namespace) -> int:
    from repro.check.dataflow import analyze_paths

    paths = args.paths or ["src"]
    include_waived = args.format == "json"
    findings = analyze_paths(paths, include_waived=include_waived)
    return _emit_findings(
        findings, args.format,
        f"dataflow clean ({', '.join(str(p) for p in paths)})",
    )


def cmd_check_sanitize(args: argparse.Namespace) -> int:
    import time

    from repro.check import SanitizerViolation, TreeSanitizer, verify_tree

    keys = load_dataset(args.dataset, args.keys, seed=args.seed)
    initial, extra = split_initial(keys, 0.8)
    rng = np.random.default_rng(args.seed + 1)
    rounds = max(1, args.rounds)
    chunks = np.array_split(extra, rounds)

    def run(sanitizer: TreeSanitizer | None):
        index = DILI()
        index.sanitizer = sanitizer
        start = time.perf_counter()
        index.bulk_load(initial)
        for chunk in chunks:
            if len(chunk):
                index.insert_batch(chunk, [f"v{k}" for k in chunk])
            sample = rng.choice(initial, size=min(2048, len(initial)),
                                replace=False)
            index.get_batch(sample)
            victims = sample[: len(sample) // 8]
            index.update_batch(victims, ["updated"] * len(victims))
            index.delete_batch(victims)
            index.insert_batch(victims, ["restored"] * len(victims))
        elapsed = time.perf_counter() - start
        return elapsed, index

    try:
        base_elapsed, _ = run(None)
        sanitizer = TreeSanitizer()
        san_elapsed, index = run(sanitizer)
        verify_tree(index)
    except SanitizerViolation as exc:
        print(f"sanitizer violation: {exc}", file=sys.stderr)
        return 1
    ratio = san_elapsed / base_elapsed if base_elapsed > 0 else float("inf")
    print(
        f"mixed workload on {len(initial):,} {args.dataset} keys, "
        f"{rounds} rounds of batched insert/read/update/delete"
    )
    print(f"  baseline      : {base_elapsed * 1e3:10.1f} ms")
    print(f"  sanitized     : {san_elapsed * 1e3:10.1f} ms")
    print(
        f"  overhead      : {ratio:10.2f}x  "
        f"({sanitizer.checks} checks, {sanitizer.full_checks} deep verifies)"
    )
    print("final verify_tree() passed")
    return 0


def _print_shard_status(status: dict) -> None:
    from repro.bench.reporting import format_table

    router = status.get("router", {})
    print(
        f"{status['dir']}: generation {status['generation']}, "
        f"{status['num_shards']} shard(s), partition "
        f"{status['partition']}, health {status['health']}, "
        f"restarts {status['restarts']}, rebalances "
        f"{status['rebalances']}"
    )
    if router:
        print(
            f"router: {router.get('kind')} over "
            f"{len(router.get('boundaries', []))} boundary key(s), "
            f"{router.get('routed', 0):,} routed"
        )
    rows = []
    for i, shard in enumerate(status["shards"]):
        ops = shard.get("ops", {})
        sup = shard.get("supervision", {})
        config = shard.get("config", {})
        rows.append(
            [
                f"{i}:{shard.get('name', '?')}",
                float(shard.get("keys", 0)),
                float(config.get("omega", 0)),
                float(config.get("rho", 0)),
                float(shard.get("generation") or 0),
                float(shard.get("rung") or 0),
                float(ops.get("reads", 0)),
                float(ops.get("writes", 0)),
                float(shard.get("wal_lsn", 0)),
                float(sup.get("restarts", 0)),
            ]
        )
    print(
        format_table(
            "Shards (health: "
            + ", ".join(
                str(s.get("health")) for s in status["shards"]
            )
            + ")",
            ["shard", "keys", "omega", "rho", "gen", "rung", "reads",
             "writes", "lsn", "rst"],
            rows,
            first_col_width=16,
        )
    )
    parts = []
    for i, shard in enumerate(status["shards"]):
        sup = shard.get("supervision", {})
        breaker = sup.get("breaker", {})
        state = breaker.get("state", "closed")
        up = "up" if sup.get("up", True) else "down"
        note = f"{i}:{state}/{up}"
        if sup.get("consecutive_failures"):
            note += f"({sup['consecutive_failures']} fails)"
        parts.append(note)
    print(
        f"supervision: {' '.join(parts)}; "
        f"{status.get('open_breakers', 0)} open breaker(s), "
        f"background probe "
        f"{'on' if status.get('supervise') else 'off'}"
    )


def _shard_dataset_params(args: argparse.Namespace) -> tuple[str, int, int]:
    """Dataset parameters for a sharded dir: the recorded ones win.

    ``shard init`` records (dataset, keys, seed) in ``dataset.json`` so
    ``serve`` audits against the keyset the directory was actually
    built from; the CLI flags only apply to directories without a
    record (and a mismatch between flags and record is reported).
    """
    import json

    path = os.path.join(args.dir, "dataset.json")
    try:
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        dataset = str(rec["dataset"])
        num_keys = int(rec["keys"])
        seed = int(rec["seed"])
    except (OSError, ValueError, KeyError):
        return args.dataset, args.keys, args.seed
    if (dataset, num_keys, seed) != (args.dataset, args.keys, args.seed):
        print(
            f"using recorded dataset {dataset}/{num_keys}/seed {seed} "
            f"from {path} (flags ignored)"
        )
    return dataset, num_keys, seed


def cmd_shard_init(args: argparse.Namespace) -> int:
    import json

    from repro.sharding import ShardedDILI

    if os.path.isdir(args.dir) and os.listdir(args.dir):
        print(f"refusing to init non-empty directory {args.dir}",
              file=sys.stderr)
        return 2
    # mmap_mode="r" so concurrent worker processes share one page-cache
    # copy of the dataset instead of each materializing it.
    keys = load_dataset(
        args.dataset, args.keys, seed=args.seed, mmap_mode="r"
    )
    keys = np.asarray(keys)
    with ShardedDILI.create(
        args.dir,
        keys,
        list(range(len(keys))),
        num_shards=args.shards,
        partition=args.partition,
        tuning=args.tuning,
        processes=False,
        sync=args.sync,
    ) as index:
        status = index.status()
    with open(
        os.path.join(args.dir, "dataset.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(
            {"dataset": args.dataset, "keys": args.keys,
             "seed": args.seed},
            fh,
        )
    print(
        f"sharded {len(keys):,} {args.dataset} keys into "
        f"{args.shards} {args.partition} shard(s) "
        f"(tuning={args.tuning}) under {args.dir}"
    )
    _print_shard_status(status)
    return 0


def cmd_shard_serve(args: argparse.Namespace) -> int:
    import time

    from repro.sharding import ShardedDILI

    dataset, num_keys, seed = _shard_dataset_params(args)
    rng = np.random.default_rng(seed + 1)
    keys = np.asarray(
        load_dataset(dataset, num_keys, seed=seed, mmap_mode="r")
    )
    wrong = reads = 0
    wall = 0.0
    with ShardedDILI.open(
        args.dir, processes=not args.no_processes, sync=args.sync
    ) as index:
        for _ in range(args.rounds):
            idx = rng.integers(0, len(keys), size=args.batch)
            queries = keys[idx]
            t0 = time.perf_counter()
            got = index.get_batch(queries)
            wall += time.perf_counter() - t0
            reads += len(queries)
            wrong += sum(
                1 for g, e in zip(got, idx.tolist()) if g != int(e)
            )
        status = index.status()
    ops = reads / wall if wall > 0 else 0.0
    print(
        f"served {reads:,} audited reads in {args.rounds} batches: "
        f"{ops:,.0f} lookups/s, {wrong} wrong"
    )
    _print_shard_status(status)
    if wrong:
        print("serve audit FAILED: wrong reads", file=sys.stderr)
        return 1
    return 0


def cmd_shard_bench(args: argparse.Namespace) -> int:
    from repro.bench.harness import (
        measure_shard_tuning,
        measure_sharded_throughput,
    )
    from repro.bench.reporting import print_table

    keys = np.asarray(
        load_dataset(args.dataset, args.keys, seed=args.seed,
                     mmap_mode="r")
    )
    workers = sorted({int(w) for w in args.workers.split(",")})
    m = measure_sharded_throughput(
        keys, worker_counts=workers, batch=args.batch
    )
    rows = [
        [f"{n} worker(s)", m.ops_per_s[n], m.scaling(n)]
        for n in m.worker_counts
    ]
    print_table(
        f"Sharded batch reads on {args.dataset} "
        f"({m.num_keys:,} keys, {m.batch:,}-key batches, "
        f"{m.cpu_count} CPU(s))",
        ["Workers", "lookups/s", "scaling x"],
        rows,
        first_col_width=14,
    )
    if m.wrong_reads:
        print(f"{m.wrong_reads} wrong reads", file=sys.stderr)
        return 1
    t = measure_shard_tuning(num_shards=args.shards)
    print_table(
        f"Per-shard tuning vs one global config "
        f"({t.num_shards} shards, mixed-distribution keys)",
        ["Variant", "sim cycles/op"],
        [
            [f"global {t.global_config}", t.global_cycles_per_op],
            ["per-shard " + "/".join(
                f"({o},{r})" for o, r in t.local_configs
            ), t.local_cycles_per_op],
        ],
        first_col_width=34,
    )
    print(f"per-shard tuning gain: {t.gain_pct:.2f}%")
    return 0


def cmd_shard_status(args: argparse.Namespace) -> int:
    from repro.sharding import ShardedDILI

    if not os.path.isdir(args.dir):
        print(f"{args.dir} is not a directory", file=sys.stderr)
        return 2
    # In-process workers: status inspection must not spawn processes
    # or contend with a live serving coordinator's directories.
    with ShardedDILI.open(args.dir, processes=False) as index:
        status = index.status()
    _print_shard_status(status)
    healthy = (
        status["health"] == "healthy"
        and status.get("open_breakers", 0) == 0
        and all(
            s.get("health") in (None, "healthy")
            for s in status["shards"]
        )
    )
    return 0 if healthy else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser(
        "compare", help="Table-4-style method comparison"
    )
    _add_common(compare)
    compare.set_defaults(func=cmd_compare)

    batch = sub.add_parser(
        "batch", help="batch-vs-scalar lookup comparison on DILI"
    )
    _add_common(batch)
    batch.add_argument(
        "--queries",
        type=int,
        default=100_000,
        help="point queries per measurement (default: 100000)",
    )
    batch.set_defaults(func=cmd_batch)

    mixed = sub.add_parser(
        "mixed",
        help="batched mixed read/write workload with plan counters",
    )
    _add_common(mixed)
    mixed.add_argument(
        "--writes",
        type=int,
        default=256,
        help="fresh keys per write batch (default: 256)",
    )
    mixed.add_argument(
        "--write-fraction",
        type=float,
        default=0.05,
        help="write share of the mixed workload (default: 0.05)",
    )
    mixed.set_defaults(func=cmd_mixed)

    workload = sub.add_parser(
        "workload", help="run a named workload mix"
    )
    _add_common(workload)
    workload.add_argument(
        "--method",
        default="DILI",
        choices=method_names(),
        help="index to exercise (default: DILI)",
    )
    workload.add_argument(
        "--mix",
        default="Read-Heavy",
        help=f"one of {sorted(NAMED_SPECS)}",
    )
    workload.add_argument(
        "--ops", type=int, default=20_000, help="operations to run"
    )
    workload.set_defaults(func=cmd_workload)

    datasets = sub.add_parser("datasets", help="summarize the datasets")
    datasets.add_argument("--keys", type=int, default=20_000)
    datasets.add_argument("--seed", type=int, default=7)
    datasets.set_defaults(func=cmd_datasets)

    structure = sub.add_parser(
        "structure", help="DILI Table-6 statistics"
    )
    _add_common(structure)
    structure.set_defaults(func=cmd_structure)

    bench = sub.add_parser(
        "bench", help="run the paper's table/figure benchmarks"
    )
    bench.add_argument(
        "--filter",
        default="",
        help="pytest -k expression, e.g. 'table4 or fig7'",
    )
    bench.add_argument(
        "--scale",
        default="medium",
        choices=["small", "medium", "large"],
        help="benchmark scale (REPRO_SCALE)",
    )
    bench.add_argument(
        "--output", default="", help="tee the report to this file"
    )
    bench.set_defaults(func=cmd_bench)

    report = sub.add_parser(
        "report", help="markdown report of the core experiments"
    )
    report.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (default: all core experiments)",
    )
    report.add_argument(
        "--scale",
        default="small",
        choices=["small", "medium", "large"],
        help="benchmark scale (default small for interactive use)",
    )
    report.add_argument(
        "-o", "--output", default="", help="write to this file"
    )
    report.set_defaults(func=cmd_report)

    snapshot = sub.add_parser(
        "snapshot",
        help="checkpoint a durable index directory (WAL + snapshot)",
    )
    _add_common(snapshot)
    snapshot.add_argument(
        "--dir", required=True, help="durable state directory"
    )
    snapshot.add_argument(
        "--wal-tail",
        type=int,
        default=0,
        help="inserts to apply AFTER the snapshot, left in the WAL "
        "for `recover` to replay (default: 0)",
    )
    snapshot.add_argument(
        "--no-sync",
        dest="sync",
        action="store_false",
        help="skip per-append fsync (faster, benchmark use only)",
    )
    snapshot.set_defaults(func=cmd_snapshot)

    recover_p = sub.add_parser(
        "recover",
        help="rebuild an index from snapshot + WAL and validate it",
    )
    recover_p.add_argument(
        "--dir", required=True, help="durable state directory"
    )
    recover_p.set_defaults(func=cmd_recover)

    chaos = sub.add_parser(
        "chaos",
        help="run a seeded chaos schedule and check its contract",
    )
    chaos.add_argument(
        "--schedule",
        default=None,
        choices=list(CHAOS_SCHEDULES),
        help="schedule to run (default: tree, then lock)",
    )
    chaos.add_argument("--seed", type=int, default=7, help="master seed")
    chaos.add_argument(
        "--json", action="store_true",
        help="print the report(s) as JSON",
    )
    chaos.set_defaults(func=cmd_chaos)

    plan = sub.add_parser(
        "plan", help="memory-mapped plan store (publish / serve)"
    )
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)

    plan_write = plan_sub.add_parser(
        "write",
        help="publish the compiled flat plan as a new base generation",
    )
    _add_common(plan_write)
    plan_write.add_argument(
        "--dir", required=True, help="durable state directory"
    )
    plan_write.add_argument(
        "--tail",
        action="store_true",
        help="also publish the WAL tail as a delta file",
    )
    plan_write.set_defaults(func=cmd_plan_write)

    plan_open = plan_sub.add_parser(
        "open",
        help="open the serving ladder and report which rung serves",
    )
    plan_open.add_argument(
        "--dir", required=True, help="durable state directory"
    )
    plan_open.add_argument(
        "--verify",
        action="store_true",
        help="eagerly CRC-verify the served plan's buffers",
    )
    plan_open.set_defaults(func=cmd_plan_open)

    audit_p = sub.add_parser(
        "audit",
        help="one-shot integrity sweep: snapshot + WAL + plan store",
    )
    audit_p.add_argument("dir", help="durable state directory")
    audit_p.set_defaults(func=cmd_audit)

    check = sub.add_parser(
        "check", help="static analysis and runtime sanitizers"
    )
    check_sub = check.add_subparsers(dest="check_command", required=True)

    lint = check_sub.add_parser(
        "lint",
        help="run every CHK rule (pattern + dataflow) over source trees",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src benchmarks)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format; json includes pragma-waived findings",
    )
    lint.set_defaults(func=cmd_check_lint)

    dataflow = check_sub.add_parser(
        "dataflow",
        help="run only the interprocedural rules CHK010-CHK013",
    )
    dataflow.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src)",
    )
    dataflow.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format; json includes pragma-waived findings",
    )
    dataflow.set_defaults(func=cmd_check_dataflow)

    sanitize = check_sub.add_parser(
        "sanitize",
        help="run a mixed workload with the tree sanitizer on vs off",
    )
    _add_common(sanitize)
    sanitize.add_argument(
        "--rounds",
        type=int,
        default=8,
        help="batched insert/read/update/delete rounds (default: 8)",
    )
    sanitize.set_defaults(func=cmd_check_sanitize)

    shard = sub.add_parser(
        "shard", help="sharded multi-process serving"
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    shard_init = shard_sub.add_parser(
        "init",
        help="partition a dataset into per-shard plan directories",
    )
    _add_common(shard_init)
    shard_init.add_argument(
        "--dir", required=True, help="sharded state directory"
    )
    shard_init.add_argument(
        "--shards", type=int, default=2,
        help="shard count (default: 2)",
    )
    shard_init.add_argument(
        "--partition", default="range", choices=["range", "aligned"],
        help="range = quantile cuts; aligned = split the global tree "
        "at the root (trace-parity serving)",
    )
    shard_init.add_argument(
        "--tuning", default="local", choices=["local", "global", "none"],
        help="per-shard bulk-load parameter fitting (default: local)",
    )
    shard_init.add_argument(
        "--no-sync", dest="sync", action="store_false",
        help="skip per-append fsync (faster, benchmark use only)",
    )
    shard_init.set_defaults(func=cmd_shard_init)

    shard_serve = shard_sub.add_parser(
        "serve",
        help="serve an audited read workload over worker processes",
    )
    _add_common(shard_serve)
    shard_serve.add_argument(
        "--dir", required=True, help="sharded state directory"
    )
    shard_serve.add_argument(
        "--rounds", type=int, default=20,
        help="read batches to serve (default: 20)",
    )
    shard_serve.add_argument(
        "--batch", type=int, default=4_096,
        help="keys per batch (default: 4096)",
    )
    shard_serve.add_argument(
        "--no-processes", action="store_true",
        help="serve in-process instead of spawning workers",
    )
    shard_serve.add_argument(
        "--no-sync", dest="sync", action="store_false",
        help="skip per-append fsync on shard WALs",
    )
    shard_serve.set_defaults(func=cmd_shard_serve)

    shard_bench = shard_sub.add_parser(
        "bench",
        help="batch-read scaling by worker count + tuning comparison",
    )
    _add_common(shard_bench)
    shard_bench.add_argument(
        "--workers", default="1,2",
        help="comma-separated worker counts (default: 1,2)",
    )
    shard_bench.add_argument(
        "--batch", type=int, default=32_768,
        help="keys per measured get_batch call (default: 32768)",
    )
    shard_bench.add_argument(
        "--shards", type=int, default=3,
        help="shards in the tuning comparison (default: 3)",
    )
    shard_bench.set_defaults(func=cmd_shard_bench)

    shard_status = shard_sub.add_parser(
        "status",
        help="per-shard key counts, plan versions, ops and health",
    )
    shard_status.add_argument(
        "--dir", required=True, help="sharded state directory"
    )
    shard_status.set_defaults(func=cmd_shard_status)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
