"""Self-test of the serving benchmark at a tiny size.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest benchmarks/serving -q

Checks that every metric named in ``BENCHMARK.json`` prints with its
unit (untraced and traced), that one injected wrong answer fails the
run, that every timed layer metric is backed by spans, that a rerun
with the same seed repeats every count exactly, and that the files pass
the repository's lint gate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402

#: Keyset and batch shrink factor for the smoke runs.
SCALE = 0.02

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

#: Span behind each timed per-layer metric, and the workloads on which
#: the smoke run must record it.
SPANS = {
    "core.bulk_load_s": ("core.bulk_load", run.WORKLOADS),
    "core.flat.compile_ms": ("core.flat.compile", run.WORKLOADS),
    "core.flat.descent_ms": ("core.flat.descent", run.WORKLOADS),
    "core.flat.gather_ms": ("core.flat.gather", ("multiget", "durable-rw")),
    "core.flat.maintain_ms": ("core.flat.maintain", ("durable-rw",)),
    "core.dili.mutate_ms": ("core.dili.mutate",
                            ("durable-rw", "sharded-rw")),
    "core.concurrent.lock_wait_ms": ("core.concurrent.lock_wait",
                                     ("durable-rw",)),
    "durability.wal.append_ms": ("durability.wal.append",
                                 ("durable-rw", "sharded-rw")),
    "durability.snapshot_ms": ("durability.snapshot",
                               ("durable-rw", "sharded-rw")),
    "durability.recover_ms": ("durability.recover",
                              ("durable-rw", "sharded-rw")),
    "planstore.publish_base_ms": ("planstore.publish_base",
                                  ("sharded-rw",)),
    "planstore.publish_delta_ms": ("planstore.publish_delta",
                                   ("sharded-rw",)),
    "planstore.open_ms": ("planstore.open", ("sharded-rw",)),
    "planstore.verify_ms": ("planstore.verify", ("sharded-rw",)),
    "planstore.get_ms": ("planstore.get", ("sharded-rw",)),
    "sharding.partition_s": ("sharding.partition", ("sharded-rw",)),
    "sharding.spawn_ms": ("sharding.spawn", ("sharded-rw",)),
    "sharding.route_ms": ("sharding.route", ("sharded-rw",)),
    "sharding.send_ms": ("sharding.send", ("sharded-rw",)),
    "sharding.worker_ms": ("sharding.worker", ("sharded-rw",)),
}


def _run(capsys, workload: str, trace: int, seed: int = 3):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace)], scale=SCALE)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], float), metric["name"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(capsys, workload):
    code, result = _run(capsys, workload, trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    _assert_metrics(result, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_layer_metric_with_spans(capsys, workload):
    code, result = _run(capsys, workload, trace=1)
    assert code == 0 and result["correct"]
    _assert_metrics(result, SPEC["per_layer"])
    trace = os.path.join(run.OUT, "traces", f"{workload}-seed3.json")
    with open(trace) as fh:
        names = {span[0] for span in json.load(fh)["spans"]}
    for metric, (span, where) in SPANS.items():
        if workload in where:
            assert span in names, (metric, span)


def test_every_timed_layer_metric_is_backed_by_a_span():
    timed = {name for name, unit in layers.UNITS.items()
             if unit in ("ms", "s")}
    derived = {"sharding.transport_ms", "python.gc_ms", "unattributed_ms",
               "host.ref_ms"}
    assert timed - derived == set(SPANS)


def test_injected_wrong_answer_fails_the_run(capsys, monkeypatch):
    from repro.core.dili import DILI

    original = DILI.get_batch
    calls = []

    def wrong_once(self, keys, *args, **kwargs):
        out = original(self, keys, *args, **kwargs)
        calls.append(1)
        if len(calls) == 5:
            out[0] = "wrong"
        return out

    monkeypatch.setattr(DILI, "get_batch", wrong_once)
    code, result = _run(capsys, "multiget", trace=0)
    assert code != 0
    assert result["correct"] is False


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_rerun_with_same_seed_repeats_every_count(tmp_path, workload):
    def counts(tag: str) -> dict:
        state = tmp_path / tag
        script = (
            "import json, sys\n"
            f"sys.path[:0] = [{HERE!r}, {SRC!r}]\n"
            "import schedule, workloads\n"
            f"sched = schedule.build({workload!r}, 5, 1, {SCALE!r})\n"
            f"res = workloads.run_pass(sched, {str(state)!r}, setups=1)\n"
            "print(json.dumps(workloads.exact_counts(sched, res)))\n"
        )
        out = subprocess.run([sys.executable, "-c", script], check=True,
                             capture_output=True, text=True, timeout=300)
        return json.loads(out.stdout.strip().splitlines()[-1])

    first = counts("a")
    assert first == counts("b")
    assert "sim_ns_per_lookup" in first
    if workload != "multiget":
        assert first["durability.wal.bytes"] > 0
        assert first["disk_bytes_per_key"] > 0


def test_benchmark_files_pass_the_lint_gate():
    out = subprocess.run(
        [sys.executable, "-m", "repro", "check", "lint", HERE],
        env={**os.environ, "PYTHONPATH": SRC}, cwd=ROOT,
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "benchmarks" / "serving"
    bench.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "multiget",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
