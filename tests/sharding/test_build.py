"""Worker-side shard builds: the create / split / merge build protocol.

A range shard is built by the worker that serves it.  The coordinator
plans the cuts, starts one worker per shard -- all at once -- and
writes ``shards.json`` only after every worker has reported ready.  A
build that fails puts every new worker down: ``create`` leaves no
manifest and no live worker, a rebalance leaves the old topology
serving.
"""

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.durability.durable import DurableDILI
from repro.sharding import ShardedDILI, build_range_shards, read_manifest
from repro.sharding import worker as worker_mod
from repro.sharding.manifest import manifest_path
from repro.sharding.supervision import WorkerDied
from repro.simulate.cache import CacheSimulator
from repro.simulate.tracer import CostTracer


def mixed_keys(n=6_000, seed=5):
    """A uniform half and a clustered half, so the per-shard grid
    searches can pick different configs."""
    rng = np.random.default_rng(seed)
    uniform = rng.uniform(0.0, 1e7, size=n // 2)
    clustered = 2e7 + rng.lognormal(0.0, 2.0, size=n // 2) * 1e3
    return np.unique(np.concatenate((uniform, clustered)))


def live_children() -> set[int]:
    return {child.pid for child in mp.active_children()}


def block_dir(dirpath, name: str) -> None:
    """A plain file where a shard directory goes: that shard's worker
    fails at start-up (``DurableDILI`` cannot make its directory)."""
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, name), "w", encoding="utf-8") as fh:
        fh.write("not a shard directory\n")


@pytest.mark.parametrize("processes", [False, True])
def test_workers_choose_the_configs_local_tuning_plans(tmp_path, processes):
    keys = mixed_keys()
    plan = build_range_shards(keys, None, 3, tuning="local", seed=4)
    want = [{"omega": s.config.omega, "rho": s.config.rho}
            for s in plan.shards]
    assert len({(c["omega"], c["rho"]) for c in want}) > 1
    with ShardedDILI.create(
        tmp_path / "s", keys, num_shards=3, seed=4,
        processes=processes, sync=False,
    ) as fleet:
        status = fleet.status()
        got = fleet.get_batch(keys[::7])
    assert [s["config"] for s in status["shards"]] == want
    manifest = read_manifest(tmp_path / "s")
    assert [e.config for e in manifest.shards] == want
    assert [e.count for e in manifest.shards] == [
        len(s.keys) for s in plan.shards
    ]
    assert got == list(range(0, len(keys), 7))


@pytest.mark.parametrize("processes", [False, True])
def test_a_shard_that_cannot_start_fails_create(tmp_path, processes):
    keys = mixed_keys()
    before = live_children()
    block_dir(tmp_path / "s", "shard-0001")
    with pytest.raises(Exception, match="shard-0001|File exists"):
        ShardedDILI.create(
            tmp_path / "s", keys, num_shards=3, tuning="none",
            processes=processes, sync=False,
        )
    assert not os.path.exists(manifest_path(tmp_path / "s"))
    assert live_children() <= before


def test_a_build_that_raises_or_dies_fails_create(tmp_path, monkeypatch):
    """One worker raises in its bulk load, another dies there; the
    third is put down, wherever its build got to."""
    real = DurableDILI.bulk_load

    def bulk_load(self, keys, values=None):
        name = os.path.basename(self.dirpath)
        if name == "shard-0000":
            raise ValueError("planted build failure")
        if name == "shard-0002":
            os._exit(3)
        return real(self, keys, values)

    monkeypatch.setattr(DurableDILI, "bulk_load", bulk_load)
    before = live_children()
    with pytest.raises((ValueError, WorkerDied)):
        ShardedDILI.create(
            tmp_path / "s", mixed_keys(), num_shards=3, tuning="none",
            processes=True, sync=False,
        )
    assert not os.path.exists(manifest_path(tmp_path / "s"))
    assert live_children() <= before


def test_a_failed_split_build_keeps_the_old_topology(tmp_path):
    keys = mixed_keys()
    values = [int(i) * 3 for i in range(len(keys))]
    shadow = dict(zip(keys.tolist(), values))
    with ShardedDILI.create(
        tmp_path / "s", keys, values, num_shards=2, tuning="none",
        processes=True, sync=False,
    ) as fleet:
        fresh = keys[:200] + 0.5
        fleet.insert_batch(fresh, list(range(200)))
        shadow.update(zip(fresh.tolist(), range(200)))
        block_dir(tmp_path / "s", "shard-0003")
        workers = live_children()
        with pytest.raises(Exception, match="shard-0003|File exists"):
            fleet.split_shard(0)
        assert fleet.num_shards == 2
        assert live_children() == workers
        assert read_manifest(tmp_path / "s").generation == 1
        queries = np.concatenate((keys, fresh))
        assert fleet.get_batch(queries) == [
            shadow[k] for k in queries.tolist()
        ]
        # The failed attempt's names stay spent; the next split works.
        assert fleet.split_shard(0)["new"] == ["shard-0004", "shard-0005"]
        assert fleet.get_batch(queries) == [
            shadow[k] for k in queries.tolist()
        ]
        assert fleet.status()["health"] == "healthy"


def test_in_process_fleets_build_through_the_worker_in_turn(
    tmp_path, monkeypatch
):
    events = []
    real = worker_mod._build_shard

    def build_shard(dirpath, build, sync):
        events.append(("start", os.path.basename(dirpath)))
        durable = real(dirpath, build, sync)
        events.append(("end", os.path.basename(dirpath)))
        return durable

    monkeypatch.setattr(worker_mod, "_build_shard", build_shard)
    keys = mixed_keys()
    with ShardedDILI.create(
        tmp_path / "s", keys, num_shards=3, processes=False, sync=False,
    ) as fleet:
        assert fleet.get_batch(keys[::11]) == list(range(0, len(keys), 11))
        fleet.merge_shards(1)
    assert events == [
        ("start", "shard-0000"), ("end", "shard-0000"),
        ("start", "shard-0001"), ("end", "shard-0001"),
        ("start", "shard-0002"), ("end", "shard-0002"),
        ("start", "shard-0003"), ("end", "shard-0003"),
    ]


def _traced_read(fleet, queries) -> tuple[float, int]:
    tracer = CostTracer(CacheSimulator(2048))
    fleet.get_batch(queries, tracer)
    return tracer.total_cycles, tracer.cache_misses


def test_process_and_in_process_fleets_trace_alike(tmp_path):
    """Shard workers allocate region ids from ranges of their own, so
    nodes two workers create never alias in the merged trace -- not
    after writes, and not after a restart."""
    keys = mixed_keys(n=8_000)
    rng = np.random.default_rng(9)
    # The batch after the restart makes more nodes than the ids the
    # build spent on its transient BU-tree, so a restarted worker that
    # reused its recovered tree's ids would alias them.
    inserts = [
        np.setdiff1d(rng.uniform(0.0, 2.2e7, size=size), keys)
        for size in (1_500, 8_000)
    ]
    queries = np.concatenate((keys[::5], inserts[0][::3], inserts[1][::3]))
    traces = []
    for processes in (True, False):
        state = tmp_path / f"p{int(processes)}"
        fleet = ShardedDILI.create(
            state, keys, num_shards=2, tuning="none",
            processes=processes, sync=False,
        )
        fleet.insert_batch(inserts[0])
        fleet.republish()
        if processes:
            fleet.kill_worker(0)
        else:
            fleet.close()
            fleet = ShardedDILI.open(state, processes=False, sync=False)
        fleet.insert_batch(inserts[1])
        traces.append(_traced_read(fleet, queries))
        assert fleet.restarts == int(processes)
        fleet.close()
    assert traces[0] == traces[1]
