"""One writer per state directory.

``DurableDILI`` takes an exclusive, non-blocking ``flock`` on the
directory's lock file before recovery reads anything, and the WAL owns
it: ``close()`` (or ``wal.close()``, the crash tests' kill -9) releases
it, and so does the death of the holding process.  A second writer's
open raises before it changes anything.  Readers take no lock.
"""

import fcntl
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.check import audit_directory, audit_plans
from repro.durability import DurableDILI, WriterLockedError, recover, scan_wal
from repro.durability.recovery import SNAPSHOT_NAME, WAL_NAME
from repro.planstore.serve import MmapDILI

SRC = Path(__file__).resolve().parents[2] / "src"
KEYS = np.arange(0.0, 4000.0, 2.0)
LATE = 10_000.0 + np.arange(8.0)


def _files(state) -> dict:
    return {
        name: (Path(state) / name).read_bytes()
        for name in (SNAPSHOT_NAME, WAL_NAME)
    }


def test_a_second_writer_is_refused_and_no_write_is_lost(tmp_path):
    writer = DurableDILI(tmp_path)
    writer.bulk_load(KEYS, list(range(len(KEYS))))
    writer.publish_plan()
    writer.insert_batch(np.arange(64.0) * 2.0 + 1.0, list(range(64)))
    before = _files(tmp_path)
    with pytest.raises(WriterLockedError):
        DurableDILI(tmp_path).snapshot()
    assert _files(tmp_path) == before
    for i, key in enumerate(LATE):
        writer.insert(float(key), i)  # each one acknowledged

    assert len(scan_wal(writer.wal.path).records) == 1 + len(LATE)
    recovered = recover(tmp_path).index
    assert [recovered.get(float(k)) for k in LATE] == list(range(len(LATE)))
    writer.close()


def test_readers_take_no_lock(tmp_path):
    with DurableDILI(tmp_path) as writer:
        writer.bulk_load(KEYS, list(range(len(KEYS))))
        writer.publish_plan()
        writer.insert(1.0, "tail")
        served = MmapDILI(tmp_path)
        assert served.rung == 1, served.events
        assert served.get_batch([1.0, 2.0]) == ["tail", 1]
        served.close()
        assert recover(tmp_path).index.get(1.0) == "tail"
        assert len(scan_wal(writer.wal.path).records) == 1
        assert audit_directory(tmp_path).clean
        assert audit_plans(tmp_path).clean


def test_close_and_a_modelled_crash_release_the_lock(tmp_path):
    first = DurableDILI(tmp_path)
    first.insert(1.0, "a")
    first.wal.close()  # kill -9: nothing else is closed
    second = DurableDILI(tmp_path)
    assert second.get(1.0) == "a"
    second.close()
    second.close()  # idempotent
    with DurableDILI(tmp_path) as third:
        assert third.get(1.0) == "a"


def test_close_unlocks_even_with_an_inherited_descriptor(tmp_path):
    writer = DurableDILI(tmp_path)
    # What a forked child inherits: another descriptor of the same
    # open lock file, which would hold the lock past a plain close.
    inherited = os.dup(writer.wal._writer_lock.fileno())
    try:
        writer.close()
        DurableDILI(tmp_path).close()
    finally:
        os.close(inherited)


def test_a_failed_recovery_releases_the_lock(tmp_path):
    (tmp_path / WAL_NAME).write_bytes(b"not a log")
    refused = "not a DILI write-ahead log"
    with pytest.raises(ValueError, match=refused) as first:
        DurableDILI(tmp_path)
    # With the first failure (and its frames) still alive, a second
    # open is refused for the log again, not for the lock.
    with pytest.raises(ValueError, match=refused):
        DurableDILI(tmp_path)
    assert first.value is not None


def test_the_log_appends_through_one_o_append_handle(tmp_path):
    with DurableDILI(tmp_path) as writer:
        handle = writer.wal._fh
        writer.insert(1.0, "a")
        writer.snapshot()  # truncates the log in place
        writer.insert(2.0, "b")
        assert writer.wal._fh is handle
        assert fcntl.fcntl(handle.fileno(), fcntl.F_GETFL) & os.O_APPEND
    assert (tmp_path / WAL_NAME).stat().st_size > 8
    assert recover(tmp_path).index.get(2.0) == "b"


_HOLDER = """
import sys
sys.path.insert(0, {src!r})
from repro.durability import DurableDILI

writer = DurableDILI({state!r})
writer.insert(1.5, "held")
print("ready", flush=True)
sys.stdin.read()
"""

_CONTENDER = """
import sys
sys.path.insert(0, {src!r})
from repro.durability import DurableDILI, WriterLockedError

try:
    DurableDILI({state!r}).close()
except WriterLockedError:
    print("refused")
else:
    print("opened")
"""


def _python(template: str, state) -> list:
    return [
        sys.executable, "-c",
        template.format(src=str(SRC), state=str(state)),
    ]


def test_a_writer_process_holds_the_lock_until_it_is_killed(tmp_path):
    holder = subprocess.Popen(
        _python(_HOLDER, tmp_path),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        assert holder.stdout.readline().strip() == "ready"
        contender = subprocess.run(
            _python(_CONTENDER, tmp_path),
            capture_output=True, text=True, timeout=120,
        )
        assert contender.stdout.strip() == "refused", contender.stderr
        with pytest.raises(WriterLockedError):
            DurableDILI(tmp_path)
    finally:
        holder.kill()
        holder.wait(timeout=60)
        holder.stdin.close()
        holder.stdout.close()
    with DurableDILI(tmp_path) as writer:
        assert writer.get(1.5) == "held"


def test_a_shard_build_over_a_held_directory_deletes_nothing(tmp_path):
    from repro.sharding.worker import ShardBuild, ShardWorker

    with DurableDILI(tmp_path, sync=False) as writer:
        writer.bulk_load(KEYS, list(range(len(KEYS))))
        writer.insert(1.0, "acked")
        before = _files(tmp_path)
        build = ShardBuild(
            keys=LATE, values=list(range(len(LATE))), config=None,
            tune=False, seed=0,
        )
        with pytest.raises(WriterLockedError):
            ShardWorker(tmp_path, sync=False, build=build)
        assert _files(tmp_path) == before
        writer.insert(3.0, "acked too")
    recovered = recover(tmp_path).index
    assert (recovered.get(1.0), recovered.get(3.0)) == ("acked", "acked too")
