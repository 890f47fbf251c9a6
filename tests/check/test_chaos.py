"""The one chaos contract: ``ChaosReport`` and ``repro chaos``.

A schedule that hides a wrong answer is worse than no schedule, so
each one is run with a planted wrong answer in the front-end read it
audits: the report must say so and ``repro chaos`` must exit 1.  The
``tree`` schedule heals every fault by recovery, so it is also run
with a planted lost write in the WAL replay.
"""

import json

import pytest

import repro.durability.recovery as recovery
from repro.__main__ import main
from repro.check.chaos import ChaosReport
from repro.core.concurrent import ConcurrentDILI
from repro.durability.durable import DurableDILI
from repro.durability.wal import OP_INSERT_BATCH
from repro.planstore.serve import MmapDILI
from repro.sharding.coordinator import ShardedDILI


class TestChaosReport:
    def test_audit_counts_reads_and_wrong_answers(self):
        report = ChaosReport(schedule="tree", seed=0)
        assert report.audit([1, None, "x"], [1, None, "x"]) == 0
        assert report.audit([1, 2], [1, 3]) == 1
        assert (report.reads, report.wrong_reads) == (5, 1)
        assert not report.ok

    def test_missing_answer_is_wrong(self):
        report = ChaosReport(schedule="tree", seed=0)
        assert report.audit([1], [1, 2]) == 1
        assert report.reads == 2

    def test_ok_needs_every_check_and_no_lost_write(self):
        report = ChaosReport(schedule="kill", seed=3)
        assert report.ok
        report.checks["healed"] = False
        assert not report.ok
        report.checks["healed"] = True
        report.lost_writes = 1
        assert not report.ok
        assert report.to_dict()["ok"] is False


#: Schedule -> the front-end whose ``get_batch`` answers it audits.
AUDITED_FRONTENDS = {
    "tree": DurableDILI,
    "lock": ConcurrentDILI,
    "plan": MmapDILI,
    "kill": ShardedDILI,
}


@pytest.mark.parametrize("schedule", sorted(AUDITED_FRONTENDS))
def test_planted_wrong_answer_breaks_the_contract(
    schedule, monkeypatch, capsys
):
    frontend = AUDITED_FRONTENDS[schedule]
    real = frontend.get_batch

    def planted(self, *args, **kwargs):
        got = list(real(self, *args, **kwargs))
        if got:
            got[0] = ("planted", got[0])
        return got

    monkeypatch.setattr(frontend, "get_batch", planted)
    assert main(["chaos", "--schedule", schedule, "--json"]) == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert report["schedule"] == schedule
    assert report["ok"] is False
    assert report["wrong_reads"] >= 1


def test_planted_lost_write_breaks_the_tree_contract(monkeypatch, capsys):
    real = recovery.apply_record
    dropped = []

    def drop_one_insert_batch(index, record):
        if record.opcode == OP_INSERT_BATCH and not dropped:
            dropped.append(record.seqno)
            return  # the replay silently loses one logged batch
        real(index, record)

    monkeypatch.setattr(recovery, "apply_record", drop_one_insert_batch)
    assert main(["chaos", "--schedule", "tree", "--json"]) == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert dropped
    assert report["ok"] is False
    assert report["lost_writes"] >= 1
