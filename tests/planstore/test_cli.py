"""The plan-store CLI surface: ``repro plan ...``, ``repro audit`` and
``repro chaos --schedule plan``.

Exit codes are the contract scripts depend on: ``repro audit`` returns
0 for a clean directory, 3 when every finding is recoverable (the
ladder can still serve), and 4 when the snapshot+WAL ground truth
itself is damaged.
"""

import numpy as np
import pytest

from repro.__main__ import main
from repro.durability.durable import DurableDILI
from repro.durability.snapshot import HEADER_SIZE
from repro.planstore.corrupt import (
    FAULT_PLAN_FLIPPED_BYTE,
    inject_plan_fault,
)
from repro.planstore.serve import PlanDirectory


@pytest.fixture()
def state(tmp_path):
    rng = np.random.default_rng(13)
    keys = np.unique(rng.uniform(0.0, 1e6, 400))
    durable = DurableDILI(tmp_path, sync=False)
    durable.bulk_load(keys)
    durable.publish_plan()
    for key in rng.uniform(2e6, 3e6, 16):
        durable.insert(float(key), "tail")
    durable.publish_tail()
    durable.sync_wal()
    durable.close()
    return tmp_path


class TestPlanCommands:
    def test_write_then_open(self, tmp_path, capsys):
        state_dir = str(tmp_path / "s")
        assert main(
            ["plan", "write", "--dir", state_dir, "--keys", "3000",
             "--tail"]
        ) == 0
        out = capsys.readouterr().out
        assert "published generation 1" in out
        assert main(["plan", "open", "--dir", state_dir, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "rung 1" in out

    def test_open_reports_fallback(self, state, capsys):
        plans = PlanDirectory.for_state_dir(state)
        inject_plan_fault(
            FAULT_PLAN_FLIPPED_BYTE,
            plans.base_path(1),
            np.random.default_rng(0),
        )
        # --verify forces the lazy CRC check, tripping the fallback.
        assert main(["plan", "open", "--dir", str(state), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "rung 3" in out
        assert "quarantin" in out

    def test_plan_audit_clean_and_damaged(self, state, capsys):
        # The plan auditor reports through the one offline audit.
        assert main(["audit", str(state)]) == 0
        plans = PlanDirectory.for_state_dir(state)
        inject_plan_fault(
            FAULT_PLAN_FLIPPED_BYTE,
            plans.base_path(1),
            np.random.default_rng(0),
        )
        assert main(["audit", str(state)]) == 3
        out = capsys.readouterr().out
        assert "plan-buffer-crc" in out

    def test_plan_chaos(self, capsys):
        assert main(["chaos", "--schedule", "plan"]) == 0
        out = capsys.readouterr().out
        assert "wrong reads" in out
        assert "plan: contract held" in out


class TestAuditCommand:
    def test_clean_directory_exits_zero(self, state, capsys):
        assert main(["audit", str(state)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_recoverable_damage_exits_three(self, state, capsys):
        plans = PlanDirectory.for_state_dir(state)
        inject_plan_fault(
            FAULT_PLAN_FLIPPED_BYTE,
            plans.base_path(1),
            np.random.default_rng(0),
        )
        assert main(["audit", str(state)]) == 3

    def test_unrecoverable_damage_exits_four(self, state):
        snap = state / "snapshot.dili"
        raw = bytearray(snap.read_bytes())
        raw[HEADER_SIZE + 10] ^= 0xFF  # corrupt the snapshot payload
        snap.write_bytes(raw)
        assert main(["audit", str(state)]) == 4

    def test_missing_directory_exits_two(self, tmp_path):
        assert main(["audit", str(tmp_path / "nope")]) == 2
