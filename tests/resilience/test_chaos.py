"""Chaos harness: the full resilience contract at test scale."""

from repro.resilience import TREE_FAULT_KINDS, run_chaos, run_lock_chaos


class TestRunChaos:
    def test_contract_holds_at_small_scale(self):
        report = run_chaos(
            num_keys=3_000,
            rounds=24,
            batch=64,
            injections=5,
            seed=3,
            with_locks=False,
        )
        assert report.ok, vars(report)
        assert report.reads > 0
        assert len(report.injected) >= len(TREE_FAULT_KINDS)
        assert report.kinds_injected <= set(TREE_FAULT_KINDS)
        assert report.repair_steps >= len(report.injected)
        assert report.final_health == "healthy"

    def test_deterministic_per_seed(self):
        kwargs = dict(
            num_keys=2_000,
            rounds=12,
            batch=32,
            injections=3,
            seed=9,
            with_locks=False,
        )
        a, b = run_chaos(**kwargs), run_chaos(**kwargs)
        assert a.injected == b.injected
        assert (a.reads, a.writes, a.repair_steps) == (
            b.reads,
            b.writes,
            b.repair_steps,
        )


class TestRunLockChaos:
    def test_lock_stats_surface_all_three_counters(self):
        stats = run_lock_chaos(
            seed=1, num_keys=1_000, threads=3, ops_per_thread=60
        )
        assert stats["stalls"] > 0  # the stalled writer lock was exercised
        assert stats["plan_publishes"] >= 1
        assert stats["plan_reads"] >= 1
