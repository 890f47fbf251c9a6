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
        )
        counts = report.counts
        assert report.ok, report.to_dict()
        assert report.reads > 0 and report.writes > 0
        assert counts["injections"] >= len(TREE_FAULT_KINDS)
        # Every injection is of a scheduled kind.
        assert counts["injections"] == sum(
            counts[f"injected.{kind}"] for kind in TREE_FAULT_KINDS
        )
        # Every fault is healed by reopening the directory, and no
        # recovery loses an acknowledged write.
        assert counts["recoveries"] == counts["injections"]
        assert report.lost_writes == 0

    def test_deterministic_per_seed(self):
        kwargs = dict(
            num_keys=2_000,
            rounds=12,
            batch=32,
            injections=3,
            seed=9,
        )
        a, b = run_chaos(**kwargs), run_chaos(**kwargs)
        assert a.events  # at least one injection to compare
        assert (a.events, a.reads, a.writes, a.counts["recoveries"]) == (
            b.events,
            b.reads,
            b.writes,
            b.counts["recoveries"],
        )


class TestRunLockChaos:
    def test_lock_stats_surface_all_three_counters(self):
        report = run_lock_chaos(
            seed=1, num_keys=1_000, threads=3, ops_per_thread=60
        )
        assert report.ok, report.to_dict()
        assert report.counts["stalls"] > 0  # the stalled lock was exercised
        assert report.counts["plan_publishes"] >= 1
        assert report.counts["plan_reads"] >= 1
