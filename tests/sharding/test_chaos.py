"""The sharded chaos contract: zero wrong reads under kills + rebalance."""

from repro.sharding.chaos import run_shard_chaos, run_supervision_chaos


class TestShardChaos:
    def test_chaos_run_is_clean(self):
        report = run_shard_chaos(seed=3)
        counts = report.counts
        assert report.ok, report.to_dict()
        assert report.wrong_reads == 0
        assert report.lost_writes == 0
        # The schedule actually exercised the failure paths.
        assert counts["kills"] >= 2
        assert counts["restarts"] >= 1
        assert counts["mid_rebalance_kills"] >= 1
        assert counts["rebalances"] >= 1
        assert report.reads > 1_000
        assert not any(
            "unhealthy" in event for event in report.events
        ), report.events

    def test_deterministic_given_seed(self):
        a = run_shard_chaos(seed=5, rounds=3, num_keys=800, num_shards=2)
        b = run_shard_chaos(seed=5, rounds=3, num_keys=800, num_shards=2)
        assert a.ok and b.ok
        assert a.reads == b.reads
        assert a.writes == b.writes
        assert a.counts["final_keys"] == b.counts["final_keys"]

    def test_report_dict_shape(self):
        report = run_shard_chaos(
            seed=1, rounds=2, num_keys=500, num_shards=2, kill_every=0,
            rebalance_round=99,
        )
        d = report.to_dict()
        assert d["ok"] is True
        assert d["schedule"] == "kill"
        assert d["counts"]["kills"] == 0
        assert d["counts"]["rebalances"] == 0
        assert d["counts"]["final_shards"] == 2


class TestSupervisionChaos:
    def test_supervision_chaos_run_is_clean(self):
        report = run_supervision_chaos(seed=7)
        checks, counts = report.checks, report.counts
        assert report.ok, report.to_dict()
        # Zero wrong reads and *exact* per-key unavailability.
        assert report.wrong_reads == 0
        assert counts["misreported_unavailability"] == 0
        assert checks["misreported_unavailability"]
        assert counts["unavailable_marks"] > 0
        # Every injector actually fired and was contained.
        assert checks["hung_replaced_within_deadline"]
        assert checks["slow_worker_survived"]
        assert checks["breaker_tripped_within_budget"]
        assert counts["failures_at_trip"] <= 2  # the policy budget
        assert checks["write_rejected_retryable"]
        assert checks["healthy_shards_kept_serving"]
        assert checks["healed"]
        assert checks["final_health"]
        assert counts["kills"] >= 3
        assert counts["restarts"] >= 3
        d = report.to_dict()
        assert d["ok"] is True
