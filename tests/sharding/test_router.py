"""The learned shard router: edge cases and searchsorted equivalence.

The contract is exact: ``ShardRouter.route`` must agree with
``np.searchsorted(boundaries, keys, side="right")`` on every input --
the learned model is a fast path whose mispredictions are *corrected*,
never served.  ``AlignedRouter.child_of`` must agree bit for bit with
the scalar ``InternalNode.child_index`` arithmetic.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sharding.router import (
    AlignedRouter,
    ShardRouter,
    router_from_dict,
)


class TestShardRouterEdges:
    def test_single_shard_degenerate(self):
        router = ShardRouter([])
        assert router.num_shards == 1
        assert router.route([1.0, -5.0, 1e18]).tolist() == [0, 0, 0]

    def test_empty_batch(self):
        router = ShardRouter([10.0, 20.0])
        assert router.route([]).tolist() == []

    def test_below_first_and_above_last_boundary(self):
        router = ShardRouter([10.0, 20.0])
        assert router.route([-1e9, 9.999]).tolist() == [0, 0]
        assert router.route([20.0, 1e9]).tolist() == [2, 2]

    def test_boundary_key_routes_right(self):
        # boundaries[j] is the first key of shard j+1: inclusive there.
        router = ShardRouter([10.0, 20.0])
        assert router.route([10.0]).tolist() == [1]
        assert router.route([19.999]).tolist() == [1]

    def test_duplicate_boundaries_make_empty_shard(self):
        # Shard 1 covers [10, 10) = empty; no key may route into it.
        router = ShardRouter([10.0, 10.0])
        got = router.route([9.0, 10.0, 11.0])
        assert got.tolist() == [0, 2, 2]

    def test_all_boundaries_equal(self):
        router = ShardRouter([7.0, 7.0, 7.0])
        got = router.route(np.linspace(0.0, 14.0, 29))
        assert got.tolist() == router.route_naive(
            np.linspace(0.0, 14.0, 29)
        ).tolist()

    def test_decreasing_boundaries_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter([20.0, 10.0])

    def test_shard_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter([10.0], num_shards=5)

    def test_counters(self):
        router = ShardRouter([10.0])
        router.route([1.0, 2.0, 3.0])
        assert router.routed == 3
        assert router.corrected <= 3

    def test_round_trip_dict(self):
        router = ShardRouter([10.0, 20.0])
        clone = router_from_dict(router.to_dict())
        keys = np.array([-1.0, 10.0, 15.0, 25.0])
        assert clone.route(keys).tolist() == router.route(keys).tolist()

    def test_nonfinite_keys_still_exact(self):
        router = ShardRouter([10.0, 20.0])
        keys = np.array([np.inf, -np.inf, np.nan])
        assert (
            router.route(keys).tolist()
            == router.route_naive(keys).tolist()
        )


boundary_lists = st.lists(
    st.floats(
        min_value=-1e12, max_value=1e12,
        allow_nan=False, allow_infinity=False,
    ),
    min_size=0,
    max_size=24,
).map(sorted)


@given(
    boundaries=boundary_lists,
    keys=st.lists(
        st.floats(
            min_value=-1e13, max_value=1e13,
            allow_nan=False, allow_infinity=False,
        ),
        max_size=128,
    ),
)
@settings(max_examples=200, deadline=None)
def test_route_equals_searchsorted(boundaries, keys):
    router = ShardRouter(boundaries)
    keys = np.asarray(keys, dtype=np.float64)
    assert (
        router.route(keys).tolist()
        == np.searchsorted(boundaries, keys, side="right").tolist()
    )


class TestAlignedRouter:
    def test_child_of_matches_scalar_floor_model(self):
        router = AlignedRouter(0.25, 3.0, 16, [0, 4, 9])
        rng = np.random.default_rng(5)
        keys = rng.uniform(-100.0, 100.0, size=256)
        got = router.child_of(keys)
        for key, child in zip(keys.tolist(), got.tolist()):
            want = int(math.floor(3.0 + 0.25 * key))
            want = min(max(want, 0), 15)
            assert child == want

    def test_nan_key_routes_to_the_shard_of_child_zero(self):
        # The flat plan's descent of the global root sends a NaN key
        # to child 0; every key must get a shard in [0, num_shards).
        router = AlignedRouter(1.0, 0.0, 10, [0, 4, 7])
        assert router.child_of([np.nan]).tolist() == [0]
        assert router.route([np.nan, 5.0]).tolist() == [0, 1]

    def test_group_mapping(self):
        router = AlignedRouter(1.0, 0.0, 10, [0, 4, 7])
        # children 0-3 -> shard 0, 4-6 -> shard 1, 7-9 -> shard 2
        assert router.route([0.0, 3.9]).tolist() == [0, 0]
        assert router.route([4.0, 6.5]).tolist() == [1, 1]
        assert router.route([7.0, 99.0]).tolist() == [2, 2]

    def test_single_group(self):
        router = AlignedRouter(0.0, 0.0, 1, [0])
        assert router.route([1.0, 2.0]).tolist() == [0, 0]

    def test_invalid_group_starts(self):
        with pytest.raises(ValueError):
            AlignedRouter(1.0, 0.0, 8, [1, 4])
        with pytest.raises(ValueError):
            AlignedRouter(1.0, 0.0, 8, [0, 4, 4])
        with pytest.raises(ValueError):
            AlignedRouter(1.0, 0.0, 8, [0, 8])

    def test_round_trip_dict(self):
        router = AlignedRouter(0.5, -2.0, 12, [0, 5])
        clone = router_from_dict(router.to_dict())
        keys = np.linspace(-10.0, 40.0, 77)
        assert clone.route(keys).tolist() == router.route(keys).tolist()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            router_from_dict({"kind": "hash"})
