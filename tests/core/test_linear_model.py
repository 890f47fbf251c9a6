"""Unit and property tests for linear models and segment statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.linear_model import (
    LinearModel,
    SegmentStats,
    clamp_slot,
    clamp_slots,
)


class TestLinearModel:
    def test_fit_recovers_exact_line(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        ys = 3.0 * xs + 7.0
        m = LinearModel.fit(xs, ys)
        assert m.slope == pytest.approx(3.0)
        assert m.intercept == pytest.approx(7.0)

    def test_fit_default_targets_are_ranks(self):
        xs = np.array([10.0, 20.0, 30.0])
        m = LinearModel.fit(xs)
        assert m.predict(10.0) == pytest.approx(0.0)
        assert m.predict(30.0) == pytest.approx(2.0)

    def test_fit_matches_polyfit_on_noisy_data(self):
        rng = np.random.default_rng(1)
        xs = np.sort(rng.uniform(0, 1e6, 200))
        ys = 0.5 * xs + rng.normal(0, 10.0, 200)
        m = LinearModel.fit(xs, ys)
        ref_slope, ref_intercept = np.polyfit(xs, ys, 1)
        assert m.slope == pytest.approx(ref_slope, rel=1e-9)
        assert m.intercept == pytest.approx(ref_intercept, rel=1e-6)

    def test_fit_is_stable_for_huge_keys(self):
        # Keys near 2**50: a naive normal-equation fit loses all precision.
        base = 2.0**50
        xs = base + np.arange(100, dtype=np.float64) * 17.0
        m = LinearModel.fit(xs)
        preds = [m.predict(x) for x in xs]
        assert max(abs(p - i) for i, p in enumerate(preds)) < 1e-3

    def test_empty_and_single_point_fits(self):
        assert LinearModel.fit([]).predict(5.0) == 0.0
        m = LinearModel.fit([3.0], [9.0])
        assert m.slope == 0.0
        assert m.predict(100.0) == 9.0

    def test_fit_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            LinearModel.fit([1.0, 2.0], [1.0])

    def test_from_range_divides_equally(self):
        # The paper's Fig. 1 example: range [80, 160), fanout 4.
        m = LinearModel.from_range(80.0, 160.0, 4)
        assert m.slope == pytest.approx(0.05)
        assert m.intercept == pytest.approx(-4.0)
        assert clamp_slot(m.predict(80.0), 4) == 0
        assert clamp_slot(m.predict(101.0), 4) == 1
        assert clamp_slot(m.predict(159.999), 4) == 3

    def test_from_range_rejects_empty_range(self):
        with pytest.raises(ValueError):
            LinearModel.from_range(5.0, 5.0, 4)

    def test_predict_clamped(self):
        m = LinearModel(1.0, 0.0)
        assert clamp_slot(m.predict(-5.0), 10) == 0
        assert clamp_slot(m.predict(99.0), 10) == 9
        assert clamp_slot(m.predict(4.5), 10) == 4
        # Clamped in float before the int cast: nothing raises.
        assert clamp_slot(float("inf"), 10) == 9
        assert clamp_slot(float("-inf"), 10) == 0
        assert clamp_slot(float("nan"), 10) == 0
        assert clamp_slot(1e300, 10) == 9
        assert clamp_slot(-0.5, 10) == 0
        assert clamp_slot(9.999, 10) == 9

    def test_clamp_slots_is_the_array_form(self):
        preds = [-5.0, -0.5, 0.0, 4.5, 9.999, 99.0, 1e19, 1e300,
                 float("inf"), float("-inf"), float("nan")]
        got = clamp_slots(np.array(preds), 10)
        assert got.dtype == np.int64
        assert got.tolist() == [clamp_slot(p, 10) for p in preds]

    def test_inverse_round_trips(self):
        m = LinearModel(0.25, -3.0)
        assert m.inverse(m.predict(42.0)) == pytest.approx(42.0)

    def test_inverse_of_constant_model_raises(self):
        with pytest.raises(ZeroDivisionError):
            LinearModel(0.0, 1.0).inverse(1.0)

    def test_scaled_multiplies_both_parameters(self):
        m = LinearModel(2.0, 5.0).scaled(3.0)
        assert m.slope == 6.0
        assert m.intercept == 15.0


class TestSegmentStats:
    def test_from_arrays_matches_manual_moments(self):
        xs = np.array([1.0, 2.0, 4.0])
        ys = np.array([1.0, 3.0, 2.0])
        s = SegmentStats.from_arrays(xs, ys)
        assert s.n == 3
        assert s.mean_x == pytest.approx(xs.mean())
        assert s.sxx == pytest.approx(np.sum((xs - xs.mean()) ** 2))
        assert s.sxy == pytest.approx(
            np.sum((xs - xs.mean()) * (ys - ys.mean()))
        )

    def test_merge_equals_from_concatenation(self):
        rng = np.random.default_rng(2)
        xs = np.sort(rng.uniform(0, 100, 50))
        ys = rng.normal(0, 1, 50)
        a = SegmentStats.from_arrays(xs[:20], ys[:20])
        b = SegmentStats.from_arrays(xs[20:], ys[20:])
        merged = a.merged(b)
        ref = SegmentStats.from_arrays(xs, ys)
        assert merged.n == ref.n
        assert merged.mean_x == pytest.approx(ref.mean_x)
        assert merged.sxx == pytest.approx(ref.sxx, rel=1e-9)
        assert merged.syy == pytest.approx(ref.syy, rel=1e-9)
        assert merged.sxy == pytest.approx(ref.sxy, rel=1e-9)

    def test_merge_with_empty_is_identity(self):
        s = SegmentStats.from_arrays(
            np.array([1.0, 2.0]), np.array([3.0, 4.0])
        )
        for merged in (s.merged(SegmentStats()), SegmentStats().merged(s)):
            assert merged.n == s.n
            assert merged.sxy == pytest.approx(s.sxy)

    def test_sse_is_zero_for_collinear_points(self):
        xs = np.array([1.0, 2.0, 3.0])
        s = SegmentStats.from_arrays(xs, 2 * xs + 1)
        assert s.sse() == pytest.approx(0.0, abs=1e-9)

    def test_sse_matches_residuals_of_best_fit(self):
        rng = np.random.default_rng(3)
        xs = np.sort(rng.uniform(0, 10, 30))
        ys = xs + rng.normal(0, 0.5, 30)
        s = SegmentStats.from_arrays(xs, ys)
        m = s.model()
        residuals = ys - (m.intercept + m.slope * xs)
        assert s.sse() == pytest.approx(float(residuals @ residuals), rel=1e-9)
        assert s.rmse() == pytest.approx(
            math.sqrt(float(residuals @ residuals) / 30), rel=1e-9
        )

    def test_model_of_degenerate_segment_is_constant(self):
        s = SegmentStats.from_arrays(np.array([5.0, 5.0]), np.array([1.0, 3.0]))
        m = s.model()
        assert m.slope == 0.0
        assert m.predict(5.0) == pytest.approx(2.0)

    def test_from_points_equivalent_to_from_arrays(self):
        pts = [(1.0, 2.0), (3.0, 5.0), (4.0, 4.0)]
        a = SegmentStats.from_points(pts)
        b = SegmentStats.from_arrays(
            np.array([p[0] for p in pts]), np.array([p[1] for p in pts])
        )
        assert a.sxy == pytest.approx(b.sxy)

    def test_from_points_empty(self):
        assert SegmentStats.from_points([]).n == 0


@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=-1e9, max_value=1e9),
            st.floats(min_value=-1e6, max_value=1e6),
        ),
        min_size=2,
        max_size=60,
    ),
    split=st.integers(min_value=0, max_value=60),
)
@settings(max_examples=200, deadline=None)
def test_property_merge_is_associative_with_concatenation(data, split):
    """Merging any prefix/suffix split reproduces whole-array statistics."""
    split = min(split, len(data))
    xs = np.array([d[0] for d in data])
    ys = np.array([d[1] for d in data])
    a = SegmentStats.from_arrays(xs[:split], ys[:split])
    b = SegmentStats.from_arrays(xs[split:], ys[split:])
    merged = a.merged(b)
    ref = SegmentStats.from_arrays(xs, ys)
    assert merged.n == ref.n
    scale = max(abs(ref.sxx), abs(ref.syy), 1.0)
    assert merged.sxx == pytest.approx(ref.sxx, abs=1e-6 * scale)
    assert merged.syy == pytest.approx(ref.syy, abs=1e-6 * scale)
    assert merged.sxy == pytest.approx(ref.sxy, abs=1e-6 * scale)


@given(
    xs=st.lists(
        st.floats(min_value=0, max_value=1e12),
        min_size=2,
        max_size=50,
        unique=True,
    )
)
@settings(max_examples=200, deadline=None)
def test_property_sse_never_negative_and_bounded_by_syy(xs):
    """The best-fit SSE is nonnegative and never exceeds total variance."""
    xs = np.sort(np.array(xs))
    ys = np.arange(len(xs), dtype=np.float64)
    s = SegmentStats.from_arrays(xs, ys)
    assert s.sse() >= 0.0
    assert s.sse() <= s.syy + 1e-9 * max(s.syy, 1.0)
