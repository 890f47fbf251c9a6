"""Linear models and mergeable least-squares statistics.

Every DILI node stores exactly two parameters (an intercept ``a`` and a
slope ``b``); this module provides that model plus the incremental
statistics that make the greedy merging of Algorithm 3 run in O(1) per
merge.  All fits are mean-centred so they stay numerically stable for the
huge key magnitudes (up to 2**53) that the SOSD-style datasets use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Centred ranks of a two-point fit (0..1 minus their mean 0.5); shared so
# the hot two-point path below allocates one array instead of three.
_DY2 = np.array([-0.5, 0.5])

# Rank means and centred ranks for every size numpy sums sequentially
# (n < 8): at those sizes ``x.mean()`` is a plain left fold, so a python
# accumulator reproduces it bitwise and these constants replace the
# arange / mean / subtract round trips in the small-fit fast path.
_RANK_MEAN = {n: float(np.arange(n, dtype=np.float64).mean())
              for n in range(3, 8)}
_DY_SMALL = {n: np.arange(n, dtype=np.float64) - _RANK_MEAN[n]
             for n in range(3, 8)}


def clamp_slot(pred: float, size: int) -> int:
    """A model prediction floored and clamped into ``[0, size)``.

    The function ``f_D`` of Algorithm 5 line 4, and the one scalar form
    of the floor-then-clamp rule every descent uses (internal children,
    leaf slots, dense-leaf search hints, the flat plan's scalar walk).
    The clamp runs in float before the int cast, like
    :func:`clamp_slots`, its array form: a prediction at or
    past ``size`` (+inf included) lands on the last slot, and one below
    zero (-inf included) or NaN on slot 0, so no key makes it raise.
    """
    if pred >= size:
        return size - 1
    if pred > 0:
        return int(pred)  # floor: truncation of a positive float
    return 0


def clamp_slots(pred: np.ndarray, size) -> np.ndarray:
    """:func:`clamp_slot` over an array of predictions, as int64.

    ``size`` is a scalar or an array matching ``pred``.  ``fmax`` /
    ``fmin`` clamp in float before the cast, so +-inf and predictions
    past the int64 range land on the end slots and NaN on slot 0.
    """
    return np.fmin(np.fmax(np.floor(pred), 0), size - 1).astype(np.int64)


@dataclass(frozen=True)
class LinearModel:
    """The two-parameter model ``y = intercept + slope * x``.

    Internal DILI nodes derive their model from their key range (Eq. 1 of
    the paper) so that children equally divide the range; leaf nodes fit
    theirs by least squares over (key, position) pairs.
    """

    slope: float
    intercept: float

    def predict(self, x: float) -> float:
        """Raw (unclamped, unrounded) prediction."""
        return self.intercept + self.slope * x

    def inverse(self, y: float) -> float:
        """Key at which the model predicts ``y`` (requires slope != 0)."""
        if self.slope == 0.0:
            raise ZeroDivisionError("cannot invert a constant model")
        return (y - self.intercept) / self.slope

    def scaled(self, ratio: float) -> "LinearModel":
        """Both parameters multiplied by ``ratio``.

        Used by the leaf-adjustment path (Algorithm 7 line 24) to stretch
        a fit over ``[0, n)`` onto an enlarged entry array of ``n*ratio``
        slots.
        """
        return LinearModel(self.slope * ratio, self.intercept * ratio)

    @classmethod
    def from_range(cls, lb: float, ub: float, fanout: int) -> "LinearModel":
        """Equal-width child model of Eq. 1: ``b = fo/(ub-lb), a = -b*lb``."""
        if ub <= lb:
            raise ValueError(f"empty range [{lb}, {ub})")
        slope = fanout / (ub - lb)
        if not math.isfinite(slope):
            # No finite-slope linear model can tell the endpoints apart;
            # this needs a key gap below ~1/float64_max, far outside any
            # realistic key domain (SOSD keys are integers).
            raise ValueError(
                f"range [{lb}, {ub}) is too narrow for a float64 model"
            )
        return cls(slope, -slope * lb)

    @classmethod
    def fit(cls, xs: Sequence[float] | np.ndarray,
            ys: Sequence[float] | np.ndarray | None = None) -> "LinearModel":
        """Least-squares fit of ``ys`` (default ``0..n-1``) on ``xs``.

        A single point fits a constant model predicting its own y; an
        empty input fits the zero model.
        """
        n = len(xs)
        if ys is None:
            if n == 2:
                # Two-point rank fits dominate nested-leaf construction.
                # (x0+x1)/2 matches np.mean's pairwise sum bitwise for two
                # elements, elementwise subtraction matches the scalar
                # one, and the centred ranks are the constant
                # [-0.5, 0.5]; np.dot stays because its kernel rounds
                # differently from pure-python products.
                x0 = float(xs[0])
                x1 = float(xs[1])
                mx = (x0 + x1) / 2.0
                dx = np.array((x0 - mx, x1 - mx))
                sxx = float(np.dot(dx, dx))
                if sxx == 0.0:
                    return cls(0.0, 0.5)
                slope = float(np.dot(dx, _DY2)) / sxx
                return cls(slope, 0.5 - slope * mx)
            if 3 <= n <= 7:
                s = 0.0
                for v in xs:
                    s += v
                mx = float(s) / n
                my = _RANK_MEAN[n]
                dx = np.array([float(v) - mx for v in xs])
                sxx = float(np.dot(dx, dx))
                if sxx == 0.0:
                    return cls(0.0, my)
                slope = float(np.dot(dx, _DY_SMALL[n])) / sxx
                return cls(slope, my - slope * mx)
            x = np.asarray(xs, dtype=np.float64)
            y = np.arange(n, dtype=np.float64)
        else:
            x = np.asarray(xs, dtype=np.float64)
            y = np.asarray(ys, dtype=np.float64)
        if len(x) != len(y):
            raise ValueError("xs and ys must have equal length")
        if n == 0:
            return cls(0.0, 0.0)
        if n == 1:
            return cls(0.0, float(y[0]))
        mx = float(x.mean())
        my = float(y.mean())
        dx = x - mx
        sxx = float(np.dot(dx, dx))
        if sxx == 0.0:
            return cls(0.0, my)
        slope = float(np.dot(dx, y - my)) / sxx
        return cls(slope, my - slope * mx)


@dataclass
class SegmentStats:
    """Mergeable sufficient statistics of a least-squares fit.

    Stores count, means and centred second moments, so two adjacent
    segments merge in O(1) (Chan et al. pairwise-update formulas) and the
    sum of squared errors of the best-fit line is available in O(1).
    This is what makes Algorithm 3's ``s_i`` / ``m_i`` bookkeeping cheap.
    """

    n: int = 0
    mean_x: float = 0.0
    mean_y: float = 0.0
    sxx: float = 0.0
    syy: float = 0.0
    sxy: float = 0.0

    @classmethod
    def from_arrays(cls, xs: np.ndarray, ys: np.ndarray) -> "SegmentStats":
        """Build statistics from paired arrays in one vectorised pass."""
        x = np.asarray(xs, dtype=np.float64)
        y = np.asarray(ys, dtype=np.float64)
        if len(x) != len(y):
            raise ValueError("xs and ys must have equal length")
        n = len(x)
        if n == 0:
            return cls()
        mx = float(x.mean())
        my = float(y.mean())
        dx = x - mx
        dy = y - my
        return cls(
            n=n,
            mean_x=mx,
            mean_y=my,
            sxx=float(np.dot(dx, dx)),
            syy=float(np.dot(dy, dy)),
            sxy=float(np.dot(dx, dy)),
        )

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]]) -> "SegmentStats":
        """Build statistics from an iterable of (x, y) pairs."""
        pts = list(points)
        if not pts:
            return cls()
        xs = np.array([p[0] for p in pts], dtype=np.float64)
        ys = np.array([p[1] for p in pts], dtype=np.float64)
        return cls.from_arrays(xs, ys)

    def merged(self, other: "SegmentStats") -> "SegmentStats":
        """Statistics of the concatenation of the two segments."""
        if self.n == 0:
            return SegmentStats(**vars(other))
        if other.n == 0:
            return SegmentStats(**vars(self))
        n = self.n + other.n
        dx = other.mean_x - self.mean_x
        dy = other.mean_y - self.mean_y
        w = self.n * other.n / n
        return SegmentStats(
            n=n,
            mean_x=self.mean_x + dx * other.n / n,
            mean_y=self.mean_y + dy * other.n / n,
            sxx=self.sxx + other.sxx + dx * dx * w,
            syy=self.syy + other.syy + dy * dy * w,
            sxy=self.sxy + other.sxy + dx * dy * w,
        )

    def sse(self) -> float:
        """Sum of squared errors of the best-fit line over this segment."""
        if self.n < 2 or self.sxx <= 0.0:
            return 0.0
        sse = self.syy - (self.sxy * self.sxy) / self.sxx
        # Guard against tiny negative values from cancellation.
        return sse if sse > 0.0 else 0.0

    def rmse(self) -> float:
        """Root-mean-square error of the best-fit line."""
        if self.n == 0:
            return 0.0
        return math.sqrt(self.sse() / self.n)

    def model(self) -> LinearModel:
        """The best-fit line for this segment."""
        if self.n == 0:
            return LinearModel(0.0, 0.0)
        if self.sxx <= 0.0:
            return LinearModel(0.0, self.mean_y)
        slope = self.sxy / self.sxx
        return LinearModel(slope, self.mean_y - slope * self.mean_x)
