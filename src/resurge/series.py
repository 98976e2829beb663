"""Daily popularity series and the preprocessing steps applied before modeling.

A series holds one song's popularity on one platform.  Days are plain integer
day numbers (proleptic Gregorian ordinals); calendar parsing and formatting
live in :mod:`resurge.ingest` so everything here stays arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence, get_args

import numpy as np

__all__ = [
    "PEAK_BASES",
    "TimeSeries",
    "Window",
    "CcdfPoint",
    "interpolate_daily",
    "peak_window",
    "align_pair",
    "cumulative_normalized",
    "ccdf",
]

PeakBasis = Literal["total", "peak"]
PEAK_BASES: tuple[str, ...] = get_args(PeakBasis)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered (day, value) samples with strictly increasing days.

    Values are finite and non-negative; ``-0.0`` is stored as ``0.0``.  Both
    arrays are copied and made read-only on construction, so instances can be
    shared freely.
    """

    days: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        days = np.array(self.days, dtype=np.int64)
        values = np.array(self.values, dtype=np.float64)
        if days.ndim != 1 or values.ndim != 1 or days.shape != values.shape:
            raise ValueError("days and values must be 1-d arrays of equal length")
        if days.size < 1:
            raise ValueError("series must contain at least one point")
        if days.size > 1 and not np.all(np.diff(days) > 0):
            raise ValueError("days must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if values.size and values.min() < 0.0:
            raise ValueError("values must be non-negative")
        # -0.0 + 0.0 is 0.0 and x + 0.0 is x for every other x, bit for bit;
        # the series file grammar has no sign, so -0.0 could not be written back
        values += 0.0
        days.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "days", days)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_points(cls, points: Iterable[tuple[int, float]]) -> "TimeSeries":
        pts = list(points)
        return cls(
            days=np.array([p[0] for p in pts], dtype=np.int64),
            values=np.array([p[1] for p in pts], dtype=np.float64),
        )

    def __len__(self) -> int:
        return int(self.days.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return np.array_equal(self.days, other.days) and np.array_equal(
            self.values, other.values
        )

    @property
    def start_day(self) -> int:
        return int(self.days[0])

    @property
    def end_day(self) -> int:
        return int(self.days[-1])

    @property
    def is_daily(self) -> bool:
        """True when the series has a sample on every day of its span."""
        return len(self) == self.end_day - self.start_day + 1

    def total(self) -> float:
        return float(self.values.sum())

    def window_slice(self, window: "Window") -> "TimeSeries":
        """Sub-series covering ``window`` (indices into this series)."""
        if not (0 <= window.start <= window.end < len(self)):
            raise ValueError("window does not fit the series")
        return TimeSeries(
            days=self.days[window.start : window.end + 1],
            values=self.values[window.start : window.end + 1],
        )


@dataclass(frozen=True)
class Window:
    """Index range [start, end] around a peak, inclusive on both ends."""

    start: int
    end: int
    peak: int

    def __post_init__(self) -> None:
        if not (0 <= self.start <= self.peak <= self.end):
            raise ValueError("window indices must satisfy start <= peak <= end")

    def __len__(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class CcdfPoint:
    popularity: float
    fraction_above: float


def interpolate_daily(series: TimeSeries) -> TimeSeries:
    """Fill every missing day of the span by linear interpolation.

    No extrapolation: the output covers exactly [start_day, end_day].
    Observed days keep their original values bit-exactly.  A single-point
    series cannot anchor a line, hence the two-point minimum.
    """
    if len(series) < 2:
        raise ValueError("insufficient data for interpolation")
    if series.is_daily:
        return series
    days = np.arange(series.start_day, series.end_day + 1, dtype=np.int64)
    values = np.interp(days, series.days, series.values)
    # overwrite observed positions so they are exact, not reconstructed
    observed = series.days - series.start_day
    values[observed] = series.values
    return TimeSeries(days=days, values=values)


def peak_window(
    series: TimeSeries,
    threshold_fraction: float = 0.05,
    basis: PeakBasis = "total",
) -> Window:
    """Contiguous window around the global peak where values stay on-threshold.

    The threshold is ``threshold_fraction`` times either the series total or
    the peak value.  Starting from the earliest global argmax, the window
    extends in both directions up to, but not including, the first day whose
    value falls strictly below the threshold.  The peak day itself is always
    included.
    """
    if not 0.0 < threshold_fraction < 1.0:
        raise ValueError("threshold_fraction must lie in (0, 1)")
    if basis not in PEAK_BASES:
        raise ValueError("basis must be 'total' or 'peak'")
    values = series.values
    if values.max() == 0.0:
        raise ValueError("degenerate series")
    reference = values.sum() if basis == "total" else values.max()
    threshold = threshold_fraction * reference
    peak = int(np.argmax(values))  # earliest argmax on ties
    start = peak
    while start > 0 and values[start - 1] >= threshold:
        start -= 1
    end = peak
    while end < len(series) - 1 and values[end + 1] >= threshold:
        end += 1
    return Window(start=start, end=end, peak=peak)


def align_pair(a: TimeSeries, b: TimeSeries) -> tuple[TimeSeries, TimeSeries]:
    """Restrict two daily-complete series to their common date range."""
    if not (a.is_daily and b.is_daily):
        raise ValueError("series must be daily-complete before alignment")
    start = max(a.start_day, b.start_day)
    end = min(a.end_day, b.end_day)
    if start > end:
        raise ValueError("no overlapping dates")

    def cut(s: TimeSeries) -> TimeSeries:
        i = start - s.start_day
        j = end - s.start_day
        return TimeSeries(days=s.days[i : j + 1], values=s.values[i : j + 1])

    return cut(a), cut(b)


def cumulative_normalized(series: TimeSeries) -> TimeSeries:
    """Running sum scaled by the series total, ending at exactly 1."""
    cum = np.cumsum(series.values)
    total = cum[-1]
    if total <= 0.0:
        raise ValueError("degenerate series")
    return TimeSeries(days=series.days, values=cum / total)


def ccdf(values: Sequence[float]) -> list[CcdfPoint]:
    """Complementary CDF over the distinct input values.

    For each distinct value v the point carries the fraction of inputs
    strictly greater than v; points come out sorted by value ascending.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("values must be a non-empty 1-d collection")
    if not np.all(np.isfinite(arr)) or arr.min() < 0.0:
        raise ValueError("values must be finite and non-negative")
    ordered = np.sort(arr)
    distinct = np.unique(ordered)
    n = arr.size
    above = n - np.searchsorted(ordered, distinct, side="right")
    return [
        CcdfPoint(popularity=float(v), fraction_above=float(c) / n)
        for v, c in zip(distinct, above)
    ]
