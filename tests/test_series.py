"""Series container and preprocessing transform tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resurge.series import (
    CcdfPoint,
    TimeSeries,
    Window,
    align_pair,
    ccdf,
    cumulative_normalized,
    interpolate_daily,
    peak_window,
)


def ts(values, start=0, step=1):
    days = np.arange(start, start + step * len(values), step)
    return TimeSeries(days=days, values=np.asarray(values, dtype=float))


@st.composite
def series_strategy(draw, min_len=1, max_len=40, daily=False):
    n = draw(st.integers(min_len, max_len))
    if daily:
        start = draw(st.integers(0, 1000))
        days = list(range(start, start + n))
    else:
        days = sorted(draw(st.sets(st.integers(0, 2000), min_size=n, max_size=n)))
    values = draw(
        st.lists(
            st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    return TimeSeries(days=np.array(days), values=np.array(values))


# --- container invariants -----------------------------------------------------


def test_days_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        TimeSeries(days=np.array([3, 2, 5]), values=np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        TimeSeries(days=np.array([1, 1]), values=np.array([1.0, 1.0]))


def test_values_must_be_finite_nonnegative():
    with pytest.raises(ValueError):
        ts([1.0, -0.5])
    with pytest.raises(ValueError):
        ts([1.0, np.nan])
    with pytest.raises(ValueError):
        ts([np.inf])


def test_negative_zero_is_stored_as_zero():
    tiny, huge = 5e-324, np.finfo(np.float64).max
    values = np.array([-0.0, 0.0, tiny, 0.1, huge])
    stored = ts(values).values
    assert not np.signbit(stored).any()
    assert stored[1:].tobytes() == values[1:].tobytes()
    assert values[0] == -0.0 and np.signbit(values[0])  # the caller's array is left alone


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        TimeSeries(days=np.array([], dtype=int), values=np.array([]))


def test_series_arrays_frozen():
    s = ts([1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0


def test_series_equality_and_len():
    a = ts([1.0, 2.0, 3.0])
    assert a == ts([1.0, 2.0, 3.0])
    assert a != ts([1.0, 2.0, 4.0])
    assert len(a) == 3
    assert a.start_day == 0 and a.end_day == 2
    assert a.is_daily
    assert not TimeSeries.from_points([(0, 1.0), (2, 1.0)]).is_daily


def test_window_validation():
    Window(start=0, end=4, peak=2)
    with pytest.raises(ValueError):
        Window(start=3, end=4, peak=2)
    with pytest.raises(ValueError):
        Window(start=0, end=1, peak=2)
    assert len(Window(start=1, end=5, peak=3)) == 5


def test_window_slice_bounds_checked():
    s = ts([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="window does not fit"):
        s.window_slice(Window(start=1, end=3, peak=2))


# --- interpolate_daily ----------------------------------------------------------


def test_interpolate_midpoint():
    out = interpolate_daily(TimeSeries.from_points([(0, 10.0), (2, 30.0)]))
    assert list(out.days) == [0, 1, 2]
    assert list(out.values) == [10.0, 20.0, 30.0]


def test_interpolate_two_segments():
    # hand evaluation: slope 2 on [0,4], flat on [4,6]
    out = interpolate_daily(TimeSeries.from_points([(0, 0.0), (4, 8.0), (6, 8.0)]))
    assert out.values[3] == pytest.approx(6.0)
    assert out.values[5] == pytest.approx(8.0)
    assert len(out) == 7


def test_interpolate_identity_when_daily():
    s = ts([5.0, 6.0, 7.0])
    assert interpolate_daily(s) == s


def test_interpolate_needs_two_points():
    with pytest.raises(ValueError, match="insufficient data for interpolation"):
        interpolate_daily(ts([4.0]))


@given(series_strategy(min_len=2))
@settings(max_examples=80, deadline=None)
def test_interpolate_daily_properties(s):
    out = interpolate_daily(s)
    assert out.is_daily
    assert out.start_day == s.start_day and out.end_day == s.end_day
    # observed days keep their exact values
    for day, value in zip(s.days, s.values):
        assert out.values[day - out.start_day] == value
    # idempotent
    assert interpolate_daily(out) == out


# --- peak_window ----------------------------------------------------------------


def peak_window_scan(values, threshold):
    """Independent route: candidate scan instead of the two-sided walk."""
    peak = int(np.argmax(values))
    start = peak
    for s in range(peak - 1, -1, -1):
        if values[s] < threshold:
            break
        start = s
    end = peak
    for e in range(peak + 1, len(values)):
        if values[e] < threshold:
            break
        end = e
    return start, end, peak


def test_peak_window_single_point():
    w = peak_window(ts([5.0]))
    assert (w.start, w.end, w.peak) == (0, 0, 0)


def test_peak_window_isolated_spike():
    w = peak_window(ts([1.0, 1.0, 100.0, 1.0, 1.0]), 0.05, basis="peak")
    assert (w.start, w.end, w.peak) == (2, 2, 2)


def test_peak_window_earliest_argmax_on_ties():
    w = peak_window(ts([1.0, 9.0, 9.0, 1.0]), 0.5, basis="peak")
    assert w.peak == 1


def test_peak_window_boundary_is_inclusive_at_threshold():
    # threshold = 0.5 * 10 = 5; the 5.0 neighbours sit exactly on it
    w = peak_window(ts([1.0, 5.0, 10.0, 5.0, 4.9]), 0.5, basis="peak")
    assert (w.start, w.end) == (1, 3)


def test_peak_window_total_basis():
    values = [1.0, 2.0, 14.0, 2.0, 1.0]  # total 20, threshold 0.1*20 = 2
    w = peak_window(ts(values), 0.1, basis="total")
    assert (w.start, w.end, w.peak) == (1, 3, 2)


def test_peak_window_degenerate_and_bad_args():
    with pytest.raises(ValueError, match="degenerate series"):
        peak_window(ts([0.0, 0.0]))
    with pytest.raises(ValueError):
        peak_window(ts([1.0]), threshold_fraction=0.0)
    with pytest.raises(ValueError):
        peak_window(ts([1.0]), threshold_fraction=1.0)
    with pytest.raises(ValueError):
        peak_window(ts([1.0]), basis="median")


def test_peak_window_unimodal_matches_scan():
    t = np.arange(30, dtype=float)
    values = np.exp(-(((t - 14.0) / 5.0) ** 2)) * 100.0 + 1.0
    s = TimeSeries(days=np.arange(30), values=values)
    for fraction in (0.02, 0.05, 0.2, 0.6):
        for basis in ("total", "peak"):
            ref = values.sum() if basis == "total" else values.max()
            w = peak_window(s, fraction, basis)
            assert (w.start, w.end, w.peak) == peak_window_scan(values, fraction * ref)


@given(series_strategy(min_len=1, max_len=30), st.floats(0.01, 0.99))
@settings(max_examples=120, deadline=None)
def test_peak_window_scan_oracle_and_monotonicity(s, fraction):
    if s.values.max() == 0.0:
        with pytest.raises(ValueError):
            peak_window(s, fraction, "peak")
        return
    w = peak_window(s, fraction, "peak")
    assert (w.start, w.end, w.peak) == peak_window_scan(
        s.values, fraction * s.values.max()
    )
    assert w.start <= int(np.argmax(s.values)) <= w.end
    # widening the fraction never widens the window
    tighter = peak_window(s, min(fraction * 1.5, 0.99), "peak")
    assert tighter.start >= w.start and tighter.end <= w.end


# --- align_pair -------------------------------------------------------------------


def test_align_identical_ranges():
    a, b = ts([1.0, 2.0, 3.0]), ts([4.0, 5.0, 6.0])
    out_a, out_b = align_pair(a, b)
    assert out_a == a and out_b == b


def test_align_offset_ranges():
    a = TimeSeries(days=np.arange(0, 11), values=np.arange(11, dtype=float))
    b = TimeSeries(days=np.arange(5, 16), values=np.arange(11, dtype=float))
    out_a, out_b = align_pair(a, b)
    assert len(out_a) == len(out_b) == 6
    assert out_a.start_day == out_b.start_day == 5
    assert out_a.end_day == out_b.end_day == 10
    assert list(out_a.values) == [5.0, 6.0, 7.0, 8.0, 9.0, 10.0]


def test_align_requires_overlap_and_daily():
    with pytest.raises(ValueError, match="no overlapping dates"):
        align_pair(ts([1.0, 2.0], start=0), ts([1.0, 2.0], start=10))
    gappy = TimeSeries.from_points([(0, 1.0), (2, 1.0)])
    with pytest.raises(ValueError, match="daily-complete"):
        align_pair(gappy, ts([1.0, 2.0, 3.0]))


@given(
    st.integers(0, 50), st.integers(1, 40), st.integers(0, 50), st.integers(1, 40)
)
@settings(max_examples=80, deadline=None)
def test_align_matches_set_intersection(start_a, len_a, start_b, len_b):
    a = TimeSeries(days=np.arange(start_a, start_a + len_a), values=np.ones(len_a))
    b = TimeSeries(days=np.arange(start_b, start_b + len_b), values=np.ones(len_b))
    common = sorted(set(a.days.tolist()) & set(b.days.tolist()))
    if not common:
        with pytest.raises(ValueError):
            align_pair(a, b)
        return
    out_a, out_b = align_pair(a, b)
    assert out_a.days.tolist() == common
    assert out_b.days.tolist() == common


# --- cumulative_normalized ----------------------------------------------------------


def test_cumulative_uniform():
    out = cumulative_normalized(ts([1.0, 1.0, 1.0, 1.0]))
    assert out.values.tolist() == [0.25, 0.5, 0.75, 1.0]


def test_cumulative_single_point():
    assert cumulative_normalized(ts([5.0])).values.tolist() == [1.0]


def test_cumulative_zero_total_rejected():
    with pytest.raises(ValueError, match="degenerate series"):
        cumulative_normalized(ts([0.0, 0.0]))


@given(series_strategy(min_len=1))
@settings(max_examples=100, deadline=None)
def test_cumulative_properties_and_oracle(s):
    if s.values.sum() <= 0.0:
        return
    out = cumulative_normalized(s)
    running = 0.0
    total = float(np.cumsum(s.values)[-1])
    for i, v in enumerate(out.values):
        running += float(s.values[i])
        assert v == pytest.approx(running / total, rel=1e-12, abs=1e-15)
    diffs = np.diff(out.values)
    assert np.all(diffs >= -1e-15)
    assert out.values[-1] == 1.0
    assert out.days.tolist() == s.days.tolist()


# --- ccdf -------------------------------------------------------------------------


def test_ccdf_four_values():
    points = {pt.popularity: pt.fraction_above for pt in ccdf([1.0, 2.0, 3.0, 4.0])}
    assert points[2.0] == 0.5
    assert points == {1.0: 0.75, 2.0: 0.5, 3.0: 0.25, 4.0: 0.0}


def test_ccdf_all_equal():
    points = ccdf([7.0, 7.0, 7.0])
    assert len(points) == 1
    assert points[0] == CcdfPoint(popularity=7.0, fraction_above=0.0)


def test_ccdf_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        ccdf([])
    with pytest.raises(ValueError):
        ccdf([1.0, -2.0])


@given(
    st.lists(st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False), min_size=1, max_size=60)
)
@settings(max_examples=100, deadline=None)
def test_ccdf_matches_counting_oracle(values):
    points = ccdf(values)
    n = len(values)
    assert [pt.popularity for pt in points] == sorted(set(values))
    for pt in points:
        assert pt.fraction_above == sum(1 for v in values if v > pt.popularity) / n
    fractions = [pt.fraction_above for pt in points]
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] == 0.0
