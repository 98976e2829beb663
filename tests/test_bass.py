"""Diffusion-curve evaluation and (p, q) estimation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from resurge.bass import (
    GRID_P,
    GRID_Q,
    MIN_FIT_POINTS,
    _SERIES_CUTOFF,
    BassParams,
    bass_cumulative,
    bass_instantaneous,
    bass_remaining,
    batch_bass,
    fit_bass,
    fit_cumulative,
    _cumulative_and_jacobian,
)
from resurge.curation import SongRecord
from resurge.series import TimeSeries

params_strategy = st.builds(
    BassParams,
    p=st.floats(1e-3, 1.0),
    q=st.floats(0.0, 5.0),
)


def curve_and_jacobian(p, q, times):
    """``_cumulative_and_jacobian`` at one (p, q): F, and the Jacobian with
    one row per time."""
    work = np.empty((6, times.size))
    work[0], work[1], work[2] = p, q, times
    curve, jac = _cumulative_and_jacobian(work)
    return curve.copy(), jac.T.copy()


def increments_series(params, n_days=60, start_day=0):
    """Daily series whose cumulative sum equals the exact adoption curve."""
    times = np.arange(n_days, dtype=float)
    cumulative = bass_cumulative(params, times)
    values = np.diff(np.concatenate([[0.0], cumulative]))
    return TimeSeries(days=np.arange(start_day, start_day + n_days), values=values)


# --- closed-form curve ---------------------------------------------------------


def test_cumulative_starts_at_zero():
    for params in (BassParams(0.01, 0.2), BassParams(0.5, 0.0), BassParams(1.0, 5.0)):
        assert bass_cumulative(params, 0.0) == 0.0


def test_cumulative_pure_innovation():
    # q = 0 collapses to 1 - exp(-p t)
    params = BassParams(p=0.07, q=0.0)
    for t in (0.5, 3.0, 20.0):
        assert bass_cumulative(params, t) == pytest.approx(
            1.0 - math.exp(-0.07 * t), abs=1e-14
        )
        assert bass_instantaneous(params, t) == pytest.approx(
            0.07 * math.exp(-0.07 * t), abs=1e-14
        )


def test_cumulative_matches_ode_integration():
    params = BassParams(p=0.03, q=0.38)
    assert bass_cumulative(params, 10.0) == pytest.approx(
        oracles.bass_cumulative_rk4(0.03, 0.38, 10.0), abs=1e-8
    )


def test_instantaneous_at_zero_is_p():
    for p in (0.001, 0.03, 0.9):
        assert bass_instantaneous(BassParams(p=p, q=1.2), 0.0) == p


@given(params_strategy)
@settings(max_examples=80, deadline=None)
def test_curve_shape_properties(params):
    times = np.linspace(0.0, 200.0, 101)
    values = bass_cumulative(params, times)
    assert np.all(values >= 0.0) and np.all(values <= 1.0)
    assert np.all(np.diff(values) >= 0.0)
    # the limit is only reached where float rounding swallows the decay term
    representable = (params.p + params.q) * times < 25.0
    assert np.all(values[representable] < 1.0)
    rem = bass_remaining(params, times)
    assert np.all(rem >= 0.0)
    # complement is exact where the direct subtraction is representable
    mask = values < 0.99
    np.testing.assert_allclose(rem[mask], 1.0 - values[mask], rtol=1e-12, atol=1e-13)


@given(params_strategy, st.floats(0.1, 80.0))
@settings(max_examples=100, deadline=None)
def test_instantaneous_is_the_derivative(params, t):
    h = 1e-5
    numeric = (bass_cumulative(params, t + h) - bass_cumulative(params, t - h)) / (2 * h)
    analytic = bass_instantaneous(params, t)
    assert numeric == pytest.approx(analytic, rel=1e-6, abs=1e-9)


@given(params_strategy, st.floats(0.0, 100.0))
@settings(max_examples=200, deadline=None)
def test_defining_identity(params, t):
    cumulative = bass_cumulative(params, t)
    rate = bass_instantaneous(params, t)
    remaining = bass_remaining(params, t)
    assert abs(rate / remaining - (params.p + params.q * cumulative)) < 1e-10


def test_peak_time():
    params = BassParams(p=0.02, q=0.4)
    t_star = params.peak_time
    assert t_star == pytest.approx(math.log(0.4 / 0.02) / 0.42)
    h = 1e-4
    slope = (
        bass_instantaneous(params, t_star + h) - bass_instantaneous(params, t_star - h)
    ) / (2 * h)
    assert abs(slope) < 1e-6
    assert BassParams(p=0.3, q=0.1).peak_time is None
    assert BassParams(p=0.3, q=0.3).peak_time is None


def test_params_validation():
    with pytest.raises(ValueError):
        BassParams(p=0.0, q=0.1)
    with pytest.raises(ValueError):
        BassParams(p=1e-7, q=0.1)
    with pytest.raises(ValueError):
        BassParams(p=1.5, q=0.1)
    with pytest.raises(ValueError):
        BassParams(p=0.1, q=-0.1)
    with pytest.raises(ValueError):
        BassParams(p=0.1, q=5.5)
    with pytest.raises(ValueError):
        BassParams(p=math.nan, q=0.1)


# --- jacobian -------------------------------------------------------------------


@given(st.floats(0.01, 0.5), st.floats(0.05, 2.0))
@settings(max_examples=60, deadline=None)
def test_analytic_jacobian_matches_finite_differences(p, q):
    times = np.linspace(0.0, 60.0, 25)
    theta = np.array([p, q])

    def residual(th):
        decay = np.exp(-(th[0] + th[1]) * times)
        return (1.0 - decay) / (1.0 + (th[1] / th[0]) * decay)

    curve, analytic = curve_and_jacobian(p, q, times)
    assert np.array_equal(curve, bass_cumulative(BassParams(p, q), times))
    numeric = oracles.finite_difference_jacobian(residual, theta)
    np.testing.assert_allclose(
        analytic, numeric, rtol=1e-5, atol=1e-8 * np.abs(analytic).max()
    )


@given(st.floats(1e-4, 1.0), st.floats(0.0, 5.0), st.integers(MIN_FIT_POINTS, 400))
@settings(max_examples=200, deadline=None)
def test_jacobian_matches_the_term_by_term_reference(p, q, n_days):
    theta = np.array([p, q])
    times = np.arange(n_days, dtype=float)
    curve, jac = curve_and_jacobian(p, q, times)
    expected_curve, expected = oracles.bass_jacobian_reference(theta, times)
    assert np.array_equal(curve, expected_curve)
    assert jac.shape == expected.shape == (n_days, 2)
    # relative to each column's largest entry: dF/dq cancels towards 0 at small t,
    # and for smaller p or shorter windows the reference loses digits to that
    # cancellation; where x = (p + q) t is below the cutoff the package sums a
    # series instead, and the mpmath test below checks that branch
    bound = 1e-12 * np.abs(expected).max(axis=0)
    subtracted = (p + q) * times >= _SERIES_CUTOFF
    assert np.all(np.abs(jac[:, 0] - expected[:, 0]) <= bound[0])
    assert np.all(np.abs(jac[subtracted, 1] - expected[subtracted, 1]) <= bound[1])


@given(st.floats(1e-6, 1e-5), st.floats(0.0, 5.0) | st.floats(0.0, 1e-4))
@settings(max_examples=20, deadline=None)
def test_jacobian_matches_high_precision_near_the_lower_p_bound(p, q):
    # dF/dq = (u - v) s cancels where x = (p + q) t is small; subtracting
    # u - v there left errors of 3e-10 of the column's largest entry
    times = np.arange(1.0, 400.0)
    _, jac = curve_and_jacobian(p, q, times)
    expected = oracles.bass_jacobian_mp(p, q, times)
    assert np.all(np.abs(jac - expected) <= 1e-13 * np.abs(expected).max(axis=0))


# --- fitting --------------------------------------------------------------------


def test_fit_bass_recovers_exact_curve():
    series = increments_series(BassParams(p=0.02, q=0.4))
    fit = fit_bass(series)
    assert fit.params.p == pytest.approx(0.02, abs=1e-4)
    assert fit.params.q == pytest.approx(0.4, abs=1e-4)
    assert fit.rmse < 1e-8
    assert fit.converged
    assert fit.n_points == 60


def test_fit_recovers_under_noise():
    truth = BassParams(p=0.02, q=0.4)
    times = np.arange(60, dtype=float)
    exact = bass_cumulative(truth, times)
    errors = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        fit = fit_cumulative(times, exact + rng.normal(0.0, 0.01, times.size))
        errors.append((abs(fit.params.p - truth.p), abs(fit.params.q - truth.q)))
    mean_p = sum(e[0] for e in errors) / len(errors)
    mean_q = sum(e[1] for e in errors) / len(errors)
    assert mean_p <= 0.02
    assert mean_q <= 0.02


def test_fit_constant_series_does_not_crash():
    series = TimeSeries(days=np.arange(40), values=np.full(40, 3.0))
    fit = fit_bass(series)
    assert math.isfinite(fit.rmse)
    assert fit.n_points == 40


def test_fit_dominates_every_grid_start():
    rng = np.random.default_rng(12)
    times = np.arange(45, dtype=float)
    observed = np.clip(
        bass_cumulative(BassParams(0.015, 0.55), times) + rng.normal(0.0, 0.03, 45),
        0.0,
        1.2,
    )
    fit = fit_cumulative(times, observed)
    for p0 in GRID_P:
        for q0 in GRID_Q:
            start_norm = np.linalg.norm(
                bass_cumulative(BassParams(p0, q0), times) - observed
            )
            assert fit.residual_norm <= start_norm + 1e-12


def test_fit_is_invariant_to_window_start():
    base = fit_bass(increments_series(BassParams(p=0.05, q=0.7), start_day=0))
    moved = fit_bass(increments_series(BassParams(p=0.05, q=0.7), start_day=730))
    assert moved.params.p == pytest.approx(base.params.p, abs=1e-10)
    assert moved.params.q == pytest.approx(base.params.q, abs=1e-10)


def test_fit_rejects_bad_windows():
    with pytest.raises(ValueError, match="too short"):
        fit_bass(TimeSeries(days=np.arange(10), values=np.ones(10)))
    with pytest.raises(ValueError, match="degenerate"):
        fit_bass(TimeSeries(days=np.arange(30), values=np.zeros(30)))


# --- batch ----------------------------------------------------------------------


def make_record(song_id, sv, ws):
    return SongRecord(
        song_id=song_id, display_title=song_id, short_video_series=sv, web_search_series=ws
    )


def test_batch_empty():
    batch = batch_bass([])
    assert batch.items == ()
    assert batch.n_fits == 0


def test_batch_identical_platforms_agree():
    series = increments_series(BassParams(p=0.03, q=0.5))
    batch = batch_bass([make_record("song", series, series)])
    item = batch.items[0]
    assert item.error is None
    assert item.short_video.params.p == pytest.approx(item.web_search.params.p, abs=1e-6)
    assert item.short_video.params.q == pytest.approx(item.web_search.params.q, abs=1e-6)
    assert batch.n_fits == 2


def test_batch_captures_failures_and_continues():
    good = increments_series(BassParams(p=0.03, q=0.5))
    short = TimeSeries(days=np.arange(5), values=np.ones(5))
    batch = batch_bass(
        [
            make_record("ok", good, good),
            make_record("short", short, good),
            make_record("no-ws", good, None),
        ]
    )
    assert [item.song_id for item in batch.items] == ["ok", "short", "no-ws"]
    assert batch.items[0].error is None
    assert "too short" in batch.items[1].error
    assert "web-search" in batch.items[2].error
    assert batch.n_failed == 2
    assert batch.n_fits == 2


def fit_bits(fit):
    """A fit's fields, floats by their bits."""
    return (
        fit.params.p.hex(), fit.params.q.hex(), fit.residual_norm.hex(), fit.rmse.hex(),
        fit.converged, fit.n_points,
    )


def noisy_window(p, q, n_days, noise, seed):
    """A window of daily increments: the curve's, each scaled by its own noise factor."""
    rng = np.random.default_rng(seed)
    series = increments_series(BassParams(p, q), n_days=n_days, start_day=730000)
    return TimeSeries(days=series.days, values=series.values * rng.lognormal(0.0, noise, n_days))


@given(
    st.lists(
        st.builds(
            noisy_window,
            st.floats(1e-3, 0.2),
            st.floats(0.0, 1.5),
            st.integers(MIN_FIT_POINTS, 400),
            st.sampled_from([0.0, 0.1, 0.5]),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=6,
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=25, deadline=None)
def test_batch_fits_are_bit_identical_to_each_window_alone(windows, random):
    random.shuffle(windows)
    # record i pairs window i with the next one, so every window is fitted twice
    records = [
        make_record(f"s{i}", windows[i], windows[(i + 1) % len(windows)]) for i in range(len(windows))
    ]
    batch = batch_bass(records)
    alone = {id(w): fit_bits(fit_bass(w)) for w in windows}
    for item, record in zip(batch.items, records):
        assert item.error is None
        assert fit_bits(item.short_video) == alone[id(record.short_video_series)]
        assert fit_bits(item.web_search) == alone[id(record.web_search_series)]


def test_batch_reports_each_failure_in_record_order():
    good = [increments_series(BassParams(p, q)) for p, q in ((0.03, 0.5), (0.01, 0.2), (0.08, 0.9))]
    short = TimeSeries(days=np.arange(10), values=np.ones(10))
    zeros = TimeSeries(days=np.arange(30), values=np.zeros(30))
    failing = [
        (make_record("sv-short", short, good[0]), "series too short for diffusion fit (need >= 20 points)"),
        (make_record("ws-short", good[0], short), "series too short for diffusion fit (need >= 20 points)"),
        (make_record("sv-zero", zeros, good[1]), "degenerate series"),
        (make_record("ws-zero", good[1], zeros), "degenerate series"),
        (make_record("no-ws", good[2], None), "record has no web-search series"),
    ]
    fine = [make_record(f"ok-{i}", good[i], good[(i + 1) % 3]) for i in range(3)]
    # a good record before and after every failure
    records = [fine[0]]
    for i, (record, _) in enumerate(failing):
        records += [record, fine[(i + 1) % 3]]
    batch = batch_bass(records)

    assert [item.song_id for item in batch.items] == [record.song_id for record in records]
    assert [item.error for item in batch.items[1::2]] == [message for _, message in failing]
    assert all(item.short_video is None and item.web_search is None for item in batch.items[1::2])
    expected = {item.song_id: item for item in batch_bass(fine).items}
    for item in batch.items[::2]:
        assert item.error is None
        assert fit_bits(item.short_video) == fit_bits(expected[item.song_id].short_video)
        assert fit_bits(item.web_search) == fit_bits(expected[item.song_id].web_search)
    assert batch.n_failed == len(failing)

    assert batch_bass([]).items == ()
    all_failing = batch_bass([record for record, _ in failing])
    assert [item.error for item in all_failing.items] == [message for _, message in failing]
    assert all_failing.n_fits == 0
