"""Lagged-design construction and the nested F-test screen."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import resurge
from resurge.curation import SongRecord
from resurge.granger import LagSpec, _lagged_design, batch_granger, granger_test
from resurge.series import TimeSeries

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath


def ts(values, start=0):
    return TimeSeries(
        days=np.arange(start, start + len(values)), values=np.asarray(values, float)
    )


def planted_pair(seed, n=100, gain=0.9):
    """target(t) = gain * source(t-1) + noise at a tenth of the source scale."""
    rng = np.random.default_rng(seed)
    source = rng.normal(20.0, 2.0, n)
    target = np.empty(n)
    target[0] = gain * 20.0
    target[1:] = gain * source[:-1] + rng.normal(0.0, 0.1 * source.std(), n - 1)
    return ts(source), ts(target)


def f_from_ratio(lag_result):
    """F = ((1 - r) / r) * df_den / df_num, from the reported ssr ratio r."""
    r = lag_result.ssr_ratio
    return math.inf if r == 0.0 else (1.0 - r) / r * lag_result.df_den / lag_result.df_num


def record(song_id, source, target):
    return SongRecord(
        song_id=song_id,
        display_title=song_id,
        short_video_series=source,
        web_search_series=target,
    )


# --- LagSpec ------------------------------------------------------------------


def test_lag_spec_defaults_and_iteration():
    spec = LagSpec()
    assert list(spec) == [1, 2, 3, 4, 5]
    assert list(LagSpec(2, 4)) == [2, 3, 4]
    with pytest.raises(ValueError):
        LagSpec(0, 3)
    with pytest.raises(ValueError):
        LagSpec(4, 2)


# --- _lagged_design ------------------------------------------------------------


def test_design_shape_with_source():
    target = ts(np.arange(6.0))
    source = ts(np.arange(6.0) * 10.0)
    design, y = _lagged_design(target.values, source.values, lag=2)
    assert design.shape == (4, 5)  # 1 + 2 target lags + 2 source lags
    assert y.tolist() == [2.0, 3.0, 4.0, 5.0]
    assert design[0].tolist() == [1.0, 1.0, 0.0, 10.0, 0.0]


@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_design_matches_loop_oracle(seed, lag):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(lag + 2, 40))
    target_values = rng.uniform(0.0, 50.0, n)
    source_values = rng.uniform(0.0, 50.0, n)
    design, y = _lagged_design(target_values, source_values, lag)
    ref_design, ref_y = oracles.lagged_design_loops(target_values, source_values, lag)
    np.testing.assert_array_equal(design, ref_design)
    np.testing.assert_array_equal(y, ref_y)


# --- granger_test -----------------------------------------------------------------


def test_perfect_predictor_drives_p_to_zero():
    rng = np.random.default_rng(5)
    target_values = rng.uniform(1.0, 10.0, 40)
    source_values = np.append(target_values[1:], target_values[-1])
    result = granger_test(ts(source_values), ts(target_values), LagSpec(1, 1))
    lag1 = result.per_lag[0]
    assert 0.0 <= lag1.ssr_ratio <= 1e-24
    assert lag1.p_value < 1e-12
    assert result.causal


def test_planted_coupling_detected():
    source, target = planted_pair(seed=0)
    result = granger_test(source, target)
    assert result.per_lag[0].p_value < 1e-4
    assert result.causal
    # asymmetry: lag-1 prediction works forward, not backward
    reverse = granger_test(target, source, LagSpec(1, 1))
    assert reverse.best_p > result.alpha


def test_dof_accounting():
    source, target = planted_pair(seed=1, n=20)
    result = granger_test(source, target)
    for lag_result in result.per_lag:
        lag = lag_result.lag
        assert lag_result.df_num == lag
        assert lag_result.df_den == (20 - lag) - (2 * lag + 1)
        # the restricted sum adds a sum of squares to the unrestricted one
        assert 0.0 <= lag_result.ssr_ratio <= 1.0
        assert lag_result.f_stat >= 0.0
    assert result.best_p == min(r.p_value for r in result.per_lag)


def test_matches_independent_oracle():
    for seed in range(5):
        source_values, target_values, _ = oracles.synth_pair_values(seed)
        result = granger_test(ts(source_values), ts(target_values))
        expected = oracles.granger_pvalues_oracle(source_values, target_values)
        for lag_result, (f_ref, p_ref) in zip(result.per_lag, expected):
            assert lag_result.f_stat == pytest.approx(f_ref, rel=1e-8, abs=1e-9)
            assert lag_result.p_value == pytest.approx(p_ref, rel=1e-8, abs=1e-12)
            lag = lag_result.lag
            design_r, y = oracles.lagged_design_loops(target_values, None, lag)
            design_u, _ = oracles.lagged_design_loops(target_values, source_values, lag)
            ssr_r = oracles.normal_equations_ols(design_r, y)[1]
            ssr_u = oracles.normal_equations_ols(design_u, y)[1]
            assert lag_result.ssr_ratio == pytest.approx(ssr_u / ssr_r, rel=1e-8)
            assert lag_result.f_stat == pytest.approx(f_from_ratio(lag_result), rel=1e-12)


def test_near_collinear_pair_at_scale_matches_oracle():
    """450 days at 1e9 views, the target the source (or the source a day
    earlier) to 1e-4 relative, so its lag columns nearly repeat the source's."""
    rng = np.random.default_rng(5)
    n = 450
    walk = np.empty(n)
    walk[0] = 0.0
    noise = rng.normal(0.0, 1.0, n)
    for t in range(1, n):
        walk[t] = 0.7 * walk[t - 1] + noise[t]
    source = 1e9 * (20.0 + walk)
    for shift in (0, 1):
        target = 3e9 * (20.0 + np.roll(walk, shift)) * (1.0 + 1e-4 * rng.normal(0.0, 1.0, n))
        result = granger_test(ts(source), ts(target))
        expected = oracles.granger_pvalues_oracle(source, target)
        for lag_result, (f_ref, p_ref) in zip(result.per_lag, expected):
            assert lag_result.f_stat == pytest.approx(f_ref, rel=1e-8)
            assert lag_result.p_value == pytest.approx(p_ref, rel=1e-8, abs=1e-12)


# OpenBLAS kernels with the CPU feature each needs.  A kernel this CPU lacks is
# skipped; a BLAS other than OpenBLAS ignores OPENBLAS_CORETYPE.
OPENBLAS_KERNELS = {"SkylakeX": "AVX512_SKX", "Haswell": "AVX2", "Sandybridge": "AVX"}

OWN_LAGS_CHILD = """
import numpy as np
from resurge.granger import LagSpec, granger_test
from resurge.series import TimeSeries
ts = lambda v: TimeSeries(days=np.arange(len(v)), values=np.asarray(v, float))
for source, target in {pairs!r}:
    r = granger_test(ts(source), ts(target), LagSpec(1, 1)).per_lag[0]
    print(r.f_stat, r.p_value, r.ssr_ratio)
"""


def test_target_its_own_lags_predict_exactly():
    """Both residual sums are 0 in exact arithmetic.  In floats they come out
    0.0 or rounding-sized depending on the LAPACK kernel: on the second pair,
    F taken from those sums is 0, 21.0 (p = 1.6e-4, causal) and 0.0049 under
    OpenBLAS's SkylakeX, Haswell and Sandybridge kernels.  The restricted sum
    is under the rounding floor, so every kernel gives F = 0, p = 1 and ratio
    1.0.  In the third pair y is constant over the estimation rows, so the
    centred y is 0 and only the floor's uncentred term catches the fit."""
    pairs = [
        ([2.0, 2.0, 2.0, 3.0] + [2.0] * 21, [2.0, 1.0] * 12 + [2.0]),
        ([3.0, 2.0] * 9 + [4.0, 2.0, 3.0, 2.0, 3.0, 2.0, 3.0], [4.0, 2.0] * 12 + [4.0]),
        ([3.0, 2.0] * 9 + [4.0, 2.0, 3.0, 2.0, 3.0, 2.0, 3.0], [5.0] + [3.0] * 24),
    ]
    for source, target in pairs:
        lag1 = granger_test(ts(source), ts(target), LagSpec(1, 1)).per_lag[0]
        assert (lag1.f_stat, lag1.p_value, lag1.ssr_ratio) == (0.0, 1.0, 1.0)
    src = str(Path(resurge.__file__).resolve().parent.parent)
    features = umath.__cpu_features__
    for kernel in [k for k, feature in OPENBLAS_KERNELS.items() if features.get(feature)]:
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE=kernel)
        proc = subprocess.run([sys.executable, "-c", OWN_LAGS_CHILD.format(pairs=pairs)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0.0 1.0 1.0\n" * len(pairs), kernel


def test_affine_rescaling_invariance():
    """Each series independently maps to 10**k * (x + c): k in [-6, 15], c up to 1e6."""
    rng = np.random.default_rng(0)
    for seed in (2, 3):
        source_values, target_values, _ = oracles.synth_pair_values(seed)
        base = granger_test(ts(source_values), ts(target_values))
        for k_source in range(-6, 16):
            for k_target in range(-6, 16):
                c_source, c_target = rng.uniform(0.0, 1e6, 2)
                scaled = granger_test(
                    ts(10.0**k_source * (source_values + c_source)),
                    ts(10.0**k_target * (target_values + c_target)),
                )
                for a, b in zip(base.per_lag, scaled.per_lag):
                    assert abs(a.f_stat - b.f_stat) <= 1e-8 * max(1.0, abs(a.f_stat))
                    assert abs(a.p_value - b.p_value) <= 1e-8


def test_large_target_offsets_keep_the_verdict():
    """The intercept absorbs a constant added to the target, and so does the
    rounding floor: offsets up to 1e9 keep the verdict, F and p."""
    for seed in (2, 3):
        source_values, target_values, _ = oracles.synth_pair_values(seed)
        base = granger_test(ts(source_values), ts(target_values))
        for offset in (1e7, 1e8, 1e9):
            shifted = granger_test(ts(source_values), ts(target_values + offset))
            assert shifted.causal == base.causal
            for a, b in zip(base.per_lag, shifted.per_lag):
                assert b.f_stat == pytest.approx(a.f_stat, rel=1e-6)
                assert abs(a.p_value - b.p_value) <= 1e-6


@pytest.mark.bit_identity
@pytest.mark.filterwarnings("error")
def test_extreme_units_change_nothing(capfd):
    """Scaling by 2**k, k up to ±1000, keeps F, p, the ssr ratio and the
    verdict bit for bit; scaling by 10**±160 keeps the verdict.  Nothing is
    printed."""
    for seed in (2, 3):
        source_values, target_values, _ = oracles.synth_pair_values(seed)
        base = granger_test(ts(source_values), ts(target_values))
        for k_source, k_target in [
            (0, 1000), (1000, 0), (0, -1000), (-1000, 0), (1000, 1000), (-1000, -1000),
            (1000, -1000), (-1000, 1000), (520, -520), (-200, 200), (200, 200),
        ]:
            scaled = granger_test(
                ts(np.ldexp(source_values, k_source)), ts(np.ldexp(target_values, k_target))
            )
            assert scaled.causal == base.causal
            for a, b in zip(base.per_lag, scaled.per_lag):
                assert (b.f_stat, b.p_value, b.ssr_ratio) == (a.f_stat, a.p_value, a.ssr_ratio)
        for k_source, k_target in [(160, 0), (0, 160), (-160, 0), (0, -160), (160, -160)]:
            scaled = granger_test(
                ts(10.0**k_source * source_values), ts(10.0**k_target * target_values)
            )
            assert scaled.causal == base.causal
            for a, b in zip(base.per_lag, scaled.per_lag):
                assert abs(a.f_stat - b.f_stat) <= 1e-8 * max(1.0, abs(a.f_stat))
    assert capfd.readouterr().err == ""


def test_null_lag1_pvalues_roughly_uniform():
    hits = 0
    for seed in range(200):
        source_values, target_values = oracles.null_pair_values(seed)
        result = granger_test(ts(source_values), ts(target_values), LagSpec(1, 1))
        hits += result.best_p < 0.1
    assert 0.05 <= hits / 200 <= 0.15


def test_verdict_is_min_p_below_alpha():
    # at 0.1 all six null pairs are negative; 0.5 also exercises the positive side
    verdicts = set()
    for seed in range(6):
        source_values, target_values = oracles.null_pair_values(seed, n=80)
        for alpha in (0.1, 0.5):
            result = granger_test(ts(source_values), ts(target_values), alpha=alpha)
            assert result.best_p == min(r.p_value for r in result.per_lag)
            assert result.causal == (result.best_p < alpha)
            verdicts.add(result.causal)
    assert verdicts == {True, False}


def test_degenerate_and_short_inputs():
    flat = ts([3.0] * 30)
    wiggly = ts(np.linspace(1.0, 5.0, 30) + np.sin(np.arange(30)))
    with pytest.raises(ValueError, match=r"degenerate \(constant\) source series"):
        granger_test(flat, wiggly)
    with pytest.raises(ValueError, match=r"degenerate \(constant\) target series"):
        granger_test(wiggly, flat)
    short = ts(np.arange(19, dtype=float))
    with pytest.raises(ValueError, match="too short"):
        granger_test(short, short)
    with pytest.raises(ValueError, match="alpha"):
        granger_test(wiggly, wiggly, alpha=1.5)


def test_too_short_for_lag():
    # 20 points pass the length floor, but lag 7 leaves 13 rows for 15 columns
    source, target = planted_pair(seed=3, n=20)
    with pytest.raises(ValueError, match="series too short for lag 7"):
        granger_test(source, target, LagSpec(7, 7))


def test_misaligned_series_rejected():
    source, target = planted_pair(seed=4, n=30)
    shifted = ts(target.values, start=1)
    with pytest.raises(ValueError, match="not aligned"):
        granger_test(source, shifted)


# --- batch_granger ------------------------------------------------------------------


def test_batch_empty():
    batch = batch_granger([])
    assert batch.items == ()
    assert batch.n_total == batch.n_causal == batch.n_failed == 0


def test_batch_flags_only_the_planted_record():
    source, target = planted_pair(seed=0)
    records = [
        record("null-a", ts(oracles.null_pair_values(1, 100)[0]), ts(oracles.null_pair_values(1, 100)[1])),
        record("planted", source, target),
        record("null-b", ts(oracles.null_pair_values(4, 100)[0]), ts(oracles.null_pair_values(4, 100)[1])),
    ]
    batch = batch_granger(records)
    assert [item.song_id for item in batch.items] == ["null-a", "planted", "null-b"]
    verdicts = {item.song_id: item.result.causal for item in batch.items}
    assert verdicts == {"null-a": False, "planted": True, "null-b": False}
    assert batch.n_causal == 1
    assert batch.n_tested == 3


def test_batch_captures_per_record_errors():
    source, target = planted_pair(seed=0)
    records = [
        record("ok", source, target),
        record("no-ws", source, None),
        record("flat", ts([2.0] * 40), ts([2.0] * 40)),
        record("short", ts([1.0, 2.0, 3.0]), ts([3.0, 2.0, 1.0])),
    ]
    batch = batch_granger(records)
    assert batch.n_total == 4
    assert batch.n_failed == 3
    assert batch.items[0].error is None
    assert "web-search" in batch.items[1].error
    assert "degenerate" in batch.items[2].error
    assert "too short" in batch.items[3].error


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.5, float("nan")])
def test_batch_rejects_alpha_outside_unit_interval(alpha):
    source, target = planted_pair(seed=0)
    records = iter([record("ok", source, target)])
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
        batch_granger(records, alpha=alpha)
    # rejected before any record is read
    assert next(records).song_id == "ok"
    with pytest.raises(ValueError, match="alpha"):
        batch_granger([], alpha=alpha)
