"""Lag-based predictive-causality screening between two aligned daily series.

For each lag L the restricted autoregression predicts the target from its own
L past values; the unrestricted model adds L past values of the source.  Both
share one column-equilibrated QR factorization of the unrestricted design, the
restricted one being its leading columns: the squared trailing L entries of
Q^T y are the improvement in the residual sum of squares.  That improvement
gives an F statistic with (L, n_eff - 2L - 1) degrees of freedom, n_eff being
the usable rows after dropping the first L; it does not depend on the units of
either series.  A song's verdict comes from the smallest p-value over
the swept lags compared against alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import f_survival, ols_fit
from .series import TimeSeries

__all__ = [
    "DEFAULT_ALPHA",
    "LagSpec",
    "LagResult",
    "GrangerResult",
    "GrangerItem",
    "GrangerBatch",
    "granger_test",
    "batch_granger",
]

DEFAULT_ALPHA = 0.1

# verdicts need the nested F-test to have at least this many aligned points
MIN_SERIES_LENGTH = 20


@dataclass(frozen=True)
class LagSpec:
    """Inclusive lag sweep range."""

    min_lag: int = 1
    max_lag: int = 5

    def __post_init__(self) -> None:
        if not (1 <= self.min_lag <= self.max_lag):
            raise ValueError("lag range must satisfy 1 <= min_lag <= max_lag")

    def __iter__(self):
        return iter(range(self.min_lag, self.max_lag + 1))


@dataclass(frozen=True)
class LagResult:
    lag: int
    f_stat: float
    df_num: int
    df_den: int
    p_value: float
    ssr_restricted: float
    ssr_unrestricted: float


@dataclass(frozen=True)
class GrangerResult:
    """Per-lag statistics plus the min-p verdict for one series pair."""

    per_lag: tuple[LagResult, ...]
    best_p: float
    causal: bool
    alpha: float


@dataclass(frozen=True)
class GrangerItem:
    song_id: str
    result: GrangerResult | None = None
    error: str | None = None


@dataclass(frozen=True)
class GrangerBatch:
    items: tuple[GrangerItem, ...]

    @property
    def n_total(self) -> int:
        return len(self.items)

    @property
    def n_failed(self) -> int:
        return sum(1 for it in self.items if it.error is not None)

    @property
    def n_tested(self) -> int:
        return self.n_total - self.n_failed

    @property
    def n_causal(self) -> int:
        return sum(
            1 for it in self.items if it.result is not None and it.result.causal
        )


def _lagged_design(
    target: np.ndarray, source: np.ndarray, lag: int
) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix and response for the lag-``lag`` autoregression.

    ``target`` and ``source`` are the values of two aligned series longer than
    ``lag``; the caller checks both.
    Columns: intercept, then target lags 1..lag, then source lags 1..lag; the
    leading 1 + lag columns are the restricted model.  Rows are the n - lag
    observations that have a full lag history.
    """
    n = len(target)
    cols = [np.ones(n - lag)]
    for values in (target, source):
        for ell in range(1, lag + 1):
            cols.append(values[lag - ell : n - ell])
    return np.column_stack(cols), target[lag:]


def granger_test(
    source: TimeSeries,
    target: TimeSeries,
    lags: LagSpec = LagSpec(),
    alpha: float = DEFAULT_ALPHA,
) -> GrangerResult:
    """Does the source series help predict the target series?

    Runs the nested F-test at every lag in ``lags`` and aggregates by the
    minimum p-value; the pair is causal when that minimum is below ``alpha``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not np.array_equal(target.days, source.days):
        raise ValueError("series are not aligned on the same dates")
    n = len(target)
    if n < MIN_SERIES_LENGTH:
        raise ValueError(
            f"series too short for causality test (need >= {MIN_SERIES_LENGTH} points)"
        )
    for role, s in (("source", source), ("target", target)):
        if s.values.max() == s.values.min():
            raise ValueError(f"degenerate (constant) {role} series")

    per_lag = []
    for lag in lags:
        n_eff = n - lag
        df_den = n_eff - (2 * lag + 1)
        if df_den < 1:
            raise ValueError(f"series too short for lag {lag}")
        design, y = _lagged_design(target.values, source.values, lag)
        fit = ols_fit(design, y)
        gain = float(fit.effects[1 + lag :] @ fit.effects[1 + lag :])
        if fit.ssr <= 0.0:
            f_stat = np.inf if gain > 0.0 else 0.0
        else:
            f_stat = (gain / lag) / (fit.ssr / df_den)
        p_value = f_survival(f_stat, lag, df_den)
        per_lag.append(
            LagResult(
                lag=lag,
                f_stat=float(f_stat),
                df_num=lag,
                df_den=df_den,
                p_value=p_value,
                ssr_restricted=fit.ssr + gain,
                ssr_unrestricted=fit.ssr,
            )
        )

    best_p = min(r.p_value for r in per_lag)
    return GrangerResult(per_lag=tuple(per_lag), best_p=best_p, causal=best_p < alpha, alpha=alpha)


def batch_granger(
    records,
    lags: LagSpec = LagSpec(),
    alpha: float = DEFAULT_ALPHA,
) -> GrangerBatch:
    """Run :func:`granger_test` over curated records, capturing per-song errors.

    Each record supplies the short-video series as source and the web-search
    series as target.  A record that fails (too short, constant, singular)
    becomes an error item; the batch keeps going and preserves input order.
    """
    items = []
    for record in records:
        try:
            if record.web_search_series is None:
                raise ValueError("record has no web-search series")
            result = granger_test(
                source=record.short_video_series,
                target=record.web_search_series,
                lags=lags,
                alpha=alpha,
            )
            items.append(GrangerItem(song_id=record.song_id, result=result))
        except (ValueError, ArithmeticError) as exc:
            items.append(GrangerItem(song_id=record.song_id, error=str(exc)))
    return GrangerBatch(items=tuple(items))
