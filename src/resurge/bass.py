"""Two-parameter diffusion curves fitted to cumulative popularity.

The adoption fraction F(t) solves b(t) / (1 - F(t)) = p + q F(t) with
F(0) = 0, where b = F' is the instantaneous fraction.  In closed form

    F(t) = (1 - exp(-(p+q) t)) / (1 + (q/p) exp(-(p+q) t)).

Fits run on the cumulative curve normalized to end at 1, so the market-size
parameter is fixed at one and only (p, q) remain free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .numerics import NlsFit, damped_least_squares
from .series import TimeSeries, cumulative_normalized

__all__ = [
    "GRID_P",
    "GRID_Q",
    "P_BOUNDS",
    "Q_BOUNDS",
    "BassParams",
    "BassFit",
    "BassItem",
    "BassBatch",
    "bass_cumulative",
    "bass_remaining",
    "bass_instantaneous",
    "fit_cumulative",
    "fit_bass",
    "batch_bass",
]

# multi-start grid spanning slow to fast adoption
GRID_P = (0.001, 0.01, 0.03, 0.1)
GRID_Q = (0.01, 0.1, 0.38, 0.8)

# the grid's (p, q) pairs, one per row, p-major
_GRID = np.array([(p, q) for p in GRID_P for q in GRID_Q])

P_BOUNDS = (1e-6, 1.0)
Q_BOUNDS = (0.0, 5.0)

# a window below this many points cannot support a meaningful curve fit
MIN_FIT_POINTS = 20

_REFINE_STARTS = 3
_FIT_MAX_ITER = 200
_FIT_TOL = 1e-12


@dataclass(frozen=True)
class BassParams:
    """Innovation (p) and imitation (q) rates."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise ValueError("parameters must be finite")
        if not P_BOUNDS[0] <= self.p <= P_BOUNDS[1]:
            raise ValueError(f"p must lie in [{P_BOUNDS[0]}, {P_BOUNDS[1]}]")
        if not Q_BOUNDS[0] <= self.q <= Q_BOUNDS[1]:
            raise ValueError(f"q must lie in [{Q_BOUNDS[0]}, {Q_BOUNDS[1]}]")

    @property
    def peak_time(self) -> float | None:
        """Time of the adoption-rate peak, defined only when q > p."""
        if self.q <= self.p:
            return None
        return math.log(self.q / self.p) / (self.p + self.q)


@dataclass(frozen=True)
class BassFit:
    params: BassParams
    residual_norm: float
    rmse: float
    converged: bool
    n_points: int


@dataclass(frozen=True)
class BassItem:
    song_id: str
    short_video: BassFit | None = None
    web_search: BassFit | None = None
    error: str | None = None


@dataclass(frozen=True)
class BassBatch:
    items: tuple[BassItem, ...]

    @property
    def n_total(self) -> int:
        return len(self.items)

    @property
    def n_failed(self) -> int:
        return sum(1 for it in self.items if it.error is not None)

    @property
    def n_fits(self) -> int:
        return sum(
            (it.short_video is not None) + (it.web_search is not None)
            for it in self.items
        )


def _cumulative_for(p: float, q: float, times: np.ndarray) -> np.ndarray:
    decay = np.exp(-(p + q) * times)
    return (1.0 - decay) / (1.0 + (q / p) * decay)


def _cumulative_and_jacobian(theta: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(t) and its Jacobian w.r.t. (p, q), both from one ``decay`` array.

    F takes the float operations of ``_cumulative_for``, so the two agree bit
    for bit.  The derivative is analytic because finite differences probe
    outside p > 0 near the lower bound.  With r = q/p, denom = 1 + r decay,
    s = decay / denom², u = (1 + r) t and v = (1 - decay) / p,
    dF/dp = (u + r v) s and dF/dq = (u - v) s.
    """
    p, q = float(theta[0]), float(theta[1])
    decay = np.exp(-(p + q) * times)
    ratio = q / p
    one_minus = 1.0 - decay
    denom = 1.0 + ratio * decay
    scale = decay / (denom * denom)
    u = (1.0 + ratio) * times
    v = one_minus / p
    jac = np.empty((times.size, 2))
    np.multiply(u + ratio * v, scale, out=jac[:, 0])
    np.multiply(u - v, scale, out=jac[:, 1])
    return one_minus / denom, jac


def bass_cumulative(params: BassParams, t):
    """Adoption fraction F(t); accepts a scalar or an array of times."""
    out = _cumulative_for(params.p, params.q, np.asarray(t, dtype=np.float64))
    return float(out) if np.ndim(t) == 0 else out


def bass_remaining(params: BassParams, t):
    """1 - F(t) computed without cancellation, usable deep in the tail."""
    times = np.asarray(t, dtype=np.float64)
    decay = np.exp(-(params.p + params.q) * times)
    ratio = params.q / params.p
    out = (1.0 + ratio) * decay / (1.0 + ratio * decay)
    return float(out) if np.ndim(t) == 0 else out


def bass_instantaneous(params: BassParams, t):
    """Adoption rate b(t) = (p + q F(t)) (1 - F(t))."""
    cumulative = bass_cumulative(params, t)
    remaining = bass_remaining(params, t)
    out = (params.p + params.q * np.asarray(cumulative)) * np.asarray(remaining)
    return float(out) if np.ndim(t) == 0 else out


def fit_cumulative(times: np.ndarray, observed: np.ndarray) -> BassFit:
    """Least-squares (p, q) for observed cumulative fractions at given times.

    All grid starts are scored by their initial residual norm; the best few
    are refined with the damped Gauss-Newton solver and the smallest refined
    residual wins, so the result never trails any grid start.
    """
    times = np.asarray(times, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    if times.ndim != 1 or observed.ndim != 1 or times.shape != observed.shape:
        raise ValueError("times and observed must be 1-d arrays of equal length")
    if times.size < 2:
        raise ValueError("need at least two observations to fit")

    def model(theta: np.ndarray):
        curve, jac = _cumulative_and_jacobian(theta, times)
        return curve - observed, jac

    # every grid start at once: one row of residuals per (p, q) pair
    starts = _cumulative_for(_GRID[:, :1], _GRID[:, 1:], times) - observed
    finite = np.isfinite(starts).all(axis=1)
    if not finite.any():
        raise ValueError("unfittable series")
    norms = np.linalg.norm(starts[finite], axis=1)
    scored = sorted(zip(norms.tolist(), np.flatnonzero(finite).tolist()))

    best: NlsFit | None = None
    for _, start in scored[:_REFINE_STARTS]:
        fit = damped_least_squares(
            model,
            _GRID[start],
            bounds=[P_BOUNDS, Q_BOUNDS],
            max_iter=_FIT_MAX_ITER,
            tol=_FIT_TOL,
        )
        if best is None or fit.residual_norm < best.residual_norm:
            best = fit

    params = BassParams(p=float(best.params[0]), q=float(best.params[1]))
    return BassFit(
        params=params,
        residual_norm=best.residual_norm,
        rmse=best.residual_norm / math.sqrt(times.size),
        converged=best.converged,
        n_points=int(times.size),
    )


def fit_bass(series: TimeSeries) -> BassFit:
    """Fit a diffusion curve to one peak-focused popularity window."""
    if len(series) < MIN_FIT_POINTS:
        raise ValueError(
            f"series too short for diffusion fit (need >= {MIN_FIT_POINTS} points)"
        )
    fractions = cumulative_normalized(series)  # rejects an all-zero window
    times = (series.days - series.days[0]).astype(np.float64)
    return fit_cumulative(times, fractions.values)


def batch_bass(records: Iterable) -> BassBatch:
    """Fit both platforms of each record, capturing per-song failures."""
    items = []
    for record in records:
        try:
            sv = fit_bass(record.short_video_series)
            if record.web_search_series is None:
                raise ValueError("record has no web-search series")
            ws = fit_bass(record.web_search_series)
            items.append(
                BassItem(song_id=record.song_id, short_video=sv, web_search=ws)
            )
        except (ValueError, ArithmeticError) as exc:
            items.append(BassItem(song_id=record.song_id, error=str(exc)))
    return BassBatch(items=tuple(items))
