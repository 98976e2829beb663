"""Two-parameter diffusion curves fitted to cumulative popularity.

The adoption fraction F(t) solves b(t) / (1 - F(t)) = p + q F(t) with
F(0) = 0, where b = F' is the instantaneous fraction.  In closed form

    F(t) = (1 - exp(-(p+q) t)) / (1 + (q/p) exp(-(p+q) t)).

Fits run on the cumulative curve normalized to end at 1, so the market-size
parameter is fixed at one and only (p, q) remain free.

A batch of fits is refined in one lockstep Gauss-Newton solve: the windows
are laid end to end in one flat array, each solver run evaluates and sums
over its own window alone, and work arrays are sized once for every run and
reused.  A fit is therefore bit for bit the same whichever fits share its
batch, and ``fit_cumulative`` and ``fit_bass`` are batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .numerics import damped_least_squares
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

# where x = (p + q) t lies below this, dF/dq sums x + expm1(-x) as a series
_SERIES_CUTOFF = 0.1
# 1/k! for k = 11 down to 2: Horner coefficients of (x + expm1(-x)) / x² in -x;
# the first term left out is below 1e-17 of the sum for |x| < _SERIES_CUTOFF
_SERIES_COEFFS = tuple(1.0 / math.factorial(k) for k in range(11, 1, -1))


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


def _x_plus_expm1_neg(x: np.ndarray) -> np.ndarray:
    """x + expm1(-x) = x²/2! - x³/3! + ... for |x| below ``_SERIES_CUTOFF``."""
    y = -x
    acc = np.full_like(x, _SERIES_COEFFS[0])
    for coeff in _SERIES_COEFFS[1:]:
        acc *= y
        acc += coeff
    return acc * x * x


def _cumulative_and_jacobian(work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(t) and its Jacobian w.r.t. (p, q), one row per parameter, from one
    ``decay`` array.

    ``work`` has six rows and a column per point; its first three rows hold
    p, q and t on entry.  It is overwritten, and the results are views of
    it, so no array of the points' size is allocated.

    F takes the float operations of ``_cumulative_for``, so the two agree bit
    for bit.  The derivative is analytic because finite differences probe
    outside p > 0 near the lower bound.  With r = q/p, denom = 1 + r decay,
    s = decay / denom², u = (1 + r) t and v = (1 - decay) / p,
    dF/dp = (u + r v) s and dF/dq = (u - v) s.  With x = (p + q) t,
    u - v = (x + expm1(-x)) / p, which the subtraction loses to cancellation
    where x is small; there it is summed as a series instead.
    """
    p, q, t, x, decay, denom = work
    np.add(p, q, out=x)
    x *= t
    np.negative(x, out=decay)
    np.exp(decay, out=decay)
    np.abs(x, out=denom)
    # at x = 0 the subtraction is exact
    small = np.flatnonzero((denom < _SERIES_CUTOFF) & (denom > 0.0))
    small_x, small_p = x[small], p[small]
    ratio = np.divide(q, p, out=q)
    one_minus = np.subtract(1.0, decay, out=x)
    np.multiply(ratio, decay, out=denom)
    denom += 1.0
    v = np.divide(one_minus, p, out=p)
    curve = np.divide(one_minus, denom, out=x)
    np.multiply(denom, denom, out=denom)
    scale = np.divide(decay, denom, out=decay)
    u = np.add(ratio, 1.0, out=denom)
    u *= t
    # dF/dp overwrites r, dF/dq overwrites t
    np.multiply(ratio, v, out=q)
    q += u
    q *= scale
    np.subtract(u, v, out=t)
    if small.size:
        t[small] = _x_plus_expm1_neg(small_x) / small_p
    t *= scale
    return curve, work[1:3]


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


def _window_model(times: np.ndarray, observed: np.ndarray, starts: np.ndarray,
                  sizes: np.ndarray, run_window: np.ndarray):
    """The solver's model over windows laid end to end in ``times`` and
    ``observed``; run i fits window ``run_window[i]``.

    Its work rows are sized for every run at once and reused by each call.
    """
    work = np.empty((6, int(sizes[run_window].sum())))

    def model(params: np.ndarray, runs: np.ndarray):
        windows = run_window[runs]
        lengths = sizes[windows]
        ends = np.cumsum(lengths)
        run_starts = ends - lengths
        n = int(ends[-1])
        # the flat index of every point of the listed runs, run after run
        index = np.repeat(starts[windows] - run_starts, lengths)
        index += np.arange(n)
        rows = work[:, :n]
        rows[0] = np.repeat(params[:, 0], lengths)
        rows[1] = np.repeat(params[:, 1], lengths)
        np.take(times, index, out=rows[2])
        curve, jac = _cumulative_and_jacobian(rows)
        curve -= np.take(observed, index, out=rows[0])
        return curve, jac, run_starts

    return model


def _fit_windows(windows: list[tuple[np.ndarray, np.ndarray]]) -> list[BassFit]:
    """Least-squares (p, q) for each (times, observed) window, all refined in
    one lockstep solve.

    Every grid start of every window is scored by its residual norm; the best
    few of each window are refined, and its smallest refined residual wins
    (the earlier start on ties), so a fit never trails any grid start.  A
    window with no start of finite residual norm is a ValueError.
    """
    sizes = np.array([times.size for times, _ in windows])
    starts = np.cumsum(sizes) - sizes
    times = np.concatenate([times for times, _ in windows])
    observed = np.concatenate([values for _, values in windows])

    norms = np.empty((len(_GRID), len(windows)))
    for row, (p, q) in zip(norms, _GRID.tolist()):
        resid = _cumulative_for(p, q, times) - observed
        np.sqrt(np.add.reduceat(resid * resid, starts), out=row)
    usable = np.isfinite(norms)
    if not usable.any(axis=0).all():
        raise ValueError("unfittable series")
    # (rank, window) -> grid start, unusable starts ranked last
    ranked = np.argsort(np.where(usable, norms, np.inf), axis=0, kind="stable")[:_REFINE_STARTS]
    run_window, run_rank = np.nonzero(np.take_along_axis(usable, ranked, axis=0).T)

    result = damped_least_squares(
        _window_model(times, observed, starts, sizes, run_window),
        _GRID[ranked[run_rank, run_window]],
        bounds=[P_BOUNDS, Q_BOUNDS],
        max_iter=_FIT_MAX_ITER,
        tol=_FIT_TOL,
    )
    refined = np.full((len(windows), _REFINE_STARTS), np.inf)
    refined[run_window, run_rank] = result.residual_norm
    best_rank = np.argmin(refined, axis=1)
    run_of = np.zeros((len(windows), _REFINE_STARTS), dtype=np.intp)
    run_of[run_window, run_rank] = np.arange(run_window.size)
    best = run_of[np.arange(len(windows)), best_rank]

    return [
        BassFit(
            params=BassParams(p=p, q=q),
            residual_norm=norm,
            rmse=norm / math.sqrt(n_points),
            converged=converged,
            n_points=n_points,
        )
        for (p, q), norm, converged, n_points in zip(
            result.params[best].tolist(),
            result.residual_norm[best].tolist(),
            result.run_converged[best].tolist(),
            sizes.tolist(),
        )
    ]


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
    return _fit_windows([(times, observed)])[0]


def _window(series: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
    """Day offsets and cumulative fractions of one popularity window."""
    if len(series) < MIN_FIT_POINTS:
        raise ValueError(
            f"series too short for diffusion fit (need >= {MIN_FIT_POINTS} points)"
        )
    fractions = cumulative_normalized(series)  # rejects an all-zero window
    return (series.days - series.days[0]).astype(np.float64), fractions.values


def fit_bass(series: TimeSeries) -> BassFit:
    """Fit a diffusion curve to one peak-focused popularity window."""
    return _fit_windows([_window(series)])[0]


def batch_bass(records: Iterable) -> BassBatch:
    """Fit both platforms of each record, capturing per-song failures.

    Every record is windowed first, in order; then all fits are refined in
    one solve.  Each fit is bit for bit what ``fit_bass`` gives on its window
    alone.
    """
    songs = []
    windows = []
    for record in records:
        try:
            sv = _window(record.short_video_series)
            if record.web_search_series is None:
                raise ValueError("record has no web-search series")
            ws = _window(record.web_search_series)
        except (ValueError, ArithmeticError) as exc:
            songs.append((record.song_id, str(exc)))
            continue
        songs.append((record.song_id, None))
        windows += [sv, ws]
    fits = iter(_fit_windows(windows) if windows else ())
    return BassBatch(
        items=tuple(
            BassItem(song_id=song_id, error=error)
            if error is not None
            else BassItem(song_id=song_id, short_video=next(fits), web_search=next(fits))
            for song_id, error in songs
        )
    )
