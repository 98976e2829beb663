"""Numerical kernels: least squares, F-distribution tails, and damped
Gauss-Newton over two bounded parameters, for many runs in lockstep.

Everything here is self-contained on top of numpy so the statistical results
do not depend on the version of any external stats library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "OlsSolution",
    "NlsBatch",
    "ols_fit",
    "regularized_incomplete_beta",
    "f_survival",
    "damped_least_squares",
]

# rank tolerance on the R diagonal of the column-equilibrated design, where
# |R_jj| <= 1 is the sine of the angle from column j to the columns before it
_RANK_RTOL = 1e-10

# continued-fraction evaluation limits
_CF_MAX_ITER = 300
_CF_EPS = 1e-15
_CF_TINY = 1e-300


@dataclass(frozen=True)
class OlsSolution:
    """Least-squares solution, its sum of squared residuals, and ``effects``:
    Q^T y for the thin factorization design = Q R, as in R's ``lm()$effects``."""

    coefficients: np.ndarray
    ssr: float
    effects: np.ndarray


@dataclass(frozen=True)
class NlsBatch:
    """Outcome of a lockstep damped Gauss-Newton solve, one entry per run.

    ``iterations`` and ``converged`` summarize the batch: the iterates of all
    runs summed, and whether every run converged.
    """

    params: np.ndarray  # (runs, 2)
    residual_norm: np.ndarray
    run_iterations: np.ndarray
    run_converged: np.ndarray

    @property
    def iterations(self) -> int:
        return int(self.run_iterations.sum())

    @property
    def converged(self) -> bool:
        return bool(self.run_converged.all())


def ols_fit(design: np.ndarray, response: np.ndarray) -> OlsSolution:
    """Solve min ||design @ beta - response||^2 by orthogonal factorization.

    The design is factored rather than squared into normal equations, so the
    conditioning of the problem is not doubled.  Columns are scaled to unit
    norm first, so the rank test does not depend on their units.  Raises
    ValueError on a rank-deficient design ("singular design matrix").
    """
    X = np.asarray(design, dtype=np.float64)
    y = np.asarray(response, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("design must be a 2-d array")
    if y.ndim != 1:
        raise ValueError("response must be a 1-d array")
    n, k = X.shape
    if y.shape[0] != n:
        raise ValueError("design and response row counts differ")
    if k < 1 or n < k:
        raise ValueError("design needs at least as many rows as columns")

    norms = np.linalg.norm(X, axis=0)
    if not np.all(norms > 0.0):
        raise ValueError("singular design matrix")
    q, r = np.linalg.qr(X / norms)
    if np.abs(np.diag(r)).min() < _RANK_RTOL:
        raise ValueError("singular design matrix")
    effects = q.T @ y
    coef = np.linalg.solve(r, effects) / norms
    resid = y - X @ coef
    return OlsSolution(coefficients=coef, ssr=float(resid @ resid), effects=effects)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the standard continued fraction for I_x(a, b)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # the even coefficient d_{2m}, then the odd d_{2m+1}
        for num in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + num * d
            if abs(d) < _CF_TINY:
                d = _CF_TINY
            c = 1.0 + num / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Continued-fraction evaluation; the complement is used when x lies past
    (a + 1) / (a + b + 2), where the fraction for the direct side converges
    slowly.  Absolute accuracy is ~1e-10 or better over a, b up to a few
    hundred.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x > (a + 1.0) / (a + b + 2.0):
        result = 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b
    else:
        result = front * _beta_continued_fraction(a, b, x) / a
    # rounding can push the value a few ulp outside [0, 1]
    return min(max(result, 0.0), 1.0)


def f_survival(f: float, d1: int, d2: int) -> float:
    """P(F > f) for an F distribution with (d1, d2) degrees of freedom.

    Computed through the incomplete beta identity
    P(F > f) = I_{d2 / (d2 + d1 f)}(d2 / 2, d1 / 2).
    """
    if not (isinstance(d1, (int, np.integer)) and isinstance(d2, (int, np.integer))):
        raise ValueError("degrees of freedom must be integers")
    if d1 < 1 or d2 < 1:
        raise ValueError("degrees of freedom must be positive")
    if math.isnan(f) or f < 0.0:
        raise ValueError("f statistic must be non-negative")
    if f == 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    x = d2 / (d2 + d1 * f)
    return regularized_incomplete_beta(x, d2 / 2.0, d1 / 2.0)


# the damping factor starts here and stays within [_LAM_MIN, _LAM_MAX]
_LAM_START = 1e-3
_LAM_MIN = 1e-12
_LAM_MAX = 1e12


def _normal_sums(
    resid: np.ndarray, jac: np.ndarray, starts: np.ndarray, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """JᵀJ, Jᵀr and rᵀr of each run, and whether its r and J are finite.

    ``resid`` holds the residuals of every run laid end to end, ``jac`` the
    Jacobian with one row per parameter, and ``starts`` the index where each
    run's segment begins; ``scratch`` has at least one entry per residual.
    The sums come back as the rows JᵀJ[0][0], JᵀJ[1][0], JᵀJ[1][1], Jᵀr[0],
    Jᵀr[1] and rᵀr, one column per run.  Each segment is summed by
    ``np.add.reduceat`` over its own values alone, so a run's sums do not
    depend on which runs lie beside it.
    """
    resid = np.asarray(resid, dtype=np.float64)
    jac = np.asarray(jac, dtype=np.float64)
    product = scratch[: resid.size]
    sums = np.empty((6, starts.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for row, (a, b) in zip(sums, ((jac[0], jac[0]), (jac[1], jac[0]), (jac[1], jac[1]),
                                      (jac[0], resid), (jac[1], resid), (resid, resid))):
            np.multiply(a, b, out=product)
            np.add.reduceat(product, starts, out=row)
    finite = np.isfinite(sums).all(axis=0)
    if finite.all():
        return sums, finite
    # a non-finite entry of r or J makes a sum of squares non-finite; finite
    # entries can overflow it too, so only those runs are read again
    for run in np.flatnonzero(~finite).tolist():
        segment = slice(starts[run], starts[run + 1] if run + 1 < starts.size else resid.size)
        finite[run] = np.isfinite(resid[segment]).all() and np.isfinite(jac[:, segment]).all()
    return sums, finite


def _damped_steps(sums: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The s solving (JᵀJ + lam·I) s = -Jᵀr for each run, by closed-form 2×2
    Cholesky, and whether that s is usable.

    ``sums`` holds a column of :func:`_normal_sums` rows per run.  A step is
    unusable when a pivot is not positive, as when the damped matrix is not
    positive definite to working precision, or when s is not finite.
    """
    a, b, d, g0, g1 = sums[:5]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pivot0 = a + lam
        l00 = np.sqrt(pivot0)
        l10 = b / l00
        pivot1 = d + lam - l10 * l10
        l11 = np.sqrt(pivot1)
        # L y = -grad, then Lᵀ s = y
        y0 = -g0 / l00
        s1 = (-g1 - l10 * y0) / l11 / l11
        s0 = (y0 - l10 * s1) / l00
    usable = (pivot0 > 0.0) & (pivot1 > 0.0) & np.isfinite(s0) & np.isfinite(s1)
    return np.stack([s0, s1], axis=1), usable


def damped_least_squares(
    model: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
    init: np.ndarray,
    bounds: Sequence[tuple[float, float]],
    max_iter: int,
    tol: float,
) -> NlsBatch:
    """Minimize ||r(params)||^2 for each of several runs of two parameters in
    a box, by Gauss-Newton steps with adaptive damping, all runs in lockstep.

    ``init`` holds one row of two starting values per run and ``bounds`` a
    (lower, upper) pair per parameter, shared by every run; another shape, or
    an ``init`` outside its pair (as with any NaN or inverted pair), is a
    ValueError.  ``model(params, runs)`` takes the parameter rows of the runs
    listed in ``runs`` (ascending) and returns their residuals laid end to
    end, the Jacobian with one row per parameter and one column per
    residual, and the index where each run's segment starts.  A run's segment
    is never empty and has the same length in every call, and the arrays
    need stay valid only until the next call.  The model runs once for every
    run at ``init``, then once per iterate for the runs with a usable step.
    A non-finite r or Jacobian is a ValueError at ``init`` and rejects a
    trial.

    Each run keeps its own parameters, damping factor and cost, and the
    control flow of a run is that of a solve on its own: each step solves the
    damped 2×2 normal equations by closed-form Cholesky; a pivot that is not
    positive, or a non-finite step, rejects the step.  The damping factor
    multiplies by 10 whenever a step is rejected, as when it increases the
    residual norm, and divides by 10 on a decrease.  Steps are clamped to
    ``bounds``.  A run converges when the relative residual-norm improvement
    of an accepted step falls below ``tol`` or the step norm does, and leaves
    the active set.  A run's residual norm never exceeds its norm at
    ``init``; a run that hits ``max_iter`` keeps its best iterate with
    converged=False.
    """
    x = np.array(init, dtype=np.float64)
    lo = np.array([float(a) for a, _ in bounds])
    hi = np.array([float(b) for _, b in bounds])
    if x.ndim != 2 or x.shape[1] != 2 or lo.size != 2:
        raise ValueError("init and bounds must each have two entries per run")
    if not ((lo <= x) & (x <= hi)).all():
        raise ValueError("init must lie within bounds")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    n_runs = len(x)
    resid, jac, starts = model(x, np.arange(n_runs))
    # runs only leave the set a call lists, so no later call has more residuals
    scratch = np.empty(np.size(resid))
    sums, finite = _normal_sums(resid, jac, starts, scratch)
    if not finite.all():
        raise ValueError("invalid starting point")
    cost = np.sqrt(sums[5])
    lam = np.full(n_runs, _LAM_START)
    iterations = np.zeros(n_runs, dtype=np.int64)
    converged = np.zeros(n_runs, dtype=bool)

    active = np.arange(n_runs)
    for iteration in range(1, max_iter + 1):
        if not active.size:
            break
        iterations[active] = iteration
        step, usable = _damped_steps(sums[:, active], lam[active])
        accepted = np.zeros(active.size, dtype=bool)
        tried = active[usable]
        if tried.size:
            with np.errstate(over="ignore"):
                trial = x[tried] + step[usable]
            trial = np.where(trial < lo, lo, trial)
            trial = np.where(trial > hi, hi, trial)
            trial_sums, finite = _normal_sums(*model(trial, tried), scratch)
            trial_cost = np.sqrt(trial_sums[5])
            # a non-finite trial is rejected like one that raises the cost
            keep = finite & (trial_cost <= cost[tried])
            accepted[np.flatnonzero(usable)[keep]] = True
            runs = tried[keep]
            new_x, new_cost = trial[keep], trial_cost[keep]
            with np.errstate(over="ignore", invalid="ignore"):
                delta = new_x - x[runs]
                step_norm = np.sqrt(delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1])
                improvement = cost[runs] - new_cost
            x[runs] = new_x
            sums[:, runs] = trial_sums[:, keep]
            cost[runs] = new_cost
            lam[runs] = np.maximum(lam[runs] / 10.0, _LAM_MIN)
            converged[runs] = (step_norm < tol) | (new_cost == 0.0) | (improvement < tol * new_cost)
        rejected = active[~accepted]
        lam[rejected] = np.minimum(lam[rejected] * 10.0, _LAM_MAX)
        active = active[~converged[active]]

    return NlsBatch(params=x, residual_norm=cost, run_iterations=iterations, run_converged=converged)
