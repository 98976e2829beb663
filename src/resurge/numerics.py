"""Numerical kernels: least squares, F-distribution tails, and damped
Gauss-Newton over two bounded parameters.

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
    "NlsFit",
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
class NlsFit:
    """Outcome of a damped Gauss-Newton run."""

    params: tuple[float, float]
    residual_norm: float
    iterations: int
    converged: bool


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


def _evaluate(model, x: list[float]) -> tuple[list[list[float]], list[float], float]:
    """JᵀJ and Jᵀr as nested lists of floats, and ||r||, at x.

    The norm is NaN, and the lists are empty, when r or J is non-finite.
    """
    resid, J = model(np.array(x))
    resid = np.asarray(resid, dtype=np.float64)
    if not (np.isfinite(resid).all() and np.isfinite(J).all()):
        return [], [], math.nan
    # sqrt(r @ r) is what np.linalg.norm computes for a 1-d array
    return (J.T @ J).tolist(), (J.T @ resid).tolist(), math.sqrt(resid @ resid)


def _damped_step(jtj: list[list[float]], grad: list[float], lam: float) -> list[float] | None:
    """The s solving (JᵀJ + lam·I) s = -Jᵀr, by 2×2 Cholesky on Python floats.

    None when a pivot is not positive, as when the damped matrix is not
    positive definite to working precision, or when s is not finite.
    """
    pivot = jtj[0][0] + lam
    if not pivot > 0.0:
        return None
    l00 = math.sqrt(pivot)
    l10 = jtj[1][0] / l00
    pivot = jtj[1][1] + lam - l10 * l10
    if not pivot > 0.0:
        return None
    l11 = math.sqrt(pivot)
    # L y = -grad, then Lᵀ s = y
    y0 = -grad[0] / l00
    s1 = (-grad[1] - l10 * y0) / l11 / l11
    s0 = (y0 - l10 * s1) / l00
    return [s0, s1] if math.isfinite(s0) and math.isfinite(s1) else None


def damped_least_squares(
    model: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    init: np.ndarray,
    bounds: Sequence[tuple[float, float]],
    max_iter: int,
    tol: float,
) -> NlsFit:
    """Minimize ||r(params)||^2 over two parameters in a box, by Gauss-Newton
    steps with adaptive damping.

    ``init`` holds two starting values and ``bounds`` a (lower, upper) pair
    for each; another length, or an ``init`` outside its pair (as with any
    NaN or inverted pair), is a ValueError.  ``model(params)`` returns r and
    its Jacobian as arrays (one row per residual, one column per parameter).
    It runs once at ``init`` and once per trial point.  A non-finite r or
    Jacobian is a ValueError at ``init`` and rejects a trial.

    Each step solves the damped 2×2 normal equations by closed-form Cholesky
    on Python floats; a pivot that is not positive, or a non-finite step,
    rejects the step.  The damping factor multiplies by 10 whenever a step is
    rejected, as when it increases the residual norm, and divides by 10 on a
    decrease.  Steps are clamped to ``bounds``.  Converged when the relative
    residual-norm improvement of an accepted step falls below ``tol`` or the
    step norm does.  The returned residual norm never exceeds the norm at
    ``init``; a run that hits ``max_iter`` returns the best iterate with
    converged=False.
    """
    x = [float(v) for v in init]
    lo = [float(a) for a, _ in bounds]
    hi = [float(b) for _, b in bounds]
    if len(x) != 2 or len(lo) != 2:
        raise ValueError("init and bounds must each have two entries")
    if not all(a <= v <= b for v, a, b in zip(x, lo, hi)):
        raise ValueError("init must lie within bounds")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    jtj, grad, cost = _evaluate(model, x)
    if math.isnan(cost):
        raise ValueError("invalid starting point")

    lam = 1e-3
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        step = _damped_step(jtj, grad, lam)
        if step is None:
            lam = min(lam * 10.0, 1e12)
            continue
        x_new = [min(max(v + s, a), b) for v, s, a, b in zip(x, step, lo, hi)]
        jtj_new, grad_new, cost_new = _evaluate(model, x_new)
        if not cost_new <= cost:  # a NaN cost, from a non-finite trial, is rejected too
            lam = min(lam * 10.0, 1e12)
            continue
        step_norm = math.sqrt(sum([(a - b) * (a - b) for a, b in zip(x_new, x)]))
        improvement = cost - cost_new
        x, jtj, grad, cost = x_new, jtj_new, grad_new, cost_new
        lam = max(lam / 10.0, 1e-12)
        if step_norm < tol or cost == 0.0 or improvement < tol * cost:
            converged = True
            break

    return NlsFit(params=tuple(x), residual_norm=cost, iterations=iterations, converged=converged)
