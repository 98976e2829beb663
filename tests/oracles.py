"""Independent reference implementations used only by the tests.

Every routine here reaches its answer by a different route than the package:
normal equations solved by hand-rolled Gaussian elimination instead of
orthogonal factorization, closed-form beta polynomials and recurrences
instead of continued fractions, an arbitrary-precision tail probability, an
LCS-based edit distance and a catalog matcher that scores every entry with
it, a Runge-Kutta integration of the diffusion ODE, and central differences
instead of the analytic Jacobian, also at arbitrary precision.  It also
holds earlier forms of package code: ``damped_step_solve``, the
Gauss-Newton step by ``np.linalg.solve``; ``damped_step_cholesky_loop``, the
same step by a Cholesky loop for any number of parameters;
``damped_least_squares_loop``, the Gauss-Newton solver one run at a time;
``bass_jacobian_reference``, the diffusion Jacobian term by term;
``write_report_reference``, the package's report writer as it was when each
row went through ``json.dumps`` or ``csv.writer``;
``write_series_file_reference``, the series writer as it was when each row
went through ``datetime.date``; and ``bulk_series_reference``, the bulk
series reader as it was when its regex carried the whole value grammar.
Last, ``read_report`` is the reader the tests use to load the package's
JSONL and CSV reports back; the package itself only writes them.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import re
from pathlib import Path
from typing import Callable

import mpmath as mp
import numpy as np

from resurge.numerics import _normal_sums
from resurge.series import TimeSeries

# ---------------------------------------------------------------------------
# linear algebra: normal equations by Gaussian elimination


def gaussian_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b by elimination with partial pivoting, no libraries."""
    a = np.array(a, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0.0:
            raise ValueError("singular system")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def normal_equations_ols(design: np.ndarray, response: np.ndarray):
    """(coefficients, ssr) via X'X beta = X'y."""
    X = np.asarray(design, dtype=np.float64)
    y = np.asarray(response, dtype=np.float64)
    coef = gaussian_solve(X.T @ X, X.T @ y)
    resid = y - X @ coef
    return coef, float(resid @ resid)


# ---------------------------------------------------------------------------
# incomplete beta by three non-continued-fraction routes


def beta_integer_polynomial(x: float, a: int, b: int) -> float:
    """I_x(a, b) for positive integers via the binomial tail identity."""
    if a < 1 or b < 1 or a != int(a) or b != int(b):
        raise ValueError("integer parameters required")
    n = a + b - 1
    return sum(
        math.comb(n, j) * x**j * (1.0 - x) ** (n - j) for j in range(a, n + 1)
    )


def beta_halfint_recurrence(x: float, a: float, b: float) -> float:
    """I_x(a, b) when 2a and 2b are integers, by upward recurrences.

    Bases: I_x(1,1) = x, I_x(1/2,1/2) = (2/pi) asin(sqrt(x)),
    I_x(1,1/2) = 1 - sqrt(1-x), I_x(1/2,1) = sqrt(x).  Then
    I_x(a+1,b) = I_x(a,b) - x^a (1-x)^b / (a B(a,b)) and
    I_x(a,b+1) = I_x(a,b) + x^a (1-x)^b / (b B(a,b)).
    Loses relative precision when the result is much smaller than the
    intermediate terms; fine as a cross-check away from the far tails.
    """
    if (2 * a) % 1 or (2 * b) % 1:
        raise ValueError("2a and 2b must be integers")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0

    def term(aa: float, bb: float) -> float:
        log_b = math.lgamma(aa) + math.lgamma(bb) - math.lgamma(aa + bb)
        return math.exp(aa * math.log(x) + bb * math.log1p(-x) - log_b)

    a_cur = 0.5 if (2 * a) % 2 else 1.0
    b_cur = 0.5 if (2 * b) % 2 else 1.0
    if a_cur == 1.0 and b_cur == 1.0:
        val = x
    elif a_cur == 0.5 and b_cur == 0.5:
        val = (2.0 / math.pi) * math.asin(math.sqrt(x))
    elif a_cur == 1.0:
        val = 1.0 - math.sqrt(1.0 - x)
    else:
        val = math.sqrt(x)
    while a_cur < a:
        val -= term(a_cur, b_cur) / a_cur
        a_cur += 1.0
    while b_cur < b:
        val += term(a_cur, b_cur) / b_cur
        b_cur += 1.0
    return min(max(val, 0.0), 1.0)


def beta_mp(x: float, a: float, b: float, dps: int = 30) -> float:
    """Arbitrary-precision I_x(a, b), rounded to float at the end."""
    with mp.workdps(dps):
        return float(mp.betainc(mp.mpf(a), mp.mpf(b), 0, mp.mpf(x), regularized=True))


def f_survival_oracle(f: float, d1: int, d2: int) -> float:
    """P(F_{d1,d2} > f) through the high-precision beta route."""
    if f == 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    x = d2 / (d2 + d1 * f)
    return beta_mp(x, d2 / 2.0, d1 / 2.0)


# ---------------------------------------------------------------------------
# lag regression assembled by explicit loops


def lagged_design_loops(target, source, lag: int, intercept: bool = True):
    """Systematically indexed lag matrix, row by row, column by column."""
    tv = list(map(float, target))
    sv = None if source is None else list(map(float, source))
    n = len(tv)
    rows = []
    y = []
    for t in range(lag, n):
        row = []
        if intercept:
            row.append(1.0)
        for ell in range(1, lag + 1):
            row.append(tv[t - ell])
        if sv is not None:
            for ell in range(1, lag + 1):
                row.append(sv[t - ell])
        rows.append(row)
        y.append(tv[t])
    return np.array(rows), np.array(y)


def granger_pvalues_oracle(source, target, max_lag: int = 5):
    """Per-lag (f, p) pairs via normal equations and the mpmath tail."""
    n = len(target)
    out = []
    for lag in range(1, max_lag + 1):
        df_den = (n - lag) - (2 * lag + 1)
        design_r, y = lagged_design_loops(target, None, lag)
        design_u, _ = lagged_design_loops(target, source, lag)
        _, ssr_r = normal_equations_ols(design_r, y)
        _, ssr_u = normal_equations_ols(design_u, y)
        if ssr_u <= 0.0:
            f_stat = math.inf if ssr_r > 0.0 else 0.0
        else:
            f_stat = max(((ssr_r - ssr_u) / lag) / (ssr_u / df_den), 0.0)
        out.append((f_stat, f_survival_oracle(f_stat, lag, df_den)))
    return out


# ---------------------------------------------------------------------------
# string matching via longest common subsequence


def _lcs_len(a: str, b: str) -> int:
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[len(b)]


def indel_distance_lcs(a: str, b: str) -> int:
    """len(a) + len(b) - 2 LCS(a, b); equals the minimal insert+delete count."""
    return len(a) + len(b) - 2 * _lcs_len(a, b)


def partial_ratio_windows(a: str, b: str) -> int:
    """Exhaustive window enumeration with the LCS-based distance."""
    import re

    norm = lambda s: re.sub(r"\s+", " ", s.lower()).strip()
    s, l = norm(a), norm(b)
    if len(s) > len(l):
        s, l = l, s
    candidates = [l[i : i + len(s)] for i in range(len(l) - len(s) + 1)]
    if len(l) < 2 * len(s) and len(l) != len(s):
        candidates.append(l)
    best = max(
        1.0 - indel_distance_lcs(s, w) / (len(s) + len(w)) for w in candidates
    )
    return int(math.floor(best * 100.0 + 0.5))


def match_catalog_reference(display_title: str, catalog, threshold: int):
    """Score every entry with the window oracle; the smallest key wins.

    The key is (-min(title score, artist score), release date, title), both
    scores must exceed ``threshold``, and the first of equal keys is kept.
    """
    best_key = None
    best_entry = None
    for entry in catalog:
        title_score = partial_ratio_windows(entry.title, display_title)
        artist_score = partial_ratio_windows(entry.artist, display_title)
        if min(title_score, artist_score) <= threshold:
            continue
        key = (-min(title_score, artist_score), entry.release_date, entry.title)
        if best_key is None or key < best_key:
            best_key = key
            best_entry = entry
    return best_entry


# ---------------------------------------------------------------------------
# diffusion curve by numerical integration of the defining ODE


def bass_cumulative_rk4(p: float, q: float, t_end: float, steps: int = 20000) -> float:
    """Integrate F' = (p + q F)(1 - F), F(0) = 0, with classic Runge-Kutta."""
    h = t_end / steps
    f = 0.0
    rate = lambda y: (p + q * y) * (1.0 - y)
    for _ in range(steps):
        k1 = rate(f)
        k2 = rate(f + 0.5 * h * k1)
        k3 = rate(f + 0.5 * h * k2)
        k4 = rate(f + h * k3)
        f += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return f


# ---------------------------------------------------------------------------
# jacobians by central differences instead of the analytic derivative


def finite_difference_jacobian(
    model: Callable[[np.ndarray], np.ndarray],
    params: np.ndarray,
    step_scale: float = 1e-6,
) -> np.ndarray:
    """Central-difference Jacobian of ``model`` at ``params``.

    Step per coordinate is step_scale * max(|param|, 1).  Probe points are not
    clamped, so keep ``params`` away from the edges of the model's domain.
    """
    p = np.asarray(params, dtype=np.float64)
    cols = []
    for i in range(p.size):
        h = step_scale * max(abs(p[i]), 1.0)
        up = p.copy()
        dn = p.copy()
        up[i] += h
        dn[i] -= h
        cols.append((np.asarray(model(up), dtype=np.float64) - np.asarray(model(dn), dtype=np.float64)) / (2.0 * h))
    return np.column_stack(cols)


def bass_jacobian_mp(p: float, q: float, times, dps: int = 40) -> np.ndarray:
    """dF/dp and dF/dq of the diffusion curve, one row per time, by
    ``mpmath.diff`` at ``dps`` digits, rounded to float at the end."""

    def curve(pp, qq, t):
        decay = mp.exp(-(pp + qq) * t)
        return (1 - decay) / (1 + (qq / pp) * decay)

    with mp.workdps(dps):
        pp, qq = mp.mpf(p), mp.mpf(q)
        return np.array([
            [float(mp.diff(lambda a: curve(a, qq, t), pp)), float(mp.diff(lambda b: curve(pp, b, t), qq))]
            for t in map(mp.mpf, np.asarray(times, dtype=np.float64).tolist())
        ])


# ---------------------------------------------------------------------------
# the Gauss-Newton step and the diffusion Jacobian as the package first wrote them


def damped_step_solve(jtj, grad, lam: float) -> np.ndarray:
    """The s solving (JᵀJ + lam·I) s = -Jᵀr by LU with partial pivoting.

    The package's damped step before it factored the damped matrix by
    Cholesky on Python floats; raises ``np.linalg.LinAlgError`` only for an
    exactly singular matrix.
    """
    a = np.asarray(jtj, dtype=np.float64)
    return np.linalg.solve(a + lam * np.eye(a.shape[0]), -np.asarray(grad, dtype=np.float64))


def damped_step_cholesky_loop(
    jtj: list[list[float]], grad: list[float], lam: float
) -> list[float] | None:
    """The s solving (JᵀJ + lam·I) s = -Jᵀr, by Cholesky on Python floats.

    The package's damped step for any number of parameters, before it took
    the closed form for two.  None when a pivot is not positive, as when the
    damped matrix is not positive definite to working precision, or when s
    is not finite.
    """
    n = len(grad)
    chol: list[list[float]] = []  # row i holds L[i][0..i]
    for i in range(n):
        row = []
        for j in range(i):
            other = chol[j]
            row.append((jtj[i][j] - sum([row[k] * other[k] for k in range(j)])) / other[j])
        pivot = jtj[i][i] + lam - sum([v * v for v in row])
        if not pivot > 0.0:
            return None
        row.append(math.sqrt(pivot))
        chol.append(row)
    # L y = -grad, then Lᵀ s = y
    y: list[float] = []
    for i in range(n):
        y.append((-grad[i] - sum([chol[i][k] * y[k] for k in range(i)])) / chol[i][i])
    step = [0.0] * n
    for i in reversed(range(n)):
        step[i] = (y[i] - sum([chol[k][i] * step[k] for k in range(i + 1, n)])) / chol[i][i]
    return step if all(map(math.isfinite, step)) else None


def _loop_evaluate(model, x: list[float]) -> tuple[list[list[float]], list[float], float]:
    """JᵀJ and Jᵀr as nested lists of floats, and ||r||, at x.

    The norm is NaN, and the lists are empty, when r or J is non-finite.  The
    sums are the package's own, over this run's residuals alone.
    """
    resid, jac = model(np.array(x))
    resid = np.asarray(resid, dtype=np.float64)
    jac = np.asarray(jac, dtype=np.float64)
    if not (np.isfinite(resid).all() and np.isfinite(jac).all()):
        return [], [], math.nan
    sums, _ = _normal_sums(resid, jac, np.zeros(1, dtype=np.intp), np.empty(resid.size))
    a, b, d, g0, g1, rr = sums[:, 0].tolist()
    return [[a, b], [b, d]], [g0, g1], math.sqrt(rr)


def damped_least_squares_loop(model, init, bounds, max_iter: int, tol: float, events=None):
    """The package's damped Gauss-Newton solver as it was, one run at a time,
    on Python floats: (params, residual norm, iterations, converged).

    ``model(params)`` returns r and its Jacobian with one row per parameter.
    The step is ``damped_step_cholesky_loop``, which does the closed form's
    float operations.  ``events``, when given, collects what each iterate
    did: "no step" (a pivot that is not positive, or a non-finite step),
    "bound" (a clamped trial), "reject" (a trial that is non-finite or
    raises the cost), and "max_iter" at the end of a run that did not
    converge.
    """
    note = events.append if events is not None else lambda event: None
    x = [float(v) for v in init]
    lo = [float(a) for a, _ in bounds]
    hi = [float(b) for _, b in bounds]
    jtj, grad, cost = _loop_evaluate(model, x)
    if math.isnan(cost):
        raise ValueError("invalid starting point")

    lam = 1e-3
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        step = damped_step_cholesky_loop(jtj, grad, lam)
        if step is None:
            note("no step")
            lam = min(lam * 10.0, 1e12)
            continue
        x_new = [min(max(v + s, a), b) for v, s, a, b in zip(x, step, lo, hi)]
        if x_new != [v + s for v, s in zip(x, step)]:
            note("bound")
        jtj_new, grad_new, cost_new = _loop_evaluate(model, x_new)
        if not cost_new <= cost:  # a NaN cost, from a non-finite trial, is rejected too
            note("reject")
            lam = min(lam * 10.0, 1e12)
            continue
        step_norm = math.sqrt(sum([(a - b) * (a - b) for a, b in zip(x_new, x)]))
        improvement = cost - cost_new
        x, jtj, grad, cost = x_new, jtj_new, grad_new, cost_new
        lam = max(lam / 10.0, 1e-12)
        if step_norm < tol or cost == 0.0 or improvement < tol * cost:
            converged = True
            break
    if not converged:
        note("max_iter")
    return tuple(x), cost, iterations, converged


def bass_jacobian_reference(theta: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(t) and dF/d(p, q) by the quotient rule term by term, as the package
    first computed them, with one ``column_stack`` for the two columns."""
    p, q = float(theta[0]), float(theta[1])
    decay = np.exp(-(p + q) * times)
    ratio = q / p
    denom = 1.0 + ratio * decay
    d_decay = -times * decay  # same for p and q
    one_minus = 1.0 - decay
    d_p = (-d_decay * denom - one_minus * (-(q / p**2) * decay + ratio * d_decay)) / denom**2
    d_q = (-d_decay * denom - one_minus * ((1.0 / p) * decay + ratio * d_decay)) / denom**2
    return one_minus / denom, np.column_stack([d_p, d_q])


# ---------------------------------------------------------------------------
# writing reports row by row and reading them back


def read_report(path, format: str) -> list[dict]:
    """Read a report back; JSONL restores types, CSV yields strings."""
    if format not in ("jsonl", "csv"):
        raise ValueError("format must be 'jsonl' or 'csv'")
    path = Path(path)
    if format == "jsonl":
        return [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if line
        ]
    with open(path, encoding="utf-8", newline="") as fh:
        return [dict(row) for row in csv.DictReader(fh)]


def _jsonl_value(value):
    return float(format(value, ".12g")) if isinstance(value, float) else value


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_report_reference(rows, fieldnames, path, format: str) -> None:
    """The package's report writer as it was row by row, through ``json`` and ``csv``."""
    if format not in ("jsonl", "csv"):
        raise ValueError("format must be 'jsonl' or 'csv'")
    # a generator would be used up here, and a dict or str row would be
    # iterated as its keys or characters
    if not isinstance(rows, (list, tuple)):
        raise TypeError(f"report rows must be a list or tuple, not {type(rows).__name__}")
    for index, row in enumerate(rows):
        if not isinstance(row, tuple):
            raise TypeError(f"report row {index} is a {type(row).__name__}, not a tuple")
        if len(row) != len(fieldnames):
            raise ValueError(
                f"report row {index} has {len(row)} values for {len(fieldnames)} columns"
            )
    path = Path(path)
    if format == "jsonl":
        text = "".join(
            json.dumps(dict(zip(fieldnames, map(_jsonl_value, row))), ensure_ascii=False) + "\n"
            for row in rows
        )
        path.write_text(text, encoding="utf-8")
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(fieldnames)
            writer.writerows(map(_csv_value, row) for row in rows)


def write_series_file_reference(series, path) -> None:
    """The package's series writer as it was, one ``date.fromordinal`` per row."""
    lines = ["date,value"]
    for day, value in zip(series.days, series.values):
        lines.append(f"{dt.date.fromordinal(int(day)).isoformat()},{float(value)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_BULK_VALUE = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_BULK_BODY_RE = re.compile(rf"(?:[0-9]{{4}}-[0-9]{{2}}-[0-9]{{2}},{_BULK_VALUE}\n)+")


def bulk_series_reference(text: str):
    """The package's bulk series reader as it was, the value grammar in its regex.

    The series of a file in canonical form, or None for the line reader.
    """
    start = len("date,value\n")
    if not (text.startswith("date,value\n") and _BULK_BODY_RE.fullmatch(text, start)):
        return None
    fields = text[start:].replace("\n", ",").split(",")
    count = len(fields) // 2
    try:
        days = np.fromiter(
            map(dt.date.toordinal, map(dt.date.fromisoformat, fields[0:-1:2])),
            dtype=np.int64, count=count,
        )
        values = np.fromiter(map(float, fields[1::2]), dtype=np.float64, count=count)
        return TimeSeries(days=days, values=values)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# seeded synthetic series generators shared by the statistical tests


def synth_pair_values(seed: int):
    """One deterministic series pair: lengths 30-200, null or coupled.

    Positive-offset AR(1) data keeps the design conditioning moderate so the
    normal-equations route stays accurate enough to compare against.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 201))
    source = np.empty(n)
    target = np.empty(n)
    source[0] = 0.0
    target[0] = 0.0
    noise_s = rng.normal(0.0, 1.0, n)
    noise_t = rng.normal(0.0, 1.0, n)
    coupled = seed % 2 == 0
    gain = 0.6 if coupled else 0.0
    for t in range(1, n):
        source[t] = 0.5 * source[t - 1] + noise_s[t]
        target[t] = 0.4 * target[t - 1] + gain * source[t - 1] + noise_t[t]
    # shift into the valid non-negative range; affine shifts do not change F
    return source + 20.0, target + 20.0, n


def null_pair_values(seed: int, n: int = 60):
    """Independent positive-offset white-noise pair for calibration."""
    rng = np.random.default_rng(seed)
    return rng.normal(20.0, 3.0, n), rng.normal(20.0, 3.0, n)
