"""Kernel tests: OLS, incomplete beta, F tails, damped Gauss-Newton."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from resurge.numerics import (
    _damped_step,
    damped_least_squares,
    f_survival,
    ols_fit,
    regularized_incomplete_beta,
)

# tabulated before the implementation existed: bisection of the
# high-precision beta oracle for the f where the (1, 10) tail hits 0.05
F_1_10_AT_P05 = 4.9646027437307144


# --- ols_fit -----------------------------------------------------------------


def test_ols_constant_column_exact():
    design = np.ones((7, 1))
    sol = ols_fit(design, np.full(7, 3.25))
    assert sol.coefficients[0] == pytest.approx(3.25, abs=1e-14)
    assert sol.ssr == pytest.approx(0.0, abs=1e-24)


def test_ols_noiseless_line():
    n = 40
    x = np.arange(n, dtype=float)
    design = np.column_stack([np.ones(n), x])
    response = 2.0 + 3.0 * x
    sol = ols_fit(design, response)
    assert abs(sol.coefficients[0] - 2.0) < 1e-10
    assert abs(sol.coefficients[1] - 3.0) < 1e-10
    assert sol.ssr <= 1e-18 * n


def test_ols_matches_normal_equations_oracle():
    rng = np.random.default_rng(7)
    design = rng.normal(size=(50, 3))
    response = rng.normal(size=50)
    sol = ols_fit(design, response)
    coef, ssr = oracles.normal_equations_ols(design, response)
    np.testing.assert_allclose(sol.coefficients, coef, rtol=1e-8, atol=1e-10)
    assert sol.ssr == pytest.approx(ssr, rel=1e-8)


def test_ols_column_scaling_invariance():
    """Scaling one column by 1e12 leaves the ssr and rescales its coefficient."""
    rng = np.random.default_rng(3)
    design = np.column_stack([np.ones(40), rng.normal(20.0, 2.0, (40, 2))])
    response = rng.normal(size=40)
    scaled = design.copy()
    scaled[:, 2] *= 1e12
    base = ols_fit(design, response)
    sol = ols_fit(scaled, response)
    assert sol.ssr == pytest.approx(base.ssr, rel=1e-9)
    assert sol.coefficients[2] == pytest.approx(base.coefficients[2] * 1e-12, rel=1e-9)


def test_ols_residual_orthogonal_to_design():
    rng = np.random.default_rng(11)
    design = rng.normal(size=(30, 4))
    response = rng.normal(size=30)
    sol = ols_fit(design, response)
    resid = response - design @ sol.coefficients
    for j in range(design.shape[1]):
        bound = 1e-8 * np.linalg.norm(design[:, j]) * np.linalg.norm(resid)
        assert abs(design[:, j] @ resid) <= max(bound, 1e-12)


def test_ols_singular_design_rejected():
    x = np.arange(10, dtype=float)
    design = np.column_stack([np.ones(10), x, 2.0 * x])
    with pytest.raises(ValueError, match="singular design matrix"):
        ols_fit(design, x)


def test_ols_zero_design_rejected():
    with pytest.raises(ValueError, match="singular design matrix"):
        ols_fit(np.zeros((5, 1)), np.ones(5))


def test_ols_shape_validation():
    with pytest.raises(ValueError):
        ols_fit(np.ones((2, 3)), np.ones(2))  # more columns than rows
    with pytest.raises(ValueError):
        ols_fit(np.ones((4, 2)), np.ones(5))  # row mismatch


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_ols_nesting_monotonicity(seed, extra):
    """Adding columns never increases the ssr, and lowers it by exactly the
    squared trailing effects of the larger fit."""
    rng = np.random.default_rng(seed)
    n = 25
    design = rng.normal(size=(n, 2 + extra))
    response = rng.normal(size=n)
    ssr_small = ols_fit(design[:, :2], response).ssr
    large = ols_fit(design, response)
    assert large.ssr <= ssr_small + 1e-9 * max(ssr_small, 1.0)
    gain = large.effects[2:] @ large.effects[2:]
    assert large.ssr + gain == pytest.approx(ssr_small, rel=1e-9)


# --- regularized_incomplete_beta ---------------------------------------------


def test_beta_boundaries():
    assert regularized_incomplete_beta(0.0, 2.0, 5.0) == 0.0
    assert regularized_incomplete_beta(1.0, 2.0, 5.0) == 1.0
    assert regularized_incomplete_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
def test_beta_integer_closed_form(x):
    # I_x(2,3) = 6x^2 - 8x^3 + 3x^4
    expected = 6 * x**2 - 8 * x**3 + 3 * x**4
    assert regularized_incomplete_beta(x, 2.0, 3.0) == pytest.approx(expected, abs=1e-12)


def test_beta_against_polynomial_oracle_grid():
    for a in (1, 2, 3, 5):
        for b in (1, 2, 4):
            for x in np.linspace(0.01, 0.99, 25):
                expected = oracles.beta_integer_polynomial(float(x), a, b)
                got = regularized_incomplete_beta(float(x), float(a), float(b))
                assert abs(got - expected) < 1e-10


def test_beta_against_halfint_recurrence():
    for a, b in ((0.5, 0.5), (1.5, 2.0), (2.5, 0.5), (3.0, 4.5)):
        for x in (0.05, 0.3, 0.5, 0.7, 0.95):
            expected = oracles.beta_halfint_recurrence(x, a, b)
            assert regularized_incomplete_beta(x, a, b) == pytest.approx(expected, abs=1e-9)


@given(
    st.floats(0.001, 0.999),
    st.floats(0.5, 40.0),
    st.floats(0.5, 40.0),
)
@settings(max_examples=200, deadline=None)
def test_beta_symmetry_identity(x, a, b):
    left = regularized_incomplete_beta(x, a, b)
    right = 1.0 - regularized_incomplete_beta(1.0 - x, b, a)
    assert abs(left - right) < 1e-10


@given(st.floats(0.001, 0.999), st.floats(0.5, 30.0), st.floats(0.5, 30.0))
@settings(max_examples=100, deadline=None)
def test_beta_matches_high_precision(x, a, b):
    assert regularized_incomplete_beta(x, a, b) == pytest.approx(
        oracles.beta_mp(x, a, b), abs=1e-10
    )


def test_beta_domain_errors():
    with pytest.raises(ValueError):
        regularized_incomplete_beta(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(0.5, 1.0, -2.0)


# --- f_survival ---------------------------------------------------------------


def test_f_survival_at_zero():
    assert f_survival(0.0, 3, 17) == 1.0


def test_f_survival_f22_closed_form():
    # survival of F(2,2) is 1/(1+f)
    for f in (0.1, 1.0, 10.0):
        assert f_survival(f, 2, 2) == pytest.approx(1.0 / (1.0 + f), abs=1e-10)


def test_f_survival_1_10_crossing_matches_tabulated():
    lo, hi = 0.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f_survival(mid, 1, 10) > 0.05:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(F_1_10_AT_P05, abs=1e-6)


def test_f_survival_complementary_formulation():
    for f, d1, d2 in ((0.5, 1, 10), (2.3, 3, 7), (11.0, 5, 40), (0.01, 2, 2)):
        x = d1 * f / (d1 * f + d2)
        complement = 1.0 - regularized_incomplete_beta(x, d1 / 2.0, d2 / 2.0)
        assert abs(f_survival(f, d1, d2) - complement) < 1e-10


@given(
    st.floats(1e-6, 1e6),
    st.integers(1, 30),
    st.integers(1, 200),
)
@settings(max_examples=150, deadline=None)
def test_f_survival_matches_high_precision(f, d1, d2):
    assert f_survival(f, d1, d2) == pytest.approx(
        oracles.f_survival_oracle(f, d1, d2), abs=1e-10
    )


@given(st.integers(1, 10), st.integers(2, 60))
@settings(max_examples=50, deadline=None)
def test_f_survival_decreasing_in_f(d1, d2):
    grid = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0]
    tails = [f_survival(f, d1, d2) for f in grid]
    assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))


def test_f_survival_argument_validation():
    with pytest.raises(ValueError):
        f_survival(-1.0, 1, 1)
    with pytest.raises(ValueError):
        f_survival(1.0, 0, 5)
    with pytest.raises(ValueError):
        f_survival(1.0, 1.5, 5)  # type: ignore[arg-type]
    assert f_survival(math.inf, 2, 9) == 0.0


# --- jacobians and the optimizer ----------------------------------------------


def with_fd_jacobian(model):
    """``model`` paired with its reference central-difference Jacobian, as the
    solver takes them."""
    return lambda p: (model(p), oracles.finite_difference_jacobian(model, p))


def test_fd_jacobian_of_linear_map_is_exact():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(6, 3))
    jac = oracles.finite_difference_jacobian(lambda p: A @ p, np.array([0.3, -1.2, 2.0]))
    np.testing.assert_allclose(jac, A, rtol=0, atol=1e-8)


# the solver takes two parameters; a test that wants one unbounded passes this
UNBOUNDED = (-math.inf, math.inf)


def test_damped_ls_zero_residual_is_fixed_point():
    init = np.array([0.7, -0.3])

    def model(p):
        return np.zeros(4)

    fit = damped_least_squares(with_fd_jacobian(model), init, [UNBOUNDED] * 2, 100, 1e-10)
    assert fit.converged
    assert fit.iterations <= 1
    np.testing.assert_array_equal(fit.params, init)
    assert fit.residual_norm == 0.0


def test_damped_ls_quadratic_root():
    def model(p):
        return np.array([p[0] ** 2 - 4.0, p[1] - 1.0])

    fit = damped_least_squares(
        with_fd_jacobian(model),
        np.array([1.0, 0.0]),
        [(0.0, 10.0), UNBOUNDED],
        100,
        1e-10,
    )
    assert fit.converged
    assert fit.params[0] == pytest.approx(2.0, abs=1e-8)


def test_damped_ls_invalid_start():
    def model(p):
        return np.array([math.nan, p[1]])

    with pytest.raises(ValueError, match="invalid starting point"):
        damped_least_squares(
            with_fd_jacobian(model), np.array([1.0, 0.0]), [UNBOUNDED] * 2, 100, 1e-10
        )


def test_damped_ls_non_finite_jacobian_at_start():
    def model(p):
        return np.array([p[0] - 3.0, p[1]]), np.array([[math.nan, 0.0], [0.0, 1.0]])

    with pytest.raises(ValueError, match="invalid starting point"):
        damped_least_squares(model, np.array([0.0, 0.0]), [UNBOUNDED] * 2, 100, 1e-10)


@pytest.mark.parametrize("broken", ["residual", "jacobian"])
def test_damped_ls_rejects_non_finite_trial(broken):
    # the root at 3 lies where the model is non-finite: every step past 1 must be
    # rejected, so the fit stops short of the root; the second residual is 0 at init
    def model(p):
        resid, jac = np.array([p[0] - 3.0, p[1]]), np.eye(2)
        if p[0] > 1.0:
            if broken == "residual":
                resid = np.array([math.nan, p[1]])
            else:
                jac = np.array([[math.nan, 0.0], [0.0, 1.0]])
        return resid, jac

    fit = damped_least_squares(model, np.array([0.0, 0.0]), [(0.0, 10.0), UNBOUNDED], 50, 1e-10)
    assert 0.0 < fit.params[0] <= 1.0
    assert fit.residual_norm == 3.0 - fit.params[0]


def test_damped_ls_evaluates_model_once_per_iterate():
    # Rosenbrock residuals: the damped steps from (-1.2, 1) are often rejected
    costs = []
    paired = with_fd_jacobian(lambda p: np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]]))

    def model(p):
        resid, jac = paired(p)
        costs.append(float(np.linalg.norm(resid)))
        return resid, jac

    fit = damped_least_squares(model, np.array([-1.2, 1.0]), [UNBOUNDED] * 2, 200, 1e-10)
    assert fit.converged
    assert len(costs) == fit.iterations + 1
    assert any(cost > min(costs[:i]) for i, cost in enumerate(costs) if i)


@pytest.mark.parametrize("init, bounds", [
    ([0.5], [(0.0, 1.0)]),
    ([0.5, 0.0], [(0.0, 1.0)]),
    ([0.5], [(0.0, 1.0), UNBOUNDED]),
    ([0.5, 0.0, 0.0], [(0.0, 1.0), UNBOUNDED, UNBOUNDED]),
], ids=["one", "one_bound", "one_init", "three"])
def test_damped_ls_takes_exactly_two_parameters(init, bounds):
    def model(p):
        return np.array([p[0] + 3.0]), np.ones((1, len(p)))

    with pytest.raises(ValueError, match="two entries"):
        damped_least_squares(model, np.array(init), bounds, 100, 1e-10)


def test_damped_ls_init_outside_bounds():
    def model(p):
        return np.array([p[0], p[1]])

    with pytest.raises(ValueError, match="within bounds"):
        damped_least_squares(
            with_fd_jacobian(model), np.array([2.0, 0.0]), [(0.0, 1.0), UNBOUNDED], 100, 1e-10
        )


def test_damped_ls_rejects_nan_bounds():
    # a NaN bound or an inverted pair contains no starting value
    def model(p):
        return np.array([p[0] + 3.0, p[1]])

    for bounds in (
        [(math.nan, 1.0), UNBOUNDED],
        [(0.0, math.nan), UNBOUNDED],
        [(0.0, 1.0), (-math.inf, math.nan)],
        [(1.0, 0.0), UNBOUNDED],
    ):
        with pytest.raises(ValueError, match="within bounds"):
            damped_least_squares(
                with_fd_jacobian(model), np.array([0.5, 0.0]), bounds, 100, 1e-10
            )


def test_damped_ls_respects_bounds():
    # unconstrained minimum sits at -3, outside the box
    def model(p):
        return np.array([p[0] + 3.0, p[1]])

    fit = damped_least_squares(
        with_fd_jacobian(model),
        np.array([0.5, 0.0]),
        [(0.0, 1.0), UNBOUNDED],
        50,
        1e-10,
    )
    assert 0.0 <= fit.params[0] <= 1.0


@given(st.integers(0, 4), st.integers(0, 2**32 - 1), st.floats(-12.0, 3.0))
@settings(max_examples=200, deadline=None)
def test_damped_step_matches_the_solve_reference(extra_rows, seed, log_lam):
    rng = np.random.default_rng(seed)
    J = rng.normal(size=(2 + extra_rows, 2))
    r = rng.normal(size=2 + extra_rows)
    lam = 10.0**log_lam
    jtj, grad = J.T @ J, J.T @ r
    # well-conditioned, so both routes are within rounding of the exact step
    assume(np.linalg.cond(jtj + lam * np.eye(2)) < 1e4)
    step = _damped_step(jtj.tolist(), grad.tolist(), lam)
    expected = oracles.damped_step_solve(jtj, grad, lam)
    np.testing.assert_allclose(step, expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())


# every float, NaN, infinities and subnormals included, or a moderate one
ANY_FLOAT = st.floats() | st.floats(-10.0, 10.0)


@given(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT | st.floats(0.0, 1e12))
@settings(max_examples=1000, deadline=None)
def test_damped_step_is_the_cholesky_loop(a, b, d, g0, g1, lam):
    # the closed form does the loop's float operations in the loop's order
    jtj, grad = [[a, b], [b, d]], [g0, g1]
    step = _damped_step(jtj, grad, lam)
    expected = oracles.damped_step_cholesky_loop(jtj, grad, lam)
    assert (step is None) == (expected is None)
    assert step == expected


@given(
    st.lists(st.floats(0.01, 10.0) | st.floats(-10.0, -0.01), min_size=2, max_size=2),
    st.floats(0.0, 5.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_damped_step_rejects_exactly_the_indefinite_damped_matrices(damped_eigs, lam, seed):
    # JᵀJ is built so that JᵀJ + lam·I has these eigenvalues, all well away from 0
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    jtj = (rotation * (np.array(damped_eigs) - lam)) @ rotation.T
    jtj = (jtj + jtj.T) / 2.0
    step = _damped_step(jtj.tolist(), rng.normal(size=2).tolist(), lam)
    assert (step is None) == (min(damped_eigs) < 0.0)


@pytest.mark.parametrize("jtj, grad, lam", [
    ([[4.0, 4.0], [4.0, 4.0]], [1.0, 1.0], 0.0),  # singular: the second pivot is 0
    ([[1e-300, 0.0], [0.0, 1.0]], [1e300, 1.0], 0.0),  # positive definite, but the step overflows
    ([[1.0, 0.0], [0.0, 1e-300]], [1.0, 1e300], 0.0),
    ([[1.0, math.nan], [math.nan, 1.0]], [1.0, 1.0], 1e-3),
    ([[1.0, 0.0], [0.0, 1.0]], [math.inf, 1.0], 1e-3),
], ids=["singular", "overflow", "overflow_2d", "nan_matrix", "inf_gradient"])
def test_damped_step_rejects_what_the_solve_reference_cannot_take(jtj, grad, lam):
    assert _damped_step(jtj, grad, lam) is None
    with np.errstate(all="ignore"):
        try:
            expected = oracles.damped_step_solve(jtj, grad, lam)
        except np.linalg.LinAlgError:
            return
    assert not np.all(np.isfinite(expected))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_damped_ls_never_worse_than_init(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(5, 2))
    b = rng.normal(size=5)
    init = rng.uniform(-2.0, 2.0, size=2)
    def model(p):
        return A @ p - b

    fit = damped_least_squares(with_fd_jacobian(model), init, [UNBOUNDED] * 2, 20, 1e-10)
    assert fit.residual_norm <= np.linalg.norm(A @ init - b) + 1e-12


def test_damped_ls_recovers_diffusion_params():
    """End-to-end solver check on the closed-form adoption curve."""
    from resurge.bass import BassParams, bass_cumulative

    truth = BassParams(p=0.02, q=0.4)
    times = np.arange(60, dtype=float)
    observed = bass_cumulative(truth, times)

    def residual(theta):
        decay = np.exp(-(theta[0] + theta[1]) * times)
        return (1.0 - decay) / (1.0 + (theta[1] / theta[0]) * decay) - observed

    fit = damped_least_squares(
        with_fd_jacobian(residual),
        np.array([0.01, 0.1]),
        bounds=[(1e-6, 1.0), (0.0, 5.0)],
        max_iter=200,
        tol=1e-14,
    )
    assert fit.params[0] == pytest.approx(0.02, abs=1e-6)
    assert fit.params[1] == pytest.approx(0.4, abs=1e-6)
