import numpy as np
import pytest

from msa_control import (
    ControlDomain,
    ControlProcess,
    LQSpec,
    RegressionBasis,
    TimeGrid,
    generate_brownian,
    get_lq,
    hessian_of_H,
    lq_closed_form_adjoint,
    lq_embed,
    simulate_state,
    solve_first_adjoint,
)
from msa_control.adjoint import _collect, _regressor

from conftest import lq_oracle_sweep, scalar_spec


def make_lq(**over):
    base = dict(
        n=1, d=1, k=1, T=1.0, x0=[1.0],
        b1=lambda t: np.array([[0.0]]),
        b2=lambda t: np.array([0.0]),
        G=lambda t: np.array([[0.0]]),
        Gamma=np.array([[1.0]]),
        sigma_u=lambda t, u: np.ones((u.shape[0], 1, 1)),
        g=lambda t, u: np.zeros(u.shape[0]),
        domain=ControlDomain(np.array([[-1.0], [0.0], [1.0]])),
    )
    base.update(over)
    return LQSpec(**base)


def rel_l2(est, ref):
    denom = np.sqrt(np.mean(ref**2))
    return np.sqrt(np.mean((est - ref) ** 2)) / max(denom, 1e-12)


def frozen_ensemble(spec, M=2000, depth=5, seed=3, u_index=0):
    grid = TimeGrid(T=spec.T, depth=depth)
    W = generate_brownian(grid, M, spec.d, seed)
    u = ControlProcess.constant(u_index, M, grid.steps, spec.domain.size)
    X = simulate_state(spec, grid, W, u)
    return grid, W, u, X


class TestRegressConditional:
    def test_constant_targets(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(500, 1))
        y = np.full(500, 3.0)
        fitted = _regressor(x, RegressionBasis())(y)
        np.testing.assert_allclose(fitted, 3.0, atol=1e-6)

    def test_linear_recovered(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(500, 2))
        y = 2.0 * x[:, 0] - x[:, 1] + 0.5
        fitted = _regressor(x, RegressionBasis())(y)
        np.testing.assert_allclose(fitted, y, atol=1e-5)

    def test_quadratic_conditional_mean(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20_000, 1))
        noise = rng.normal(size=20_000)
        y = x[:, 0] ** 2 + noise
        fitted = _regressor(x, RegressionBasis())(y)
        assert np.polyfit(x[:, 0], fitted, 2)[0] == pytest.approx(1.0, rel=0.05)

    def test_rank_deficient_without_ridge(self):
        # every path starts at x0, so without a ridge only degree 0 is solvable
        assert RegressionBasis(degree=0, ridge=0.0).ridge == 0.0
        with pytest.raises(ValueError, match=r"^ridge = 0 needs degree = 0: the step-0 regression"):
            RegressionBasis(degree=1, ridge=0.0)

    @pytest.mark.parametrize("degree, ridge", [(2, -1e-8), (-1, 1e-8), (2, float("nan"))],
                             ids=["ridge-negative", "degree-negative", "ridge-nan"])
    def test_negative_or_nan_refused(self, degree, ridge):
        with pytest.raises(ValueError, match="^degree and ridge must be nonnegative$"):
            RegressionBasis(degree=degree, ridge=ridge)

    def test_constant_fit_without_ridge(self):
        # degree 0, ridge 0: the Gram matrix [M] fits every target by its mean
        y = np.random.default_rng(4).normal(size=(300, 2))
        fitted = _regressor(np.ones((300, 1)), RegressionBasis(degree=0, ridge=0.0))(y)
        np.testing.assert_allclose(fitted, np.broadcast_to(y.mean(axis=0), y.shape), rtol=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            _regressor(np.zeros((3, 1)), RegressionBasis())(np.zeros(3))

    def test_feature_count(self):
        basis = RegressionBasis(degree=2)
        assert basis.feature_count(1) == 3
        assert basis.feature_count(3) == 10


class TestFirstAdjoint:
    def test_zero_problem(self, zero_spec):
        grid, W, u, X = frozen_ensemble(zero_spec, M=200, depth=3)
        adj = solve_first_adjoint(zero_spec, grid, X, u, RegressionBasis(), W)
        assert np.all(adj.p == 0.0)
        assert np.all(adj.q == 0.0)

    def test_brownian_lq_p_equals_state(self):
        # K == 1, k == 0, so p = X pathwise
        lq = make_lq()
        spec = lq_embed(lq)
        grid, W, u, X = frozen_ensemble(spec, M=4000, depth=5, u_index=1)
        adj = solve_first_adjoint(spec, grid, X, u, RegressionBasis(), W)
        assert rel_l2(adj.p[:, :, 0], X.states[:, :, 0]) <= 0.05

    # relative RMS error at G=6, seed 7: 2.7% on lq-scalar (M=10k) and 10.6%
    # on coupled-2d (M=2000); it scales like M^(-1/2)
    @pytest.mark.parametrize("name, bound", [("lq-scalar", 0.055), ("coupled-2d", 0.21)])
    def test_q_matches_closed_form(self, name, bound):
        *_, (adj1, _), (ref1, _) = lq_oracle_sweep(name)
        assert rel_l2(adj1.q, ref1.q) <= bound

    def test_terminal_condition_bitwise(self):
        spec = lq_embed(get_lq("lq-scalar"))
        grid, W, u, X = frozen_ensemble(spec, M=500, depth=4)
        adj = solve_first_adjoint(spec, grid, X, u, RegressionBasis(), W)
        expected = np.asarray(spec.coefficients.Phi_x(X.states[-1]))
        assert np.array_equal(adj.p[-1], expected)


class TestHessianOfH:
    def test_reduces_to_f_xx(self):
        spec = scalar_spec(f_xx=lambda t, x, u: np.full(x.shape[0], 7.0))
        x = np.zeros((4, 1))
        out = hessian_of_H(spec, 0.0, x, np.zeros((4, 1)), np.zeros((4, 1, 1)), np.zeros((4, 1)))
        np.testing.assert_allclose(out, 7.0)

    def test_lq_embed_gives_state_weight(self):
        lq = make_lq(G=lambda t: np.array([[2.5]]))
        spec = lq_embed(lq)
        x = np.ones((3, 1))
        out = hessian_of_H(spec, 0.0, x, np.zeros((3, 1)), np.zeros((3, 1, 1)), np.zeros((3, 1)))
        np.testing.assert_allclose(out, 2.5)

    def test_drift_curvature_weighted_by_p(self):
        spec = scalar_spec(
            b=lambda t, x, u: x**2,
            b_x=lambda t, x, u: 2.0 * x,
            b_xx=lambda t, x, u: np.full(x.shape[0], 2.0),
        )
        x = np.zeros((2, 1))
        p = np.full((2, 1), 3.0)
        out = hessian_of_H(spec, 0.0, x, p, np.zeros((2, 1, 1)), np.zeros((2, 1)))
        np.testing.assert_allclose(out, 6.0)


class TestSecondAdjoint:
    def test_zero_problem(self, zero_spec):
        grid, W, u, X = frozen_ensemble(zero_spec, M=200, depth=3)
        _, adj2 = _collect(zero_spec, grid, X, u, RegressionBasis(), W)
        assert np.all(adj2.P == 0.0)

    def test_deterministic_riccati_profile(self):
        # G = 1, Gamma = 0, b1 = 0: K(t) = T - t, so P(t) ~ T - t
        lq = make_lq(G=lambda t: np.array([[1.0]]), Gamma=np.array([[0.0]]))
        spec = lq_embed(lq)
        grid, W, u, X = frozen_ensemble(spec, M=4000, depth=5, u_index=1)
        _, adj2 = _collect(spec, grid, X, u, RegressionBasis(), W)
        profile = adj2.P[:, :, 0, 0].mean(axis=1)
        target = spec.T - grid.times
        assert np.max(np.abs(profile - target)) <= 0.02 * spec.T

    def test_registry_lq_matches_closed_form(self):
        lq = get_lq("lq-scalar")
        spec = lq_embed(lq)
        grid, W, u, X = frozen_ensemble(spec, M=2000, depth=5, u_index=10)
        _, adj2 = _collect(spec, grid, X, u, RegressionBasis(), W)
        ref1, ref2 = lq_closed_form_adjoint(lq, grid, X, u)
        assert rel_l2(adj2.P[:, :, 0, 0], ref2.P[:, :, 0, 0]) <= 0.05
        assert adj2.max_presym_asymmetry <= 1e-8

    def test_symmetry_exact_after_symmetrization(self):
        spec = lq_embed(get_lq("lq-scalar"))
        grid, W, u, X = frozen_ensemble(spec, M=500, depth=4)
        _, adj2 = _collect(spec, grid, X, u, RegressionBasis(), W)
        assert np.array_equal(adj2.P, adj2.P.transpose(0, 1, 3, 2))

    def test_terminal_condition_bitwise(self):
        spec = lq_embed(get_lq("lq-scalar"))
        grid, W, u, X = frozen_ensemble(spec, M=500, depth=4)
        _, adj2 = _collect(spec, grid, X, u, RegressionBasis(), W)
        expected = np.asarray(spec.coefficients.Phi_xx(X.states[-1]))
        assert np.array_equal(adj2.P[-1], expected)


class TestClosedFormAdjoint:
    def test_zero_weights(self):
        lq = make_lq(Gamma=np.array([[0.0]]), sigma_u=lambda t, u: np.zeros((u.shape[0], 1, 1)))
        spec = lq_embed(lq)
        grid, W, u, X = frozen_ensemble(spec, M=100, depth=3)
        adj1, adj2 = lq_closed_form_adjoint(lq, grid, X, u)
        assert np.all(adj1.p == 0.0) and np.all(adj1.q == 0.0) and np.all(adj2.P == 0.0)

    def test_linear_riccati(self):
        # G = 1, Gamma = 0: K(t) = T - t exactly
        lq = make_lq(G=lambda t: np.array([[1.0]]), Gamma=np.array([[0.0]]))
        spec = lq_embed(lq)
        grid, W, u, X = frozen_ensemble(spec, M=100, depth=4)
        _, adj2 = lq_closed_form_adjoint(lq, grid, X, u)
        target = (spec.T - grid.times)[:, None]
        assert np.max(np.abs(adj2.P[:, :, 0, 0] - target)) <= 1e-10

    def test_affine_offset(self):
        # b2 = 1, Gamma = 1, G = 0: K == 1, k(t) = T - t, p = X + (T - t)
        lq = make_lq(b2=lambda t: np.array([1.0]))
        spec = lq_embed(lq)
        grid, W, u, X = frozen_ensemble(spec, M=100, depth=4)
        adj1, _ = lq_closed_form_adjoint(lq, grid, X, u)
        target = X.states[:, :, 0] + (spec.T - grid.times)[:, None]
        assert np.max(np.abs(adj1.p[:, :, 0] - target)) <= 1e-9
