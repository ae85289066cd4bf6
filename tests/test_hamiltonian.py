import numpy as np
import pytest

from msa_control import (
    ControlDomain,
    ControlProcess,
    GapProcess,
    LQSpec,
    RegressionBasis,
    TimeGrid,
    build_oracle,
    gap_process,
    generate_brownian,
    get_lq,
    h_function,
    hamiltonian,
    lq_closed_form_adjoint,
    lq_embed,
    minimize_h,
    mu,
    simulate_state,
    solve_first_adjoint,
    solve_second_adjoint,
)

from conftest import scalar_spec


def coupled_lq2d():
    """n = d = k = 2: non-symmetric b1, sigma_u coupling both controls into
    both noise columns, and a star-shaped (non-convex) control grid without
    the origin."""
    g = (-1.0, -0.5, 0.0, 0.5, 1.0)
    pts = [(a, b) for a in g for b in g if (a or b) and (a == 0 or b == 0 or abs(a) == abs(b))]
    mix = np.array([[[0.5, 0.1], [0.2, 0.0]], [[0.0, 0.3], [0.1, 0.4]]])  # (k, n, d)
    return lq_embed(LQSpec(
        n=2, d=2, k=2, T=1.0, x0=[1.0, -0.5],
        b1=lambda t: np.array([[-0.5, 0.3], [-0.2, -0.1]]),
        b2=lambda t: np.array([0.1, 0.0]),
        G=lambda t: np.array([[1.0, 0.2], [0.2, 0.5]]),
        Gamma=np.eye(2),
        sigma_u=lambda t, u: 0.3 * np.eye(2) + np.einsum("bk,knd->bnd", u, mix),
        g=lambda t, u: 0.1 * np.sum(u**2, axis=1),
        domain=ControlDomain(np.array(pts)),
    ))


def batch(*vals):
    return np.asarray(vals, dtype=float).reshape(1, -1)


class TestHamiltonian:
    def test_reduces_to_running_cost(self):
        spec = scalar_spec(f=lambda t, x, u: np.full(x.shape[0], 4.0))
        out = hamiltonian(spec, 0.0, batch(0.0), batch(0.0), np.zeros((1, 1, 1)), batch(0.0))
        assert out[0] == pytest.approx(4.0)

    def test_constant_pieces(self):
        # p b + q sigma + f = 2*3 + 4*5 + 1 = 27
        spec = scalar_spec(
            b=lambda t, x, u: np.full(x.shape[0], 3.0),
            sigma=lambda t, x, u: np.full(x.shape[0], 5.0),
            f=lambda t, x, u: np.full(x.shape[0], 1.0),
        )
        out = hamiltonian(
            spec, 0.0, batch(0.0), batch(2.0), np.full((1, 1, 1), 4.0), batch(0.0)
        )
        assert out[0] == pytest.approx(27.0)


class TestHFunction:
    def test_candidate_equals_base(self):
        # v = u: correction reduces to -(1/2) sigma(u)' P sigma(u)
        spec = scalar_spec(sigma=lambda t, x, u: u)
        x, p = batch(0.0), batch(0.0)
        q = np.zeros((1, 1, 1))
        P = np.full((1, 1, 1), 2.0)
        u = batch(1.0)
        out = h_function(spec, 0.0, x, p, q, P, u, u)
        assert out[0] == pytest.approx(-1.0)

    def test_zero_curvature_is_plain_hamiltonian(self):
        spec = scalar_spec(sigma=lambda t, x, u: u, f=lambda t, x, u: u**2)
        x, p = batch(0.0), batch(0.0)
        q = np.zeros((1, 1, 1))
        P = np.zeros((1, 1, 1))
        v, u = batch(3.0), batch(1.0)
        out = h_function(spec, 0.0, x, p, q, P, v, u)
        assert out[0] == pytest.approx(hamiltonian(spec, 0.0, x, p, q, v)[0])

    def test_diffusion_difference_term(self):
        # sigma(v)=3, sigma(u)=0, P=2: 0.5 * 9 * 2 = 9
        spec = scalar_spec(sigma=lambda t, x, u: u)
        x, p = batch(0.0), batch(0.0)
        q = np.zeros((1, 1, 1))
        P = np.full((1, 1, 1), 2.0)
        out = h_function(spec, 0.0, x, p, q, P, batch(3.0), batch(0.0))
        assert out[0] == pytest.approx(9.0)


class TestMinimizeH:
    def test_quadratic_centered_at_base(self):
        # h(v) = (v - u)^2 - u^2 for sigma(u)=u, P=2: base is its own minimizer
        spec = scalar_spec(sigma=lambda t, x, u: u)
        x, p = batch(0.0), batch(0.0)
        q = np.zeros((1, 1, 1))
        P = np.full((1, 1, 1), 2.0)
        for base in (0, 1, 2):
            v_idx, gap = minimize_h(spec, 0.0, x, p, q, P, np.array([base]))
            assert v_idx[0] == base and gap[0] == pytest.approx(0.0)

    def test_linear_cost_selects_cheapest(self):
        # f(u) = u, no diffusion: minimizer v = -1, gap = -1 - u
        spec = scalar_spec(f=lambda t, x, u: u)
        x, p = batch(0.0), batch(0.0)
        q = np.zeros((1, 1, 1))
        P = np.zeros((1, 1, 1))
        v_idx, gap = minimize_h(spec, 0.0, x, p, q, P, np.array([2]))
        assert v_idx[0] == 0 and gap[0] == pytest.approx(-2.0)

    def test_tie_breaks_to_smallest_index(self):
        spec = scalar_spec(sigma=lambda t, x, u: u**2, domain=(-1.0, 1.0))
        x, p = batch(0.0), batch(0.0)
        q = np.zeros((1, 1, 1))
        P = np.full((1, 1, 1), 2.0)
        v_idx, gap = minimize_h(spec, 0.0, x, p, q, P, np.array([1]))
        assert v_idx[0] == 0 and gap[0] == pytest.approx(0.0)

    def test_gap_nonpositive_property(self):
        # on the 2-D problem rows 0-7 get p = q = P = 0, so candidates differ
        # only in the control cost, whose four points of norm 1/2 tie exactly
        for spec, ties in ((lq_embed(get_lq("lq-scalar")), 0), (coupled_lq2d(), 8)):
            rng = np.random.default_rng(0)
            n, d = spec.n, spec.d
            x = rng.normal(size=(64, n))
            p = rng.normal(size=(64, n))
            q = rng.normal(size=(64, n, d))
            P = np.abs(rng.normal(size=(64, n, n)))
            u_idx = rng.integers(0, spec.domain.size, size=64)
            p[:ties], q[:ties], P[:ties] = 0.0, 0.0, 0.0
            v_idx, gap = minimize_h(spec, 0.3, x, p, q, P, u_idx)
            assert np.all(gap <= 1e-12)

            # reference: one h_function call per candidate point
            pts = spec.domain.points
            vals = np.stack([
                h_function(spec, 0.3, x, p, q, P, np.broadcast_to(v, (64, spec.k)), pts[u_idx])
                for v in pts
            ])
            ref = np.argmin(vals, axis=0)
            rows = np.arange(64)
            assert np.array_equal(v_idx, ref)
            assert np.array_equal(gap, vals[ref, rows] - vals[u_idx, rows])
            is_min = vals[:, :ties] == vals[:, :ties].min(axis=0)
            assert np.all(is_min.sum(axis=0) == 4)
            assert np.array_equal(v_idx[:ties], is_min.argmax(axis=0))  # smallest index


class TestGapProcess:
    def test_zero_problem_zero_gaps(self, zero_spec):
        grid = TimeGrid(T=1.0, depth=3)
        W = generate_brownian(grid, 50, 1, 0)
        u = ControlProcess.constant(0, 50, grid.steps, 3)
        X = simulate_state(zero_spec, grid, W, u)
        adj1 = solve_first_adjoint(zero_spec, grid, X, u, RegressionBasis(), W)
        adj2 = solve_second_adjoint(zero_spec, grid, X, u, adj1, RegressionBasis(), W)
        gaps = gap_process(zero_spec, grid, X, u, adj1, adj2)
        assert np.all(gaps.values == 0.0)
        assert np.all(gaps.argmin_indices == 0)

    def test_gaps_nonpositive_on_registry(self):
        lq = get_lq("lq-scalar")
        spec = lq_embed(lq)
        grid = TimeGrid(T=1.0, depth=5)
        W = generate_brownian(grid, 500, 1, 1)
        u = ControlProcess.constant(spec.domain.size - 1, 500, grid.steps, spec.domain.size)
        X = simulate_state(spec, grid, W, u)
        adj1, adj2 = lq_closed_form_adjoint(lq, grid, X, u)
        gaps = gap_process(spec, grid, X, u, adj1, adj2)
        assert np.all(gaps.values <= 1e-12)


class TestMu:
    def test_zero_gaps(self):
        grid = TimeGrid(T=1.0, depth=3)
        gaps = GapProcess(np.zeros((5, grid.steps)), np.zeros((5, grid.steps), dtype=int))
        assert mu(gaps, grid) == 0.0

    def test_uniform_gap_integral(self):
        grid = TimeGrid(T=2.0, depth=4)
        gaps = GapProcess(
            np.full((7, grid.steps), -1.0), np.zeros((7, grid.steps), dtype=int)
        )
        assert mu(gaps, grid) == pytest.approx(-2.0, rel=1e-14)

    def test_near_zero_at_lq_optimum(self):
        lq = get_lq("lq-scalar")
        spec = lq_embed(lq)
        grid = TimeGrid(T=1.0, depth=5)
        M = 2000
        W = generate_brownian(grid, M, 1, 2)
        oracle = build_oracle(lq, grid)
        u_star = ControlProcess.deterministic(oracle.u_star, M, spec.domain.size)
        X_star = simulate_state(spec, grid, W, u_star)
        a1, a2 = lq_closed_form_adjoint(lq, grid, X_star, u_star)
        gaps_star = gap_process(spec, grid, X_star, u_star, a1, a2)
        mu_star = mu(gaps_star, grid)

        u0 = ControlProcess.constant(spec.domain.size - 1, M, grid.steps, spec.domain.size)
        X0 = simulate_state(spec, grid, W, u0)
        b1, b2 = lq_closed_form_adjoint(lq, grid, X0, u0)
        mu0 = mu(gap_process(spec, grid, X0, u0, b1, b2), grid)

        assert abs(mu_star) <= 0.05 * abs(mu0)
        deep = np.mean(gaps_star.values < -10.0 * grid.dt)
        assert deep <= 0.01
