import math

import numpy as np
import pytest

from msa_control import (
    ControlProcess,
    GapProcess,
    RegressionBasis,
    TimeGrid,
    adjoint_sweep,
    build_oracle,
    gap_process,
    generate_brownian,
    get_lq,
    get_problem,
    h_function,
    lq_closed_form_adjoint,
    lq_embed,
    minimize_h,
    mu,
    simulate_state,
)
from msa_control.adjoint import _collect

from conftest import coupled_lq2d, lq_oracle_sweep, scalar_spec


def stored_slices(adj1, adj2):
    """Per-step (i, p_i, q_i, P_i, asym) slices of stored adjoint arrays."""
    return ((i, adj1.p[i], adj1.q[i], adj2.P[i], 0.0) for i in range(adj1.q.shape[0]))


def batch(*vals):
    return np.asarray(vals, dtype=float).reshape(1, -1)


def plain_hamiltonian(spec, x, p, q, u):
    """H = p b + q sigma + f at u: the H-function with P = 0 and v = u."""
    return h_function(spec, 0.0, x, p, q, np.zeros((1, 1, 1)), u, u)


class TestHamiltonian:
    def test_reduces_to_running_cost(self):
        spec = scalar_spec(f=lambda t, x, u: np.full(x.shape[0], 4.0))
        out = plain_hamiltonian(spec, batch(0.0), batch(0.0), np.zeros((1, 1, 1)), batch(0.0))
        assert out[0] == pytest.approx(4.0)

    def test_constant_pieces(self):
        # p b + q sigma + f = 2*3 + 4*5 + 1 = 27
        spec = scalar_spec(
            b=lambda t, x, u: np.full(x.shape[0], 3.0),
            sigma=lambda t, x, u: np.full(x.shape[0], 5.0),
            f=lambda t, x, u: np.full(x.shape[0], 1.0),
        )
        out = plain_hamiltonian(spec, batch(0.0), batch(2.0), np.full((1, 1, 1), 4.0), batch(0.0))
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
        # P = 0: H(v) = p b(v) + q sigma(v) + f(v) = 2*(-3) + 4*3 + 3**2 = 15, whatever u is
        spec = scalar_spec(b=lambda t, x, u: -u, sigma=lambda t, x, u: u, f=lambda t, x, u: u**2)
        x, p = batch(0.0), batch(2.0)
        q = np.full((1, 1, 1), 4.0)
        P = np.zeros((1, 1, 1))
        v, u = batch(3.0), batch(1.0)
        out = h_function(spec, 0.0, x, p, q, P, v, u)
        assert out[0] == pytest.approx(15.0)

    def test_diffusion_difference_term(self):
        # sigma(v)=3, sigma(u)=0, P=2: 0.5 * 9 * 2 = 9
        spec = scalar_spec(sigma=lambda t, x, u: u)
        x, p = batch(0.0), batch(0.0)
        q = np.zeros((1, 1, 1))
        P = np.full((1, 1, 1), 2.0)
        out = h_function(spec, 0.0, x, p, q, P, batch(3.0), batch(0.0))
        assert out[0] == pytest.approx(9.0)


    def test_candidate_block_equals_per_candidate_calls(self):
        # n = d = k = 2: a (V, B, k) block gives bit for bit the V separate
        # (B, k) calls, with p, q, P and sigma(u) broadcast, not tiled
        spec = lq_embed(coupled_lq2d())
        rng = np.random.default_rng(1)
        V, B = 5, 32
        x = rng.normal(size=(B, 2))
        p = rng.normal(size=(B, 2))
        q = rng.normal(size=(B, 2, 2))
        P = rng.normal(size=(B, 2, 2))
        v_block = rng.normal(size=(V, B, 2))
        u = rng.normal(size=(B, 2))
        block = h_function(spec, 0.3, x, p, q, P, v_block, u)
        ref = np.stack([h_function(spec, 0.3, x, p, q, P, v, u) for v in v_block])
        assert block.shape == (V, B)
        assert np.array_equal(block, ref)


class TestMinimizeH:
    def test_sigma_evaluated_once_per_row_set(self):
        # sigma(v) once on the V*B candidate rows, sigma(u) once on the B
        # path rows; b and f once on the candidate rows
        rows = {"b": [], "sigma": [], "f": []}

        def counted(name, fn):
            def wrapped(t, x, u):
                rows[name].append(x.shape[0])
                return fn(t, x, u)
            return wrapped

        spec = scalar_spec(
            b=counted("b", lambda t, x, u: x * u),
            sigma=counted("sigma", lambda t, x, u: u),
            f=counted("f", lambda t, x, u: u**2),
            domain=(-1.0, -0.5, 0.0, 0.5, 1.0),
        )
        B = 7
        x = np.linspace(-1.0, 1.0, B)[:, None]
        p = np.ones((B, 1))
        q = np.ones((B, 1, 1))
        P = np.ones((B, 1, 1))
        minimize_h(spec, 0.0, x, p, q, P, np.arange(B) % 5)
        assert rows == {"b": [5 * B], "sigma": [5 * B, B], "f": [5 * B]}

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
        for spec, ties in ((lq_embed(get_lq("lq-scalar")), 0), (lq_embed(coupled_lq2d()), 8)):
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
        adj1, adj2 = _collect(zero_spec, grid, X, u, RegressionBasis(), W)
        gaps = gap_process(zero_spec, grid, X, u, stored_slices(adj1, adj2))
        assert np.all(gaps.values == 0.0)
        assert np.all(gaps.argmin_indices == 0)

    @pytest.mark.parametrize("name", ["nonconvex-diffusion", "coupled-2d"])
    def test_streamed_sweep_equals_stored_arrays(self, name):
        spec = lq_embed(coupled_lq2d()) if name == "coupled-2d" else get_problem(name)
        grid = TimeGrid(T=spec.T, depth=4)
        W = generate_brownian(grid, 300, spec.d, 5)
        u = ControlProcess.constant(spec.domain.size - 1, 300, grid.steps, spec.domain.size)
        X = simulate_state(spec, grid, W, u)
        basis = RegressionBasis()
        streamed = gap_process(spec, grid, X, u, adjoint_sweep(spec, grid, X, u, basis, W))
        adj1, adj2 = _collect(spec, grid, X, u, basis, W)
        stored = gap_process(spec, grid, X, u, stored_slices(adj1, adj2))
        assert np.array_equal(streamed.values, stored.values)
        assert np.array_equal(streamed.argmin_indices, stored.argmin_indices)
        assert np.any(stored.values < 0.0)

    # The per-step mean gap (what mu and the interval search consume) from the
    # regression adjoints against the closed-form ones; measured relative errors
    # at G=6, seed 7 (median / max over steps): 1.6% / 5.1% on lq-scalar (M=10k),
    # 4.1% / 15.8% on coupled-2d (M=2000).  The argmin is not compared: the true
    # minimizer's grid neighbours are near ties that regression noise flips.
    @pytest.mark.parametrize(
        "name, median_bound, max_bound", [("lq-scalar", 0.032, 0.10), ("coupled-2d", 0.08, 0.32)]
    )
    def test_mean_gap_matches_closed_form(self, name, median_bound, max_bound):
        spec, grid, X, u, regressed, exact = lq_oracle_sweep(name)
        est, ref = (
            gap_process(spec, grid, X, u, stored_slices(*adj)).values.mean(axis=1)
            for adj in (regressed, exact)
        )
        err = np.abs(est - ref) / np.abs(ref)
        assert np.median(err) <= median_bound and err.max() <= max_bound

    def test_gaps_nonpositive_on_registry(self):
        lq = get_lq("lq-scalar")
        spec = lq_embed(lq)
        grid = TimeGrid(T=1.0, depth=5)
        W = generate_brownian(grid, 500, 1, 1)
        u = ControlProcess.constant(spec.domain.size - 1, 500, grid.steps, spec.domain.size)
        X = simulate_state(spec, grid, W, u)
        adj1, adj2 = lq_closed_form_adjoint(lq, grid, X, u)
        gaps = gap_process(spec, grid, X, u, stored_slices(adj1, adj2))
        assert np.all(gaps.values <= 1e-12)


class TestMu:
    def test_zero_gaps(self):
        grid = TimeGrid(T=1.0, depth=3)
        gaps = GapProcess(np.zeros((grid.steps, 5)), np.zeros((grid.steps, 5), dtype=int))
        assert mu(gaps, grid) == 0.0

    def test_uniform_gap_integral(self):
        grid = TimeGrid(T=2.0, depth=4)
        gaps = GapProcess(
            np.full((grid.steps, 7), -1.0), np.zeros((grid.steps, 7), dtype=int)
        )
        assert mu(gaps, grid) == pytest.approx(-2.0, rel=1e-14)

    def test_matches_exact_sum(self):
        # random non-positive gaps on M = 300 paths: within a few ulps of
        # the correctly rounded sum
        grid = TimeGrid(T=1.0, depth=5)
        for seed in range(20):
            vals = -np.abs(np.random.default_rng(seed).normal(size=(grid.steps, 300)))
            ref = math.fsum(vals.ravel().tolist()) * grid.dt / 300
            got = mu(GapProcess(vals, np.zeros(vals.shape, dtype=np.int64)), grid)
            assert abs(got - ref) <= 4 * np.spacing(abs(ref))

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
        gaps_star = gap_process(spec, grid, X_star, u_star, stored_slices(a1, a2))
        mu_star = mu(gaps_star, grid)

        u0 = ControlProcess.constant(spec.domain.size - 1, M, grid.steps, spec.domain.size)
        X0 = simulate_state(spec, grid, W, u0)
        b1, b2 = lq_closed_form_adjoint(lq, grid, X0, u0)
        mu0 = mu(gap_process(spec, grid, X0, u0, stored_slices(b1, b2)), grid)

        assert abs(mu_star) <= 0.05 * abs(mu0)
        deep = np.mean(gaps_star.values < -10.0 * grid.dt)
        assert deep <= 0.01
