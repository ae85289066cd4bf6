import numpy as np
import pytest

from msa_control import (
    ControlProcess,
    GapProcess,
    MSAConfig,
    TimeGrid,
    build_oracle,
    check_descent_log,
    dyadic_interval,
    evaluate_cost,
    find_descent_interval,
    generate_brownian,
    get_lq,
    lq_embed,
    msa_step,
    mu,
    prepare_state,
    records_from_csv,
    records_to_csv,
    run_msa,
    simulate_state,
    spike_control,
)

from msa_control.msa import IterationRecord, SolverState


class TestDyadicInterval:
    def test_unit_horizon_level_one(self):
        grid = TimeGrid(T=1.0, depth=4)
        iv = dyadic_interval(1.0, 1, 1, grid)
        assert iv.eps == 0.5 and iv.tau == 0.5
        assert iv.step_range == (0, 16)

    def test_longer_horizon(self):
        grid = TimeGrid(T=2.0, depth=4)
        iv = dyadic_interval(2.0, 2, 2, grid)
        assert iv.eps == 0.5 and iv.tau == 1.5
        assert iv.step_range == (8, 16)

    def test_index_out_of_range(self):
        grid = TimeGrid(T=1.0, depth=4)
        with pytest.raises(ValueError):
            dyadic_interval(1.0, 3, 5, grid)
        with pytest.raises(ValueError):
            dyadic_interval(1.0, 0, 1, grid)

    def test_intervals_tile_grid(self):
        grid = TimeGrid(T=1.0, depth=5)
        for N in range(1, 6):
            ranges = [dyadic_interval(1.0, N, j, grid).step_range for j in range(1, (1 << (N - 1)) + 1)]
            assert ranges[0][0] == 0 and ranges[-1][1] == grid.steps
            for (a, b), (c, d) in zip(ranges, ranges[1:]):
                assert b == c


class TestSpikeControl:
    def make(self, steps=8, M=3, V=3):
        u = ControlProcess.constant(0, M, steps, V)
        arg = np.full((M, steps), 2, dtype=np.int64)
        gaps = GapProcess(np.zeros((M, steps)), arg)
        return u, gaps

    def test_full_interval(self):
        grid = TimeGrid(T=1.0, depth=3)
        u, gaps = self.make()
        iv = dyadic_interval(1.0, 1, 1, grid)
        out = spike_control(u, gaps, iv)
        assert np.all(out.values == 2)

    def test_half_interval(self):
        grid = TimeGrid(T=1.0, depth=3)
        u, gaps = self.make()
        iv = dyadic_interval(1.0, 2, 1, grid)
        out = spike_control(u, gaps, iv)
        assert np.all(out.values[:, :4] == 2) and np.all(out.values[:, 4:] == 0)

    def test_no_op_when_argmin_is_current(self):
        grid = TimeGrid(T=1.0, depth=3)
        u = ControlProcess.constant(1, 3, 8, 3)
        gaps = GapProcess(np.zeros((3, 8)), np.full((3, 8), 1, dtype=np.int64))
        iv = dyadic_interval(1.0, 1, 1, grid)
        out = spike_control(u, gaps, iv)
        assert np.array_equal(out.values, u.values)


class TestFindDescentInterval:
    def test_uniform_gaps_first_interval(self):
        grid = TimeGrid(T=1.0, depth=4)
        gaps = GapProcess(np.full((10, 16), -1.0), np.zeros((10, 16), dtype=np.int64))
        mu_value = -1.0
        assert find_descent_interval(gaps, mu_value, 2, grid, 1.0) == 1

    def test_mass_in_last_interval(self):
        grid = TimeGrid(T=1.0, depth=4)
        vals = np.zeros((10, 16))
        vals[:, 8:] = -1.0  # all gap mass in second half
        gaps = GapProcess(vals, np.zeros((10, 16), dtype=np.int64))
        mu_value = -0.5
        assert find_descent_interval(gaps, mu_value, 2, grid, 1.0) == 2

    def test_zero_gaps(self):
        grid = TimeGrid(T=1.0, depth=4)
        gaps = GapProcess(np.zeros((10, 16)), np.zeros((10, 16), dtype=np.int64))
        assert find_descent_interval(gaps, 0.0, 1, grid, 1.0) == 1

    def test_pigeonhole_property(self):
        # the returned interval always carries at least its share 2 eps mu / T
        rng = np.random.default_rng(0)
        grid = TimeGrid(T=1.0, depth=5)
        for _ in range(20):
            vals = -np.abs(rng.normal(size=(8, 32)))
            gaps = GapProcess(vals, np.zeros((8, 32), dtype=np.int64))
            mu_value = float(vals.sum(axis=1).mean() * grid.dt)
            for N in (1, 2, 3):
                j = find_descent_interval(gaps, mu_value, N, grid, 1.0)
                assert j is not None
                lo, hi = dyadic_interval(1.0, N, j, grid).step_range
                integral = float(vals[:, lo:hi].sum(axis=1).mean() * grid.dt)
                eps = 2.0 ** (-N)
                assert integral <= 2.0 * eps * mu_value + 1e-9 * abs(mu_value)


class TestMsaStep:
    def test_converged_when_mu_small(self):
        spec = lq_embed(get_lq("lq-scalar"))
        grid = TimeGrid(T=1.0, depth=3)
        W = generate_brownian(grid, 50, 1, 0)
        u = ControlProcess.constant(0, 50, grid.steps, spec.domain.size)
        gaps = GapProcess(np.zeros((50, 8)), np.zeros((50, 8), dtype=np.int64))
        state = SolverState(m=0, u=u, X=None, gaps=gaps, J=1.0, mu=0.0)
        out = msa_step(spec, grid, W, state, MSAConfig(M=50, depth=3, N_max=3))
        assert out.kind == "converged"

    def test_exhausted_when_no_level_descends(self):
        # flat cost: every candidate has J_cand = J, but mu < 0 demands decrease
        spec = lq_embed(get_lq("lq-scalar"))
        grid = TimeGrid(T=1.0, depth=3)
        W = generate_brownian(grid, 50, 1, 0)
        u = ControlProcess.constant(0, 50, grid.steps, spec.domain.size)
        X = simulate_state(spec, grid, W, u)
        J = evaluate_cost(spec, grid, X, u)
        gaps = GapProcess(
            np.full((50, 8), -1.0), np.zeros((50, 8), dtype=np.int64)
        )  # argmin = current control: spikes are no-ops
        state = SolverState(m=0, u=u, X=X, gaps=gaps, J=J, mu=-1.0)
        out = msa_step(spec, grid, W, state, MSAConfig(M=50, depth=3, N_max=3))
        assert out.kind == "exhausted"

    def test_accepted_at_level_two(self):
        # level 1 spikes the whole horizon and fails the descent test; the
        # first half-interval at level 2 passes
        spec = lq_embed(get_lq("lq-scalar"))
        grid = TimeGrid(T=1.0, depth=3)
        W = generate_brownian(grid, 200, 1, 0)
        u = ControlProcess.constant(10, 200, grid.steps, spec.domain.size)
        X = simulate_state(spec, grid, W, u)
        J = evaluate_cost(spec, grid, X, u)
        argmins = np.zeros((200, 8), dtype=np.int64)
        argmins[:, :4] = 4
        argmins[:, 4:] = 20
        gaps = GapProcess(np.full((200, 8), -1e-3), argmins)
        state = SolverState(m=0, u=u, X=X, gaps=gaps, J=J, mu=mu(gaps, grid))
        out = msa_step(spec, grid, W, state, MSAConfig(M=200, depth=3, N_max=3))
        assert out.kind == "accepted"
        assert (out.record.N, out.record.j) == (2, 1)
        # the outcome carries the accepted control's own states and cost
        cand, X_cand, J_cand = out.candidate
        assert np.all(cand.values[:, :4] == 4) and np.all(cand.values[:, 4:] == 10)
        assert np.array_equal(X_cand.states, simulate_state(spec, grid, W, cand).states)
        assert J_cand == evaluate_cost(spec, grid, X_cand, cand)


class TestRunMsa:
    def test_zero_budget(self):
        spec = lq_embed(get_lq("lq-scalar"))
        run = run_msa(spec, MSAConfig(M=200, depth=3, N_max=3, m_max=0))
        assert run.termination == "budget"
        assert run.records == [
            IterationRecord(m=0, J=run.J0, mu=run.mu0, N=0, j=0, accepted=False, wall_time=0.0)
        ]
        assert (run.J_final, run.mu_final) == (run.J0, run.mu0)

    def test_lq_benchmark_converges(self):
        lq = get_lq("lq-scalar")
        spec = lq_embed(lq)
        config = MSAConfig(M=2000, depth=6, N_max=6)
        run = run_msa(spec, config, "worst-constant")
        assert run.termination in ("converged", "exhausted")
        grid = TimeGrid(T=1.0, depth=6)
        oracle = build_oracle(lq, grid)
        assert run.J_final <= run.J0
        assert run.J_final - oracle.J_star <= 0.05 * (run.J0 - oracle.J_star)
        assert check_descent_log(run.records, spec.T)

    def test_monotone_accepted_cost(self):
        spec = lq_embed(get_lq("lq-scalar"))
        run = run_msa(spec, MSAConfig(M=1000, depth=5, N_max=5), "worst-constant")
        Js = [r.J for r in run.records]
        assert all(b <= a for a, b in zip(Js, Js[1:]))


class TestSerialization:
    def rows(self):
        return [
            IterationRecord(m=0, J=1.25, mu=-0.5, N=1, j=1, accepted=True, wall_time=0.01),
            IterationRecord(m=1, J=1.0, mu=-1e-7, N=0, j=0, accepted=False, wall_time=0.0),
        ]

    def test_csv_round_trip(self):
        rows = self.rows()
        assert records_from_csv(records_to_csv(rows)) == rows

    def test_header(self):
        text = records_to_csv(self.rows())
        assert text.splitlines()[0] == "m,J,mu,N,j,accepted,wall_time"

    def test_check_descent_log(self):
        rows = self.rows()
        assert check_descent_log(rows, 1.0)
        bad = [
            IterationRecord(m=0, J=1.0, mu=-0.5, N=1, j=1, accepted=True, wall_time=0.0),
            IterationRecord(m=1, J=1.0, mu=0.0, N=0, j=0, accepted=False, wall_time=0.0),
        ]
        assert not check_descent_log(bad, 1.0)
