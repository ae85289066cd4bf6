import dataclasses
import errno
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from msa_control import (
    ControlProcess,
    GapProcess,
    MSAConfig,
    ProvenanceError,
    RegressionBasis,
    SimulationError,
    TimeGrid,
    build_oracle,
    check_descent_log,
    dyadic_interval,
    evaluate_cost,
    find_descent_interval,
    generate_brownian,
    get_lq,
    get_problem,
    lq_closed_form_adjoint,
    lq_embed,
    msa_step,
    mu,
    prepare_state,
    problem_names,
    records_from_csv,
    records_to_csv,
    run_msa,
    simulate_state,
    spike_control,
)

from msa_control import adjoint_sweep, gap_process
from msa_control import hamiltonian
from msa_control import msa as msa_module
from msa_control.adjoint import _collect
from msa_control.msa import IterationRecord, SolverState, _initial_control

from conftest import coupled_lq2d, nan_at_level_one_candidate, scalar_spec


class TestDyadicInterval:
    def test_unit_horizon_level_one(self):
        grid = TimeGrid(T=1.0, depth=4)
        assert dyadic_interval(1, 1, grid) == (0, 16)

    def test_longer_horizon(self):
        grid = TimeGrid(T=2.0, depth=4)
        assert dyadic_interval(2, 2, grid) == (8, 16)

    def test_index_out_of_range(self):
        grid = TimeGrid(T=1.0, depth=4)
        with pytest.raises(ValueError):
            dyadic_interval(3, 5, grid)
        with pytest.raises(ValueError):
            dyadic_interval(0, 1, grid)

    def test_intervals_tile_grid(self):
        grid = TimeGrid(T=1.0, depth=5)
        for N in range(1, 6):
            ranges = [dyadic_interval(N, j, grid) for j in range(1, (1 << (N - 1)) + 1)]
            assert ranges[0][0] == 0 and ranges[-1][1] == grid.steps
            for (a, b), (c, d) in zip(ranges, ranges[1:]):
                assert b == c


class TestSpikeControl:
    def make(self, steps=8, M=3, V=3):
        u = ControlProcess.constant(0, M, steps, V)
        arg = np.full((steps, M), 2, dtype=np.int64)
        gaps = GapProcess(np.zeros((steps, M)), arg)
        return u, gaps

    def test_full_interval(self):
        grid = TimeGrid(T=1.0, depth=3)
        u, gaps = self.make()
        out = spike_control(u, gaps, dyadic_interval(1, 1, grid))
        assert np.all(out.values == 2)

    def test_half_interval(self):
        grid = TimeGrid(T=1.0, depth=3)
        u, gaps = self.make()
        out = spike_control(u, gaps, dyadic_interval(2, 1, grid))
        assert np.all(out.values[:4] == 2) and np.all(out.values[4:] == 0)

    def test_no_op_when_argmin_is_current(self):
        grid = TimeGrid(T=1.0, depth=3)
        u = ControlProcess.constant(1, 3, 8, 3)
        gaps = GapProcess(np.zeros((8, 3)), np.full((8, 3), 1, dtype=np.int64))
        out = spike_control(u, gaps, dyadic_interval(1, 1, grid))
        assert np.array_equal(out.values, u.values)


class TestFindDescentInterval:
    def test_uniform_gaps_first_interval(self):
        grid = TimeGrid(T=1.0, depth=4)
        gaps = GapProcess(np.full((16, 10), -1.0), np.zeros((16, 10), dtype=np.int64))
        mu_value = -1.0
        assert find_descent_interval(gaps, mu_value, 2, grid, 1.0) == 1

    def test_mass_in_last_interval(self):
        grid = TimeGrid(T=1.0, depth=4)
        vals = np.zeros((16, 10))
        vals[8:] = -1.0  # all gap mass in second half
        gaps = GapProcess(vals, np.zeros((16, 10), dtype=np.int64))
        mu_value = -0.5
        assert find_descent_interval(gaps, mu_value, 2, grid, 1.0) == 2

    def test_zero_gaps(self):
        grid = TimeGrid(T=1.0, depth=4)
        gaps = GapProcess(np.zeros((16, 10)), np.zeros((16, 10), dtype=np.int64))
        assert find_descent_interval(gaps, 0.0, 1, grid, 1.0) == 1

    def test_pigeonhole_property(self):
        # the returned interval always carries at least its share 2 eps mu / T
        rng = np.random.default_rng(0)
        grid = TimeGrid(T=1.0, depth=5)
        for _ in range(20):
            vals = -np.abs(rng.normal(size=(8, 32))).T.copy()
            gaps = GapProcess(vals, np.zeros((32, 8), dtype=np.int64))
            mu_value = float(vals.sum(axis=0).mean() * grid.dt)
            for N in (1, 2, 3):
                j = find_descent_interval(gaps, mu_value, N, grid, 1.0)
                assert j is not None
                lo, hi = dyadic_interval(N, j, grid)
                integral = float(vals[lo:hi].sum(axis=0).mean() * grid.dt)
                eps = 2.0 ** (-N)
                assert integral <= 2.0 * eps * mu_value + 1e-9 * abs(mu_value)

    @pytest.mark.parametrize("N", range(1, 6))
    def test_block_sums_match_plain_python(self, N):
        # random non-positive gaps on M = 300 paths: for a threshold below
        # every interval integral, between each two and above all, the first
        # interval at or below it is found, as by a plain-Python sum
        grid = TimeGrid(T=1.0, depth=5)
        M = 300
        vals = -np.abs(np.random.default_rng(N).normal(size=(grid.steps, M)))
        gaps = GapProcess(vals, np.zeros(vals.shape, dtype=np.int64))
        width = grid.steps >> (N - 1)
        ref = [
            math.fsum(vals[lo : lo + width].ravel().tolist()) / M * grid.dt
            for lo in range(0, grid.steps, width)
        ]
        levels = sorted(ref)
        cuts = [levels[0] - 1.0, levels[-1] + 1.0]
        cuts += [(a + b) / 2 for a, b in zip(levels, levels[1:])]
        for cut in cuts:
            expected = next((j + 1 for j, r in enumerate(ref) if r <= cut), None)
            # mu chosen so that the threshold 2 eps_N mu / T is the cut
            assert find_descent_interval(gaps, cut * 2.0 ** (N - 1), N, grid, 1.0) == expected

    @pytest.mark.parametrize("c, T", [(1 / 3, 1.0), (0.3, 3.0)])
    def test_uniform_gaps_need_the_slack(self, c, T, monkeypatch):
        # every interval integral equals the threshold 2 eps_N mu / T in real
        # arithmetic; rounded, it misses by a few ulps at some level, and
        # _INTERVAL_SLACK absorbs that
        grid = TimeGrid(T=T, depth=5)
        shape = (grid.steps, 300)
        gaps = GapProcess(np.full(shape, -c), np.zeros(shape, dtype=np.int64))
        mu_value = mu(gaps, grid)
        levels = range(1, grid.depth + 1)
        assert [find_descent_interval(gaps, mu_value, N, grid, T) for N in levels] == [1] * 5
        monkeypatch.setattr(msa_module, "_INTERVAL_SLACK", 0.0)
        assert None in [find_descent_interval(gaps, mu_value, N, grid, T) for N in levels]


class TestMsaStep:
    def test_converged_when_mu_small(self):
        spec = lq_embed(get_lq("lq-scalar"))
        grid = TimeGrid(T=1.0, depth=3)
        W = generate_brownian(grid, 50, 1, 0)
        u = ControlProcess.constant(0, 50, grid.steps, spec.domain.size)
        gaps = GapProcess(np.zeros((8, 50)), np.zeros((8, 50), dtype=np.int64))
        state = SolverState(m=0, u=u, gaps=gaps, J=1.0, mu=0.0)
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
            np.full((8, 50), -1.0), np.zeros((8, 50), dtype=np.int64)
        )  # argmin = current control: spikes are no-ops
        state = SolverState(m=0, u=u, gaps=gaps, J=J, mu=-1.0)
        out = msa_step(spec, grid, W, state, MSAConfig(M=50, depth=3, N_max=3))
        assert out.kind == "exhausted"

    def test_level_without_interval_skipped(self, monkeypatch):
        # mu = -1 lies below anything gaps of -1e-3 can average to, so no
        # interval qualifies at any level and no candidate is built
        spec = lq_embed(get_lq("lq-scalar"))
        grid = TimeGrid(T=1.0, depth=3)
        W = generate_brownian(grid, 50, 1, 0)
        u = ControlProcess.constant(0, 50, grid.steps, spec.domain.size)
        gaps = GapProcess(np.full((8, 50), -1e-3), np.zeros((8, 50), dtype=np.int64))
        assert [find_descent_interval(gaps, -1.0, N, grid, 1.0) for N in (1, 2, 3)] == [None] * 3

        def refuse(*args):
            raise AssertionError("simulate_state called")

        monkeypatch.setattr(msa_module, "simulate_state", refuse)
        state = SolverState(m=0, u=u, gaps=gaps, J=1.0, mu=-1.0)
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
        argmins = np.zeros((8, 200), dtype=np.int64)
        argmins[:4] = 4
        argmins[4:] = 20
        gaps = GapProcess(np.full((8, 200), -1e-3), argmins)
        state = SolverState(m=0, u=u, gaps=gaps, J=J, mu=mu(gaps, grid))
        out = msa_step(spec, grid, W, state, MSAConfig(M=200, depth=3, N_max=3))
        assert out.kind == "accepted"
        assert (out.record.N, out.record.j) == (2, 1)
        # the outcome carries the accepted control's own states and cost
        cand, X_cand, J_cand = out.candidate
        assert np.all(cand.values[:4] == 4) and np.all(cand.values[4:] == 10)
        assert np.array_equal(X_cand.states, simulate_state(spec, grid, W, cand).states)
        assert J_cand == evaluate_cost(spec, grid, X_cand, cand)


def per_control_costs(spec, grid, W):
    """Reference for the worst-constant start: one simulation per control."""
    V = spec.domain.size
    costs = []
    for idx in range(V):
        u = ControlProcess.constant(idx, W.M, W.steps, V)
        costs.append(evaluate_cost(spec, grid, simulate_state(spec, grid, W, u), u))
    return costs


class TestWorstConstant:
    @pytest.mark.parametrize(
        "spec",
        [get_problem(name) for name in problem_names()] + [lq_embed(coupled_lq2d())],
        ids=problem_names() + ["coupled-lq2d"],
    )
    def test_batched_pass_matches_per_control_loop(self, spec):
        grid = TimeGrid(T=spec.T, depth=5)
        W = generate_brownian(grid, 300, spec.d, 3)
        u = _initial_control(spec, grid, W, "worst-constant")
        assert u.values[0, 0] == int(np.argmax(per_control_costs(spec, grid, W)))
        assert np.all(u.values == u.values[0, 0])

    def test_exact_tie_goes_to_smallest_index(self):
        # sigma = u, x0 = 0: the paths under u = -1 and u = 1 are exact
        # negatives, so Phi = x^2 and f = u^2 give bitwise equal costs, both
        # above the cost of u = 0
        spec = scalar_spec(
            sigma=lambda t, x, u: u, f=lambda t, x, u: u**2, Phi=lambda x: x**2,
            domain=(0.0, -1.0, 1.0),
        )
        grid = TimeGrid(T=1.0, depth=4)
        W = generate_brownian(grid, 200, 1, 0)
        costs = per_control_costs(spec, grid, W)
        assert costs[1] == costs[2] > costs[0]
        assert _initial_control(spec, grid, W, "worst-constant").values[0, 0] == 1

    def test_diverging_control_named(self):
        # u = 1 multiplies the state by about 1e299 per step: inf at step 2
        spec = scalar_spec(b=lambda t, x, u: 1e300 * u * x, x0=1.0, domain=(0.0, 1.0))
        grid = TimeGrid(T=1.0, depth=3)
        W = generate_brownian(grid, 50, 1, 0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            SimulationError, match=r"^non-finite state under constant control 1 at path 0, step 2$"
        ):
            _initial_control(spec, grid, W, "worst-constant")


class TestRunMsa:
    @pytest.mark.parametrize(
        "name, J_hex, mu_hex",
        [
            ("lq-scalar", "0x1.0c37189f84080p-1", "-0x1.34e9f71dcf800p-10"),
            ("nonconvex-diffusion", "0x1.9b2c4791d973ap-1", "-0x1.db778b7ebed3ap-22"),
        ],
    )
    def test_registry_results_pinned(self, name, J_hex, mu_hex):
        # recorded before the batched initializer and the broadcast
        # H-minimization; both must leave every bit in place.  lq-scalar
        # accepts at levels 1, 3 and 4 before it exhausts the levels; each
        # log passes the descent check after a CSV round trip
        config = MSAConfig(M=300, depth=5, N_max=5, seed=3)
        spec = get_problem(name)
        run = run_msa(spec, config, "worst-constant")
        assert (run.J_final.hex(), run.mu_final.hex()) == (J_hex, mu_hex)
        accepted = [r.N for r in run.records if r.accepted]
        assert (accepted, run.termination) == {
            "lq-scalar": ([1, 3, 4], "exhausted"), "nonconvex-diffusion": ([1, 1, 1], "converged")
        }[name]
        records = records_from_csv(records_to_csv(run.records))
        assert records == run.records and check_descent_log(records, spec.T)

    def test_peak_holds_one_generation(self):
        # W, the gaps and one candidate's states are the float64 per-path
        # arrays an iteration reads; the control indices are uint8.  Holding
        # two generations of control, gaps and states peaked at 11.1 arrays.
        config = MSAConfig(M=1000, depth=7, m_max=4, seed=7)
        tracemalloc.start()
        try:
            run = run_msa(get_problem("nonconvex-diffusion"), config, "worst-constant")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(r.accepted for r in run.records) >= 2
        assert peak <= 5 * (1 << config.depth) * config.M * 8

    def test_zero_budget(self):
        spec = lq_embed(get_lq("lq-scalar"))
        run = run_msa(spec, MSAConfig(M=200, depth=3, N_max=3, m_max=0))
        assert run.termination == "budget"
        assert run.records == [
            IterationRecord(m=0, J=run.J0, mu=run.mu0, N=0, j=0, accepted=False, wall_time=0.0)
        ]
        assert (run.J_final, run.mu_final) == (run.J0, run.mu0)

    @pytest.mark.parametrize("depth, M, d", [(5, 200, 1), (4, 100, 1), (4, 200, 2)],
                             ids=["steps", "paths", "dim"])
    def test_ensemble_that_does_not_fit_refused(self, monkeypatch, depth, M, d):
        # refused before the worst-constant start steps W or any control is simulated;
        # 32 steps of W would run at the depth-4 grid's dt = 1/16 to a horizon of 2
        def refuse(*args):
            raise AssertionError("W was stepped")

        monkeypatch.setattr(msa_module, "_euler_step", refuse)
        monkeypatch.setattr(msa_module, "simulate_state", refuse)
        W = generate_brownian(TimeGrid(1.0, depth), M, d, 1)
        shape = re.escape(f"{W.increments.shape} do not fit run (16, 200, 1)")
        with pytest.raises(ProvenanceError, match=f"^ensemble increments {shape}$"):
            run_msa(get_problem("lq-scalar"), MSAConfig(M=200, depth=4, m_max=2, seed=1),
                    "worst-constant", W=W)

    def test_start_control_over_fewer_points_than_domain(self):
        # a spike may take any of lq-scalar's 21 points, so the start control is
        # taken over all of them and the run equals the one from that control
        spec, config = get_problem("lq-scalar"), MSAConfig(M=200, depth=4, m_max=3, seed=1)
        few = run_msa(spec, config, ControlProcess.constant(0, 200, 16, 5))
        full = run_msa(spec, config, ControlProcess.constant(0, 200, 16, spec.domain.size))
        assert few.termination == full.termination == "budget"
        assert (few.J_final, few.mu_final) == (full.J_final, full.mu_final)

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

    @pytest.mark.parametrize(
        "f, f_x, value, stage",
        [
            # negative states: J is NaN
            (lambda t, x, u: np.sqrt(x), lambda t, x, u: 0.5 / np.sqrt(x), "nan", "cost"),
            # J = 0 under the base control u = -1 and every gap is a finite
            # -2e307, but their sum over the paths overflows
            (lambda t, x, u: -1e307 * (u + 1.0), None, "-inf", "mu"),
        ],
        ids=["cost", "mu"],
    )
    def test_nonfinite_raises_with_stage(self, f, f_x, value, stage):
        spec = scalar_spec(sigma=lambda t, x, u: np.full_like(x, 0.5), f=f, f_x=f_x, x0=0.2)
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
            SimulationError, match=rf"non-finite {stage} {value} at iteration 0"
        ):
            run_msa(spec, MSAConfig(M=200, depth=3, N_max=3, m_max=2))

    @pytest.mark.parametrize("stage", ["adjoint", "gap"])
    def test_nonfinite_step_names_step_and_path(self, stage):
        # NaN above x = 0.6: in f_x (so in p_i), or in f at the candidate
        # u = 1 only (so in the H-function gap, while J and the adjoints stay
        # finite under the base control u = -1)
        thr = 0.6
        if stage == "adjoint":
            pieces = {"f_x": lambda t, x, u: np.where(x > thr, np.nan, 0.0)}
        else:
            pieces = {"f": lambda t, x, u: np.where((x > thr) & (u > 0), np.nan, 0.0)}
        spec = scalar_spec(sigma=lambda t, x, u: np.full_like(x, 0.5), x0=0.2, **pieces)
        config = MSAConfig(M=200, depth=3, N_max=3, m_max=2)
        grid = TimeGrid(T=1.0, depth=3)
        W = generate_brownian(grid, config.M, 1, config.seed)
        u = ControlProcess.constant(0, config.M, grid.steps, 3)
        x = simulate_state(spec, grid, W, u).states[:-1, :, 0]
        # the sweep runs backward, so the last step with a state above the
        # threshold fails first, at its first such path
        step = max(i for i in range(grid.steps) if np.any(x[i] > thr))
        path = int(np.argmax(x[step] > thr))
        with pytest.raises(
            SimulationError, match=rf"^non-finite {stage} at step {step}, path {path}$"
        ):
            run_msa(spec, config)

    def test_nonfinite_candidate_cost_raises(self):
        # a NaN candidate cost fails the descent test like any costlier
        # candidate would; it must stop the run instead of moving to level 2
        spec, config = nan_at_level_one_candidate()
        with pytest.raises(
            SimulationError,
            match=r"^non-finite candidate cost at iteration 0, level 1, interval 1$",
        ):
            run_msa(spec, config, "first-point")

    def test_coupled_2d_end_to_end(self):
        # n = d = k = 2 through the whole solver: every einsum of the sweep
        # and the H-minimization runs with non-trivial index ranges
        lq = coupled_lq2d()
        spec = lq_embed(lq)
        config = MSAConfig(M=500, depth=4, N_max=4, m_max=5, seed=0)
        run = run_msa(spec, config, "worst-constant")
        assert sum(r.accepted for r in run.records) >= 2
        assert run.J_final < run.J0
        assert check_descent_log(run.records, spec.T)

        u, W = run.final_control, run.ensemble
        X = simulate_state(spec, run.grid, W, u)
        adj1, adj2 = _collect(spec, run.grid, X, u, config.basis, W)
        ref1, ref2 = lq_closed_form_adjoint(lq, run.grid, X, u)

        def rel(est, ref):
            return np.sqrt(np.mean((est - ref) ** 2)) / np.sqrt(np.mean(ref**2))

        assert rel(adj1.p, ref1.p) <= 0.05
        assert rel(adj2.P, ref2.P) <= 0.05

    def test_monotone_accepted_cost(self):
        spec = lq_embed(get_lq("lq-scalar"))
        run = run_msa(spec, MSAConfig(M=1000, depth=5, N_max=5), "worst-constant")
        Js = [r.J for r in run.records]
        assert all(b <= a for a, b in zip(Js, Js[1:]))


class TestOverlappedSweep:
    """prepare_state on 2+ CPUs: the sweep in a forked child, the H-minimization
    in the caller and, while the caller holds every ring slot, in the child."""

    @pytest.fixture(autouse=True)
    def serial_runs(self, monkeypatch):
        # the gap_process calls of prepare_state: the serial path's, or the fallback's
        calls = []

        def recording(*args):
            calls.append(None)
            return gap_process(*args)

        monkeypatch.setattr(msa_module, "gap_process", recording)
        self.serial_calls = calls

    @staticmethod
    def inputs(spec, M=300, depth=4, index=0):
        grid = TimeGrid(T=spec.T, depth=depth)
        W = generate_brownian(grid, M, spec.d, 3)
        u = ControlProcess.constant(index, M, grid.steps, spec.domain.size)
        X = simulate_state(spec, grid, W, u)
        return grid, W, u, X, evaluate_cost(spec, grid, X, u)

    @staticmethod
    def gap_bytes(gaps):
        return [(a.dtype, a.shape, a.tobytes()) for a in (gaps.values, gaps.argmin_indices)]

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def prepare(self, spec, inputs, basis=RegressionBasis()):
        grid, W, u, X, J = inputs
        return prepare_state(spec, grid, W, u, X, J, basis)

    def serial(self, path_split, spec, inputs):
        path_split(cpus=1, per_worker=1 << 20)
        gaps = self.prepare(spec, inputs).gaps
        path_split(cpus=2, per_worker=1 << 20)
        del self.serial_calls[:]
        return self.gap_bytes(gaps)

    @pytest.mark.parametrize("die", [lambda: os.kill(os.getpid(), signal.SIGKILL),
                                     lambda: os._exit(1)], ids=["sigkill", "exit-1"])
    def test_dead_child_serial_gaps(self, path_split, tmp_path, die):
        # the child ends itself halfway through the sweep (SIGKILL runs no
        # finally, as the out-of-memory killer): the caller runs the serial
        # gap_process and leaves no child behind
        spec = get_problem("nonconvex-diffusion")
        inputs = self.inputs(spec)
        serial = self.serial(path_split, spec, inputs)
        caller, deaths, b_x = os.getpid(), tmp_path / "deaths", spec.coefficients.b_x

        def dying(t, x, u):
            if os.getpid() != caller and t <= 0.5:
                with open(deaths, "a") as fh:
                    fh.write("died\n")
                die()
            return b_x(t, x, u)

        mortal = dataclasses.replace(
            spec, coefficients=dataclasses.replace(spec.coefficients, b_x=dying))
        assert self.gap_bytes(self.prepare(mortal, inputs).gaps) == serial
        assert deaths.read_text() == "died\n" and len(self.serial_calls) == 1
        self.assert_no_child()

    def test_refused_fork_serial_gaps(self, path_split, monkeypatch):
        # the fork fails, as under strict overcommit: the caller runs the serial gap_process
        spec = get_problem("nonconvex-diffusion")
        inputs = self.inputs(spec)
        serial = self.serial(path_split, spec, inputs)
        forks = []

        def refused():
            forks.append(None)
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        monkeypatch.setattr(os, "fork", refused)
        assert self.gap_bytes(self.prepare(spec, inputs).gaps) == serial
        assert len(forks) == 1 and len(self.serial_calls) == 1
        self.assert_no_child()

    def test_child_sweep_exception_raised_as_serial(self, path_split, tmp_path):
        # a sweep-only coefficient raises, so under the overlap first in the
        # child: the serial rerun raises it again, in the caller
        class Boom(Exception):
            pass

        spec = get_problem("nonconvex-diffusion")
        inputs = self.inputs(spec)
        raisers = tmp_path / "raisers"

        def failing(t, x, u):
            if t <= 0.5:
                with open(raisers, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                raise Boom(f"sigma_x failed at t = {t}")
            return spec.coefficients.sigma_x(t, x, u)

        failing_spec = dataclasses.replace(
            spec, coefficients=dataclasses.replace(spec.coefficients, sigma_x=failing))
        messages = []
        for cpus in (1, 2):
            path_split(cpus=cpus, per_worker=1 << 20)
            with pytest.raises(Boom) as info:
                self.prepare(failing_spec, inputs)
            messages.append(str(info.value))
        assert messages == ["sigma_x failed at t = 0.5"] * 2
        pids = raisers.read_text().split()
        assert len(pids) == 3 and pids[1] != pids[0] == pids[2] == str(os.getpid())
        self.assert_no_child()

    def test_nonfinite_adjoint_named_as_serial(self, path_split):
        # f_x is NaN above x = 0.6, so p_i is, from the last step with such a state
        spec = scalar_spec(sigma=lambda t, x, u: np.full_like(x, 0.5), x0=0.2,
                           f_x=lambda t, x, u: np.where(x > 0.6, np.nan, 0.0))
        inputs = self.inputs(spec, M=200, depth=3)
        x = inputs[3].states[:-1, :, 0]
        step = max(i for i in range(8) if np.any(x[i] > 0.6))
        text = rf"^non-finite adjoint at step {step}, path {int(np.argmax(x[step] > 0.6))}$"
        for cpus in (1, 2):
            path_split(cpus=cpus, per_worker=1 << 20)
            with pytest.raises(SimulationError, match=text):
                self.prepare(spec, inputs)
        self.assert_no_child()

    @staticmethod
    def slow_caller(monkeypatch, tmp_path):
        """The caller's first minimize_h sleeps, so the child fills the ring
        and minimizes the later steps itself, noting each in the file returned."""
        caller, minimize_h = os.getpid(), hamiltonian.minimize_h
        minimizers = tmp_path / "minimizers"
        minimizers.write_text("")
        sleeps = [0.25]

        def timed(*args):
            if os.getpid() == caller:
                time.sleep(sleeps.pop() if sleeps else 0.0)
            else:
                with open(minimizers, "a") as fh:
                    fh.write("child\n")
            return minimize_h(*args)

        monkeypatch.setattr(hamiltonian, "minimize_h", timed)
        return minimizers

    def test_slow_caller_child_minimizes(self, path_split, monkeypatch, tmp_path):
        # every gap and argmin is still the serial one, byte for byte and in the same dtype
        spec = get_problem("lq-scalar")
        inputs = self.inputs(spec, index=spec.domain.size - 1)
        serial = self.serial(path_split, spec, inputs)
        minimizers = self.slow_caller(monkeypatch, tmp_path)
        assert self.gap_bytes(self.prepare(spec, inputs).gaps) == serial
        assert minimizers.read_text().count("child") >= 1 and self.serial_calls == []
        self.assert_no_child()

    def test_one_cpu_forks_nothing(self, path_split, monkeypatch):
        spec = get_problem("nonconvex-diffusion")
        inputs = self.inputs(spec)
        path_split(cpus=1, per_worker=1 << 20)
        forks = []

        def refused():
            forks.append(None)
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", refused)
        self.prepare(spec, inputs)
        assert forks == [] and len(self.serial_calls) == 1

    @pytest.mark.parametrize("slow", [False, True], ids=["caller-minimizes", "child-minimizes"])
    def test_coupled_2d_ring_equals_serial(self, path_split, monkeypatch, tmp_path, slow):
        # n = d = k = 2: ring slots (K, M, 2), (K, M, 2, 2) and (K, M, 2, 2),
        # with the later steps minimized in the child if the caller is slowed
        spec = lq_embed(coupled_lq2d())
        grid, W, u, X, J = inputs = self.inputs(spec, M=400, depth=5)
        streamed = gap_process(spec, grid, X, u,
                               adjoint_sweep(spec, grid, X, u, RegressionBasis(), W))
        minimizers = self.slow_caller(monkeypatch, tmp_path) if slow else None
        path_split(cpus=2, per_worker=1 << 20)
        assert self.gap_bytes(self.prepare(spec, inputs).gaps) == self.gap_bytes(streamed)
        assert self.serial_calls == []
        if slow:
            assert minimizers.read_text().count("child") >= 1
        self.assert_no_child()

    @pytest.mark.parametrize("blas_threads", [None, "2"], ids=["openblas-threads-unset", "2"])
    def test_coupled_2d_run_equal_for_any_cpu_count(self, path_split, blas_threads):
        # a small 2-D solve, in a subprocess with OPENBLAS_NUM_THREADS unset or
        # set (the child runs OpenBLAS after a fork), on 1 and on 2 CPUs
        script = (
            "import os, sys\n"
            "from msa_control import MSAConfig, lq_embed, run_msa\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from conftest import coupled_lq2d\n"
            "for cpus in (1, 2):\n"
            "    os.sched_getaffinity = lambda pid: set(range(cpus))\n"
            "    config = MSAConfig(M=300, depth=4, N_max=4, m_max=3, seed=0)\n"
            "    run = run_msa(lq_embed(coupled_lq2d()), config, 'worst-constant')\n"
            "    print(run.J_final.hex(), run.mu_final.hex(), len(run.records))\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        src = os.path.dirname(os.path.dirname(msa_module.__file__))
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", script, os.path.dirname(__file__)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        one, two = proc.stdout.splitlines()
        assert one == two and int(one.split()[2]) >= 2
        path_split(cpus=1, per_worker=1 << 20)
        run = run_msa(lq_embed(coupled_lq2d()),
                      MSAConfig(M=300, depth=4, N_max=4, m_max=3, seed=0), "worst-constant")
        assert one == f"{run.J_final.hex()} {run.mu_final.hex()} {len(run.records)}"


class TestMSAConfig:
    def test_level_depth_defaults_to_grid_depth(self):
        assert MSAConfig(M=300, depth=5).N_max == 5
        assert MSAConfig(depth=10).N_max == 10
        assert MSAConfig().N_max == MSAConfig().depth

    def test_explicit_level_depth_kept(self):
        assert MSAConfig(depth=6, N_max=3).N_max == 3

    @pytest.mark.parametrize("N_max", [0, 6])
    def test_level_depth_outside_grid_rejected(self, N_max):
        with pytest.raises(ValueError, match="N_max must be between 1 and the grid depth"):
            MSAConfig(depth=5, N_max=N_max)

    @pytest.mark.parametrize("depth", [0, -1, float("nan")])
    def test_grid_depth_below_one_rejected(self, depth):
        # checked before N_max, which defaults to the depth
        with pytest.raises(ValueError, match="^grid depth must be at least 1$"):
            MSAConfig(depth=depth)

    @pytest.mark.parametrize("seed", [-1, 2**64, float("nan")], ids=["-1", "2**64", "nan"])
    def test_seed_outside_u64_rejected(self, seed):
        # the Philox key and the binary header would reduce it mod 2^64
        assert MSAConfig(seed=2**64 - 1).seed == 2**64 - 1
        with pytest.raises(ValueError, match=r"^seed .* must be an integer in 0\.\.2\*\*64-1$"):
            MSAConfig(seed=seed)

    def test_ridge_zero_needs_degree_zero(self):
        assert MSAConfig(ridge=0.0, degree=0).ridge == 0.0
        with pytest.raises(ValueError, match=r"^ridge = 0 needs degree = 0: the step-0 regression"):
            MSAConfig(ridge=0.0, degree=1)


class TestSerialization:
    def rows(self):
        return [
            IterationRecord(m=0, J=1.25, mu=-0.5, N=1, j=1, accepted=True, wall_time=0.01),
            IterationRecord(m=1, J=1.0, mu=-1e-7, N=0, j=0, accepted=False, wall_time=0.0),
        ]

    def test_csv_round_trip(self):
        rows = self.rows()
        assert records_from_csv(records_to_csv(rows)) == rows

    @pytest.mark.parametrize(
        "text, found",
        [
            ("m,J,mu\n0,1.0,-0.5\n", "['m', 'J', 'mu']"),
            ("", "[]"),
            # a good header over a row of the wrong length: any ValueError
            ("m,J,mu,N,j,accepted,wall_time\n0,1.0,-0.5,1,1,1\n", None),
        ],
    )
    def test_csv_bad_header_rejected(self, text, found):
        match = None if found is None else re.escape(f"header {found} is not")
        with pytest.raises(ValueError, match=match):
            records_from_csv(text)

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
        # only accepted rows are held to the inequality
        rejected_then_worse = [
            IterationRecord(m=0, J=1.0, mu=-0.5, N=1, j=1, accepted=False, wall_time=0.0),
            IterationRecord(m=1, J=2.0, mu=-0.5, N=0, j=0, accepted=False, wall_time=0.0),
        ]
        assert check_descent_log(rejected_then_worse, 1.0)


_GAPS = GapProcess(np.zeros((16, 3)), np.zeros((16, 3), dtype=np.int64))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: spike_control(ControlProcess.constant(0, 3, 16, 3), _GAPS, (4, 2)), "misaligned"),
        (lambda: spike_control(ControlProcess.constant(0, 3, 16, 3), _GAPS, (8, 17)), "misaligned"),
        (lambda: find_descent_interval(_GAPS, -1.0, 0, TimeGrid(T=1.0, depth=4), 1.0), "N=0 outside 1..4"),
        (lambda: find_descent_interval(_GAPS, -1.0, 5, TimeGrid(T=1.0, depth=4), 1.0), "N=5 outside 1..4"),
        (
            lambda: _initial_control(
                scalar_spec(), TimeGrid(T=1.0, depth=2),
                generate_brownian(TimeGrid(T=1.0, depth=2), 3, 1, 0), "best-constant",
            ),
            "unknown initializer 'best-constant'",
        ),
    ],
    ids=["reversed-range", "past-last-step", "N=0", "N>depth", "unknown-initializer"],
)
def test_invalid_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
