import dataclasses
import tracemalloc

import numpy as np
import pytest

from msa_control import (
    ControlDomain,
    ControlProcess,
    LQSpec,
    MSAConfig,
    SimulationError,
    TimeGrid,
    build_oracle,
    evaluate_cost,
    generate_brownian,
    get_lq,
    get_problem,
    lq_embed,
    lyapunov_solve,
    prepare_state,
    rate_experiment,
    remainder_experiment,
    sequence_lemma_check,
    simulate_state,
    spike_control,
    variational_experiment,
    variational_simulate,
)
from msa_control.hamiltonian import GapProcess
from msa_control.oracle import _interval_steps

from conftest import coupled_lq2d, scalar_spec

PIN_EPS = [0.25, 0.125, 0.0625]


def make_lq(**over):
    base = dict(
        n=1, d=1, k=1, T=1.0, x0=[1.0],
        b1=lambda t: np.array([[0.0]]),
        b2=lambda t: np.array([0.0]),
        G=lambda t: np.array([[0.0]]),
        Gamma=np.array([[1.0]]),
        sigma_u=lambda t, u: np.zeros((u.shape[0], 1, 1)),
        g=lambda t, u: np.zeros(u.shape[0]),
        domain=ControlDomain(np.array([[-1.0], [0.0], [1.0]])),
    )
    base.update(over)
    return LQSpec(**base)


class TestLyapunovSolve:
    def test_zero_data(self):
        lq = make_lq(Gamma=np.array([[0.0]]))
        K, k, c = lyapunov_solve(lq, TimeGrid(T=1.0, depth=4))
        assert np.all(K == 0.0) and np.all(k == 0.0) and np.all(c == 0.0)

    def test_linear_profile(self):
        # G = 1, Gamma = 0, b1 = 0: K(t) = T - t
        lq = make_lq(G=lambda t: np.array([[1.0]]), Gamma=np.array([[0.0]]))
        grid = TimeGrid(T=1.0, depth=4)
        K, _, _ = lyapunov_solve(lq, grid)
        target = 1.0 - grid.times
        assert np.max(np.abs(K[:, 0, 0] - target)) <= 1e-10

    def test_exponential_profile(self):
        # b1 = beta: K(t) = exp(2 beta (T - t))
        beta = 0.7
        lq = make_lq(b1=lambda t: np.array([[beta]]))
        grid = TimeGrid(T=1.0, depth=8)
        K, _, _ = lyapunov_solve(lq, grid)
        target = np.exp(2 * beta * (1.0 - grid.times))
        assert np.max(np.abs(K[:, 0, 0] - target)) <= 1e-8


class TestLQOptimalControl:
    def test_no_diffusion_cost_minimizes_g(self):
        lq = make_lq(g=lambda t, u: (u[:, 0] - 0.4) ** 2)
        grid = TimeGrid(T=1.0, depth=3)
        u_star = build_oracle(lq, grid).u_star
        assert np.all(u_star == 1)  # u = 0 is the closest domain point to 0.4

    def test_quadratic_diffusion_cost(self):
        # sigma_u = u, G = 1, Gamma = 1: K > 0, so u* = 0 and
        # J* = K(0) x0^2 / 2 with K(t) = 1 + (T - t)
        lq = make_lq(
            G=lambda t: np.array([[1.0]]),
            sigma_u=lambda t, u: u[:, :, None],
        )
        grid = TimeGrid(T=1.0, depth=5)
        oracle = build_oracle(lq, grid)
        assert np.all(oracle.u_star == 1)
        assert oracle.J_star == pytest.approx(1.0, abs=1e-8)

    def test_registry_mc_cross_check(self):
        lq = get_lq("lq-scalar")
        spec = lq_embed(lq)
        grid = TimeGrid(T=1.0, depth=6)
        M = 10_000
        oracle = build_oracle(lq, grid)
        W = generate_brownian(grid, M, 1, 0)
        u = ControlProcess.deterministic(oracle.u_star, M, spec.domain.size)
        X = simulate_state(spec, grid, W, u)
        J_mc = evaluate_cost(spec, grid, X, u)
        tol = 3.0 * (grid.dt + 1.0 / np.sqrt(M))
        assert abs(J_mc - oracle.J_star) <= tol * abs(oracle.J_star)


class TestRateExperiment:
    def test_optimal_initializer_sits_at_zero(self):
        lq = get_lq("lq-scalar")
        config = MSAConfig(M=1000, depth=5, N_max=5)
        grid = TimeGrid(T=1.0, depth=5)
        oracle = build_oracle(lq, grid)
        u0 = ControlProcess.deterministic(oracle.u_star, 1000, lq.domain.size)
        result = rate_experiment(lq, config, u0)
        assert abs(result.rows[0][1]) <= 1e-10
        assert result.run.termination in ("converged", "exhausted")

    def test_descent_from_worst_constant(self):
        lq = get_lq("lq-scalar")
        result = rate_experiment(lq, MSAConfig(M=2000, depth=6, N_max=6))
        a = [row[1] for row in result.rows]
        assert a[0] > 0
        assert all(y <= x + 1e-12 for x, y in zip(a, a[1:]))
        assert abs(result.J_star_saa - result.J_star_analytic) <= 0.05 * abs(
            result.J_star_analytic
        )

    def test_rows_pinned(self):
        # run_msa's own ensemble is the one J* is evaluated on
        result = rate_experiment(
            get_lq("lq-scalar"), MSAConfig(M=500, depth=5, N_max=5, m_max=3, seed=3)
        )
        assert [(m, a.hex()) for m, a, _ in result.rows] == [
            (1, "0x1.99ff7a7568ebap-2"),
            (2, "0x1.ce46a8d2f2000p-12"),
            (3, "0x1.6c930a9354000p-13"),
            (4, "-0x1.39d02a9680000p-16"),
        ]

    def test_csv_fields_parse_as_float(self):
        result = rate_experiment(get_lq("lq-scalar"), MSAConfig(M=300, depth=4, N_max=4))
        lines = result.csv().splitlines()
        assert lines[0] == "m,a_m,a_m_sqrt_m" and len(lines) == 1 + len(result.rows)
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 3
            [float(v) for v in fields]


class TestRemainderExperiment:
    def test_lq_expansion_is_exact(self):
        # quadratic value function: the second-order expansion has no remainder
        spec = lq_embed(get_lq("lq-scalar"))
        config = MSAConfig(M=5000, depth=6, N_max=6)
        eps_list = [0.25, 0.125]
        res = remainder_experiment(spec, spec.domain.size - 1, 0.5, eps_list, config)
        for _, R, _ in res.rows:
            assert abs(R) <= 1e-10

    def test_conditional_estimator_bits_pinned(self):
        # criterion-6 shape at a small size; the nested intervals share one
        # pass over the steps, which must not change any sum's order
        spec = get_problem("nonconvex-diffusion")
        config = MSAConfig(M=4000, depth=7, N_max=7, seed=3)
        eps_list = [spec.T * 2.0 ** (-N) for N in range(2, 7)]
        res = remainder_experiment(spec, spec.domain.size - 1, spec.T / 2, eps_list, config)
        assert [(e, R.hex(), c) for e, R, c in res.rows] == [
            (0.25, "-0x1.89fde2bb8eb25p-11", False),
            (0.125, "-0x1.f31652a81bc58p-14", True),
            (0.0625, "-0x1.23930c197afaep-16", True),
            (0.03125, "0x1.6ad016e8a89ffp-17", True),
            (0.015625, "0x1.333e247c02f06p-17", True),
        ]
        assert [s.hex() for s in res.standard_errors] == [
            "0x1.0b590d5dfedb5p-14",
            "0x1.c96d61915aaf6p-16",
            "0x1.6229e3c53af5dp-17",
            "0x1.ddac9099f4dbfp-19",
            "0x1.32525111d488cp-20",
        ]
        assert np.isnan(res.slope)  # only eps 0.25 clears the censoring line: no slope to fit

    @pytest.mark.parametrize("M", [300, 301])
    def test_conditional_se_from_pair_means(self, monkeypatch, M):
        # the SE is std(pair means) / sqrt(pairs), over paths (2q, 2q + 1),
        # and an odd M's last path is a pair of its own; R stays the path mean
        from msa_control import oracle

        samples, conditional = {}, oracle._conditional_remainder

        def recording(*args):
            for eps, r in conditional(*args):
                samples[eps] = r.copy()
                yield eps, r

        monkeypatch.setattr(oracle, "_conditional_remainder", recording)
        spec = get_problem("nonconvex-diffusion")
        config = MSAConfig(M=M, depth=6, N_max=6, seed=3)
        res = remainder_experiment(spec, spec.domain.size - 1, 0.5, [0.25, 0.125], config)
        for (eps, R, _), se in zip(res.rows, res.standard_errors):
            r = samples[eps]
            means = [(r[i] + r[i + 1]) / 2 for i in range(0, M - 1, 2)] + list(r[M - M % 2 :])
            assert len(means) == (M + 1) // 2
            assert R == np.sum(r) / M and se == np.std(means) / np.sqrt(len(means))

    def test_empty_eps_list_fits_nothing(self):
        # no interval: no state row is kept, yet x0 still places the lattice
        spec = get_problem("nonconvex-diffusion")
        res = remainder_experiment(spec, 1, 0.5, [], MSAConfig(M=301, depth=6, seed=3))
        assert res.rows == [] and res.standard_errors == [] and np.isnan(res.slope)

    def test_conditional_estimator_equal_for_any_worker_count(self, path_split):
        # 1001 paths with a floor of 300 per worker: 1, 2 or 3 workers, each
        # splitting both the simulation and the gap-integral sums
        spec = get_problem("nonconvex-diffusion")
        config = MSAConfig(M=1001, depth=6, N_max=6, seed=3)
        eps_list = [spec.T * 2.0 ** (-N) for N in range(2, 7)]
        results = {}
        for workers in (1, 2, 3):
            record = path_split(cpus=workers, per_worker=300)
            res = remainder_experiment(spec, spec.domain.size - 1, 0.5, eps_list, config)
            results[workers] = (
                [R.hex() for _, R, _ in res.rows], [s.hex() for s in res.standard_errors]
            )
            assert record.pools == (0 if workers == 1 else 2)
            assert len(record.ranges) == (0 if workers == 1 else 2 * workers)
        assert results[2] == results[1] and results[3] == results[1]

    def test_conditional_estimator_peak(self):
        # at M=300, G=9 the estimator keeps the window of 256 state rows
        # (0.6 MB), the gap rate's 256 lattice rows (4.1 MB) and one
        # 300-path increment buffer (1.2 MB); an 8192-path buffer (33.5 MB)
        # or three (512, 2001) lattice fields (24.6 MB) would each break 8 MB
        import scipy.linalg  # noqa: F401  (its lazy import's module objects are not the estimator's)

        spec = get_problem("nonconvex-diffusion")
        config = MSAConfig(M=300, depth=9, N_max=9, seed=7)
        eps_list = [spec.T * 2.0 ** (-N) for N in range(2, 7)]
        tracemalloc.start()
        try:
            remainder_experiment(spec, spec.domain.size - 1, spec.T / 2, eps_list, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20

    def test_direct_estimator_bits_pinned(self):
        # a ControlProcess base takes the direct CRN estimator
        spec = get_problem("lq-scalar")
        config = MSAConfig(M=2000, depth=6, N_max=6, seed=3)
        V = spec.domain.size
        u = ControlProcess.constant(V - 1, config.M, 1 << config.depth, V)
        res = remainder_experiment(spec, u, 0.5, PIN_EPS, config)
        assert [(e, R.hex(), c) for e, R, c in res.rows] == [
            (0.25, "0x1.d9991dc24430ap-7", True),
            (0.125, "0x1.74f63b68174e5p-7", True),
            (0.0625, "0x1.3788d2e7f8052p-11", True),
        ]
        assert [s.hex() for s in res.standard_errors] == [
            "0x1.442e0601897f6p-7",
            "0x1.ce8f9fcc99540p-8",
            "0x1.5967781b82e5ep-8",
        ]

    def test_direct_estimator_bits_pinned_coupled_2d(self):
        # an index base on n = d = 2 takes the direct estimator too; a numpy
        # integer index is the same base
        spec = lq_embed(coupled_lq2d())
        config = MSAConfig(M=2000, depth=6, N_max=6, seed=3)
        last = spec.domain.size - 1
        for base in (last, np.int64(last)):
            res = remainder_experiment(spec, base, 0.5, PIN_EPS, config)
            assert [(e, R.hex(), c) for e, R, c in res.rows] == [
                (0.25, "0x1.e811890c88007p-8", True),
                (0.125, "-0x1.6695194afae65p-8", True),
                (0.0625, "-0x1.e119bb2796de2p-7", True),
            ]
            assert [s.hex() for s in res.standard_errors] == [
                "0x1.168332e520af3p-6",
                "0x1.b13baf6b7eaf3p-7",
                "0x1.450ec7305d2b1p-7",
            ]

    @pytest.mark.parametrize("lo, hi, nx", [(-3.7, 2.9, 2001), (0.1, 0.4, 7), (-1.0, 1.0, 2)])
    def test_lattice_interp_matches_np_interp(self, lo, hi, nx):
        from msa_control.oracle import _lattice_interp

        xs = np.linspace(lo, hi, nx)
        fp = np.random.default_rng(0).normal(size=nx)
        x = np.concatenate([
            xs,
            np.nextafter(xs, np.inf),
            np.nextafter(xs, -np.inf),
            [lo - 1.0, hi + 1.0, -1e300, 1e300],
            np.random.default_rng(1).uniform(lo - 0.5, hi + 0.5, 5000),
        ])
        assert np.array_equal(_lattice_interp(x, xs, fp), np.interp(x, xs, fp))

    def test_misaligned_interval_rejected(self):
        from msa_control.oracle import _interval_steps

        grid = TimeGrid(T=1.0, depth=3)
        with pytest.raises(ValueError):
            _interval_steps(0.5, 0.3, grid)


class TestVariationalSimulate:
    def test_no_spike_zero_defect(self):
        spec = lq_embed(get_lq("lq-scalar"))
        grid = TimeGrid(T=1.0, depth=4)
        M = 50
        W = generate_brownian(grid, M, 1, 0)
        u = ControlProcess.constant(3, M, grid.steps, spec.domain.size)
        gaps = GapProcess(
            np.zeros((grid.steps, M)),
            np.full((grid.steps, M), 3, dtype=np.int64),
        )
        X = simulate_state(spec, grid, W, u)
        X1, X2, e = variational_simulate(spec, grid, W, X, gaps, (4, 8))
        assert np.all(X1 == 0.0) and np.all(X2 == 0.0)
        assert e == 0.0

    def test_constant_diffusion_switch_is_brownian(self):
        # sigma(u) = u, b = 0, base u = 0 spiked to u = 1:
        # X1 accumulates exactly the Brownian increments of the interval
        spec = scalar_spec(sigma=lambda t, x, u: u)
        grid = TimeGrid(T=1.0, depth=4)
        M = 20
        W = generate_brownian(grid, M, 1, 1)
        u = ControlProcess.constant(1, M, grid.steps, 3)
        gaps = GapProcess(
            np.zeros((grid.steps, M)),
            np.full((grid.steps, M), 2, dtype=np.int64),
        )
        lo, hi = 4, 8
        X = simulate_state(spec, grid, W, u)
        X1, _, e = variational_simulate(spec, grid, W, X, gaps, (lo, hi))
        inc = W.increments[:, :, 0]
        expect = np.zeros((grid.steps + 1, M))
        run = np.cumsum(inc[lo:hi], axis=0)
        expect[lo + 1 : hi + 1] = run
        expect[hi + 1 :] = run[-1:]
        np.testing.assert_allclose(X1[:, :, 0], expect, atol=1e-14)

    def test_expansion_bits_pinned(self):
        # random base controls and argmins on a scalar and an n = d = k = 2
        # problem; one interval starts at step 0 and one ends at the last step
        # (coupled-lq2d has sigma_x = b_xx = sigma_xx = 0, so its X2 stays zero)
        import hashlib

        def sha(a):
            return hashlib.sha256(a.tobytes()).hexdigest()

        pins = {
            "nonconvex-diffusion": [
                ("0x1.11363b8c34285p-10",
                 "82ee9f0cc86e204af6f6fb72571c339772edb927f30a307ed879679f56a4506a",
                 "3e2af2f64ee29e00c30491b091e155571bf2055471f87b4d835fd3ac97e03d24"),
                ("0x1.18c886a03ca4fp-9",
                 "1ef65815e7d6d27be3e4691200b1cfa74aa71d103c4ec5cabc9142223a601973",
                 "05137371eb0fccc518013e3d44d3372c99404a362ba17a84844b5f063225668c"),
                ("0x1.a21854c10e1f7p-16",
                 "9a1c2cd20ceeca25f3fd7618f64ad8f08aebc80208f303a03cf325f0143b0067",
                 "9eaf80f3aa0bb8288d4c0c3964d88fe6467162e3a7bdee1de35017f7da043a50"),
            ],
            "coupled-lq2d": [
                ("0x1.707b4377ae148p-102",
                 "93217fde8e3629368a3ed21f26801daac700242cf95732de61c9149b5b431e10",
                 "9ff88aa55e58df7d6774efc6baf1f556db1546d3d0a1fe3d7c87c2466b9087c7"),
                ("0x1.fc5eda81b4e82p-103",
                 "17b452404e3b5f50ece7ad33815d6f23c81e4d921e0e389a1994bd2971fd2596",
                 "9ff88aa55e58df7d6774efc6baf1f556db1546d3d0a1fe3d7c87c2466b9087c7"),
                ("0x1.9f11aeeeeeeefp-104",
                 "8d087d01831bdf5784935ab19c1cb0707059edc988a0d97d8d83e2b7109cfeb3",
                 "9ff88aa55e58df7d6774efc6baf1f556db1546d3d0a1fe3d7c87c2466b9087c7"),
            ],
        }
        specs = {"nonconvex-diffusion": get_problem("nonconvex-diffusion"),
                 "coupled-lq2d": lq_embed(coupled_lq2d())}
        for name, spec in specs.items():
            grid = TimeGrid(T=spec.T, depth=5)
            M, V = 300, spec.domain.size
            W = generate_brownian(grid, M, spec.d, 3)
            rng = np.random.default_rng(3)
            u = ControlProcess(rng.integers(V, size=(grid.steps, M)), V)
            gaps = GapProcess(np.zeros((grid.steps, M)), rng.integers(V, size=(grid.steps, M)))
            X = simulate_state(spec, grid, W, u)
            got = []
            for step_range in ((0, 8), (12, 20), (24, 32)):
                X1, X2, e = variational_simulate(spec, grid, W, X, gaps, step_range)
                got.append((e.hex(), sha(X1), sha(X2)))
            assert got == pins[name], name

    def test_missing_second_derivatives_rejected(self):
        spec = lq_embed(get_lq("lq-scalar"))
        with pytest.raises(ValueError, match="b_xx"):
            dataclasses.replace(spec.coefficients, b_xx=None)


class TestVariationalExperiment:
    def test_base_control_simulated_once(self, monkeypatch):
        from msa_control import msa, oracle

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[3])
            return simulate_state(*args, **kwargs)

        # the base is simulated by msa._start, the spiked candidates by oracle
        monkeypatch.setattr(msa, "simulate_state", counting)
        monkeypatch.setattr(oracle, "simulate_state", counting)
        spec = get_problem("nonconvex-diffusion")
        eps_list = [spec.T * 2.0 ** (-N) for N in range(2, 5)]
        config = MSAConfig(M=200, depth=5, N_max=5, seed=1)
        last = spec.domain.size - 1
        results = []
        for u in (last, np.int64(last)):  # a numpy integer base control too
            calls.clear()
            results.append(oracle.variational_experiment(spec, u, 0.5, eps_list, config))
            assert len(results[-1].rows) == len(eps_list)
            # one base simulation, then one spiked candidate per eps
            assert len(calls) == 1 + len(eps_list)
            assert np.all(calls[0].values == last)
        assert results[0].rows == results[1].rows

    def test_rows_pinned(self):
        spec = get_problem("nonconvex-diffusion")
        config = MSAConfig(M=500, depth=6, N_max=6, seed=3)
        res = variational_experiment(spec, spec.domain.size - 1, 0.5, PIN_EPS, config)
        assert [(e, v.hex()) for e, v in res.rows] == [
            (0.25, "0x1.6174520f3c241p-8"),
            (0.125, "0x1.1af3a53833dc3p-10"),
            (0.0625, "0x1.5d74a65e5028ep-13"),
        ]


def _with_phi(spec, Phi):
    return dataclasses.replace(spec, coefficients=dataclasses.replace(spec.coefficients, Phi=Phi))


class TestNonfiniteCost:
    """lq-scalar, M=300, G=6, seed 3, with the last grid point as the base:
    the experiments stop where they would report NaN rows as results."""

    config = MSAConfig(M=300, depth=6, N_max=6, seed=3)

    def base(self, spec):
        V = spec.domain.size
        return ControlProcess.constant(V - 1, self.config.M, 1 << self.config.depth, V)

    def test_base_cost_stops_both_experiments(self):
        spec = _with_phi(get_problem("lq-scalar"), lambda x: np.full(x.shape[0], np.nan))
        with pytest.raises(SimulationError, match="non-finite cost"):
            remainder_experiment(spec, self.base(spec), 0.5, PIN_EPS, self.config)
        with pytest.raises(SimulationError, match="non-finite cost"):
            variational_experiment(spec, spec.domain.size - 1, 0.5, PIN_EPS, self.config)

    def test_candidate_cost_stops_direct_estimator(self):
        # Phi is NaN exactly at the terminal states of the first eps's
        # spiked candidate, so the base cost stays finite
        spec, config = get_problem("lq-scalar"), self.config
        u = self.base(spec)
        grid = TimeGrid(T=spec.T, depth=config.depth)
        W = generate_brownian(grid, config.M, spec.d, config.seed)
        X = simulate_state(spec, grid, W, u)
        state = prepare_state(spec, grid, W, u, X, evaluate_cost(spec, grid, X, u), config.basis)
        cand = spike_control(u, state.gaps, _interval_steps(0.5, PIN_EPS[0], grid))
        x_T = simulate_state(spec, grid, W, cand).states[-1]
        Phi = spec.coefficients.Phi

        def poisoned(x):
            out = np.asarray(Phi(x))
            return np.full_like(out, np.nan) if np.array_equal(x, x_T) else out

        with pytest.raises(SimulationError, match=r"^non-finite candidate cost at eps 0.25$"):
            remainder_experiment(_with_phi(spec, poisoned), u, 0.5, PIN_EPS, config)

    def test_nonfinite_difference_stops_conditional_estimator(self):
        # f = -inf at the control point -1 makes the gap rate, and so the
        # difference solution, non-finite; the base value function stays finite
        spec = scalar_spec(sigma=lambda t, x, u: np.full_like(x, 0.3),
                           f=lambda t, x, u: np.where(u < -0.5, -np.inf, 0.0))
        with np.errstate(invalid="ignore"), pytest.raises(
            SimulationError, match=r"^non-finite difference on the remainder lattice at eps 0.25$"
        ):
            remainder_experiment(spec, 2, 0.5, [0.25, 0.125], self.config)

    def test_overflowing_lattice_stops_conditional_estimator(self):
        # Gamma = 1e308 overflows the terminal value x^2 Gamma / 2 on the
        # lattice's outer nodes; the paths themselves stay finite
        spec = lq_embed(dataclasses.replace(get_lq("lq-scalar"), Gamma=np.array([[1e308]])))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            SimulationError, match=r"^non-finite value function on the remainder lattice$"
        ):
            remainder_experiment(spec, spec.domain.size - 1, 0.5, PIN_EPS, self.config)


class TestSequenceLemma:
    def test_zero_start(self):
        res = sequence_lemma_check(0.0, 1.0, 1000)
        assert res.ok and res.max_b == 0.0

    def test_moderate_start_bounded_by_one(self):
        res = sequence_lemma_check(0.5, 1.0, 10_000)
        assert res.ok and res.max_b <= 1.0

    def test_one_step_collapse(self):
        # a1 = 1, A = 1: a2 = 1 - 1 = 0 and stays there
        res = sequence_lemma_check(1.0, 1.0, 100)
        assert res.ok and res.final_a == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sequence_lemma_check(-0.1, 1.0, 10)
        with pytest.raises(ValueError):
            sequence_lemma_check(0.1, 0.0, 10)
        with pytest.raises(ValueError):
            sequence_lemma_check(float("nan"), 1.0, 10)
        with pytest.raises(ValueError):
            sequence_lemma_check(1.0, float("nan"), 10)
        with pytest.raises(ValueError):
            sequence_lemma_check(float("inf"), 1.0, 10)
        with pytest.raises(ValueError):
            sequence_lemma_check(1.0, float("inf"), 10)
        with pytest.raises(ValueError):  # its cube overflows a float
            sequence_lemma_check(1e200, 1.0, 10)
        assert sequence_lemma_check(1e100, 1.0, 10).ok
