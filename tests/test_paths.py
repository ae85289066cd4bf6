
import dataclasses
import errno
import hashlib
import itertools
import os
import signal

import numpy as np
import pytest

from msa_control import (
    BrownianEnsemble,
    ControlProcess,
    GapProcess,
    MSAConfig,
    ProvenanceError,
    SimulationError,
    TimeGrid,
    array_bytes,
    dyadic_interval,
    evaluate_cost,
    generate_brownian,
    get_lq,
    get_problem,
    load_array,
    lq_embed,
    pathwise_cost,
    prepare_state,
    remainder_experiment,
    simulate_state,
    spike_control,
)
from msa_control import paths
from msa_control.paths import _BROWNIAN_BLOCK, stream_states

from conftest import coupled_lq2d, scalar_spec


class TestTimeGrid:
    def test_dyadic_structure(self):
        grid = TimeGrid(T=2.0, depth=4)
        assert grid.steps == 16
        assert grid.dt == 0.125
        assert grid.times[0] == 0.0 and grid.times[-1] == 2.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeGrid(T=1.0, depth=0)
        with pytest.raises(ValueError):
            TimeGrid(T=-1.0, depth=3)


class TestGenerateBrownian:
    def test_reproducible(self):
        grid = TimeGrid(T=1.0, depth=4)
        a = generate_brownian(grid, 2, 1, 7)
        b = generate_brownian(grid, 2, 1, 7)
        assert np.array_equal(a.increments, b.increments)

    def test_seeds_differ(self):
        grid = TimeGrid(T=1.0, depth=4)
        a = generate_brownian(grid, 2, 1, 7)
        b = generate_brownian(grid, 2, 1, 8)
        assert not np.array_equal(a.increments, b.increments)

    def test_variance_near_dt(self):
        grid = TimeGrid(T=1.0, depth=4)
        W = generate_brownian(grid, 10_000, 1, 11)
        var = W.increments.var()
        assert 0.9 * grid.dt <= var <= 1.1 * grid.dt

    def test_prefix_property(self):
        # per-path counter streams: first paths identical for larger M
        grid = TimeGrid(T=1.0, depth=3)
        a = generate_brownian(grid, 3, 1, 5)
        b = generate_brownian(grid, 6, 1, 5)
        assert np.array_equal(a.increments, b.increments[:, :3])

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**63 + 5])
    def test_stream_pinned_per_path(self, d, seed):
        # path p is the Philox stream keyed by (seed, p), across block edges
        grid = TimeGrid(T=1.0, depth=3)
        M = _BROWNIAN_BLOCK + 1
        W = generate_brownian(grid, M, d, seed)
        assert W.increments.shape == (grid.steps, M, d)
        for p in range(M):
            key = np.array([seed & 0xFFFFFFFFFFFFFFFF, p], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            ref = gen.standard_normal((grid.steps, d)) * np.sqrt(grid.dt)
            assert np.array_equal(W.increments[:, p], ref), p


    @pytest.mark.parametrize("seed", [-1, 2**64, float("nan"), 2.5],
                             ids=["-1", "2**64", "nan", "2.5"])
    def test_seed_outside_u64_rejected(self, path_split, monkeypatch, seed):
        # -1 drew seed 2**64 - 1's streams and 2**64 seed 0's, and the Philox
        # key would truncate 2.5 to 2; a seeded stream_states refuses each
        # before it forks a worker
        grid, forks = TimeGrid(T=1.0, depth=3), []

        def refused_fork():
            forks.append(None)
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", refused_fork)
        path_split(cpus=2, per_worker=2)
        u = ControlProcess.constant(0, 4, grid.steps, 3)
        for draw in (lambda: generate_brownian(grid, 4, 1, seed),
                     lambda: stream_states(scalar_spec(), grid, seed, u, range(1))):
            with pytest.raises(ValueError, match=r"^seed .* must be an integer in 0\.\.2\*\*64-1$"):
                draw()
        assert forks == []


class TestSimulateState:
    def test_frozen_dynamics(self, zero_spec):
        grid = TimeGrid(T=1.0, depth=4)
        W = generate_brownian(grid, 4, 1, 0)
        u = ControlProcess.constant(0, 4, grid.steps, 3)
        X = simulate_state(zero_spec, grid, W, u)
        assert np.all(X.states == 0.0)

    def test_additive_noise_exact(self):
        spec = scalar_spec(sigma=lambda t, x, u: np.ones_like(x), x0=0.5)
        grid = TimeGrid(T=1.0, depth=5)
        W = generate_brownian(grid, 8, 1, 1)
        u = ControlProcess.constant(0, 8, grid.steps, 3)
        X = simulate_state(spec, grid, W, u)
        walk = 0.5 + np.cumsum(W.increments[:, :, 0], axis=0)
        np.testing.assert_allclose(X.states[1:, :, 0], walk, rtol=0, atol=1e-14)

    def test_deterministic_growth(self):
        spec = scalar_spec(b=lambda t, x, u: x, x0=1.0)
        grid = TimeGrid(T=1.0, depth=6)
        W = generate_brownian(grid, 3, 1, 2)
        u = ControlProcess.constant(0, 3, grid.steps, 3)
        X = simulate_state(spec, grid, W, u)
        expected = (1.0 + grid.dt) ** grid.steps
        assert X.states[-1, :, 0] == pytest.approx(expected, rel=1e-12)

    def test_nonfinite_names_path_and_step(self):
        spec = scalar_spec(b=lambda t, x, u: 1e5 * x**3, x0=1.0)
        grid = TimeGrid(T=1.0, depth=4)
        W = generate_brownian(grid, 2, 1, 3)
        u = ControlProcess.constant(0, 2, grid.steps, 3)
        with np.errstate(over="ignore"), pytest.raises(
            SimulationError, match=r"path \d+, step \d+"
        ):
            simulate_state(spec, grid, W, u)

    @pytest.mark.parametrize("value", [np.nan, -np.inf, np.inf])
    def test_nonfinite_names_first_path_and_its_first_step(self, value):
        # X = W until the drift turns non-finite above x = 0.5; the error
        # names the first path that crosses and the step after its crossing
        thr = 0.5
        grid = TimeGrid(T=1.0, depth=4)
        W = generate_brownian(grid, 50, 1, 0)
        u = ControlProcess.constant(0, 50, grid.steps, 3)

        def unit(t, x, u):
            return np.ones_like(x)

        free = simulate_state(scalar_spec(sigma=unit), grid, W, u).states[:-1, :, 0]
        hit = free > thr
        path = int(np.argmax(hit.any(axis=0)))
        step = int(np.argmax(hit[:, path])) + 1
        spec = scalar_spec(sigma=unit, b=lambda t, x, u: np.where(x > thr, value, 0.0))
        with np.errstate(invalid="ignore"), pytest.raises(
            SimulationError, match=rf"^non-finite state at path {path}, step {step}$"
        ):
            simulate_state(spec, grid, W, u)

    def test_step_slices_contiguous(self, zero_spec):
        # time-major storage and shapes
        grid = TimeGrid(T=1.0, depth=3)
        W = generate_brownian(grid, 5, 1, 0)
        X = simulate_state(zero_spec, grid, W, ControlProcess.constant(0, 5, grid.steps, 3))
        assert X.states.shape == (grid.steps + 1, 5, 1)
        assert X.states[3].flags.c_contiguous and W.increments[3].flags.c_contiguous

    def test_spike_locality(self):
        spec = get_problem("nonconvex-diffusion")
        grid = TimeGrid(T=1.0, depth=5)
        W = generate_brownian(grid, 6, 1, 4)
        u = ControlProcess.constant(0, 6, grid.steps, 2)
        vals = u.values.copy()
        vals[8:16] = 1
        up = ControlProcess(vals, 2)
        Xa = simulate_state(spec, grid, W, u)
        Xb = simulate_state(spec, grid, W, up)
        assert np.array_equal(Xa.states[: 8 + 1], Xb.states[: 8 + 1])
        assert not np.array_equal(Xa.states[-1], Xb.states[-1])


class TestPathSplit:
    # 301 paths with a floor of 100 per worker: 1, 2 or 3 workers, uneven ranges
    M = 301
    RANGES = {1: [], 2: [(0, 150), (150, 301)], 3: [(0, 100), (100, 200), (200, 301)]}

    def ensemble(self, spec, depth=5):
        grid = TimeGrid(T=1.0, depth=depth)
        W = generate_brownian(grid, self.M, 1, 3)
        rng = np.random.default_rng(0)
        values = rng.integers(0, spec.domain.size, (self.M, grid.steps)).T.copy()
        return grid, W, ControlProcess(values, spec.domain.size)

    def test_states_equal_for_any_worker_count(self, path_split):
        spec = get_problem("nonconvex-diffusion")
        grid, W, u = self.ensemble(spec)
        states = {}
        for workers, ranges in self.RANGES.items():
            record = path_split(cpus=workers, per_worker=100)
            states[workers] = simulate_state(spec, grid, W, u).states
            assert record.ranges == ranges and record.pools == min(len(ranges), 1)
        assert np.array_equal(states[2], states[1]) and np.array_equal(states[3], states[1])

    def test_nonfinite_in_last_range_named_as_serial(self, path_split):
        # the drift is NaN under the control point 1.0; paths 250.. take it
        # from step 2 and paths 200..249 from step 4, so path 200 is the
        # first non-finite path and step 5 its first non-finite step
        spec = scalar_spec(b=lambda t, x, u: np.where(u > 0.5, np.nan, 0.0))
        grid = TimeGrid(T=1.0, depth=4)
        W = generate_brownian(grid, self.M, 1, 3)
        values = np.zeros((grid.steps, self.M), dtype=np.int64)
        values[4:, 200:] = 2
        values[2:, 250:] = 2
        u = ControlProcess(values, 3)
        for workers in self.RANGES:
            path_split(cpus=workers, per_worker=100)
            with pytest.raises(SimulationError, match=r"^non-finite state at path 200, step 5$"):
                simulate_state(spec, grid, W, u)

    def test_worker_exception_reraised(self, path_split):
        class Boom(Exception):
            pass

        def b(t, x, u):
            if np.any(u > 0.5):
                raise Boom("drift failed")
            return np.zeros_like(x)

        spec = scalar_spec(b=b)
        grid = TimeGrid(T=1.0, depth=3)
        W = generate_brownian(grid, self.M, 1, 3)
        values = np.zeros((grid.steps, self.M), dtype=np.int64)
        values[-1, -1] = 2  # only the last range's last step raises
        for workers in self.RANGES:
            record = path_split(cpus=workers, per_worker=100)
            with pytest.raises(Boom, match="drift failed"):
                simulate_state(spec, grid, W, ControlProcess(values, 3))
            assert len(record.ranges) == len(self.RANGES[workers])

    def test_caller_errstate_applies_in_workers(self, path_split):
        # the drift overflows only on the last range's last step
        spec = scalar_spec(b=lambda t, x, u: np.where(u > 0.5, 1e308, 0.0) * 10.0)
        grid = TimeGrid(T=1.0, depth=3)
        W = generate_brownian(grid, self.M, 1, 3)
        values = np.zeros((grid.steps, self.M), dtype=np.int64)
        values[-1, -1] = 2
        for workers in self.RANGES:
            path_split(cpus=workers, per_worker=100)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                simulate_state(spec, grid, W, ControlProcess(values, 3))

    def test_no_pool_below_threshold(self, path_split, zero_spec):
        # three CPUs, but 301 paths are fewer than two workers' floor of 151
        record = path_split(cpus=3, per_worker=151)
        grid, W, u = self.ensemble(zero_spec, depth=3)
        simulate_state(zero_spec, grid, W, u)
        assert record.pools == 0 and record.ranges == []

    def test_caller_errstate_applies_in_forked_workers(self, path_split):
        # the drift overflows, then is clipped to a finite value, only on the
        # first path, which a forked worker steps: only errstate can raise
        spec = scalar_spec(b=lambda t, x, u: np.minimum(np.where(u > 0.5, 1e308, 0.0) * 10.0, 1.0))
        grid = TimeGrid(T=1.0, depth=3)
        W = generate_brownian(grid, self.M, 1, 3)
        values = np.zeros((grid.steps, self.M), dtype=np.int64)
        values[-1, 0] = 2
        for workers in (2, 3):
            path_split(cpus=workers, per_worker=100)
            with np.errstate(over="ignore"):
                simulate_state(spec, grid, W, ControlProcess(values, 3))
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                simulate_state(spec, grid, W, ControlProcess(values, 3))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_no_worker_outlives_split(self, path_split, workers):
        # after a split that returns, one whose caller (last) range raises and
        # one whose first worker's range raises, this process has no child
        class Boom(Exception):
            pass

        def b(t, x, u):
            if np.any(u > 0.5):
                raise Boom("drift failed")
            return np.zeros_like(x)

        spec = scalar_spec(b=b)
        grid = TimeGrid(T=1.0, depth=3)
        W = generate_brownian(grid, self.M, 1, 3)
        record = path_split(cpus=workers, per_worker=100)
        simulate_state(spec, grid, W, ControlProcess.constant(0, self.M, grid.steps, 3))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        for path in (-1, 0):
            values = np.zeros((grid.steps, self.M), dtype=np.int64)
            values[-1, path] = 2
            with pytest.raises(Boom, match="drift failed"):
                simulate_state(spec, grid, W, ControlProcess(values, 3))
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert record.pools == 3

    @pytest.mark.parametrize("workers", [2, 3])
    def test_failed_fork_range_run_by_caller(self, path_split, monkeypatch, workers):
        # the first os.fork fails, as under strict overcommit: the caller steps
        # that range itself, and any later fork still starts a worker
        spec = get_problem("nonconvex-diffusion")
        grid, W, u = self.ensemble(spec)
        path_split(cpus=1, per_worker=100)
        X = simulate_state(spec, grid, W, u).states
        fork, forks = os.fork, []

        def failing_first_fork():
            forks.append(None)
            if len(forks) == 1:
                raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))
            return fork()

        monkeypatch.setattr(os, "fork", failing_first_fork)
        record = path_split(cpus=workers, per_worker=100)
        assert np.array_equal(simulate_state(spec, grid, W, u).states, X)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(forks) == workers - 1
        assert record.pools == workers - 2 and len(record.ranges) == (0 if workers == 2 else 3)

    def test_refused_shared_window_raises_memory_error(self, path_split, monkeypatch):
        # the kernel refuses the shared window (mmap raises ENOMEM): the split
        # reports it as the MemoryError np.empty raises for a private one
        import mmap

        def refused(*args, **kwargs):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        spec = get_problem("nonconvex-diffusion")
        grid, W, u = self.ensemble(spec)
        monkeypatch.setattr(mmap, "mmap", refused)
        path_split(cpus=2, per_worker=100)
        with pytest.raises(MemoryError, match=r"^Unable to allocate .* GiB of shared memory for an "
                                              r"array with shape \(33, 301, 1\) and data type float64$"):
            simulate_state(spec, grid, W, u)

    @pytest.mark.parametrize(
        "workers, die",
        [(w, die) for die in (lambda: os._exit(1), lambda: os.kill(os.getpid(), signal.SIGKILL))
         for w in (2, 3)],
        ids=["2", "3", "2-sigkill", "3-sigkill"],
    )
    def test_dead_worker_range_recomputed(self, path_split, workers, die, tmp_path):
        # every forked worker notes its death and ends itself halfway through
        # its range's steps, by a non-zero exit or by SIGKILL (as the
        # out-of-memory killer ends it, running no finally); the caller then
        # steps that range itself and leaves no child behind
        spec = get_problem("nonconvex-diffusion")
        caller, deaths, b = os.getpid(), tmp_path / "deaths", spec.coefficients.b

        def dying(t, x, u):
            if os.getpid() != caller and t >= 0.5:
                with open(deaths, "a") as fh:
                    fh.write("died\n")
                die()
            return b(t, x, u)

        coefficients = dataclasses.replace(spec.coefficients, b=dying)
        mortal = dataclasses.replace(spec, coefficients=coefficients)
        grid, W, u = self.ensemble(spec)
        path_split(cpus=1, per_worker=100)
        X = simulate_state(spec, grid, W, u).states
        window, low, high = stream_states(spec, grid, 3, u, range(4, 20))
        record = path_split(cpus=workers, per_worker=100)
        assert np.array_equal(simulate_state(mortal, grid, W, u).states, X)
        streamed = stream_states(mortal, grid, 3, u, range(4, 20))
        assert np.array_equal(streamed[0], window) and streamed[1:] == (low, high)
        assert record.pools == 2 and deaths.read_text().count("died") == 2 * (workers - 1)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_dead_worker_remainder_sums_recomputed(self, path_split, monkeypatch, tmp_path):
        # a forked worker dies after adding part of its paths' gap sums: the
        # caller's rerun of that range must not add them a second time
        from msa_control import oracle

        spec = get_problem("nonconvex-diffusion")
        config = MSAConfig(M=self.M, depth=6, N_max=6, seed=3)
        args = (spec, spec.domain.size - 1, 0.5, [0.25, 0.125], config)
        path_split(cpus=1, per_worker=100)
        serial = remainder_experiment(*args)
        caller, deaths, interp = os.getpid(), tmp_path / "deaths", oracle._lattice_interp
        calls = []  # each worker counts in its own copy

        def dying(*interp_args):
            if os.getpid() != caller:
                calls.append(None)
                if len(calls) > 5:
                    with open(deaths, "a") as fh:
                        fh.write("died\n")
                    os._exit(1)
            return interp(*interp_args)

        monkeypatch.setattr(oracle, "_lattice_interp", dying)
        for workers in (2, 3):
            path_split(cpus=workers, per_worker=100)
            result = remainder_experiment(*args)
            assert result.rows == serial.rows and result.standard_errors == serial.standard_errors
        assert deaths.read_text().count("died") == 1 + 2


def paired_ensemble(grid, M, seed):
    """The increments that stream_states draws from a seed, frozen: path p is
    generate_brownian's path p // 2, negated when p is odd."""
    increments = generate_brownian(grid, (M + 1) // 2, 1, seed).increments[:, np.arange(M) // 2]
    increments[:, 1::2] *= -1
    return BrownianEnsemble(increments, seed)


class TestStreamedSimulation:
    # 301 paths in 64-path blocks: one worker takes blocks of 64 x 4 + 45;
    # two workers (0, 150) and (150, 301) take 64, 64, 22 and 64, 64, 23;
    # three workers take 64, 36 / 64, 36 / 64, 37
    M = 301

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(paths, "_STREAM_BLOCK", 64)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_states_equal_frozen_ensemble(self, path_split, workers):
        # a seed streams the paired ensemble, stepped through the last kept
        # row; the drift-only problem rises from x0 = 0.25, so x0 is X's minimum
        rising = scalar_spec(b=lambda t, x, u: np.ones_like(x), x0=0.25)
        grid = TimeGrid(T=1.0, depth=5)
        for spec in (get_problem("nonconvex-diffusion"), rising):
            u = ControlProcess.constant(1, self.M, grid.steps, spec.domain.size)
            W = generate_brownian(grid, self.M, 1, 3)
            for rows, source in itertools.product((range(5, 19), range(0, grid.steps + 1)), (3, W)):
                frozen = W if source is W else paired_ensemble(grid, self.M, 3)
                X = simulate_state(spec, grid, frozen, u).states
                record = path_split(cpus=workers, per_worker=100)
                window, low, high = stream_states(spec, grid, source, u, rows)
                assert len(record.ranges) == (workers if workers > 1 else 0)
                assert np.array_equal(window, X[rows.start : rows.stop])
                assert (low, high) == (X[: rows.stop].min(), X[: rows.stop].max())

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_nonfinite_named_as_frozen(self, path_split, workers):
        # X = W until the drift turns NaN past a level.  On seed 3's pairs,
        # paths 159 and 176 turn below -2.5 at step 13, before the last step;
        # above 1.5, paths 177, 158 and 233 turn before path 6, which is named
        # with its own first step; on seed 6's, below -2.8, only path 222 of
        # the last range turns, at the last step
        def unit(t, x, u):
            return np.ones_like(x)

        cases = [(3, 4, lambda x: x < -2.5, 159, 13), (3, 5, lambda x: x > 1.5, 6, 22),
                 (6, 4, lambda x: x < -2.8, 222, 16)]
        for seed, depth, past, path, step in cases:
            grid = TimeGrid(T=1.0, depth=depth)
            u = ControlProcess.constant(2, self.M, grid.steps, 3)
            spec = scalar_spec(sigma=unit, b=lambda t, x, u: np.where(past(x), np.nan, 0.0))
            named = f"^non-finite state at path {path}, step {step}$"
            with pytest.raises(SimulationError, match=named):
                simulate_state(spec, grid, paired_ensemble(grid, self.M, seed), u)
            path_split(cpus=workers, per_worker=100)
            with pytest.raises(SimulationError, match=named):
                stream_states(spec, grid, seed, u, range(3, step + 1))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_odd_paths_negate_their_partners(self, path_split, workers):
        # X = W: 303 paths over 3 workers split at 101 and 202, so the second
        # range and its second 64-path block start at odd paths; every odd
        # path is its even partner negated, and no worker count moves a bit
        M = 303
        spec = scalar_spec(sigma=lambda t, x, u: np.ones_like(x))
        grid = TimeGrid(T=1.0, depth=5)
        u = ControlProcess.constant(1, M, grid.steps, 3)
        path_split(cpus=1, per_worker=100)
        serial = stream_states(spec, grid, 3, u, range(0, 20))
        record = path_split(cpus=workers, per_worker=100)
        window, low, high = stream_states(spec, grid, 3, u, range(0, 20))
        assert len(record.ranges) == (workers if workers > 1 else 0)
        assert np.array_equal(window, serial[0]) and (low, high) == serial[1:]
        assert np.array_equal(window[:, 1::2], -window[:, 0:-1:2])
        even = generate_brownian(grid, (M + 1) // 2, 1, 3).increments[:19, :, 0]
        assert np.array_equal(window[1:, 0::2, 0], np.cumsum(even, axis=0))
        assert low == window.min() and high == window.max()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_states_past_last_kept_row_never_stepped(self, path_split, workers):
        # the drift is NaN from t = 8 dt on, so only state 9 onwards would be
        # non-finite: a stream that keeps rows up to 8 steps nothing past them
        grid = TimeGrid(T=1.0, depth=4)
        spec = scalar_spec(sigma=lambda t, x, u: np.ones_like(x),
                           b=lambda t, x, u: np.full_like(x, np.nan if t >= 8 * grid.dt else 0.0))
        u = ControlProcess.constant(1, self.M, grid.steps, 3)
        path_split(cpus=workers, per_worker=100)
        window, low, high = stream_states(spec, grid, 3, u, range(3, 9))
        assert np.isfinite(window).all() and np.isfinite([low, high]).all()
        with pytest.raises(SimulationError, match=r"^non-finite state at path 0, step 9$"):
            stream_states(spec, grid, 3, u, range(3, 10))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_frozen_states_pinned(self, path_split, workers):
        # SHA-256 of X from an Euler loop that stepped each worker's whole path
        # range at once: the 64-path blocks are checked against another loop
        grid = TimeGrid(T=1.0, depth=5)
        for spec, pinned in (
            (get_problem("nonconvex-diffusion"),
             "1a01570542ad820eabd9f24e1deb364953f6d6509be040c378648e35b85c26ba"),
            (lq_embed(coupled_lq2d()),
             "997be89e47e42d8dcc1fac4b78f80f4c3b1a1c1aab039b90cea03a75ddea9d25"),
        ):
            values = np.random.default_rng(0).integers(0, spec.domain.size, (grid.steps, self.M))
            u = ControlProcess(values, spec.domain.size)
            W = generate_brownian(grid, self.M, spec.d, 3)
            record = path_split(cpus=workers, per_worker=100)
            X = simulate_state(spec, grid, W, u).states
            assert len(record.ranges) == (workers if workers > 1 else 0)
            assert hashlib.sha256(X.tobytes()).hexdigest() == pinned

    def test_control_index_checked(self):
        # an index outside the domain never reaches the stream, and a control
        # over a larger domain than spec's is refused by it
        spec = get_problem("nonconvex-diffusion")
        grid = TimeGrid(T=1.0, depth=3)
        V = spec.domain.size
        for u_index in (-1, V):
            with pytest.raises(ValueError, match="out of domain range"):
                stream_states(spec, grid, 3,
                              ControlProcess.constant(u_index, self.M, grid.steps, V), range(2))
        wider = ControlProcess.constant(V, self.M, grid.steps, V + 1)
        with pytest.raises(ValueError, match="out of domain range"):
            stream_states(spec, grid, 3, wider, range(2))

    def test_conditional_remainder_draws_no_ensemble(self, monkeypatch):
        from msa_control import msa, oracle

        def refuse(*args, **kwargs):
            raise AssertionError("frozen ensemble built")

        for module in (msa, oracle, paths):
            for name in ("generate_brownian", "simulate_state"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        spec = get_problem("nonconvex-diffusion")
        config = MSAConfig(M=300, depth=6, N_max=6, seed=3)
        res = remainder_experiment(spec, spec.domain.size - 1, 0.5, [0.25, 0.125], config)
        assert len(res.rows) == 2

    def test_shared_window_under_contention(self, path_split):
        # four workers on (at most) two CPUs, switching threads every
        # microsecond, write disjoint columns of one window
        import sys
        import threading

        spec = get_problem("nonconvex-diffusion")
        grid = TimeGrid(T=1.0, depth=5)
        path_split(cpus=1, per_worker=75)
        u = ControlProcess.constant(1, self.M, grid.steps, spec.domain.size)
        serial = stream_states(spec, grid, 3, u, range(4, 30))
        record = path_split(cpus=4, per_worker=75)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: results.extend(
                stream_states(spec, grid, 3, u, range(4, 30)) for _ in range(5)
            ), daemon=True)
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive() and len(results) == 5
        assert len(record.ranges) == 4 * 5
        for window, low, high in results:
            assert np.array_equal(window, serial[0]) and (low, high) == serial[1:]


class TestCost:
    def test_martingale_terminal_cost(self):
        spec = scalar_spec(
            sigma=lambda t, x, u: np.ones_like(x),
            Phi=lambda x: x,
            Phi_x=lambda x: np.ones_like(x),
            x0=2.0,
        )
        grid = TimeGrid(T=1.0, depth=5)
        M = 4000
        W = generate_brownian(grid, M, 1, 5)
        u = ControlProcess.constant(0, M, grid.steps, 3)
        X = simulate_state(spec, grid, W, u)
        J = evaluate_cost(spec, grid, X, u)
        assert abs(J - 2.0) <= 5.0 / np.sqrt(M)

    def test_constant_running_cost(self, zero_spec):
        spec = scalar_spec(f=lambda t, x, u: np.ones(x.shape[0]), T=1.0)
        grid = TimeGrid(T=1.0, depth=4)
        W = generate_brownian(grid, 3, 1, 6)
        u = ControlProcess.constant(0, 3, grid.steps, 3)
        X = simulate_state(spec, grid, W, u)
        assert evaluate_cost(spec, grid, X, u) == pytest.approx(1.0, rel=1e-14)

    def test_control_norm_cost(self):
        spec = scalar_spec(f=lambda t, x, u: u**2, domain=(-1.0, 1.0))
        grid = TimeGrid(T=1.0, depth=4)
        W = generate_brownian(grid, 3, 1, 6)
        u = ControlProcess.constant(1, 3, grid.steps, 2)
        X = simulate_state(spec, grid, W, u)
        assert evaluate_cost(spec, grid, X, u) == pytest.approx(1.0, rel=1e-14)

    def test_provenance_enforced(self, zero_spec):
        grid = TimeGrid(T=1.0, depth=4)
        W = generate_brownian(grid, 3, 1, 7)
        u = ControlProcess.constant(0, 3, grid.steps, 3)
        other = ControlProcess.constant(1, 3, grid.steps, 3)
        X = simulate_state(zero_spec, grid, W, u)
        with pytest.raises(ProvenanceError):
            evaluate_cost(zero_spec, grid, X, other)

    def test_fixed_order_reduction(self, zero_spec):
        spec = scalar_spec(f=lambda t, x, u: np.ones(x.shape[0]))
        grid = TimeGrid(T=1.0, depth=3)
        W = generate_brownian(grid, 10, 1, 8)
        u = ControlProcess.constant(0, 10, grid.steps, 3)
        X = simulate_state(spec, grid, W, u)
        assert evaluate_cost(spec, grid, X, u) == evaluate_cost(spec, grid, X, u)


class TestEmpiricalMoment:
    def test_lq_eighth_moment_bounded(self):
        # finite for every constant control, and stable (factor 2) across seeds
        spec = lq_embed(get_lq("lq-scalar"))
        grid = TimeGrid(T=1.0, depth=5)
        M = 4000
        worst = {}
        for seed in (10, 11):
            W = generate_brownian(grid, M, 1, seed)
            moments = []
            for idx in range(spec.domain.size):
                u = ControlProcess.constant(idx, M, grid.steps, spec.domain.size)
                X = simulate_state(spec, grid, W, u)
                moments.append(np.mean(np.linalg.norm(X.states, axis=2).max(axis=0) ** 8))
            assert all(np.isfinite(moments))
            worst[seed] = max(moments)
        ratio = worst[10] / worst[11]
        assert 0.5 <= ratio <= 2.0


class TestEulerWeakError:
    def test_slope_near_one_in_dt(self):
        # deterministic LQ drift: error |(1 - dt/2)^steps - e^{-1/2}|
        spec = scalar_spec(
            b=lambda t, x, u: -0.5 * x,
            b_x=lambda t, x, u: np.full(x.shape[0], -0.5),
            x0=1.0,
        )
        errs, dts = [], []
        for depth in range(4, 9):
            grid = TimeGrid(T=1.0, depth=depth)
            W = generate_brownian(grid, 2, 1, 0)
            u = ControlProcess.constant(0, 2, grid.steps, 3)
            X = simulate_state(spec, grid, W, u)
            errs.append(abs(X.states[-1, 0, 0] - np.exp(-0.5)))
            dts.append(grid.dt)
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert abs(slope - 1.0) <= 0.3


class TestBinaryRoundTrip:
    @pytest.mark.parametrize("seed", [42, np.int64(5), 2**64 - 1], ids=["42", "int64-5", "u64-max"])
    def test_dump_load(self, tmp_path, seed):
        arr = np.arange(24, dtype=float).reshape(2, 4, 3)
        path = tmp_path / "a.bin"
        path.write_bytes(array_bytes(arr, seed))
        back, read = load_array(path)
        assert read == seed
        np.testing.assert_array_equal(back, arr)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2.5], ids=["-1", "2**64", "2.5"])
    def test_seed_outside_u64_rejected(self, seed):
        # the header would hold it reduced mod 2**64 or truncated, and read back another seed
        with pytest.raises(ValueError, match=rf"^seed {seed} must be an integer in 0\.\.2\*\*64-1$"):
            array_bytes(np.zeros((2, 3)), seed)

    def test_2d_promoted(self, tmp_path):
        arr = np.arange(8, dtype=float).reshape(2, 4)
        path = tmp_path / "b.bin"
        path.write_bytes(array_bytes(arr, 1))
        back, _ = load_array(path)
        assert back.shape == (2, 4, 1)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(array_bytes(np.zeros((5, 3, 2)), 9))
        raw = path.read_bytes()
        import struct

        M, steps, dim, seed = struct.unpack_from("<QQQQ", raw)
        assert (M, steps, dim, seed) == (3, 5, 2, 9)
        assert len(raw) == 32 + 3 * 5 * 2 * 8

    def test_time_major_states_dump_path_major(self, tmp_path):
        spec = scalar_spec(sigma=lambda t, x, u: np.ones_like(x))
        grid = TimeGrid(T=1.0, depth=3)
        W = generate_brownian(grid, 4, 1, 2)
        X = simulate_state(spec, grid, W, ControlProcess.constant(0, 4, grid.steps, 3))
        path = tmp_path / "x.bin"
        path.write_bytes(array_bytes(X.states, 2))
        raw = path.read_bytes()
        rows = [X.states[i, p, 0] for p in range(4) for i in range(grid.steps + 1)]
        assert raw[32:] == np.array(rows).tobytes()
        back, _ = load_array(path)
        assert np.array_equal(back, X.states)


class TestControlProcess:
    def test_index_range_checked(self):
        # broadcast views are checked on one element per zero-stride axis
        for make in (lambda: ControlProcess(np.array([[0, 3]]), 3),
                     lambda: ControlProcess.constant(-1, 301, 8, 2),
                     lambda: ControlProcess.constant(2, 301, 8, 2),
                     lambda: ControlProcess.deterministic(np.array([0, 1, 2, 1]), 5, 2)):
            with pytest.raises(ValueError, match="out of domain range"):
                make()

    def test_deterministic_rows_identical(self):
        row = np.array([0, 1, 2, 1])
        u = ControlProcess.deterministic(row, 5, 3)
        assert u.values.shape == (4, 5)
        assert np.all(u.values == row[:, None])

    def test_constant_is_read_only_and_spike_copies(self):
        u = ControlProcess.constant(1, 4, 8, 3)
        assert u.values.shape == (8, 4) and not u.values.flags.writeable
        gaps = GapProcess(np.zeros((8, 4)), np.full((8, 4), 2, dtype=np.int64))
        grid = TimeGrid(T=1.0, depth=3)
        spiked = spike_control(u, gaps, dyadic_interval(2, 2, grid))
        assert spiked.values.flags.writeable
        assert np.all(u.values == 1)
        assert np.all(spiked.values[:4] == 1) and np.all(spiked.values[4:] == 2)

    @pytest.mark.parametrize("V, dtype", [(2, np.uint8), (21, np.uint8), (256, np.uint8),
                                          (257, np.uint16), (300, np.uint16)])
    def test_index_dtype_fits_the_grid(self, V, dtype):
        full = np.tile(np.arange(8) % V, (5, 1)).T
        for u in (ControlProcess(full, V), ControlProcess.constant(V - 1, 5, 8, V),
                  ControlProcess.deterministic(np.arange(8) % V, 5, V)):
            assert u.values.dtype == dtype
        assert np.array_equal(ControlProcess(full, V).values, full)

    def test_views_keep_zero_strides(self):
        u = ControlProcess.constant(20, 301, 8, 21)
        assert u.values.strides == (0, 0) and u.values[3, 7] == 20
        row = np.array([0, 299, 5, 256])
        u = ControlProcess.deterministic(row, 301, 300)
        assert u.values.strides == (2, 0) and np.array_equal(u.values[:, 7], row)

    def test_range_checked_before_narrowing(self):
        # at V = 256 the uint8 image of -1 is 255 = V - 1, a valid index
        for index in (-1, 256):
            for make in (lambda: ControlProcess.constant(index, 4, 8, 256),
                         lambda: ControlProcess.deterministic(np.array([0, index]), 4, 256),
                         lambda: ControlProcess(np.full((8, 4), index), 256)):
                with pytest.raises(ValueError, match="out of domain range"):
                    make()

    @pytest.mark.parametrize("V, dtype", [(21, np.uint8), (300, np.uint16)])
    def test_gaps_and_spike_keep_the_control_dtype(self, V, dtype):
        # the H-minimizer sits near 0.9, above index 255 when V = 300
        spec = scalar_spec(sigma=lambda t, x, u: u, f=lambda t, x, u: (u - 0.9) ** 2,
                           Phi=lambda x: x**2, domain=np.linspace(-1.0, 1.0, V))
        grid = TimeGrid(T=1.0, depth=3)
        W = generate_brownian(grid, 50, 1, 0)
        u = ControlProcess.constant(0, 50, grid.steps, V)
        X = simulate_state(spec, grid, W, u)
        state = prepare_state(spec, grid, W, u, X, evaluate_cost(spec, grid, X, u),
                              MSAConfig(M=50, depth=3).basis)
        assert state.gaps.argmin_indices.dtype == dtype
        assert state.gaps.argmin_indices.max() == round(0.95 * (V - 1))
        cand = spike_control(u, state.gaps, (0, grid.steps))
        assert cand.values.dtype == dtype
        assert np.array_equal(cand.values, state.gaps.argmin_indices)


_GRID = TimeGrid(T=1.0, depth=2)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: generate_brownian(_GRID, 0, 1, 0), ValueError, "M must be >= 1"),
        (
            lambda: simulate_state(scalar_spec(), _GRID, generate_brownian(_GRID, 3, 1, 0),
                                   ControlProcess.constant(0, 2, _GRID.steps, 3)),
            ProvenanceError,
            r"control shape \(4, 2\) does not match ensemble \(4, 3\)",
        ),
        (
            lambda: simulate_state(scalar_spec(), _GRID, generate_brownian(_GRID, 3, 1, 0),
                                   ControlProcess.constant(0, 3, 8, 3)),
            ProvenanceError,
            r"control shape \(8, 3\) does not match ensemble \(4, 3\)",
        ),
        (  # 8 steps of W on a grid of 4 would run to twice the horizon
            lambda: simulate_state(scalar_spec(), _GRID,
                                   generate_brownian(TimeGrid(T=1.0, depth=3), 3, 1, 0),
                                   ControlProcess.constant(0, 3, 8, 3)),
            ProvenanceError,
            r"ensemble of 8 steps does not fit a grid of 4",
        ),
        (lambda: ControlProcess(np.array([[np.nan, 1.0]]), 3), ValueError,
         "control indices must be integers, not float64"),
        (lambda: ControlProcess(np.array([[1.5, 2.0]]), 3), ValueError,
         "control indices must be integers, not float64"),
        (lambda: ControlProcess(np.array([[True, False]]), 3), ValueError,
         "control indices must be integers, not bool"),
    ],
    ids=["M=0", "paths", "steps", "grid", "nan-index", "fractional-index", "bool-index"],
)
def test_invalid_input_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()
