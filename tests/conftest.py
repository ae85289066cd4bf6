"""Shared builders for small scalar test problems."""

import dataclasses
import functools

import numpy as np
import pytest

from msa_control import (
    CoefficientSet,
    ControlDomain,
    ControlProcess,
    LQSpec,
    MSAConfig,
    ProblemSpec,
    RegressionBasis,
    TimeGrid,
    dyadic_interval,
    evaluate_cost,
    generate_brownian,
    get_lq,
    get_problem,
    lq_closed_form_adjoint,
    lq_embed,
    prepare_state,
    simulate_state,
    spike_control,
)


def _zero(t, x, u):
    return np.zeros(x.shape[0])


def scalar_spec(
    *,
    b=None, b_x=None, b_xx=None,
    sigma=None, sigma_x=None, sigma_xx=None,
    f=None, f_x=None, f_xx=None,
    Phi=None, Phi_x=None, Phi_xx=None,
    domain=(-1.0, 0.0, 1.0),
    T=1.0,
    x0=0.0,
):
    """Build a 1-dimensional ProblemSpec from scalar callables.

    Each callable takes (t, x, u) with x and u as flat (B,) arrays and
    returns a flat (B,) array; Phi-family callables take x only.  Omitted
    pieces default to zero.
    """

    def fb(fn):
        fn = fn or _zero
        return fn

    sb, sbx, sbxx = fb(b), fb(b_x), fb(b_xx)
    ss, ssx, ssxx = fb(sigma), fb(sigma_x), fb(sigma_xx)
    sf, sfx, sfxx = fb(f), fb(f_x), fb(f_xx)
    sp = Phi or (lambda x: np.zeros(x.shape[0]))
    spx = Phi_x or (lambda x: np.zeros(x.shape[0]))
    spxx = Phi_xx or (lambda x: np.zeros(x.shape[0]))

    coeffs = CoefficientSet(
        b=lambda t, x, u: sb(t, x[:, 0], u[:, 0])[:, None],
        sigma=lambda t, x, u: ss(t, x[:, 0], u[:, 0])[:, None, None],
        f=lambda t, x, u: sf(t, x[:, 0], u[:, 0]),
        Phi=lambda x: sp(x[:, 0]),
        b_x=lambda t, x, u: sbx(t, x[:, 0], u[:, 0])[:, None, None],
        sigma_x=lambda t, x, u: ssx(t, x[:, 0], u[:, 0])[:, None, None, None],
        f_x=lambda t, x, u: sfx(t, x[:, 0], u[:, 0])[:, None],
        Phi_x=lambda x: spx(x[:, 0])[:, None],
        b_xx=lambda t, x, u: sbxx(t, x[:, 0], u[:, 0])[:, None, None, None],
        sigma_xx=lambda t, x, u: ssxx(t, x[:, 0], u[:, 0])[:, None, None, None, None],
        f_xx=lambda t, x, u: sfxx(t, x[:, 0], u[:, 0])[:, None, None],
        Phi_xx=lambda x: spxx(x[:, 0])[:, None, None],
    )
    dom = ControlDomain(np.asarray(domain, dtype=float)[:, None])
    return ProblemSpec(n=1, d=1, k=1, T=T, x0=[float(x0)], coefficients=coeffs, domain=dom)


def coupled_lq2d():
    """n = d = k = 2: non-symmetric b1, sigma_u coupling both controls into
    both noise columns, and a star-shaped (non-convex) control grid without
    the origin."""
    g = (-1.0, -0.5, 0.0, 0.5, 1.0)
    pts = [(a, b) for a in g for b in g if (a or b) and (a == 0 or b == 0 or abs(a) == abs(b))]
    mix = np.array([[[0.5, 0.1], [0.2, 0.0]], [[0.0, 0.3], [0.1, 0.4]]])  # (k, n, d)
    return LQSpec(
        n=2, d=2, k=2, T=1.0, x0=[1.0, -0.5],
        b1=lambda t: np.array([[-0.5, 0.3], [-0.2, -0.1]]),
        b2=lambda t: np.array([0.1, 0.0]),
        G=lambda t: np.array([[1.0, 0.2], [0.2, 0.5]]),
        Gamma=np.eye(2),
        sigma_u=lambda t, u: 0.3 * np.eye(2) + np.einsum("bk,knd->bnd", u, mix),
        g=lambda t, u: 0.1 * np.sum(u**2, axis=1),
        domain=ControlDomain(np.array(pts)),
    )


@functools.cache
def lq_oracle_sweep(name):
    """(spec, grid, X, u, regression adjoints, closed-form adjoints) from the last
    control point at G=6, seed 7, each an (AdjointFirst, AdjointSecond) pair, built
    once per session: lq-scalar at M=10k, coupled-2d at M=2000 (with 24 control
    points, its two gap sweeps take about 10 s at M=10k)."""
    from msa_control.adjoint import _collect

    lq, M = {"lq-scalar": (get_lq("lq-scalar"), 10_000), "coupled-2d": (coupled_lq2d(), 2000)}[name]
    spec = lq_embed(lq)
    grid = TimeGrid(T=spec.T, depth=6)
    W = generate_brownian(grid, M, spec.d, 7)
    u = ControlProcess.constant(spec.domain.size - 1, M, grid.steps, spec.domain.size)
    X = simulate_state(spec, grid, W, u)
    regressed = _collect(spec, grid, X, u, RegressionBasis(), W)
    return spec, grid, X, u, regressed, lq_closed_form_adjoint(lq, grid, X, u)


def nan_at_level_one_candidate():
    """(spec, config): lq-scalar at M=300, G=5, seed 3, whose Phi is NaN
    exactly at the terminal states of the first iteration's level-1
    candidate from the first-point start, and unchanged elsewhere."""
    spec = get_problem("lq-scalar")
    config = MSAConfig(M=300, depth=5, N_max=5, seed=3)
    grid = TimeGrid(T=spec.T, depth=config.depth)
    W = generate_brownian(grid, config.M, spec.d, config.seed)
    u = ControlProcess.constant(0, config.M, grid.steps, spec.domain.size)
    X = simulate_state(spec, grid, W, u)
    state = prepare_state(spec, grid, W, u, X, evaluate_cost(spec, grid, X, u), config.basis)
    cand = spike_control(u, state.gaps, dyadic_interval(1, 1, grid))
    x_T = simulate_state(spec, grid, W, cand).states[-1]
    Phi = spec.coefficients.Phi

    def poisoned(x):
        out = np.asarray(Phi(x))
        return np.full_like(out, np.nan) if np.array_equal(x, x_T) else out

    coefficients = dataclasses.replace(spec.coefficients, Phi=poisoned)
    return dataclasses.replace(spec, coefficients=coefficients), config


@pytest.fixture
def zero_spec():
    return scalar_spec()


@pytest.fixture
def path_split(monkeypatch):
    """force(cpus, per_worker) sets the CPU count and the paths-per-worker
    floor of the path split, and returns a record of the thread pools it then
    creates (``pools``) and the path ranges they are given (``ranges``)."""
    import concurrent.futures
    import os
    from types import SimpleNamespace

    from msa_control import paths

    record = SimpleNamespace(pools=0, ranges=[])

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            record.pools += 1
            super().__init__(*args, **kwargs)

        def submit(self, fn, *args, **kwargs):
            record.ranges.append(args[-2:])
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)

    def force(cpus, per_worker):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(paths, "_PATHS_PER_WORKER", per_worker)
        record.pools, record.ranges = 0, []
        return record

    return force
