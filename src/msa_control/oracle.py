"""LQ ground truth (Lyapunov ODEs, optimal control) and order experiments.

The closed-form LQ machinery provides the oracle used to test the regression
adjoint solvers (``lq_closed_form_adjoint``) and the solver's convergence
behaviour (``build_oracle``: the optimal control and cost).  The experiments
check the orders the theory predicts: the spike-variation cost remainder
(eps^{3/2}), the variational-equation defect (eps^3 in squared L2) and the
m^{-1/2} sequence bound.

All but the conditional remainder run on the solver's ensemble and checked
``prepare_state`` (``run_msa``, ``msa._start``): a non-finite cost raises SimulationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .adjoint import AdjointFirst, AdjointSecond
from .hamiltonian import GapProcess
from .model import LQSpec, ProblemSpec, lq_embed
from .msa import MSAConfig, MSARun, _start, prepare_state, run_msa, spike_control, to_csv
from .paths import (
    BrownianEnsemble,
    ControlProcess,
    SimulationError,
    StateEnsemble,
    TimeGrid,
    _check_provenance,
    _shared,
    _split_paths,
    evaluate_cost,
    pathwise_cost,
    simulate_state,
    stream_states,
)

Array = np.ndarray

_LATTICE_NODES = 2001  # x-nodes of the remainder's PDE lattice


# ---------------------------------------------------------------------------
# Lyapunov / value ODEs


def _diffusion_cost(lq: LQSpec, t: float, K: Array) -> Array:
    """(1/2) sum_i sigma^i' K sigma^i + g at every control grid point, (V,)."""
    pts = lq.domain.points
    sig = np.asarray(lq.sigma_u(t, pts))  # (V, n, d)
    return 0.5 * np.einsum("vid,ij,vjd->v", sig, K, sig) + np.asarray(lq.g(t, pts))


def lyapunov_solve(lq: LQSpec, grid: TimeGrid) -> Tuple[Array, Array, Array]:
    """Integrate K' = -(K b1 + b1'K + G), k' = -(b1'k + K b2) and the value
    offset c backward with classical RK4 on the simulation grid.

    Returns trajectories (K: (steps+1,n,n), k: (steps+1,n), c: (steps+1,)).
    """
    n = lq.n
    steps = grid.steps
    dt = grid.dt
    K = np.empty((steps + 1, n, n))
    kv = np.zeros((steps + 1, n))
    c = np.zeros(steps + 1)
    K[steps] = lq.Gamma

    def deriv(t, Kt, kt):
        b1 = np.asarray(lq.b1(t))
        b2 = np.asarray(lq.b2(t))
        G = np.asarray(lq.G(t))
        dK = -(Kt @ b1 + b1.T @ Kt + G)
        dk = -(b1.T @ kt + Kt @ b2)
        dc = -(b2 @ kt + float(np.min(_diffusion_cost(lq, t, Kt))))
        return dK, dk, dc

    h = -dt
    for i in range(steps, 0, -1):
        t = i * dt
        K1, k1, c1 = deriv(t, K[i], kv[i])
        K2, k2, c2 = deriv(t + h / 2, K[i] + h / 2 * K1, kv[i] + h / 2 * k1)
        K3, k3, c3 = deriv(t + h / 2, K[i] + h / 2 * K2, kv[i] + h / 2 * k2)
        K4, k4, c4 = deriv(t + h, K[i] + h * K3, kv[i] + h * k3)
        K[i - 1] = K[i] + h / 6 * (K1 + 2 * K2 + 2 * K3 + K4)
        kv[i - 1] = kv[i] + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        c[i - 1] = c[i] + h / 6 * (c1 + 2 * c2 + 2 * c3 + c4)
        K[i - 1] = 0.5 * (K[i - 1] + K[i - 1].T)
    return K, kv, c


def lq_closed_form_adjoint(lq: LQSpec, grid: TimeGrid, X: StateEnsemble, u: ControlProcess):
    """Exact LQ adjoints: p = K X + k, q^i = K sigma^i_u, P = K pathwise."""
    _check_provenance(X, u)
    K, kvec, _ = lyapunov_solve(lq, grid)
    steps, M = u.values.shape
    pts = lq.domain.points
    p = np.einsum("sij,sbj->sbi", K, X.states) + kvec[:, None, :]
    q = np.empty((steps, M, lq.n, lq.d))
    for i in range(steps):
        q[i] = np.einsum("ij,bjd->bid", K[i], np.asarray(lq.sigma_u(i * grid.dt, pts[u.values[i]])))
    P = np.broadcast_to(K[:, None], (steps + 1, M, lq.n, lq.n)).copy()
    return AdjointFirst(p=p, q=q), AdjointSecond(P=P)


@dataclass(frozen=True)
class LQOracle:
    u_star: Array  # (steps,) domain indices, deterministic in time
    J_star: float


def build_oracle(lq: LQSpec, grid: TimeGrid) -> LQOracle:
    """The LQ optimum: u* by pointwise HJB minimization over the control grid
    on the Lyapunov solution, and J* = x0'K(0)x0/2 + k(0)'x0 + c(0)."""
    K, kv, c = lyapunov_solve(lq, grid)
    u_star = np.empty(grid.steps, dtype=np.int64)
    for i in range(grid.steps):
        u_star[i] = int(np.argmin(_diffusion_cost(lq, i * grid.dt, K[i])))
    x0 = lq.x0
    return LQOracle(u_star=u_star, J_star=float(0.5 * x0 @ K[0] @ x0 + kv[0] @ x0 + c[0]))


# ---------------------------------------------------------------------------
# Convergence-rate experiment


def _loglog_slope(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x over the (x, y) pairs with
    y > 0; NaN below two such pairs."""
    fit = [(x, y) for x, y in points if y > 0]
    if len(fit) < 2:
        return float("nan")
    xs, ys = zip(*fit)
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


@dataclass
class RateResult:
    rows: List[Tuple[int, float, float]]  # (m, a_m, a_m * sqrt(m)), 1-based
    slope: float
    J_star_analytic: float
    J_star_saa: float
    run: MSARun

    def csv(self) -> str:
        return to_csv(("m", "a_m", "a_m_sqrt_m"), self.rows)


def rate_experiment(
    benchmark: LQSpec,
    config: MSAConfig,
    u0: Union[ControlProcess, str, int, None] = "worst-constant",
) -> RateResult:
    """Run MSA on an LQ benchmark and tabulate a_m = J(u^m) - J* against m.

    The reference J* is the oracle optimal control evaluated on the same
    frozen ensemble (common random numbers), cross-checked against the
    analytic value.  Rows are indexed 1-based from the initial control.
    """
    spec = lq_embed(benchmark)
    run = run_msa(spec, config, u0)
    grid, W = run.grid, run.ensemble
    oracle = build_oracle(benchmark, grid)
    u_star = ControlProcess.deterministic(oracle.u_star, config.M, benchmark.domain.size)
    pc_star = pathwise_cost(spec, grid, simulate_state(spec, grid, W, u_star), u_star)
    J_star_saa = float(np.sum(pc_star) / config.M)

    # noise floor for the log-log fit: MC standard error of a CRN difference
    X_fin = simulate_state(spec, grid, W, run.final_control)
    diff = pathwise_cost(spec, grid, X_fin, run.final_control) - pc_star
    floor = max(float(np.std(diff) / np.sqrt(config.M)), 1e-12)

    rows = []
    for rec in run.records:
        m1 = rec.m + 1  # 1-based: row 1 is the initial control
        a = rec.J - J_star_saa
        rows.append((m1, a, float(a * np.sqrt(m1))))
    return RateResult(
        rows=rows,
        slope=_loglog_slope([(m1, max(a, floor)) for m1, a, _ in rows]),
        J_star_analytic=oracle.J_star,
        J_star_saa=J_star_saa,
        run=run,
    )


# ---------------------------------------------------------------------------
# Spike-variation remainder experiment


def _cn_step(v: Array, a: Array, s2: Array, src: Array, dt: float, dx: float) -> Array:
    """One backward Crank-Nicolson step of v_t + a v_x + (1/2) s2 v_xx + src = 0.

    Zero-curvature boundaries; `a`, `s2`, `src` are nodal fields.
    """
    from scipy.linalg import solve_banded

    nx = v.shape[0]
    lower = -a / (2 * dx) + s2 / (2 * dx * dx)
    diag = -s2 / (dx * dx)
    upper = a / (2 * dx) + s2 / (2 * dx * dx)
    Lv = np.zeros_like(v)
    Lv[1:-1] = lower[1:-1] * v[:-2] + diag[1:-1] * v[1:-1] + upper[1:-1] * v[2:]
    rhs = v + 0.5 * dt * Lv + dt * src
    ab = np.zeros((3, nx))
    ab[0, 1:] = -0.5 * dt * upper[:-1]
    ab[1, :] = 1.0 - 0.5 * dt * diag
    ab[2, :-1] = -0.5 * dt * lower[1:]
    ab[1, 0] = 1.0
    ab[0, 1] = 0.0
    ab[1, -1] = 1.0
    ab[2, -2] = 0.0
    out = solve_banded((1, 1), ab, rhs, check_finite=False)
    out[0] = 2 * out[1] - out[2]
    out[-1] = 2 * out[-2] - out[-3]
    return out


@dataclass
class RemainderResult:
    rows: List[Tuple[float, float, bool]]  # (eps, R, censored)
    slope: float
    standard_errors: List[float]

    def csv(self) -> str:
        return to_csv(("eps", "R", "se", "censored"),
                      [(e, R, se, c) for (e, R, c), se in zip(self.rows, self.standard_errors)])


def _interval_steps(tau: float, eps: float, grid: TimeGrid) -> Tuple[int, int]:
    lo_t = max(tau - eps, 0.0)
    hi_t = min(tau + eps, grid.T)
    lo = int(round(lo_t / grid.dt))
    hi = int(round(hi_t / grid.dt))
    if abs(lo * grid.dt - lo_t) > 1e-9 * grid.T or abs(hi * grid.dt - hi_t) > 1e-9 * grid.T:
        raise ValueError(f"interval [{lo_t}, {hi_t}] misaligned with grid cells")
    return lo, hi


def _direct_remainder(spec, u, tau, eps_list, config):
    """Plain CRN estimator for any spec, noisy: yields (eps, per-path sample),
    the spiked minus the base cost minus the regression-adjoint gap integral."""
    grid, W, u, X = _start(spec, config, u)
    pc_base = pathwise_cost(spec, grid, X, u)
    state = prepare_state(spec, grid, W, u, X, float(np.mean(pc_base)), config.basis)
    del X  # the eps loop reads only u, the gaps and pc_base
    for eps in eps_list:
        lo, hi = _interval_steps(tau, eps, grid)
        cand = spike_control(u, state.gaps, (lo, hi))
        pc_cand = pathwise_cost(spec, grid, simulate_state(spec, grid, W, cand), cand)
        if not np.isfinite(np.sum(pc_cand)):
            raise SimulationError(f"non-finite candidate cost at eps {eps!r}")
        yield eps, pc_cand - pc_base - state.gaps.values[lo:hi].sum(axis=0) * grid.dt


def _lattice_interp(x: Array, xs: Array, fp: Array) -> Array:
    """np.interp(x, xs, fp) on a uniform increasing lattice, bit for bit.

    The bracketing node is read off (x - xs[0]) / dx and corrected by one
    comparison on each side, so it equals np.interp's binary-search result;
    the interpolation then repeats np.interp's own arithmetic.  In-place
    steps keep the number of live x-sized temporaries small.
    """
    last = xs.shape[0] - 1
    t = np.subtract(x, xs[0])
    t /= xs[1] - xs[0]
    j = np.clip(np.floor(t, out=t), 0, last - 1, out=t).astype(np.intp)
    del t
    j -= (x < xs[j]) & (j > 0)
    j += (x >= xs[j + 1]) & (j < last - 1)
    xj = xs[j]
    out = np.subtract(x, xj)
    out *= ((fp[1:] - fp[:-1]) / (xs[1:] - xs[:-1]))[j]
    fj = fp[j]
    out += fj
    np.copyto(out, fj, where=x == xj)
    out[x < xs[0]] = fp[0]
    out[x >= xs[last]] = fp[last]
    return out


def _conditional_remainder(spec, u_index, tau, eps_list, config):
    """Conditional CRN estimator for scalar problems with a constant base
    control.

    The cost-to-go after the spike interval is integrated out exactly through
    the backward PDE, so the per-path sample is
        r = delta(lo, X_lo) - sum_{i in [lo,hi)} S(t_i, X_i) dt
    where delta solves the difference PDE (spiked coefficients, source S) on
    the interval and S is the exact gap rate.  Both terms ride on the same
    base paths, so nearly all Monte Carlo noise cancels and the small-eps
    remainder is resolvable at desk-scale path counts.

    With v the base control's cost-to-go, the adjoints along the base flow are
    p = v_x, q = sigma_u v_xx, P = v_xx, so the generalized-Hamiltonian
    difference at a candidate point collapses to
        S_c = (b_c - b_u) v_x + (f_c - f_u) + (sigma_c^2 - sigma_u^2) v_xx / 2
    and S is the minimum of S_c over the domain.  The paths, stepped through the
    union's last step only, place a lattice around their range; one backward sweep
    on it solves v from T down to the union's first step; on each union step it keeps S's row and
    advances, with the minimizer's drift and squared diffusion, the delta of
    every interval holding the step.
    """
    grid = TimeGrid(T=spec.T, depth=config.depth)
    ranges = [_interval_steps(tau, eps, grid) for eps in eps_list]
    # The intervals are nested around tau: only the steps of their union are
    # kept, and one pass over it interpolates each step once; every interval
    # still sums its own steps in ascending order from zero.
    rows = range(min((lo for lo, _ in ranges), default=0), max((hi for _, hi in ranges), default=0))
    u = ControlProcess.constant(u_index, config.M, grid.steps, spec.domain.size)
    window, low, high = stream_states(spec, grid, config.seed, u, rows)
    c, pts, dt, nx = spec.coefficients, spec.domain.points, grid.dt, _LATTICE_NODES
    pad = 0.5 * (high - low) + 1.0
    xs = np.linspace(low - pad, high + pad, nx)
    dx = xs[1] - xs[0]
    xcol = xs[:, None]

    def fields(t, idx):
        upt = np.broadcast_to(pts[idx], (nx, pts.shape[1]))
        b = np.asarray(c.b(t, xcol, upt))[:, 0]
        s2 = np.asarray(c.sigma(t, xcol, upt))[:, 0, 0] ** 2
        f = np.asarray(c.f(t, xcol, upt))
        return b, s2, f

    S = np.empty((len(rows), nx))
    deltas = [np.zeros(nx) for _ in ranges]
    v = np.asarray(c.Phi(xcol))
    for i in range(grid.steps - 1, rows.start - 1, -1):
        t = i * dt
        base = b_u, s2_u, f_u = fields(t, u_index)
        v, v_next = _cn_step(v, b_u, s2_u, f_u, dt, dx), v
        if not (np.isfinite(v_next).all() and np.isfinite(v).all()):
            raise SimulationError("non-finite value function on the remainder lattice")
        if i not in rows:
            continue
        vx = np.gradient(v, dx)
        vxx = np.empty_like(v)
        vxx[1:-1] = (v[:-2] - 2 * v[1:-1] + v[2:]) / (dx * dx)
        vxx[0] = vxx[1]
        vxx[-1] = vxx[-2]
        gap, b_sel, s2_sel = np.full(nx, np.inf), np.empty(nx), np.empty(nx)
        for ci in range(pts.shape[0]):
            b_c, s2_c, f_c = base if ci == u_index else fields(t, ci)
            S_c = (b_c - b_u) * vx + (f_c - f_u) + 0.5 * (s2_c - s2_u) * vxx
            better = S_c < gap  # strict: ties keep the smaller index
            gap = np.where(better, S_c, gap)
            b_sel = np.where(better, b_c, b_sel)
            s2_sel = np.where(better, s2_c, s2_sel)
        S[i - rows.start] = gap
        for k, (lo, hi) in enumerate(ranges):
            if lo <= i < hi:
                deltas[k] = _cn_step(deltas[k], b_sel, s2_sel, gap, dt, dx)
    gap_paths = _shared((len(ranges), config.M), config.M)

    def accumulate(k, p_lo, p_hi):
        gap_paths[:, p_lo:p_hi] = 0.0  # a range run again starts from zero
        for i in rows:
            inside = [acc[p_lo:p_hi] for (lo, hi), acc in zip(ranges, gap_paths) if lo <= i < hi]
            term = _lattice_interp(window[i - rows.start, p_lo:p_hi, 0], xs, S[i - rows.start]) * dt
            for acc in inside:
                acc += term

    _split_paths(config.M, accumulate)
    for eps, (lo, hi), gap_path, delta in zip(eps_list, ranges, gap_paths, deltas):
        if not np.isfinite(delta).all():
            raise SimulationError(f"non-finite difference on the remainder lattice at eps {eps!r}")
        yield eps, _lattice_interp(window[lo - rows.start, :, 0], xs, delta) - gap_path


def remainder_experiment(
    spec: ProblemSpec,
    u: Union[ControlProcess, int],
    tau: float,
    eps_list: Sequence[float],
    config: MSAConfig,
) -> RemainderResult:
    """Measure R(eps) = J(u_spike) - J(u) - E int_E gap dt and fit its order.

    A constant base control given by domain index on a scalar problem uses
    the conditional estimator (future noise integrated out by a backward PDE
    solve); otherwise the direct CRN estimator.  Points with |R| below 10x
    the MC standard error of the estimator are reported as censored and
    excluded from the fit.  The conditional estimator's SE is that of the means of its
    antithetic path pairs (2q, 2q + 1), an odd M's last path alone (Glasserman 2003, section 4.2).
    """
    conditional = isinstance(u, (int, np.integer)) and spec.n == 1 and spec.d == 1
    samples = (_conditional_remainder(spec, int(u), tau, eps_list, config) if conditional
               else _direct_remainder(spec, u, tau, eps_list, config))
    rows, ses = [], []
    for eps, r in samples:
        R = float(np.sum(r) / config.M)
        means = np.append(r, r[config.M & ~1 :]).reshape(-1, 2).mean(axis=1) if conditional else r
        se = float(np.std(means) / np.sqrt(means.shape[0]))
        if not np.isfinite([R, se]).all():
            raise SimulationError(f"non-finite remainder or its standard error at eps {eps!r}")
        rows.append((float(eps), R, abs(R) < 10.0 * se))
        ses.append(se)

    slope = _loglog_slope([(e, abs(R)) for e, R, cen in rows if not cen])
    return RemainderResult(rows=rows, slope=slope, standard_errors=ses)


# ---------------------------------------------------------------------------
# Variational (first/second-order) SDEs


def variational_simulate(
    spec: ProblemSpec,
    grid: TimeGrid,
    W: BrownianEnsemble,
    X: StateEnsemble,
    gaps: GapProcess,
    step_range: Tuple[int, int],
):
    """Euler-integrate the two variational SDEs and the spike-expansion defect.

    X is the base control's simulated ensemble; the base control is its
    ``control_values``, spiked on the steps [lo, hi).  X1 and X2 start at zero
    and are forced only on the spike, so they are zero up to step lo.  Returns
    (X1, X2, e): X1 and X2 are (steps+1, M, n) and e is the mean over paths of
    sup_i |X_spike - X - X1 - X2|^2.
    """
    c = spec.coefficients
    lo, hi = step_range
    u_vals = X.control_values
    dt = grid.dt
    pts = spec.domain.points

    cand = spike_control(ControlProcess(u_vals, spec.domain.size), gaps, (lo, hi))
    X_sp = simulate_state(spec, grid, W, cand)

    X1 = np.zeros(X.states.shape)
    X2 = np.zeros(X.states.shape)
    for i in range(lo, grid.steps):
        t, xi, ui = i * dt, X.states[i], pts[u_vals[i]]
        x1, x2, dw = X1[i], X2[i], W.increments[i]
        b_x = np.asarray(c.b_x(t, xi, ui))
        sigma_x = np.asarray(c.sigma_x(t, xi, ui))
        bxx_q = 0.5 * np.einsum("bjlm,bl,bm->bj", np.asarray(c.b_xx(t, xi, ui)), x1, x1)
        sxx_q = 0.5 * np.einsum("bjlmd,bl,bm->bjd", np.asarray(c.sigma_xx(t, xi, ui)), x1, x1)
        diff1 = np.einsum("bjld,bl->bjd", sigma_x, x1)
        diff2 = np.einsum("bjld,bl->bjd", sigma_x, x2) + sxx_q
        drift2 = np.einsum("bjl,bl->bj", b_x, x2)
        if i < hi:  # the spike's forcing: its change of sigma, of sigma_x and of b
            vi = pts[gaps.argmin_indices[i]]
            diff1 += np.asarray(c.sigma(t, xi, vi)) - np.asarray(c.sigma(t, xi, ui))
            diff2 += np.einsum("bjld,bl->bjd", np.asarray(c.sigma_x(t, xi, vi)) - sigma_x, x1)
            drift2 += np.asarray(c.b(t, xi, vi)) - np.asarray(c.b(t, xi, ui))
        X1[i + 1] = x1 + np.einsum("bjl,bl->bj", b_x, x1) * dt + np.einsum("bjd,bd->bj", diff1, dw)
        X2[i + 1] = x2 + (drift2 + bxx_q) * dt + np.einsum("bjd,bd->bj", diff2, dw)

    defect = X_sp.states - X.states - X1 - X2
    e = float(np.mean(np.max(np.sum(defect**2, axis=2), axis=0)))
    return X1, X2, e


@dataclass
class VariationalResult:
    rows: List[Tuple[float, float]]  # (eps, e_sq)
    slope: float

    def csv(self) -> str:
        return to_csv(("eps", "e_sq"), self.rows)


def variational_experiment(
    spec: ProblemSpec,
    u: Union[ControlProcess, int],
    tau: float,
    eps_list: Sequence[float],
    config: MSAConfig,
) -> VariationalResult:
    """Defect order check: fit log e(eps) against log eps over dyadic eps."""
    grid, W, u, X = _start(spec, config, u)
    state = prepare_state(spec, grid, W, u, X, evaluate_cost(spec, grid, X, u), config.basis)
    rows = []
    for eps in eps_list:
        lo, hi = _interval_steps(tau, eps, grid)
        *_, e = variational_simulate(spec, grid, W, X, state.gaps, (lo, hi))
        rows.append((float(eps), e))
    return VariationalResult(rows=rows, slope=_loglog_slope(rows))


# ---------------------------------------------------------------------------
# Sequence lemma


@dataclass(frozen=True)
class SequenceResult:
    ok: bool
    max_b: float
    bound: float
    final_a: float


def sequence_lemma_check(a1: float, A: float, m_max: int) -> SequenceResult:
    """Iterate the extremal recurrence a_{m+1} = a_m - A a_m^3 (clamped at 0)
    and verify a_m sqrt(m) <= max(a_1, A^{-1/2}) for all m <= m_max."""
    if not (0 <= a1 < 2.0**341 and 0 < A < np.inf):  # "not ok" fails a NaN; a**3 stays finite
        raise ValueError("need 0 <= a1 < 2**341 and finite A > 0")
    bound = float(max(a1, A ** -0.5))
    a, max_b = a1, 0.0
    for m in range(1, m_max + 1):
        max_b = max(max_b, a * math.sqrt(m))
        a = max(a - A * a**3, 0.0)
    return SequenceResult(ok=bool(max_b <= bound), max_b=float(max_b), bound=bound, final_a=float(a))
