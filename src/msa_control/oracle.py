"""LQ ground truth (Lyapunov ODEs, optimal control) and order experiments.

The closed-form LQ machinery provides the oracle used to test the regression
adjoint solvers and the solver's convergence behaviour.  The experiments
check the orders the theory predicts: the spike-variation cost remainder
(eps^{3/2}), the variational-equation defect (eps^3 in squared L2) and the
m^{-1/2} sequence bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .hamiltonian import GapProcess
from .model import LQSpec, ProblemSpec, lq_embed
from .msa import DyadicInterval, MSAConfig, MSARun, prepare_state, run_msa
from .paths import (
    BrownianEnsemble,
    ControlProcess,
    StateEnsemble,
    TimeGrid,
    evaluate_cost,
    generate_brownian,
    pathwise_cost,
    simulate_state,
)

Array = np.ndarray


# ---------------------------------------------------------------------------
# Lyapunov / value ODEs


def _min_diffusion_cost(lq: LQSpec, t: float, K: Array) -> float:
    """min over the control grid of (1/2) sum_i sigma^i' K sigma^i + g."""
    pts = lq.domain.points
    sig = np.asarray(lq.sigma_u(t, pts))  # (V, n, d)
    quad = 0.5 * np.einsum("vid,ij,vjd->v", sig, K, sig)
    return float(np.min(quad + np.asarray(lq.g(t, pts))))


def lyapunov_solve(lq: LQSpec, grid: TimeGrid) -> Tuple[Array, Array, Array]:
    """Integrate K' = -(K b1 + b1'K + G), k' = -(b1'k + K b2) and the value
    offset c backward with classical RK4 on the simulation grid.

    Returns trajectories (K: (steps+1,n,n), k: (steps+1,n), c: (steps+1,)).
    """
    n = lq.n
    steps = grid.steps
    dt = grid.dt
    K = np.empty((steps + 1, n, n))
    kv = np.empty((steps + 1, n))
    c = np.empty(steps + 1)
    K[steps] = lq.Gamma
    kv[steps] = 0.0
    c[steps] = 0.0

    def deriv(t, Kt, kt):
        b1 = np.asarray(lq.b1(t))
        b2 = np.asarray(lq.b2(t))
        G = np.asarray(lq.G(t))
        dK = -(Kt @ b1 + b1.T @ Kt + G)
        dk = -(b1.T @ kt + Kt @ b2)
        dc = -(b2 @ kt + _min_diffusion_cost(lq, t, Kt))
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


@dataclass(frozen=True)
class LQOracle:
    K: Array
    k: Array
    c: Array
    u_star: Array  # (steps,) domain indices, deterministic in time
    J_star: float


def lq_optimal_control(lq: LQSpec, grid: TimeGrid, lyap: Tuple[Array, Array, Array]):
    """Pointwise HJB minimization over the control grid; returns (indices, J*)."""
    K, kv, c = lyap
    pts = lq.domain.points
    u_star = np.empty(grid.steps, dtype=np.int64)
    for i in range(grid.steps):
        t = i * grid.dt
        sig = np.asarray(lq.sigma_u(t, pts))
        quad = 0.5 * np.einsum("vid,ij,vjd->v", sig, K[i], sig)
        u_star[i] = int(np.argmin(quad + np.asarray(lq.g(t, pts))))
    x0 = lq.x0
    J_star = float(0.5 * x0 @ K[0] @ x0 + kv[0] @ x0 + c[0])
    return u_star, J_star


def build_oracle(lq: LQSpec, grid: TimeGrid) -> LQOracle:
    lyap = lyapunov_solve(lq, grid)
    u_star, J_star = lq_optimal_control(lq, grid, lyap)
    return LQOracle(K=lyap[0], k=lyap[1], c=lyap[2], u_star=u_star, J_star=J_star)


# ---------------------------------------------------------------------------
# Convergence-rate experiment


@dataclass
class RateResult:
    rows: List[Tuple[int, float, float]]  # (m, a_m, a_m * sqrt(m)), 1-based
    slope: float
    J_star_analytic: float
    J_star_saa: float
    run: MSARun

    def csv(self) -> str:
        lines = ["m,a_m,a_m_sqrt_m"]
        lines += [f"{m},{a!r},{b!r}" for m, a, b in self.rows]
        return "\n".join(lines) + "\n"


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
    grid = TimeGrid(T=benchmark.T, depth=config.depth)
    W = generate_brownian(grid, config.M, benchmark.d, config.seed)
    oracle = build_oracle(benchmark, grid)
    u_star = ControlProcess.deterministic(oracle.u_star, config.M, benchmark.domain.size)
    X_star = simulate_state(spec, grid, W, u_star)
    pc_star = pathwise_cost(spec, grid, X_star, u_star)
    J_star_saa = float(np.sum(pc_star) / config.M)

    run = run_msa(spec, config, u0, W=W)
    # noise floor for the log-log fit: MC standard error of a CRN difference
    X_fin = simulate_state(spec, grid, W, run.final_control)
    diff = pathwise_cost(spec, grid, X_fin, run.final_control) - pc_star
    floor = max(float(np.std(diff) / np.sqrt(config.M)), 1e-12)

    rows = []
    for rec in run.records:
        m1 = rec.m + 1  # 1-based: row 1 is the initial control
        a = rec.J - J_star_saa
        rows.append((m1, a, a * np.sqrt(m1)))
    if len(rows) >= 2:
        ms = np.array([r[0] for r in rows], dtype=float)
        avals = np.array([max(r[1], floor) for r in rows])
        slope = float(np.polyfit(np.log(ms), np.log(avals), 1)[0])
    else:
        slope = float("nan")
    return RateResult(
        rows=rows,
        slope=slope,
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
    Lv = np.empty_like(v)
    Lv[1:-1] = lower[1:-1] * v[:-2] + diag[1:-1] * v[1:-1] + upper[1:-1] * v[2:]
    Lv[0] = Lv[-1] = 0.0
    rhs = v + 0.5 * dt * Lv + dt * src
    ab = np.zeros((3, nx))
    ab[0, 1:] = -0.5 * dt * upper[:-1]
    ab[1, :] = 1.0 - 0.5 * dt * diag
    ab[2, :-1] = -0.5 * dt * lower[1:]
    ab[1, 0] = 1.0
    ab[0, 1] = 0.0
    rhs[0] = v[0] + dt * src[0]
    ab[1, -1] = 1.0
    ab[2, -2] = 0.0
    rhs[-1] = v[-1] + dt * src[-1]
    out = solve_banded((1, 1), ab, rhs)
    out[0] = 2 * out[1] - out[2]
    out[-1] = 2 * out[-2] - out[-3]
    return out


@dataclass(frozen=True)
class _ScalarValueFields:
    """Cost-to-go value function and exact spike-gap fields for a scalar
    problem under a constant base control: gap rate S, the pointwise gap
    minimizer's drift/diffusion fields, all on a (step, x-node) lattice."""

    xs: Array       # (nx,)
    S: Array        # (steps, nx) gap rate, <= 0
    b_sel: Array    # (steps, nx) drift at the selected spike control
    s2_sel: Array   # (steps, nx) squared diffusion at the selected spike control


def _scalar_value_fields(
    spec: ProblemSpec, grid: TimeGrid, X: StateEnsemble, u_index: int, nx: int
) -> _ScalarValueFields:
    """Solve the backward cost-to-go PDE for the constant base control and
    assemble the exact Hamiltonian-gap rate.

    With v the cost-to-go, the adjoints along the base flow are p = v_x,
    q = sigma_u v_xx, P = v_xx, so the generalized-Hamiltonian difference at
    a candidate point collapses to
        S_c = (b_c - b_u) v_x + (f_c - f_u) + (sigma_c^2 - sigma_u^2) v_xx / 2
    and the gap rate is the minimum of S_c over the domain.
    """
    c = spec.coefficients
    pts = spec.domain.points
    lo = float(X.states.min())
    hi = float(X.states.max())
    pad = 0.5 * (hi - lo) + 1.0
    xs = np.linspace(lo - pad, hi + pad, nx)
    dx = xs[1] - xs[0]
    xcol = xs[:, None]
    steps = grid.steps
    dt = grid.dt

    def fields(t, idx):
        upt = np.broadcast_to(pts[idx], (nx, pts.shape[1]))
        b = np.asarray(c.b(t, xcol, upt))[:, 0]
        s2 = np.asarray(c.sigma(t, xcol, upt))[:, 0, 0] ** 2
        f = np.asarray(c.f(t, xcol, upt))
        return b, s2, f

    V = np.empty((steps + 1, nx))
    V[steps] = np.asarray(c.Phi(xcol))
    for i in range(steps - 1, -1, -1):
        b_u, s2_u, f_u = fields(i * dt, u_index)
        V[i] = _cn_step(V[i + 1], b_u, s2_u, f_u, dt, dx)

    vx = np.gradient(V, dx, axis=1)
    vxx = np.empty_like(V)
    vxx[:, 1:-1] = (V[:, :-2] - 2 * V[:, 1:-1] + V[:, 2:]) / (dx * dx)
    vxx[:, 0] = vxx[:, 1]
    vxx[:, -1] = vxx[:, -2]

    S = np.full((steps, nx), np.inf)
    sel = np.zeros((steps, nx), dtype=np.int64)
    b_sel = np.empty((steps, nx))
    s2_sel = np.empty((steps, nx))
    for i in range(steps):
        t = i * dt
        b_u, s2_u, f_u = fields(t, u_index)
        for ci in range(pts.shape[0]):
            b_c, s2_c, f_c = fields(t, ci)
            S_c = (b_c - b_u) * vx[i] + (f_c - f_u) + 0.5 * (s2_c - s2_u) * vxx[i]
            better = S_c < S[i]  # strict: ties keep the smaller index
            S[i] = np.where(better, S_c, S[i])
            sel[i] = np.where(better, ci, sel[i])
            b_sel[i] = np.where(better, b_c, b_sel[i])
            s2_sel[i] = np.where(better, s2_c, s2_sel[i])
    return _ScalarValueFields(xs=xs, S=S, b_sel=b_sel, s2_sel=s2_sel)


@dataclass
class RemainderResult:
    rows: List[Tuple[float, float, bool]]  # (eps, R, censored)
    slope: float
    standard_errors: List[float]

    def csv(self) -> str:
        lines = ["eps,R,censored"]
        lines += [f"{e!r},{R!r},{int(c)}" for e, R, c in self.rows]
        return "\n".join(lines) + "\n"


def _interval_steps(tau: float, eps: float, grid: TimeGrid) -> Tuple[int, int]:
    lo_t = max(tau - eps, 0.0)
    hi_t = min(tau + eps, grid.T)
    lo = int(round(lo_t / grid.dt))
    hi = int(round(hi_t / grid.dt))
    if abs(lo * grid.dt - lo_t) > 1e-9 * grid.T or abs(hi * grid.dt - hi_t) > 1e-9 * grid.T:
        raise ValueError(f"interval [{lo_t}, {hi_t}] misaligned with grid cells")
    return lo, hi


def _direct_remainder(spec, u, tau, eps_list, config):
    """Plain CRN estimator of R(eps): simulate the spiked control and subtract
    the regression-adjoint gap integral.  Works for any spec; noisy."""
    grid = TimeGrid(T=spec.T, depth=config.depth)
    W = generate_brownian(grid, config.M, spec.d, config.seed)
    X = simulate_state(spec, grid, W, u)
    pc_base = pathwise_cost(spec, grid, X, u)
    state = prepare_state(spec, grid, W, u, X, float(np.mean(pc_base)), config.basis)
    rows, ses = [], []
    for eps in eps_list:
        lo, hi = _interval_steps(tau, eps, grid)
        vals = u.values.copy()
        vals[:, lo:hi] = state.gaps.argmin_indices[:, lo:hi]
        cand = ControlProcess(vals, u.num_points)
        X_cand = simulate_state(spec, grid, W, cand)
        diff = pathwise_cost(spec, grid, X_cand, cand) - pc_base
        gap_path = state.gaps.values[:, lo:hi].sum(axis=1) * grid.dt
        r = diff - gap_path
        rows.append((float(eps), float(np.sum(r) / config.M)))
        ses.append(float(np.std(r) / np.sqrt(config.M)))
    return rows, ses


def _conditional_remainder(spec, u_index, tau, eps_list, config, nx):
    """Conditional CRN estimator for scalar problems with a constant base
    control.

    The cost-to-go after the spike interval is integrated out exactly through
    the backward PDE, so the per-path sample is
        r = delta(lo, X_lo) - sum_{i in [lo,hi)} S(t_i, X_i) dt
    where delta solves the difference PDE (spiked coefficients, source S) on
    the interval and S is the exact gap rate.  Both terms ride on the same
    base paths, so nearly all Monte Carlo noise cancels and the small-eps
    remainder is resolvable at desk-scale path counts.
    """
    grid = TimeGrid(T=spec.T, depth=config.depth)
    W = generate_brownian(grid, config.M, spec.d, config.seed)
    u = ControlProcess.constant(u_index, config.M, grid.steps, spec.domain.size)
    X = simulate_state(spec, grid, W, u)
    fields = _scalar_value_fields(spec, grid, X, u_index, nx)
    xs, S = fields.xs, fields.S
    dx = xs[1] - xs[0]
    paths = X.states[:, :, 0]
    rows, ses = [], []
    for eps in eps_list:
        lo, hi = _interval_steps(tau, eps, grid)
        delta = np.zeros(nx)
        for i in range(hi - 1, lo - 1, -1):
            delta = _cn_step(delta, fields.b_sel[i], fields.s2_sel[i], S[i], grid.dt, dx)
        j_diff = np.interp(paths[:, lo], xs, delta)
        gap_path = np.zeros(config.M)
        for i in range(lo, hi):
            gap_path += np.interp(paths[:, i], xs, S[i]) * grid.dt
        r = j_diff - gap_path
        rows.append((float(eps), float(np.sum(r) / config.M)))
        ses.append(float(np.std(r) / np.sqrt(config.M)))
    return rows, ses


def remainder_experiment(
    spec: ProblemSpec,
    u: Union[ControlProcess, int],
    tau: float,
    eps_list: Sequence[float],
    config: MSAConfig,
    nx: int = 2001,
) -> RemainderResult:
    """Measure R(eps) = J(u_spike) - J(u) - E int_E gap dt and fit its order.

    A constant base control given by domain index on a scalar problem uses
    the conditional estimator (future noise integrated out by a backward PDE
    solve); otherwise the direct CRN estimator.  Points with |R| below 10x
    the MC standard error of the estimator are reported as censored and
    excluded from the fit.
    """
    if isinstance(u, (int, np.integer)) and spec.n == 1 and spec.d == 1:
        raw, ses = _conditional_remainder(spec, int(u), tau, eps_list, config, nx)
    else:
        if isinstance(u, (int, np.integer)):
            grid = TimeGrid(T=spec.T, depth=config.depth)
            u = ControlProcess.constant(int(u), config.M, grid.steps, spec.domain.size)
        raw, ses = _direct_remainder(spec, u, tau, eps_list, config)
    rows = [(e, R, abs(R) < 10.0 * se) for (e, R), se in zip(raw, ses)]

    fit = [(e, abs(R)) for e, R, cen in rows if not cen and abs(R) > 0]
    if len(fit) >= 2:
        xs = np.log([e for e, _ in fit])
        ys = np.log([r for _, r in fit])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = float("nan")
    return RemainderResult(rows=rows, slope=slope, standard_errors=ses)


# ---------------------------------------------------------------------------
# Variational (first/second-order) SDEs


@dataclass(frozen=True)
class VariationalEnsemble:
    X1: Array  # (M, steps+1, n)
    X2: Array  # (M, steps+1, n)


def variational_simulate(
    spec: ProblemSpec,
    grid: TimeGrid,
    W: BrownianEnsemble,
    u: ControlProcess,
    gaps: GapProcess,
    interval: Union[DyadicInterval, Tuple[int, int]],
):
    """Euler-integrate the two variational SDEs and the spike-expansion defect.

    Returns (VariationalEnsemble, e) with
    e = mean over paths of sup_i |X_spike - X - X1 - X2|^2.
    """
    c = spec.coefficients
    for name in ("b_xx", "sigma_xx"):
        if getattr(c, name) is None:
            raise ValueError(f"second derivative {name} required for variational SDEs")
    lo, hi = interval.step_range if isinstance(interval, DyadicInterval) else interval
    M, steps = u.values.shape
    n = spec.n
    dt = grid.dt
    pts = spec.domain.points

    X = simulate_state(spec, grid, W, u)
    vals = u.values.copy()
    vals[:, lo:hi] = gaps.argmin_indices[:, lo:hi]
    cand = ControlProcess(vals, u.num_points)
    X_sp = simulate_state(spec, grid, W, cand)

    X1 = np.zeros((M, steps + 1, n))
    X2 = np.zeros((M, steps + 1, n))
    for i in range(steps):
        t = i * dt
        xi = X.states[:, i]
        ui = pts[u.values[:, i]]
        vi = pts[gaps.argmin_indices[:, i]]
        on = 1.0 if lo <= i < hi else 0.0
        dw = W.increments[:, i]  # (M, d)

        b_x = np.asarray(c.b_x(t, xi, ui))
        sigma_x = np.asarray(c.sigma_x(t, xi, ui))
        b_xx = np.asarray(c.b_xx(t, xi, ui))
        sigma_xx = np.asarray(c.sigma_xx(t, xi, ui))
        sig_u = np.asarray(c.sigma(t, xi, ui))
        x1 = X1[:, i]
        x2 = X2[:, i]

        if on:
            sig_hat = np.asarray(c.sigma(t, xi, vi)) - sig_u
            b_hat = np.asarray(c.b(t, xi, vi)) - np.asarray(c.b(t, xi, ui))
            sig_x_hat = np.asarray(c.sigma_x(t, xi, vi)) - sigma_x
        else:
            sig_hat = np.zeros_like(sig_u)
            b_hat = np.zeros((M, n))
            sig_x_hat = np.zeros_like(sigma_x)

        diff1 = np.einsum("bjld,bl->bjd", sigma_x, x1) + sig_hat
        X1[:, i + 1] = x1 + np.einsum("bjl,bl->bj", b_x, x1) * dt + np.einsum(
            "bjd,bd->bj", diff1, dw
        )

        bxx_q = 0.5 * np.einsum("bjlm,bl,bm->bj", b_xx, x1, x1)
        sxx_q = 0.5 * np.einsum("bjlmd,bl,bm->bjd", sigma_xx, x1, x1)
        diff2 = (
            np.einsum("bjld,bl->bjd", sigma_x, x2)
            + sxx_q
            + np.einsum("bjld,bl->bjd", sig_x_hat, x1)
        )
        X2[:, i + 1] = (
            x2
            + (np.einsum("bjl,bl->bj", b_x, x2) + b_hat + bxx_q) * dt
            + np.einsum("bjd,bd->bj", diff2, dw)
        )

    defect = X_sp.states - X.states - X1 - X2
    e = float(np.mean(np.max(np.sum(defect**2, axis=2), axis=1)))
    return VariationalEnsemble(X1=X1, X2=X2), e


@dataclass
class VariationalResult:
    rows: List[Tuple[float, float]]  # (eps, e_sq)
    slope: float

    def csv(self) -> str:
        lines = ["eps,e_sq"]
        lines += [f"{e!r},{v!r}" for e, v in self.rows]
        return "\n".join(lines) + "\n"


def variational_experiment(
    spec: ProblemSpec,
    u: Union[ControlProcess, int],
    tau: float,
    eps_list: Sequence[float],
    config: MSAConfig,
) -> VariationalResult:
    """Defect order check: fit log e(eps) against log eps over dyadic eps."""
    grid = TimeGrid(T=spec.T, depth=config.depth)
    W = generate_brownian(grid, config.M, spec.d, config.seed)
    if isinstance(u, int):
        u = ControlProcess.constant(u, config.M, grid.steps, spec.domain.size)
    X = simulate_state(spec, grid, W, u)
    state = prepare_state(spec, grid, W, u, X, evaluate_cost(spec, grid, X, u), config.basis)
    rows = []
    for eps in eps_list:
        lo, hi = _interval_steps(tau, eps, grid)
        _, e = variational_simulate(spec, grid, W, u, state.gaps, (lo, hi))
        rows.append((float(eps), e))
    positive = [(e, v) for e, v in rows if v > 0]
    if len(positive) >= 2:
        xs = np.log([e for e, _ in positive])
        ys = np.log([v for _, v in positive])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = float("nan")
    return VariationalResult(rows=rows, slope=slope)


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
    if a1 < 0 or A <= 0:
        raise ValueError("need a1 >= 0 and A > 0")
    bound = max(a1, A ** -0.5)
    a = a1
    max_b = 0.0
    ok = True
    for m in range(1, m_max + 1):
        b = a * np.sqrt(m)
        max_b = max(max_b, b)
        if b > bound:
            ok = False
        a = max(a - A * a**3, 0.0)
    return SequenceResult(ok=ok, max_b=float(max_b), bound=float(bound), final_a=float(a))
