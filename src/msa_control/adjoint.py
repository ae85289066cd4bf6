"""Backward adjoint solvers via least-squares Monte Carlo regression.

The first-order adjoint (p, q) and the second-order adjoint P are solved on
the frozen ensemble by backward induction.  Conditional expectations are
estimated by ridge-regularized polynomial regression on the state.  The q
(and transient Q) targets use the quotient estimator p_{t+1} dW / dt with the
regressed continuation value subtracted as a zero-mean control variate.

An exact closed-form backend is provided for LQ problems (p = K X + k,
q^i = K sigma^i, P = K with K from the Lyapunov ODE); it is the oracle
against which the regression solvers are tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .model import LQSpec, ProblemSpec
from .paths import BrownianEnsemble, ControlProcess, StateEnsemble, TimeGrid, _check_provenance

Array = np.ndarray


class RegressionRankError(RuntimeError):
    """Normal equations were rank deficient with ridge = 0."""


@dataclass(frozen=True)
class RegressionBasis:
    """Total-degree multivariate polynomial features of the state."""

    degree: int = 2
    ridge: float = 1e-8

    def feature_count(self, n: int) -> int:
        return comb(n + self.degree, self.degree)

    def features(self, x: Array) -> Array:
        """Monomial features of shape (M, feature_count(n)), deterministic order."""
        M, n = x.shape
        cols = [np.ones(M)]
        for deg in range(1, self.degree + 1):
            for idx in combinations_with_replacement(range(n), deg):
                col = np.ones(M)
                for j in idx:
                    col = col * x[:, j]
                cols.append(col)
        return np.column_stack(cols)


@dataclass(frozen=True)
class AdjointFirst:
    p: Array  # (M, steps+1, n)
    q: Array  # (M, steps, n, d)


@dataclass(frozen=True)
class AdjointSecond:
    P: Array  # (M, steps+1, n, n), slices symmetrized
    max_presym_asymmetry: float = 0.0


def regress_conditional(targets: Array, states: Array, basis: RegressionBasis):
    """Least-squares fit of targets on polynomial features of the states.

    targets: (M,) or (M, m) block.  Returns (coefficients, fitted values).
    """
    y = np.asarray(targets, dtype=float)
    squeeze = y.ndim == 1
    if squeeze:
        y = y[:, None]
    A = basis.features(np.asarray(states, dtype=float))
    M, F = A.shape
    if M <= F:
        raise ValueError(f"need more samples ({M}) than features ({F})")
    G = A.T @ A
    rhs = A.T @ y
    if basis.ridge > 0:
        coef = np.linalg.solve(G + basis.ridge * np.eye(F), rhs)
    else:
        coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
        if rank < F:
            raise RegressionRankError(
                f"design matrix rank {rank} < {F} features; set ridge > 0"
            )
    fitted = A @ coef
    if squeeze:
        return coef[:, 0], fitted[:, 0]
    return coef, fitted


def _step_coeffs(spec: ProblemSpec, t: float, x: Array, u_pts: Array):
    c = spec.coefficients
    return (
        np.asarray(c.b_x(t, x, u_pts)),
        np.asarray(c.sigma_x(t, x, u_pts)),
        np.asarray(c.f_x(t, x, u_pts)),
    )


def solve_first_adjoint(
    spec: ProblemSpec,
    grid: TimeGrid,
    X: StateEnsemble,
    u: ControlProcess,
    basis: RegressionBasis,
    W: BrownianEnsemble,
) -> AdjointFirst:
    """Backward regression scheme for the first-order adjoint BSDE.

    p(T) = Phi_x(X_T) pathwise; then, descending in i,
    q_i = regress((p_{i+1} - p_hat) dW_i / dt | X_i)  (control-variate quotient),
    p_i = p_hat + dt [b_x' p_hat + sum_i (sigma_x^i)' q_i + f_x].
    """
    _check_provenance(X, u)
    M, steps = u.values.shape
    n, d = spec.n, spec.d
    dt = grid.dt
    pts = spec.domain.points
    p = np.empty((M, steps + 1, n))
    q = np.empty((M, steps, n, d))
    p[:, steps] = np.asarray(spec.coefficients.Phi_x(X.states[:, steps]))
    for i in range(steps - 1, -1, -1):
        t = i * dt
        xi = X.states[:, i]
        ui = pts[u.values[:, i]]
        pnext = p[:, i + 1]
        _, phat = regress_conditional(pnext, xi, basis)
        resid = pnext - phat
        dw = W.increments[:, i]  # (M, d)
        qtarget = resid[:, :, None] * dw[:, None, :] / dt  # (M, n, d)
        _, qhat = regress_conditional(qtarget.reshape(M, n * d), xi, basis)
        qhat = qhat.reshape(M, n, d)
        b_x, sigma_x, f_x = _step_coeffs(spec, t, xi, ui)
        driver = (
            np.einsum("bjl,bj->bl", b_x, phat)
            + np.einsum("bjli,bji->bl", sigma_x, qhat)
            + f_x
        )
        p[:, i] = phat + dt * driver
        q[:, i] = qhat
    return AdjointFirst(p=p, q=q)


def hessian_of_H(spec: ProblemSpec, t: float, x: Array, p: Array, q: Array, u_pts: Array) -> Array:
    """H_xx = sum_j p_j b^j_xx + sum_{j,i} q_{ji} sigma^{ji}_xx + f_xx, (B,n,n)."""
    c = spec.coefficients
    b_xx = np.asarray(c.b_xx(t, x, u_pts))
    sigma_xx = np.asarray(c.sigma_xx(t, x, u_pts))
    f_xx = np.asarray(c.f_xx(t, x, u_pts))
    return (
        np.einsum("bj,bjlm->blm", p, b_xx)
        + np.einsum("bji,bjlmi->blm", q, sigma_xx)
        + f_xx
    )


def solve_second_adjoint(
    spec: ProblemSpec,
    grid: TimeGrid,
    X: StateEnsemble,
    u: ControlProcess,
    adj1: AdjointFirst,
    basis: RegressionBasis,
    W: BrownianEnsemble,
) -> AdjointSecond:
    """Backward regression scheme for the matrix-valued second-order adjoint.

    The martingale integrand Q is estimated transiently per step (it enters
    the driver) but not stored: the H-function needs only P.
    """
    _check_provenance(X, u)
    M, steps = u.values.shape
    n, d = spec.n, spec.d
    dt = grid.dt
    pts = spec.domain.points
    P = np.empty((M, steps + 1, n, n))
    P[:, steps] = np.asarray(spec.coefficients.Phi_xx(X.states[:, steps]))
    max_asym = 0.0
    for i in range(steps - 1, -1, -1):
        t = i * dt
        xi = X.states[:, i]
        ui = pts[u.values[:, i]]
        pnext = P[:, i + 1].reshape(M, n * n)
        _, phat_flat = regress_conditional(pnext, xi, basis)
        Phat = phat_flat.reshape(M, n, n)
        resid = (pnext - phat_flat).reshape(M, n, n)
        dw = W.increments[:, i]
        qtarget = resid[:, :, :, None] * dw[:, None, None, :] / dt  # (M,n,n,d)
        _, qhat_flat = regress_conditional(qtarget.reshape(M, n * n * d), xi, basis)
        Qhat = qhat_flat.reshape(M, n, n, d)
        b_x, sigma_x, _ = _step_coeffs(spec, t, xi, ui)
        Hxx = hessian_of_H(spec, t, xi, adj1.p[:, i], adj1.q[:, i], ui)
        driver = (
            np.einsum("bjl,bjm->blm", b_x, Phat)
            + np.einsum("bjl,bjm->blm", Phat, b_x)
            + np.einsum("bjli,bjk,bkmi->blm", sigma_x, Phat, sigma_x)
            + np.einsum("bjli,bjmi->blm", sigma_x, Qhat)
            + np.einsum("bjli,bjmi->blm", Qhat, sigma_x)
            + Hxx
        )
        Pi = Phat + dt * driver
        scale = 1.0 + np.abs(Pi).max()
        max_asym = max(max_asym, float(np.abs(Pi - Pi.transpose(0, 2, 1)).max() / scale))
        P[:, i] = 0.5 * (Pi + Pi.transpose(0, 2, 1))
    return AdjointSecond(P=P, max_presym_asymmetry=max_asym)


def lq_closed_form_adjoint(
    lq: LQSpec, grid: TimeGrid, X: StateEnsemble, u: ControlProcess
):
    """Exact LQ adjoints: p = K X + k, q^i = K sigma^i_u, P = K pathwise."""
    from .oracle import lyapunov_solve  # deferred: oracle imports this module

    _check_provenance(X, u)
    K, kvec, _ = lyapunov_solve(lq, grid)
    M, steps = u.values.shape
    n, d = lq.n, lq.d
    pts = lq.domain.points
    p = np.einsum("sij,bsj->bsi", K, X.states) + kvec[None, :, :]
    q = np.empty((M, steps, n, d))
    for i in range(steps):
        sig = np.asarray(lq.sigma_u(i * grid.dt, pts[u.values[:, i]]))
        q[:, i] = np.einsum("ij,bjd->bid", K[i], sig)
    P = np.broadcast_to(K[None, :, :, :], (M, steps + 1, n, n)).copy()
    return AdjointFirst(p=p, q=q), AdjointSecond(P=P)
