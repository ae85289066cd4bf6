"""Backward adjoint solvers via least-squares Monte Carlo regression.

The first-order adjoint (p, q) and the second-order adjoint P are solved on
the frozen ensemble by one backward induction, ``adjoint_sweep``, which
yields each step's slices as it computes them and stores none.  Conditional
expectations are estimated by ridge-regularized polynomial regression on the
state (Gobet, Lemor and Warin, Ann. Appl. Probab. 2005), fitted by one
``_regressor`` per step, which solves the symmetric positive definite
A'A + ridge I that ``RegressionBasis`` keeps nonsingular.  The q (and transient
Q) targets use the quotient estimator p_{t+1} dW / dt with the regressed
continuation value subtracted as a zero-mean control variate.
Stored adjoints are time-major, like the states they are regressed on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .model import ProblemSpec
from .paths import BrownianEnsemble, ControlProcess, StateEnsemble, TimeGrid, _check_provenance

Array = np.ndarray


@dataclass(frozen=True)
class RegressionBasis:
    """Total-degree multivariate polynomial features of the state."""

    degree: int = 2
    ridge: float = 1e-8

    def __post_init__(self):
        if not (self.degree >= 0 and self.ridge >= 0):  # written so that a NaN fails it
            raise ValueError("degree and ridge must be nonnegative")
        if self.ridge == 0 and self.degree >= 1:
            # every path starts at x0, so the step-0 design matrix has rank 1
            raise ValueError("ridge = 0 needs degree = 0: the step-0 regression is rank 1")

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
    p: Array  # (steps+1, M, n)
    q: Array  # (steps, M, n, d)


@dataclass(frozen=True)
class AdjointSecond:
    P: Array  # (steps+1, M, n, n), slices symmetrized
    max_presym_asymmetry: float = 0.0


def _regressor(states: Array, basis: RegressionBasis):
    """Features and ridge Gram matrix A'A + ridge I of one state slice, built
    once; the returned fit(y) regresses any (M, ...) target block on them and
    returns the fitted values."""
    A = basis.features(np.asarray(states, dtype=float))
    M, F = A.shape
    if M <= F:
        raise ValueError(f"need more samples ({M}) than features ({F})")
    gram = A.T @ A + basis.ridge * np.eye(F)

    def fit(y: Array) -> Array:
        return (A @ np.linalg.solve(gram, A.T @ y.reshape(M, -1))).reshape(y.shape)

    return fit


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


def _terminal(spec: ProblemSpec, X: StateEnsemble):
    """p(T) = Phi_x(X_T) and P(T) = Phi_xx(X_T), pathwise."""
    c, x_T = spec.coefficients, X.states[-1]
    return np.asarray(c.Phi_x(x_T)), np.asarray(c.Phi_xx(x_T))


def adjoint_sweep(
    spec: ProblemSpec,
    grid: TimeGrid,
    X: StateEnsemble,
    u: ControlProcess,
    basis: RegressionBasis,
    W: BrownianEnsemble,
):
    """Backward regression sweep for both adjoints, one step at a time.

    Yields (i, p_i, q_i, P_i, asym_i) for i = steps-1, ..., 0 and carries
    only p and P of step i+1.  With p_hat = E[p_{i+1} | X_i],

    q_i = regress((p_{i+1} - p_hat) dW_i / dt | X_i)  (control-variate quotient),
    p_i = p_hat + dt [b_x' p_hat + sum_i (sigma_x^i)' q_i + f_x],

    and the transient Q_i and P_i likewise, with H_xx at (p_i, q_i).  P_i is
    symmetrized; asym_i is its relative asymmetry before that.
    """
    _check_provenance(X, u)
    c = spec.coefficients
    steps = u.values.shape[0]
    dt = grid.dt
    pts = spec.domain.points
    p, P = _terminal(spec, X)
    for i in range(steps - 1, -1, -1):
        t = i * dt
        xi = X.states[i]
        ui = pts[u.values[i]]
        dw = W.increments[i]  # (M, d)
        fit = _regressor(xi, basis)  # one Gram matrix for all four fits
        phat, Phat = fit(p), fit(P)
        q = fit((p - phat)[:, :, None] * dw[:, None, :] / dt)
        Qhat = fit((P - Phat)[:, :, :, None] * dw[:, None, None, :] / dt)
        b_x = np.asarray(c.b_x(t, xi, ui))
        sigma_x = np.asarray(c.sigma_x(t, xi, ui))
        f_x = np.asarray(c.f_x(t, xi, ui))
        p = phat + dt * (
            np.einsum("bjl,bj->bl", b_x, phat) + np.einsum("bjli,bji->bl", sigma_x, q) + f_x
        )
        bP = np.einsum("bjl,bjm->blm", b_x, Phat)  # P b_x is its exact transpose
        sQ = np.einsum("bjli,bjmi->blm", sigma_x, Qhat)  # and Q sigma_x of this
        driver = (
            bP + bP.transpose(0, 2, 1)
            + np.einsum("bjli,bjk,bkmi->blm", sigma_x, Phat, sigma_x)
            + sQ + sQ.transpose(0, 2, 1)
            + hessian_of_H(spec, t, xi, p, q, ui)
        )
        Pi = Phat + dt * driver
        asym = float(np.abs(Pi - Pi.transpose(0, 2, 1)).max() / (1.0 + np.abs(Pi).max()))
        P = 0.5 * (Pi + Pi.transpose(0, 2, 1))
        yield i, p, q, P, asym


def _collect(spec, grid, X, u, basis, W):
    """Drain adjoint_sweep into time-major arrays."""
    steps, M = u.values.shape
    n, d = spec.n, spec.d
    p, q = np.empty((steps + 1, M, n)), np.empty((steps, M, n, d))
    P = np.empty((steps + 1, M, n, n))
    p[steps], P[steps] = _terminal(spec, X)
    max_asym = 0.0
    for i, p_i, q_i, P_i, asym in adjoint_sweep(spec, grid, X, u, basis, W):
        p[i], q[i], P[i] = p_i, q_i, P_i
        max_asym = max(max_asym, asym)
    return AdjointFirst(p=p, q=q), AdjointSecond(P=P, max_presym_asymmetry=max_asym)


def solve_first_adjoint(
    spec: ProblemSpec, grid: TimeGrid, X: StateEnsemble, u: ControlProcess,
    basis: RegressionBasis, W: BrownianEnsemble,
) -> AdjointFirst:
    """Every step of the first-order adjoint (p, q), collected from adjoint_sweep."""
    return _collect(spec, grid, X, u, basis, W)[0]


def solve_second_adjoint(
    spec: ProblemSpec, grid: TimeGrid, X: StateEnsemble, u: ControlProcess,
    adj1: AdjointFirst, basis: RegressionBasis, W: BrownianEnsemble,
) -> AdjointSecond:
    """Every step of the second-order adjoint P, collected from adjoint_sweep.

    ``adj1`` is unused (the sweep solves p and q alongside P); it is kept
    for the existing callers.
    """
    return _collect(spec, grid, X, u, basis, W)[1]

