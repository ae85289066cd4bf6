"""Problem definitions: control domains, coefficient sets, LQ specializations.

All coefficient functions are batched: they take a scalar time ``t``, a state
block ``x`` of shape ``(B, n)`` and a control block ``u`` of shape ``(B, k)``
and return arrays with leading batch dimension ``B``.  Shape conventions:

    b(t, x, u)        -> (B, n)
    sigma(t, x, u)    -> (B, n, d)          columns sigma^i = sigma[..., i]
    f(t, x, u)        -> (B,)
    Phi(x)            -> (B,)
    b_x               -> (B, n, n)          [j, l] = d b^j / d x_l
    sigma_x           -> (B, n, n, d)       [j, l, i] = d sigma^{ji} / d x_l
    f_x, Phi_x        -> (B, n)
    b_xx              -> (B, n, n, n)       [j, l, m] = d^2 b^j / d x_l d x_m
    sigma_xx          -> (B, n, n, n, d)
    f_xx, Phi_xx      -> (B, n, n)

Every member of a ``CoefficientSet`` must be callable; it refuses one that is
not (a missing derivative, say) when built.  The package does not check the
derivatives against the functions they differentiate; ``tests/test_model.py``
checks those of every shipped problem by central differences.  Functions must
be pure: repeated evaluation at identical arguments yields bit-identical
results, and concurrent evaluation is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """A coefficient function returned an array of the wrong shape."""


@dataclass(frozen=True)
class ControlDomain:
    """Finite grid of admissible control points in R^k."""

    points: Array  # (V, k)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError(f"control domain points must form a 1-D or 2-D array, "
                             f"not one of shape {pts.shape}")
        if pts.size == 0:
            raise ValueError("control domain must contain at least one point")
        if not np.isfinite(pts).all():
            raise ValueError("control domain points must be finite")
        if len(np.unique(pts, axis=0)) != len(pts):
            raise ValueError("control domain contains duplicate points")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def k(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class CoefficientSet:
    """Drift, diffusion, running and terminal cost with x-derivatives."""

    b: Callable
    sigma: Callable
    f: Callable
    Phi: Callable
    b_x: Callable
    sigma_x: Callable
    f_x: Callable
    Phi_x: Callable
    b_xx: Callable
    sigma_xx: Callable
    f_xx: Callable
    Phi_xx: Callable

    def __post_init__(self):
        for member in fields(self):
            if not callable(getattr(self, member.name)):
                raise ValueError(f"coefficient {member.name} must be callable")


@dataclass(frozen=True)
class ProblemSpec:
    """A complete stochastic control problem on [0, T]."""

    n: int
    d: int
    k: int
    T: float
    x0: Array
    coefficients: CoefficientSet
    domain: ControlDomain

    def __post_init__(self):
        if min(self.n, self.d, self.k) < 1:
            raise ValueError("dimensions n, d, k must be positive")
        if not self.T > 0:
            raise ValueError("horizon T must be positive")
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.shape != (self.n,):
            raise ShapeError(f"x0 has shape {x0.shape}, expected ({self.n},)")
        object.__setattr__(self, "x0", x0)
        if self.domain.k != self.k:
            raise ShapeError(
                f"domain points have dimension {self.domain.k}, expected k={self.k}"
            )


@dataclass(frozen=True)
class LQSpec:
    """Linear dynamics, quadratic state cost, control only in the diffusion.

    b(t,x,u) = b1(t) x + b2(t),  sigma(t,x,u) = sigma_u(t,u),
    Phi(x) = x' Gamma x / 2,  f(t,x,u) = x' G(t) x / 2 + g(t,u).

    ``b1(t) -> (n,n)``, ``b2(t) -> (n,)``, ``G(t) -> (n,n)``,
    ``sigma_u(t, u:(B,k)) -> (B,n,d)``, ``g(t, u:(B,k)) -> (B,)``.
    """

    n: int
    d: int
    k: int
    T: float
    x0: Array
    b1: Callable
    b2: Callable
    G: Callable
    Gamma: Array
    sigma_u: Callable
    g: Callable
    domain: ControlDomain

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(-1))
        object.__setattr__(self, "Gamma", np.asarray(self.Gamma, dtype=float))


def lq_embed(lq: LQSpec) -> ProblemSpec:
    """Embed an LQ specification as a general problem with analytic derivatives."""
    n, d = lq.n, lq.d
    Gamma = lq.Gamma
    if not np.allclose(Gamma, Gamma.T, atol=1e-12):
        raise ValueError("Gamma must be symmetric")
    for t in np.linspace(0.0, lq.T, 9):
        Gt = np.asarray(lq.G(float(t)))
        if not np.allclose(Gt, Gt.T, atol=1e-12):
            raise ValueError(f"G(t) must be symmetric (violated at t={t})")

    def b(t, x, u):
        return np.einsum("ij,bj->bi", np.asarray(lq.b1(t)), x) + np.asarray(lq.b2(t))[None, :]

    def b_x(t, x, u):
        return np.broadcast_to(np.asarray(lq.b1(t)), (x.shape[0], n, n)).copy()

    def sigma(t, x, u):
        return np.asarray(lq.sigma_u(t, u))

    def sigma_x(t, x, u):
        return np.zeros((x.shape[0], n, n, d))

    def f(t, x, u):
        Gt = np.asarray(lq.G(t))
        return 0.5 * np.einsum("bi,ij,bj->b", x, Gt, x) + np.asarray(lq.g(t, u))

    def f_x(t, x, u):
        return x @ np.asarray(lq.G(t)).T

    def f_xx(t, x, u):
        return np.broadcast_to(np.asarray(lq.G(t)), (x.shape[0], n, n)).copy()

    def Phi(x):
        return 0.5 * np.einsum("bi,ij,bj->b", x, Gamma, x)

    def Phi_x(x):
        return x @ Gamma.T

    def Phi_xx(x):
        return np.broadcast_to(Gamma, (x.shape[0], n, n)).copy()

    def b_xx(t, x, u):
        return np.zeros((x.shape[0], n, n, n))

    def sigma_xx(t, x, u):
        return np.zeros((x.shape[0], n, n, n, d))

    coeffs = CoefficientSet(
        b=b, sigma=sigma, f=f, Phi=Phi,
        b_x=b_x, sigma_x=sigma_x, f_x=f_x, Phi_x=Phi_x,
        b_xx=b_xx, sigma_xx=sigma_xx, f_xx=f_xx, Phi_xx=Phi_xx,
    )
    return ProblemSpec(
        n=n, d=d, k=lq.k, T=lq.T, x0=lq.x0, coefficients=coeffs, domain=lq.domain
    )
