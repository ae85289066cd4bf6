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

Functions must be pure: repeated evaluation at identical arguments yields
bit-identical results, and concurrent evaluation is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """A coefficient function returned an array of the wrong shape."""


@dataclass(frozen=True)
class ControlDomain:
    """Finite grid of admissible control points in R^k."""

    points: Array  # (V, k)
    alpha: float = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.size == 0:
            raise ValueError("control domain must contain at least one point")
        if len(np.unique(pts, axis=0)) != len(pts):
            raise ValueError("control domain contains duplicate points")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "alpha", float(np.linalg.norm(pts, axis=1).max()))

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


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    worst_residual: float


@dataclass(frozen=True)
class ValidationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        lines = [
            f"{'PASS' if c.passed else 'FAIL'}  {c.name}  worst={c.worst_residual:.3e}"
            for c in self.checks
        ]
        return "\n".join(lines)


_FD_RTOL = 1e-4
_SYM_TOL = 1e-10


def _fd_step(x: Array) -> float:
    return 1e-5 * (1.0 + float(np.linalg.norm(x)))


def _check_shapes(spec: ProblemSpec, t: float, x: Array, u: Array) -> None:
    n, d = spec.n, spec.d
    c = spec.coefficients
    expected = {
        "b": (c.b(t, x, u), (1, n)),
        "sigma": (c.sigma(t, x, u), (1, n, d)),
        "f": (c.f(t, x, u), (1,)),
        "Phi": (c.Phi(x), (1,)),
        "b_x": (c.b_x(t, x, u), (1, n, n)),
        "sigma_x": (c.sigma_x(t, x, u), (1, n, n, d)),
        "f_x": (c.f_x(t, x, u), (1, n)),
        "Phi_x": (c.Phi_x(x), (1, n)),
        "b_xx": (c.b_xx(t, x, u), (1, n, n, n)),
        "sigma_xx": (c.sigma_xx(t, x, u), (1, n, n, n, d)),
        "f_xx": (c.f_xx(t, x, u), (1, n, n)),
        "Phi_xx": (c.Phi_xx(x), (1, n, n)),
    }
    for name, (val, shape) in expected.items():
        got = np.asarray(val).shape
        if got != shape:
            raise ShapeError(f"{name} returned shape {got}, expected {shape}")


def _fd_residual(fn, dfn, t, x, u, n, axis, uses_t=True):
    """Worst relative mismatch between dfn and central differences of fn.

    ``axis`` is the axis of dfn's output holding the differentiation index.
    """
    h = _fd_step(x)

    def call(xx):
        return np.asarray(fn(t, xx, u) if uses_t else fn(xx))

    base = np.asarray(dfn(t, x, u) if uses_t else dfn(x))
    worst = 0.0
    for j in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[0, j] += h
        xm[0, j] -= h
        fd = (call(xp) - call(xm)) / (2.0 * h)
        analytic = np.take(base, j, axis=axis)
        denom = 1.0 + np.abs(analytic)
        worst = max(worst, float(np.max(np.abs(fd - analytic) / denom)))
    return worst


def validate_spec(spec: ProblemSpec, samples: int = 16, seed: int = 0) -> ValidationReport:
    """Spot-check shapes, derivatives, symmetry and Lipschitz ratios.

    Shape mismatches raise :class:`ShapeError`; everything else is reported.
    Deterministic given ``seed``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    c = spec.coefficients
    n = spec.n

    ts = rng.uniform(0.0, spec.T, size=samples)
    xs = spec.x0[None, :] + rng.normal(scale=1.5, size=(samples, 1, n))
    us = spec.domain.points[rng.integers(0, spec.domain.size, size=samples)][:, None, :]

    _check_shapes(spec, float(ts[0]), xs[0], us[0])
    checks = [ValidationCheck("shapes", True, 0.0)]

    fd_pairs = [
        ("b_x vs fd(b)", c.b, c.b_x, True, 2),
        ("sigma_x vs fd(sigma)", c.sigma, c.sigma_x, True, 2),
        ("f_x vs fd(f)", c.f, c.f_x, True, 1),
        ("Phi_x vs fd(Phi)", c.Phi, c.Phi_x, False, 1),
        ("b_xx vs fd(b_x)", c.b_x, c.b_xx, True, 3),
        ("sigma_xx vs fd(sigma_x)", c.sigma_x, c.sigma_xx, True, 3),
        ("f_xx vs fd(f_x)", c.f_x, c.f_xx, True, 2),
        ("Phi_xx vs fd(Phi_x)", c.Phi_x, c.Phi_xx, False, 2),
    ]
    for name, fn, dfn, uses_t, axis in fd_pairs:
        worst = 0.0
        for s in range(samples):
            t, x, u = float(ts[s]), xs[s], us[s]
            worst = max(worst, _fd_residual(fn, dfn, t, x, u, n, axis, uses_t))
        checks.append(ValidationCheck(name, worst <= _FD_RTOL, worst))

    sym_worst = 0.0
    for s in range(samples):
        t, x, u = float(ts[s]), xs[s], us[s]
        for mat in (np.asarray(c.f_xx(t, x, u)), np.asarray(c.Phi_xx(x))):
            scale = 1.0 + np.abs(mat).max()
            sym_worst = max(sym_worst, float(np.abs(mat - mat.transpose(0, 2, 1)).max() / scale))
    checks.append(ValidationCheck("f_xx/Phi_xx symmetry", sym_worst <= _SYM_TOL, sym_worst))

    # Sampled Lipschitz ratios of the second derivatives (advisory).
    lip_worst = 0.0
    for s in range(samples - 1):
        t, u = float(ts[s]), us[s]
        x1, x2 = xs[s], xs[s + 1]
        dx = float(np.linalg.norm(x1 - x2))
        if dx < 1e-12:
            continue
        for fn, uses_t in ((c.b_xx, True), (c.sigma_xx, True), (c.f_xx, True), (c.Phi_xx, False)):
            v1 = np.asarray(fn(t, x1, u) if uses_t else fn(x1))
            v2 = np.asarray(fn(t, x2, u) if uses_t else fn(x2))
            lip_worst = max(lip_worst, float(np.linalg.norm((v1 - v2).ravel()) / dx))
    checks.append(ValidationCheck("second-derivative Lipschitz ratio (advisory)", True, lip_worst))

    return ValidationReport(checks)


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
        return x @ np.asarray(lq.b1(t)).T + np.asarray(lq.b2(t))[None, :]

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
