"""Built-in benchmark problems: one builder per name, returning a ProblemSpec
or an LQSpec (embedded by ``get_problem``; its name is one of ``lq_names``).

"lq-scalar" is a scalar linear-quadratic benchmark with the control entering
only the diffusion, for which the Lyapunov oracle is available.
"nonconvex-diffusion" has a two-point (non-convex) control set and a
state-dependent, control-dependent diffusion.
"""

from __future__ import annotations

import numpy as np

from .model import CoefficientSet, ControlDomain, LQSpec, ProblemSpec, lq_embed


def lq_scalar() -> LQSpec:
    """dX = -0.5 X dt + (0.3 + 0.5 u) dW, cost (X_T^2 + int X^2)/2 + 0.1 int u^2."""
    domain = ControlDomain(np.linspace(-1.0, 1.0, 21)[:, None])
    return LQSpec(
        n=1,
        d=1,
        k=1,
        T=1.0,
        x0=[1.0],
        b1=lambda t: np.array([[-0.5]]),
        b2=lambda t: np.array([0.0]),
        G=lambda t: np.array([[1.0]]),
        Gamma=np.array([[1.0]]),
        sigma_u=lambda t, u: (0.3 + 0.5 * u[:, 0])[:, None, None],
        g=lambda t, u: 0.1 * u[:, 0] ** 2,
        domain=domain,
    )


def nonconvex_diffusion() -> ProblemSpec:
    """dX = sin(X) dt + (0.2 + 0.4 u cos X) dW, u in {-1, 1}, f = x^2 + 0.1."""
    domain = ControlDomain(np.array([[-1.0], [1.0]]))

    def b(t, x, u):
        return np.sin(x)

    def b_x(t, x, u):
        return np.cos(x)[:, :, None]

    def b_xx(t, x, u):
        return -np.sin(x)[:, :, None, None]

    def sigma(t, x, u):
        return (0.2 + 0.4 * u[:, 0] * np.cos(x[:, 0]))[:, None, None]

    def sigma_x(t, x, u):
        return (-0.4 * u[:, 0] * np.sin(x[:, 0]))[:, None, None, None]

    def sigma_xx(t, x, u):
        return (-0.4 * u[:, 0] * np.cos(x[:, 0]))[:, None, None, None, None]

    def f(t, x, u):
        return x[:, 0] ** 2 + 0.1

    def f_x(t, x, u):
        return 2.0 * x

    def f_xx(t, x, u):
        return np.full((x.shape[0], 1, 1), 2.0)

    def Phi(x):
        return np.zeros(x.shape[0])

    def Phi_x(x):
        return np.zeros_like(x)

    def Phi_xx(x):
        return np.zeros((x.shape[0], 1, 1))

    coeffs = CoefficientSet(
        b=b, sigma=sigma, f=f, Phi=Phi,
        b_x=b_x, sigma_x=sigma_x, f_x=f_x, Phi_x=Phi_x,
        b_xx=b_xx, sigma_xx=sigma_xx, f_xx=f_xx, Phi_xx=Phi_xx,
    )
    return ProblemSpec(
        n=1, d=1, k=1, T=1.0, x0=[0.5], coefficients=coeffs, domain=domain
    )


_REGISTRY = {"lq-scalar": lq_scalar, "nonconvex-diffusion": nonconvex_diffusion}


def problem_names():
    return sorted(_REGISTRY)


def lq_names():
    return [name for name in problem_names() if isinstance(_REGISTRY[name](), LQSpec)]


def get_problem(name: str) -> ProblemSpec:
    if name not in _REGISTRY:
        raise KeyError(f"unknown problem {name!r}; known: {problem_names()}")
    spec = _REGISTRY[name]()
    return lq_embed(spec) if isinstance(spec, LQSpec) else spec


def get_lq(name: str) -> LQSpec:
    if name not in lq_names():
        raise KeyError(f"unknown LQ problem {name!r}; known: {lq_names()}")
    return _REGISTRY[name]()
