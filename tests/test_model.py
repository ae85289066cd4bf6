import dataclasses
import functools

import numpy as np
import pytest

from msa_control import (
    ControlDomain,
    LQSpec,
    ProblemSpec,
    ShapeError,
    get_problem,
    lq_embed,
    problem_names,
)

from conftest import coupled_lq2d, scalar_spec


def assert_derivatives(spec, samples, seed, rtol=1e-4):
    """At `samples` random (t, x, u), assert that each coefficient returns its
    documented shape, that each x-derivative matches central differences of
    the member it differentiates (within `rtol` relative to 1 + |analytic|),
    and that f_xx and Phi_xx are symmetric.  A failure names the member."""
    c, n, d = spec.coefficients, spec.n, spec.d
    shapes = {
        "b": (1, n), "sigma": (1, n, d), "f": (1,), "Phi": (1,),
        "b_x": (1, n, n), "sigma_x": (1, n, n, d), "f_x": (1, n), "Phi_x": (1, n),
        "b_xx": (1, n, n, n), "sigma_xx": (1, n, n, n, d), "f_xx": (1, n, n), "Phi_xx": (1, n, n),
    }
    # derivative -> (the member it differentiates, the axis of its x index)
    derivative_of = {
        "b_x": ("b", 2), "sigma_x": ("sigma", 2), "f_x": ("f", 1), "Phi_x": ("Phi", 1),
        "b_xx": ("b_x", 3), "sigma_xx": ("sigma_x", 3), "f_xx": ("f_x", 2), "Phi_xx": ("Phi_x", 2),
    }
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, spec.T, size=samples)
    xs = spec.x0[None, :] + rng.normal(scale=1.5, size=(samples, 1, n))
    us = spec.domain.points[rng.integers(0, spec.domain.size, size=samples)][:, None, :]
    for t, x, u in zip(ts, xs, us):

        def call(name, x):
            fn = getattr(c, name)
            return np.asarray(fn(x) if name.startswith("Phi") else fn(float(t), x, u))

        for name, shape in shapes.items():
            got = call(name, x).shape
            assert got == shape, f"{name} returned shape {got}, expected {shape}"
        h = 1e-5 * (1.0 + np.linalg.norm(x))
        for name, (member, axis) in derivative_of.items():
            analytic = call(name, x)
            for j in range(n):
                step = np.zeros_like(x)
                step[0, j] = h
                fd = (call(member, x + step) - call(member, x - step)) / (2.0 * h)
                exact = np.take(analytic, j, axis=axis)
                worst = np.max(np.abs(fd - exact) / (1.0 + np.abs(exact)))
                assert worst <= rtol, (f"{name} differs from central differences of {member} "
                                       f"by {worst:.3e} at t={t}, x={x[0]}, u={u[0]}")
        for name in ("f_xx", "Phi_xx"):
            mat = call(name, x)
            asym = np.abs(mat - mat.transpose(0, 2, 1)).max() / (1.0 + np.abs(mat).max())
            assert asym <= 1e-10, f"{name} is not symmetric: {asym:.3e} at x={x[0]}"


def unit_lq(**over):
    base = dict(
        n=1, d=1, k=1, T=1.0, x0=[0.0],
        b1=lambda t: np.array([[0.0]]),
        b2=lambda t: np.array([0.0]),
        G=lambda t: np.array([[1.0]]),
        Gamma=np.array([[1.0]]),
        sigma_u=lambda t, u: u[:, :, None],
        g=lambda t, u: np.zeros(u.shape[0]),
        domain=ControlDomain(np.array([[-1.0], [0.0], [1.0]])),
    )
    base.update(over)
    return LQSpec(**base)


class TestControlDomain:
    def test_size_and_dimension(self):
        dom = ControlDomain(np.array([[3.0, 4.0], [1.0, 0.0]]))
        assert dom.size == 2 and dom.k == 2

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            ControlDomain(np.array([[1.0], [1.0]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ControlDomain(np.empty((0, 1)))


class TestValidateSpec:
    """assert_derivatives on the hand-checkable specs, at the tolerances their
    derivatives are exact to: zero coefficients give no residual at all, and
    an embedded LQ is quadratic, so central differences miss only by rounding."""

    def test_zero_coefficients_all_pass(self, zero_spec):
        assert_derivatives(zero_spec, samples=8, seed=3, rtol=0.0)

    def test_lq_quadratic_derivatives(self):
        assert_derivatives(lq_embed(unit_lq()), samples=12, seed=0)

    def test_embedded_lq_near_zero_residual(self):
        assert_derivatives(lq_embed(unit_lq()), samples=12, seed=1, rtol=1e-8)

    def test_wrong_sigma_shape_named(self):
        spec = scalar_spec()
        bad_coeffs = dataclasses.replace(
            spec.coefficients, sigma=lambda t, x, u: np.zeros((x.shape[0], 1, 2))
        )
        bad = ProblemSpec(
            n=1, d=1, k=1, T=1.0, x0=[0.0], coefficients=bad_coeffs, domain=spec.domain
        )
        with pytest.raises(AssertionError, match=r"^sigma returned shape \(1, 1, 2\), expected"):
            assert_derivatives(bad, samples=2, seed=0)


class TestLQEmbed:
    def test_half_x_squared_derivatives(self):
        spec = lq_embed(unit_lq(G=lambda t: np.array([[0.0]])))
        x = np.array([[2.0]])
        assert spec.coefficients.Phi(x)[0] == pytest.approx(2.0)
        assert spec.coefficients.Phi_x(x)[0, 0] == pytest.approx(2.0)
        assert spec.coefficients.Phi_xx(x)[0, 0, 0] == pytest.approx(1.0)

    def test_running_cost_gradient_2d(self):
        dom = ControlDomain(np.array([[0.0, 0.0]]))
        lq = LQSpec(
            n=2, d=1, k=2, T=1.0, x0=[0.0, 0.0],
            b1=lambda t: np.zeros((2, 2)),
            b2=lambda t: np.zeros(2),
            G=lambda t: 2.0 * np.eye(2),
            Gamma=np.eye(2),
            sigma_u=lambda t, u: np.zeros((u.shape[0], 2, 1)),
            g=lambda t, u: np.zeros(u.shape[0]),
            domain=dom,
        )
        spec = lq_embed(lq)
        x = np.array([[1.0, 1.0]])
        u = np.array([[0.0, 0.0]])
        np.testing.assert_allclose(spec.coefficients.f_x(0.0, x, u)[0], [2.0, 2.0])
        assert spec.coefficients.f(0.0, x, u)[0] == pytest.approx(2.0)

    def test_nonsymmetric_gamma_rejected(self):
        with pytest.raises(ValueError, match="Gamma"):
            lq_embed(
                unit_lq(
                    n=2, k=1, x0=[0.0, 0.0],
                    b1=lambda t: np.zeros((2, 2)),
                    b2=lambda t: np.zeros(2),
                    G=lambda t: np.eye(2),
                    Gamma=np.array([[1.0, 0.5], [0.0, 1.0]]),
                    sigma_u=lambda t, u: np.zeros((u.shape[0], 2, 1)),
                )
            )

    def test_purity(self):
        spec = lq_embed(unit_lq())
        x = np.array([[0.7]])
        u = np.array([[0.5]])
        a = spec.coefficients.f(0.3, x, u)
        b = spec.coefficients.f(0.3, x, u)
        assert np.array_equal(a, b)


SPECS = {
    **{name: functools.partial(get_problem, name) for name in problem_names()},
    "coupled-lq2d": lambda: lq_embed(coupled_lq2d()),
}


class TestDerivatives:
    @pytest.mark.parametrize("name", list(SPECS))
    def test_match_central_differences(self, name):
        assert_derivatives(SPECS[name](), samples=64, seed=0)

    def test_wrong_derivative_named(self):
        # the negative control: a b_x off by 1% fails, and is named
        spec = get_problem("nonconvex-diffusion")
        b_x = spec.coefficients.b_x
        off = dataclasses.replace(spec.coefficients, b_x=lambda t, x, u: 1.01 * b_x(t, x, u))
        with pytest.raises(AssertionError, match="^b_x differs from central differences of b "):
            assert_derivatives(dataclasses.replace(spec, coefficients=off), samples=8, seed=0)


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: dataclasses.replace(scalar_spec(), n=0), ValueError, "dimensions"),
        (lambda: dataclasses.replace(scalar_spec(), d=-1), ValueError, "dimensions"),
        (lambda: dataclasses.replace(scalar_spec(), k=0), ValueError, "dimensions"),
        (
            lambda: dataclasses.replace(scalar_spec(), domain=ControlDomain(np.array([[0.0, 1.0]]))),
            ShapeError,
            "dimension 2, expected k=1",
        ),
        (lambda: ControlDomain(np.array([[0.0], [np.nan]])), ValueError, "must be finite"),
        (lambda: ControlDomain(np.array([[np.nan], [np.nan]])), ValueError, "must be finite"),
        (lambda: ControlDomain(np.array([[0.0], [-np.inf]])), ValueError, "must be finite"),
        (lambda: ControlDomain(np.array([[[0.0]], [[1.0]]])), ValueError,
         r"1-D or 2-D array, not one of shape \(2, 1, 1\)"),
        (lambda: ControlDomain(np.array(1.0)), ValueError,
         r"1-D or 2-D array, not one of shape \(\)"),
        (
            lambda: dataclasses.replace(scalar_spec().coefficients, b_xx=None),
            ValueError,
            "coefficient b_xx must be callable",
        ),
        (
            lambda: lq_embed(unit_lq(
                n=2, k=1, x0=[0.0, 0.0],
                b1=lambda t: np.zeros((2, 2)),
                b2=lambda t: np.zeros(2),
                G=lambda t: np.array([[1.0, 0.5], [0.0, 1.0]]),
                Gamma=np.eye(2),
                sigma_u=lambda t, u: np.zeros((u.shape[0], 2, 1)),
            )),
            ValueError,
            r"G\(t\) must be symmetric",
        ),
    ],
    ids=["n=0", "d=-1", "k=0", "domain-k", "domain-nan", "domain-two-nan", "domain-inf",
         "domain-3d", "domain-scalar", "coefficient-none", "asymmetric-G"],
)
def test_invalid_input_rejected(build, error, match):
    with pytest.raises(error, match=match):
        build()
