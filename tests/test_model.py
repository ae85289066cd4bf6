import dataclasses

import numpy as np
import pytest

from msa_control import (
    ControlDomain,
    LQSpec,
    ShapeError,
    ValidationCheck,
    ValidationReport,
    lq_embed,
    validate_spec,
)

from conftest import scalar_spec


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
    def test_zero_coefficients_all_pass(self, zero_spec):
        report = validate_spec(zero_spec, samples=8, seed=3)
        assert report.passed
        for check in report.checks:
            assert check.worst_residual == 0.0

    def test_lq_quadratic_derivatives(self):
        spec = lq_embed(unit_lq())
        report = validate_spec(spec, samples=12, seed=0)
        assert report.passed

    def test_embedded_lq_near_zero_residual(self):
        spec = lq_embed(unit_lq())
        report = validate_spec(spec, samples=12, seed=1)
        for check in report.checks:
            if "vs fd" in check.name:
                assert check.worst_residual <= 1e-8, check.name

    def test_wrong_sigma_shape_named(self):
        import dataclasses

        from msa_control import ProblemSpec

        spec = scalar_spec()
        bad_coeffs = dataclasses.replace(
            spec.coefficients, sigma=lambda t, x, u: np.zeros((x.shape[0], 1, 2))
        )
        bad = ProblemSpec(
            n=1, d=1, k=1, T=1.0, x0=[0.0], coefficients=bad_coeffs, domain=spec.domain
        )
        with pytest.raises(ShapeError, match="sigma"):
            validate_spec(bad, samples=2, seed=0)

    def test_report_prints_one_line_per_check(self, zero_spec):
        report = validate_spec(zero_spec, samples=2, seed=0)
        lines = str(report).splitlines()
        assert len(lines) == len(report.checks)
        assert lines[0] == "PASS  shapes  worst=0.000e+00"
        assert str(ValidationReport([ValidationCheck("x", False, 1.5)])) == "FAIL  x  worst=1.500e+00"

    def test_deterministic_given_seed(self, zero_spec):
        r1 = validate_spec(zero_spec, samples=6, seed=9)
        r2 = validate_spec(zero_spec, samples=6, seed=9)
        assert [c.worst_residual for c in r1.checks] == [
            c.worst_residual for c in r2.checks
        ]


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
        (lambda: validate_spec(scalar_spec(), samples=0), ValueError, "samples"),
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
         "samples=0", "coefficient-none", "asymmetric-G"],
)
def test_invalid_input_rejected(build, error, match):
    with pytest.raises(error, match=match):
        build()
