import importlib
import types

import numpy as np
import pytest

import msa_control
from msa_control import LQSpec, ProblemSpec, get_lq, get_problem, lq_embed, lq_names, problem_names


def test_names():
    assert problem_names() == ["lq-scalar", "nonconvex-diffusion"]
    assert lq_names() == ["lq-scalar"]
    assert set(lq_names()) <= set(problem_names())


def test_public_names():
    # adding or removing a name of the package takes an edit here; submodules are not names
    names = sorted(
        name for name, value in vars(msa_control).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == [
        "AdjointFirst", "AdjointSecond", "BrownianEnsemble", "CSV_HEADER", "CoefficientSet",
        "ControlDomain", "ControlProcess", "GapProcess", "IterationRecord", "LQOracle", "LQSpec",
        "MSAConfig", "MSARun", "ProblemSpec", "ProvenanceError", "RateResult", "RegressionBasis",
        "RemainderResult", "SequenceResult", "ShapeError",
        "SimulationError", "SolverState", "StateEnsemble", "TimeGrid", "VariationalResult",
        "adjoint_sweep", "array_bytes", "build_oracle", "check_descent_log", "dyadic_interval",
        "evaluate_cost",
        "find_descent_interval", "gap_process", "generate_brownian", "get_lq", "get_problem",
        "h_function", "hessian_of_H", "load_array", "lq_closed_form_adjoint",
        "lq_embed", "lq_names", "lyapunov_solve", "minimize_h", "msa_step", "mu",
        "pathwise_cost", "prepare_state", "problem_names", "rate_experiment",
        "records_from_csv", "records_to_csv", "remainder_experiment", "run_msa",
        "sequence_lemma_check", "simulate_state", "solve_first_adjoint", "solve_second_adjoint",
        "spike_control", "variational_experiment", "variational_simulate",
    ]
    # and no name shadows a submodule: once imported, the package's attribute is the module
    for m in ("adjoint", "cli", "hamiltonian", "model", "msa", "oracle", "paths", "registry"):
        module = importlib.import_module(f"msa_control.{m}")
        assert getattr(msa_control, m) is module, m


@pytest.mark.parametrize("name", ["lq-scalar", "nonconvex-diffusion"])
def test_get_problem_returns_problem_spec(name):
    assert isinstance(get_problem(name), ProblemSpec)


def test_get_lq_returns_lq_spec():
    assert isinstance(get_lq("lq-scalar"), LQSpec)


def test_unknown_problem():
    with pytest.raises(KeyError) as exc:
        get_problem("no-such-problem")
    assert exc.value.args[0] == (
        "unknown problem 'no-such-problem'; known: ['lq-scalar', 'nonconvex-diffusion']"
    )


@pytest.mark.parametrize("name", ["no-such-problem", "nonconvex-diffusion"])
def test_unknown_lq_problem(name):
    with pytest.raises(KeyError) as exc:
        get_lq(name)
    assert exc.value.args[0] == f"unknown LQ problem {name!r}; known: ['lq-scalar']"


@pytest.mark.parametrize("name", lq_names())
def test_problem_is_embedded_lq(name):
    spec, embedded = get_problem(name), lq_embed(get_lq(name))
    assert (spec.n, spec.d, spec.k, spec.T) == (embedded.n, embedded.d, embedded.k, embedded.T)
    np.testing.assert_array_equal(spec.x0, embedded.x0)
    np.testing.assert_array_equal(spec.domain.points, embedded.domain.points)
    x = np.linspace(-2.0, 2.0, 5 * spec.n).reshape(5, spec.n)
    u = spec.domain.points[np.linspace(0, spec.domain.size - 1, 5).astype(int)]
    a, b = spec.coefficients, embedded.coefficients
    for t in (0.0, 0.3, 1.0):
        for fn in ("b", "sigma", "f", "b_x", "sigma_x", "f_x", "f_xx"):
            np.testing.assert_array_equal(getattr(a, fn)(t, x, u), getattr(b, fn)(t, x, u))
    for fn in ("Phi", "Phi_x", "Phi_xx"):
        np.testing.assert_array_equal(getattr(a, fn)(x), getattr(b, fn)(x))
