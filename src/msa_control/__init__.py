"""Successive-approximation solver for stochastic control with controlled
diffusion and finite (possibly non-convex) control sets."""

from .adjoint import (
    AdjointFirst,
    AdjointSecond,
    RegressionBasis,
    adjoint_sweep,
    hessian_of_H,
    solve_first_adjoint,
    solve_second_adjoint,
)
from .hamiltonian import GapProcess, gap_process, h_function, minimize_h, mu
from .model import (
    CoefficientSet,
    ControlDomain,
    LQSpec,
    ProblemSpec,
    ShapeError,
    lq_embed,
)
from .msa import (
    CSV_HEADER,
    IterationRecord,
    MSAConfig,
    MSARun,
    SolverState,
    check_descent_log,
    dyadic_interval,
    find_descent_interval,
    msa_step,
    prepare_state,
    records_from_csv,
    records_to_csv,
    run_msa,
    spike_control,
)
from .oracle import (
    LQOracle,
    RateResult,
    RemainderResult,
    SequenceResult,
    VariationalResult,
    build_oracle,
    lq_closed_form_adjoint,
    lyapunov_solve,
    rate_experiment,
    remainder_experiment,
    sequence_lemma_check,
    variational_experiment,
    variational_simulate,
)
from .paths import (
    BrownianEnsemble,
    ControlProcess,
    ProvenanceError,
    SimulationError,
    StateEnsemble,
    TimeGrid,
    array_bytes,
    evaluate_cost,
    generate_brownian,
    load_array,
    pathwise_cost,
    simulate_state,
)
from .registry import get_lq, get_problem, lq_names, problem_names

__version__ = "0.1.0"
