"""Modified successive approximations: dyadic spike search and descent loop.

Each iteration solves both adjoints and the Hamiltonian gap for the current
control in one backward sweep, then searches dyadic levels N = 1, 2, ... for
a spike interval whose candidate control passes the descent acceptance test

    J(candidate) - J(u) <= eps_N * mu(u) / T

evaluated exactly on the frozen ensemble.  The level search restarts at
N = 1 each iteration.  The accepted candidate's simulated states and cost
carry over to the next iteration's sweep.  run_msa holds one generation of
per-path arrays: W, the control, its gaps and one candidate with its states.
A dyadic interval E_j^N is handled as its half-open range of grid steps,
``dyadic_interval(N, j, grid)``.

The order experiments in ``oracle`` (bar the conditional remainder) share the solver's
``_start`` (the ensemble from a config, the simulated start control) and ``prepare_state``.
On 2+ CPUs, prepare_state's sweep runs in a forked child that hands each step's
adjoints to the caller's H-minimization (``hamiltonian._overlapped_gaps``); on one
CPU, or if that child fails, the serial ``gap_process`` gives the same bits or error.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, fields
from typing import Optional, Tuple, Union

import numpy as np

from .adjoint import RegressionBasis, adjoint_sweep
from .hamiltonian import GapProcess, _overlapped_gaps, gap_process, mu
from .model import ProblemSpec
from .paths import (
    BrownianEnsemble,
    ControlProcess,
    SimulationError,
    StateEnsemble,
    TimeGrid,
    _check_seed,
    _euler_step,
    evaluate_cost,
    generate_brownian,
    simulate_state,
)

Array = np.ndarray

# Relative slack when testing the interval-selection inequality: the interval
# sums and mu are accumulated in different orders, so exact-equality cases
# (uniform gaps) can miss by a few ulps.
_INTERVAL_SLACK = 1e-9


def passes_descent(J_new: float, J: float, mu: float, N: int, T: float) -> bool:
    """The descent test J_new - J <= eps_N mu / T, eps_N = T 2^-N (False on a NaN)."""
    return J_new - J <= T * 2.0 ** (-N) * mu / T


def dyadic_interval(N: int, j: int, grid: TimeGrid) -> Tuple[int, int]:
    """The grid steps [lo, hi) of E_j^N = [(2j-2) eps_N, 2j eps_N), eps_N = T 2^-N."""
    if N < 1 or N > grid.depth:
        raise ValueError(f"level N={N} outside 1..{grid.depth}")
    if not 1 <= j <= 1 << (N - 1):
        raise ValueError(f"index j={j} outside 1..{1 << (N - 1)}")
    cells = 1 << (grid.depth - N)  # grid steps per eps_N
    return (2 * j - 2) * cells, 2 * j * cells


def spike_control(
    u: ControlProcess, gaps: GapProcess, step_range: Tuple[int, int]
) -> ControlProcess:
    """Replace u by the pathwise H-minimizer on the grid steps [lo, hi)."""
    lo, hi = step_range
    steps = u.values.shape[0]
    if not (0 <= lo < hi <= steps):
        raise ValueError(f"interval steps [{lo}, {hi}) misaligned with grid of {steps} steps")
    vals = u.values.astype(np.result_type(u.values, gaps.argmin_indices))  # a copy, never narrower
    vals[lo:hi] = gaps.argmin_indices[lo:hi]
    return ControlProcess(vals, u.num_points)


def find_descent_interval(
    gaps: GapProcess, mu_value: float, N: int, grid: TimeGrid, T: float
) -> Optional[int]:
    """Smallest j whose interval gap integral is <= 2 eps_N mu / T, else None.

    Each path's steps in an interval are added in ascending order, then the
    paths pairwise.
    """
    if N < 1 or N > grid.depth:
        raise ValueError(f"level N={N} outside 1..{grid.depth}")
    M = gaps.values.shape[1]
    blocks = gaps.values.reshape(1 << (N - 1), -1, M).sum(axis=1)
    integrals = blocks.sum(axis=1) / M * grid.dt  # one per interval j
    eps = T * 2.0 ** (-N)
    threshold = 2.0 * eps * mu_value / T
    slack = _INTERVAL_SLACK * max(1.0, abs(threshold))
    hits = np.nonzero(integrals <= threshold + slack)[0]
    if hits.size == 0:
        return None
    return int(hits[0]) + 1


@dataclass(frozen=True)
class IterationRecord:
    m: int
    J: float
    mu: float
    N: int
    j: int
    accepted: bool
    wall_time: float


@dataclass(frozen=True)
class MSAConfig:
    mu_tol: float = 1e-6
    m_max: int = 50
    N_max: Optional[int] = None  # deepest dyadic level tried; None: depth
    M: int = 10_000
    depth: int = 8
    seed: int = 7
    degree: int = 2
    ridge: float = 1e-8

    def __post_init__(self):
        # written as "not ok" so that a NaN fails them
        if not self.depth >= 1:
            raise ValueError("grid depth must be at least 1")
        if self.N_max is None:
            object.__setattr__(self, "N_max", self.depth)
        if not 1 <= self.N_max <= self.depth:
            raise ValueError("N_max must be between 1 and the grid depth")
        if not (self.m_max >= 0 and self.M >= 1):
            raise ValueError("m_max must be >= 0 and M >= 1")
        if not (self.mu_tol >= 0 and self.degree >= 0 and self.ridge >= 0):
            raise ValueError("mu_tol, degree and ridge must be nonnegative")
        _check_seed(self.seed)
        if self.ridge == 0 and self.degree >= 1:
            # every path starts at x0, so the step-0 design matrix has rank 1
            raise ValueError("ridge = 0 needs degree = 0: the step-0 regression is rank 1")

    @property
    def basis(self) -> RegressionBasis:
        return RegressionBasis(degree=self.degree, ridge=self.ridge)


@dataclass
class SolverState:
    m: int
    u: ControlProcess
    gaps: GapProcess
    J: float
    mu: float


def _require_finite(stage: str, value: float, m: int) -> None:
    if not np.isfinite(value):
        raise SimulationError(f"non-finite {stage} {value!r} at iteration {m}")


def prepare_state(
    spec: ProblemSpec,
    grid: TimeGrid,
    W: BrownianEnsemble,
    u: ControlProcess,
    X: StateEnsemble,
    J: float,
    basis: RegressionBasis,
    m: int = 0,
) -> SolverState:
    """Evaluate the gap process and mu for a control already simulated (X)
    and costed (J) on the frozen ensemble, in one backward adjoint sweep;
    a non-finite J (checked first) or mu raises SimulationError."""
    _require_finite("cost", J, m)
    adjoints = adjoint_sweep(spec, grid, X, u, basis, W)  # a forked child drains its own copy
    gaps = _overlapped_gaps(spec, grid, X, u, adjoints) or gap_process(spec, grid, X, u, adjoints)
    state = SolverState(m=m, u=u, gaps=gaps, J=J, mu=mu(gaps, grid))
    _require_finite("mu", state.mu, m)
    return state


@dataclass(frozen=True)
class StepOutcome:
    kind: str  # "accepted" | "converged" | "exhausted"
    record: Optional[IterationRecord] = None
    candidate: Optional[Tuple[ControlProcess, StateEnsemble, float]] = None  # accepted u, X, J


def msa_step(
    spec: ProblemSpec,
    grid: TimeGrid,
    W: BrownianEnsemble,
    state: SolverState,
    config: MSAConfig,
) -> StepOutcome:
    """One solver iteration starting from a prepared solver state."""
    t0 = time.perf_counter()
    if abs(state.mu) <= config.mu_tol:
        return StepOutcome(kind="converged")
    for N in range(1, config.N_max + 1):
        j = find_descent_interval(state.gaps, state.mu, N, grid, spec.T)
        if j is None:
            continue
        cand = spike_control(state.u, state.gaps, dyadic_interval(N, j, grid))
        X_cand = simulate_state(spec, grid, W, cand)
        J_cand = evaluate_cost(spec, grid, X_cand, cand)
        if not np.isfinite(J_cand):
            raise SimulationError(
                f"non-finite candidate cost at iteration {state.m}, level {N}, interval {j}"
            )
        if passes_descent(J_cand, state.J, state.mu, N, spec.T):
            rec = IterationRecord(
                m=state.m,
                J=state.J,
                mu=state.mu,
                N=N,
                j=j,
                accepted=True,
                wall_time=time.perf_counter() - t0,
            )
            return StepOutcome(kind="accepted", record=rec, candidate=(cand, X_cand, J_cand))
        del cand, X_cand  # released before the next level's candidate is built
    return StepOutcome(kind="exhausted")


@dataclass
class MSARun:
    records: list
    final_control: ControlProcess
    termination: str  # "converged" | "exhausted" | "budget"
    J_final: float
    mu_final: float
    grid: TimeGrid
    ensemble: BrownianEnsemble
    J0: float
    mu0: float


def _initial_control(
    spec: ProblemSpec,
    grid: TimeGrid,
    W: BrownianEnsemble,
    u0: Union[ControlProcess, str, int, None],
) -> ControlProcess:
    """u0 if a ControlProcess, else the constant control at domain index u0
    (int or numpy integer), at 0 ("first-point", None) or "worst-constant"."""
    if isinstance(u0, ControlProcess):
        return u0
    if u0 is None or u0 == "first-point":
        u0 = 0
    elif u0 == "worst-constant":
        u0 = _worst_constant(spec, grid, W)
    elif not isinstance(u0, (int, np.integer)):
        raise ValueError(f"unknown initializer {u0!r}")
    return ControlProcess.constant(u0, W.M, W.steps, spec.domain.size)


def _worst_constant(spec: ProblemSpec, grid: TimeGrid, W: BrownianEnsemble) -> int:
    """Index of the costliest constant control (ties: the smallest index).

    One Euler pass over all V controls on V*M candidate-major rows keeps only
    the current state and a running cost (f dt by ascending step, Phi last).
    It has its own loop because V simulate_state + evaluate_cost calls are slower:
    0.31-0.49 s against 0.10-0.15 s on lq-scalar at M=2000, G=8, V=21 (2-CPU AVX-512 host).
    """
    c = spec.coefficients
    pts = spec.domain.points
    V, M = pts.shape[0], W.M
    u_pts = np.repeat(pts, M, axis=0)
    x = np.broadcast_to(spec.x0, (V * M, spec.n))
    cost = np.zeros(V * M)
    for i in range(W.steps):
        cost += np.asarray(c.f(i * grid.dt, x, u_pts)) * grid.dt
        x = _euler_step(spec, grid, i, x, u_pts, np.tile(W.increments[i], (V, 1)))
        bad = ~np.isfinite(x).all(axis=1)
        if bad.any():
            row = int(np.argmax(bad))
            raise SimulationError(
                f"non-finite state under constant control {row // M} "
                f"at path {row % M}, step {i + 1}"
            )
    cost += np.asarray(c.Phi(x))
    return int(np.argmax(cost.reshape(V, M).sum(axis=1) / M))


def _start(spec, config, u0, W=None):
    """(grid, W, u, X): the grid of config.depth, W drawn from config.seed
    unless given, u0 resolved by _initial_control and its simulated states."""
    grid = TimeGrid(T=spec.T, depth=config.depth)
    if W is None:
        W = generate_brownian(grid, config.M, spec.d, config.seed)
    u = _initial_control(spec, grid, W, u0)
    return grid, W, u, simulate_state(spec, grid, W, u)


def run_msa(
    spec: ProblemSpec,
    config: MSAConfig,
    u0: Union[ControlProcess, str, int, None] = None,
    W: Optional[BrownianEnsemble] = None,
) -> MSARun:
    """Iterate msa_step to termination on a frozen Brownian ensemble."""
    grid, W, u, X = _start(spec, config, u0, W)
    state = prepare_state(spec, grid, W, u, X, evaluate_cost(spec, grid, X, u), config.basis)
    del u, X  # state holds u; the start's states are not read again
    J0, mu0 = state.J, state.mu
    records: list = []
    termination = "budget"
    while state.m < config.m_max:
        outcome = msa_step(spec, grid, W, state, config)
        if outcome.kind != "accepted":
            termination = outcome.kind
            break
        records.append(outcome.record)
        cand, m = outcome.candidate, state.m + 1
        # one generation: the old state goes before the sweep, the candidate's X after it
        state = outcome = None
        state, cand = prepare_state(spec, grid, W, *cand, config.basis, m=m), None
    # terminal row: final J and mu, re-checkable against the last accepted row
    records.append(
        IterationRecord(
            m=state.m, J=state.J, mu=state.mu, N=0, j=0, accepted=False, wall_time=0.0
        )
    )
    return MSARun(
        records=records,
        final_control=state.u,
        termination=termination,
        J_final=state.J,
        mu_final=state.mu,
        grid=grid,
        ensemble=W,
        J0=J0,
        mu0=mu0,
    )


# The log's columns are IterationRecord's fields; parsers keyed by type name
_FIELDS = fields(IterationRecord)
_PARSE = {"int": int, "float": float, "bool": lambda s: bool(int(s))}
CSV_HEADER = [f.name for f in _FIELDS]


def to_csv(header, rows) -> str:
    """A CSV table: floats at full (shortest round-trip) precision, bools as 0/1."""
    return "".join(
        ",".join(str(int(v)) if isinstance(v, bool) else str(v) for v in row) + "\n"
        for row in (header, *rows)
    )


def records_to_csv(records) -> str:
    """The iteration log: one CSV_HEADER column per IterationRecord field."""
    return to_csv(CSV_HEADER, map(astuple, records))


def records_from_csv(text: str):
    rows = [line.split(",") for line in text.splitlines()]
    if rows[:1] != [CSV_HEADER]:
        raise ValueError(f"iterations CSV header {next(iter(rows), [])} is not {CSV_HEADER}")
    return [
        IterationRecord(*(_PARSE[f.type](v) for f, v in zip(_FIELDS, row, strict=True)))
        for row in rows[1:]
    ]


def check_descent_log(records, T: float) -> bool:
    """Re-check the acceptance inequality for every accepted row in a log."""
    return all(
        passes_descent(nxt.J, prev.J, prev.mu, prev.N, T)
        for prev, nxt in zip(records, records[1:])
        if prev.accepted
    )
