"""Modified successive approximations: dyadic spike search and descent loop.

Each iteration solves both adjoints and the Hamiltonian gap for the current
control, then searches dyadic levels N = 1, 2, ... for a spike interval
whose candidate control passes the descent acceptance test

    J(candidate) - J(u) <= eps_N * mu(u) / T

evaluated exactly on the frozen ensemble.  The level search restarts at
N = 1 each iteration.  The accepted candidate's simulated states and cost
carry over to the next iteration.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .adjoint import RegressionBasis, solve_first_adjoint, solve_second_adjoint
from .hamiltonian import GapProcess, gap_process, mu
from .model import ProblemSpec
from .paths import (
    BrownianEnsemble,
    ControlProcess,
    StateEnsemble,
    TimeGrid,
    evaluate_cost,
    generate_brownian,
    simulate_state,
)

Array = np.ndarray

# Relative slack when testing the interval-selection inequality: the interval
# sums and mu are accumulated in different orders, so exact-equality cases
# (uniform gaps) can miss by a few ulps.
_INTERVAL_SLACK = 1e-9


@dataclass(frozen=True)
class DyadicInterval:
    """E_j^N = [(2j-2) eps_N, 2j eps_N) with eps_N = T 2^{-N}."""

    N: int
    j: int
    eps: float
    tau: float
    step_range: tuple  # half-open [lo, hi) in grid steps


def dyadic_interval(T: float, N: int, j: int, grid: TimeGrid) -> DyadicInterval:
    if N < 1 or N > grid.depth:
        raise ValueError(f"level N={N} outside 1..{grid.depth}")
    if not 1 <= j <= 1 << (N - 1):
        raise ValueError(f"index j={j} outside 1..{1 << (N - 1)}")
    eps = T * 2.0 ** (-N)
    cells = 1 << (grid.depth - N)  # grid steps per eps
    lo = (2 * j - 2) * cells
    hi = 2 * j * cells
    return DyadicInterval(N=N, j=j, eps=eps, tau=(2 * j - 1) * eps, step_range=(lo, hi))


def spike_control(
    u: ControlProcess, gaps: GapProcess, interval: DyadicInterval
) -> ControlProcess:
    """Replace u by the pathwise H-minimizer on the interval, keep it elsewhere."""
    lo, hi = interval.step_range
    steps = u.values.shape[1]
    if not (0 <= lo < hi <= steps):
        raise ValueError(f"interval steps [{lo}, {hi}) misaligned with grid of {steps} steps")
    vals = u.values.copy()
    vals[:, lo:hi] = gaps.argmin_indices[:, lo:hi]
    return ControlProcess(vals, u.num_points)


def find_descent_interval(
    gaps: GapProcess, mu_value: float, N: int, grid: TimeGrid, T: float
) -> Optional[int]:
    """Smallest j whose interval gap integral is <= 2 eps_N mu / T, else None."""
    if N < 1 or N > grid.depth:
        raise ValueError(f"level N={N} outside 1..{grid.depth}")
    half = 1 << (N - 1)
    M = gaps.values.shape[0]
    blocks = gaps.values.reshape(M, half, -1).sum(axis=2)
    integrals = blocks.sum(axis=0) / M * grid.dt  # (half,)
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
    N_max: int = 8
    M: int = 10_000
    depth: int = 8
    seed: int = 7
    degree: int = 2
    ridge: float = 1e-8

    def __post_init__(self):
        if self.N_max > self.depth:
            raise ValueError("N_max must not exceed the grid depth")
        if self.m_max < 0 or self.M < 1:
            raise ValueError("m_max must be >= 0 and M >= 1")
        if self.mu_tol < 0:
            raise ValueError("mu_tol must be nonnegative")

    @property
    def basis(self) -> RegressionBasis:
        return RegressionBasis(degree=self.degree, ridge=self.ridge)


@dataclass
class SolverState:
    m: int
    u: ControlProcess
    X: StateEnsemble
    gaps: GapProcess
    J: float
    mu: float


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
    """Solve both adjoints and evaluate mu for a control already simulated
    (X) and costed (J) on the frozen ensemble."""
    adj1 = solve_first_adjoint(spec, grid, X, u, basis, W)
    adj2 = solve_second_adjoint(spec, grid, X, u, adj1, basis, W)
    gaps = gap_process(spec, grid, X, u, adj1, adj2)
    return SolverState(m=m, u=u, X=X, gaps=gaps, J=J, mu=mu(gaps, grid))


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
        interval = dyadic_interval(spec.T, N, j, grid)
        cand = spike_control(state.u, state.gaps, interval)
        X_cand = simulate_state(spec, grid, W, cand)
        J_cand = evaluate_cost(spec, grid, X_cand, cand)
        if J_cand - state.J <= interval.eps * state.mu / spec.T:
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
    J0: float = 0.0
    mu0: float = 0.0


def _initial_control(
    spec: ProblemSpec,
    grid: TimeGrid,
    W: BrownianEnsemble,
    u0: Union[ControlProcess, str, int, None],
) -> ControlProcess:
    M, steps = W.M, W.steps
    V = spec.domain.size
    if isinstance(u0, ControlProcess):
        return u0
    if u0 is None or u0 == "first-point":
        return ControlProcess.constant(0, M, steps, V)
    if isinstance(u0, int):
        return ControlProcess.constant(u0, M, steps, V)
    if u0 == "worst-constant":
        costs = []
        for idx in range(V):
            u = ControlProcess.constant(idx, M, steps, V)
            costs.append(evaluate_cost(spec, grid, simulate_state(spec, grid, W, u), u))
        return ControlProcess.constant(int(np.argmax(costs)), M, steps, V)
    raise ValueError(f"unknown initializer {u0!r}")


def run_msa(
    spec: ProblemSpec,
    config: MSAConfig,
    u0: Union[ControlProcess, str, int, None] = None,
    W: Optional[BrownianEnsemble] = None,
) -> MSARun:
    """Iterate msa_step to termination on a frozen Brownian ensemble."""
    grid = TimeGrid(T=spec.T, depth=config.depth)
    if W is None:
        W = generate_brownian(grid, config.M, spec.d, config.seed)
    basis = config.basis
    u = _initial_control(spec, grid, W, u0)
    X = simulate_state(spec, grid, W, u)
    state = prepare_state(spec, grid, W, u, X, evaluate_cost(spec, grid, X, u), basis)
    J0, mu0 = state.J, state.mu
    records: list = []
    termination = "budget"
    while state.m < config.m_max:
        outcome = msa_step(spec, grid, W, state, config)
        if outcome.kind != "accepted":
            termination = outcome.kind
            break
        records.append(outcome.record)
        state = prepare_state(spec, grid, W, *outcome.candidate, basis, m=state.m + 1)
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


CSV_HEADER = ["m", "J", "mu", "N", "j", "accepted", "wall_time"]


def records_to_csv(records) -> str:
    """Serialize iteration records; floats at full precision for re-checking."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in records:
        w.writerow(
            [r.m, repr(r.J), repr(r.mu), r.N, r.j, int(r.accepted), repr(r.wall_time)]
        )
    return buf.getvalue()


def records_from_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_HEADER
    return [
        IterationRecord(
            m=int(m), J=float(J), mu=float(mu_), N=int(N), j=int(j),
            accepted=bool(int(acc)), wall_time=float(wt),
        )
        for m, J, mu_, N, j, acc, wt in rows[1:]
    ]


def records_to_json(records) -> str:
    return json.dumps(
        [
            {
                "m": r.m, "J": r.J, "mu": r.mu, "N": r.N, "j": r.j,
                "accepted": r.accepted, "wall_time": r.wall_time,
            }
            for r in records
        ],
        indent=2,
    )


def check_descent_log(records, T: float) -> bool:
    """Re-check the acceptance inequality for every accepted row in a log."""
    for prev, nxt in zip(records, records[1:]):
        if not prev.accepted:
            continue
        eps = T * 2.0 ** (-prev.N)
        if not nxt.J - prev.J <= eps * prev.mu / T:
            return False
    return True
