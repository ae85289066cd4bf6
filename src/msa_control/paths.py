"""Dyadic time grids, frozen Brownian ensembles, forward simulation, cost.

The whole solver runs on a sample-average approximation: one Brownian
ensemble is generated up front and every expectation (cost, adjoints,
Hamiltonian gaps) is an average over its paths.  All reductions use a fixed
index order so results are bit-reproducible.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .model import ProblemSpec

Array = np.ndarray


class SimulationError(RuntimeError):
    """Non-finite values encountered during forward simulation."""


class ProvenanceError(ValueError):
    """Arrays from different ensembles or controls were mixed."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform dyadic grid on [0, T] with 2^depth steps."""

    T: float
    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("grid depth must be >= 1")
        if not self.T > 0:
            raise ValueError("T must be positive")

    @property
    def steps(self) -> int:
        return 1 << self.depth

    @property
    def dt(self) -> float:
        return self.T / self.steps

    @property
    def times(self) -> Array:
        return np.arange(self.steps + 1) * self.dt


@dataclass(frozen=True)
class BrownianEnsemble:
    """Frozen N(0, dt) increments, one counter-based stream per path."""

    increments: Array  # (M, steps, d)
    seed: int

    @property
    def M(self) -> int:
        return self.increments.shape[0]

    @property
    def steps(self) -> int:
        return self.increments.shape[1]

    @property
    def d(self) -> int:
        return self.increments.shape[2]


def generate_brownian(grid: TimeGrid, M: int, d: int, seed: int) -> BrownianEnsemble:
    """Draw M independent paths of Brownian increments on the grid.

    Path p uses a Philox stream keyed by (seed, p), so the result does not
    depend on generation order.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    scale = np.sqrt(grid.dt)
    out = np.empty((M, grid.steps, d))
    for p in range(M):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF, p], dtype=np.uint64))
        )
        out[p] = gen.standard_normal((grid.steps, d))
    out *= scale
    return BrownianEnsemble(increments=out, seed=seed)


@dataclass(frozen=True)
class ControlProcess:
    """Pathwise piecewise-constant control, stored as domain indices."""

    values: Array  # (M, steps) int
    num_points: int

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.min() < 0 or vals.max() >= self.num_points:
            raise ValueError("control index out of domain range")
        object.__setattr__(self, "values", vals.astype(np.int64))

    @classmethod
    def constant(cls, index: int, M: int, steps: int, num_points: int) -> "ControlProcess":
        return cls(np.full((M, steps), index, dtype=np.int64), num_points)

    @classmethod
    def deterministic(cls, row: Array, M: int, num_points: int) -> "ControlProcess":
        row = np.asarray(row, dtype=np.int64)
        return cls(np.tile(row, (M, 1)), num_points)


@dataclass(frozen=True)
class StateEnsemble:
    """Euler-Maruyama state paths plus provenance identifiers."""

    states: Array  # (M, steps+1, n)
    control_values: Array
    ensemble_seed: int


def simulate_state(
    spec: ProblemSpec, grid: TimeGrid, W: BrownianEnsemble, u: ControlProcess
) -> StateEnsemble:
    """Euler-Maruyama: X_{i+1} = X_i + b dt + sigma dW_i, X_0 = x0."""
    M, steps = W.M, W.steps
    if u.values.shape != (M, steps):
        raise ProvenanceError(
            f"control shape {u.values.shape} does not match ensemble ({M}, {steps})"
        )
    c = spec.coefficients
    pts = spec.domain.points
    dt = grid.dt
    X = np.empty((M, steps + 1, spec.n))
    X[:, 0] = spec.x0
    for i in range(steps):
        t = i * dt
        xi = X[:, i]
        ui = pts[u.values[:, i]]
        drift = np.asarray(c.b(t, xi, ui))
        diff = np.asarray(c.sigma(t, xi, ui))
        X[:, i + 1] = xi + drift * dt + np.einsum("bnd,bd->bn", diff, W.increments[:, i])
    bad = ~np.isfinite(X)
    if bad.any():
        p, i, _ = np.argwhere(bad)[0]
        raise SimulationError(f"non-finite state at path {p}, step {i}")
    return StateEnsemble(states=X, control_values=u.values, ensemble_seed=W.seed)


def _check_provenance(X: StateEnsemble, u: ControlProcess) -> None:
    if X.control_values.shape != u.values.shape or not np.array_equal(
        X.control_values, u.values
    ):
        raise ProvenanceError("state ensemble was not simulated under this control")


def pathwise_cost(
    spec: ProblemSpec, grid: TimeGrid, X: StateEnsemble, u: ControlProcess
) -> Array:
    """Per-path cost Phi(X_T) + sum_i f(t_i, X_i, u_i) dt, shape (M,)."""
    _check_provenance(X, u)
    c = spec.coefficients
    pts = spec.domain.points
    dt = grid.dt
    M, steps = u.values.shape
    total = np.asarray(c.Phi(X.states[:, -1])).copy()
    for i in range(steps):
        ui = pts[u.values[:, i]]
        total += np.asarray(c.f(i * dt, X.states[:, i], ui)) * dt
    return total


def evaluate_cost(
    spec: ProblemSpec, grid: TimeGrid, X: StateEnsemble, u: ControlProcess
) -> float:
    """Monte Carlo cost functional on the frozen ensemble."""
    pc = pathwise_cost(spec, grid, X, u)
    return float(np.sum(pc) / pc.shape[0])


def empirical_moment(X: StateEnsemble, order: int) -> float:
    """Mean over paths of sup_i |X_i|^order; sanity stat for moment bounds."""
    if order not in (2, 4, 8):
        raise ValueError("order must be one of 2, 4, 8")
    norms = np.linalg.norm(X.states, axis=2)  # (M, steps+1)
    sup = norms.max(axis=1)
    return float(np.sum(sup**order) / sup.shape[0])


_HEADER = struct.Struct("<QQQQ")


def dump_array(path, arr: Array, seed: int) -> None:
    """Flat binary dump: little-endian u64 header (M, steps, dim, seed), then
    row-major float64 data."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    M, steps, dim = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(M, steps, dim, seed & 0xFFFFFFFFFFFFFFFF))
        fh.write(np.ascontiguousarray(arr).tobytes())


def load_array(path):
    """Inverse of :func:`dump_array`; returns (array (M, steps, dim), seed)."""
    with open(path, "rb") as fh:
        M, steps, dim, seed = _HEADER.unpack(fh.read(_HEADER.size))
        data = np.frombuffer(fh.read(), dtype=np.float64).reshape(M, steps, dim)
    return data, seed
