"""Dyadic time grids, frozen Brownian ensembles, forward simulation, cost.

The whole solver runs on a sample-average approximation: one Brownian
ensemble is generated up front and every expectation (cost, adjoints,
Hamiltonian gaps) is an average over its paths.  All reductions use a fixed
index order so results are bit-reproducible.

Every per-path array (increments, states, controls, and downstream the
adjoints and gaps) is time-major, (steps, M, .), so the per-step slice
``[i]`` that the solver loops take is contiguous.  Only the file format of
``array_bytes``/``load_array`` is path-major.  Control indices (ControlProcess, GapProcess's
argmins) take ``ControlProcess.index_dtype(V)``, the smallest unsigned type holding V - 1.

Every forked process of the package runs through one helper, _forked(works, own):
each work in a forked child, which exits 0 only once its work returned, and own in
the caller, which reaps every child and learns which works it must redo (a refused
fork, a child that raised or was killed).  Euler simulation and the remainder's
per-path sums give each usable CPU (_cpus) a contiguous path range once M >=
2 * _PATHS_PER_WORKER: the caller steps the last and a forked process each other
one, into _shared memory, the only way a worker's results come back.  The one
Euler loop, stream_states(spec, grid, W, u, rows), steps _STREAM_BLOCK paths per
worker at a time through its last kept row, on W's increments or, if W is a seed,
on antithetic pairs: path p draws the (seed, p // 2) stream, negated for odd p.  No
Euler operation reduces across paths, so the bits depend neither on CPUs nor block.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .model import ProblemSpec

Array = np.ndarray

# Paths drawn per block before the block is copied into the time-major buffer.
_BROWNIAN_BLOCK = 512
_STREAM_BLOCK = 8192  # paths a stream_states worker steps (and, if seeded, draws) at a time
# Fewest paths per worker.  Two forked workers stream lq-scalar (the cheapest
# coefficients) from a seed at G=9 at 1.7x the serial speed at M=16384 and 32768,
# but on a frozen W at G=8 at only 1.0x to 1.3x at M=32768 and 1.1x to 1.6x at
# 65536, as the shared window's pages fault in 4 KiB at a time.
_PATHS_PER_WORKER = 16384


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

    increments: Array  # (steps, M, d)
    seed: int

    @property
    def M(self) -> int:
        return self.increments.shape[1]

    @property
    def steps(self) -> int:
        return self.increments.shape[0]


def _fill_brownian(out: Array, first: int, seed: int, dt: float) -> Array:
    """Fill and return out, (steps, B, d), with N(0, dt) increments for paths
    first .. first + B - 1 (pairs, in stream_states): p is the Philox stream (seed, p)."""
    steps, size, d = out.shape
    # Philox is counter-based: restoring a fresh state (counter 0, empty
    # buffer) with key (seed, p) gives exactly the stream of a newly built
    # Philox(key=(seed, p)), without building one per path.
    bitgen = np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    key = fresh["state"]["key"]
    block = np.empty((_BROWNIAN_BLOCK, steps, d))
    for start in range(0, size, _BROWNIAN_BLOCK):
        n = min(_BROWNIAN_BLOCK, size - start)
        for k in range(n):
            key[1] = first + start + k
            bitgen.state = fresh
            gen.standard_normal(out=block[k])
        out[:, start : start + n] = block[:n].transpose(1, 0, 2)
    out *= np.sqrt(dt)
    return out


def _check_seed(seed: int) -> None:
    """Refuse a seed that the Philox key and the binary header would reduce mod 2^64."""
    if not 0 <= seed < 2**64:  # written as "not ok" so that a NaN fails it
        raise ValueError(f"seed {seed} outside 0..2**64-1")


def generate_brownian(grid: TimeGrid, M: int, d: int, seed: int) -> BrownianEnsemble:
    """Draw M independent paths of Brownian increments on the grid."""
    if M < 1:
        raise ValueError("M must be >= 1")
    _check_seed(seed)
    out = _fill_brownian(np.empty((grid.steps, M, d)), 0, seed, grid.dt)
    return BrownianEnsemble(increments=out, seed=seed)


@dataclass(frozen=True)
class ControlProcess:
    """Pathwise piecewise-constant control, stored as domain indices."""

    values: Array  # (steps, M)
    num_points: int

    def __post_init__(self):
        vals = np.asarray(self.values)
        if not np.issubdtype(vals.dtype, np.integer):  # a cast would make NaN, 1.5 or True an index
            raise ValueError(f"control indices must be integers, not {vals.dtype}")
        # a zero-stride (broadcast) axis repeats one element: check it once
        once = vals[tuple(slice(None) if s else slice(0, 1) for s in vals.strides)]
        if once.min() < 0 or once.max() >= self.num_points:
            raise ValueError("control index out of domain range")
        # narrowed after the check (-1 must not wrap); a broadcast view stays one
        narrow = once.astype(self.index_dtype(self.num_points), copy=False)
        if narrow.shape != vals.shape:
            narrow = np.broadcast_to(narrow, vals.shape)
        object.__setattr__(self, "values", narrow)

    @staticmethod
    def index_dtype(num_points: int) -> np.dtype:
        """The smallest unsigned type that holds every index of num_points control points."""
        return np.min_scalar_type(num_points - 1)

    @classmethod
    def constant(cls, index: int, M: int, steps: int, num_points: int) -> "ControlProcess":
        """Read-only broadcast view: no (steps, M) array is materialised."""
        return cls(np.broadcast_to(np.int64(index), (steps, M)), num_points)

    @classmethod
    def deterministic(cls, row: Array, M: int, num_points: int) -> "ControlProcess":
        """Read-only broadcast view of one row shared by all paths."""
        row = np.asarray(row, dtype=np.int64)
        return cls(np.broadcast_to(row[:, None], (row.shape[0], M)), num_points)


@dataclass(frozen=True)
class StateEnsemble:
    """Euler-Maruyama state paths and the control they were simulated under."""

    states: Array  # (steps+1, M, n)
    control_values: Array


def _cpus() -> int:  # the usable CPUs, or 1 where os.fork is missing
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1 if hasattr(os, "fork") else 1


def _path_ranges(M: int) -> list:
    """Contiguous (lo, hi) ranges splitting paths [0, M): one per usable CPU, each
    of at least _PATHS_PER_WORKER paths."""
    workers = max(1, min(_cpus(), M // _PATHS_PER_WORKER))
    return [(M * w // workers, M * (w + 1) // workers) for w in range(workers)]


def _shared(shape, M: int | None, dtype=np.float64) -> Array:
    """Uninitialised items that a split of M paths' forked workers, or any if M is None, fill."""
    if M is not None and len(_path_ranges(M)) == 1:  # no worker: a mapping faults in every page
        return np.empty(shape, dtype)
    import mmap  # here, not at the top: it adds about 1 ms to every import of the package
    size = np.dtype(dtype).itemsize * math.prod(shape)
    try:
        return np.ndarray(shape, dtype, buffer=mmap.mmap(-1, max(size, 1)))
    except OSError:  # an anonymous mapping fails only for want of memory: say so as np.empty does
        raise MemoryError(f"Unable to allocate {size / 2**30:.3g} GiB of shared memory for an "
                          f"array with shape {shape} and data type {np.dtype(dtype)}") from None


def _forked(works, own):
    """Run each of works in a forked child, which exits 0 only once it returned, and own in the
    caller; reap every child.  Returns own's error or None, and the works whose child failed."""
    pids, error = [], None
    try:
        for work in works:
            try:
                pids.append(os.fork())
            except OSError:  # no process to spare: a failed child, whose work the caller redoes
                pids.append(None)
            if pids[-1] == 0:  # the child
                try:
                    work()
                    os._exit(0)
                finally:
                    os._exit(1)
        try:
            own()
        except Exception as exc:
            error = exc
    finally:
        statuses = [pid and os.waitpid(pid, 0)[1] for pid in pids]  # non-zero: raised or killed
    return error, [work for work, status in zip(works, statuses) if status != 0]


def _split_paths(M: int, fn) -> None:
    """fn(k, lo, hi) per range k, (lo, hi), of _path_ranges(M): the last in the caller, each other
    in a _forked worker, so into _shared arrays only.  Raises the first error in range order."""
    works = [lambda k=k, r=r: fn(k, *r) for k, r in enumerate(_path_ranges(M))]
    own, failed = _forked(works[:-1], works[-1])
    for work in failed:
        work()
    if own is not None:
        raise own


def _euler_step(spec: ProblemSpec, grid: TimeGrid, i: int, x: Array, u_pts: Array, dw: Array,
                out: Array | None = None) -> Array:
    """One Euler-Maruyama step x + b dt + sigma dW from step i, into out if given."""
    c = spec.coefficients
    t = i * grid.dt
    drift = np.asarray(c.b(t, x, u_pts))
    diff = np.asarray(c.sigma(t, x, u_pts))
    out = np.multiply(drift, grid.dt, out=np.empty(x.shape) if out is None else out)
    out += x
    out += np.einsum("bnd,bd->bn", diff, dw)
    return out


def simulate_state(
    spec: ProblemSpec, grid: TimeGrid, W: BrownianEnsemble, u: ControlProcess
) -> StateEnsemble:
    """Euler-Maruyama: X_{i+1} = X_i + b dt + sigma dW_i, X_0 = x0."""
    if u.values.shape != (W.steps, W.M):
        raise ProvenanceError(
            f"control shape {u.values.shape} does not match ensemble ({W.steps}, {W.M})"
        )
    X, _, _ = stream_states(spec, grid, W, u, range(W.steps + 1))
    return StateEnsemble(states=X, control_values=u.values)


def stream_states(spec: ProblemSpec, grid: TimeGrid, W: BrownianEnsemble | int,
                  u: ControlProcess, rows: range) -> tuple[Array, float, float]:
    """simulate_state's X under u on W, as (X[rows], min, max) over X[:rows.stop]: no
    state past the last kept row is stepped or checked.  A seed W draws one stream per
    pair: path p is generate_brownian's path p // 2, negated for odd p (antithetic pairs,
    Glasserman, Monte Carlo Methods in Financial Engineering, 2003, section 4.2).  Raises
    SimulationError naming the first path with a non-finite state and its first such step."""
    if u.num_points > spec.domain.size:  # its indices could run past spec's points
        raise ValueError("control index out of domain range")
    seeded = not isinstance(W, BrownianEnsemble)
    if seeded:
        _check_seed(W)  # here, before any worker is forked
    M, stop = u.values.shape[1], max(rows.stop, 1)  # states past the last kept row are not stepped
    pts = spec.domain.points
    window = _shared((len(rows), M, spec.n), M)
    extremes = _shared((len(_path_ranges(M)), 2), M)  # each range's (min, max)

    def state_row(i, start, end):  # step i of paths start .. end - 1, in the window if kept
        return window[i - rows.start, start:end] if i in rows else np.empty((end - start, spec.n))

    def step_range(k, lo, hi):
        n = min(_STREAM_BLOCK, hi - lo) // 2 + 1 if seeded else 0  # the most pairs a block meets
        buf = np.empty((stop - 1, 2 * n, spec.d))  # pair q's stream in column 2q, negated in 2q + 1
        low, high = np.inf, -np.inf
        for start in range(lo, hi, _STREAM_BLOCK):
            end = min(start + _STREAM_BLOCK, hi)
            if seeded:  # a block that starts at an odd path draws its partner's stream too
                drawn = buf.reshape(stop - 1, n, 2, spec.d)[:, : (end + 1) // 2 - start // 2]
                _fill_brownian(drawn[:, :, 0], start // 2, W, grid.dt)
                np.negative(drawn[:, :, 0], out=drawn[:, :, 1])
            dw = buf[:, start % 2 :][:, : end - start] if seeded else W.increments[:, start:end]
            x, bad_at = state_row(0, start, end), np.full(end - start, -1)  # first non-finite steps
            x[...] = spec.x0
            for i in range(stop):
                if i:
                    u_pts = np.take(pts, u.values[i - 1, start:end], axis=0)
                    out = state_row(i, start, end)
                    x = _euler_step(spec, grid, i - 1, x, u_pts, dw[i - 1], out=out)
                row = x.min(), x.max()
                # NaN and +-inf show in min or max and persist: only such rows need the mask
                if not np.isfinite(row).all():
                    bad_at[(bad_at < 0) & ~np.isfinite(x).all(axis=1)] = i
                low, high = min(low, row[0]), max(high, row[1])
            if bad_at.max() >= 0:
                p = int(np.argmax(bad_at >= 0))
                raise SimulationError(f"non-finite state at path {start + p}, step {bad_at[p]}")
        extremes[k] = low, high

    _split_paths(M, step_range)
    return window, extremes[:, 0].min(), extremes[:, 1].max()


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
    total = np.asarray(c.Phi(X.states[-1])).copy()
    for i in range(u.values.shape[0]):
        total += np.asarray(c.f(i * dt, X.states[i], pts[u.values[i]])) * dt
    return total


def evaluate_cost(
    spec: ProblemSpec, grid: TimeGrid, X: StateEnsemble, u: ControlProcess
) -> float:
    """Monte Carlo cost functional on the frozen ensemble."""
    pc = pathwise_cost(spec, grid, X, u)
    return float(np.sum(pc) / pc.shape[0])


_HEADER = struct.Struct("<QQQQ")


def array_bytes(arr: Array, seed: int) -> bytes:
    """Flat binary form of a time-major (steps, M[, dim]) array: little-endian
    u64 header (M, steps, dim, seed), then float64 data path-major, as
    (M, steps, dim) row-major."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    steps, M, dim = arr.shape
    header = _HEADER.pack(M, steps, dim, seed & 0xFFFFFFFFFFFFFFFF)
    return header + np.ascontiguousarray(arr.transpose(1, 0, 2)).tobytes()


def load_array(path):
    """Inverse of :func:`array_bytes`: reads the path-major file and returns
    (time-major array (steps, M, dim), seed)."""
    with open(path, "rb") as fh:
        M, steps, dim, seed = _HEADER.unpack(fh.read(_HEADER.size))
        data = np.frombuffer(fh.read(), dtype=np.float64).reshape(M, steps, dim)
    return np.ascontiguousarray(data.transpose(1, 0, 2)), seed
