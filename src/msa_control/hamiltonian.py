"""Hamiltonian, generalized H-function, pathwise minimizer and the gap mu.

The H-function augments the Hamiltonian with the second-order diffusion
correction required when controls enter the diffusion and the control set is
non-convex.  Minimization is an exhaustive search over the finite control
grid with smallest-index tie-breaking (a deterministic measurable selection).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ProblemSpec
from .paths import ControlProcess, SimulationError, StateEnsemble, TimeGrid, _check_provenance

Array = np.ndarray


@dataclass(frozen=True)
class GapProcess:
    """Pointwise H-function gap and the selected minimizer, per (path, step)."""

    values: Array          # (M, steps), all <= 0
    argmin_indices: Array  # (M, steps) domain indices


def hamiltonian(spec: ProblemSpec, t: float, x: Array, p: Array, q: Array, u_pts: Array) -> Array:
    """H = p'b + <q, sigma> + f, batched over the leading axis."""
    c = spec.coefficients
    b = np.asarray(c.b(t, x, u_pts))
    sig = np.asarray(c.sigma(t, x, u_pts))
    f = np.asarray(c.f(t, x, u_pts))
    return np.einsum("bi,bi->b", p, b) + np.einsum("bid,bid->b", q, sig) + f


def _quad(A: Array, P: Array) -> Array:
    # sum_i (A^i)' P A^i for A (B,n,d), P (B,n,n)
    return np.einsum("bid,bij,bjd->b", A, P, A)


def h_function(
    spec: ProblemSpec,
    t: float,
    x: Array,
    p: Array,
    q: Array,
    P: Array,
    v_pts: Array,
    u_pts: Array,
) -> Array:
    """Generalized Hamiltonian evaluated at candidate v against base control u."""
    c = spec.coefficients
    sig_v = np.asarray(c.sigma(t, x, v_pts))
    sig_u = np.asarray(c.sigma(t, x, u_pts))
    H = hamiltonian(spec, t, x, p, q, v_pts)
    return H + 0.5 * _quad(sig_v - sig_u, P) - 0.5 * _quad(sig_u, P)


def minimize_h(
    spec: ProblemSpec,
    t: float,
    x: Array,
    p: Array,
    q: Array,
    P: Array,
    u_index: Array,
):
    """Exhaustive H-function minimization over the control grid.

    Returns (v_index, gap) with gap = H(v) - H(u) <= 0; ties broken by the
    smallest domain index.  All V candidates for all B paths go through one
    h_function call on V*B candidate-major rows.
    """
    pts = spec.domain.points
    V, B = pts.shape[0], x.shape[0]
    u_index = np.asarray(u_index)

    def tile(a):  # V stacked copies of a per-path block
        return np.concatenate([a] * V)

    v_pts = np.repeat(pts, B, axis=0)
    vals = h_function(spec, t, tile(x), tile(p), tile(q), tile(P), v_pts, tile(pts[u_index]))
    vals = vals.reshape(V, B)
    v_index = np.argmin(vals, axis=0)  # argmin takes the first minimum
    rows = np.arange(B)
    gap = vals[v_index, rows] - vals[u_index, rows]
    return v_index, gap


def _check_finite(stage: str, i: int, *blocks: Array) -> None:
    for block in blocks:
        bad = ~np.isfinite(block.reshape(block.shape[0], -1)).all(axis=1)
        if bad.any():
            raise SimulationError(
                f"non-finite {stage} at step {i}, path {int(np.argmax(bad))}"
            )


def gap_process(
    spec: ProblemSpec,
    grid: TimeGrid,
    X: StateEnsemble,
    u: ControlProcess,
    adjoints,
) -> GapProcess:
    """Apply minimize_h at every (path, step) of the frozen ensemble.

    ``adjoints`` yields one (i, p_i, q_i, P_i, asym_i) slice per step, in any
    step order (``adjoint_sweep`` yields them backward); each slice is used
    as it arrives.  A non-finite adjoint or gap raises SimulationError naming
    the stage, the step and the first bad path.
    """
    _check_provenance(X, u)
    M, steps = u.values.shape
    values = np.empty((M, steps))
    argmins = np.empty((M, steps), dtype=np.int64)
    for i, p, q, P, _ in adjoints:
        _check_finite("adjoint", i, p, q, P)
        v_idx, gap = minimize_h(spec, i * grid.dt, X.states[:, i], p, q, P, u.values[:, i])
        _check_finite("gap", i, gap)
        values[:, i] = gap
        argmins[:, i] = v_idx
    return GapProcess(values=values, argmin_indices=argmins)


def mu(gaps: GapProcess, grid: TimeGrid) -> float:
    """mu(u) = mean over paths of the time integral of the gap; always <= 0."""
    per_path = np.sum(gaps.values, axis=1) * grid.dt
    return float(np.sum(per_path) / per_path.shape[0])
