"""Generalized H-function, its pathwise minimizer, the gap process and the gap mu.

The H-function augments the Hamiltonian with the second-order diffusion
correction required when controls enter the diffusion and the control set is
non-convex.  Minimization is an exhaustive search over the finite control
grid with smallest-index tie-breaking (a deterministic measurable selection).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .model import ProblemSpec
from .paths import (ControlProcess, SimulationError, StateEnsemble, TimeGrid, _check_provenance,
                    _cpus, _forked, _shared)

Array = np.ndarray
_RING = 4  # adjoint slices in flight from _overlapped_gaps' child to the caller


@dataclass(frozen=True)
class GapProcess:
    """Pointwise H-function gap and the selected minimizer, per (step, path)."""

    values: Array          # (steps, M), all <= 0
    argmin_indices: Array  # (steps, M) domain indices, in ControlProcess's dtype


def _quad(A: Array, P: Array) -> Array:
    # sum_i (A^i)' P A^i for A (..., B, n, d), P (B, n, n)
    return np.einsum("...bid,bij,...bjd->...b", A, P, A)


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
    """Generalized Hamiltonian evaluated at candidate v against base control u.

    x, p, q, P and u_pts hold one row per path (B rows).  v_pts is either
    (B, k) or a candidate block (V, B, k), giving a (B,) or (V, B) result.
    b, sigma and f are evaluated once on the candidate rows; sigma(u) and
    its quadratic term once on the path rows.
    """
    c = spec.coefficients
    lead = v_pts.shape[:-1]
    # the coefficient callables take (rows, n): expand x to the candidate rows
    xv = np.broadcast_to(x, lead + x.shape[-1:]).reshape(-1, x.shape[-1])
    vv = v_pts.reshape(-1, v_pts.shape[-1])
    b = np.asarray(c.b(t, xv, vv)).reshape(lead + (spec.n,))
    sig_v = np.asarray(c.sigma(t, xv, vv)).reshape(lead + (spec.n, spec.d))
    f = np.asarray(c.f(t, xv, vv)).reshape(lead)
    sig_u = np.asarray(c.sigma(t, x, u_pts))
    # the Hamiltonian p'b + <q, sigma> + f, the per-path p and q broadcast against the block
    H = np.einsum("bi,...bi->...b", p, b) + np.einsum("bid,...bid->...b", q, sig_v) + f
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
    h_function call on a (V, B, k) candidate block.
    """
    pts = spec.domain.points
    V, B = pts.shape[0], x.shape[0]
    u_index = np.asarray(u_index)
    v_block = np.broadcast_to(pts[:, None, :], (V, B, pts.shape[1]))
    vals = h_function(spec, t, x, p, q, P, v_block, pts[u_index])
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
    """Apply minimize_h at every (step, path) of the frozen ensemble.

    ``adjoints`` yields one (i, p_i, q_i, P_i, asym_i) slice per step, in any
    step order (``adjoint_sweep`` yields them backward); each slice is used
    as it arrives.  A non-finite adjoint or gap raises SimulationError naming
    the stage, the step and the first bad path.
    """
    _check_provenance(X, u)
    gaps = GapProcess(np.empty(u.values.shape),
                      np.empty(u.values.shape, ControlProcess.index_dtype(spec.domain.size)))
    for i, p, q, P, _ in adjoints:
        _gap_step(spec, grid, X, u, gaps, i, p, q, P)
    return gaps


def _gap_step(spec, grid, X, u, gaps: GapProcess, i: int, p: Array, q: Array, P: Array) -> None:
    """Step i of gap_process: minimize H on the adjoint slice into row i of gaps, checking both."""
    _check_finite("adjoint", i, p, q, P)
    gaps.argmin_indices[i], gaps.values[i] = minimize_h(
        spec, i * grid.dt, X.states[i], p, q, P, u.values[i])
    _check_finite("gap", i, gaps.values[i])


def _overlapped_gaps(spec, grid, X, u, adjoints) -> GapProcess | None:
    """gap_process on adjoint_sweep's adjoints, which a forked child passes through _RING shared
    slots, or minimizes itself while the caller holds every slot.  None on one CPU or a failure."""
    if _cpus() < 2:
        return None
    steps, M = u.values.shape
    gaps = GapProcess(_shared((steps, M), None),
                      _shared((steps, M), None, ControlProcess.index_dtype(spec.domain.size)))
    ring = [_shared((_RING, M, spec.n) + tail, None) for tail in ((), (spec.d,), (spec.n,))]
    ready_r, ready_w = os.pipe()  # per step, its slot, or _RING if the child minimized it
    freed_r, freed_w = os.pipe()  # the slots that the caller is done with

    def sweep():
        os.close(ready_r)  # so that a caller that stops reading ends this child (EPIPE)
        os.set_blocking(freed_r, False)
        freed, free = open(freed_r, "rb", buffering=0), list(range(_RING))
        for i, p, q, P, _ in adjoints:
            free += freed.read(_RING) or b""  # None while no slot is freed: never wait
            slot = free.pop() if free else _RING
            if slot < _RING:
                ring[0][slot], ring[1][slot], ring[2][slot] = p, q, P
            else:
                _gap_step(spec, grid, X, u, gaps, i, p, q, P)
            os.write(ready_w, bytes([slot]))

    def minimize():  # closing ready on the way out ends a child still sweeping (EPIPE)
        os.close(ready_w)  # so that a child that died reads as the end of the pipe
        with open(ready_r, "rb", 0) as ready, open(freed_w, "wb", 0) as freed, open(freed_r):
            for i in range(steps - 1, -1, -1):
                (slot,) = ready.read(1)  # a ValueError at the end of the pipe
                if slot < _RING:
                    _gap_step(spec, grid, X, u, gaps, i, *(r[slot] for r in ring))
                    freed.write(bytes([slot]))

    return None if any(_forked([sweep], minimize)) else gaps  # the caller's error, a failed child


def mu(gaps: GapProcess, grid: TimeGrid) -> float:
    """mu(u) = mean over paths of the time integral of the gap; always <= 0.

    Each path's steps are added in ascending order, then the paths pairwise.
    """
    per_path = np.sum(gaps.values, axis=0) * grid.dt
    return float(np.sum(per_path) / per_path.shape[0])
