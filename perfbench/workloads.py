"""The benchmark's workloads: inputs built from a seed, the timed call into
the public msa_control API, and the checks every result must pass.

msa_control must be importable when this module is imported; ``run.py``
puts the checkout's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from typing import Optional

import msa_control as mc

# Modules by import path: a package attribute can be a re-exported function.
msa = importlib.import_module("msa_control.msa")
oracle = importlib.import_module("msa_control.oracle")
paths = importlib.import_module("msa_control.paths")

# Criterion 8: the solve closes at least 95% of the LQ optimality gap.
OPT_GAP_MAX = 0.05
# Criterion 6: fitted remainder order and the uncensored rows it needs.
SLOPE_MIN = 1.2
UNCENSORED_MIN = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solve" | "remainder"
    problem: str
    M: int
    depth: int
    m_max: int = 50

    def config(self, seed: int) -> "mc.MSAConfig":
        return mc.MSAConfig(
            M=self.M, depth=self.depth, N_max=self.depth, m_max=self.m_max, seed=seed
        )


# Solves run M=2000 paths so a 30 s run holds several calls.  They stop after
# two accepted iterations: with m_max=50 the accepted count (2 to 6) and the
# failed dyadic levels (each one a full candidate simulation) depend on the
# seed, which spread run_s by a factor of 3 across seeds.  Every seed tried
# accepts at least two iterations, and two close the LQ optimality gap to
# about 1%.  The remainder keeps criterion 6's M=100000: fewer paths censor
# the rows the slope fit needs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lq-scalar-solve",
            kind="solve",
            problem="lq-scalar",
            M=2_000,
            depth=8,
            m_max=2,
        ),
        Workload(
            name="nonconvex-solve",
            kind="solve",
            problem="nonconvex-diffusion",
            M=2_000,
            depth=8,
            m_max=2,
        ),
        Workload(
            name="nonconvex-remainder",
            kind="remainder",
            problem="nonconvex-diffusion",
            M=100_000,
            depth=9,
        ),
    )
}


@dataclass
class Prepared:
    """A workload's inputs, built before the timed call."""

    workload: Workload
    seed: int
    spec: object
    config: object
    grid: object
    W: Optional[object] = None
    _oracle_J: Optional[float] = field(default=None, repr=False)

    def call(self, spec=None):
        """The timed call into the library; ``spec`` overrides the problem."""
        spec = self.spec if spec is None else spec
        w = self.workload
        if w.kind == "solve":
            return msa.run_msa(spec, self.config, "worst-constant", W=self.W)
        eps_list = [spec.T * 2.0 ** (-N) for N in range(2, 7)]
        return oracle.remainder_experiment(
            spec, spec.domain.size - 1, spec.T / 2, eps_list, self.config
        )

    def oracle_J(self) -> Optional[float]:
        if self.workload.problem not in mc.lq_names():
            return None
        if self._oracle_J is None:
            self._oracle_J = mc.build_oracle(mc.get_lq(self.workload.problem), self.grid).J_star
        return self._oracle_J


def prepare(workload: Workload, seed: int) -> Prepared:
    """Build the problem and, for solves, the frozen ensemble from ``seed``."""
    spec = mc.get_problem(workload.problem)
    config = workload.config(seed)
    grid = mc.TimeGrid(T=spec.T, depth=workload.depth)
    W = None
    if workload.kind == "solve":
        W = paths.generate_brownian(grid, workload.M, spec.d, seed)
    return Prepared(workload=workload, seed=seed, spec=spec, config=config, grid=grid, W=W)


def work_units(prepared: Prepared, result) -> int:
    """Outer iterations of one call: MSA prepares on a solve, eps rows otherwise."""
    if prepared.workload.kind == "solve":
        return sum(r.accepted for r in result.records) + 1
    return len(result.rows)


def summarize(prepared: Prepared, result) -> dict:
    """The result fields a later change must reproduce, floats in hex."""
    if prepared.workload.kind == "solve":
        out = {
            "J_final": float(result.J_final).hex(),
            "mu_final": float(result.mu_final).hex(),
            "accepted": sum(r.accepted for r in result.records),
            "termination": result.termination,
        }
        J_star = prepared.oracle_J()
        if J_star is not None:
            out["opt_gap_frac"] = (result.J_final - J_star) / (result.J0 - J_star)
        return out
    return {
        "slope": float(result.slope).hex(),
        "R": [float(R).hex() for _, R, _ in result.rows],
        "uncensored": sum(not c for _, _, c in result.rows),
    }


def check(prepared: Prepared, result) -> list:
    """Reasons the result is wrong; empty when it passes."""
    bad = []
    if prepared.workload.kind == "solve":
        if not (math.isfinite(result.J_final) and math.isfinite(result.mu_final)):
            bad.append("J_final or mu_final is not finite")
        if not mc.check_descent_log(result.records, prepared.spec.T):
            bad.append("descent log fails check_descent_log")
        J_star = prepared.oracle_J()
        if J_star is not None:
            gap = (result.J_final - J_star) / (result.J0 - J_star)
            if not gap <= OPT_GAP_MAX:
                bad.append(f"opt_gap_frac {gap!r} > {OPT_GAP_MAX}")
        return bad
    if not all(math.isfinite(R) for _, R, _ in result.rows):
        bad.append("non-finite remainder")
    uncensored = sum(not c for _, _, c in result.rows)
    if uncensored < UNCENSORED_MIN:
        bad.append(f"only {uncensored} uncensored rows")
    if not result.slope >= SLOPE_MIN:
        bad.append(f"remainder slope {result.slope!r} < {SLOPE_MIN}")
    return bad


def working_set_bytes(workload: Workload, spec) -> int:
    """Computed bytes of the per-path arrays one call keeps live at once."""
    M, S, n, d = workload.M, 1 << workload.depth, spec.n, spec.d
    # increments, states and control indices; 8-byte floats and int64
    arrays = M * S * d + M * (S + 1) * n + M * S
    if workload.kind == "solve":
        # p, q, P, and the gap values and argmins
        arrays += M * (S + 1) * n + M * S * n * d + M * (S + 1) * n * n + 2 * M * S
    return 8 * arrays
