"""Command-line front end: solve, bench and validate subcommands.

Configs are JSON; tabular outputs are CSV; controls are dumped in the flat
binary format of the paths module.  Identical invocations produce identical
outputs (per-iteration wall times excepted; run timestamps live in the
summary metadata only).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import registry
from .model import ControlDomain, LQSpec, ProblemSpec, lq_embed
from .msa import MSAConfig, records_to_csv, records_to_json, run_msa
from .oracle import (
    rate_experiment,
    remainder_experiment,
    sequence_lemma_check,
    variational_experiment,
)
from .paths import SimulationError, dump_array

log = logging.getLogger("msa_control")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


def _setup_logging() -> None:
    level = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("MSA_LOG", "quiet"), logging.WARNING
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _problem_from_config(obj) -> ProblemSpec:
    if isinstance(obj, str):
        try:
            return registry.get_problem(obj)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    if not isinstance(obj, dict):
        raise ConfigError("'problem' must be a registry name or an object")
    if obj.get("type") != "lq":
        raise ConfigError("inline problems must have \"type\": \"lq\"")
    return lq_embed(_lq_from_config(obj))


def _lq_from_config(obj: dict) -> LQSpec:
    try:
        n = int(obj["n"])
        d = int(obj["d"])
        k = int(obj["k"])
        T = float(obj["T"])
        x0 = np.asarray(obj["x0"], dtype=float)
        b1 = np.asarray(obj["b1"], dtype=float).reshape(n, n)
        b2 = np.asarray(obj.get("b2", np.zeros(n)), dtype=float).reshape(n)
        G = np.asarray(obj["G"], dtype=float).reshape(n, n)
        Gamma = np.asarray(obj["Gamma"], dtype=float).reshape(n, n)
        sigma0 = np.asarray(obj.get("sigma0", np.zeros((n, d))), dtype=float).reshape(n, d)
        sigma_u = np.asarray(
            obj.get("sigma_u", np.zeros((k, n, d))), dtype=float
        ).reshape(k, n, d)
        g_lin = np.asarray(obj.get("g_lin", np.zeros(k)), dtype=float).reshape(k)
        g_quad = np.asarray(obj.get("g_quad", np.zeros((k, k))), dtype=float).reshape(k, k)
        domain = ControlDomain(np.asarray(obj["domain"], dtype=float))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad inline LQ problem: {exc}") from exc

    def sig(t, u):
        return sigma0[None, :, :] + np.einsum("bk,knd->bnd", u, sigma_u)

    def g(t, u):
        return u @ g_lin + 0.5 * np.einsum("bi,ij,bj->b", u, g_quad, u)

    return LQSpec(
        n=n, d=d, k=k, T=T, x0=x0,
        b1=lambda t: b1, b2=lambda t: b2, G=lambda t: G, Gamma=Gamma,
        sigma_u=sig, g=g, domain=domain,
    )


def _msa_config(cfg: dict, seed_override=None) -> MSAConfig:
    try:
        return MSAConfig(
            mu_tol=float(cfg.get("mu_tol", 1e-6)),
            m_max=int(cfg.get("m_max", 50)),
            N_max=int(cfg.get("N_max", cfg.get("G", 8))),
            M=int(cfg.get("M", 10_000)),
            depth=int(cfg.get("G", 8)),
            seed=int(seed_override if seed_override is not None else cfg.get("seed", 7)),
            degree=int(cfg.get("degree", 2)),
            ridge=float(cfg.get("ridge", 1e-8)),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad run configuration: {exc}") from exc


def _write(out: Path, name: str, text: str) -> None:
    (out / name).write_text(text)


def cmd_solve(args) -> int:
    cfg = _load_json(args.config)
    spec = _problem_from_config(cfg.get("problem", "lq-scalar"))
    config = _msa_config(cfg, args.seed)
    u0 = cfg.get("u0", "first-point")
    t0 = time.time()
    run = run_msa(spec, config, u0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out, "iterations.csv", records_to_csv(run.records))
    _write(out, "iterations.json", records_to_json(run.records))
    dump_array(out / "final_control.bin", run.final_control.values.astype(float), config.seed)
    summary = {
        "J_final": run.J_final,
        "mu_final": run.mu_final,
        "J_initial": run.J0,
        "mu_initial": run.mu0,
        "termination": run.termination,
        "iterations": sum(1 for r in run.records if r.accepted),
        "metadata": {"timestamp": time.time(), "wall_time_total": time.time() - t0},
    }
    _write(out, "summary.json", json.dumps(summary, indent=2))
    log.info("solve finished: %s after %d accepted iterations", run.termination, summary["iterations"])
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    config = _msa_config(cfg, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {}
    for name in registry.lq_names():
        result = rate_experiment(registry.get_lq(name), config)
        _write(out, f"rate_{name}.csv", result.csv())
        summary[name] = {
            "slope": result.slope,
            "J_star_analytic": result.J_star_analytic,
            "J_star_saa": result.J_star_saa,
            "termination": result.run.termination,
        }
    _write(out, "bench_summary.json", json.dumps(summary, indent=2))
    return EXIT_OK


_SEQ_GRID_A1 = (0.1, 0.5, 1.0, 2.0)
_SEQ_GRID_A = (0.1, 1.0, 10.0)


def cmd_validate(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.experiment == "sequence":
        lines = ["a1,A,max_b,bound,ok"]
        all_ok = True
        for a1 in _SEQ_GRID_A1:
            for A in _SEQ_GRID_A:
                res = sequence_lemma_check(a1, A, int(cfg.get("m_max", 100_000)))
                all_ok &= res.ok
                lines.append(f"{a1!r},{A!r},{res.max_b!r},{res.bound!r},{int(res.ok)}")
        _write(out, "sequence.csv", "\n".join(lines) + "\n")
        return EXIT_OK if all_ok else EXIT_NUMERICAL

    spec = _problem_from_config(cfg.get("problem", "nonconvex-diffusion"))
    if args.experiment == "remainder":
        cfg.setdefault("M", 100_000)
        cfg.setdefault("G", 9)
    else:
        cfg.setdefault("M", 20_000)
        cfg.setdefault("G", 7)
    config = _msa_config(cfg, args.seed)
    tau = spec.T / 2.0
    eps_list = [spec.T * 2.0 ** (-N) for N in range(2, 7)]
    u0 = int(cfg.get("u0_index", spec.domain.size - 1))
    if args.experiment == "remainder":
        res = remainder_experiment(spec, u0, tau, eps_list, config)
        _write(out, "remainder.csv", res.csv())
        _write(out, "remainder_summary.json", json.dumps({"slope": res.slope}, indent=2))
    else:
        res = variational_experiment(spec, u0, tau, eps_list, config)
        _write(out, "variational.csv", res.csv())
        _write(out, "variational_summary.json", json.dumps({"slope": res.slope}, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="msa-control", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored: the solver is single-threaded")

    p = sub.add_parser("solve", help="run the MSA solver on a problem")
    p.add_argument("--config", required=True, help="JSON run configuration")
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("bench", help="convergence-rate benchmarks")
    p.add_argument("suite", choices=["lq"])
    p.add_argument("--config", default=None)
    common(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("validate", help="order/lemma validation experiments")
    p.add_argument("experiment", choices=["remainder", "variational", "sequence"])
    p.add_argument("--config", default=None)
    common(p)
    p.set_defaults(fn=cmd_validate)
    return ap


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
