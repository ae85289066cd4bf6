"""Command-line front end: solve, bench and validate subcommands.

Configs are JSON; an inline LQ problem's numbers must be JSON numbers.  Each
subcommand returns its exit code and its files, {name: text, bytes or a JSON
value}; main alone creates --out and writes them, once the run has returned.
Tables are CSV (msa.to_csv), controls the flat binary of paths.array_bytes.
Identical invocations produce identical outputs (per-iteration wall times
excepted; run timestamps live in the summary metadata only).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import registry
from .model import ControlDomain, LQSpec, ProblemSpec, lq_embed
from .msa import MSAConfig, records_to_csv, run_msa, to_csv
from .oracle import (
    _LATTICE_NODES,
    rate_experiment,
    remainder_experiment,
    sequence_lemma_check,
    variational_experiment,
)
from .paths import _PATHS_PER_WORKER, ControlProcess, SimulationError, array_bytes

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


def _load_json(path) -> object:
    """Parse a UTF-8 config file ({} for none); a non-finite number is an error."""
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    def finite(literal, parse=float):
        if not math.isfinite(float(literal)):
            raise ConfigError(f"non-finite number {literal} in {path}")
        return parse(literal)

    try:
        return json.loads(
            text, parse_constant=finite, parse_float=finite, parse_int=lambda s: finite(s, int)
        )
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"invalid JSON in {path}: nested too deep to parse") from exc


def _check_keys(obj: dict, keys, what: str) -> None:
    """Refuse a key of obj that is not in keys, naming the ones that are."""
    for key in obj:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} for {what}; it reads {', '.join(keys)}")


def _number(key: str, value):
    """A float for mu_tol and ridge; for every other key an integer, which
    may be written as an integral float (200.0) but not as a bool or string."""
    kind = float if key in ("mu_tol", "ridge") else int
    if isinstance(value, bool) or not isinstance(value, (int, float)) or kind is int and value % 1:
        what = "a number" if kind is float else "an integer"
        if key == "u0":
            what = "first-point, worst-constant or " + what
        raise ConfigError(f"{key} must be {what}, not {value!r}")
    return kind(value)


# The keys of an inline LQ problem; an optional one that is absent reads as zeros.
_LQ_OPTIONAL = ("b2", "sigma0", "sigma_u", "g_lin", "g_quad")
_LQ_KEYS = ("type", "n", "d", "k", "T", "x0", "b1", "G", "Gamma", "domain", *_LQ_OPTIONAL)


def _problem_from_config(obj) -> ProblemSpec:
    if isinstance(obj, str):
        try:
            return registry.get_problem(obj)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    if not isinstance(obj, dict) or obj.get("type") != "lq":
        raise ConfigError("'problem' must be a registry name or an object with \"type\": \"lq\"")
    _check_keys(obj, _LQ_KEYS, "an inline LQ problem")
    try:
        n, d, k = (_number(key, obj[key]) for key in "ndk")
        # the optional arrays default to zeros of these sizes: bound them first
        if min(n, d, k) < 1 or 8 * max(k * n * d, k * k) > _MAX_PATH_BYTES:
            raise ConfigError(f"inline LQ sizes n={n}, d={d}, k={k}: each must be at least 1, "
                              f"and sigma_u (k*n*d) and g_quad (k*k) at most "
                              f"{_MAX_PATH_BYTES >> 30} GiB of floats")

        def array(key, *shape):
            """obj[key] as floats, of this shape if one is given; zeros if an
            optional key is absent.  Each leaf must be a JSON number."""
            if key not in obj and key in _LQ_OPTIONAL:
                return np.zeros(shape)
            value = np.asarray(obj[key], dtype=float)  # a ragged list raises here
            for leaf in np.asarray(obj[key], dtype=object).ravel():
                if isinstance(leaf, bool) or not isinstance(leaf, (int, float)):
                    raise ConfigError(f"bad inline LQ problem: {key} holds "
                                      f"{json.dumps(leaf)}, not a number")
            return value.reshape(shape or value.shape)

        T = float(array("T"))
        x0 = array("x0")
        b1, b2, G, Gamma = array("b1", n, n), array("b2", n), array("G", n, n), array("Gamma", n, n)
        sigma0, sigma_u = array("sigma0", n, d), array("sigma_u", k, n, d)
        g_lin, g_quad = array("g_lin", k), array("g_quad", k, k)
        domain = ControlDomain(array("domain"))

        def sig(t, u):
            return sigma0[None, :, :] + np.einsum("bk,knd->bnd", u, sigma_u)

        def g(t, u):
            return u @ g_lin + 0.5 * np.einsum("bi,ij,bj->b", u, g_quad, u)

        return lq_embed(LQSpec(
            n=n, d=d, k=k, T=T, x0=x0,
            b1=lambda t: b1, b2=lambda t: b2, G=lambda t: G, Gamma=Gamma,
            sigma_u=sig, g=g, domain=domain,
        ))
    except (KeyError, ValueError, TypeError) as exc:  # ShapeError: x0 vs n, asymmetric G
        raise ConfigError(f"bad inline LQ problem: {exc}") from exc


# The keys each subcommand reads, with the defaults that are not MSAConfig's
# own (None: MSAConfig's default; u0_index's is the last control point).  The
# config key G is MSAConfig's depth.
_SOLVER_KEYS = dict.fromkeys(("M", "G", "m_max", "mu_tol", "N_max", "seed", "degree", "ridge"))
_EXPERIMENT_KEYS = dict.fromkeys(("u0_index", "seed", "degree", "ridge"))
_KEYS = {
    "solve": {**_SOLVER_KEYS, "problem": "lq-scalar", "u0": "first-point"},
    "bench": _SOLVER_KEYS,
    "remainder": {**_EXPERIMENT_KEYS, "problem": "nonconvex-diffusion", "M": 100_000, "G": 9},
    "variational": {**_EXPERIMENT_KEYS, "problem": "nonconvex-diffusion", "M": 20_000, "G": 7},
    "sequence": {"m_max": 100_000},
}
_MAX_PATH_BYTES = 16 << 30
_MAX_SEQUENCE_STEPS = 10**6  # about 5 s over the 12 (a1, A) pairs
_EPS_LEVELS = range(2, 7)  # validate remainder|variational: eps = T 2^-N around T/2


def _resolve(cfg, command: str, seed):
    """Map a parsed config to (spec, MSAConfig, u0) for one subcommand, or raise
    ConfigError with a one-line cause before anything runs.  spec and u0 are
    None for bench (every registry LQ problem is checked) and sequence."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, not a {type(cfg).__name__}")
    keys = _KEYS[command]
    _check_keys(cfg, keys, command)
    fields = {
        "depth" if key == "G" else key: _number(key, cfg.get(key, default))
        for key, default in keys.items()
        if key in _SOLVER_KEYS and (key in cfg or default is not None)
    }
    if seed is not None:
        fields["seed"] = seed
    try:
        config = MSAConfig(**fields)
    except ValueError as exc:
        raise ConfigError(f"bad run configuration: {exc}") from exc
    if command == "sequence" and not 1 <= config.m_max <= _MAX_SEQUENCE_STEPS:
        raise ConfigError(f"m_max={config.m_max} must be at least 1, at most {_MAX_SEQUENCE_STEPS}")
    if command == "sequence":
        return None, config, None

    bench = command == "bench"
    spec = None if bench else _problem_from_config(cfg.get("problem", keys["problem"]))
    for s in map(registry.get_lq, registry.lq_names()) if bench else [spec]:
        features = config.basis.feature_count(s.n)
        if config.M <= features:
            raise ConfigError(f"M={config.M} must exceed the {features} regression features")
        # the solver holds W, one candidate X, the gaps and three index arrays;
        # validate remainder's conditional estimator (scalar) keeps no W; seven (2^G, nx) float
        # arrays, nx = _LATTICE_NODES, safely over-count its one lattice row per kept step
        lattice = 7 * _LATTICE_NODES if command == "remainder" and s.n == s.d == 1 else 0
        idx = ControlProcess.index_dtype(s.domain.size).itemsize
        per_path = s.n * 8 if lattice else (s.n + s.d + 1) * 8 + 3 * idx
        bits = math.log2(config.M * per_path + lattice * 8) + config.depth
        if bits > math.log2(_MAX_PATH_BYTES):
            formula = (f"(M*n + {lattice} lattice)*2^G*8" if lattice
                       else f"M*2^G*((n+d+1)*8+3*{idx})")
            raise ConfigError(f"M={config.M}, G={config.depth}: paths need about 2^{bits:.1f} "
                              f"bytes ({formula}), over the {_MAX_PATH_BYTES >> 30} GiB limit")
    if bench:
        return None, config, None
    if command != "solve" and config.depth < _EPS_LEVELS[-1]:
        # tau +- T 2^-N lies on the grid only when the grid has 2^N steps
        raise ConfigError(f"G={config.depth} must be at least {_EPS_LEVELS[-1]} "
                          f"for eps down to T*2^-{_EPS_LEVELS[-1]}")
    key = "u0" if command == "solve" else "u0_index"
    u0 = cfg.get(key, keys[key] or spec.domain.size - 1)
    if command == "solve" and u0 in ("first-point", "worst-constant"):
        return spec, config, u0
    u0 = _number(key, u0)
    if not 0 <= u0 < spec.domain.size:
        raise ConfigError(f"{key} {u0} outside 0..{spec.domain.size - 1}")
    return spec, config, u0


def _slope(value: float):
    """A fitted slope for JSON: null where the fit is undefined (NaN)."""
    return None if math.isnan(value) else value


def cmd_solve(args):
    spec, config, u0 = _resolve(_load_json(args.config), "solve", args.seed)
    t0 = time.time()
    run = run_msa(spec, config, u0)
    summary = {
        "J_final": run.J_final,
        "mu_final": run.mu_final,
        "J_initial": run.J0,
        "mu_initial": run.mu0,
        "termination": run.termination,
        "iterations": sum(1 for r in run.records if r.accepted),
        "metadata": {"timestamp": time.time(), "wall_time_total": time.time() - t0},
    }
    log.info("solve finished: %s after %d accepted iterations", run.termination, summary["iterations"])
    return EXIT_OK, {
        "iterations.csv": records_to_csv(run.records),
        "iterations.json": [asdict(r) for r in run.records],
        "final_control.bin": array_bytes(run.final_control.values.astype(float), config.seed),
        "summary.json": summary,
    }


def cmd_bench(args):
    _, config, _ = _resolve(_load_json(args.config), "bench", args.seed)
    results = {name: rate_experiment(registry.get_lq(name), config) for name in registry.lq_names()}
    files, summary = {}, {}
    for name, result in results.items():
        files[f"rate_{name}.csv"] = result.csv()
        summary[name] = {
            "slope": _slope(result.slope),
            "J_star_analytic": result.J_star_analytic,
            "J_star_saa": result.J_star_saa,
            "termination": result.run.termination,
        }
    return EXIT_OK, {**files, "bench_summary.json": summary}


_SEQ_GRID_A1 = (0.1, 0.5, 1.0, 2.0)
_SEQ_GRID_A = (0.1, 1.0, 10.0)


def cmd_validate(args):
    spec, config, u0 = _resolve(_load_json(args.config), args.experiment, args.seed)
    if args.experiment == "sequence":
        rows = []
        for a1 in _SEQ_GRID_A1:
            for A in _SEQ_GRID_A:
                res = sequence_lemma_check(a1, A, config.m_max)
                rows.append((a1, A, res.max_b, res.bound, res.ok))
        code = EXIT_OK if all(row[-1] for row in rows) else EXIT_NUMERICAL
        return code, {"sequence.csv": to_csv(("a1", "A", "max_b", "bound", "ok"), rows)}

    eps_list = [spec.T * 2.0 ** (-N) for N in _EPS_LEVELS]
    experiment = remainder_experiment if args.experiment == "remainder" else variational_experiment
    res = experiment(spec, u0, spec.T / 2.0, eps_list, config)
    return EXIT_OK, {
        f"{args.experiment}.csv": res.csv(),
        f"{args.experiment}_summary.json": {"slope": _slope(res.slope)},
    }


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="msa-control", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
        p.add_argument("--threads", type=int, default=1,
                       help=f"ignored: ensembles of {2 * _PATHS_PER_WORKER}+ paths fork a worker "
                            "process per CPU taskset allows, with bitwise identical results")

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
        # --out is created only after the run returns: refuse one that cannot be a directory
        out = Path(args.out).absolute()
        found = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
        if not found.is_dir():
            raise ConfigError(f"--out {args.out}: {found} is not a directory")
        # every stage checks finiteness and raises a one-line cause
        with np.errstate(all="ignore"):
            code, files = args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        data = content if isinstance(content, (str, bytes)) else json.dumps(content, indent=2)
        (out / name).write_bytes(data.encode() if isinstance(data, str) else data)
    return code


if __name__ == "__main__":
    sys.exit(main())
