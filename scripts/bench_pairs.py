"""Run the benchmark in alternating pairs against a parent checkout and
report, per workload, the end-to-end metrics of both sides, each side's
result fields seed by seed, and the result fields that differ from the
parent's.

Each metric also states the acceptance rule.  ``gain_shown``: the change
wins at least 9 of 10 pairs, and its median beats the parent's by more than
the parent's interquartile range (``parent_iqr``; ``median_diff`` is the
change's median minus the parent's).  ``within_bound``: the change's median
is no worse than the parent's by more than the metric's ``bound`` in
BENCHMARK.json.

    git archive <parent-commit> | tar -x -C <parent-dir>
    python3 scripts/bench_pairs.py --parent <parent-dir> --out BENCH_<name>.json \\
        --workloads lq-scalar-solve nonconvex-solve nonconvex-remainder --seeds 1-10

Each pair runs the BENCHMARK.json command (``perfbench/run.py --trace 0``,
``run_seconds`` long) in both checkouts back to back, parent first on odd
seeds and change first on even seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "run_s", "iter_s", "peak_rss_mb")
WIN_SHARE = 0.9  # of the pairs that a claimed gain must win


def _bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    # the last line holds the metrics; the one before, the run record with
    # the result fields in hex
    return {"final": json.loads(lines[-1]), "results": json.loads(lines[-2])["record"]["result"]}


def _quartiles(xs) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "per_seed": [round(x, 4) for x in xs]}


def _rel_diff(a, b) -> float:
    """Relative difference of two result values: floats (hex or plain) or
    lists of them; inf for anything else that differs."""
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max(map(_rel_diff, a, b), default=0.0)
    try:
        x, y = (float.fromhex(v) if isinstance(v, str) else float(v) for v in (a, b))
    except (TypeError, ValueError):
        return 0.0 if a == b else math.inf
    return abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0


def _differing(seeds, parent_runs, change_runs) -> dict:
    """Result fields that differ from the parent's: the seeds where each one
    differs and the largest relative difference."""
    out = {}
    for seed, p, c in zip(seeds, parent_runs, change_runs):
        for key in sorted(set(p["results"]) | set(c["results"])):
            a, b = p["results"].get(key), c["results"].get(key)
            if a != b:
                entry = out.setdefault(key, {"seeds": [], "max_rel_diff": 0.0})
                entry["seeds"].append(seed)
                entry["max_rel_diff"] = max(entry["max_rel_diff"], _rel_diff(a, b))
    return out


def _verdict(parent, change, metric: dict) -> dict:
    """The acceptance rule for one metric's per-pair values, on its BENCHMARK.json entry."""
    sign = 1 if metric["better"] == "lower" else -1  # > 0: the change is better
    q1, med, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    change_med = statistics.median(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    return {"change_wins": wins, "parent_iqr": round(q3 - q1, 4),
            "median_diff": round(change_med - med, 4),
            "gain_shown": wins >= WIN_SHARE * len(parent) and sign * (med - change_med) > q3 - q1,
            "within_bound": sign * (change_med - med) <= metric["bound"] * abs(med)}


def pairs(parent: Path, workload: str, seeds, seconds: float, metrics: dict) -> dict:
    runs = {"parent": [], "change": []}
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            runs[side].append(_bench(parent if side == "parent" else ROOT, workload, seed,
                                     seconds))
            print(workload, seed, side, runs[side][-1]["final"]["metrics"], file=sys.stderr)
    out = {side: {"attempted": sum(r["final"]["attempted"] for r in rs),
                  "failed": sum(r["final"]["failed"] for r in rs)}
           for side, rs in runs.items()}
    out["results_differing_from_parent"] = _differing(seeds, runs["parent"], runs["change"])
    out["results_per_seed"] = {side: [r["results"] for r in rs] for side, rs in runs.items()}
    for metric in METRICS:
        values = {side: [r["final"]["metrics"][metric]["value"] for r in rs]
                  for side, rs in runs.items()}
        out[metric] = {side: _quartiles(v) for side, v in values.items()}
        out[metric].update(_verdict(values["parent"], values["change"], metrics[metric]))
    return out


def _blas_kernel(numpy) -> str:
    """The kernel that numpy's bundled OpenBLAS picked on this CPU (the bits of
    the regressions depend on it), or "unknown" without that library or symbol."""
    import ctypes

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    libs = sorted(libdir.glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def host() -> dict:
    import numpy
    import scipy

    return {"cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_kernel": _blas_kernel(numpy), "machine": platform.machine()}


def _seeds(text: str) -> list:
    """'1-10' or '1,3,5'."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="'1-10' or '1,3,5'")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, metrics = bench["run_seconds"], {m["name"]: m for m in bench["end_to_end"]}
    report = {
        "command": "python3 perfbench/run.py --workload <name> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "host": host(),
        "workloads": {},
    }
    for workload in args.workloads:
        report["workloads"][workload] = {"seeds": args.seeds,
                                         **pairs(args.parent, workload, args.seeds, seconds,
                                                 metrics)}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
