"""Measure the path split: end-to-end pairs against a parent checkout, and
simulate_state / generate_brownian per layer, serial against split.

    git archive <parent-commit> | tar -x -C <parent-dir>
    python3 scripts/bench_paths_parallel.py --parent <parent-dir> --out BENCH_paths_parallel.json

Pairs come from ``bench_pairs.pairs``.  The per-layer part imports this
checkout's ``src`` and forces one worker, or a split over every CPU at any
size, by replacing ``paths._PATHS_PER_WORKER``; every split result is
compared bit for bit with the serial one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

from bench_pairs import ROOT, host, pairs


def _alternate(serial, split, repeats):
    """Median seconds of serial() and split(), run alternately."""
    times = {"serial": [], "split": []}
    for r in range(repeats):
        for name in (("serial", "split") if r % 2 else ("split", "serial")):
            fn = serial if name == "serial" else split
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)
    return {name: round(statistics.median(ts), 4) for name, ts in times.items()}


def layers(repeats: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import msa_control as mc
    from msa_control import paths

    cpus = len(os.sched_getaffinity(0))
    floor = paths._PATHS_PER_WORKER

    def forced(fn, split):
        """fn run as one worker, or split over every CPU whatever the size."""
        def run():
            paths._PATHS_PER_WORKER = 1 if split else 1 << 62
            try:
                return fn()
            finally:
                paths._PATHS_PER_WORKER = floor
        return run

    out = {"paths_per_worker": floor, "cpus": cpus, "simulate_state": [],
           "generate_brownian": None}
    for name in ("lq-scalar", "nonconvex-diffusion"):
        spec = mc.get_problem(name)
        grid = mc.TimeGrid(T=spec.T, depth=9)
        for M in (16384, 20000, 32768, 100000):
            W = mc.generate_brownian(grid, M, spec.d, 7)
            u = mc.ControlProcess.constant(spec.domain.size - 1, M, grid.steps,
                                           spec.domain.size)
            sim = lambda: mc.simulate_state(spec, grid, W, u).states  # noqa: E731
            serial, split = forced(sim, False), forced(sim, True)
            row = {"problem": name, "M": M, "G": 9, "library_splits": M >= 2 * floor,
                   **_alternate(serial, split, repeats),
                   "states_equal": bool(np.array_equal(serial(), split()))}
            row["speedup"] = round(row["serial"] / row["split"], 3)
            out["simulate_state"].append(row)
            print(row, file=sys.stderr)

    # generate_brownian stays serial: each path restores a fresh Philox state,
    # which holds the interpreter lock.  Split the same per-path loop here to
    # show the loss.
    grid, M, seed = mc.TimeGrid(T=1.0, depth=9), 40000, 7

    def draw(lo, hi, out_arr):
        bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        gen, fresh = np.random.Generator(bitgen), bitgen.state
        for p in range(lo, hi):
            fresh["state"]["key"][1] = p
            bitgen.state = fresh
            gen.standard_normal(out=out_arr[p])

    def drawn():
        arr = np.empty((M, grid.steps, 1))
        paths._split_paths(M, lambda lo, hi: draw(lo, hi, arr))
        return arr

    serial, split = forced(drawn, False), forced(drawn, True)
    row = {"M": M, "G": 9, **_alternate(serial, split, repeats),
           "draws_equal": bool(np.array_equal(serial(), split())),
           "library_s": round(statistics.median(
               _time(lambda: mc.generate_brownian(grid, M, 1, seed)) for _ in range(3)), 4)}
    row["speedup"] = round(row["serial"] / row["split"], 3)
    out["generate_brownian"] = row
    print(row, file=sys.stderr)
    return out


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--pairs", type=int, default=10, help="pairs on nonconvex-remainder")
    ap.add_argument("--solve-pairs", type=int, default=6, help="pairs on each solve workload")
    ap.add_argument("--repeats", type=int, default=7, help="per-layer repeats per side")
    args = ap.parse_args(argv)

    report = {
        "what": "path split across CPUs: perfbench pairs against the parent commit, and "
                "per-layer medians, one worker forced against a split over every CPU "
                "forced at any size (library_splits: whether the library splits at that M)",
        "command": "python3 perfbench/run.py --workload <name> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "host": host(),
        "workloads": {},
    }
    plan = (("nonconvex-remainder", args.pairs), ("lq-scalar-solve", args.solve_pairs),
            ("nonconvex-solve", args.solve_pairs))
    for workload, n in plan:
        seeds = list(range(1, n + 1))
        report["workloads"][workload] = {"seeds": seeds,
                                         **pairs(args.parent, workload, seeds, args.seconds)}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    # Last: a child's peak_rss_mb (ru_maxrss) starts from this process's
    # high-water mark, which the per-layer arrays would raise to about 1.2 GB.
    report["layers"] = layers(args.repeats)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
