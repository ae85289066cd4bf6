"""Benchmark entry point for msa-control.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from the
checkout's ``src`` directory, never from an installed copy.  With
``--trace 0`` it times the workload's public API call back to back, up to
the call boundary nearest ``--seconds``, and prints the end-to-end metrics;
with ``--trace 1`` it alternates plain and traced calls and prints the
per-layer metrics.  ``--workload all`` runs every workload in turn.  Every
result is checked.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a JSON run record (host, sizes, results).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 60


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs, print 'ready' and exit")
    return p.parse_args(argv)


def _import_library():
    if not (SRC / "msa_control" / "__init__.py").is_file():
        raise SystemExit(f"error: no msa_control sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: E402  (needs the path set above)

    if Path(workloads.mc.__file__).resolve().parent != SRC / "msa_control":
        raise SystemExit(f"error: imported msa_control from {workloads.mc.__file__}")
    return workloads


def _self_cmd(workload: str, seed: int, *flags) -> list:
    """This benchmark's command line for another process."""
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), *flags]


def measure_setup(workload: str, seed: int, samples: int = SETUP_SAMPLES) -> list:
    """Seconds from process start to a built workload, in fresh processes."""
    out = []
    cmd = _self_cmd(workload, seed, "--setup-only")
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            dt = time.perf_counter() - t0
            proc.stdout.close()
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or rc != 0:
            raise RuntimeError(f"setup process failed (exit {rc})")
        out.append(dt)
    return out


def host_info() -> dict:
    import numpy
    import scipy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_bytes": _l3_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads_env": {
            k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_bytes() -> int:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            if (idx / "level").read_text().strip() == "3":
                size = (idx / "size").read_text().strip()
                mult = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
                return int(size.rstrip("KM")) * mult
        except (OSError, ValueError):
            continue
    return 0


def _reference(workload: str, seed: int):
    """The committed result for this workload and seed, if there is one."""
    try:
        ref = json.loads(BASELINE.read_text())["reference"]
    except (OSError, ValueError, KeyError):
        return None
    if ref.get("seed") != seed:
        return None
    return ref.get("workloads", {}).get(workload)


def _bitwise_match(summary: dict, reference) -> object:
    if reference is None:
        return None
    return all(summary.get(k) == v for k, v in reference.items())


class Outcome:
    """Counts attempted and failed calls; compares results across repeats."""

    def __init__(self, wl, prepared):
        self.wl, self.prepared = wl, prepared
        self.attempted = self.failed = 0
        self.reasons = []
        self.summary = None

    def call(self, prepared=None, spec=None):
        """Time one call; returns (seconds, result or None)."""
        prepared = prepared or self.prepared
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = prepared.call(spec)
        except Exception as exc:  # a raising call is a failed operation
            dt = time.perf_counter() - t0
            self._fail(f"{type(exc).__name__}: {exc}")
            return dt, None
        dt = time.perf_counter() - t0
        bad = self.wl.check(prepared, result)
        summary = self.wl.summarize(prepared, result)
        if self.summary is None:
            self.summary = summary
        elif summary != self.summary:
            bad.append("result differs from the first call on the same input")
        if bad:
            self._fail("; ".join(bad))
        return dt, result

    def _fail(self, reason):
        self.failed += 1
        if reason not in self.reasons:
            self.reasons.append(reason)


def _done(start, last, seconds):
    """Stop at the call boundary nearest to ``seconds`` (at least one call)."""
    return time.perf_counter() - start + last / 2 >= seconds


def run_plain(wl, prepared, seconds):
    out = Outcome(wl, prepared)
    run_s, iter_s = [], []
    start = time.perf_counter()
    while True:
        dt, result = out.call()
        run_s.append(dt)
        if result is not None:
            iter_s.append(dt / wl.work_units(prepared, result))
        if _done(start, dt, seconds):
            break
    return out, run_s, iter_s


def run_traced(wl, prepared, seconds):
    """Alternate plain and traced calls; per-layer numbers are per traced call.

    Each traced repetition also rebuilds the inputs under the tracer, so the
    ensemble generation that a solve does in set-up is measured too.
    """
    from tracer import Tracer

    out = Outcome(wl, prepared)
    plain_s, plain_cpu, traced_s = [], [], []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        pair_t0 = time.perf_counter()
        c0 = time.process_time()
        dt, _ = out.call()
        plain_cpu.append(time.process_time() - c0)
        plain_s.append(dt)
        with tracer:
            traced_prep = wl.prepare(prepared.workload, prepared.seed)
            dt, _ = out.call(traced_prep, tracer.traced_spec(traced_prep.spec))
        traced_s.append(dt)
        if _done(start, time.perf_counter() - pair_t0, seconds):
            break
    n = len(traced_s)
    metrics = tracer.metrics(per=n)
    run_med = statistics.median(plain_s)
    metrics["proc.cpu_s"] = statistics.median(plain_cpu)
    metrics["proc.cpu_util"] = metrics["proc.cpu_s"] / run_med
    metrics["proc.trace_overhead_frac"] = statistics.median(traced_s) / run_med - 1.0
    n_s = {k: v / n for k, v in tracer.module_seconds().items()}
    extra = {
        "samples": {"plain_run_s": plain_s, "traced_run_s": traced_s},
        "module_s": n_s,
        "dominant_module": max(n_s, key=n_s.get) if n_s else None,
    }
    return out, metrics, extra


def run_all(args, names) -> int:
    """Run every workload in its own process; print a table and a total line."""
    attempted = failed = 0
    metrics = {}
    for name in names:
        cmd = _self_cmd(name, args.seed, "--seconds", str(args.seconds),
                        "--trace", str(args.trace))
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        last = json.loads(res.stdout.strip().splitlines()[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        for k, v in last["metrics"].items():
            print(f"{name:22s} {k:40s} {v['value']:>14.6g} {v['unit']}")
            metrics[f"{name}/{k}"] = v
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    wl = _import_library()
    if args.workload == "all" and not args.setup_only:
        return run_all(args, list(wl.WORKLOADS))
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    if args.setup_only:
        wl.prepare(workload, args.seed)
        print("ready", flush=True)
        return 0

    bench = json.loads(BENCHMARK.read_text())
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    setup_s = measure_setup(args.workload, args.seed) if args.trace == 0 else []
    prepared = wl.prepare(workload, args.seed)
    if args.trace == 0:
        out, run_s, iter_s = run_plain(wl, prepared, args.seconds)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "run_s": statistics.median(run_s),
            "iter_s": statistics.median(iter_s) if iter_s else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        extra = {"samples": {"setup_s": setup_s, "run_s": run_s, "iter_s": iter_s}}
    else:
        out, metrics, extra = run_traced(wl, prepared, args.seconds)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           f"{BENCHMARK.name}")
    summary = out.summary or {}
    working_set = wl.working_set_bytes(workload, prepared.spec)
    host = host_info()
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "sizes": {"M": workload.M, "G": workload.depth, "m_max": workload.m_max,
                  "V": prepared.spec.domain.size},
        "working_set_mb": working_set / 2**20,
        "working_set_over_l3": working_set / host["l3_bytes"] if host["l3_bytes"] else None,
        "host": host,
        "result": summary,
        "bitwise_match": _bitwise_match(summary, _reference(workload.name, args.seed)),
        "failures": out.reasons,
        **extra,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
