"""Tests for the benchmark harness: exact layer counts, span accounting,
result checks, seed plumbing and the command-line contract.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

DEPTH = 4
SOLVES = ("lq-scalar-solve", "nonconvex-solve")


def tiny(name, **kw):
    return dataclasses.replace(wl.WORKLOADS[name], **{"M": 500, "depth": DEPTH, **kw})


def traced_call(workload, seed=7):
    tracer = Tracer()
    with tracer:
        prep = wl.prepare(workload, seed)
        result = prep.call(tracer.traced_spec(prep.spec))
    return tracer, prep, result


@pytest.mark.parametrize("name", SOLVES)
def test_solve_counts_match_formulas(name):
    tracer, prep, result = traced_call(tiny(name))
    m = tracer.metrics()
    S, V = 1 << DEPTH, prep.spec.domain.size
    accepted = sum(r.accepted for r in result.records)
    prepares = accepted + 1
    assert m["msa.prepare_state.calls"] == prepares
    assert m["adjoint.regress.calls"] == 4 * S * prepares
    assert m["hamiltonian.minimize_h.calls"] == S * prepares
    assert m["hamiltonian.h_function.calls"] == V * S * prepares
    # worst-constant initializer, one per prepare, one per candidate
    assert m["paths.simulate_state.calls"] == V + prepares + m["msa.step.candidates"]
    assert m["paths.cost.calls"] == m["paths.simulate_state.calls"]
    assert m["msa.accept_ratio"] == accepted / m["msa.step.candidates"]
    assert m["paths.simulate_state.bytes_computed"] > 0
    assert m["model.coeff.calls"] > 0
    assert tracer.calls("paths.generate_brownian") == 1
    assert m["oracle.remainder.self_s"] == 0.0
    # counts repeat exactly on the same input
    again, _, _ = traced_call(tiny(name))
    counts = [k for k in m if k.endswith(".calls")]
    counts += ["msa.step.levels_tried", "msa.step.candidates"]
    assert {k: again.metrics()[k] for k in counts} == {k: m[k] for k in counts}


def test_remainder_counts():
    tracer, _, _ = traced_call(tiny("nonconvex-remainder", M=2000, depth=7))
    m = tracer.metrics()
    assert tracer.calls("paths.generate_brownian") == 1
    assert m["paths.simulate_state.calls"] == 1
    assert m["adjoint.regress.calls"] == 0
    assert m["hamiltonian.minimize_h.calls"] == 0
    assert m["msa.prepare_state.calls"] == 0
    assert m["oracle.remainder.self_s"] > 0


def test_self_times_nonnegative_and_within_parent():
    tracer = Tracer()
    prep = wl.prepare(tiny("lq-scalar-solve"), 7)
    with tracer:
        prep.call(tracer.traced_spec(prep.spec))
    for name, (calls, total, self_s) in tracer.stats.items():
        assert self_s >= -1e-9, name
        assert self_s <= total + 1e-9, name
    root = tracer.total("msa.run_msa")
    assert sum(s for _, _, s in tracer.stats.values()) <= root * (1 + 1e-9)


def test_tracer_restores_and_tolerates_missing_names():
    layers = LAYERS + (
        ("gone.function", "no_such_function", ("paths",)),
        ("gone.module", "anything", ("no_such_module",)),
    )
    msa_mod = importlib.import_module("msa_control.msa")
    originals = {attr: getattr(msa_mod, attr) for attr in ("simulate_state", "prepare_state")}
    tracer = Tracer(layers=layers)
    with tracer:
        assert msa_mod.simulate_state is not originals["simulate_state"]
        # the package attribute `hamiltonian` is the function, the module is patched
        ham = importlib.import_module("msa_control.hamiltonian")
        assert ham.minimize_h.__wrapped__ is not None
        import msa_control

        assert not hasattr(msa_control.hamiltonian, "__wrapped__")
    for attr, fn in originals.items():
        assert getattr(msa_mod, attr) is fn
    assert tracer.calls("gone.function") == 0
    assert not hasattr(importlib.import_module("msa_control.hamiltonian").minimize_h,
                       "__wrapped__")


def test_seed_reaches_ensemble():
    a = wl.prepare(tiny("lq-scalar-solve"), 11)
    b = wl.prepare(tiny("lq-scalar-solve"), 12)
    assert a.W.seed == 11 and a.config.seed == 11
    ref = wl.mc.generate_brownian(a.grid, a.workload.M, a.spec.d, 11)
    assert (a.W.increments == ref.increments).all()
    assert not (a.W.increments == b.W.increments).all()
    rem = wl.prepare(tiny("nonconvex-remainder"), 13)
    assert rem.config.seed == 13


def test_broken_results_count_as_failed():
    prep = wl.prepare(tiny("lq-scalar-solve"), 7)
    good = prep.call()
    assert wl.check(prep, good) == []
    broken = [
        dataclasses.replace(good, J_final=math.nan),
        dataclasses.replace(good, mu_final=math.inf),
        dataclasses.replace(good, J_final=good.J0),  # optimality gap not closed
    ]
    rec = good.records[0]
    raised = dataclasses.replace(rec, J=rec.J + 1.0)  # breaks the descent log
    broken.append(dataclasses.replace(good, records=[rec, raised] + good.records[2:]))
    for result in broken:
        assert wl.check(prep, result)

    results = iter([good, broken[0]])

    class Fake:
        workload, spec = prep.workload, prep.spec

        def call(self, spec=None):
            return next(results)

        def oracle_J(self):
            return prep.oracle_J()

    out = run.Outcome(wl, Fake())
    out.call()
    out.call()
    assert (out.attempted, out.failed) == (2, 1)

    def boom(spec=None):
        raise FloatingPointError("nan")

    raising = run.Outcome(wl, dataclasses.replace(prep))
    raising.prepared.call = boom
    raising.call()
    assert (raising.attempted, raising.failed) == (1, 1)


def test_remainder_check_criterion_6():
    prep = wl.prepare(tiny("nonconvex-remainder"), 7)
    fake = wl.mc.RemainderResult(
        rows=[(0.25, 1e-2, False), (0.125, 3e-3, True)], slope=1.7, standard_errors=[0, 0]
    )
    assert "only 1 uncensored rows" in wl.check(prep, fake)[0]
    fake.rows[1] = (0.125, 3e-3, False)
    assert wl.check(prep, fake) == []
    fake.slope = 1.0
    assert wl.check(prep, fake)


def _bench(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_command_prints_contract_line():
    res = _bench(["--workload", "nonconvex-solve", "--seed", "3", "--seconds", "0",
                  "--trace", "0"], ROOT)
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    record = json.loads(res.stdout.strip().splitlines()[-2])["record"]
    assert record["seed"] == 3 and record["sizes"]["M"] == wl.WORKLOADS["nonconvex-solve"].M


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = _bench(["--workload", "nonconvex-solve", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], tmp_path)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
