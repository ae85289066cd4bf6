"""Span tracer that wraps msa_control's public layer functions from outside.

Each wrapped function records a span: its name, its duration and the span
that was open when it was entered.  Spans are aggregated in memory into
calls, inclusive seconds and self seconds (the duration minus the part
covered by child spans), plus a call count per (parent, child) edge.

A wrapper is installed on every module attribute through which a caller
resolves the function: ``msa`` and ``oracle`` bind their own copies of
``simulate_state`` and friends through ``from .paths import``, so patching
``paths`` alone would miss those calls.  Modules are looked up with
``importlib.import_module`` because ``msa_control.hamiltonian`` as a package
attribute is the re-exported function, not the module.  A name that no
longer exists (for example after a refactor fuses two functions) is skipped
and reports zero calls.  ``restore`` puts every original back.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from collections import defaultdict

PACKAGE = "msa_control"

# (span name, function name, modules whose attribute of that name is the
# binding some caller resolves).  evaluate_cost and pathwise_cost share the
# "paths.cost" span; a re-entrant call of an open span's name (evaluate_cost
# calling pathwise_cost) is folded into the outer span.
LAYERS = (
    ("paths.generate_brownian", "generate_brownian", ("paths", "msa", "oracle")),
    ("paths.simulate_state", "simulate_state", ("paths", "msa", "oracle")),
    ("paths.cost", "evaluate_cost", ("paths", "msa", "oracle")),
    ("paths.cost", "pathwise_cost", ("paths", "oracle")),
    ("adjoint.first", "solve_first_adjoint", ("adjoint", "msa")),
    ("adjoint.second", "solve_second_adjoint", ("adjoint", "msa")),
    ("adjoint.regress", "regress_conditional", ("adjoint",)),
    ("hamiltonian.gap_process", "gap_process", ("hamiltonian", "msa")),
    ("hamiltonian.minimize_h", "minimize_h", ("hamiltonian",)),
    ("hamiltonian.h_function", "h_function", ("hamiltonian",)),
    ("msa.run_msa", "run_msa", ("msa", "oracle")),
    ("msa.prepare_state", "prepare_state", ("msa", "oracle")),
    ("msa.step", "msa_step", ("msa",)),
    ("msa.find_descent_interval", "find_descent_interval", ("msa",)),
    ("oracle.remainder", "remainder_experiment", ("oracle",)),
)

COEFF_SPAN = "model.coeff"


class Tracer:
    """Aggregating span recorder; use as a context manager around a call."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, child) -> calls, s
        self.counters = defaultdict(float)
        self._stack = []  # open spans: [name, child seconds]
        self._patches = []  # (module, attribute, original)
        self._init_t0 = None

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, kwargs, result)`` may count."""
        stack, edges, clock = self._stack, self.edges, time.perf_counter
        stat = self.stats[name]
        enter = self._enter_hook(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            if enter is not None:
                enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                    edge = edges[parent[0], name]
                    edge[0] += 1
                    edge[1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _enter_hook(self, name):
        # msa.init: from run_msa entry to the first prepare_state entry.
        if name == "msa.run_msa":
            def enter():
                self._init_t0 = time.perf_counter()
            return enter
        if name == "msa.prepare_state":
            def enter():
                if self._init_t0 is not None:
                    self.counters["msa.init.s"] += time.perf_counter() - self._init_t0
                    self._init_t0 = None
            return enter
        return None

    def _after(self, name):
        c = self.counters
        if name == "paths.simulate_state":
            def after(args, kwargs, X):
                W = _arg(args, kwargs, 2, "W")
                c["paths.simulate_state.path_steps"] += W.M * W.steps
                c["paths.simulate_state.bytes_computed"] += (
                    W.increments.nbytes + X.states.nbytes + X.control_values.nbytes
                )
            return after
        if name == "hamiltonian.gap_process":
            def after(args, kwargs, gaps):
                spec = _arg(args, kwargs, 0, "spec")
                c["hamiltonian.cells"] += gaps.values.size * spec.domain.size
            return after
        if name == "msa.step":
            def after(args, kwargs, outcome):
                c["msa.step.accepted"] += outcome.kind == "accepted"
            return after
        return None

    # -- installation --------------------------------------------------------

    def install(self):
        for name, attr, modules in self.layers:
            for mod_name in modules:
                try:
                    mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
                except ModuleNotFoundError:
                    continue
                original = getattr(mod, attr, None)
                if not callable(original):
                    continue
                self._patches.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original, self._after(name)))
        return self

    def restore(self):
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def traced_spec(self, spec):
        """Copy of ``spec`` whose coefficient callbacks are wrapped in spans."""
        coeffs = spec.coefficients
        wrapped = {
            f.name: self.wrap(COEFF_SPAN, getattr(coeffs, f.name))
            for f in dataclasses.fields(coeffs)
        }
        return dataclasses.replace(spec, coefficients=dataclasses.replace(coeffs, **wrapped))

    # -- reporting -----------------------------------------------------------

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def total(self, name):
        return self.stats[name][1] if name in self.stats else 0.0

    def self_time(self, name):
        return self.stats[name][2] if name in self.stats else 0.0

    def edge_calls(self, parent, name):
        return self.edges[parent, name][0] if (parent, name) in self.edges else 0

    def module_seconds(self):
        """Seconds per module: its spans' self time plus the coefficient
        callbacks they call directly.  The values partition the traced time."""
        out = defaultdict(float)
        for name, (_, _, self_s) in self.stats.items():
            if name != COEFF_SPAN:
                out[name.split(".")[0]] += self_s
        for (parent, name), (_, secs) in self.edges.items():
            if name == COEFF_SPAN:
                out[parent.split(".")[0]] += secs
        return dict(out)

    def metrics(self, per=1):
        """Per-layer metrics by their BENCHMARK.json names (no units).

        Totals and counts are divided by ``per``, the number of traced calls;
        rates and ratios are not.
        """
        c = self.counters
        sim_s = self.total("paths.simulate_state")
        gap_s = self.total("hamiltonian.gap_process")
        candidates = self.edge_calls("msa.step", "paths.simulate_state")
        totals = {
            "paths.generate_brownian.s": self.total("paths.generate_brownian"),
            "paths.simulate_state.s": sim_s,
            "paths.simulate_state.calls": self.calls("paths.simulate_state"),
            "paths.simulate_state.bytes_computed": int(c["paths.simulate_state.bytes_computed"]),
            "paths.cost.s": self.total("paths.cost"),
            "paths.cost.calls": self.calls("paths.cost"),
            "adjoint.first.self_s": self.self_time("adjoint.first"),
            "adjoint.second.self_s": self.self_time("adjoint.second"),
            "adjoint.regress.s": self.total("adjoint.regress"),
            "adjoint.regress.calls": self.calls("adjoint.regress"),
            "hamiltonian.gap_process.self_s": self.self_time("hamiltonian.gap_process"),
            "hamiltonian.minimize_h.s": self.total("hamiltonian.minimize_h"),
            "hamiltonian.minimize_h.calls": self.calls("hamiltonian.minimize_h"),
            "hamiltonian.h_function.calls": self.calls("hamiltonian.h_function"),
            "model.coeff.calls": self.calls(COEFF_SPAN),
            "model.coeff.s": self.total(COEFF_SPAN),
            "msa.init.s": c["msa.init.s"],
            "msa.prepare_state.calls": self.calls("msa.prepare_state"),
            "msa.step.self_s": self.self_time("msa.step"),
            "msa.step.levels_tried": self.edge_calls("msa.step", "msa.find_descent_interval"),
            "msa.step.candidates": candidates,
            "oracle.remainder.self_s": self.self_time("oracle.remainder"),
        }
        out = {k: v / per for k, v in totals.items()}
        out["paths.simulate_state.path_steps_per_s"] = _rate(
            c["paths.simulate_state.path_steps"], sim_s
        )
        out["hamiltonian.cells_per_s"] = _rate(c["hamiltonian.cells"], gap_s)
        out["msa.accept_ratio"] = _rate(c["msa.step.accepted"], candidates)
        return out


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rate(num, den):
    return num / den if den > 0 else 0.0
