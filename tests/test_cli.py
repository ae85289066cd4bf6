import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import warnings

import pytest

import msa_control
from msa_control.cli import (
    _KEYS, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, ConfigError, _load_json, _resolve, main,
)

from conftest import nan_at_level_one_candidate


INLINE_LQ = {
    "type": "lq",
    "n": 1, "d": 1, "k": 1, "T": 1.0,
    "x0": [1.0],
    "b1": [[-0.5]],
    "G": [[1.0]],
    "Gamma": [[1.0]],
    "sigma0": [[0.3]],
    "sigma_u": [[[0.5]]],
    "g_quad": [[0.2]],
    "domain": [[-1.0], [0.0], [1.0]],
}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"problem": "lq-scalar", "M": 200, "G": 4, "m_max": 3}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def strict_json(path):
    """Parse a JSON output, failing on the non-JSON tokens NaN and Infinity."""

    def reject(token):
        raise ValueError(f"{token} in {path}")

    return json.loads(path.read_text(), parse_constant=reject)


def strip_wall_time(csv_text):
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    return [row[:-1] for row in rows]


class TestSolve:
    def test_writes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        for name in ("iterations.csv", "iterations.json", "final_control.bin", "summary.json"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["J_final"] <= summary["J_initial"]

    def test_zero_budget(self, tmp_path):
        cfg = write_config(tmp_path, m_max=0)
        out = tmp_path / "out"
        rc = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 0

    def test_missing_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()  # no partial outputs
        assert "error" in capsys.readouterr().err

    def test_bad_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": "lq-scalar",\n  "M": }\n')
        rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_unknown_problem(self, tmp_path, capsys):
        cfg = write_config(tmp_path, problem="no-such-problem")
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("field, value", [("N_max", 0), ("degree", -1), ("ridge", -1e-8)])
    def test_invalid_solver_setting(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, **{field: value})
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"M": 3}, {"u0": "bogus"}, {"u0": 99}, {"u0": -1}, {"ridge": 0},
            # a str is the whole config file, for what json.dumps cannot write
            '[{"M": 200}]', {"G": 40}, {"G": 1_000_000_000}, {"mu_tol": float("nan")},
            '{"M": 200, "G": 4, "ridge": 1e400}', {"M": 200.9}, {"M": "200"},
            {"m_max": True}, {"Mmax": 3},
            # its zero sigma0 and sigma_u defaults alone would need 8 PB
            {"problem": {**INLINE_LQ, "d": 10**15}},
        ],
        ids=[
            "M-not-above-features", "u0-unknown", "u0-index-99", "u0-index-minus-1",
            "ridge-zero-with-degree", "top-level-list", "G-40", "G-1e9", "mu_tol-nan",
            "ridge-overflow", "M-non-integral", "M-string", "m_max-bool", "unknown-key",
            "inline-lq-d-1e15",
        ],
    )
    def test_invalid_run_input(self, tmp_path, capsys, overrides):
        if isinstance(overrides, str):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(overrides)
        else:
            cfg = write_config(tmp_path, **overrides)
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_rank_error_exits_numerical(self, tmp_path, capsys, monkeypatch):
        import msa_control.cli as cli

        def rank_deficient(*args, **kwargs):
            raise cli.RegressionRankError("design matrix rank 1 < 3 features; set ridge > 0")

        monkeypatch.setattr(cli, "run_msa", rank_deficient)
        cfg = write_config(tmp_path)
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: design matrix rank 1 < 3 features; set ridge > 0\n"
        )

    def test_diverging_initializer_exits_numerical(self, tmp_path, capsys):
        # b1 = 1e300 sends every constant control to inf at step 2
        cfg = write_config(tmp_path, problem={**INLINE_LQ, "b1": [[1e300]]}, u0="worst-constant")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_NUMERICAL and caught == []
        assert capsys.readouterr().err == (
            "numerical failure: non-finite state under constant control 0 at path 0, step 2\n"
        )

    def test_nonfinite_candidate_cost_exits_numerical(self, tmp_path, capsys, monkeypatch):
        import msa_control.cli as cli

        spec, config = nan_at_level_one_candidate()
        monkeypatch.setattr(cli.registry, "get_problem", lambda name: spec)
        cfg = write_config(tmp_path, M=config.M, G=config.depth, seed=config.seed, m_max=50)
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: non-finite candidate cost at iteration 0, level 1, interval 1\n"
        )
        assert not (tmp_path / "out").exists()

    def test_outputs_pinned(self, tmp_path):
        # recorded before the switch to time-major per-path arrays: the
        # control file's bytes and every solver decision stay in place (mu is
        # left out: its step sums changed order, which moves its last digit)
        cfg = write_config(tmp_path, M=1000, G=5, m_max=10)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        digest = hashlib.sha256((out / "final_control.bin").read_bytes()).hexdigest()
        assert digest == "8b8ea1641c21399b4bc469cc357389bba61c1ccf3044dbd33ca2ec0b65466265"
        rows = [line.split(",") for line in (out / "iterations.csv").read_text().splitlines()]
        assert [[m, J, N, j, acc] for m, J, _, N, j, acc, _ in rows] == [
            ["m", "J", "N", "j", "accepted"],
            ["0", "0.6197705674643023", "1", "1", "1"],
            ["1", "0.5253452798247763", "1", "1", "1"],
            ["2", "0.524500268793908", "3", "1", "1"],
            ["3", "0.5244834129643599", "0", "0", "0"],
        ]

    def test_inline_lq_x0_length_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, problem={**INLINE_LQ, "x0": [1.0, 2.0]})
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: bad inline LQ problem") and err.count("\n") == 1
        assert "x0" in err

    def test_inline_lq_problem(self, tmp_path):
        cfg = write_config(
            tmp_path,
            problem=INLINE_LQ,
        )
        out = tmp_path / "out"
        rc = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "summary.json").exists()

    def test_deterministic_csvs(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for i, threads in enumerate((1, 4)):
            out = tmp_path / f"out{i}"
            rc = main(
                ["solve", "--config", str(cfg), "--out", str(out), "--threads", str(threads)]
            )
            assert rc == EXIT_OK
            outs.append(strip_wall_time((out / "iterations.csv").read_text()))
        assert outs[0] == outs[1]

    def test_seed_override_changes_run(self, tmp_path):
        cfg = write_config(tmp_path)
        texts = []
        for i, seed in enumerate((7, 8)):
            out = tmp_path / f"seed{i}"
            main(["solve", "--config", str(cfg), "--out", str(out), "--seed", str(seed)])
            texts.append(strip_wall_time((out / "iterations.csv").read_text()))
        assert texts[0] != texts[1]


class TestValidate:
    def test_sequence(self, tmp_path):
        out = tmp_path / "seq"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m_max": 1000}))
        rc = main(["validate", "sequence", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        text = (out / "sequence.csv").read_text()
        assert text.splitlines()[0] == "a1,A,max_b,bound,ok"
        assert len(text.strip().splitlines()) == 1 + 4 * 3

    def test_sequence_steps_bounded(self):
        assert _resolve({"m_max": 10**6}, "sequence", None)[1].m_max == 10**6
        with pytest.raises(ConfigError, match=r"^m_max=1000001 must be at least 1, at most"):
            _resolve({"m_max": 10**6 + 1}, "sequence", None)

    @pytest.mark.parametrize("m_max", [2**63, 1e308], ids=["2**63", "1e308"])
    def test_huge_sequence_exits_config_without_running(self, tmp_path, capsys, monkeypatch,
                                                        m_max):
        import msa_control.cli as cli

        def refuse(*args):
            raise AssertionError("sequence_lemma_check called")

        monkeypatch.setattr(cli, "sequence_lemma_check", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m_max": m_max}))
        rc = main(["validate", "sequence", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: m_max={int(m_max)} must be at least 1, at most 1000000\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_solver_footprint_counts_what_the_solver_holds(self, command):
        # lq-scalar (n = d = 1, 21 points in uint8) holds W, one candidate's
        # states, the gap values and three index arrays: 3*8 + 3 = 27 bytes
        # per path and step, so at G=20 the 2^34 bytes fit M = 606 paths
        assert _resolve({"M": 606, "G": 20}, command, None)[1].M == 606
        with pytest.raises(ConfigError, match=r"^M=607, G=20: paths need about 2\^34\.0 bytes "
                                              r"\(M\*2\^G\*\(\(n\+d\+1\)\*8\+3\*1\)\), over"):
            _resolve({"M": 607, "G": 20}, command, None)

    def test_remainder_footprint_counts_streamed_paths(self):
        # nonconvex-diffusion (n = d = 1) at G=9: 2^34 bytes hold 2^22 floats
        # per step, so M*(n+d) + 7*2001 passes them above M = 2090148 and
        # M*n + 7*2001 only above M = 4180297
        spec, config, _ = _resolve({"M": 3_000_000}, "remainder", None)
        assert (spec.n, spec.d, config.M) == (1, 1, 3_000_000)
        with pytest.raises(ConfigError, match=r"^M=4200000, G=9: .*\(M\*n \+ 14007 lattice\)"):
            _resolve({"M": 4_200_000}, "remainder", None)

    @pytest.mark.parametrize(
        "experiment, cfg, cause",
        [
            ("remainder", {"M": 200, "u0_index": 5}, "error: u0_index 5 outside 0..1"),
            ("remainder", {"M": 200, "G": 5}, "error: G=5 must be at least 6"),
            ("variational", {"M": 200, "G": 5}, "error: G=5 must be at least 6"),
            ("variational", {"M": 3, "G": 6}, "error: M=3 must exceed the 3 regression"),
            ("remainder", {"M": 200, "u0_index": True}, "error: u0_index must be an integer"),
            ("sequence", {"m_max": 0}, "error: m_max=0 must be at least 1"),
            ("sequence", {"m_max": "abc"}, "error: m_max must be an integer"),
            # 2^30 bytes of paths, but seven (2^24, 2001) lattice arrays of 268 GB each
            ("remainder", {"M": 4, "G": 24}, "error: M=4, G=24: paths need about 2^40.8"),
            ("remainder", {"M": 200, "G": 0},
             "error: bad run configuration: grid depth must be at least 1"),
        ],
        ids=[
            "remainder-u0-index", "remainder-coarse-grid", "variational-coarse-grid",
            "variational-M-not-above-features", "remainder-u0-index-bool", "sequence-m_max-0",
            "sequence-m_max-string", "remainder-lattice-footprint", "remainder-G-0",
        ],
    )
    def test_bad_config_exits_config(self, tmp_path, capsys, experiment, cfg, cause):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["validate", experiment, "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(cause) and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_overflowing_remainder_lattice_exits_numerical(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        problem = {**INLINE_LQ, "Gamma": [[1e308]]}
        cfg.write_text(json.dumps({"problem": problem, "M": 300, "G": 6}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["validate", "remainder", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_NUMERICAL and caught == []
        assert capsys.readouterr().err == (
            "numerical failure: non-finite value function on the remainder lattice\n"
        )

    def test_undefined_slope_written_as_null(self, tmp_path):
        # at M=300 every row is censored, so no point is left to fit
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 300, "G": 6}))
        out = tmp_path / "o"
        assert main(["validate", "remainder", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert all(row.endswith(",1") for row in (out / "remainder.csv").read_text().split()[1:])
        assert strict_json(out / "remainder_summary.json") == {"slope": None}

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "frobnicate", "--out", "/tmp/x"])
        assert exc.value.code == 2


class TestBench:
    @pytest.mark.parametrize(
        "cfg, cause",
        [
            ({"M": 3, "G": 4}, "error: M=3 must exceed the 3 regression features"),
            ({"problem": "lq-scalar"}, "error: unknown key 'problem' for bench"),
        ],
        ids=["M-not-above-features", "unknown-key"],
    )
    def test_bad_config_exits_config(self, tmp_path, capsys, cfg, cause):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["bench", "lq", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(cause) and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_undefined_slope_written_as_null(self, tmp_path):
        # m_max = 0 leaves one rate row, below the fit's two points
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 200, "G": 4, "m_max": 0}))
        out = tmp_path / "o"
        assert main(["bench", "lq", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        summary = strict_json(out / "bench_summary.json")
        assert summary["lq-scalar"]["slope"] is None


class TestParser:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_out(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", "x.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("out, taken", [("file", "file"), ("file/sub", "file"),
                                            ("dangling", "dangling")],
                             ids=["file", "under-file", "dangling-link"])
    def test_out_not_a_directory_exits_config(self, tmp_path, capsys, monkeypatch, out, taken):
        # refused before the run, which would create --out only at its end
        import msa_control.cli as cli

        def refuse(*args):
            raise AssertionError("run_msa called")

        monkeypatch.setattr(cli, "run_msa", refuse)
        (tmp_path / "file").write_text("kept")
        (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
        rc = main(["solve", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: --out {tmp_path / out}: {tmp_path / taken} is not a directory\n"
        )
        assert (tmp_path / "file").read_text() == "kept"

    def test_no_config_reads_as_empty(self):
        # without --config every key takes its default (a full default run is too slow here)
        assert _load_json(None) == {}


# Every subcommand's smallest run; each fuzz case below changes one key.  The
# runs draw from MSAConfig's default seed, so every case is deterministic.
FUZZ_BASE = {
    "solve": {"M": 50, "G": 2, "m_max": 1},
    "bench": {"M": 50, "G": 2, "m_max": 1},
    "remainder": {"M": 50, "G": 6},
    "variational": {"M": 50, "G": 6},
    "sequence": {"m_max": 10},
}
FUZZ_VALUES = [-1, 0, 1, 2, 7, 2**63, 1e308, -1e308, 0.5, 1e-320, "abc", True, None, [], {}]
# Inline LQ problems that overflow or hold a wrong shape, sign or type; each
# runs through solve and validate remainder (the conditional estimator).
INLINE_LQ_MUTATIONS = [
    {"T": 1e308}, {"T": 0.0}, {"T": -1.0}, {"x0": [1e308]}, {"x0": [1.0, 2.0]},
    {"b1": [[1e308]]}, {"b2": [1e308]}, {"G": [[1e308]]}, {"G": [[-1.0]]},
    {"Gamma": [[1e308]]}, {"Gamma": "abc"}, {"sigma0": [[1e154]]}, {"sigma0": [[1e308]]},
    {"sigma_u": [[[1e308]]]}, {"g_lin": [1e308]}, {"g_quad": [[1e308]]},
    {"domain": [[1e308]]}, {"domain": []}, {"domain": [[1.0], [1.0]]}, {"n": 2}, {"d": 0},
    {"k": 2}, {"type": "quadratic"}, {"T": None}, {"domain": [[-1e308], [1e308]]},
]


def fuzz_cases(group):
    """(subcommand, config) pairs: every key of a subcommand set in turn to
    each of FUZZ_VALUES, or every inline LQ mutation."""
    if group == "inline-lq":
        for mutation in INLINE_LQ_MUTATIONS:
            for command in ("solve", "remainder"):
                yield command, {**FUZZ_BASE[command], "problem": {**INLINE_LQ, **mutation}}
        return
    for key in _KEYS[group]:
        for value in FUZZ_VALUES:
            if (key, value) != ("G", 7):  # a G=7 grid is above this test's G <= 6
                yield group, {**FUZZ_BASE[group], key: value}


# Inline LQ entries that numpy would cast to floats (null to NaN, a bool or a
# numeric string to its number), each with the leaf the error names
NOT_NUMBERS = [
    ("b1", [[None]], "null"), ("x0", [None], "null"), ("sigma0", [[None]], "null"),
    ("domain", [[None], [1.0]], "null"), ("T", True, "true"), ("T", "1", '"1"'),
    ("x0", ["1"], '"1"'), ("b1", [["-0.5"]], '"-0.5"'), ("g_quad", [[True]], "true"),
]


class TestExitContract:
    @pytest.mark.parametrize("command", ["solve", "remainder"])
    @pytest.mark.parametrize("key, value, leaf", NOT_NUMBERS,
                             ids=[f"{key}-{json.dumps(value)}" for key, value, _ in NOT_NUMBERS])
    def test_inline_lq_leaf_not_a_number_exits_config(self, tmp_path, capsys, command, key,
                                                       value, leaf):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps({**FUZZ_BASE[command], "problem": {**INLINE_LQ, key: value}}))
        argv = ["solve"] if command == "solve" else ["validate", command]
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: bad inline LQ problem: {key} holds {leaf}, not a number\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("group", [*FUZZ_BASE, "inline-lq"])
    def test_fuzzed_configs_keep_exit_contract(self, tmp_path, capsys, group):
        # exit 0, 2 or 3; one stderr line exactly when not 0; no warning; no
        # --out after a failure
        breaches = []
        for case, (command, cfg) in enumerate(fuzz_cases(group)):
            path, out = tmp_path / f"cfg{case}.json", tmp_path / f"out{case}"
            path.write_text(json.dumps(cfg))
            argv = {"solve": ["solve"], "bench": ["bench", "lq"]}.get(command, ["validate", command])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main([*argv, "--config", str(path), "--out", str(out)])
            err = capsys.readouterr().err
            one_line = err.endswith("\n") and err.count("\n") == 1
            failed = rc in (EXIT_CONFIG, EXIT_NUMERICAL) and one_line and not out.exists()
            if caught or not (rc == EXIT_OK and err == "" or failed):
                warned = sorted({str(w.message) for w in caught})
                breaches.append(f"{command} {json.dumps(cfg)}: exit {rc}, {err!r}, {warned}")
        assert breaches == []

    def run_out_of_memory(self, tmp_path, argv, config, allocation):
        # the child may map 1.5 GiB, so the allocation fails
        def limit_address_space():  # runs in the child only
            resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        src = os.path.dirname(os.path.dirname(msa_control.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "msa_control.cli", *argv, "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120, preexec_fn=limit_address_space,
        )
        assert proc.returncode == EXIT_NUMERICAL, proc.stderr
        assert re.fullmatch(f"numerical failure: {allocation}\n", proc.stderr)
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_exits_numerical(self, tmp_path):
        # lq-scalar's W alone is 3.05 GiB at M=100000, G=12, under the config
        # resolver's limit
        self.run_out_of_memory(
            tmp_path, ["solve"], {"problem": "lq-scalar", "M": 100_000, "G": 12, "m_max": 1},
            r"Unable to allocate .* GiB for an array with shape \(4096, 100000, 1\) and data type float64")

    def test_shared_memory_exhausted_exits_numerical(self, tmp_path):
        # the remainder's window of states is 5.72 GiB at M=3000000, G=9; on
        # 2+ CPUs it is shared memory for the forked workers, not numpy's
        self.run_out_of_memory(
            tmp_path, ["validate", "remainder"],
            {"problem": "nonconvex-diffusion", "M": 3_000_000, "G": 9},
            r"Unable to allocate 5\.72 GiB (of shared memory )?for an array with shape "
            r"\(256, 3000000, 1\) and data type float64")


# n = d = k = 2: validate remainder takes the direct estimator on it
INLINE_LQ_2D = {
    "type": "lq",
    "n": 2, "d": 2, "k": 2, "T": 1.0,
    "x0": [1.0, -0.5],
    "b1": [[-0.5, 0.3], [-0.2, -0.1]],
    "b2": [0.1, 0.0],
    "G": [[1.0, 0.2], [0.2, 0.5]],
    "Gamma": [[1.0, 0.0], [0.0, 1.0]],
    "sigma0": [[0.3, 0.0], [0.0, 0.3]],
    "sigma_u": [[[0.5, 0.1], [0.2, 0.0]], [[0.0, 0.3], [0.1, 0.4]]],
    "g_quad": [[0.2, 0.0], [0.0, 0.2]],
    "domain": [[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
}
# One small run of every subcommand and remainder estimator, and the SHA-256
# of every file it writes, blanked by run_time_blanked.  Recorded before the
# subcommands handed their files to main to write.
PINNED_RUNS = {
    "solve-lq-worst-constant": (
        ["solve"], {"problem": "lq-scalar", "M": 300, "G": 5, "m_max": 5, "u0": "worst-constant"}
    ),
    "solve-nonconvex": (["solve"], {"problem": "nonconvex-diffusion", "M": 300, "G": 5, "m_max": 5}),
    "bench-lq": (["bench", "lq"], {"M": 300, "G": 5, "m_max": 5}),
    "remainder-conditional": (["validate", "remainder"], {"M": 3000, "G": 6}),
    "remainder-direct-2d": (["validate", "remainder"], {"problem": INLINE_LQ_2D, "M": 300, "G": 6}),
    "variational": (["validate", "variational"], {"M": 500, "G": 6}),
    "sequence": (["validate", "sequence"], {"m_max": 1000}),
}
PINNED_OUTPUTS = {
    "solve-lq-worst-constant": {
        "final_control.bin":
            "2aba39d8bde7f586dcd2e63106e7971158424fb2cc9e83f430cd438e8c0d35e6",
        "iterations.csv":
            "fa0c81bb9519e1ff4b2ce0cd565aa6e006dc9f639d729a9e336ed52bae07152a",
        "iterations.json":
            "6f792ddf207e4c9a9111c55e33cd0aaac62b2170e74faef7e7ca4a63fa3b6bfd",
        "summary.json":
            "c3d2b09ebe9428ae1b2bac35b4f8ff9f84757c29476af604984694957c40d554",
    },
    "solve-nonconvex": {
        "final_control.bin":
            "d885f06bdfe9180f240367feaa4064fb1fd696fe86b3241c5477f64a89ea62d3",
        "iterations.csv":
            "3139a7d4e8656a9b5c204ca0b584983e0f171fa5b121796d2206913b39451d24",
        "iterations.json":
            "aeda479b0aca73cbc8197c5eee1bbab22223b5d95c9e0860b9d9e7e353aec86c",
        "summary.json":
            "75f0005f241ee77af9e6373b11de581cb2cab755159629e4e9c70286893da309",
    },
    "bench-lq": {
        "bench_summary.json":
            "0d67e95030feaf3fac896a93eab796055833c73fa4b53e4fe11c9b066d2c3a80",
        "rate_lq-scalar.csv":
            "7534f8c44810046232776901213de7d5b0537d80c00df98183cfb51005002939",
    },
    "remainder-conditional": {
        "remainder.csv":
            "7e36bff739785098b706e0c9179fdb7efcdf81b21ecaf68e1706bb0dd404e98f",
        "remainder_summary.json":
            "fed77cc43ba2262e9f7dcb4606c8c7f8785ddffdc9f3728c5a1f31adfb3470ea",
    },
    "remainder-direct-2d": {
        "remainder.csv":
            "b7df149c93a64eac7b36bcea9c8439deba0ebfc463b3b908b9fc38452193cf67",
        "remainder_summary.json":
            "fed77cc43ba2262e9f7dcb4606c8c7f8785ddffdc9f3728c5a1f31adfb3470ea",
    },
    "variational": {
        "variational.csv":
            "dddcf34ccc25c9c87968ff25b352f858c1a7524fa1247ba33f75476702e67dc3",
        "variational_summary.json":
            "403495746dde74aa9895aa453d3480d4c07691825bd68d9beb37522670b60744",
    },
    "sequence": {
        "sequence.csv":
            "814fb731ac947fe9d1c788f7e79d34b864cc8157f7f525c8e81752e37f6911f0",
    },
}


def run_time_blanked(path):
    """A file's bytes with what depends on the clock blanked: the wall_time
    column of a CSV, and in JSON each wall_time value and the metadata block."""
    data = path.read_bytes()
    if path.suffix == ".csv" and data.split(b"\n", 1)[0].endswith(b",wall_time"):
        return re.sub(rb",[^,\n]*$", b"", data, flags=re.M)
    if path.suffix == ".json":
        data = re.sub(rb'"metadata": \{[^}]*\}', b'"metadata": {}', data)
        return re.sub(rb'"wall_time": [^,\n]*', b'"wall_time": 0', data)
    return data


class TestOutputsPinned:
    @pytest.mark.parametrize("run", PINNED_RUNS)
    def test_every_output_file_pinned(self, tmp_path, run):
        argv, cfg = PINNED_RUNS[run]
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(json.dumps(cfg))
        assert main([*argv, "--config", str(path), "--out", str(out)]) == EXIT_OK
        digests = {
            p.name: hashlib.sha256(run_time_blanked(p)).hexdigest() for p in sorted(out.iterdir())
        }
        assert digests == PINNED_OUTPUTS[run]
