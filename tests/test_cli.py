import json
import os
import subprocess
import sys

import pytest

import impatience
from impatience.cli import default_experiment_config, main


@pytest.fixture
def tiny_config(tmp_path):
    """Shrunken default config so end-to-end runs stay fast."""
    raw = default_experiment_config().to_json()
    raw["sim"]["n_users"] = 2000
    raw["sim"]["auctions_per_user"] = {"kind": "poisson", "mean": 6.0}
    raw["resamples"] = 150
    raw["sweep"] = [0.1, 0.2]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def run(*argv):
    return main(list(argv))


RUN_COMMANDS = """
import json, sys
from impatience.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(1)
"""


POLICY = {"schema": "impatience-policy/1", "cap_delta": 0.2, "multipliers": {"0": 1.1}}
MALFORMED_POLICIES = {
    "not_an_object": [POLICY],
    "no_multipliers": {k: v for k, v in POLICY.items() if k != "multipliers"},
    "no_cap_delta": {k: v for k, v in POLICY.items() if k != "cap_delta"},
    "multipliers_not_an_object": {**POLICY, "multipliers": [1.1]},
    "non_integer_cluster": {**POLICY, "multipliers": {"a": 1.1}},
    "string_multiplier": {**POLICY, "multipliers": {"0": "x"}},
    "nan_multiplier": {**POLICY, "multipliers": {"0": float("nan")}},
    "infinite_cap_delta": {**POLICY, "cap_delta": float("inf")},
}

CONFIG = default_experiment_config().to_json()


def with_sim(**changes):
    return {**CONFIG, "sim": {**CONFIG["sim"], **changes}}


MALFORMED_CONFIGS = {
    "not_an_object": ([1], "config must be a JSON object"),
    "randomization_not_an_object": ({**CONFIG, "randomization": [0.0, 0.3]}, "'randomization'"),
    "string_mu": ({**CONFIG, "randomization": {"mu": "0", "sigma": 0.3}}, "'randomization'"),
    "string_resamples": ({**CONFIG, "resamples": "many"}, "'resamples' must be a non-negative integer"),
    "fractional_resamples": ({**CONFIG, "resamples": 10.5}, "'resamples' must be a non-negative integer"),
    "boolean_resamples": ({**CONFIG, "resamples": True}, "'resamples' must be a non-negative integer"),
    "string_seed": ({**CONFIG, "seed": "0"}, "'seed' must be a non-negative integer"),
    "boolean_seed": ({**CONFIG, "seed": False}, "'seed' must be a non-negative integer"),
    "negative_seed": ({**CONFIG, "seed": -1}, "'seed' must be a non-negative integer"),
    "string_cap_delta": ({**CONFIG, "cap_delta": "0.2"}, "'cap_delta' must be a finite number"),
    "nan_cap_delta": ({**CONFIG, "cap_delta": float("nan")}, "'cap_delta' must be a finite number"),
    "infinite_sweep_entry": ({**CONFIG, "sweep": [0.1, float("inf")]}, "'sweep' must be a list of finite numbers"),
    "string_sweep_entry": ({**CONFIG, "sweep": [0.1, "x"]}, "'sweep' must be a list of finite numbers"),
    "sweep_not_a_list": ({**CONFIG, "sweep": 0.1}, "'sweep' must be a list of finite numbers"),
    "sim_not_an_object": ({**CONFIG, "sim": 5}, "'sim' must be an object"),
    "string_bucket_boundaries": ({**CONFIG, "bucket_boundaries": "12"},
                                 "'bucket_boundaries' must be a list of integers"),
    "fractional_bucket_boundaries": ({**CONFIG, "bucket_boundaries": [1.5, 2]},
                                     "'bucket_boundaries' must be a list of integers"),
    "string_n_users": (with_sim(n_users="x"), "sim 'n_users' must be an integer"),
    "fractional_n_users": (with_sim(n_users=2.7), "sim 'n_users' must be an integer"),
    "boolean_n_users": (with_sim(n_users=True), "sim 'n_users' must be an integer"),
    "string_fatigue_decay": (with_sim(fatigue_decay="0.5"), "sim 'fatigue_decay' must be a finite number"),
    "null_value_per_conversion": (with_sim(value_per_conversion=None),
                                  "sim 'value_per_conversion' must be a finite number"),
    "number_initial_exposure": (with_sim(initial_exposure=5), "sim 'initial_exposure' must be a list"),
    "string_initial_exposure": (with_sim(initial_exposure="abc"), "sim 'initial_exposure' must be a list"),
    "string_competition_mu": (with_sim(competition={"kind": "lognormal", "mu": "x", "sigma": 1}),
                              "sim 'competition': distribution 'mu' must be a finite number"),
    "nan_auctions_mean": (with_sim(auctions_per_user={"kind": "poisson", "mean": float("nan")}),
                          "sim 'auctions_per_user': distribution 'mean' must be a finite number"),
}


class TestErrorHandling:
    def test_missing_config_exits_one_and_names_path(self, tmp_path, capsys):
        out = tmp_path / "log.jsonl"
        code = run("simulate", "--config", str(tmp_path / "nope.json"), "--out", str(out))
        assert code == 1
        assert "nope.json" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        raw = default_experiment_config().to_json()
        raw["typo_key"] = 1
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        code = run("simulate", "--config", str(cfg), "--out", str(tmp_path / "log.jsonl"))
        assert code == 1
        assert "typo_key" in capsys.readouterr().err

    def test_invalid_competition_json_exits_one(self, tmp_path, capsys):
        code = run("two-auctions", "--competition", "{not json", "--out", str(tmp_path / "o.csv"))
        assert code == 1
        assert "JSON" in capsys.readouterr().err

    def test_nan_competition_parameter_exits_one(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = run("two-auctions", "--competition", '{"kind":"lognormal","mu":NaN,"sigma":1}', "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith("impatience: error: distribution 'mu' must be a finite number")
        assert not out.exists()

    def test_negative_seed_flag_exits_one(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "log.jsonl"
        with pytest.raises(SystemExit) as exc_info:
            run("simulate", "--config", tiny_config, "--seed", "-1", "--out", str(out))
        assert exc_info.value.code == 1
        assert "impatience simulate: error: argument --seed: seed must be a non-negative integer, got -1" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_missing_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run()
        assert exc_info.value.code == 1

    def test_missing_marginals_file_exits_one(self, tmp_path, capsys):
        code = run("optimize", "--marginals", str(tmp_path / "none.csv"), "--out", str(tmp_path / "p.json"))
        assert code == 1


class TestSimulate:
    def test_line_count_is_header_plus_users(self, tiny_config, tmp_path):
        out = tmp_path / "log.jsonl"
        assert run("simulate", "--config", tiny_config, "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2001
        header = json.loads(lines[0])
        assert header["schema"] == "impatience-log/1"

    def test_reruns_are_byte_identical(self, tiny_config, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run("simulate", "--config", tiny_config, "--out", str(a)) == 0
        assert run("simulate", "--config", tiny_config, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_users_writes_header_only_log(self, tmp_path):
        raw = default_experiment_config().to_json()
        raw["sim"]["n_users"] = 0
        cfg, out = tmp_path / "config.json", tmp_path / "log.jsonl"
        cfg.write_text(json.dumps(raw))
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == 0
        (header,) = out.read_text().splitlines()
        assert json.loads(header)["schema"] == "impatience-log/1"

    def test_seed_override_changes_output(self, tiny_config, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run("simulate", "--config", tiny_config, "--out", str(a))
        run("simulate", "--config", tiny_config, "--seed", "99", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()


class TestOptimize:
    def write_marginals(self, path, rows):
        header = (
            "cluster,n_users,dcost,dvalue,mroi,dcost_ci_low,dcost_ci_high,"
            "dvalue_ci_low,dvalue_ci_high,mroi_ci_low,mroi_ci_high"
        )
        lines = ["# tool=impatience/test", "# log_sha256=deadbeef", header]
        for r in rows:
            lines.append(",".join(str(v) for v in r))
        path.write_text("\n".join(lines) + "\n")

    def test_solves_and_copies_provenance(self, tmp_path):
        src = tmp_path / "marginals.csv"
        self.write_marginals(
            src,
            [
                [0, 100, 1.0, 2.0, 2.0, 0, 0, 0, 0, 0, 0],
                [1, 100, 1.0, 0.5, 0.5, 0, 0, 0, 0, 0, 0],
            ],
        )
        out = tmp_path / "policy.json"
        assert run("optimize", "--marginals", str(src), "--cap", "0.2", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "impatience-policy/1"
        assert doc["multipliers"] == {"0": 1.2, "1": 0.8}
        assert doc["provenance"]["log_sha256"] == "deadbeef"

    def test_degenerate_instance_exits_two_with_diagnostic(self, tmp_path, capsys):
        src = tmp_path / "marginals.csv"
        self.write_marginals(
            src,
            [
                [0, 100, 1.0, 0.7, 0.7, 0, 0, 0, 0, 0, 0],
                [1, 100, 2.0, 1.4, 0.7, 0, 0, 0, 0, 0, 0],
            ],
        )
        out = tmp_path / "policy.json"
        assert run("optimize", "--marginals", str(src), "--out", str(out)) == 2
        assert "no cost-neutral improvement" in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert all(v == 1.0 for v in doc["multipliers"].values())
        assert "diagnostic" in doc

    def test_n_users_column_is_not_needed(self, tmp_path):
        src = tmp_path / "marginals.csv"
        src.write_text("cluster,dcost,dvalue,mroi\n0,1.0,2.0,2.0\n1,1.0,0.5,0.5\n2,-1.0,1.0,\n")
        out = tmp_path / "policy.json"
        assert run("optimize", "--marginals", str(src), "--out", str(out), "--cap", "0.2") == 0
        assert json.loads(out.read_text())["multipliers"] == {"0": 1.2, "1": 0.8, "2": 1.0}

    @pytest.mark.parametrize("bad", [{"mroi": "abc"}, {"dcost": ""}])
    def test_malformed_row_exits_one(self, tmp_path, capsys, bad):
        src = tmp_path / "marginals.csv"
        row = dict(zip(["cluster", "n_users", "dcost", "dvalue", "mroi"], [0, 100, 1.0, 2.0, 2.0]), **bad)
        self.write_marginals(src, [list(row.values()) + [0] * 6, [1, 100, 1.0, 0.5, 0.5] + [0] * 6])
        assert run("optimize", "--marginals", str(src), "--out", str(tmp_path / "p.json")) == 1
        assert "malformed row" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["marginals.csv"]


class TestPipeline:
    def test_full_recipe_runs_and_outputs_are_deterministic(self, tiny_config, tmp_path):
        log = tmp_path / "log.jsonl"
        marg = tmp_path / "marginals.csv"
        policy = tmp_path / "policy.json"
        ev = tmp_path / "eval.csv"
        ab = tmp_path / "ab.json"

        assert run("simulate", "--config", tiny_config, "--out", str(log)) == 0
        assert run("marginals", "--config", tiny_config, "--log", str(log), "--out", str(marg)) == 0
        assert run("optimize", "--marginals", str(marg), "--out", str(policy)) == 0
        assert (
            run("offline-eval", "--config", tiny_config, "--log", str(log),
                "--policy", str(policy), "--out", str(ev))
            == 0
        )
        assert (
            run("ab", "--config", tiny_config, "--policy", str(policy),
                "--reps", "3", "--users-per-arm", "1000", "--out", str(ab))
            == 0
        )

        # provenance comments tie each artifact to its inputs
        marg_text = marg.read_text()
        assert marg_text.startswith("# tool=impatience/")
        assert "# config_sha256=" in marg_text and "# log_sha256=" in marg_text
        doc = json.loads(policy.read_text())
        assert doc["provenance"]["marginals_sha256"]
        report = json.loads(ab.read_text())
        assert set(report["arms"]) == {"baseline", "fixed_factor", "dynamic_factor"}
        for arm in ("fixed_factor", "dynamic_factor"):
            assert "rel_dvalue" in report["arms"][arm]

        # marginals and offline-eval reruns are byte-identical
        marg2 = tmp_path / "marginals2.csv"
        run("marginals", "--config", tiny_config, "--log", str(log), "--out", str(marg2))
        assert marg.read_bytes() == marg2.read_bytes()

    def test_bootstrap_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # from about 120k users OpenBLAS 0.3 splits a matrix-vector product
        # over the users across threads, which changes its last bits; the
        # bootstrap's sums must not go through one
        raw = default_experiment_config().to_json()
        raw["sim"]["n_users"] = 125_000
        raw["resamples"] = 100
        cfg, log, policy = tmp_path / "config.json", tmp_path / "log.jsonl", tmp_path / "policy.json"
        cfg.write_text(json.dumps(raw))
        policy.write_text(json.dumps({"schema": "impatience-policy/1", "cap_delta": 0.2,
                                      "multipliers": {"0": 1.2, "1": 1.1, "3": 0.9, "5": 0.8}}))
        assert run("simulate", "--config", str(cfg), "--out", str(log)) == 0
        src = os.path.dirname(os.path.dirname(impatience.__file__))
        outputs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            commands = [
                ["marginals", "--config", str(cfg), "--log", str(log), "--out", str(out / "marginals.csv")],
                ["offline-eval", "--config", str(cfg), "--log", str(log),
                 "--policy", str(policy), "--out", str(out / "eval.csv")],
            ]
            # one interpreter per thread count: BLAS reads the variable when it loads
            subprocess.run([sys.executable, "-c", RUN_COMMANDS, json.dumps(commands)], env=env,
                           check=True, capture_output=True, timeout=300)
            outputs[threads] = [(out / name).read_bytes() for name in ("marginals.csv", "eval.csv")]
        assert outputs["1"] == outputs["2"]

    def test_marginals_csv_has_expected_header(self, tiny_config, tmp_path):
        log = tmp_path / "log.jsonl"
        marg = tmp_path / "marginals.csv"
        run("simulate", "--config", tiny_config, "--out", str(log))
        run("marginals", "--config", tiny_config, "--log", str(log), "--out", str(marg))
        header = [l for l in marg.read_text().splitlines() if not l.startswith("#")][0]
        assert header.split(",") == [
            "cluster", "n_users", "dcost", "dvalue", "mroi",
            "dcost_ci_low", "dcost_ci_high", "dvalue_ci_low", "dvalue_ci_high",
            "mroi_ci_low", "mroi_ci_high",
        ]

    def test_offline_eval_sweep_rows(self, tiny_config, tmp_path):
        log = tmp_path / "log.jsonl"
        ev = tmp_path / "eval.csv"
        run("simulate", "--config", tiny_config, "--out", str(log))
        assert (
            run("offline-eval", "--config", tiny_config, "--log", str(log),
                "--sweep", "0.05", "0.1", "--resamples", "120", "--out", str(ev))
            == 0
        )
        rows = [l for l in ev.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 3  # header + two sweep amplitudes
        assert rows[0].startswith("delta,dvalue_linear,")

    def test_offline_eval_prints_the_csv_point_estimates(self, tiny_config, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        ev = tmp_path / "eval.csv"
        run("simulate", "--config", tiny_config, "--out", str(log))
        capsys.readouterr()
        assert run("offline-eval", "--config", tiny_config, "--log", str(log), "--out", str(ev)) == 0
        printed = [
            dict(field.split("=") for field in line.split()[1:])
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("offline-eval: delta=")
        ]
        rows = [l.split(",") for l in ev.read_text().splitlines() if not l.startswith("#")][1:]
        assert len(printed) == len(rows) == 2
        for shown, row in zip(printed, rows):
            point = dict(zip(("dV_lin", "dC_lin", "dV_exact", "dC_exact"), map(float, row[1::3])))
            assert float(shown["delta"]) == float(row[0])
            for name, fmt in (("dV_lin", ".2f"), ("dC_lin", ".2e"), ("dV_exact", ".2f"), ("dC_exact", ".2f")):
                assert shown[name] == format(point[name], fmt), name


class TestAtomicOutputs:
    def test_failed_csv_write_keeps_earlier_file(self, tiny_config, tmp_path, monkeypatch):
        out = tmp_path / "profile.csv"
        argv = ("weight-profile", "--config", tiny_config, "--out", str(out), "--samples", "2000")
        assert run(*argv) == 0
        before = out.read_bytes()
        import impatience.cli as cli

        fmt, calls = cli._fmt, []

        def fail_on_fifth_cell(x):
            calls.append(x)
            if len(calls) == 5:
                raise RuntimeError("formatter failed")
            return fmt(x)

        monkeypatch.setattr(cli, "_fmt", fail_on_fifth_cell)
        with pytest.raises(RuntimeError, match="formatter failed"):
            run(*argv, "--alphas", "0.7", "1.3")
        assert out.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["config.json", "profile.csv"]


class TestImport:
    def test_cli_import_leaves_scipy_unloaded(self):
        code = "import sys, impatience.cli; print('scipy.stats' in sys.modules, 'scipy.integrate' in sys.modules)"
        src = os.path.dirname(os.path.dirname(impatience.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True,
                              text=True, timeout=120)
        assert done.stdout.split() == ["False", "False"]


class TestStandaloneCommands:
    def test_init_config_roundtrips(self, tmp_path):
        out = tmp_path / "config.json"
        assert run("init-config", "--out", str(out)) == 0
        raw = json.loads(out.read_text())
        assert raw == default_experiment_config().to_json()

    def test_weight_profile(self, tiny_config, tmp_path):
        out = tmp_path / "profile.csv"
        assert (
            run("weight-profile", "--config", tiny_config, "--alphas", "1.0", "1.2",
                "--samples", "5000", "--out", str(out))
            == 0
        )
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "alpha,std_exact,std_linear"
        first = rows[1].split(",")
        assert float(first[1]) == 0.0  # alpha = 1 has no weight spread

    def test_two_auctions_uniform_competition(self, tmp_path, capsys):
        out = tmp_path / "profit.csv"
        comp = json.dumps({"kind": "uniform", "low": 0.0, "high": 100.0})
        assert (
            run("two-auctions", "--value", "100", "--competition", comp,
                "--step", "0.5", "--out", str(out))
            == 0
        )
        assert "best first bid 50" in capsys.readouterr().out
        assert "# best_first_bid=50.0" in out.read_text()

    def test_fit_ctr_writes_both_models(self, tiny_config, tmp_path):
        out = tmp_path / "calibration.csv"
        assert run("fit-ctr", "--config", tiny_config, "--l2", "1e-6", "--out", str(out)) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        models = {r.split(",")[0] for r in rows[1:]}
        assert models == {"no_fatigue", "fatigue"}


class TestExitCodes:
    def test_marginals_on_malformed_log_exits_one_and_names_line(self, tiny_config, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        assert run("simulate", "--config", tiny_config, "--out", str(log)) == 0
        lines = log.read_text().splitlines()
        user = json.loads(lines[2])
        user["n_auctions"] = user["n_auctions"] + 0.7
        lines[2] = json.dumps(user)
        log.write_text("\n".join(lines) + "\n")
        code = run("marginals", "--config", tiny_config, "--log", str(log),
                   "--out", str(tmp_path / "m.csv"))
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    def test_fit_ctr_convergence_failure_exits_two(self, tiny_config, tmp_path, capsys, monkeypatch):
        from impatience import CtrModel, ConvergenceError

        def failing_fit(*args, **kwargs):
            raise ConvergenceError(1.0, CtrModel((0.0,), False, (1,), 0))

        monkeypatch.setattr("impatience.cli.fit_ctr", failing_fit)
        code = run("fit-ctr", "--config", tiny_config, "--out", str(tmp_path / "c.csv"))
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_negative_bucket_boundaries_in_config_exit_one(self, tmp_path, capsys):
        raw = default_experiment_config().to_json()
        raw["bucket_boundaries"] = [-3, 2]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        code = run("fit-ctr", "--config", str(cfg), "--out", str(tmp_path / "c.csv"))
        assert code == 1
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("probe", sorted(MALFORMED_POLICIES))
    def test_malformed_policy_exits_one(self, tiny_config, tmp_path, capsys, probe):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(MALFORMED_POLICIES[probe]))
        out = tmp_path / "ab.json"
        code = run("ab", "--config", tiny_config, "--policy", str(policy), "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith("impatience:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["init-config", "simulate"])
    def test_missing_output_directory_exits_one_and_names_target(self, tiny_config, tmp_path, capsys,
                                                                  command):
        out = str(tmp_path / "missing" / "out.json")
        argv = ["init-config"] if command == "init-config" else ["simulate", "--config", tiny_config]
        assert run(*argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("impatience:")
        assert out in err
        assert ".tmp" not in err

    @pytest.mark.parametrize("probe", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_exits_one(self, tmp_path, capsys, probe):
        doc, message = MALFORMED_CONFIGS[probe]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "log.jsonl"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("impatience: error: ")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--config", "--log", "--policy", "--marginals"])
    def test_directory_as_input_exits_one_and_names_it(self, tiny_config, tmp_path, capsys, flag):
        directory = tmp_path / "inputs"
        directory.mkdir()
        out = str(tmp_path / "out")
        argv = {
            "--config": ["simulate", "--config", str(directory)],
            "--log": ["marginals", "--config", tiny_config, "--log", str(directory)],
            "--policy": ["ab", "--config", tiny_config, "--policy", str(directory)],
            "--marginals": ["optimize", "--marginals", str(directory)],
        }[flag]
        assert run(*argv, "--out", out) == 1
        assert capsys.readouterr().err.startswith(f"impatience: error: cannot read {directory}: ")
        assert not os.path.exists(out)
