import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import impatience
from impatience import (
    PolicySpec,
    ReallocationProblem,
    ValidationError,
    linear_weight,
    marginal_roi,
    policy_delta_bootstrap,
    read_log,
    solve_reallocation_detailed,
)
from impatience import cli, estimators, simulator
from impatience.cli import ExperimentConfig, default_experiment_config, main
from impatience.domain import _fmt
from impatience.simulator import DEFAULT_SWEEP


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
KEY_RULE = ": multipliers must map integer clusters >= 0 to finite numbers, got"
#: Each malformed policy and the end of its message, which starts `policy file <path>`.
MALFORMED_POLICIES = {
    "not_an_object": ([POLICY], " does not hold a JSON object"),
    "other_schema": ({**POLICY, "schema": "impatience-policy/2"}, " has an unsupported schema 'impatience-policy/2'"),
    "no_multipliers": ({k: v for k, v in POLICY.items() if k != "multipliers"},
                       " needs a 'multipliers' object, got None"),
    "no_cap_delta": ({k: v for k, v in POLICY.items() if k != "cap_delta"},
                     ": policy 'cap_delta' must be a finite number in (0, 1), got None"),
    "multipliers_not_an_object": ({**POLICY, "multipliers": [1.1]}, " needs a 'multipliers' object, got [1.1]"),
    "non_integer_cluster": ({**POLICY, "multipliers": {"a": 1.1}}, f"{KEY_RULE} 'a': 1.1"),
    "string_multiplier": ({**POLICY, "multipliers": {"0": "x"}}, f"{KEY_RULE} 0: 'x'"),
    "nan_multiplier": ({**POLICY, "multipliers": {"0": float("nan")}}, f"{KEY_RULE} 0: nan"),
    "infinite_cap_delta": ({**POLICY, "cap_delta": float("inf")},
                           ": policy 'cap_delta' must be a finite number in (0, 1), got inf"),
    # each key below was once read as a cluster: "01" as 1, so that the 1.1 of "1" was dropped,
    # " 2" as 2 and "1_0" as 10
    "colliding_keys": ({**POLICY, "multipliers": {"1": 1.1, "01": 0.9}}, f"{KEY_RULE} '01': 0.9"),
    "padded_key": ({**POLICY, "multipliers": {" 2": 1.1}}, f"{KEY_RULE} ' 2': 1.1"),
    "underscored_key": ({**POLICY, "multipliers": {"1_0": 1.1}}, f"{KEY_RULE} '1_0': 1.1"),
    "negative_key": ({**POLICY, "multipliers": {"-1": 1.1}}, f"{KEY_RULE} '-1': 1.1"),
    "non_ascii_digit_key": ({**POLICY, "multipliers": {"\u0661": 1.1}}, f"{KEY_RULE} '\u0661': 1.1"),
    # more digits than int() takes: the decoder's message, not a traceback
    "long_key": ({**POLICY, "multipliers": {"1" * 5000: 1.1}}, ": Exceeds the limit "),
    "boolean_multiplier": ({**POLICY, "multipliers": {"0": True}}, f"{KEY_RULE} 0: True"),
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
    "huge_integer_cap_delta": ({**CONFIG, "cap_delta": 10**400}, "'cap_delta' must be a finite number"),
    "infinite_sweep_entry": ({**CONFIG, "sweep": [0.1, float("inf")]}, "'sweep' must be a list of finite numbers"),
    "string_sweep_entry": ({**CONFIG, "sweep": [0.1, "x"]}, "'sweep' must be a list of finite numbers"),
    "sweep_not_a_list": ({**CONFIG, "sweep": 0.1}, "'sweep' must be a list of finite numbers"),
    "sim_not_an_object": ({**CONFIG, "sim": 5}, "config 'sim': sim must be a JSON object, got int"),
    "no_sim": ({k: v for k, v in CONFIG.items() if k != "sim"}, "missing config key 'sim'"),
    "string_bucket_boundaries": ({**CONFIG, "bucket_boundaries": "12"},
                                 "'bucket_boundaries' must be a list of integers"),
    "fractional_bucket_boundaries": ({**CONFIG, "bucket_boundaries": [1.5, 2]},
                                     "'bucket_boundaries' must be a list of integers"),
    "string_n_users": (with_sim(n_users="x"), "sim 'n_users' must be a non-negative integer"),
    "fractional_n_users": (with_sim(n_users=2.7), "sim 'n_users' must be a non-negative integer"),
    "boolean_n_users": (with_sim(n_users=True), "sim 'n_users' must be a non-negative integer"),
    "string_fatigue_decay": (with_sim(fatigue_decay="0.5"), "sim 'fatigue_decay' must be a finite number"),
    "null_value_per_conversion": (with_sim(value_per_conversion=None),
                                  "sim 'value_per_conversion' must be a finite number"),
    "number_initial_exposure": (with_sim(initial_exposure=5), "sim 'initial_exposure' must be a list"),
    "string_initial_exposure": (with_sim(initial_exposure="abc"), "sim 'initial_exposure' must be a list"),
    "string_competition_mu": (with_sim(competition={"kind": "lognormal", "mu": "x", "sigma": 1}),
                              "sim 'competition': distribution 'mu' must be a finite number"),
    "nan_auctions_mean": (with_sim(auctions_per_user={"kind": "poisson", "mean": float("nan")}),
                          "sim 'auctions_per_user': distribution 'mean' must be a finite number"),
    # once simulated, and the config's to_json wrote the mu back
    "stray_competition_parameter": (with_sim(competition={"kind": "constant", "value": 0.4, "mu": 3}),
                                    "sim 'competition': constant takes only value, not mu"),
    # once reported as `unknown distribution kind None`
    "distribution_without_kind": (with_sim(competition={"mu": 0.0, "sigma": 1.0}),
                                  "config 'sim': sim 'competition': missing distribution key 'kind'"),
    "unknown_randomization_key": ({**CONFIG, "randomization": {"mu": 0.0, "sigma": 0.3, "sigmaa": 0.9}},
                                  "unknown randomization keys ['sigmaa']"),
    # sigma**2 rounds to 0 or overflows: every importance weight divides by it
    "vanishing_sigma": ({**CONFIG, "randomization": {"mu": 0.0, "sigma": 1e-200}},
                        "config 'randomization': sigma must have a finite square above 0"),
    "overflowing_sigma": ({**CONFIG, "randomization": {"mu": 0.0, "sigma": 1e200}},
                          "config 'randomization': sigma must have a finite square above 0"),
    # once blamed on a user's value_observed, after numpy overflow warnings
    "overflowing_value_per_conversion": (with_sim(value_per_conversion=1e308),
                                         "sim 'value_per_conversion' 1e+308 overflows a float"),
}


#: The integer digit limit of this interpreter, 0 where it has none.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
#: Raw bytes that the JSON decoder cannot take: an integer one digit past the
#: interpreter's limit, an array nested past the recursion limit, a string
#: holding a byte that is not UTF-8, and an object that repeats a key.
UNDECODABLE = {"digits": b"9" * (INT_DIGITS + 1), "nested": b"[" * 10**5 + b"]" * 10**5, "byte": b'"\xff"',
               "repeated": b'{"a": 0, "a": 1}'}

#: Each input that the decoder reads, a defect spliced into it, and the start of the message.
UNDECODABLE_PROBES = [
    ("config", "digits", "config file {path} is not valid JSON: "),
    ("config", "nested", "config file {path} is not valid JSON: "),
    ("config", "byte", "cannot read {path}: "),
    ("policy", "digits", "policy file {path} is not valid JSON: "),
    ("policy", "nested", "policy file {path} is not valid JSON: "),
    ("policy", "byte", "cannot read {path}: "),
    ("log-header", "digits", "line 1: malformed header: "),
    ("log-header", "nested", "line 1: malformed header: "),
    ("log-user", "digits", "line 3: malformed user line: "),
    ("log-user", "byte", "cannot read {path}: "),
    ("marginals", "byte", "cannot read {path}: "),
    ("competition", "digits", "competition spec is not valid JSON: "),
    ("competition", "nested", "competition spec is not valid JSON: "),
    # each of these once kept the last value of the key
    ("config", "repeated", "config file {path} is not valid JSON: repeated key 'a'"),
    ("policy", "repeated", "policy file {path} is not valid JSON: repeated key 'a'"),
    ("log-header", "repeated", "line 1: malformed header: repeated key 'a'"),
    ("competition", "repeated", "competition spec is not valid JSON: repeated key 'a'"),
]

#: 10**400 users at 89 B each, the tiny config's 6 auctions per user
HUGE_POPULATION = "sim 'auctions_per_user' (poisson, 6 auctions per user) and 'n_users' need about 8.9e+401 B"


@pytest.mark.parametrize("field,value,message", [
    ("resamples", -5, "'resamples' must be a non-negative integer"),
    ("seed", True, "'seed' must be a non-negative integer"),
    ("cap_delta", float("nan"), "'cap_delta' must be a finite number"),
    ("sweep", ("x",), "'sweep' must be a list of finite numbers"),
    ("bucket_boundaries", (1.5, 2), "'bucket_boundaries' must be a list of integers"),
])
def test_config_built_in_code_is_checked(field, value, message):
    # the rules a config file must meet hold for a config built in code
    with pytest.raises(ValidationError, match=message):
        replace(default_experiment_config(), **{field: value})


#: Each record that holds a cap, built with the given cap.
CAP_RECORDS = {
    "config": lambda cap: replace(default_experiment_config(), cap_delta=cap),
    "policy": lambda cap: PolicySpec({0: 1.0}, cap),
    "reallocation": lambda cap: ReallocationProblem(((0, 1.0, 2.0),), cap),
}


@pytest.mark.parametrize("cap", [0, 1, 1.5, -0.1, float("nan"), float("inf"), True, "0.2"])
@pytest.mark.parametrize("record", sorted(CAP_RECORDS))
def test_every_cap_lies_in_the_unit_interval(record, cap):
    # the config once took a cap of 1.5
    with pytest.raises(ValidationError) as info:
        CAP_RECORDS[record](cap)
    assert str(info.value) == f"{record} 'cap_delta' must be a finite number in (0, 1), got {cap!r}"
    assert CAP_RECORDS[record](0.5).cap_delta == 0.5


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

    @pytest.mark.parametrize("flags", [["--competition", "{not json"],
                                       ["--competition", '{"kind":"uniform","low":0,"high":1}', "--competition2", ""]],
                             ids=["competition", "empty_competition2"])
    def test_invalid_competition_json_exits_one(self, tmp_path, capsys, flags):
        # an empty --competition2 was once taken as no flag, so the first distribution served both auctions
        code = run("two-auctions", *flags, "--out", str(tmp_path / "o.csv"))
        assert code == 1
        assert "competition spec is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("second", ['{"kind":"nope2"}', '{"kind":'])
    def test_the_first_malformed_competition_flag_is_reported(self, tmp_path, capsys, second):
        # --competition2 was once read first, so with both malformed the error named the second
        out = tmp_path / "o.csv"
        assert run("two-auctions", "--competition", '{"kind":"nope"}', "--competition2", second,
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == "impatience: error: unknown distribution kind 'nope'\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("flag,argv", [
        ("--l2", ["fit-ctr", "--config", "CONFIG"]),
        ("--value", ["two-auctions", "--competition", '{"kind":"uniform","low":0,"high":100}']),
        ("--step", ["two-auctions", "--competition", '{"kind":"uniform","low":0,"high":100}']),
        ("--cap", ["optimize", "--marginals", "MARGINALS"]),
        ("--sweep", ["offline-eval", "--config", "CONFIG", "--log", "LOG"]),
        ("--alphas", ["weight-profile", "--config", "CONFIG"]),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_flag_exits_one(self, tiny_config, tmp_path, capsys, flag, argv, value):
        # each of these ran on and exited 0 with NaN output, or ended in a traceback
        argv = [{"CONFIG": tiny_config, "MARGINALS": "m.csv", "LOG": "log.jsonl"}.get(a, a) for a in argv]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc_info:
            run(*argv, f"{flag}={value}", "--out", str(out))
        assert exc_info.value.code == 1
        assert f"error: argument {flag}: expected a finite number, got '{value}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["init-config", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["optimize", "--marginals", "m.csv", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["two-auctions", "--competition", "{}", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["offline-eval", "--config", "c.json", "--log", "l.jsonl", "--policy", "p.json", "--sweep", "0.3"],
         "argument --sweep: not allowed with argument --policy"),
    ])
    def test_flag_that_would_be_ignored_exits_one(self, tmp_path, capsys, argv, message):
        # --seed where no config is read, and a sweep next to the one policy evaluated
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc_info:
            run(*argv, "--out", str(out))
        assert exc_info.value.code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["weight-profile", "--config", "CONFIG", "--samples", "-1"], "n_samples must be >= 2, got -1"),
        (["weight-profile", "--config", "CONFIG", "--samples", "0"], "n_samples must be >= 2, got 0"),
        (["weight-profile", "--config", "CONFIG", "--samples", "1"], "n_samples must be >= 2, got 1"),
        (["weight-profile", "--config", "CONFIG", "--alphas", "0"], "alpha must be > 0, got 0.0"),
        (["weight-profile", "--config", "CONFIG", "--alphas", "-1"], "alpha must be > 0, got -1.0"),
        (["two-auctions", "--competition", '{"kind":"uniform","low":0,"high":100}', "--value", "1e308",
          "--step", "1e-300"], "ticket_value / grid_step must be at most 1000000, got inf"),
        (["two-auctions", "--competition", '{"kind":"uniform","low":0,"high":100}', "--step", "1e-5"],
         "ticket_value / grid_step must be at most 1000000, got 1e+07"),
        (["two-auctions", "--competition", '{"kind":"uniform","low":0,"high":100}', "--step", "0"],
         "grid_step must be > 0"),
        (["marginals", "--config", "CONFIG", "--log", "l.jsonl", "--resamples", "-5"],
         "config 'resamples' must be a non-negative integer, got -5"),
        # a non-positive ticket value once gave a curve from 0 down to it, or two equal rows
        (["two-auctions", "--competition", '{"kind":"uniform","low":0,"high":100}', "--value=-5"],
         "ticket_value must be > 0, got -5"),
        (["two-auctions", "--competition", '{"kind":"uniform","low":0,"high":100}', "--value", "0"],
         "ticket_value must be > 0, got 0"),
    ])
    def test_out_of_range_flag_exits_one(self, tiny_config, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run(*[tiny_config if a == "CONFIG" else a for a in argv], "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"impatience: error: {message}")
        assert not out.exists()

    def test_resamples_beyond_physical_memory_exit_one(self, tiny_config, tmp_path, capsys):
        # once a numpy MemoryError traceback asking for 87.3 TiB of resample sums
        log, out = tmp_path / "log.jsonl", tmp_path / "marginals.csv"
        assert run("simulate", "--config", tiny_config, "--out", str(log)) == 0
        capsys.readouterr()
        code = run("marginals", "--config", tiny_config, "--log", str(log), "--resamples", str(10**12),
                   "--out", str(out))
        assert code == 1
        # 10**12 resamples * 2 sums * 6 clusters * 8 B, plus the worker buffers
        assert capsys.readouterr().err.startswith("impatience: error: resamples=1e+12 needs about 9.6e+13 B")
        assert not out.exists()

    def test_weight_profile_samples_beyond_physical_memory_exit_one(self, tiny_config, tmp_path, capsys):
        # once a numpy MemoryError traceback asking for 7.28 TiB of samples
        out = tmp_path / "profile.csv"
        assert run("weight-profile", "--config", tiny_config, "--samples", str(10**12), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("impatience: error: samples=1e+12 needs about 3.2e+13 B")
        assert not out.exists()

    @pytest.mark.parametrize("command,sim,message", [
        # once `ValueError: lam value too large` from rng.poisson
        ("simulate", {"auctions_per_user": {"kind": "poisson", "mean": 1e308}},
         "sim 'auctions_per_user' (poisson, 1e+308 auctions per user) and 'n_users' need about 1.6e+312 B"),
        # once `TypeError: Cannot cast array data from dtype('O') to dtype('int64')`
        ("simulate", {"auctions_per_user": {"kind": "constant", "value": 1e308}, "activity_by_exposure": None},
         "sim 'auctions_per_user' (constant, 1e+308 auctions per user) and 'n_users' need about 1.6e+312 B"),
        # each once simulated one block of users after another until memory ran out
        ("simulate", {"n_users": 10**400}, HUGE_POPULATION),
        ("fit-ctr", {"n_users": 10**400}, HUGE_POPULATION),
        ("ab", {}, HUGE_POPULATION),  # --users-per-arm 10**400
    ], ids=["poisson-mean", "constant-count", "simulate-users", "fit-ctr-users", "ab-users-per-arm"])
    def test_population_beyond_physical_memory_exits_one(self, tiny_config, tmp_path, capsys, monkeypatch,
                                                         command, sim, message):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the size check")

        monkeypatch.setattr(simulator, "_simulate_chunk", no_simulation)
        raw = json.loads(Path(tiny_config).read_text())
        raw["sim"] = {key: value for key, value in {**raw["sim"], **sim}.items() if value is not None}
        Path(tiny_config).write_text(json.dumps(raw))
        out = tmp_path / "out"
        argv = [command, "--config", tiny_config, "--out", str(out)]
        if command == "ab":
            policy = tmp_path / "policy.json"
            policy.write_text(json.dumps(POLICY))
            argv += ["--policy", str(policy), "--users-per-arm", str(10**400)]
        assert run(*argv) == 1
        assert capsys.readouterr().err.startswith(f"impatience: error: {message}")
        assert not out.exists()

    def test_ab_reps_beyond_physical_memory_exit_one(self, tiny_config, tmp_path, capsys, monkeypatch):
        # once simulated one repetition after another, holding every one's totals, without end
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the size check")

        monkeypatch.setattr(simulator, "_simulate_chunk", no_simulation)
        policy, out = tmp_path / "policy.json", tmp_path / "ab.json"
        policy.write_text(json.dumps(POLICY))
        reps = 10**400
        assert run("ab", "--config", tiny_config, "--policy", str(policy), "--reps", str(reps), "--out", str(out)) == 1
        # 24 B for each of the 7 value-and-cost pairs of a repetition: the whole arm's and 6 clusters'
        assert capsys.readouterr().err.startswith("impatience: error: reps=1e+400 needs about 1.68e+402 B "
                                                  "(1e+400*168 B of per-repetition totals)")
        assert not out.exists()

    @pytest.mark.parametrize("empty_by", ["flag", "config"])
    def test_ab_with_an_empty_arm_exits_one(self, tiny_config, tmp_path, capsys, empty_by):
        # an arm of no users has a zero baseline; the relative deltas divided by it
        policy, out = tmp_path / "policy.json", tmp_path / "ab.json"
        policy.write_text(json.dumps({"schema": "impatience-policy/1", "cap_delta": 0.2,
                                      "multipliers": {"0": 1.2, "5": 0.8}}))
        argv = ["ab", "--config", tiny_config, "--policy", str(policy), "--reps", "2", "--out", str(out)]
        if empty_by == "flag":
            argv += ["--users-per-arm", "0"]
        else:
            raw = json.loads(Path(tiny_config).read_text())
            raw["sim"]["n_users"] = 0
            Path(tiny_config).write_text(json.dumps(raw))
        assert run(*argv) == 1
        assert capsys.readouterr().err.startswith("impatience: error: the baseline arm's value is 0")
        assert not out.exists()

    @pytest.mark.parametrize("competition,finite", [
        ({"kind": "lognormal", "mu": 1000, "sigma": 1}, True),
        ({"kind": "lognormal", "mu": 0, "sigma": 40}, True),
        ({"kind": "lognormal", "mu": -800, "sigma": 0.5}, True),
        ({"kind": "lognormal", "mu": 0, "sigma": 1e200}, True),
        ({"kind": "lognormal", "mu": 800, "sigma": 1e-200}, True),
        ({"kind": "uniform", "low": -1e308, "high": 1e308}, False),
    ], ids=["mu=1000", "sigma=40", "mu=-800", "sigma=1e200", "sigma=1e-200", "uniform-overflow"])
    def test_two_auctions_writes_a_finite_curve_or_exits_one(self, tmp_path, capsys, competition, finite):
        # each once exited 0 with a NaN curve and "best first bid 100", except
        # sigma=1e200, which ended in an OverflowError from sigma**2
        out = tmp_path / "profit.csv"
        code = run("two-auctions", "--competition", json.dumps(competition), "--out", str(out))
        if finite:
            assert code == 0
            rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")][1:]
            assert len(rows) == 1001
            assert all(math.isfinite(float(profit)) for _, profit in rows)
        else:
            assert code == 1
            assert "expected profit at bid 0 is not finite" in capsys.readouterr().err
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
        # one parser serves every call in a process: the --seed of one call must not reach the next
        a, b, c = (tmp_path / f"{name}.jsonl" for name in "abc")
        run("simulate", "--config", tiny_config, "--out", str(a))
        run("simulate", "--config", tiny_config, "--seed", "5", "--out", str(b))
        run("simulate", "--config", tiny_config, "--out", str(c))
        assert a.read_bytes() != b.read_bytes()
        assert c.read_bytes() == a.read_bytes()


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

    @pytest.mark.parametrize("bad", [{"mroi": "abc"}, {"dcost": ""}, {"dvalue": "nan"}, {"dcost": "inf"},
                                     {"mroi": "-inf"}])
    def test_malformed_row_exits_one(self, tmp_path, capsys, bad):
        src = tmp_path / "marginals.csv"
        row = dict(zip(["cluster", "n_users", "dcost", "dvalue", "mroi"], [0, 100, 1.0, 2.0, 2.0]), **bad)
        self.write_marginals(src, [list(row.values()) + [0] * 6, [1, 100, 1.0, 0.5, 0.5] + [0] * 6])
        assert run("optimize", "--marginals", str(src), "--out", str(tmp_path / "p.json")) == 1
        assert "malformed row" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["marginals.csv"]

    @pytest.mark.parametrize("header,row", [("cluster,dcost,dvalue,mroi", "0,1.0,2.0,2.0,junk,9"),
                                            ("cluster,dcost,dvalue,mroi,n_users", "0,1.0,2.0,2.0")])
    def test_row_of_another_width_exits_one(self, tmp_path, capsys, header, row):
        # a row's cells were once paired with the columns by zip, which dropped the extra cells
        # and left a missing trailing column out, so each file below gave a policy
        src = tmp_path / "marginals.csv"
        src.write_text(f"{header}\n{row}\n1,1.0,0.5,0.5{',9' * header.endswith('n_users')}\n")
        assert run("optimize", "--marginals", str(src), "--out", str(tmp_path / "p.json")) == 1
        cells, columns = row.split(","), header.split(",")
        error = ValueError(f"{len(cells)} cells under {len(columns)} columns: {cells}")
        assert capsys.readouterr().err == f"impatience: error: marginals file {src} has a malformed row: {error!r}\n"
        assert os.listdir(tmp_path) == ["marginals.csv"]

    @pytest.mark.parametrize("header,missing", [("cluster,n_users,dvalue", ["dcost", "mroi"]),
                                                ("n_users", ["cluster", "dcost", "dvalue", "mroi"])])
    def test_header_names_missing_columns(self, tmp_path, capsys, header, missing):
        # a header with no rows once exited 2 with an all-ones policy
        src = tmp_path / "marginals.csv"
        src.write_text(header + "\n")
        assert run("optimize", "--marginals", str(src), "--out", str(tmp_path / "p.json")) == 1
        assert capsys.readouterr().err == f"impatience: error: marginals file {src} has no columns {missing}\n"
        assert os.listdir(tmp_path) == ["marginals.csv"]

    def test_file_of_comments_alone_has_no_header_row(self, tmp_path, capsys):
        src = tmp_path / "marginals.csv"
        src.write_text("# tool=impatience\n\n")
        assert run("optimize", "--marginals", str(src), "--out", str(tmp_path / "p.json")) == 1
        assert capsys.readouterr().err == f"impatience: error: marginals file {src} has no header row\n"
        assert os.listdir(tmp_path) == ["marginals.csv"]

    def test_header_names_repeated_columns(self, tmp_path, capsys):
        # the later cell of a repeated column once silently won
        src = tmp_path / "marginals.csv"
        src.write_text("cluster,dcost,dvalue,mroi,dcost,cluster\n0,1.0,2.0,2.0,-1.0,1\n")
        assert run("optimize", "--marginals", str(src), "--out", str(tmp_path / "p.json")) == 1
        assert capsys.readouterr().err == (f"impatience: error: marginals file {src} repeats columns "
                                           "['cluster', 'dcost']\n")
        assert os.listdir(tmp_path) == ["marginals.csv"]

    def test_cluster_listed_twice_exits_one(self, tmp_path, capsys):
        # cluster 1 both eligible and pinned once gave a policy and exit 0
        src = tmp_path / "marginals.csv"
        src.write_text("cluster,dcost,dvalue,mroi\n0,1.0,2.0,2.0\n1,1.0,0.5,0.5\n1,-1.0,1.0,\n")
        assert run("optimize", "--marginals", str(src), "--out", str(tmp_path / "p.json")) == 1
        assert capsys.readouterr().err == f"impatience: error: marginals file {src}: duplicate cluster 1\n"
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

    def test_policy_digest_is_recorded(self, tiny_config, tmp_path):
        # offline-eval and ab once recorded the config and log digests but not the policy's;
        # every recorded digest is the sha256 of its input's bytes
        log, policy = tmp_path / "log.jsonl", tmp_path / "policy.json"
        ev, sweep, ab = tmp_path / "eval.csv", tmp_path / "sweep.csv", tmp_path / "ab.json"
        marg, optimized = tmp_path / "marginals.csv", tmp_path / "optimized.json"
        policy.write_text(json.dumps(POLICY))
        digest = hashlib.sha256(policy.read_bytes()).hexdigest()
        assert run("simulate", "--config", tiny_config, "--out", str(log)) == 0
        assert run("marginals", "--config", tiny_config, "--log", str(log), "--out", str(marg)) == 0
        assert run("optimize", "--marginals", str(marg), "--out", str(optimized)) == 0
        assert run("offline-eval", "--config", tiny_config, "--log", str(log), "--policy", str(policy),
                   "--out", str(ev)) == 0
        assert run("offline-eval", "--config", tiny_config, "--log", str(log), "--out", str(sweep)) == 0
        assert run("ab", "--config", tiny_config, "--policy", str(policy), "--reps", "2", "--users-per-arm", "300",
                   "--out", str(ab)) == 0
        comments = [line for line in ev.read_text().splitlines() if line.startswith("#")]
        assert comments[3:] == [f"# policy_sha256={digest}", "# seed=0"]
        assert "policy_sha256" not in sweep.read_text()  # a sweep reads no policy file
        report = json.loads(ab.read_text())
        assert report["policy_sha256"] == digest
        assert sorted(report) == ["arms", "config_sha256", "n_reps", "policy_sha256", "seed", "tool",
                                  "users_per_arm"]
        files = {"config": Path(tiny_config), "log": log, "marginals": marg, "policy": policy}
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}
        recorded = {output: dict(re.findall(r'(\w+)_sha256["=: ]+([0-9a-f]+)', output.read_text()))
                    for output in (marg, optimized, ev, sweep, ab)}
        assert recorded == {
            marg: {"config": digests["config"], "log": digests["log"]},
            optimized: {"log": digests["log"], "marginals": digests["marginals"]},
            ev: {name: digests[name] for name in ("config", "log", "policy")},
            sweep: {"config": digests["config"], "log": digests["log"]},
            ab: {"config": digests["config"], "policy": digests["policy"]},
        }

    def test_sweep_rows_equal_the_rows_of_optimized_policies(self, tiny_config, tmp_path):
        # one route from a log to a policy: the sweep's row for a cap is the
        # row offline-eval gives for the policy optimize writes at that cap
        log, marg, sweep = tmp_path / "log.jsonl", tmp_path / "marginals.csv", tmp_path / "sweep.csv"
        assert run("simulate", "--config", tiny_config, "--out", str(log)) == 0
        assert run("marginals", "--config", tiny_config, "--log", str(log), "--out", str(marg)) == 0
        caps = [str(delta) for delta in DEFAULT_SWEEP]
        assert run("offline-eval", "--config", tiny_config, "--log", str(log), "--sweep", *caps,
                   "--out", str(sweep)) == 0
        sweep_rows = sweep.read_text().splitlines()[-len(caps):]
        for cap, sweep_row in zip(caps, sweep_rows):
            policy, ev = tmp_path / f"policy-{cap}.json", tmp_path / f"eval-{cap}.csv"
            assert run("optimize", "--marginals", str(marg), "--cap", cap, "--out", str(policy)) == 0
            assert run("offline-eval", "--config", tiny_config, "--log", str(log), "--policy", str(policy),
                       "--out", str(ev)) == 0
            assert ev.read_text().splitlines()[-1] == sweep_row

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # from about 120k users OpenBLAS 0.3 splits a matrix-vector product
        # over the users across threads, which changes its last bits; the
        # bootstrap's sums must not go through one, and the CTR fit's
        # LAPACK solves must give the same calibration under either count
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
                ["fit-ctr", "--config", str(cfg), "--out", str(out / "calibration.csv")],
            ]
            # one interpreter per thread count: BLAS reads the variable when it loads
            subprocess.run([sys.executable, "-c", RUN_COMMANDS, json.dumps(commands)], env=env,
                           check=True, capture_output=True, timeout=300)
            outputs[threads] = [(out / name).read_bytes() for name in ("marginals.csv", "eval.csv", "calibration.csv")]
        assert outputs["1"] == outputs["2"]

    def test_bootstrap_outputs_do_not_depend_on_the_worker_count(self, tiny_config, tmp_path, monkeypatch):
        # 2000 users make blocks of 32 resamples: 150 resamples are 5 blocks
        log = tmp_path / "log.jsonl"
        assert run("simulate", "--config", tiny_config, "--out", str(log)) == 0
        outputs = {}
        for workers in (1, 2):
            monkeypatch.setattr(estimators, "_n_workers", lambda: workers)
            out = tmp_path / f"workers{workers}"
            out.mkdir()
            assert run("marginals", "--config", tiny_config, "--log", str(log), "--out", str(out / "marginals.csv")) == 0
            assert run("offline-eval", "--config", tiny_config, "--log", str(log), "--out", str(out / "eval.csv")) == 0
            outputs[workers] = [(out / name).read_bytes() for name in ("marginals.csv", "eval.csv")]
        assert outputs[1] == outputs[2]

    def test_sweep_rows_equal_separate_bootstraps(self, tiny_config, tmp_path):
        # the sweep draws once for all its policies; each row must be the bytes
        # that policy's own bootstrap gives
        log, ev = tmp_path / "log.jsonl", tmp_path / "eval.csv"
        assert run("simulate", "--config", tiny_config, "--out", str(log)) == 0
        assert run("offline-eval", "--config", tiny_config, "--log", str(log), "--out", str(ev)) == 0
        cfg = ExperimentConfig.from_json(json.loads(Path(tiny_config).read_text()))
        data = read_log(str(log))
        rows = [marginal_roi(data, c) for c in range(data.n_clusters)]
        expected = []
        for delta in cfg.sweep:
            policy = solve_reallocation_detailed(ReallocationProblem.from_rows(rows, delta)).policy
            ci = policy_delta_bootstrap(data, policy, cfg.resamples, cfg.seed)
            cells = [delta] + [v for j in range(4) for v in (ci.point[j], ci.low[j], ci.high[j])]
            expected.append(",".join(_fmt(v) for v in cells))
        assert [l for l in ev.read_text().splitlines() if not l.startswith("#")][1:] == expected

    def test_linear_cost_delta_is_exactly_rounded(self, tiny_config, tmp_path):
        # a cost-neutral policy's linear cost delta cancels to rounding noise,
        # so its cell is the exactly rounded sum of the per-user terms
        log, ev = tmp_path / "log.jsonl", tmp_path / "eval.csv"
        assert run("simulate", "--config", tiny_config, "--out", str(log)) == 0
        assert run("offline-eval", "--config", tiny_config, "--log", str(log), "--out", str(ev)) == 0
        data = read_log(str(log))
        arr = data.arrays
        rows = [marginal_roi(data, c) for c in range(data.n_clusters)]
        lines = [l.split(",") for l in ev.read_text().splitlines() if not l.startswith("#")]
        for cells in (dict(zip(lines[0], line)) for line in lines[1:]):
            policy = solve_reallocation_detailed(ReallocationProblem.from_rows(rows, float(cells["delta"]))).policy
            alpha = policy.multiplier_array(data.n_clusters)[arr["cluster"]]
            terms = (alpha - 1) * arr["cost"] * linear_weight(arr["theta"], data.spec)
            assert float(cells["dcost_linear"]) == math.fsum(terms.tolist())

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
        assert [r.split(",")[0] for r in rows[1:]] == ["0.05", "0.1"]  # the flag's sweep, not the config's

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
        import impatience.domain as domain

        fmt, calls = domain._fmt, []

        def fail_on_fifth_cell(x):
            calls.append(x)
            if len(calls) == 5:
                raise RuntimeError("formatter failed")
            return fmt(x)

        monkeypatch.setattr(domain, "_fmt", fail_on_fifth_cell)
        with pytest.raises(RuntimeError, match="formatter failed"):
            run(*argv, "--alphas", "0.7", "1.3")
        assert out.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["config.json", "profile.csv"]


class TestImport:
    def test_no_module_imports_scipy(self):
        package = Path(impatience.__file__).parent
        modules = sorted(package.glob("*.py"))
        assert len(modules) > 1
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(name.split(".")[0] == "scipy" for name in names), f"{path.name}:{node.lineno}"

    def test_cli_import_leaves_scipy_unloaded(self, tmp_path):
        # the lognormal two-auction curve is the one computation that once needed scipy
        code = (
            "import sys; from impatience.cli import main; "
            "code = main(['two-auctions', '--competition', '{\"kind\":\"lognormal\",\"mu\":3,\"sigma\":0.8}', "
            "'--out', sys.argv[1]]); "
            "print(code, sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
        )
        src = os.path.dirname(os.path.dirname(impatience.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "profit.csv")], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.splitlines()[-1] == "0 []"


class TestStandaloneCommands:
    def test_init_config_roundtrips(self, tmp_path):
        out = tmp_path / "config.json"
        assert run("init-config", "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "da9dfb6a68cfd204d56af656a729b8567a9bb3795a6cb1bc6e03ec814064ae78"
        )
        assert ExperimentConfig.from_json(json.loads(out.read_text())) == default_experiment_config()

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

    def test_lone_surrogate_user_id_exits_one_and_names_line(self, tiny_config, tmp_path, capsys):
        # json reads the escape "\\ud800" as a lone surrogate, which UTF-8 cannot encode; it was once a user
        log = tmp_path / "log.jsonl"
        assert run("simulate", "--config", tiny_config, "--out", str(log)) == 0
        lines = log.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "user_id": "\ud800"})
        log.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.csv"
        assert run("marginals", "--config", tiny_config, "--log", str(log), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "impatience: error: line 3: user_id must be text that UTF-8 can encode, got '\\ud800'\n")
        assert not out.exists()

    def test_fit_ctr_convergence_failure_exits_two(self, tiny_config, tmp_path, capsys, monkeypatch):
        from impatience import CtrModel, ConvergenceError

        def failing_fit(*args, **kwargs):
            raise ConvergenceError(1.0, CtrModel((0.0,), False, (1,)))

        monkeypatch.setattr("impatience.predictor.fit_ctr", failing_fit)
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
        if probe == "long_key" and not INT_DIGITS:
            pytest.skip("this interpreter has no integer digit limit")
        doc, message = MALFORMED_POLICIES[probe]
        policy.write_text(json.dumps(doc))
        out = tmp_path / "ab.json"
        code = run("ab", "--config", tiny_config, "--policy", str(policy), "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"impatience: error: policy file {policy}{message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ab", "offline-eval"])
    def test_policy_cluster_past_the_buckets_names_the_file(self, tiny_config, tmp_path, capsys, command):
        # the default buckets make clusters 0 to 5; cluster 9's error once named no file
        policy, log, out = tmp_path / "policy.json", tmp_path / "log.jsonl", tmp_path / "out"
        policy.write_text(json.dumps({**POLICY, "multipliers": {"9": 1.1}}))
        argv = [command, "--config", tiny_config, "--policy", str(policy), "--out", str(out)]
        if command == "offline-eval":
            assert run("simulate", "--config", tiny_config, "--out", str(log)) == 0
            argv += ["--log", str(log)]
        assert run(*argv) == 1
        assert capsys.readouterr().err == (f"impatience: error: policy file {policy}: "
                                           "cluster index 9 out of range [0, 6)\n")
        assert not out.exists()

    def test_values_that_overflow_exit_one_with_one_line(self, tiny_config, tmp_path):
        # each once exited 0 with NaN rows, or ended in a traceback, or warned on stderr first
        raw = json.loads(Path(tiny_config).read_text())
        sigma, vpc, log = tmp_path / "sigma.json", tmp_path / "vpc.json", tmp_path / "log.jsonl"
        sigma.write_text(json.dumps({**raw, "randomization": {"mu": 0.0, "sigma": 1e-200}}))
        vpc.write_text(json.dumps({**raw, "sim": {**raw["sim"], "value_per_conversion": 1e308}}))
        assert run("simulate", "--config", tiny_config, "--out", str(log)) == 0
        log.write_text(log.read_text().replace('"sigma":0.3', '"sigma":1e-200', 1))
        out = str(tmp_path / "out")
        commands = [["simulate", "--config", str(vpc), "--out", out],
                    ["weight-profile", "--config", str(sigma), "--out", out],
                    ["marginals", "--config", tiny_config, "--log", str(log), "--out", out]]
        code = "import json, sys; from impatience.cli import main; print([main(a) for a in json.loads(sys.argv[1])])"
        src = os.path.dirname(os.path.dirname(impatience.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        done = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.stdout.splitlines()[-1] == "[1, 1, 1]", done.stderr
        assert [line.split(":")[:2] for line in done.stderr.splitlines()] == [["impatience", " error"]] * 3, done.stderr
        assert not os.path.exists(out)

    @pytest.mark.parametrize("target,old,new,key", [
        ("policy", '"multipliers": {"0": 1.1}', '"multipliers": {"1": 1.1, "1": 0.9}', "'1'"),
        ("config", '"seed": 0', '"seed": 0, "seed": 5', "'seed'"),
    ])
    def test_repeated_key_exits_one(self, tiny_config, tmp_path, capsys, target, old, new, key):
        # once read as the policy {1: 0.9} and as a config with seed 5, each with exit 0
        files = {"config": Path(tiny_config), "policy": tmp_path / "policy.json"}
        files["policy"].write_text(json.dumps(POLICY))
        files[target].write_text(files[target].read_text().replace(old, new))
        out = tmp_path / "ab.json"
        assert run("ab", "--config", tiny_config, "--policy", str(files["policy"]), "--reps", "1", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"impatience: error: {target} file {files[target]} is not valid JSON: repeated key {key}\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("user", ["first", "largest_weight"])
    def test_log_values_that_overflow_the_estimators_exit_one(self, tmp_path, capsys, user):
        # a 300-user default log with one user's cost at 1e308 exited 0 with an inf or NaN cell and
        # numpy warnings: for the user with the largest weight the term itself overflows, for the
        # first user only resample sums that draw it more than once do
        raw = default_experiment_config().to_json()
        raw["sim"]["n_users"] = 300
        config, log, out = tmp_path / "config.json", tmp_path / "log.jsonl", tmp_path / "m.csv"
        config.write_text(json.dumps(raw))
        assert run("simulate", "--config", str(config), "--out", str(log)) == 0
        lines = log.read_text().splitlines(keepends=True)
        users = [json.loads(line) for line in lines[1:]]
        i = 0 if user == "first" else max(range(len(users)), key=lambda j: abs(math.log(users[j]["theta"])))
        lines[i + 1] = json.dumps({**users[i], "cost": 1e308}) + "\n"
        log.write_text("".join(lines))
        capsys.readouterr()
        assert run("marginals", "--config", str(config), "--log", str(log), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("impatience: error: the log holds values too large to estimate with")
        assert err.count("\n") == 1
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

    @pytest.mark.parametrize("target,defect,message", UNDECODABLE_PROBES,
                             ids=[f"{target}-{defect}" for target, defect, _ in UNDECODABLE_PROBES])
    def test_undecodable_input_exits_one(self, tiny_config, tmp_path, capsys, target, defect, message):
        # each once ended in a ValueError, RecursionError or UnicodeDecodeError traceback
        if defect == "digits" and not INT_DIGITS:
            pytest.skip("this interpreter has no integer digit limit")
        raw = UNDECODABLE[defect]
        log, policy, marginals = tmp_path / "log.jsonl", tmp_path / "policy.json", tmp_path / "marginals.csv"
        policy.write_text(json.dumps(POLICY))
        if target.startswith("log") or target == "marginals":
            assert run("simulate", "--config", tiny_config, "--out", str(log)) == 0
        if target == "marginals":
            assert run("marginals", "--config", tiny_config, "--log", str(log), "--out", str(marginals)) == 0
        read_log = ["marginals", "--config", tiny_config, "--log", str(log)]
        if target == "competition":
            path, argv = None, ["two-auctions", "--competition", raw.decode()]
        else:
            # the value after `key` is replaced by the raw bytes
            path, key, value, argv = {
                "config": (Path(tiny_config), b'"seed": ', b"0", ["simulate", "--config", tiny_config]),
                "policy": (policy, b'"cap_delta": ', b"0.2", ["ab", "--config", tiny_config, "--policy", str(policy)]),
                "log-header": (log, b'"mu":', b"0.0", read_log),
                "log-user": (log, b'"user_id":', b'"u00000001"', read_log),
                "marginals": (marginals, b"cluster,", b"n_users", ["optimize", "--marginals", str(marginals)]),
            }[target]
            data = path.read_bytes()
            assert data.count(key + value) == 1
            path.write_bytes(data.replace(key + value, key + raw))
        capsys.readouterr()
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("impatience: error: " + message.format(path=path))
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

    @pytest.mark.parametrize("flag", ["--config", "--log", "--marginals", "--policy"])
    def test_pipe_as_a_recorded_input_gives_the_output_of_its_file(self, tiny_config, tmp_path, flag):
        # each input is read once and hashed as it is parsed, so a pipe's digest names the bytes
        # that were read: the output equals the one from the same bytes in a file
        log, marginals = tmp_path / "log.jsonl", tmp_path / "marginals.csv"
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(POLICY))
        assert run("simulate", "--config", tiny_config, "--out", str(log)) == 0
        log.write_text("".join(log.read_text().splitlines(keepends=True)[:50]))
        assert run("marginals", "--config", tiny_config, "--log", str(log), "--out", str(marginals)) == 0
        source = {"--config": Path(tiny_config), "--log": log, "--marginals": marginals, "--policy": policy}[flag]

        def argv(path):
            return {
                "--config": ["weight-profile", "--config", path, "--samples", "100"],
                "--log": ["marginals", "--config", tiny_config, "--log", path],
                "--marginals": ["optimize", "--marginals", path],
                "--policy": ["offline-eval", "--config", tiny_config, "--log", str(log), "--policy", path],
            }[flag]

        from_file = tmp_path / "from-file"
        assert run(*argv(str(source)), "--out", str(from_file)) == 0
        code = "import sys; from impatience.cli import main; sys.exit(main(sys.argv[1:]))"
        src = os.path.dirname(os.path.dirname(impatience.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        from_pipe = tmp_path / "from-pipe"
        read, write = os.pipe()
        try:
            os.write(write, source.read_bytes())  # far less than a pipe holds
            os.close(write)
            done = subprocess.run([sys.executable, "-c", code, *argv(f"/dev/fd/{read}"), "--out", str(from_pipe)],
                                  env=env, pass_fds=(read,), capture_output=True, text=True, timeout=120)
        finally:
            os.close(read)
        assert (done.returncode, done.stderr) == (0, "")
        assert from_pipe.read_bytes() == from_file.read_bytes()

    @pytest.mark.parametrize("flag", ["--config", "--log", "--marginals", "--policy"])
    def test_digest_names_the_bytes_parsed_when_the_input_is_replaced(self, tiny_config, tmp_path, monkeypatch,
                                                                        flag):
        # the digest was once taken in a pass of its own before the parse, so a file replaced in
        # between (as a concurrent run's atomic write replaces it) was recorded by the old bytes
        log, marginals, policy = tmp_path / "log.jsonl", tmp_path / "marginals.csv", tmp_path / "policy.json"
        log2, marginals2, policy2 = tmp_path / "log2.jsonl", tmp_path / "marginals2.csv", tmp_path / "policy2.json"
        config2 = tmp_path / "config2.json"
        config2.write_text(json.dumps({**json.loads(Path(tiny_config).read_text()), "seed": 2}))
        policy.write_text(json.dumps(POLICY))
        policy2.write_text(json.dumps({**POLICY, "multipliers": {"0": 0.9}}))
        for cfg, lg, marg in ((tiny_config, log, marginals), (str(config2), log2, marginals2)):
            assert run("simulate", "--config", cfg, "--out", str(lg)) == 0
            lg.write_text("".join(lg.read_text().splitlines(keepends=True)[:50]))
            assert run("marginals", "--config", cfg, "--log", str(lg), "--out", str(marg)) == 0
        name, reader, path, replacement, argv = {
            "--config": ("config", "read_json", Path(tiny_config), config2,
                         ["weight-profile", "--config", tiny_config, "--samples", "100"]),
            "--log": ("log", "read_log", log, log2, ["marginals", "--config", tiny_config, "--log", str(log)]),
            "--marginals": ("marginals", "read_marginals", marginals, marginals2,
                            ["optimize", "--marginals", str(marginals)]),
            "--policy": ("policy", "read_policy", policy, policy2,
                         ["offline-eval", "--config", tiny_config, "--log", str(log), "--policy", str(policy)]),
        }[flag]
        parsed = hashlib.sha256(replacement.read_bytes()).hexdigest()
        real = getattr(cli, reader)

        def replaced_then_read(source, *args):
            if source == str(path):
                os.replace(replacement, path)
            return real(source, *args)

        monkeypatch.setattr(cli, reader, replaced_then_read)
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 0
        assert re.findall(rf'{name}_sha256["=: ]+([0-9a-f]+)', out.read_text()) == [parsed]


class TestConfigRanges:
    @pytest.mark.parametrize("entry", [1.5, 1, 0, -0.1])
    def test_sweep_entry_outside_the_unit_interval_exits_one(self, tiny_config, tmp_path, capsys, entry):
        # a sweep entry of 1.5 once passed simulate, and offline-eval rejected it only
        # after reading the log, naming the solver's cap instead of the config key
        raw = json.loads(Path(tiny_config).read_text())
        Path(tiny_config).write_text(json.dumps({**raw, "sweep": [0.1, entry]}))
        out = tmp_path / "log.jsonl"
        assert run("simulate", "--config", tiny_config, "--out", str(out)) == 1
        assert capsys.readouterr().err == (f"impatience: error: config 'sweep' must be a list of finite numbers "
                                           f"in (0, 1), got [0.1, {entry}]\n")
        assert not out.exists()

    def test_sweep_flag_is_checked_before_the_log_is_read(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "eval.csv"
        code = run("offline-eval", "--config", tiny_config, "--log", str(tmp_path / "missing.jsonl"),
                   "--sweep", "0.1", "1.5", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith("impatience: error: config 'sweep' must be a list of finite "
                                                  "numbers in (0, 1), got [0.1, 1.5]")
        assert not out.exists()

    def test_policy_is_checked_before_the_log_is_read(self, tiny_config, tmp_path, capsys):
        # the whole log was read first: a bad policy failed only after the log read, and a
        # missing log hid it
        policy, out = tmp_path / "policy.json", tmp_path / "eval.csv"
        policy.write_text("{")
        code = run("offline-eval", "--config", tiny_config, "--log", str(tmp_path / "missing.jsonl"),
                   "--policy", str(policy), "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"impatience: error: policy file {policy} is not valid JSON: ")
        assert not out.exists()

    def test_sweep_built_in_code_is_checked(self):
        with pytest.raises(ValidationError, match=re.escape("config 'sweep' must be a list of finite numbers in (0, 1)")):
            replace(default_experiment_config(), sweep=(0.1, 1.5))

    @pytest.mark.parametrize("mu,sigma", [(0.3, 1e-155), (0.0, 1e-15)])
    @pytest.mark.parametrize("command", ["simulate", "marginals"])
    def test_sigma_below_the_resolution_of_mu_exits_one(self, tiny_config, tmp_path, capsys, command, mu, sigma):
        # mu 0.3 with sigma 1e-155: marginals once exited 0 with a dcost of about 1.6e+295;
        # mu 0 with sigma 1e-15: both once exited 0, marginals with a dcost of about 5.7e+15
        log = tmp_path / "log.jsonl"
        assert run("simulate", "--config", tiny_config, "--out", str(log)) == 0
        raw = json.loads(Path(tiny_config).read_text())
        Path(tiny_config).write_text(json.dumps({**raw, "randomization": {"mu": mu, "sigma": sigma}}))
        capsys.readouterr()
        out = tmp_path / "out"
        argv = [command, "--config", tiny_config] + (["--log", str(log)] if command == "marginals" else [])
        assert run(*argv, "--out", str(out)) == 1
        assert capsys.readouterr().err == ("impatience: error: config 'randomization': sigma must be at least "
                                           "2**-26 * max(1, |mu|) = 1.49012e-08, or ln(theta) - mu rounds to noise, "
                                           f"got {sigma}\n")
        assert not out.exists()


class TestOracleWorkers:
    def test_ab_does_not_depend_on_the_worker_count(self, tiny_config, tmp_path, monkeypatch):
        # 5 repetitions per arm run on 1, 2 or 3 threads; every arm must write the same bytes
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(POLICY))
        reports = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(simulator, "_n_workers", lambda: workers)
            out = tmp_path / f"ab{workers}.json"
            assert run("ab", "--config", tiny_config, "--policy", str(policy), "--reps", "5",
                       "--users-per-arm", "800", "--out", str(out)) == 0
            reports.append(out.read_bytes())
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]

    def test_ab_population_check_counts_every_worker(self, tiny_config, tmp_path, capsys, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the size check")

        monkeypatch.setattr(simulator, "_simulate_chunk", no_simulation)
        monkeypatch.setattr(simulator, "_n_workers", lambda: 2)
        policy, out = tmp_path / "policy.json", tmp_path / "ab.json"
        policy.write_text(json.dumps(POLICY))
        assert run("ab", "--config", tiny_config, "--policy", str(policy), "--reps", "4",
                   "--users-per-arm", str(10**400), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"impatience: error: {HUGE_POPULATION} (")
        assert not out.exists()
