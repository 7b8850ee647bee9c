"""Property test: a malformed input file ends in exit code 1 or 2 and a
message on stderr, never in an exception that escapes `main`.

Small valid config, log, marginals and policy files are made once; each
example changes one or two places in one of them (drops a key, list
entry or line, or puts another JSON value there) and runs every
subcommand that reads that file. The replacement values are wrong JSON types and numbers
outside the domain of every field: negative, fractional, NaN and
infinite; and raw text that the decoder itself rejects: an integer one
digit past the interpreter's limit, an array nested past the recursion
limit and a byte that is not UTF-8. Config values also take floats at
the edges of the float range (`EXTREME_FLOATS`), and log values 1e308,
which overflows the estimators' weighted sums. Large valid sizes are
left out, since they only make a run long.

A run that exits 0 must write only finite numbers: the cells left empty
on purpose (`MAY_BE_EMPTY`) are the only ones that may hold no number.
"""

import contextlib
import copy
import io
import json
import math
import os
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from impatience.cli import default_experiment_config, main

DROP = "<drop>"  # the mutation that deletes the place instead of replacing it
#: Placeholders that `write` replaces by raw bytes json.dump cannot write: an
#: integer one digit past the interpreter's limit (a single digit where it has
#: none), an array nested past the recursion limit and a string holding 0xff.
RAW = {"<digits>": b"9" * (getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1),
       "<nested>": b"[" * 10**5 + b"]" * 10**5, "<0xff>": b'"\xff"'}
JSON_VALUES = [DROP, None, True, "x", [], {}, -1, 0, 0.5, 2.5, -1e308, math.nan, math.inf, -math.inf, *RAW]
#: The smallest subnormal, a float whose square rounds to 0 and one near the largest float.
EXTREME_FLOATS = [5e-324, 1e-200, 1e308]
CELL_VALUES = [DROP, "", "x", "-1", "0", "2.5", "-1e308", "nan", "inf", "-inf", *RAW]

CONFIG = default_experiment_config().to_json()
CONFIG["sim"].update(n_users=60, auctions_per_user={"kind": "poisson", "mean": 4.0})
CONFIG.update(resamples=100, sweep=[0.1])
POLICY = {"schema": "impatience-policy/1", "cap_delta": 0.2,
          "multipliers": {"0": 1.1, "1": 0.9, "5": 1.2}, "provenance": {"tool": "test"}}


def places(doc, prefix=()):
    """The path of every value inside a JSON document, the document itself first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from places(value, prefix + (key,))


def mutate(doc, changes):
    """A copy of `doc` with the value at each (path, value) change dropped or
    replaced in turn; a path that an earlier change removed is skipped."""
    doc = copy.deepcopy(doc)
    for path, value in changes:
        if not path:
            doc = value
            continue
        *parents, last = path
        node = doc
        try:  # the place must still exist, inside an object or a list
            for key in parents:
                node = node[key]
            node[last]
        except (KeyError, IndexError, TypeError):
            continue
        if not isinstance(node, (dict, list)):  # a string that an earlier change put there
            continue
        if value == DROP:
            del node[last]
        else:
            node[last] = value
    return doc


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid config, log, marginals and policy files, and their parsed contents."""
    d = tmp_path_factory.mktemp("inputs")
    files = {name: str(d / name) for name in ("config.json", "log.jsonl", "marginals.csv", "policy.json")}
    with open(files["config.json"], "w") as fh:
        json.dump(CONFIG, fh)
    with open(files["policy.json"], "w") as fh:
        json.dump(POLICY, fh)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", files["config.json"], "--out", files["log.jsonl"]]) == 0
        assert main(["marginals", "--config", files["config.json"], "--log", files["log.jsonl"],
                     "--out", files["marginals.csv"]]) == 0
    with open(files["log.jsonl"]) as fh:
        log_lines = [json.loads(line) for line in fh]
    with open(files["marginals.csv"]) as fh:
        marginal_rows = [line.rstrip("\n").split(",") for line in fh if not line.startswith("#")]
    return files, {"config": CONFIG, "log": log_lines, "marginals": marginal_rows, "policy": POLICY}


def commands(files, out):
    """Each kind of input file and the subcommands that read it."""
    config, log, policy = files["config.json"], files["log.jsonl"], files["policy.json"]
    return {
        "config": [
            ["simulate", "--config", config, "--out", out],
            ["offline-eval", "--config", config, "--log", log, "--out", out],
            ["fit-ctr", "--config", config, "--out", out],
        ],
        "log": [["marginals", "--config", config, "--log", log, "--out", out],
                ["offline-eval", "--config", config, "--log", log, "--policy", policy, "--out", out]],
        "marginals": [["optimize", "--marginals", files["marginals.csv"], "--out", out]],
        "policy": [["ab", "--config", config, "--policy", policy, "--reps", "1", "--users-per-arm", "30",
                    "--out", out],
                   ["offline-eval", "--config", config, "--log", log, "--policy", policy, "--out", out]],
    }


def write(kind, doc, path):
    if kind == "log":
        text = "".join(json.dumps(line) + "\n" for line in doc)
    elif kind == "marginals":
        text = "# log_sha256=0\n" + "".join(",".join(row) + "\n" for row in doc)
    else:
        text = json.dumps(doc)
    data = text.encode()
    for placeholder, raw in RAW.items():  # a JSON string, or a bare CSV cell
        data = data.replace(json.dumps(placeholder).encode(), raw).replace(placeholder.encode(), raw)
    with open(path, "wb") as fh:
        fh.write(data)


def check_exits_cleanly(inputs, kind, changes):
    files, docs = inputs
    with tempfile.TemporaryDirectory() as d:
        name = {"config": "config.json", "log": "log.jsonl", "marginals": "marginals.csv",
                "policy": "policy.json"}[kind]
        files = {**files, name: os.path.join(d, name)}
        write(kind, mutate(docs[kind], changes), files[name])
        for argv in commands(files, os.path.join(d, "out"))[kind]:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            if code != 0:
                assert err.getvalue().startswith("impatience:"), (argv, err.getvalue())
            else:
                assert_finite_output(argv)


#: Output columns left empty on purpose: an undefined mROI and its CI, and a calibration bucket with no events.
MAY_BE_EMPTY = {"mroi", "mroi_ci_low", "mroi_ci_high", "empirical_rate", "mean_predicted"}


def assert_finite_output(argv):
    """Every number that the run of `argv` wrote is finite, and only `MAY_BE_EMPTY` cells are empty."""
    with open(argv[argv.index("--out") + 1]) as fh:
        text = fh.read()
    if argv[0] in ("simulate", "ab", "optimize"):  # a JSONL log or one JSON document
        for line in text.splitlines() if argv[0] == "simulate" else [text]:
            assert all(map(math.isfinite, json_numbers(json.loads(line)))), (argv, line)
        return
    header, *rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    for row in rows:
        for name, cell in zip(header, row):
            if name != "model":
                assert (cell == "" and name in MAY_BE_EMPTY) or math.isfinite(float(cell)), (argv, name, row)


def json_numbers(doc):
    """Every number in a decoded JSON document."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [number for item in doc for number in json_numbers(item)]
    return [doc] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


HEADER_KEYS = ("schema", "mu", "sigma", "bucket_boundaries")
USER_KEYS = ("user_id", "theta", "exposure_at_start", "cluster", "cost", "value_observed", "value_predicted",
             "n_auctions", "n_wins")
#: Places in the log: the header, its keys and boundaries, and the first, second and last user line.
LOG_PATHS = [(0,), *((0, k) for k in HEADER_KEYS), *((0, "bucket_boundaries", j) for j in range(5)),
             *(p for i in (1, 2, CONFIG["sim"]["n_users"]) for p in [(i,), *((i, k) for k in USER_KEYS)])]
#: Places in the marginals table: the header row, the first and last cluster row, and each of their cells.
MARGINALS_PATHS = [p for i in (0, 1, 6) for p in [(i,), *((i, j) for j in range(11))]]

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def changes(paths, values):
    return st.lists(st.tuples(st.sampled_from(list(paths)), st.sampled_from(values)), min_size=1, max_size=2)


@SETTINGS
@given(changes=changes(places(CONFIG), JSON_VALUES + EXTREME_FLOATS))
@example(changes=[(("randomization", "sigma"), 1e-200)])
@example(changes=[(("sim", "value_per_conversion"), 1e308)])
@example(changes=[(("sim", "activity_by_exposure"), DROP),
                  (("sim", "auctions_per_user"), {"kind": "constant", "value": 2.5})])
@example(changes=[(("sim", "activity_by_exposure"), DROP),
                  (("sim", "auctions_per_user"), {"kind": "constant", "value": -2})])
def test_mutated_config_exits_cleanly(inputs, changes):
    check_exits_cleanly(inputs, "config", changes)


@SETTINGS
@given(changes=changes(places(POLICY), JSON_VALUES))
def test_mutated_policy_exits_cleanly(inputs, changes):
    check_exits_cleanly(inputs, "policy", changes)


@SETTINGS
@given(changes=changes(LOG_PATHS, JSON_VALUES + [1e308]))
@example(changes=[((0, "mu"), "0.5")])
@example(changes=[((1, "cost"), 1e308)])
@example(changes=[((0, "sigma"), True)])
def test_mutated_log_exits_cleanly(inputs, changes):
    check_exits_cleanly(inputs, "log", changes)


@SETTINGS
@given(changes=changes(MARGINALS_PATHS, CELL_VALUES))
@example(changes=[((1, 3), "nan")])
@example(changes=[((1, 2), "inf")])
def test_mutated_marginals_exit_cleanly(inputs, changes):
    check_exits_cleanly(inputs, "marginals", changes)
