import hashlib
import io
import json
import math
import os
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impatience import (
    DEFAULT_BUCKETS,
    ClusterRow,
    LogFormatError,
    PolicySpec,
    RandomizationSpec,
    RandomizedLog,
    ValidationError,
    assign_clusters,
    default_config,
    read_log,
    simulate_log,
    write_log,
)
from impatience import domain
from impatience.domain import SCHEMA_VERSION

COLUMNS = ("theta", "exposure_at_start", "cluster", "cost", "value_observed",
           "value_predicted", "n_auctions", "n_wins")


def roundtrip(log: RandomizedLog) -> RandomizedLog:
    buf = io.StringIO()
    write_log(log, buf)
    buf.seek(0)
    return read_log(buf)


def make_user(i: int, **overrides) -> dict:
    exposure = overrides.pop("exposure_at_start", i % 7)
    base = dict(
        user_id=f"u{i}",
        theta=0.5 + 0.1 * i,
        exposure_at_start=exposure,
        cluster=int(assign_clusters(exposure)),
        cost=float(i),
        value_observed=0.5 * i,
        value_predicted=0.4 * i,
        n_auctions=10,
        n_wins=min(i, 10),
    )
    base.update(overrides)
    return base


def make_log(*users: dict, spec=RandomizationSpec(0, 0.3), **kwargs) -> RandomizedLog:
    """A log whose columns hold the given per-user rows, in order."""
    columns = {f: np.array([u[f] for u in users]) for f in COLUMNS} if users else {}
    return RandomizedLog(spec, tuple(u["user_id"] for u in users), **columns, **kwargs)


class TestInvariants:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValidationError, match="sigma"):
            RandomizationSpec(mu=0.0, sigma=0.0)

    @pytest.mark.parametrize("mu,sigma,message", [
        # 1e-200 squared rounds to 0, which every importance weight divides by
        (0.0, 1e-200, "sigma must have a finite square above 0"),
        (0.0, 5e-324, "sigma must have a finite square above 0"),
        (0.0, 1e200, "sigma must have a finite square above 0"),
        (0.0, -0.3, "randomization 'sigma' must be a finite number > 0, got -0.3"),
        # ln(theta) - mu overflowed the linear weight of every user
        (-1e308, 0.3, "mu must lie in (-744, 709)"),
        (709.5, 0.3, "mu must lie in (-744, 709)"),
    ])
    def test_spec_must_keep_the_weights_finite(self, mu, sigma, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            RandomizationSpec(mu, sigma)
        header = {**json.loads(TestReadErrors.HEADER), "mu": mu, "sigma": sigma}
        with pytest.raises(LogFormatError, match=re.escape(f"line 1: invalid header: {message}")):
            read_log(io.StringIO(json.dumps(header) + "\n"))
        RandomizationSpec(0.0, 2.0**-26)  # the least sigma at mu = 0
        RandomizationSpec(-743.0, 1e150)

    def test_spec_holds_floats(self):
        # numpy scalars are numbers too, and an int mu is written to a log header as 0.0
        spec = RandomizationSpec(0, np.float64(0.3))
        assert (type(spec.mu), type(spec.sigma)) == (float, float)
        buf = io.StringIO()
        write_log(RandomizedLog(spec, ()), buf)
        assert buf.getvalue() == '{"bucket_boundaries":[1,2,3,4,5],"mu":0.0,"schema":"impatience-log/1","sigma":0.3}\n'

    def test_theta_must_be_positive(self):
        with pytest.raises(ValidationError, match="theta"):
            make_log(make_user(1, theta=0.0))

    def test_wins_bounded_by_auctions(self):
        with pytest.raises(ValidationError, match="n_wins"):
            make_log(make_user(1, n_auctions=3, n_wins=4))

    def test_duplicate_user_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            make_log(make_user(1), make_user(1))

    def test_the_first_repeat_in_log_order_is_reported(self):
        # sorted, the repeated "a" comes first; in log order the repeated "b" does
        with pytest.raises(ValidationError) as info:
            make_log(*(make_user(i, user_id=uid) for i, uid in enumerate("bcba")))
        assert str(info.value) == "duplicate user_id 'b'" and info.value.user_index == 2

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["", "a", "a\x00", "b", "\u00e9", "x" * 20]), max_size=12))
    def test_first_occurrences_match_a_set(self, ids):
        seen, expected = set(), []
        for uid in ids:
            expected.append(uid not in seen)
            seen.add(uid)
        array = np.array(ids, dtype=domain._ID_DTYPE)
        assert domain._first_occurrences(array).tolist() == expected

    @pytest.mark.parametrize("user_id,message", [
        (7, "user_id must be a string, got 7"),
        (None, "user_id must be a string, got None"),
        ("\ud800", "user_id must be text that UTF-8 can encode, got '\\ud800'"),
    ])
    def test_user_id_must_be_a_string_that_utf8_encodes(self, user_id, message):
        # a non-string id was once held, and writing the log then raised a bare TypeError
        with pytest.raises(ValidationError) as info:
            make_log(make_user(0), make_user(1, user_id=user_id))
        assert str(info.value) == message and info.value.user_index == 1

    def test_user_ids_must_be_one_string_per_user(self):
        with pytest.raises(ValidationError, match=r"^user_ids must hold one string per user, got shape \(2, 1\)$"):
            make_log(make_user(0, user_id=["a"]), make_user(1, user_id=["b"]))

    def test_cluster_must_match_exposure(self):
        with pytest.raises(ValidationError, match="cluster"):
            make_log(make_user(1, cluster=3))

    def test_policy_cap_enforced(self):
        with pytest.raises(ValidationError, match="cap"):
            PolicySpec({0: 1.5}, cap_delta=0.2)
        PolicySpec({0: 1.2, 1: 0.8}, cap_delta=0.2)

    @pytest.mark.parametrize("multipliers,cap_delta,message", [
        ({"a": 1.0}, 0.2, "got 'a': 1.0"),
        ({-1: 1.0}, 0.2, "got -1: 1.0"),
        ({True: 1.0}, 0.2, "got True: 1.0"),
        ({0: "1.0"}, 0.2, "got 0: '1.0'"),
        ({0: True}, 0.2, "got 0: True"),
        ({0: float("nan")}, 0.2, "got 0: nan"),
        ({0: 1.0}, float("inf"), "policy 'cap_delta' must be a finite number in (0, 1), got inf"),
        ({0: 1.0}, "0.2", "policy 'cap_delta' must be a finite number in (0, 1), got '0.2'"),
    ])
    def test_policy_checks_every_field(self, multipliers, cap_delta, message):
        # a string key or multiplier once raised a bare TypeError, and a boolean multiplier read as 1.0
        with pytest.raises(ValidationError) as info:
            PolicySpec(multipliers, cap_delta)
        if not message.startswith("policy"):
            message = "multipliers must map integer clusters >= 0 to finite numbers, " + message
        assert str(info.value) == message

    def test_policy_holds_ints_and_floats(self):
        policy = PolicySpec({np.int64(2): np.float64(1.1), 0: 1}, cap_delta=np.float64(0.2))
        assert [(type(c), type(a)) for c, a in policy.multipliers.items()] == [(int, float)] * 2
        assert policy.multipliers == {2: 1.1, 0: 1.0}


class TestSigmaResolution:
    """sigma must be at least 2**-26 * max(1, |mu|): ln(theta) rounds in steps of about 2**-52,
    and ln(theta) - mu in steps of about 2**-52 * |mu|."""

    @pytest.mark.parametrize("mu", [0.0, 0.3, -1.0, -2.5, 700.0])
    def test_sigma_below_the_resolution_of_mu_is_an_error(self, mu):
        floor = 2.0**-26 * max(1.0, abs(mu))
        assert RandomizationSpec(mu, floor).sigma == floor
        with pytest.raises(ValidationError, match=re.escape("sigma must be at least 2**-26 * max(1, |mu|)")):
            RandomizationSpec(mu, math.nextafter(floor, 0.0))

    def test_rounding_noise_spec_is_an_error(self):
        # mu 0.3 with sigma 1e-155 once gave marginals a dcost of about 1.6e+295 and exit 0
        message = ("sigma must be at least 2**-26 * max(1, |mu|) = 1.49012e-08, or ln(theta) - mu rounds to "
                   "noise, got 1e-155")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            RandomizationSpec(0.3, 1e-155)
        header = {**json.loads(TestReadErrors.HEADER), "mu": 0.3, "sigma": 1e-155}
        with pytest.raises(LogFormatError, match=re.escape(f"line 1: invalid header: {message}")):
            read_log(io.StringIO(json.dumps(header) + "\n"))

    @pytest.mark.parametrize("sigma", [1e-15, 1e-150])
    def test_the_rule_has_a_floor_near_mu_0(self, sigma):
        # mu 0 with sigma 1e-15 once passed, and marginals gave a dcost of 5.66e+15 with exit 0
        with pytest.raises(ValidationError, match=re.escape("at least 2**-26 * max(1, |mu|) = 1.49012e-08")):
            RandomizationSpec(0.0, sigma)


def four_users(**bad) -> list[dict]:
    """Users u0..u3 (exposures 0, 1, 2, 3) with the overrides in `bad` on u2."""
    users = [make_user(i) for i in range(4)]
    users[2].update(bad)
    return users


class TestColumnValidation:
    @pytest.mark.parametrize(
        "bad,message",
        [
            (dict(theta=0.0), "user u2: theta must be finite and > 0, got 0.0"),
            (dict(theta=-1.5), "user u2: theta must be finite and > 0, got -1.5"),
            (dict(theta=float("nan")), "user u2: theta must be finite and > 0, got nan"),
            (dict(theta=float("inf")), "user u2: theta must be finite and > 0, got inf"),
            (dict(exposure_at_start=-1, cluster=0), "user u2: exposure_at_start must be >= 0"),
            (dict(cost=-1.0), "user u2: cost must be finite and >= 0, got -1.0"),
            (dict(cost=float("nan")), "user u2: cost must be finite and >= 0, got nan"),
            (dict(value_observed=float("inf")), "user u2: value_observed must be finite and >= 0, got inf"),
            (dict(value_observed=-0.5), "user u2: value_observed must be finite and >= 0, got -0.5"),
            (dict(value_predicted=float("nan")), "user u2: value_predicted must be finite and >= 0, got nan"),
            (dict(value_predicted=-2.0), "user u2: value_predicted must be finite and >= 0, got -2.0"),
            (dict(n_wins=11), "user u2: need 0 <= n_wins <= n_auctions, got n_wins=11, n_auctions=10"),
            (dict(n_wins=-1), "user u2: need 0 <= n_wins <= n_auctions, got n_wins=-1, n_auctions=10"),
            (dict(cluster=3), "user u2: cluster 3 inconsistent with exposure_at_start 2 (expected 2)"),
            (dict(user_id="u0"), "duplicate user_id 'u0'"),
        ],
    )
    def test_rule_names_first_offending_user(self, bad, message):
        with pytest.raises(ValidationError) as info:
            make_log(*four_users(**bad))
        assert str(info.value) == message
        assert info.value.user_index == 2

    def test_first_offending_user_wins_over_rule_order(self):
        users = four_users(theta=0.0)
        users[1]["cost"] = -1.0
        users[3]["theta"] = 0.0
        with pytest.raises(ValidationError, match="user u1: cost") as info:
            make_log(*users)
        assert info.value.user_index == 1

    def test_earlier_rule_wins_for_one_user(self):
        with pytest.raises(ValidationError, match="user u2: theta") as info:
            make_log(*four_users(theta=0.0, cost=-1.0, n_wins=11))
        assert info.value.user_index == 2

    def test_per_user_rules_come_before_rules_across_users(self):
        # as when reading a file: a bad row anywhere is reported before a
        # duplicate id or a cluster mismatch on an earlier user
        users = four_users(n_wins=11)
        users[1]["user_id"] = "u0"
        with pytest.raises(ValidationError, match="n_wins") as info:
            make_log(*users)
        assert info.value.user_index == 2

    @pytest.mark.parametrize("name", ["exposure_at_start", "cluster", "n_auctions", "n_wins"])
    @pytest.mark.parametrize("dtype", [np.float64, np.uint64])
    def test_count_columns_must_hold_int64(self, name, dtype):
        columns = {f: np.array([make_user(i)[f] for i in range(4)]) for f in COLUMNS}
        columns[name] = columns[name].astype(dtype)
        match = f"column {name} cannot be held as int64, got dtype {np.dtype(dtype)}"
        with pytest.raises(ValidationError, match=match) as info:
            RandomizedLog(RandomizationSpec(0, 0.3), ("u0", "u1", "u2", "u3"), **columns)
        assert info.value.user_index is None

    def test_empty_columns_of_any_dtype_make_the_empty_log(self):
        columns = {f: np.array([], dtype=np.float64) for f in COLUMNS}
        log = RandomizedLog(RandomizationSpec(0, 0.3), (), **columns)
        assert log == RandomizedLog(RandomizationSpec(0, 0.3), ())
        assert log.n_wins.dtype == np.int64

    @pytest.mark.parametrize("values", [["a", "b"], np.array([1.0, 2.0], dtype=object)])
    def test_value_columns_must_hold_numbers(self, values):
        with pytest.raises(ValidationError, match="column theta cannot be held as float64"):
            RandomizedLog(RandomizationSpec(0, 0.3), ("u0", "u1"), theta=values)

    def test_columns_must_hold_one_value_per_user(self):
        users = four_users()
        columns = {f: np.array([u[f] for u in users]) for f in COLUMNS}
        columns["cost"] = columns["cost"][:3]
        with pytest.raises(ValidationError, match=r"column cost must hold one value per user \(4\), got shape \(3,\)"):
            RandomizedLog(RandomizationSpec(0, 0.3), ("u0", "u1", "u2", "u3"), **columns)
        with pytest.raises(ValidationError, match="column theta"):
            RandomizedLog(RandomizationSpec(0, 0.3), ("u0",))

    def test_columns_are_read_only_copies_with_fixed_dtypes(self):
        users = four_users()
        columns = {f: np.array([u[f] for u in users]) for f in COLUMNS}
        columns["n_wins"] = columns["n_wins"].astype(np.int32)
        columns["theta"] = columns["theta"].astype(np.float32)
        log = RandomizedLog(RandomizationSpec(0, 0.3), ("u0", "u1", "u2", "u3"), **columns)
        assert log.n_wins.dtype == np.int64 and log.theta.dtype == np.float64
        columns["cost"][0] = 99.0
        assert log.cost[0] == 0.0
        with pytest.raises(ValueError):
            log.cost[0] = 1.0
        assert all(log.arrays[f] is getattr(log, f) for f in COLUMNS)

    def test_arrays_is_a_cached_property(self):
        # the benchmark's tracer wraps `RandomizedLog.__dict__["arrays"].func`
        from functools import cached_property

        assert isinstance(RandomizedLog.__dict__["arrays"], cached_property)
        log = make_log(*four_users())
        assert log.arrays is log.arrays

    def test_equality_compares_every_column(self):
        log = make_log(*four_users())
        assert log == make_log(*four_users())
        assert log != make_log(*four_users(cost=2.5))
        assert log != make_log(*four_users(user_id="x"))
        assert log != make_log(*four_users(), spec=RandomizationSpec(0, 0.4))


class TestAtomicWrite:
    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "log.jsonl")
        write_log(make_log(*four_users()), path)
        before = pathlib.Path(path).read_bytes()
        writes = []

        def open_failing_on_second_block(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write

            def failing_write(text):
                writes.append(text)
                if len(writes) == 3:  # the header, block 1, then block 2
                    raise RuntimeError("write failed")
                return write(text)

            fh.write = failing_write
            return fh

        monkeypatch.setattr(domain, "_BLOCK", 2)
        monkeypatch.setattr(domain, "open", open_failing_on_second_block, raising=False)
        with pytest.raises(RuntimeError, match="write failed"):
            write_log(make_log(*four_users(cost=7.0)), path)
        assert [text.count("\n") for text in writes] == [1, 2, 2]  # block 1 reached the file
        assert pathlib.Path(path).read_bytes() == before
        assert os.listdir(tmp_path) == ["log.jsonl"]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        path = str(tmp_path / "out.txt")
        with pytest.raises(RuntimeError):
            with domain.atomic_write(path) as fh:
                fh.write("partial")
                raise RuntimeError
        assert os.listdir(tmp_path) == []

    def test_write_replaces_file(self, tmp_path):
        path = str(tmp_path / "out.txt")
        for text in ("first\n", "second\n"):
            with domain.atomic_write(path) as fh:
                fh.write(text)
        assert pathlib.Path(path).read_text() == "second\n"
        assert os.listdir(tmp_path) == ["out.txt"]


class TestClusterAssignment:
    @pytest.mark.parametrize(
        "exposure,expected",
        [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 5), (40, 5)],
    )
    def test_default_buckets(self, exposure, expected):
        assert assign_clusters(exposure) == expected
        assert assign_clusters(np.array([exposure])).tolist() == [expected]

    def test_custom_boundaries(self):
        assert assign_clusters(np.array([0, 1, 2, 9, 10, 11]), (2, 10)).tolist() == [0, 0, 1, 1, 2, 2]

    def test_deterministic(self):
        exposures = np.arange(20)
        np.testing.assert_array_equal(assign_clusters(exposures), assign_clusters(exposures))


class TestRoundTrip:
    def test_empty_log_is_header_only(self):
        log = RandomizedLog(RandomizationSpec(0.0, 0.3), ())
        buf = io.StringIO()
        write_log(log, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 1
        assert SCHEMA_VERSION in lines[0]
        buf.seek(0)
        assert read_log(buf) == log

    def test_single_user(self):
        log = make_log(make_user(3), spec=RandomizationSpec(0.1, 0.5))
        buf = io.StringIO()
        write_log(log, buf)
        assert len(buf.getvalue().splitlines()) == 2
        buf.seek(0)
        assert read_log(buf) == log

    def test_large_simulated_log_field_for_field(self):
        from impatience import default_config, default_randomization, simulate_log

        log = simulate_log(default_config(3000), default_randomization(), seed=7)
        assert roundtrip(log) == log

    @settings(max_examples=40, deadline=None)
    @given(
        mu=st.floats(-2, 2),
        sigma=st.floats(0.05, 2),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 30),
    )
    def test_roundtrip_is_identity(self, mu, sigma, seed, n):
        rng = np.random.default_rng(seed)
        users = []
        for i in range(n):
            exposure = int(rng.integers(0, 12))
            auctions = int(rng.integers(0, 40))
            users.append(
                dict(
                    user_id=f"u{i}",
                    theta=float(rng.lognormal(mu, sigma)),
                    exposure_at_start=exposure,
                    cluster=int(assign_clusters(exposure)),
                    cost=float(rng.exponential(2.0)),
                    value_observed=float(rng.exponential(1.0)),
                    value_predicted=float(rng.exponential(1.0)),
                    n_auctions=auctions,
                    n_wins=int(rng.integers(0, auctions + 1)),
                )
            )
        log = make_log(*users, spec=RandomizationSpec(mu, sigma))
        assert roundtrip(log) == log


def same_bits(rows_a, rows_b) -> bool:
    """Equal rows whose floats have the same bits: `repr` tells -0.0 from 0.0."""
    return rows_a == rows_b and repr(rows_a) == repr(rows_b)


class TestFileRoundTrips:
    """Each file the CLI writes and reads again reads back as the record it was written from."""

    ROWS = [
        ClusterRow(0, 120, 3.5, 7.25, 7.25 / 3.5, (1.0, 6.0), (-0.0, 9.5), (0.1, 3.0)),
        ClusterRow(1, 0, 0.0, -0.0, None),  # an undefined mROI and no intervals
        ClusterRow(2, None, -1e-300, 2.2250738585072014e-308, None, (-5e-324, 1e308), (0.0, 1.0), (-2.5, 4.0)),
        ClusterRow(12, 7, 0.1 + 0.2, 1 / 3, (1 / 3) / (0.1 + 0.2), (0.25, 0.5), (0.125, 0.75), None),
    ]

    def test_marginals_rows_read_back_bit_for_bit(self, tmp_path):
        path = str(tmp_path / "marginals.csv")
        domain.write_marginals(path, self.ROWS, {"log_sha256": "ab12", "seed": 3})
        rows, provenance = domain.read_marginals(path)
        assert same_bits(rows, self.ROWS)
        assert provenance == {"tool": domain.TOOL, "log_sha256": "ab12", "seed": "3"}

    def test_estimated_marginals_read_back_bit_for_bit(self, tmp_path):
        from impatience import cluster_estimates, default_config, default_randomization, simulate_log

        # no user starts at an exposure of 50 or more, so the last cluster's mROI is undefined
        log = simulate_log(default_config(300), default_randomization(), 2, DEFAULT_BUCKETS + (50,))
        rows = cluster_estimates(log, 100, seed=1)
        assert not all(row.defined for row in rows)
        path = str(tmp_path / "marginals.csv")
        domain.write_marginals(path, rows, {})
        assert same_bits(domain.read_marginals(path)[0], rows)

    @settings(max_examples=40, deadline=None)
    @given(cap=st.floats(1e-6, 0.999), moves=st.lists(st.floats(-1, 1), max_size=12))
    def test_policy_reads_back_equal(self, tmp_path_factory, cap, moves):
        policy = PolicySpec({3 * c: 1 + cap * move for c, move in enumerate(moves)}, cap)
        path = str(tmp_path_factory.mktemp("policy") / "policy.json")
        domain.write_policy(path, policy, {"marginals_sha256": "cd34"}, "a diagnostic")
        back = domain.read_policy(path)
        assert back == policy  # the file lists clusters in key order: compare the multipliers' bits in one order
        assert repr(sorted(back.multipliers.items())) == repr(sorted(policy.multipliers.items()))
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["provenance"] == {"marginals_sha256": "cd34", "tool": domain.TOOL}
        assert doc["diagnostic"] == "a diagnostic"


class TestReadersHashWhatTheyParse:
    """A reader given a path opens it once, parses it as `open(path)` gives its text, and records
    the sha256 of the bytes it read."""

    def write_crlf(self, path, text: str) -> str:
        path.write_bytes(text.replace("\n", "\r\n").encode())
        return str(path)

    def test_log_of_many_chunks(self, tmp_path):
        log = make_log(*(make_user(i) for i in range(3000)))
        buf = io.StringIO()
        write_log(log, buf)
        path = self.write_crlf(tmp_path / "log.jsonl", buf.getvalue())
        assert os.path.getsize(path) > 8 * io.DEFAULT_BUFFER_SIZE
        provenance = {"seed": 1}
        assert read_log(path, provenance) == log
        assert provenance == {"seed": 1, "log_sha256": hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()}

    def test_config_policy_and_marginals(self, tmp_path):
        policy = PolicySpec({0: 1.1, 2: 0.9}, 0.2)
        domain.write_policy(str(tmp_path / "policy.json"), policy, {})
        domain.write_marginals(str(tmp_path / "marginals.csv"), TestFileRoundTrips.ROWS, {"seed": 3})
        paths = {name: self.write_crlf(tmp_path / f"crlf-{name}", (tmp_path / name).read_text())
                 for name in ("policy.json", "marginals.csv")}
        paths["config.json"] = self.write_crlf(tmp_path / "config.json", '{\n  "seed": 4\n}\n')
        provenance = {}
        assert domain.read_json(paths["config.json"], "config", provenance) == {"seed": 4}
        assert domain.read_policy(paths["policy.json"], provenance) == policy
        rows, upstream = domain.read_marginals(paths["marginals.csv"], provenance)
        assert same_bits(rows, TestFileRoundTrips.ROWS) and upstream == {"tool": domain.TOOL, "seed": "3"}
        digests = {name: hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest() for name, path in paths.items()}
        assert provenance == {"config_sha256": digests["config.json"], "policy_sha256": digests["policy.json"],
                              "marginals_sha256": digests["marginals.csv"]}


class TestReadErrors:
    HEADER = (
        '{"bucket_boundaries":[1,2,3,4,5],"mu":0.0,"schema":"impatience-log/1","sigma":0.3}'
    )

    def test_nonpositive_theta_names_field_and_line(self):
        bad = (
            '{"user_id":"a","theta":0.0,"exposure_at_start":0,"cluster":0,"cost":1.0,'
            '"value_observed":0.0,"value_predicted":0.0,"n_auctions":1,"n_wins":0}'
        )
        with pytest.raises(LogFormatError, match="line 2.*theta"):
            read_log(io.StringIO(self.HEADER + "\n" + bad + "\n"))

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(LogFormatError, match="line 2"):
            read_log(io.StringIO(self.HEADER + "\n{not json\n"))

    def test_missing_fields_rejected(self):
        with pytest.raises(LogFormatError, match="missing fields"):
            read_log(io.StringIO(self.HEADER + '\n{"user_id":"a"}\n'))

    def test_wrong_schema_rejected(self):
        with pytest.raises(LogFormatError, match="schema"):
            read_log(io.StringIO('{"schema":"other/9","mu":0,"sigma":1,"bucket_boundaries":[1]}\n'))

    def test_empty_file_rejected(self):
        with pytest.raises(LogFormatError, match="header"):
            read_log(io.StringIO(""))

    @pytest.mark.parametrize("key,value", [("mu", "0.5"), ("sigma", True), ("sigma", None), ("mu", float("nan")),
                                           ("mu", True)])
    def test_header_mu_and_sigma_must_be_numbers(self, key, value):
        header = {**json.loads(self.HEADER), key: value}
        message = f"randomization '{key}' must be a finite number"
        with pytest.raises(LogFormatError, match=f"line 1: invalid header: {message}"):
            read_log(io.StringIO(json.dumps(header) + "\n"))
        # the same rule holds for a spec built in code
        with pytest.raises(ValidationError, match=message):
            RandomizationSpec(**{"mu": 0.0, "sigma": 0.3, key: value})


class TestReadInputHoles:
    """Values `read_log` used to accept or let escape as bare exceptions."""

    HEADER = TestReadErrors.HEADER

    def user_line(self, **overrides) -> str:
        raw = dict(user_id="a", theta=1.0, exposure_at_start=0, cluster=0, cost=1.0,
                   value_observed=0.5, value_predicted=0.5, n_auctions=3, n_wins=1)
        raw.update(overrides)
        return json.dumps(raw)  # writes NaN/Infinity literals, which json.loads accepts

    def read(self, line: str) -> RandomizedLog:
        return read_log(io.StringIO(self.HEADER + "\n" + self.user_line(user_id="ok") + "\n" + line + "\n"))

    @pytest.mark.parametrize("field", ["theta", "cost", "value_observed", "value_predicted"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(LogFormatError, match=f"line 3.*{field}"):
            self.read(self.user_line(**{field: value}))

    @pytest.mark.parametrize("field", ["exposure_at_start", "cluster", "n_auctions", "n_wins"])
    def test_fractional_counts_not_truncated(self, field):
        with pytest.raises(LogFormatError, match=f"line 3.*{field}"):
            self.read(self.user_line(**{field: 0.7 if field != "n_auctions" else 3.7}))

    @pytest.mark.parametrize("field,value", [("cost", "abc"), ("theta", None), ("n_wins", True)])
    def test_non_numeric_values_report_line(self, field, value):
        with pytest.raises(LogFormatError, match=f"line 3.*{field}"):
            self.read(self.user_line(**{field: value}))

    def test_negative_bucket_boundaries_rejected(self):
        header = self.HEADER.replace("[1,2,3,4,5]", "[-1,2]")
        with pytest.raises(LogFormatError, match="line 1.*non-negative"):
            read_log(io.StringIO(header + "\n"))
        with pytest.raises(ValidationError, match="non-negative"):
            RandomizedLog(RandomizationSpec(0, 0.3), (), bucket_boundaries=(-1, 2))

    def test_fractional_bucket_boundaries_rejected(self):
        header = self.HEADER.replace("[1,2,3,4,5]", "[1.5,2]")
        with pytest.raises(LogFormatError, match="line 1.*integers"):
            read_log(io.StringIO(header + "\n"))

    @pytest.mark.parametrize("boundaries", ["[]", "[2,1]", "[1,1]", '"12"', "null"])
    def test_header_boundaries_follow_the_log_rule(self, boundaries):
        # the header is checked before the malformed user line after it is read
        header = self.HEADER.replace("[1,2,3,4,5]", boundaries)
        with pytest.raises(LogFormatError) as info:
            read_log(io.StringIO(header + "\nnot json\n"))
        rule = "log 'bucket_boundaries' must be a list of integers: non-empty, non-negative and strictly increasing"
        assert str(info.value) == f"line 1: invalid header: {rule}, got {json.loads(boundaries)!r}"
        with pytest.raises(ValidationError) as info:
            RandomizedLog(RandomizationSpec(0, 0.3), (), bucket_boundaries=json.loads(boundaries))
        assert str(info.value).startswith(rule)

    @pytest.mark.parametrize("line", ["5", "null", '"text"'])
    def test_non_object_lines_rejected(self, line):
        with pytest.raises(LogFormatError, match="line 3.*JSON object"):
            self.read(line)
        with pytest.raises(LogFormatError, match="line 1.*JSON object"):
            read_log(io.StringIO(line + "\n"))

    def test_duplicate_user_id_names_its_line(self):
        # the blank line makes the line number differ from the user's index + 2
        text = "\n".join([self.HEADER, self.user_line(user_id="a"), "",
                          self.user_line(user_id="b"), self.user_line(user_id="a")])
        with pytest.raises(LogFormatError, match="line 5: duplicate user_id 'a'"):
            read_log(io.StringIO(text + "\n"))

    def test_cluster_inconsistent_with_exposure_names_its_line(self):
        text = "\n".join([self.HEADER, self.user_line(user_id="a"), "",
                          self.user_line(user_id="b", exposure_at_start=3, cluster=1)])
        with pytest.raises(LogFormatError, match="line 4: user b: cluster 1 inconsistent"):
            read_log(io.StringIO(text + "\n"))

    @pytest.mark.parametrize("value", [None, True, 1.5, [1, 2], {"a": 1}, float("inf")],
                             ids=["null", "true", "fraction", "array", "object", "overflow"])
    def test_user_id_must_be_a_string_or_an_integer(self, value):
        # each was once read as the text Python's `str` gives it, so a null id was user "None"
        with pytest.raises(LogFormatError) as info:
            self.read(self.user_line(user_id=value).replace("Infinity", "1e400"))
        assert str(info.value) == f"line 3: user_id must be a string or an integer, got {value!r}"

    @pytest.mark.parametrize("extra", [{}, {"extra": 1}], ids=["block", "per_line"])
    def test_integer_user_id_is_its_decimal_text(self, extra):
        log = self.read(self.user_line(user_id=7, **extra))
        assert log.user_ids.tolist() == ["ok", "7"]
        with pytest.raises(LogFormatError, match="line 4: duplicate user_id '7'"):
            read_log(io.StringIO("\n".join([self.HEADER, self.user_line(user_id="7"),
                                            self.user_line(user_id=3), self.user_line(user_id=7, **extra)])))

    @pytest.mark.parametrize("extra", [{}, {"extra": 1}], ids=["block", "per_line"])
    def test_lone_surrogate_user_id_names_its_line(self, extra):
        # json reads the escape "\\ud800" as a lone surrogate, which UTF-8 cannot encode
        with pytest.raises(LogFormatError) as info:
            self.read(self.user_line(user_id="\ud800", **extra))
        assert str(info.value) == "line 3: user_id must be text that UTF-8 can encode, got '\\ud800'"

    def test_ids_apart_by_a_nul_a_byte_or_their_length_are_distinct_users(self):
        ids = ["a", "a\x00", "\u00e9", 7, "x" * 40]
        log = read_log(io.StringIO("\n".join([self.HEADER, *(self.user_line(user_id=u) for u in ids)]) + "\n"))
        assert log.user_ids.tolist() == ["a", "a\x00", "\u00e9", "7", "x" * 40]
        written = io.StringIO()
        write_log(log, written)
        again = io.StringIO()
        write_log(read_log(io.StringIO(written.getvalue())), again)
        assert again.getvalue() == written.getvalue()

    @pytest.mark.parametrize("field,value", [("n_auctions", 10**30), ("cost", 10**400)])
    def test_out_of_range_numbers_name_their_line(self, field, value):
        with pytest.raises(LogFormatError, match=f"line 3: {field} is out of range"):
            self.read(self.user_line(**{field: value}))


def reference_text(log: RandomizedLog) -> str:
    """The log with one sorted-key JSON encoder call per line: the bytes the row template must match."""
    to_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    header = {"schema": SCHEMA_VERSION, "mu": log.spec.mu, "sigma": log.spec.sigma,
              "bucket_boundaries": list(log.bucket_boundaries)}
    lines = [to_json(header)]
    columns = [log.arrays[f].tolist() for f in COLUMNS]
    for user_id, *values in zip(log.user_ids, *columns):
        lines.append(to_json(dict(zip(COLUMNS, values), user_id=user_id)))
    return "".join(line + "\n" for line in lines)


def block_log(n: int) -> RandomizedLog:
    """n users with awkward ids and extreme values, cycling through them."""
    suffixes = ("", '"q', "back\\slash", "\u00e9t\u00e9", "\u2603\U0001f600", "\t")
    users = []
    for i in range(n):
        user = make_user(i, user_id=f"u{i}{suffixes[i % len(suffixes)]}", theta=0.5 + (i % 13) / 7)
        extreme = i % 5
        if extreme == 1:
            user.update(cost=-0.0, theta=5e-324)
        elif extreme == 2:
            user.update(value_observed=1e16, value_predicted=0.1)
        elif extreme == 3:
            user.update(n_auctions=np.iinfo(np.int64).max)
        users.append(user)
    return make_log(*users)


def repeating_log(n: int) -> RandomizedLog:
    """n users whose values repeat within and across blocks, mixing 0.0 and -0.0."""
    return make_log(*(
        make_user(
            i,
            theta=(0.1, 0.3, 2.0)[i % 3],
            cost=(-0.0, 0.0, 1.5, 0.0)[i % 4],
            value_observed=(0.0, -0.0)[i % 2],
            value_predicted=0.3 * (i % 5),
            n_auctions=i % 3 + 10,
        )
        for i in range(n)
    ))


B = domain._BLOCK


class TestLogMemory:
    def test_read_log_bytes_per_user(self, tmp_path):
        # the slope of the traced peak between two log sizes, so that a block's fixed working
        # set cancels: 80 B per user are the columns and ids that the log holds. One str per
        # id, a set of them for the duplicate check and two more copies of every column made
        # it 342 B per user
        small = tmp_path / "small.jsonl"
        write_log(simulate_log(default_config(2000), RandomizationSpec(0, 0.3), 1), str(small))
        read_log(str(small))  # first-call work
        peaks = {}
        for n in (10_000, 40_000):
            path = tmp_path / f"{n}.jsonl"
            write_log(simulate_log(default_config(n), RandomizationSpec(0, 0.3), 0), str(path))
            tracemalloc.start()
            try:
                read_log(str(path))
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[40_000] - peaks[10_000]) / 30_000 < 140


class TestBlockIO:
    """The row-template writer and the block-parsed reader against the per-line format."""

    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 1])
    def test_writer_matches_json_encoder_bytes(self, n):
        for log in (block_log(n), repeating_log(n)):
            buf = io.StringIO()
            write_log(log, buf)
            assert buf.getvalue() == reference_text(log)
            buf.seek(0)
            assert read_log(buf) == log

    def lines(self, log: RandomizedLog) -> list[str]:
        return reference_text(log).splitlines(keepends=True)

    def test_ids_longer_than_an_inline_string_round_trip_over_blocks(self):
        # an id of more than 15 UTF-8 bytes is held outside the array's 16 B element
        log = make_log(*(make_user(i, user_id="\u00e9" * 12 + str(i)) for i in range(2 * B + 1)))
        assert roundtrip(log) == log

    @pytest.mark.parametrize("user", [1, B + 1])
    @pytest.mark.parametrize("variant", ["extra_key", "reordered_keys", "int_theta", "number_id", "whitespace"])
    def test_valid_non_canonical_lines_read_as_before(self, user, variant):
        users = [make_user(i) for i in range(B + 2)]
        users[user].update(theta=2.0, user_id="7")
        log = make_log(*users)
        lines = self.lines(log)
        row = json.loads(lines[user + 1])
        lines[user + 1] = {
            "extra_key": lines[user + 1][:-2] + ',"extra":[1,{"a":null}]}\n',
            "reordered_keys": json.dumps(dict(reversed(row.items()))) + "\n",
            "int_theta": lines[user + 1].replace('"theta":2.0', '"theta":2'),
            "number_id": lines[user + 1].replace('"user_id":"7"', '"user_id":7'),  # read as str(7)
            "whitespace": " \t" + lines[user + 1][:-1] + "  \n",
        }[variant]
        assert lines[user + 1] != self.lines(log)[user + 1]
        assert read_log(io.StringIO("".join(lines))) == log

    def test_file_without_trailing_newline_reads_as_before(self):
        log = block_log(B + 1)
        text = reference_text(log)
        assert read_log(io.StringIO(text.rstrip("\n"))) == log

    def test_blank_lines_keep_line_numbers(self):
        lines = self.lines(make_log(*(make_user(i) for i in range(B + 2))))
        lines[B + 2] = re.sub(r'"n_wins":\d+', '"n_wins":true', lines[B + 2])
        text = "".join(lines[:3]) + "\n  \t\n" * (B // 2) + "".join(lines[3:])  # B blank lines
        with pytest.raises(LogFormatError) as info:
            read_log(io.StringIO(text))
        assert str(info.value) == f"line {2 * B + 3}: n_wins must be an integer, got True"
        # 2B blank lines after line 3: the block of lines B + 2 to 2B + 1 holds no user
        text = "".join(lines[:3]) + "\n" * (2 * B) + "".join(lines[3:])
        with pytest.raises(LogFormatError) as info:
            read_log(io.StringIO(text))
        assert str(info.value) == f"line {3 * B + 3}: n_wins must be an integer, got True"

    @pytest.mark.parametrize(
        "row_end,cut",
        [
            ("}", ',"theta"'),  # between two fields
            ("}", '{v"'),  # inside the id "u0}{v": both halves open and close an object
            (',"x":[{},{}]}', ",{}]"),  # inside an extra key's array: the same
        ],
    )
    def test_row_split_over_two_lines_is_rejected_per_line(self, row_end, cut):
        users = [make_user(i) for i in range(3)]
        users[0]["user_id"] = "u0}{v"
        lines = self.lines(make_log(*users))
        row = lines[1][:-2] + row_end
        at = row.index(cut)
        first, second = row[:at], row[at + cut.startswith(","):]
        # the split row and a line holding two rows: three lines, three rows
        lines[1:4] = [first + "\n", second + "\n", lines[2][:-1] + "," + lines[3]]
        assert len(json.loads("[" + ",".join(line.strip() for line in lines[1:]) + "]")) == 3
        with pytest.raises(json.JSONDecodeError) as parse:
            json.loads(first)
        with pytest.raises(LogFormatError) as info:
            read_log(io.StringIO("".join(lines)))
        assert str(info.value) == f"line 2: malformed user line: {parse.value}"

    @pytest.mark.parametrize(
        "fault,message",
        [
            (lambda line: re.sub(r'"n_wins":\d+', '"n_wins":true', line), "n_wins must be an integer, got True"),
            (lambda line: re.sub(r'"cost":[^,]+', '"cost":"abc"', line), "cost must be a number, got 'abc'"),
            (lambda line: line.replace(',"theta":', ',"x":'), "missing fields ['theta']"),
            (lambda line: "[" + line[:-1] + "]\n", "user line must be a JSON object"),
            (lambda line: line[:-1] + "," + line, None),  # two rows on one line
            (lambda line: "{not json\n", None),
            (lambda line: line.replace('"cost":', '"cost":1.0,"cost":'), "malformed user line: repeated key 'cost'"),
        ],
    )
    def test_fault_in_second_block_names_its_line(self, fault, message):
        lines = self.lines(make_log(*(make_user(i) for i in range(2 * B))))
        lines[B + 5] = fault(lines[B + 5])
        if message is None:
            with pytest.raises(json.JSONDecodeError) as parse:
                json.loads(lines[B + 5])
            message = f"malformed user line: {parse.value}"
        with pytest.raises(LogFormatError) as info:
            read_log(io.StringIO("".join(lines)))
        assert str(info.value) == f"line {B + 6}: {message}"

    def test_ids_holding_colons_read_as_before(self):
        # a colon inside a string takes the block to the per-line checks, which accept it
        log = make_log(*(make_user(i, user_id=f"u:{i}") for i in range(B + 2)))
        assert read_log(io.StringIO(reference_text(log))) == log

    def test_too_deeply_nested_line_names_its_line(self):
        line = '{"a":' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(LogFormatError, match="line 3: malformed user line: maximum recursion depth"):
            read_log(io.StringIO("".join(self.lines(make_log(make_user(0)))) + line + "\n"))

    def test_faults_are_reported_in_file_order(self):
        lines = self.lines(make_log(*(make_user(i) for i in range(2 * B))))
        # a number out of range in the first block comes before a syntax fault in the second
        lines[2] = lines[2].replace('"n_auctions":10', f'"n_auctions":{10**30}')
        lines[B + 5] = "{not json\n"
        with pytest.raises(LogFormatError, match=f"line 3: n_auctions is out of range, got {10**30}$"):
            read_log(io.StringIO("".join(lines)))
        # and before a number out of range in an earlier column on a later line of its block
        lines[B + 5] = lines[B + 4]
        lines[5] = re.sub(r'"cost":[^,]+', f'"cost":{10**400}', lines[5])
        with pytest.raises(LogFormatError, match="line 3: n_auctions is out of range"):
            read_log(io.StringIO("".join(lines)))
        lines[2] = lines[3]
        with pytest.raises(LogFormatError, match="line 6: cost is out of range"):
            read_log(io.StringIO("".join(lines)))
        # a number out of range comes before an id that UTF-8 cannot encode on a later line of its block
        lines = self.lines(make_log(*(make_user(i) for i in range(3))))
        lines[1] = lines[1].replace('"n_auctions":10', f'"n_auctions":{10**20}')
        lines[2] = lines[2].replace('"user_id":"u1"', '"user_id":"\\ud800"')
        with pytest.raises(LogFormatError, match=f"line 2: n_auctions is out of range, got {10**20}$"):
            read_log(io.StringIO("".join(lines)))
        lines[1] = lines[3]
        with pytest.raises(LogFormatError, match="line 3: user_id must be text that UTF-8 can encode"):
            read_log(io.StringIO("".join(lines)))
