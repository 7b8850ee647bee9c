import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impatience import (
    DEFAULT_BUCKETS,
    LogFormatError,
    PolicySpec,
    RandomizationSpec,
    RandomizedLog,
    UserRecord,
    ValidationError,
    assign_cluster,
    read_log,
    write_log,
)
from impatience.domain import SCHEMA_VERSION


def roundtrip(log: RandomizedLog) -> RandomizedLog:
    buf = io.StringIO()
    write_log(log, buf)
    buf.seek(0)
    return read_log(buf)


def make_user(i: int, **overrides) -> UserRecord:
    exposure = overrides.pop("exposure_at_start", i % 7)
    base = dict(
        user_id=f"u{i}",
        theta=0.5 + 0.1 * i,
        exposure_at_start=exposure,
        cluster=assign_cluster(exposure),
        cost=float(i),
        value_observed=0.5 * i,
        value_predicted=0.4 * i,
        n_auctions=10,
        n_wins=min(i, 10),
    )
    base.update(overrides)
    return UserRecord(**base)


class TestInvariants:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValidationError, match="sigma"):
            RandomizationSpec(mu=0.0, sigma=0.0)

    def test_theta_must_be_positive(self):
        with pytest.raises(ValidationError, match="theta"):
            make_user(1, theta=0.0)

    def test_wins_bounded_by_auctions(self):
        with pytest.raises(ValidationError, match="n_wins"):
            make_user(1, n_auctions=3, n_wins=4)

    def test_duplicate_user_ids_rejected(self):
        users = (make_user(1), make_user(1))
        with pytest.raises(ValidationError, match="duplicate"):
            RandomizedLog(RandomizationSpec(0, 0.3), users)

    def test_cluster_must_match_exposure(self):
        with pytest.raises(ValidationError, match="cluster"):
            RandomizedLog(RandomizationSpec(0, 0.3), (make_user(1, cluster=3),))

    def test_policy_cap_enforced(self):
        with pytest.raises(ValidationError, match="cap"):
            PolicySpec({0: 1.5}, cap_delta=0.2)
        PolicySpec({0: 1.2, 1: 0.8}, cap_delta=0.2)


class TestClusterAssignment:
    @pytest.mark.parametrize(
        "exposure,expected",
        [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 5), (40, 5)],
    )
    def test_default_buckets(self, exposure, expected):
        assert assign_cluster(exposure) == expected

    def test_custom_boundaries(self):
        assert assign_cluster(0, (2, 10)) == 0
        assert assign_cluster(2, (2, 10)) == 1
        assert assign_cluster(10, (2, 10)) == 2

    def test_deterministic(self):
        assert all(assign_cluster(k) == assign_cluster(k) for k in range(20))


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
        log = RandomizedLog(RandomizationSpec(0.1, 0.5), (make_user(3),))
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
                UserRecord(
                    user_id=f"u{i}",
                    theta=float(rng.lognormal(mu, sigma)),
                    exposure_at_start=exposure,
                    cluster=assign_cluster(exposure),
                    cost=float(rng.exponential(2.0)),
                    value_observed=float(rng.exponential(1.0)),
                    value_predicted=float(rng.exponential(1.0)),
                    n_auctions=auctions,
                    n_wins=int(rng.integers(0, auctions + 1)),
                )
            )
        log = RandomizedLog(RandomizationSpec(mu, sigma), tuple(users))
        assert roundtrip(log) == log


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
