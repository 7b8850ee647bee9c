"""Properties of the log codec: the block writer against one JSON encoder call per user,
the block reader against the per-line reader over drawn logs, and the first faulty line
named on both paths."""

import io
import json
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from impatience import LogFormatError, RandomizationSpec, RandomizedLog, assign_clusters, read_log, write_log
from impatience import domain

INT64_MAX = int(np.iinfo(np.int64).max)
#: Floats at the edges of the format: subnormals, the least normal, the largest float,
#: and both sides of the points where `repr` switches to exponent notation (1e16 and 1e-5).
EDGES = [5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
         *(float(np.nextafter(x, to)) for x in (1e16, 1e-5, 1e-4) for to in (0.0, np.inf)), 1e16, 1e-5, 1e-4]
positive = st.one_of(st.sampled_from(EDGES), st.floats(min_value=5e-324, allow_infinity=False))
non_negative = st.one_of(positive, st.sampled_from([0.0, -0.0]))
count = st.one_of(st.sampled_from([0, 1, INT64_MAX - 1, INT64_MAX]), st.integers(0, INT64_MAX))
user_id = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)  # UTF-8 encodable


@st.composite
def logs(draw) -> RandomizedLog:
    ids = draw(st.lists(user_id, unique=True, max_size=12))

    def column(values, dtype):
        return np.array(draw(st.lists(values, min_size=len(ids), max_size=len(ids))), dtype=dtype)

    exposure, auctions, wins = (column(count, np.int64) for _ in range(3))
    spec = RandomizationSpec(draw(st.floats(-5, 5)), draw(st.floats(0.01, 3)))
    return RandomizedLog(spec, ids, exposure_at_start=exposure, cluster=assign_clusters(exposure),
                         n_auctions=np.maximum(auctions, wins), n_wins=np.minimum(auctions, wins),
                         theta=column(positive, np.float64),
                         **{f: column(non_negative, np.float64) for f in ("cost", "value_observed", "value_predicted")})


def per_user_text(log: RandomizedLog) -> str:
    """The header, then one `_to_json` call per user line."""
    header = {"schema": domain.SCHEMA_VERSION, "mu": log.spec.mu, "sigma": log.spec.sigma,
              "bucket_boundaries": list(log.bucket_boundaries)}
    columns = [log.arrays[f].tolist() for f in domain._COLUMNS]
    users = (dict(zip(domain._COLUMNS, values), user_id=uid) for uid, *values in zip(log.user_ids, *columns))
    return "".join(domain._to_json(record) + "\n" for record in (header, *users))


def line_by_line():
    """`read_log` with the block path disabled: every block is read by the per-line checks."""
    return mock.patch.object(domain, "_parse_block", lambda texts: None)


@settings(max_examples=150, deadline=None)
@given(log=logs(), block=st.sampled_from([1, 3, domain._BLOCK]))
def test_block_codec_matches_the_per_user_codec(log, block):
    with mock.patch.object(domain, "_BLOCK", block):
        buf = io.StringIO()
        write_log(log, buf)
        text = buf.getvalue()
        assert text == per_user_text(log)
        assert read_log(io.StringIO(text)) == log
        with line_by_line():  # every block line by line
            assert read_log(io.StringIO(text)) == log


def user_lines(n: int = 4) -> list[str]:
    """A small valid log's lines: the header, then one line per user (user i on line i + 2)."""
    log = RandomizedLog(RandomizationSpec(0.0, 0.3), [f"u{i}" for i in range(n)], theta=np.ones(n),
                        exposure_at_start=np.zeros(n, np.int64), cluster=np.zeros(n, np.int64), cost=np.ones(n),
                        value_observed=np.ones(n), value_predicted=np.ones(n),
                        n_auctions=np.full(n, 10), n_wins=np.ones(n, np.int64))
    buf = io.StringIO()
    write_log(log, buf)
    return buf.getvalue().splitlines(keepends=True)


MISSING = object()


def with_values(line: str, **values) -> str:
    """The user line with some values replaced and the fields given `MISSING` dropped (a lone surrogate
    is written as its escape)."""
    row = {**json.loads(line), **values}
    return json.dumps({f: value for f, value in row.items() if value is not MISSING}) + "\n"


@pytest.mark.parametrize("path", [nullcontext, line_by_line], ids=["block", "per_line"])
@pytest.mark.parametrize(
    "second,third,message",
    [
        (dict(n_auctions=10**20), lambda line: with_values(line, cluster=1.5),
         f"n_auctions is out of range, got {10**20}"),
        (dict(user_id="\ud800"), lambda line: line[:-3] + "\n",
         "user_id must be text that UTF-8 can encode, got '\\ud800'"),
        (dict(cost=10**400), lambda line: '{"user_id":"u2"}\n', f"cost is out of range, got {10**400}"),
    ],
    ids=["range_then_type", "surrogate_then_syntax", "cost_range_then_missing"],
)
def test_the_first_faulty_line_of_a_block_is_named(second, third, message, path):
    # a fault of an id or a number on line 2, and a syntax, type or field fault on line 3 of
    # the same block: line 2 is named, with the message it has on its own
    lines = user_lines()
    lines[1], lines[2] = with_values(lines[1], **second), third(lines[2])
    with path():
        with pytest.raises(LogFormatError) as info:
            read_log(io.StringIO("".join(lines)))
        assert str(info.value) == f"line 2: {message}"
        with pytest.raises(LogFormatError) as alone:
            read_log(io.StringIO(lines[0] + lines[1]))
        assert str(alone.value) == str(info.value)


FIELDS = st.sampled_from(domain._USER_FIELDS)
COUNTS = st.sampled_from(domain._INT_FIELDS)
FLOATS = st.sampled_from([f for f in domain._COLUMNS if f not in domain._INT_FIELDS])
#: Each line-local fault, as the drawn edit that plants it in one user line.
FAULTS = {
    "syntax": lambda draw, line: line[:draw(st.integers(1, len(line) - 3))] + "\n",  # a cut object never closes
    "repeated_key": lambda draw, line: f'{{"{draw(FIELDS)}":1,' + line[1:],
    "missing_field": lambda draw, line: with_values(line, **{draw(FIELDS): MISSING}),
    "fractional_count": lambda draw, line: with_values(line, **{draw(COUNTS): 2.5}),
    "null": lambda draw, line: with_values(line, **{draw(FIELDS): None}),
    "boolean": lambda draw, line: with_values(line, **{draw(FIELDS): draw(st.booleans())}),
    "huge_count": lambda draw, line: with_values(line, **{draw(COUNTS): 10**20}),
    "huge_float": lambda draw, line: with_values(line, **{draw(FLOATS): 10**400}),
    "surrogate_id": lambda draw, line: with_values(line, user_id="\ud800"),
}


@settings(max_examples=300, deadline=None)
@given(log=logs(), block=st.sampled_from([1, 3, domain._BLOCK]), data=st.data())
def test_a_planted_fault_is_named_at_its_first_line(log, block, data):
    # one or two lines each get a drawn line-local fault: the first is named, with the
    # message that the header and that line alone give, on the block path and line by line
    assume(len(log))
    buf = io.StringIO()
    write_log(log, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    planted = sorted(data.draw(st.sets(st.integers(1, len(log)), min_size=1, max_size=2)))
    for i in planted:
        lines[i] = FAULTS[data.draw(st.sampled_from(sorted(FAULTS)))](data.draw, lines[i])
    with pytest.raises(LogFormatError) as alone:
        read_log(io.StringIO(lines[0] + lines[planted[0]]))
    assert alone.value.line_number == 2
    expected = str(alone.value).replace("line 2: ", f"line {planted[0] + 1}: ", 1)
    with mock.patch.object(domain, "_BLOCK", block):
        for path in (nullcontext, line_by_line):
            with path(), pytest.raises(LogFormatError) as info:
                read_log(io.StringIO("".join(lines)))
            assert str(info.value) == expected
