"""Properties of the log codec: the block writer against one JSON encoder call per user,
and the block reader against the per-line reader, over drawn logs."""

import io
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from impatience import RandomizationSpec, RandomizedLog, assign_clusters, read_log, write_log
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


@settings(max_examples=150, deadline=None)
@given(log=logs(), block=st.sampled_from([1, 3, domain._BLOCK]))
def test_block_codec_matches_the_per_user_codec(log, block):
    with mock.patch.object(domain, "_BLOCK", block):
        buf = io.StringIO()
        write_log(log, buf)
        text = buf.getvalue()
        assert text == per_user_text(log)
        assert read_log(io.StringIO(text)) == log
        with mock.patch.object(domain, "_parse_block", lambda texts: None):  # every block line by line
            assert read_log(io.StringIO(text)) == log
