"""Shared data types and the randomized-log file contract.

The log format is line-delimited JSON: one metadata line (mu, sigma,
bucket boundaries, schema version), then one line per user. All types
are immutable after construction.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from contextlib import contextmanager, suppress
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cached_property
from itertools import chain, compress, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import IO, Iterable, Iterator

import numpy as np

SCHEMA_VERSION = "impatience-log/1"

#: Default ad-exposure bucket boundaries: buckets {0, 1, 2, 3, 4, 5+}.
DEFAULT_BUCKETS: tuple[int, ...] = (1, 2, 3, 4, 5)

#: The per-user columns of a log, in field order after `user_id`.
_COLUMNS = ("theta", "exposure_at_start", "cluster", "cost", "value_observed", "value_predicted",
            "n_auctions", "n_wins")
_USER_FIELDS = ("user_id",) + _COLUMNS
_INT_FIELDS = ("exposure_at_start", "cluster", "n_auctions", "n_wins")
#: The dtype each column is held in.
_DTYPES = {f: np.int64 if f in _INT_FIELDS else np.float64 for f in _COLUMNS}
#: User lines are written and read in blocks of this many rows.
_BLOCK = 1 << 10
#: Every way the JSON decoder rejects its input: a syntax error
#: (`json.JSONDecodeError`, a ValueError), an integer with more digits than
#: `sys.get_int_max_str_digits()` allows (ValueError) and nesting deeper than
#: the recursion limit (RecursionError).
_JSON_ERRORS = (ValueError, RecursionError)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict, for `json`'s `object_pairs_hook`: a
    repeated key is an error of the document (a ValueError, so one of `_JSON_ERRORS`)."""
    members = dict(pairs)
    if len(members) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return members


class ValidationError(ValueError):
    """An object violates one of its declared invariants.

    `user_index`, when set, is the position in a log of the user whose
    record breaks a log-level invariant.
    """

    def __init__(self, message: str, user_index: int | None = None):
        super().__init__(message)
        self.user_index = user_index


class LogFormatError(ValueError):
    """A log file line could not be parsed or validated."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class IndependenceViolationError(ValueError):
    """A user subset was declared over post-randomization state."""


def assign_clusters(exposures: np.ndarray, boundaries: tuple[int, ...] = DEFAULT_BUCKETS) -> np.ndarray:
    """Bucket index of each pre-randomization exposure level.

    `boundaries` are strictly increasing; exposure below boundaries[0]
    maps to bucket 0 and the last bucket is open-ended.
    """
    return np.searchsorted(np.asarray(boundaries), exposures, side="right")


def _is_number(value) -> bool:
    """A finite real number that a float can hold, numpy scalars included; booleans,
    strings and nulls are not."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _is_integer(value) -> bool:
    """An integer, numpy integers included; booleans are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


#: Each kind of config field: the test its value must pass, the words its error uses
#: and the type it is stored as.
_KINDS = {
    "count": (lambda v: _is_integer(v) and v >= 0, "a non-negative integer", int),
    "integer": (_is_integer, "an integer", int),
    "number": (_is_number, "a finite number", float),
    "numbers": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)), "a list of finite numbers",
                lambda v: tuple(map(float, v))),
}


def _check_kinds(record, what: str, kinds: dict[str, str]) -> None:
    """Check each named field of the dataclass `record` against its kind in `_KINDS`
    and store it as that kind's type; a field left at a default of None is skipped."""
    defaults = {f.name: f.default for f in fields(record)}
    for name, kind in kinds.items():
        value = getattr(record, name)
        if value is None and defaults[name] is None:
            continue
        test, words, store = _KINDS[kind]
        if not test(value):
            raise ValidationError(f"{what} '{name}' must be {words}, got {value!r}")
        object.__setattr__(record, name, store(value))


def _physical_memory() -> float:
    """Bytes of physical memory, or infinity where the platform does not say."""
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf
    return page * pages if page > 0 and pages > 0 else math.inf  # -1: indeterminate


def _approx(n: int) -> str:
    """`n` to three significant digits, as `.3g` writes a float, also past the float range."""
    if n < 1e300:
        return f"{n:.3g}"
    shift = int(math.log10(n)) - 300  # int / int is correctly rounded at any size
    mantissa, exponent = f"{n / 10**shift:.3g}".split("e+")
    return f"{mantissa}e+{int(exponent) + shift}"


def _check_memory(needed: int, request: str, memory: float) -> None:
    """The one memory rule: a request of `needed` bytes beyond `memory` (physical
    memory, :func:`_physical_memory`) is an error before anything is allocated.

    `request` names the field that asks and how its estimate adds up.
    """
    if needed > memory:
        raise ValidationError(f"{request}, more than the {_approx(memory)} B of physical memory")


def _check_boundaries(boundaries) -> None:
    if not (isinstance(boundaries, (list, tuple)) and all(map(_is_integer, boundaries))):
        raise ValidationError(f"'bucket_boundaries' must be a list of integers, got {boundaries!r}")
    if len(boundaries) == 0:
        raise ValidationError("bucket boundaries must be non-empty")
    if boundaries[0] < 0:
        raise ValidationError(f"bucket boundaries must be non-negative, got {boundaries}")
    if any(b2 <= b1 for b1, b2 in zip(boundaries, boundaries[1:])):
        raise ValidationError(f"bucket boundaries must be strictly increasing, got {boundaries}")


@dataclass(frozen=True)
class RandomizationSpec:
    """Lognormal exploration law of the baseline bidder.

    `mu` and `sigma` parametrize the underlying normal of the
    per-user multiplier draw theta ~ Lognormal(mu, sigma).
    """

    mu: float
    sigma: float

    def __post_init__(self):
        _check_kinds(self, "randomization", {"mu": "number", "sigma": "number"})
        if not self.sigma > 0:
            raise ValidationError(f"sigma must be strictly positive, got {self.sigma}")
        if not -744 < self.mu < 709:  # every importance weight takes ln(theta) - mu
            raise ValidationError(f"mu must lie in (-744, 709), where theta's median exp(mu) is a positive "
                                  f"finite float, got {self.mu}")
        if not 0 < self.sigma * self.sigma < math.inf:  # every importance weight divides by it
            raise ValidationError(f"sigma must have a finite square above 0 in floating point, got {self.sigma}")

    @classmethod
    def from_json(cls, raw) -> "RandomizationSpec":
        return _from_json(cls, raw, "randomization")


def _no_users(dtype):
    # columns default to no users, so `RandomizedLog(spec, ())` is the empty log
    return field(default_factory=lambda: np.empty(0, dtype), kw_only=True)


@dataclass(frozen=True, eq=False)
class RandomizedLog:
    """Per-user outcomes of one randomized collection period, as columns.

    Row i of every column belongs to the user `user_ids[i]`. The columns
    are read-only numpy arrays: float64 for theta and the outcomes, int64
    for exposure, cluster and the auction counts. Construction checks
    every invariant of the log at once and reports the first user that
    breaks one.
    """

    spec: RandomizationSpec
    user_ids: tuple[str, ...]
    bucket_boundaries: tuple[int, ...] = DEFAULT_BUCKETS
    theta: np.ndarray = _no_users(np.float64)
    exposure_at_start: np.ndarray = _no_users(np.int64)
    cluster: np.ndarray = _no_users(np.int64)
    cost: np.ndarray = _no_users(np.float64)
    value_observed: np.ndarray = _no_users(np.float64)
    value_predicted: np.ndarray = _no_users(np.float64)
    n_auctions: np.ndarray = _no_users(np.int64)
    n_wins: np.ndarray = _no_users(np.int64)

    def __post_init__(self):
        object.__setattr__(self, "user_ids", tuple(self.user_ids))
        object.__setattr__(self, "bucket_boundaries", tuple(self.bucket_boundaries))
        _check_boundaries(self.bucket_boundaries)
        n = len(self.user_ids)
        for name in _COLUMNS:
            object.__setattr__(self, name, _column(name, getattr(self, name), n))
        theta, e0, wins = self.theta, self.exposure_at_start, self.n_wins
        expected = assign_clusters(e0, self.bucket_boundaries)
        # per-user rules (0 < x < inf also rejects NaN), then rules across users
        per_user = [
            ((0 < theta) & (theta < np.inf), "theta must be finite and > 0, got {theta}"),
            (e0 >= 0, "exposure_at_start must be >= 0"),
            *(((0 <= getattr(self, f)) & (getattr(self, f) < np.inf), f"{f} must be finite and >= 0, got {{{f}}}")
              for f in ("cost", "value_observed", "value_predicted")),
            ((0 <= wins) & (wins <= self.n_auctions),
             "need 0 <= n_wins <= n_auctions, got n_wins={n_wins}, n_auctions={n_auctions}"),
        ]
        across_users = [
            (_first_occurrences(self.user_ids), "duplicate user_id {user_id!r}"),
            (self.cluster == expected, "user {user_id}: cluster {cluster} inconsistent with "
                                       "exposure_at_start {exposure_at_start} (expected {expected})"),
        ]
        # report the first user who breaks a rule, under the first rule they break
        for rules, prefix in ((per_user, "user {user_id}: "), (across_users, "")):
            ok = np.logical_and.reduce([mask for mask, _ in rules])
            if not ok.all():
                i = int(np.argmin(ok))
                message = prefix + next(m for mask, m in rules if not mask[i])
                row = {f: getattr(self, f)[i].item() for f in _COLUMNS}
                raise ValidationError(message.format(user_id=self.user_ids[i], expected=int(expected[i]), **row), i)

    def __len__(self) -> int:
        return len(self.user_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RandomizedLog):
            return NotImplemented
        return (self.spec, self.bucket_boundaries, self.user_ids) == (
            other.spec, other.bucket_boundaries, other.user_ids
        ) and all(
            getattr(self, f).dtype == getattr(other, f).dtype and np.array_equal(getattr(self, f), getattr(other, f))
            for f in _COLUMNS
        )

    @property
    def n_clusters(self) -> int:
        return len(self.bucket_boundaries) + 1

    @cached_property
    def arrays(self) -> dict[str, np.ndarray]:
        """The per-user columns by field name (read-only)."""
        return {f: getattr(self, f) for f in _COLUMNS}


def _column(name: str, values, n: int) -> np.ndarray:
    """A read-only copy of one column: int64 counts, float64 otherwise.

    Count columns must already hold integers, so that no fractional
    count is silently truncated. An empty column holds no value to lose.
    """
    dtype = _DTYPES[name]
    col = np.asarray(values)
    if col.size and not np.can_cast(col.dtype, dtype):
        raise ValidationError(f"column {name} cannot be held as {np.dtype(dtype)}, got dtype {col.dtype}")
    if col.shape != (n,):
        raise ValidationError(f"column {name} must hold one value per user ({n}), got shape {col.shape}")
    col = np.array(col, dtype=dtype)
    col.setflags(write=False)
    return col


def _first_occurrences(user_ids: tuple[str, ...]) -> np.ndarray:
    """True where a user id has not appeared earlier in the log."""
    first = np.ones(len(user_ids), dtype=bool)
    if len(set(user_ids)) < len(user_ids):
        seen = set()
        for i, uid in enumerate(user_ids):
            first[i] = uid not in seen
            seen.add(uid)
    return first


@dataclass(frozen=True)
class PolicySpec:
    """Per-cluster bid multipliers with a symmetric amplitude cap."""

    multipliers: dict[int, float]
    cap_delta: float = 0.2

    def __post_init__(self):
        if not (_is_number(self.cap_delta) and 0 < self.cap_delta < 1):
            raise ValidationError(f"cap_delta must be a finite number in (0, 1), got {self.cap_delta!r}")
        lo, hi = 1 - self.cap_delta, 1 + self.cap_delta
        multipliers = dict(self.multipliers)
        for cluster, alpha in multipliers.items():
            if not (_is_integer(cluster) and cluster >= 0 and _is_number(alpha)):
                raise ValidationError(f"multipliers must map integer clusters >= 0 to finite numbers, "
                                      f"got {cluster!r}: {alpha!r}")
            if not lo - 1e-12 <= alpha <= hi + 1e-12:
                raise ValidationError(
                    f"cluster {cluster}: multiplier {alpha} outside cap interval [{lo}, {hi}]"
                )
        object.__setattr__(self, "multipliers", {int(c): float(a) for c, a in multipliers.items()})

    def multiplier_array(self, n_clusters: int) -> np.ndarray:
        """Dense per-cluster multipliers; missing clusters default to 1."""
        out = np.ones(n_clusters)
        for cluster, alpha in self.multipliers.items():
            if not 0 <= cluster < n_clusters:
                raise ValidationError(f"cluster index {cluster} out of range [0, {n_clusters})")
            out[cluster] = alpha
        return out


@dataclass(frozen=True)
class ClusterRow:
    """Marginal estimates for one ad-exposure cluster; CIs are None where no bootstrap ran."""

    cluster: int | None  # None for the whole log
    n_users: int | None  # None where unknown, as in a row read back from a marginals CSV
    dcost: float
    dvalue: float
    mroi: float | None  # dvalue / dcost; None where the cost derivative is degenerate
    dcost_ci: tuple[float, float] | None = None
    dvalue_ci: tuple[float, float] | None = None
    mroi_ci: tuple[float, float] | None = None

    @property
    def defined(self) -> bool:
        return self.mroi is not None


@dataclass(frozen=True)
class PolicyOutcome:
    """Oracle total value and cost of a policy: means over `n_reps` simulated
    populations, with their standard errors."""

    value: float
    cost: float
    n_reps: int
    value_se: float
    cost_se: float


def _from_json(cls, raw, what: str, **readers):
    """The config record `cls` read from the JSON object `raw`, named `what` in errors: every key
    is a field of `cls`, every field without a default is given, and each nested record is read
    by its reader, whose error names the key. The constructor of `cls` checks the fields."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ValidationError(f"unknown {what} keys {sorted(unknown)}")
    for f in fields(cls):
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(f"missing {what} key {f.name!r}")
    nested = {}
    for key, read in readers.items():  # readers are for fields without defaults
        try:
            nested[key] = read(raw[key])
        except ValidationError as exc:
            raise ValidationError(f"{what} '{key}': {exc}") from None
    return cls(**{**raw, **nested})


def _json_object(config) -> dict:
    """A config dataclass as a JSON object: tuples as lists, None fields left out."""
    return asdict(config, dict_factory=lambda items: {
        key: list(value) if isinstance(value, tuple) else value for key, value in items if value is not None
    })


_to_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: The fields of a user line in the order `_to_json` writes them (sorted keys).
_ROW_FIELDS = tuple(sorted(_USER_FIELDS))
#: One user line as a `%` template of already formatted values (see `_texts`).
#: Its output equals `_to_json`'s.
_ROW = "{" + ",".join(f'"{f}":%s' for f in _ROW_FIELDS) + "}\n"


@contextmanager
def atomic_write(path: str) -> Iterator[IO[str]]:
    """Open `path` for writing text; the file changes only if the block succeeds.

    The text goes to a temporary file in the same directory, which is
    synced to disk and then replaces `path` in one `os.replace`. A failed
    write leaves the earlier file as it was and removes the temporary one.
    """
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_log(log: RandomizedLog, destination: str | IO[str]) -> None:
    """Write a log as JSONL: one header line, then one line per user."""
    if isinstance(destination, str):
        with atomic_write(destination) as fh:
            _write_lines(log, fh)
    else:
        _write_lines(log, destination)


def _write_lines(log: RandomizedLog, fh: IO[str]) -> None:
    header = {
        "schema": SCHEMA_VERSION,
        "mu": log.spec.mu,
        "sigma": log.spec.sigma,
        "bucket_boundaries": list(log.bucket_boundaries),
    }
    fh.write(_to_json(header) + "\n")
    for start in range(0, len(log), _BLOCK):
        block = slice(start, start + _BLOCK)
        columns = [
            map(encode_basestring_ascii, log.user_ids[block]) if f == "user_id" else _texts(log.arrays[f][block])
            for f in _ROW_FIELDS
        ]
        fh.write("".join(map(_ROW.__mod__, zip(*columns))))


def _texts(values: np.ndarray) -> list[str]:
    """The JSON text of each value of a column, formatting each distinct value once.

    Counts are written by `str`, floats by `float.__repr__`, as `json`
    writes finite floats. Values are told apart by their bits, so -0.0 and
    0.0 keep their own texts.
    """
    distinct, where = np.unique(values.view(np.int64), return_inverse=True)
    to_text = str if values.dtype == np.int64 else float.__repr__
    return np.array(list(map(to_text, distinct.view(values.dtype).tolist())), dtype=object)[where].tolist()


def read_log(source: str | IO[str]) -> RandomizedLog:
    """Read and validate a JSONL log produced by :func:`write_log`."""
    if isinstance(source, str):
        with open(source) as fh:
            return _read_lines(fh)
    return _read_lines(source)


def _read_lines(fh: Iterable[str]) -> RandomizedLog:
    lines = iter(fh)
    try:
        header_line = next(lines)
    except StopIteration:
        raise LogFormatError("empty file: missing header line") from None
    try:
        header = json.loads(header_line, object_pairs_hook=_unique_keys)
    except _JSON_ERRORS as exc:
        raise LogFormatError(f"malformed header: {exc}", 1) from exc
    if not isinstance(header, dict):
        raise LogFormatError("header must be a JSON object", 1)
    if header.get("schema") != SCHEMA_VERSION:
        raise LogFormatError(f"unsupported schema {header.get('schema')!r}", 1)
    try:
        spec = RandomizationSpec(header.get("mu"), header.get("sigma"))
        boundaries = header["bucket_boundaries"]
        _check_boundaries(boundaries)
    except (KeyError, ValueError) as exc:
        raise LogFormatError(f"invalid header: {exc}", 1) from exc

    user_ids: list[str] = []
    blocks = []  # the columns of each block, as arrays
    user_lines = []  # the line numbers of each block's users
    lineno = 2
    while chunk := list(islice(lines, _BLOCK)):
        texts, linenos = list(map(str.strip, chunk)), range(lineno, lineno + len(chunk))
        lineno += len(chunk)
        if not all(texts):  # skip blank lines
            texts, linenos = list(compress(texts, texts)), list(compress(linenos, texts))
            if not texts:
                continue
        ids, *columns = _parse_block(texts) or _check_lines(texts, linenos)
        user_ids.extend(ids)
        blocks.append(_parse_columns(columns, linenos))
        user_lines.append(linenos)
    columns = dict(zip(_COLUMNS, map(np.concatenate, zip(*blocks))))
    try:
        return RandomizedLog(spec, tuple(user_ids), boundaries, **columns)
    except ValidationError as exc:
        lineno = None if exc.user_index is None else list(chain.from_iterable(user_lines))[exc.user_index]
        raise LogFormatError(str(exc), lineno) from exc


#: A user line's values in `_USER_FIELDS` order, and the JSON types each may have with the words its error uses.
_USER_VALUES = itemgetter(*_USER_FIELDS)
_FIELD_TYPES = {"user_id": ({str, int}, "a string or an integer"),
                **{f: ({int}, "an integer") if f in _INT_FIELDS else ({int, float}, "a number") for f in _COLUMNS}}


def _parse_block(texts: list[str]) -> list[tuple] | None:
    """The columns of a block of non-blank stripped user lines, parsed in one JSON call.

    Returns None where any line needs the per-line checks. Lines are joined
    with a newline, which no JSON string may hold, so a string cannot span
    two lines; every line opens and closes an object, the block gives one
    object per line and every value is a scalar, so each object is exactly
    one line.
    """
    if not all(s[0] == "{" and s[-1] == "}" for s in texts):
        return None
    try:
        items = json.loads("[" + "\n,".join(texts) + "]")
    except _JSON_ERRORS:  # the array nests one level deeper than a line
        return None
    if len(items) != len(texts) or set(map(type, items)) != {dict} or set(map(len, items)) != {len(_USER_FIELDS)}:
        return None
    try:
        return _typed(list(zip(*map(_USER_VALUES, items))))
    except KeyError:
        return None


def _typed(columns: list[tuple]) -> list[tuple] | None:
    """`columns` with integer user ids as their decimal text, or None where `_FIELD_TYPES` rejects a value."""
    kinds = [set(map(type, values)) for values in columns]
    if all(kind <= types for kind, (types, _) in zip(kinds, _FIELD_TYPES.values())):
        return [tuple(map(str, columns[0])) if int in kinds[0] else columns[0], *columns[1:]]
    return None


def _check_lines(texts: list[str], linenos: Iterable[int]) -> list[tuple]:
    """The columns of a block of stripped user lines, checked line by line."""
    rows = []
    for lineno, line in zip(linenos, texts):
        try:
            raw = json.loads(line)
        except _JSON_ERRORS as exc:
            raise LogFormatError(f"malformed user line: {exc}", lineno) from exc
        if not isinstance(raw, dict):
            raise LogFormatError("user line must be a JSON object", lineno)
        missing = [f for f in _USER_FIELDS if f not in raw]
        if missing:
            raise LogFormatError(f"missing fields {missing}", lineno)
        # no fractional counts (int() would truncate them), and no nulls or booleans
        for f, (types, word) in _FIELD_TYPES.items():
            if type(raw[f]) not in types:
                raise LogFormatError(f"{f} must be {word}, got {raw[f]!r}", lineno)
        rows.append(_USER_VALUES(raw))
    return _typed(list(zip(*rows)))


def _parse_columns(columns: list[tuple], linenos: Iterable[int]) -> list[np.ndarray]:
    """A block's value columns as arrays; the first line with a JSON number beyond its column's dtype is a fault."""
    try:
        return [np.array(values, dtype=_DTYPES[f]) for f, values in zip(_COLUMNS, columns)]
    except OverflowError:
        for lineno, row in zip(linenos, zip(*columns)):
            for f, value in zip(_COLUMNS, row):
                try:
                    np.array(value, dtype=_DTYPES[f])
                except OverflowError:
                    raise LogFormatError(f"{f} is out of range, got {value!r}", lineno) from None
        raise
