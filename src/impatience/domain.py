"""Shared data types and every file format the command line reads or writes.

The log format is line-delimited JSON: one metadata line (mu, sigma,
bucket boundaries, schema version), then one line per user. The policy
is one JSON document, and every CSV opens with `# key=value` provenance
comments. All types are immutable after construction.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import numbers
import os
import threading
from argparse import ArgumentTypeError
from contextlib import contextmanager, suppress
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cached_property
from itertools import chain, compress, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from . import __version__

SCHEMA_VERSION = "impatience-log/1"
POLICY_SCHEMA = "impatience-policy/1"
#: The program that every output's provenance names.
TOOL = f"impatience/{__version__}"
#: The columns of a marginals CSV: the fields of a `ClusterRow`, each interval as a low and a high column.
MARGINALS_COLUMNS = ("cluster", "n_users", "dcost", "dvalue", "mroi", "dcost_ci_low", "dcost_ci_high",
                     "dvalue_ci_low", "dvalue_ci_high", "mroi_ci_low", "mroi_ci_high")
#: The marginals columns a reallocation reads, which every marginals file must hold.
_MARGINALS_NEEDED = ("cluster", "dcost", "dvalue", "mroi")

#: Default ad-exposure bucket boundaries: buckets {0, 1, 2, 3, 4, 5+}.
DEFAULT_BUCKETS: tuple[int, ...] = (1, 2, 3, 4, 5)

#: The per-user columns of a log, in field order after `user_id`.
_COLUMNS = ("theta", "exposure_at_start", "cluster", "cost", "value_observed", "value_predicted",
            "n_auctions", "n_wins")
_USER_FIELDS = ("user_id",) + _COLUMNS
_INT_FIELDS = ("exposure_at_start", "cluster", "n_auctions", "n_wins")
#: The dtype each column is held in.
_DTYPES = {f: np.int64 if f in _INT_FIELDS else np.float64 for f in _COLUMNS}
#: The dtype the user ids are held in: strings of any length, 16 B each up to 15 UTF-8 bytes,
#: NULs kept and each element read back as a `str`. Only strings are taken, not coerced.
_ID_DTYPE = np.dtypes.StringDType(coerce=False)
#: The least sigma per unit of max(1, |mu|) that a randomization spec takes (README, "File formats").
_SIGMA_RESOLUTION = 2.0**-26
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


class UsageError(Exception):
    """A file cannot be used: it cannot be read or written, or its document breaks its format."""


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


def _is_fraction(value) -> bool:
    """A finite number strictly between 0 and 1, such as a cap on a multiplier's move."""
    return _is_number(value) and 0 < value < 1


def _is_boundaries(value) -> bool:
    """Bucket boundaries: a non-empty list of integers, non-negative and strictly increasing."""
    return (isinstance(value, (list, tuple)) and len(value) > 0 and all(map(_is_integer, value))
            and value[0] >= 0 and all(b1 < b2 for b1, b2 in zip(value, value[1:])))


#: Each kind of record field: the test its value must pass, the words its error uses
#: and the type it is stored as.
_KINDS = {
    "count": (lambda v: _is_integer(v) and v >= 0, "a non-negative integer", int),
    "number": (_is_number, "a finite number", float),
    "positive": (lambda v: _is_number(v) and v > 0, "a finite number > 0", float),
    "fraction": (_is_fraction, "a finite number in (0, 1)", float),
    "numbers": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)), "a list of finite numbers",
                lambda v: tuple(map(float, v))),
    "fractions": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_fraction, v)),
                  "a list of finite numbers in (0, 1)", lambda v: tuple(map(float, v))),
    "boundaries": (_is_boundaries, "a list of integers: non-empty, non-negative and strictly increasing",
                   lambda v: tuple(map(int, v))),
}


def _checked(value, what: str, name: str, kind: str):
    """`value` as the type of its kind in `_KINDS`; the field `name` of the record `what`
    is an error unless the value passes the kind's test."""
    test, words, store = _KINDS[kind]
    if not test(value):
        raise ValidationError(f"{what} '{name}' must be {words}, got {value!r}")
    return store(value)


def _check_kinds(record, what: str, kinds: dict[str, str]) -> None:
    """Check each named field of the dataclass `record` against its kind in `_KINDS`
    and store it as that kind's type; a field left at a default of None is skipped."""
    defaults = {f.name: f.default for f in fields(record)}
    for name, kind in kinds.items():
        value = getattr(record, name)
        if value is not None or defaults[name] is not None:
            object.__setattr__(record, name, _checked(value, what, name, kind))


def _physical_memory() -> float:
    """Bytes of physical memory, or infinity where the platform does not say."""
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf
    return page * pages if page > 0 and pages > 0 else math.inf  # -1: indeterminate


def _n_workers() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _in_parallel(task: Callable[[int, int], None], n_items: int, n_workers: int) -> None:
    """Run task(first, last) over n_workers contiguous ranges covering range(n_items).

    The calling thread runs the first range and n_workers - 1 threads the
    others; an exception raised in any range is raised here once all ended.
    """
    edges = [n_items * w // n_workers for w in range(n_workers + 1)]
    errors = []

    def guarded(first: int, last: int) -> None:
        try:
            task(first, last)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=edges[w:w + 2]) for w in range(1, n_workers)]
    for thread in threads:
        thread.start()
    guarded(edges[0], edges[1])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


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


@dataclass(frozen=True)
class RandomizationSpec:
    """Lognormal exploration law of the baseline bidder.

    `mu` and `sigma` parametrize the underlying normal of the
    per-user multiplier draw theta ~ Lognormal(mu, sigma).
    """

    mu: float
    sigma: float

    def __post_init__(self):
        _check_kinds(self, "randomization", {"mu": "number", "sigma": "positive"})
        if not -744 < self.mu < 709:  # every importance weight takes ln(theta) - mu
            raise ValidationError(f"mu must lie in (-744, 709), where theta's median exp(mu) is a positive "
                                  f"finite float, got {self.mu}")
        if not 0 < self.sigma * self.sigma < math.inf:  # every importance weight divides by it
            raise ValidationError(f"sigma must have a finite square above 0 in floating point, got {self.sigma}")
        # ln(theta) is rounded to about 2**-52 and ln(theta) - mu to about 2**-52 * |mu|, so
        # a sigma within 2**26 such steps leaves each standardized draw below 26 bits
        floor = _SIGMA_RESOLUTION * max(1.0, abs(self.mu))
        if self.sigma < floor:
            raise ValidationError(f"sigma must be at least 2**-26 * max(1, |mu|) = {floor:.6g}, "
                                  f"or ln(theta) - mu rounds to noise, got {self.sigma}")

    @classmethod
    def from_json(cls, raw) -> "RandomizationSpec":
        return _from_json(cls, raw, "randomization")


def _no_users(dtype):
    # columns default to no users, so `RandomizedLog(spec, ())` is the empty log
    return field(default_factory=lambda: np.empty(0, dtype), kw_only=True)


@dataclass(frozen=True, eq=False)
class RandomizedLog:
    """Per-user outcomes of one randomized collection period, as columns.

    Row i of every column belongs to the user `user_ids[i]`. The ids are
    one read-only array of `numpy.dtypes.StringDType`, whose elements are
    `str`; the constructor takes any sequence of strings, and an id that
    is not a string, or that UTF-8 cannot encode (a lone surrogate), is an
    error. The columns are read-only numpy arrays: float64 for theta and
    the outcomes, int64 for exposure, cluster and the auction counts. The
    constructor copies what it is given. Construction checks every
    invariant of the log at once and reports the first user that breaks
    one.
    """

    spec: RandomizationSpec
    user_ids: np.ndarray
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
        ids = self.user_ids
        object.__setattr__(self, "user_ids", _id_array(ids if isinstance(ids, np.ndarray) else list(ids)))
        self._hold(owned=False)

    @classmethod
    def _adopt(cls, spec: RandomizationSpec, user_ids: np.ndarray, bucket_boundaries: tuple[int, ...],
               columns: dict[str, np.ndarray]) -> "RandomizedLog":
        """The log of arrays that its caller built for it and keeps no reference to: the ids as an
        array of `_ID_DTYPE` and every column. Each is made read-only and held as it is, not copied."""
        log = object.__new__(cls)
        for name, value in dict(spec=spec, user_ids=user_ids, bucket_boundaries=bucket_boundaries, **columns).items():
            object.__setattr__(log, name, value)
        user_ids.setflags(write=False)
        log._hold(owned=True)
        return log

    def _hold(self, owned: bool) -> None:
        """Hold each column as a read-only array of its dtype (a copy unless `owned`), then check
        every invariant of the log and report the first user who breaks one."""
        _check_kinds(self, "log", {"bucket_boundaries": "boundaries"})
        n = len(self.user_ids)
        for name in _COLUMNS:
            object.__setattr__(self, name, _column(name, getattr(self, name), n, owned))
        theta, e0, wins = self.theta, self.exposure_at_start, self.n_wins
        # per-user rules (0 < x < inf also rejects NaN), then rules across users; each rule's
        # mask is built only when the rule is checked, so one mask is held at a time
        per_user = [
            (lambda: (0 < theta) & (theta < np.inf), "theta must be finite and > 0, got {theta}"),
            (lambda: e0 >= 0, "exposure_at_start must be >= 0"),
            *((lambda x=getattr(self, f): (0 <= x) & (x < np.inf), f"{f} must be finite and >= 0, got {{{f}}}")
              for f in ("cost", "value_observed", "value_predicted")),
            (lambda: (0 <= wins) & (wins <= self.n_auctions),
             "need 0 <= n_wins <= n_auctions, got n_wins={n_wins}, n_auctions={n_auctions}"),
        ]
        across_users = [
            (lambda: _first_occurrences(self.user_ids), "duplicate user_id {user_id!r}"),
            (lambda: self.cluster == assign_clusters(e0, self.bucket_boundaries), "user {user_id}: cluster {cluster} "
             "inconsistent with exposure_at_start {exposure_at_start} (expected {expected})"),
        ]
        # report the first user who breaks a rule, under the first rule they break
        for rules, prefix in ((per_user, "user {user_id}: "), (across_users, "")):
            i, _, message = min((_first_false(mask()), r, text) for r, (mask, text) in enumerate(rules))
            if i < n:
                row = {f: getattr(self, f)[i].item() for f in _COLUMNS}
                row["expected"] = int(assign_clusters(e0[i], self.bucket_boundaries))
                raise ValidationError((prefix + message).format(user_id=self.user_ids[i], **row), i)

    def __len__(self) -> int:
        return len(self.user_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RandomizedLog):
            return NotImplemented
        return (
            (self.spec, self.bucket_boundaries) == (other.spec, other.bucket_boundaries)
            and np.array_equal(self.user_ids, other.user_ids)
            and all(getattr(self, f).dtype == getattr(other, f).dtype
                    and np.array_equal(getattr(self, f), getattr(other, f)) for f in _COLUMNS)
        )

    @property
    def n_clusters(self) -> int:
        return len(self.bucket_boundaries) + 1

    @cached_property
    def arrays(self) -> dict[str, np.ndarray]:
        """The per-user columns by field name (read-only)."""
        return {f: getattr(self, f) for f in _COLUMNS}


def _id_array(user_ids) -> np.ndarray:
    """A new read-only array of `_ID_DTYPE` holding `user_ids`. An id that is not a string, or
    that UTF-8 cannot encode (a lone surrogate, which `json` decodes from an escaped
    `"\\ud800"`), is a ValidationError naming its position."""
    try:
        ids = np.array(user_ids, dtype=_ID_DTYPE)
    except ValueError:  # UnicodeEncodeError is one
        for i, uid in enumerate(user_ids):
            if not isinstance(uid, str):
                raise ValidationError(f"user_id must be a string, got {uid!r}", i) from None
            try:
                uid.encode()
            except UnicodeEncodeError:
                raise ValidationError(f"user_id must be text that UTF-8 can encode, got {uid!r}", i) from None
        raise
    if ids.ndim != 1:
        raise ValidationError(f"user_ids must hold one string per user, got shape {ids.shape}")
    ids.setflags(write=False)
    return ids


def _column(name: str, values, n: int, owned: bool) -> np.ndarray:
    """One column as a read-only array: int64 counts, float64 otherwise. It is a
    copy unless `owned` and `values` is already an array of that dtype.

    Count columns must already hold integers, so that no fractional
    count is silently truncated. An empty column holds no value to lose.
    """
    dtype = _DTYPES[name]
    col = np.asarray(values)
    if col.size and not np.can_cast(col.dtype, dtype):
        raise ValidationError(f"column {name} cannot be held as {np.dtype(dtype)}, got dtype {col.dtype}")
    if col.shape != (n,):
        raise ValidationError(f"column {name} must hold one value per user ({n}), got shape {col.shape}")
    col = np.array(col, dtype=dtype, copy=None if owned else True)
    col.setflags(write=False)
    return col


def _first_false(mask: np.ndarray) -> int:
    """The index of the first False in `mask`, or its length if there is none."""
    return len(mask) if mask.all() else int(np.argmin(mask))


def _first_occurrences(user_ids: np.ndarray) -> np.ndarray:
    """True where a user id has not appeared earlier in the log.

    Strictly increasing ids, as `simulate_log` writes them, cannot repeat;
    any others are sorted, stably, so that a repeat follows its id's first
    occurrence in the sorted order.
    """
    first = np.ones(len(user_ids), dtype=bool)
    if not (user_ids[1:] > user_ids[:-1]).all():
        order = np.argsort(user_ids, kind="stable")
        ranked = user_ids[order]
        first[order[1:][ranked[1:] == ranked[:-1]]] = False
    return first


@dataclass(frozen=True)
class PolicySpec:
    """Per-cluster bid multipliers with a symmetric amplitude cap."""

    multipliers: dict[int, float]
    cap_delta: float = 0.2

    def __post_init__(self):
        _check_kinds(self, "policy", {"cap_delta": "fraction"})
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

    def relative_to(self, baseline: "PolicyOutcome") -> dict[str, float]:
        """`rel_dvalue` and `rel_dcost`, this outcome's value and cost over `baseline`'s minus 1,
        each with its delta-method standard error (`rel_dvalue_se`, `rel_dcost_se`)."""
        rel = {}
        for name in ("value", "cost"):
            t, t_se, b, b_se = (getattr(outcome, name + se) for outcome in (self, baseline) for se in ("", "_se"))
            if b == 0:
                raise ValidationError(f"the baseline arm's {name} is 0, so a relative delta is undefined; "
                                      "each arm needs users who win auctions")
            rel[f"rel_d{name}"] = t / b - 1.0
            rel[f"rel_d{name}_se"] = np.hypot(t_se / b, t * b_se / b**2)
        return rel


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
def _file_errors(path: str, verb: str = "read"):
    """Report a file that cannot be read (or decoded) or written as a usage error naming it."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot {verb} {path}: {getattr(exc, 'strerror', None) or exc}") from None


class _Hashing(io.RawIOBase):
    """A binary file that adds every chunk read from it to a sha256."""

    def __init__(self, raw: io.RawIOBase):
        self._raw, self.digest = raw, hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._raw.readinto(buffer)
        self.digest.update(memoryview(buffer)[:n])
        return n


@contextmanager
def _opened(path: str, name: str, provenance: dict | None) -> Iterator[IO[str]]:
    """`path` opened once, as text as `open(path)` opens it; once the block has read it to the end, the
    sha256 of the bytes read goes to `provenance` as `<name>_sha256`, the one way an input enters an
    output's provenance. A file that cannot be read or decoded is a UsageError naming it."""
    with _file_errors(path), open(path, "rb", buffering=0) as raw:
        hashing = _Hashing(raw)
        with io.TextIOWrapper(io.BufferedReader(hashing)) as fh:
            yield fh
    if provenance is not None:
        provenance[f"{name}_sha256"] = hashing.digest.hexdigest()


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
    """Write a log as JSONL: one header line, then one line per user; a path that cannot
    be written is a UsageError naming it."""
    if isinstance(destination, str):
        with _file_errors(destination, "write"), atomic_write(destination) as fh:
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
            map(encode_basestring_ascii, log.user_ids[block].tolist()) if f == "user_id"
            else _texts(log.arrays[f][block])
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


def read_log(source: str | IO[str], provenance: dict | None = None) -> RandomizedLog:
    """Read and validate a JSONL log produced by :func:`write_log`; a path that cannot be
    read or decoded is a UsageError naming it, and its digest goes to `provenance` as `log_sha256`."""
    if isinstance(source, str):
        with _opened(source, "log", provenance) as fh:
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
        boundaries = _checked(header.get("bucket_boundaries"), "log", "bucket_boundaries", "boundaries")
    except ValueError as exc:
        raise LogFormatError(f"invalid header: {exc}", 1) from exc

    # each field's arrays, one per block; an empty one first, so that a log of no users has typed columns
    parts = {f: [np.empty(0, dtype)] for f, dtype in zip(_USER_FIELDS, (_ID_DTYPE, *_DTYPES.values()))}
    user_lines = []  # the line numbers of each block's users
    lineno = 2
    while chunk := list(islice(lines, _BLOCK)):
        texts, linenos = list(map(str.strip, chunk)), range(lineno, lineno + len(chunk))
        lineno += len(chunk)
        if not all(texts):  # skip blank lines
            texts, linenos = list(compress(texts, texts)), list(compress(linenos, texts))
            if not texts:
                continue
        columns = _parse_block(texts) or _check_lines(texts, linenos)
        for part, array in zip(parts.values(), _parse_columns(columns, linenos)):
            part.append(array)
        user_lines.append(linenos)
    # one array per field, letting go of each field's blocks as soon as they are joined
    joined = {f: np.concatenate(parts.pop(f)) for f in _USER_FIELDS}
    try:
        return RandomizedLog._adopt(spec, joined.pop("user_id"), boundaries, joined)
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
    one line. Each member of an object holds one colon outside its strings
    and a number holds none, so a block with as many colons as fields per
    line repeats no key (an id holding a colon takes the per-line checks).
    """
    if not all(s[0] == "{" and s[-1] == "}" for s in texts):
        return None
    text = "[" + "\n,".join(texts) + "]"
    if text.count(":") != len(_USER_FIELDS) * len(texts):
        return None
    try:
        items = json.loads(text)
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
            raw = json.loads(line, object_pairs_hook=_unique_keys)
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
    """A block's ids and value columns as arrays. Where one cannot be held, the block's lines are
    searched in file order, each line's id and then its values: the first id that UTF-8 cannot
    encode or JSON number beyond its column's dtype is the fault."""
    ids, *values = columns
    try:
        return [_id_array(ids), *(np.array(column, dtype=_DTYPES[f]) for f, column in zip(_COLUMNS, values))]
    except (ValidationError, OverflowError):
        for lineno, (uid, *row) in zip(linenos, zip(*columns)):
            try:
                _id_array([uid])
            except ValidationError as exc:
                raise LogFormatError(str(exc), lineno) from None
            for f, value in zip(_COLUMNS, row):
                try:
                    np.array(value, dtype=_DTYPES[f])
                except OverflowError:
                    raise LogFormatError(f"{f} is out of range, got {value!r}", lineno) from None
        raise


# ---------------------------------------------------------------------------
# the files around the log: JSON documents, the policy, and CSVs with provenance


def read_json(path: str, what: str, provenance: dict | None = None):
    """The JSON document in the `what` file at `path`, whose digest goes to `provenance` as `<what>_sha256`."""
    try:
        with _opened(path, what, provenance) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except _JSON_ERRORS as exc:
        raise UsageError(f"{what} file {path} is not valid JSON: {exc}") from None


def write_json(path: str, doc: dict) -> None:
    with _file_errors(path, "write"), atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_policy(path: str, provenance: dict | None = None) -> PolicySpec:
    """The policy in a policy file; the reader checks the document, `PolicySpec` the fields."""
    doc = read_json(path, "policy", provenance)
    if not isinstance(doc, dict):
        raise UsageError(f"policy file {path} does not hold a JSON object")
    if doc.get("schema") != POLICY_SCHEMA:
        raise UsageError(f"policy file {path} has an unsupported schema {doc.get('schema')!r}")
    multipliers = doc.get("multipliers")
    if not isinstance(multipliers, dict):
        raise UsageError(f"policy file {path} needs a 'multipliers' object, got {multipliers!r}")
    try:
        # a cluster key is the decimal text `write_policy` writes, with no sign, space, underscore
        # or leading zero; any other key stays a string, which `PolicySpec` rejects
        clusters = [int(k) if k.isascii() and k.isdigit() and (k == "0" or k[0] != "0") else k for k in multipliers]
        return PolicySpec(dict(zip(clusters, multipliers.values())), doc.get("cap_delta"))
    except ValueError as exc:  # a ValidationError, or a key past `sys.get_int_max_str_digits()`
        raise UsageError(f"policy file {path}: {exc}") from None


def write_policy(path: str, policy: PolicySpec, provenance: dict, diagnostic: str | None = None) -> None:
    doc = {"schema": POLICY_SCHEMA, "cap_delta": policy.cap_delta, "provenance": {"tool": TOOL, **provenance},
           "multipliers": {str(k): v for k, v in policy.multipliers.items()}}
    write_json(path, {**doc, "diagnostic": diagnostic} if diagnostic else doc)


def _fmt(x) -> str:
    """A CSV cell: empty for None, text as it is, an integer by `str` and any other number by `repr` of its float."""
    if x is None or isinstance(x, str):
        return x or ""
    return str(int(x)) if isinstance(x, (int, np.integer)) else repr(float(x))


def _finite(text: str) -> float:
    """A float flag or CSV cell: a finite number, as every computation on it needs."""
    value = float(text)
    if not math.isfinite(value):
        raise ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def write_csv(path: str, provenance: dict, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """A CSV with one `# key=value` comment for the tool and then one for each provenance entry, in key order."""
    with _file_errors(path, "write"), atomic_write(path) as fh:
        fh.write(f"# tool={TOOL}\n")
        fh.writelines(f"# {key}={_fmt(provenance[key])}\n" for key in sorted(provenance))
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def write_marginals(path: str, rows: Iterable[ClusterRow], provenance: dict) -> None:
    write_csv(path, provenance, MARGINALS_COLUMNS, (
        [r.cluster, r.n_users, r.dcost, r.dvalue, r.mroi,
         *chain.from_iterable(ci or (None, None) for ci in (r.dcost_ci, r.dvalue_ci, r.mroi_ci))]
        for r in rows
    ))


def read_marginals(path: str, provenance: dict | None = None) -> tuple[list[ClusterRow], dict[str, str]]:
    """The rows and upstream provenance of a marginals CSV; its digest goes to `provenance`. Each row has one
    cell per column, an empty cell read as None; the columns a reallocation reads must be there, none twice."""
    upstream, rows, header = {}, [], None
    with _opened(path, "marginals", provenance) as fh:
        for line in filter(None, map(str.strip, fh)):
            if line.startswith("#"):
                key, eq, value = line[1:].strip().partition("=")
                if eq:
                    upstream[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    if header is None:
        raise UsageError(f"marginals file {path} has no header row")
    missing = [column for column in _MARGINALS_NEEDED if column not in header]
    if missing:
        raise UsageError(f"marginals file {path} has no columns {missing}")
    repeated = sorted({column for column in header if header.count(column) > 1})
    if repeated:
        raise UsageError(f"marginals file {path} repeats columns {repeated}")
    try:
        return [_marginals_row(header, cells) for cells in rows], upstream
    except (KeyError, ValueError, ArgumentTypeError) as exc:
        raise UsageError(f"marginals file {path} has a malformed row: {exc!r}") from None


def _marginals_row(header: list[str], values: list[str]) -> ClusterRow:
    if len(values) != len(header):
        raise ValueError(f"{len(values)} cells under {len(header)} columns: {values}")
    cells = dict(zip(header, values))

    def interval(stem: str) -> tuple[float, float] | None:
        low, high = cells.get(f"{stem}_ci_low", ""), cells.get(f"{stem}_ci_high", "")
        return None if low == high == "" else (_finite(low), _finite(high))

    cluster, dcost, dvalue = int(cells["cluster"]), _finite(cells["dcost"]), _finite(cells["dvalue"])
    mroi = _finite(cells["mroi"]) if cells["mroi"] != "" else None
    n_users = int(cells["n_users"]) if cells.get("n_users", "") != "" else None
    return ClusterRow(cluster, n_users, dcost, dvalue, mroi, interval("dcost"), interval("dvalue"), interval("mroi"))
