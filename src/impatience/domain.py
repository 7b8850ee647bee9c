"""Shared data types and the randomized-log file contract.

The log format is line-delimited JSON: one metadata line (mu, sigma,
bucket boundaries, schema version), then one line per user. All types
are immutable after construction.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable

import numpy as np

SCHEMA_VERSION = "impatience-log/1"

#: Default ad-exposure bucket boundaries: buckets {0, 1, 2, 3, 4, 5+}.
DEFAULT_BUCKETS: tuple[int, ...] = (1, 2, 3, 4, 5)

_USER_FIELDS = (
    "user_id",
    "theta",
    "exposure_at_start",
    "cluster",
    "cost",
    "value_observed",
    "value_predicted",
    "n_auctions",
    "n_wins",
)
_INT_FIELDS = ("exposure_at_start", "cluster", "n_auctions", "n_wins")
_FLOAT_FIELDS = ("theta", "cost", "value_observed", "value_predicted")


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


def assign_cluster(exposure_at_start: int, boundaries: tuple[int, ...] = DEFAULT_BUCKETS) -> int:
    """Bucket index for a pre-randomization exposure level.

    `boundaries` are strictly increasing; exposure below boundaries[0]
    maps to bucket 0 and the last bucket is open-ended.
    """
    return bisect_right(boundaries, exposure_at_start)


def assign_clusters(exposures: np.ndarray, boundaries: tuple[int, ...] = DEFAULT_BUCKETS) -> np.ndarray:
    return np.searchsorted(np.asarray(boundaries), exposures, side="right")


def _check_boundaries(boundaries: tuple[int, ...]) -> None:
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
        if not np.isfinite(self.mu):
            raise ValidationError(f"mu must be finite, got {self.mu}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValidationError(f"sigma must be strictly positive, got {self.sigma}")


@dataclass(frozen=True)
class UserRecord:
    """Aggregated per-user outcome of one randomized collection period."""

    user_id: str
    theta: float
    exposure_at_start: int
    cluster: int
    cost: float
    value_observed: float
    value_predicted: float
    n_auctions: int
    n_wins: int

    def __post_init__(self):
        # chained comparisons with inf also reject NaN
        if not 0 < self.theta < math.inf:
            raise ValidationError(f"user {self.user_id}: theta must be finite and > 0, got {self.theta}")
        if self.exposure_at_start < 0:
            raise ValidationError(f"user {self.user_id}: exposure_at_start must be >= 0")
        if not 0 <= self.cost < math.inf:
            raise ValidationError(f"user {self.user_id}: cost must be finite and >= 0, got {self.cost}")
        if not 0 <= self.value_observed < math.inf:
            raise ValidationError(
                f"user {self.user_id}: value_observed must be finite and >= 0, got {self.value_observed}"
            )
        if not 0 <= self.value_predicted < math.inf:
            raise ValidationError(
                f"user {self.user_id}: value_predicted must be finite and >= 0, got {self.value_predicted}"
            )
        if not 0 <= self.n_wins <= self.n_auctions:
            raise ValidationError(
                f"user {self.user_id}: need 0 <= n_wins <= n_auctions, "
                f"got n_wins={self.n_wins}, n_auctions={self.n_auctions}"
            )


@dataclass(frozen=True)
class RandomizedLog:
    """An ordered collection of user records under one exploration law."""

    spec: RandomizationSpec
    users: tuple[UserRecord, ...]
    bucket_boundaries: tuple[int, ...] = DEFAULT_BUCKETS

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(self, "bucket_boundaries", tuple(self.bucket_boundaries))
        _check_boundaries(self.bucket_boundaries)
        seen = set()
        for i, u in enumerate(self.users):
            if u.user_id in seen:
                raise ValidationError(f"duplicate user_id {u.user_id!r}", i)
            seen.add(u.user_id)
            expected = assign_cluster(u.exposure_at_start, self.bucket_boundaries)
            if u.cluster != expected:
                raise ValidationError(
                    f"user {u.user_id}: cluster {u.cluster} inconsistent with "
                    f"exposure_at_start {u.exposure_at_start} (expected {expected})",
                    i,
                )

    def __len__(self) -> int:
        return len(self.users)

    @property
    def n_clusters(self) -> int:
        return len(self.bucket_boundaries) + 1

    @cached_property
    def arrays(self) -> dict[str, np.ndarray]:
        """Columnar view of the user records (cached, read-only)."""
        cols = {
            "theta": np.array([u.theta for u in self.users], dtype=np.float64),
            "exposure_at_start": np.array([u.exposure_at_start for u in self.users], dtype=np.int64),
            "cluster": np.array([u.cluster for u in self.users], dtype=np.int64),
            "cost": np.array([u.cost for u in self.users], dtype=np.float64),
            "value_observed": np.array([u.value_observed for u in self.users], dtype=np.float64),
            "value_predicted": np.array([u.value_predicted for u in self.users], dtype=np.float64),
            "n_auctions": np.array([u.n_auctions for u in self.users], dtype=np.int64),
            "n_wins": np.array([u.n_wins for u in self.users], dtype=np.int64),
        }
        for a in cols.values():
            a.setflags(write=False)
        return cols


@dataclass(frozen=True)
class PolicySpec:
    """Per-cluster bid multipliers with a symmetric amplitude cap."""

    multipliers: dict[int, float]
    cap_delta: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "multipliers", dict(self.multipliers))
        if not 0 < self.cap_delta < 1:
            raise ValidationError(f"cap_delta must lie in (0, 1), got {self.cap_delta}")
        lo, hi = 1 - self.cap_delta, 1 + self.cap_delta
        for cluster, alpha in self.multipliers.items():
            if not lo - 1e-12 <= alpha <= hi + 1e-12:
                raise ValidationError(
                    f"cluster {cluster}: multiplier {alpha} outside cap interval [{lo}, {hi}]"
                )

    def multiplier_array(self, n_clusters: int) -> np.ndarray:
        """Dense per-cluster multipliers; missing clusters default to 1."""
        out = np.ones(n_clusters)
        for cluster, alpha in self.multipliers.items():
            if not 0 <= cluster < n_clusters:
                raise ValidationError(f"cluster index {cluster} out of range [0, {n_clusters})")
            out[cluster] = alpha
        return out


def identity_policy(n_clusters: int, cap_delta: float = 0.2) -> PolicySpec:
    return PolicySpec({c: 1.0 for c in range(n_clusters)}, cap_delta)


@dataclass(frozen=True)
class ClusterRow:
    """Marginal estimates for one ad-exposure cluster."""

    cluster: int
    n_users: int
    dcost: float
    dvalue: float
    mroi: float | None
    dcost_ci: tuple[float, float] | None = None
    dvalue_ci: tuple[float, float] | None = None
    mroi_ci: tuple[float, float] | None = None


@dataclass(frozen=True)
class PolicyOutcome:
    """Total value and cost attributed to one policy evaluation route."""

    value: float
    cost: float
    source: str  # "oracle" | "ips_exact" | "ips_linear"
    n_reps: int | None = None
    value_se: float | None = None
    cost_se: float | None = None

    def __post_init__(self):
        if self.source not in ("oracle", "ips_exact", "ips_linear"):
            raise ValidationError(f"unknown outcome source {self.source!r}")
        if self.source == "oracle" and (self.n_reps is None or self.value_se is None or self.cost_se is None):
            raise ValidationError("oracle outcomes must carry n_reps and standard errors")


def _user_to_json(u: UserRecord) -> str:
    return json.dumps(
        {
            "user_id": u.user_id,
            "theta": u.theta,
            "exposure_at_start": u.exposure_at_start,
            "cluster": u.cluster,
            "cost": u.cost,
            "value_observed": u.value_observed,
            "value_predicted": u.value_predicted,
            "n_auctions": u.n_auctions,
            "n_wins": u.n_wins,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def write_log(log: RandomizedLog, destination: str | IO[str]) -> None:
    """Write a log as JSONL: one header line, then one line per user."""
    header = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "mu": log.spec.mu,
            "sigma": log.spec.sigma,
            "bucket_boundaries": list(log.bucket_boundaries),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    if isinstance(destination, str):
        with open(destination, "w") as fh:
            _write_lines(log, header, fh)
    else:
        _write_lines(log, header, destination)


def _write_lines(log: RandomizedLog, header: str, fh: IO[str]) -> None:
    fh.write(header + "\n")
    for u in log.users:
        fh.write(_user_to_json(u) + "\n")


def read_log(source: str | IO[str]) -> RandomizedLog:
    """Read and validate a JSONL log produced by :func:`write_log`."""
    if isinstance(source, str):
        with open(source) as fh:
            return _read_lines(fh)
    return _read_lines(source)


def _read_lines(fh: Iterable[str]) -> RandomizedLog:
    lines = iter(enumerate(fh, start=1))
    try:
        _, header_line = next(lines)
    except StopIteration:
        raise LogFormatError("empty file: missing header line") from None
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise LogFormatError(f"malformed header: {exc}", 1) from exc
    if not isinstance(header, dict):
        raise LogFormatError("header must be a JSON object", 1)
    if header.get("schema") != SCHEMA_VERSION:
        raise LogFormatError(f"unsupported schema {header.get('schema')!r}", 1)
    try:
        spec = RandomizationSpec(float(header["mu"]), float(header["sigma"]))
        boundaries = tuple(header["bucket_boundaries"])
        if not all(type(b) is int for b in boundaries):
            raise ValidationError(f"bucket boundaries must be integers, got {list(boundaries)}")
        _check_boundaries(boundaries)
    except (KeyError, TypeError, ValueError) as exc:
        raise LogFormatError(f"invalid header: {exc}", 1) from exc

    users, user_lines = [], []
    for lineno, line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"malformed user line: {exc}", lineno) from exc
        if not isinstance(raw, dict):
            raise LogFormatError("user line must be a JSON object", lineno)
        missing = [f for f in _USER_FIELDS if f not in raw]
        if missing:
            raise LogFormatError(f"missing fields {missing}", lineno)
        # JSON numbers only: no strings, nulls or booleans, and no
        # fractional counts (int() would truncate them)
        for f in _INT_FIELDS:
            if type(raw[f]) is not int:
                raise LogFormatError(f"{f} must be an integer, got {raw[f]!r}", lineno)
        for f in _FLOAT_FIELDS:
            if type(raw[f]) is not float and type(raw[f]) is not int:
                raise LogFormatError(f"{f} must be a number, got {raw[f]!r}", lineno)
        try:
            users.append(
                UserRecord(
                    user_id=str(raw["user_id"]),
                    theta=float(raw["theta"]),
                    exposure_at_start=raw["exposure_at_start"],
                    cluster=raw["cluster"],
                    cost=float(raw["cost"]),
                    value_observed=float(raw["value_observed"]),
                    value_predicted=float(raw["value_predicted"]),
                    n_auctions=raw["n_auctions"],
                    n_wins=raw["n_wins"],
                )
            )
        except ValidationError as exc:
            raise LogFormatError(str(exc), lineno) from exc
        user_lines.append(lineno)
    try:
        return RandomizedLog(spec=spec, users=tuple(users), bucket_boundaries=boundaries)
    except ValidationError as exc:
        lineno = None if exc.user_index is None else user_lines[exc.user_index]
        raise LogFormatError(str(exc), lineno) from exc
