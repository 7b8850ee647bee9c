"""Counterfactual estimators over randomized logs.

Exact importance-weighted (IPS) totals, their linearized first-order
marginals, marginal ROI per cluster, and user-level bootstrap
confidence intervals. All estimators are pure folds over users; the
headline reductions use compensated summation so that partitioned
and serial evaluation agree to ~1e-10 relative.

User subsets must be declared over pre-randomization state (the
exposure cluster fixed at collection start): this is what makes the
importance weights unbiased. Subsets built from post-randomization
fields are rejected unless constructed through the explicitly unsafe
escape hatch, which exists to demonstrate the resulting bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domain import (
    ClusterRow,
    IndependenceViolationError,
    PolicySpec,
    RandomizationSpec,
    RandomizedLog,
    ValidationError,
)

METRICS = ("cost", "value_observed", "value_predicted")


def _check_metric(selector: str) -> None:
    if selector not in METRICS:
        raise ValidationError(f"unknown metric selector {selector!r}; expected one of {METRICS}")


def exact_weight(theta, spec: RandomizationSpec, alpha):
    """Likelihood ratio of the alpha-scaled exploration law vs the logged one.

    exp((2 ln(alpha) (ln(theta) - mu) - ln(alpha)^2) / (2 sigma^2));
    reweighting logged outcomes by it estimates the counterfactual
    total under multiplier alpha without bias. `alpha` is one multiplier
    or one per user.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if np.any(theta <= 0):
        raise ValidationError("theta must be > 0")
    alpha = np.asarray(alpha, dtype=np.float64)
    if not np.all(alpha > 0):
        raise ValidationError(f"alpha must be > 0, got {alpha}")
    la = np.log(alpha)
    out = np.exp((2 * la * (np.log(theta) - spec.mu) - la * la) / (2 * spec.sigma**2))
    return float(out) if out.ndim == 0 else out


def linear_weight(theta, spec: RandomizationSpec):
    """Derivative of the exact weight in alpha at alpha = 1: (ln(theta) - mu) / sigma^2."""
    theta = np.asarray(theta, dtype=np.float64)
    if np.any(theta <= 0):
        raise ValidationError("theta must be > 0")
    out = (np.log(theta) - spec.mu) / spec.sigma**2
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class UserSubset:
    """A set of users declared over pre-randomization state only.

    Safe constructors select by exposure cluster. The unsafe
    constructor accepts an arbitrary membership mask and taints the
    subset; estimators reject tainted subsets unless explicitly told
    not to.
    """

    clusters: frozenset[int] | None = None
    unsafe_mask: tuple[bool, ...] | None = None

    @classmethod
    def all_users(cls) -> "UserSubset":
        return cls()

    @classmethod
    def from_clusters(cls, clusters) -> "UserSubset":
        return cls(clusters=frozenset(int(c) for c in clusters))

    @classmethod
    def unsafe_from_mask(cls, mask) -> "UserSubset":
        """Escape hatch: membership from arbitrary (possibly
        post-randomization) state. Estimates over such subsets are
        biased; see the independence demonstration tests."""
        return cls(unsafe_mask=tuple(bool(b) for b in mask))

    @property
    def is_unsafe(self) -> bool:
        return self.unsafe_mask is not None

    def mask(self, log: RandomizedLog) -> np.ndarray:
        if self.unsafe_mask is not None:
            m = np.asarray(self.unsafe_mask, dtype=bool)
            if len(m) != len(log):
                raise ValidationError(f"mask length {len(m)} != log size {len(log)}")
            return m
        if self.clusters is None:
            return np.ones(len(log), dtype=bool)
        return np.isin(log.arrays["cluster"], sorted(self.clusters))


def _resolve_subset(subset, log: RandomizedLog, allow_unsafe: bool) -> np.ndarray:
    if subset is None:
        subset = UserSubset.all_users()
    if not isinstance(subset, UserSubset):
        raise IndependenceViolationError(
            "user subsets must be UserSubset instances declared over "
            "exposure_at_start/cluster; raw predicates cannot be checked for "
            "independence from theta"
        )
    if subset.is_unsafe and not allow_unsafe:
        raise IndependenceViolationError(
            "subset was built from arbitrary (post-randomization) state; "
            "pass allow_unsafe=True only to demonstrate the resulting bias"
        )
    return subset.mask(log)


def compensated_sum(values) -> float:
    """Error-free-transformation sum (exactly rounded)."""
    return math.fsum(np.asarray(values, dtype=np.float64))


def ips_estimate(
    log: RandomizedLog,
    selector: str,
    subset: UserSubset | None = None,
    policy: PolicySpec | None = None,
    allow_unsafe: bool = False,
) -> float:
    """Exact-IPS counterfactual total of a metric under per-cluster multipliers.

    Sum over the subset of m_i * exact_weight(theta_i, alpha_cluster(i));
    with no policy (all multipliers one) this is the raw logged total.
    """
    _check_metric(selector)
    mask = _resolve_subset(subset, log, allow_unsafe)
    arr = log.arrays
    m = arr[selector][mask]
    if m.size == 0:
        return 0.0
    if policy is None:
        return compensated_sum(m)
    alphas = policy.multiplier_array(log.n_clusters)
    w = exact_weight(arr["theta"][mask], log.spec, alphas[arr["cluster"][mask]])
    return compensated_sum(m * w)


def marginal_estimate(
    log: RandomizedLog,
    selector: str,
    cluster: int | Sequence[int] | None = None,
) -> float:
    """Linearized estimate of d(total metric)/d(alpha) at alpha = 1 on a cluster."""
    _check_metric(selector)
    if cluster is None:
        subset = UserSubset.all_users()
    elif isinstance(cluster, (int, np.integer)):
        subset = UserSubset.from_clusters([cluster])
    else:
        subset = UserSubset.from_clusters(cluster)
    mask = subset.mask(log)
    arr = log.arrays
    m = arr[selector][mask]
    if m.size == 0:
        return 0.0
    return compensated_sum(m * linear_weight(arr["theta"][mask], log.spec))


@dataclass(frozen=True)
class MarginalRoi:
    """Ratio of value and cost derivatives; undefined when the cost
    derivative is degenerate (the raw numerator/denominator are kept)."""

    value: float | None
    numerator: float
    denominator: float

    @property
    def defined(self) -> bool:
        return self.value is not None


def marginal_roi(
    log: RandomizedLog,
    cluster: int | None,
    value_selector: str = "value_predicted",
    rel_threshold: float = 1e-9,
) -> MarginalRoi:
    """Marginal ROI on a cluster: marginal value per marginal unit of spend."""
    _check_metric(value_selector)
    num = marginal_estimate(log, value_selector, cluster)
    den = marginal_estimate(log, "cost", cluster)
    mask = UserSubset.all_users().mask(log) if cluster is None else (log.arrays["cluster"] == cluster)
    scale = float(np.abs(log.arrays["cost"][mask]).sum())
    if abs(den) < rel_threshold * scale or scale == 0.0:
        return MarginalRoi(value=None, numerator=num, denominator=den)
    return MarginalRoi(value=num / den, numerator=num, denominator=den)


@dataclass(frozen=True)
class BootstrapResult:
    low: float | np.ndarray
    high: float | np.ndarray
    point: float | np.ndarray


class UserSums:
    """A bootstrap statistic computed from sums over users.

    Row j of the (k, n) matrix `per_user` holds every user's contribution
    to the j-th sum. With `groups`, one label in [0, n_groups) per user
    fixed before randomization (such as the exposure cluster), each row
    is summed within every group. `finish` maps the (R, k, n_groups) sums
    of R resamples to R statistics; by default it flattens them.

    A whole-user resample enters such sums only through how often it drew
    each user, so one resample costs a weighted row sum over users, not a
    gather of its n drawn rows. Sums are pairwise along each group's
    contiguous users and go through no BLAS call, so they do not depend on
    the BLAS thread count.
    """

    def __init__(
        self,
        per_user: np.ndarray,
        groups: np.ndarray | None = None,
        n_groups: int = 1,
        finish: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        per_user = np.ascontiguousarray(per_user, dtype=np.float64)
        if groups is None:
            self._order = None
            self._rows = per_user
            bounds = [0, per_user.shape[1]]
        else:
            # users of one group become contiguous, so a group sum is a slice sum
            self._order = np.argsort(groups, kind="stable")
            self._rows = np.ascontiguousarray(per_user[:, self._order])
            bounds = np.searchsorted(groups[self._order], np.arange(n_groups + 1)).tolist()
        self._segments = tuple(zip(bounds[:-1], bounds[1:]))
        self._finish = finish

    @property
    def n_users(self) -> int:
        return self._rows.shape[1]

    def sums(self, counts: np.ndarray) -> np.ndarray:
        """(k, n_groups) sums in which user i is counted counts[i] times."""
        if self._order is not None:
            counts = counts[self._order]
        weighted = self._rows * counts
        out = np.empty((len(self._rows), len(self._segments)))
        for g, (a, b) in enumerate(self._segments):
            weighted[:, a:b].sum(axis=1, out=out[:, g])
        return out

    def resample(self, rng: np.random.Generator, n_resamples: int) -> np.ndarray:
        """(R, k, n_groups) sums of R whole-user resamples with replacement.

        Each resample draws `rng.integers(0, n, n)`, as the index form of
        :func:`bootstrap_ci` does, so both consume the same stream.
        """
        n = self.n_users
        out = np.empty((n_resamples, len(self._rows), len(self._segments)))
        for r in range(n_resamples):
            counts = np.bincount(rng.integers(0, n, n), minlength=n).astype(np.float64)
            out[r] = self.sums(counts)
        return out

    def finish(self, sums: np.ndarray) -> np.ndarray:
        """The statistics of (R, k, n_groups) sums, one row per resample."""
        if self._finish is None:
            return sums.reshape(len(sums), -1)
        return self._finish(sums)

    def point(self, exact: bool = False) -> np.ndarray:
        """The statistic with every user counted once.

        With `exact`, each sum is exactly rounded (a compensated sum over
        the group's users) instead of pairwise, as a resample's is.
        """
        if exact:
            sums = np.array([[compensated_sum(row[a:b]) for a, b in self._segments] for row in self._rows])
        else:
            sums = self.sums(np.ones(self.n_users))
        return self.finish(sums[None])[0]


def bootstrap_ci(
    estimator: Callable[[np.ndarray], float | np.ndarray] | UserSums,
    log: RandomizedLog,
    n_resamples: int = 1000,
    level: float = 0.95,
    seed: int | np.random.Generator = 0,
) -> BootstrapResult:
    """Percentile interval from whole-user resamples with replacement.

    `estimator` maps an index array into the log's users to a scalar
    or vector statistic, or is a :class:`UserSums`, whose resamples are
    reduced from per-user draw counts. Both forms draw the same indices
    from `seed` (an int or a Generator, which is advanced). The user is
    the independence unit, so resampling never splits a user's records.
    """
    if n_resamples < 100:
        raise ValidationError("n_resamples must be >= 100")
    if not 0 < level < 1:
        raise ValidationError("level must lie in (0, 1)")
    n = len(log)
    rng = np.random.default_rng(seed)
    if isinstance(estimator, UserSums):
        if estimator.n_users != n:
            raise ValidationError(f"statistic covers {estimator.n_users} users, log has {n}")
        point = estimator.point()
        stats = estimator.finish(estimator.resample(rng, n_resamples))
    else:
        point = np.asarray(estimator(np.arange(n)), dtype=np.float64)
        stats = np.empty((n_resamples,) + point.shape)
        for r in range(n_resamples):
            idx = rng.integers(0, n, n)
            stats[r] = estimator(idx)
    tail = (1 - level) / 2
    low = np.quantile(stats, tail, axis=0)
    high = np.quantile(stats, 1 - tail, axis=0)
    if point.ndim == 0:
        return BootstrapResult(float(low), float(high), float(point))
    return BootstrapResult(low, high, point)


def _cluster_sums(log: RandomizedLog, value_selector: str, rel_threshold: float) -> UserSums:
    """Per-cluster dcost and dvalue sums, finished to (dcost, dvalue, mROI) per cluster."""
    arr = log.arrays
    nc = log.n_clusters
    lw = linear_weight(arr["theta"], log.spec)
    scale = np.bincount(arr["cluster"], weights=np.abs(arr["cost"]), minlength=nc)

    def finish(sums: np.ndarray) -> np.ndarray:
        dcost, dvalue = sums[:, 0], sums[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            mroi = np.where(np.abs(dcost) > rel_threshold * scale, dvalue / dcost, np.nan)
        return np.concatenate([dcost, dvalue, mroi], axis=1)

    per_user = np.stack([arr["cost"] * lw, arr[value_selector] * lw])
    return UserSums(per_user, groups=arr["cluster"], n_groups=nc, finish=finish)


def cluster_estimates(
    log: RandomizedLog,
    n_resamples: int = 1000,
    level: float = 0.95,
    seed: int = 0,
    value_selector: str = "value_predicted",
    rel_threshold: float = 1e-9,
) -> list[ClusterRow]:
    """Per-cluster marginal cost/value derivatives, marginal ROI, and CIs."""
    _check_metric(value_selector)
    nc = log.n_clusters
    stat = _cluster_sums(log, value_selector, rel_threshold)
    # point estimates use compensated sums; bootstrap spread is noise-dominated
    point = stat.point(exact=True)
    ci = bootstrap_ci(stat, log, n_resamples=n_resamples, level=level, seed=seed)
    n_users = np.bincount(log.arrays["cluster"], minlength=nc)
    rows = []
    for c in range(nc):
        mroi = point[2 * nc + c]
        mroi_ci = None
        lo, hi = ci.low[2 * nc + c], ci.high[2 * nc + c]
        if np.isfinite(lo) and np.isfinite(hi):
            mroi_ci = (float(lo), float(hi))
        rows.append(
            ClusterRow(
                cluster=c,
                n_users=int(n_users[c]),
                dcost=float(point[c]),
                dvalue=float(point[nc + c]),
                mroi=None if np.isnan(mroi) else float(mroi),
                dcost_ci=(float(ci.low[c]), float(ci.high[c])),
                dvalue_ci=(float(ci.low[nc + c]), float(ci.high[nc + c])),
                mroi_ci=mroi_ci,
            )
        )
    return rows


def _policy_delta_sums(log: RandomizedLog, policy: PolicySpec) -> UserSums:
    """Linear and exact value/cost deltas of a policy as sums over users."""
    arr = log.arrays
    alphas = policy.multiplier_array(log.n_clusters)
    x = alphas[arr["cluster"]] - 1.0
    lw = linear_weight(arr["theta"], log.spec)
    w_minus_1 = exact_weight(arr["theta"], log.spec, alphas[arr["cluster"]]) - 1.0
    return UserSums(
        np.stack(
            [
                x * arr["value_predicted"] * lw,
                x * arr["cost"] * lw,
                arr["value_predicted"] * w_minus_1,
                arr["cost"] * w_minus_1,
            ]
        )
    )


def policy_delta_bootstrap(
    log: RandomizedLog,
    policy: PolicySpec,
    n_resamples: int = 1000,
    seed: int = 0,
) -> BootstrapResult:
    """Bootstrap CIs of a policy's (dvalue_linear, dcost_linear, dvalue_exact, dcost_exact).

    The linear deltas sum (alpha_S - 1) * m_i * linear weight over users,
    the exact ones m_i * (exact weight - 1); the point is the plain sum
    over all users.
    """
    stat = _policy_delta_sums(log, policy)
    return bootstrap_ci(stat, log, n_resamples=n_resamples, seed=seed)


@dataclass(frozen=True)
class WeightProfileRow:
    alpha: float
    std_exact: float
    std_linear: float


def weight_std_profile(
    spec: RandomizationSpec,
    alphas: Sequence[float],
    n_samples: int = 100_000,
    seed: int = 0,
) -> list[WeightProfileRow]:
    """Empirical spread of exact vs linearized importance weights per alpha.

    The exact-weight std explodes as alpha moves away from 1 (it is
    sqrt(exp(ln(alpha)^2 / sigma^2) - 1) in truth); the linearized
    counterpart |alpha - 1| * std((ln(theta) - mu) / sigma^2) grows
    linearly.
    """
    rng = np.random.default_rng(seed)
    theta = rng.lognormal(spec.mu, spec.sigma, n_samples)
    lin_std = float(np.std(linear_weight(theta, spec), ddof=1))
    rows = []
    for alpha in alphas:
        if not alpha > 0:
            raise ValidationError(f"alpha must be > 0, got {alpha}")
        w = exact_weight(theta, spec, alpha)
        rows.append(
            WeightProfileRow(
                alpha=float(alpha),
                std_exact=float(np.std(w, ddof=1)),
                std_linear=abs(alpha - 1) * lin_std,
            )
        )
    return rows


def exact_weight_std_analytic(spec: RandomizationSpec, alpha: float) -> float:
    """Closed-form std of the exact weight from lognormal moments."""
    la = math.log(alpha)
    return math.sqrt(math.exp(la * la / spec.sigma**2) - 1.0)
