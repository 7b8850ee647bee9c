"""Counterfactual estimators over randomized logs.

Exact importance-weighted (IPS) totals, their linearized first-order
marginals, marginal ROI per cluster, and user-level bootstrap
confidence intervals. All estimators are pure folds over users.
`ips_estimate` and `marginal_estimate`, and so the `marginals` points
and the marginals that the `offline-eval` sweep optimizes, are exactly
rounded (`math.fsum`), so partitioned and serial evaluation agree.
`UserSums.point`, and so the `offline-eval` points and
`predict_policy_delta`, sums each group pairwise with numpy; such a sum
can differ from the exactly rounded one in the last bits (about 2e-16
relative on 30k users).

User subsets must be declared over pre-randomization state (the
exposure cluster fixed at collection start): this is what makes the
importance weights unbiased. Subsets built from post-randomization
fields are rejected unless constructed through the explicitly unsafe
escape hatch, which exists to demonstrate the resulting bias.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .domain import (
    ClusterRow,
    IndependenceViolationError,
    PolicySpec,
    RandomizationSpec,
    RandomizedLog,
    ValidationError,
    _approx,
    _check_memory,
    _physical_memory,
)

METRICS = ("cost", "value_observed", "value_predicted")
#: Coverage of every bootstrap percentile interval.
CI_LEVEL = 0.95
#: mROI is defined where |dcost| exceeds this fraction of the summed |cost|.
ROI_REL_THRESHOLD = 1e-9
#: A bootstrap block draws about this many user indices in one call.
_BLOCK_DRAWS = 1 << 16


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
    with np.errstate(over="ignore"):  # a weight past the float range is inf, which `_terms` rejects
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


def _finite(values):
    """`values` (a float or an array) if every one is finite.

    The one overflow rule of the estimators: a log value so large that its
    importance-weighted term, or a sum of such terms, leaves the float
    range is a fault of the log.
    """
    if not np.isfinite(values).all():
        raise ValidationError("the log holds values too large to estimate with: a value times its importance "
                              "weight, or a sum of such terms, overflows a float")
    return values


def _terms(values: np.ndarray, weights) -> np.ndarray:
    """The per-user terms values * weights, each of which must be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(values * weights)


def compensated_sum(values) -> float:
    """Error-free-transformation sum (exactly rounded), which must be finite."""
    try:
        # fsum reads a list of Python floats faster than it iterates an array
        total = math.fsum(np.asarray(values, dtype=np.float64).tolist())
    except OverflowError:  # fsum raises where a partial sum leaves the float range
        total = math.inf
    return _finite(total)


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
    return compensated_sum(_terms(m, w))


def _cluster_mask(log: RandomizedLog, cluster: int | None) -> np.ndarray:
    """The users of one cluster, or every user when `cluster` is None."""
    if cluster is None:
        return np.ones(len(log), dtype=bool)
    return log.arrays["cluster"] == cluster


def marginal_estimate(log: RandomizedLog, selector: str, cluster: int | None = None) -> float:
    """Linearized estimate of d(total metric)/d(alpha) at alpha = 1 on a cluster."""
    _check_metric(selector)
    mask = _cluster_mask(log, cluster)
    arr = log.arrays
    return compensated_sum(_terms(arr[selector][mask], linear_weight(arr["theta"][mask], log.spec)))


def _mroi(dcost, dvalue, scale):
    """dvalue / dcost where |dcost| > ROI_REL_THRESHOLD * scale, NaN elsewhere.

    `scale` is the sum of |cost| over the users in dcost, so a cluster
    that spends nothing has no mROI.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(dcost) > ROI_REL_THRESHOLD * scale, np.divide(dvalue, dcost), np.nan)


def _roi_scale(log: RandomizedLog, cluster: int | None) -> float:
    """The summed |cost| of a cluster's users: the scale of the mROI threshold."""
    with np.errstate(over="ignore"):
        return _finite(np.abs(log.arrays["cost"][_cluster_mask(log, cluster)]).sum())


def marginal_roi(log: RandomizedLog, cluster: int | None) -> ClusterRow:
    """Marginal ROI on a cluster (None: the whole log): marginal value per
    marginal unit of spend, with the two derivatives and no CIs."""
    dcost = marginal_estimate(log, "cost", cluster)
    dvalue = marginal_estimate(log, "value_predicted", cluster)
    roi = float(_mroi(dcost, dvalue, _roi_scale(log, cluster)))
    n_users = int(np.count_nonzero(_cluster_mask(log, cluster)))
    return ClusterRow(cluster, n_users, dcost, dvalue, mroi=None if math.isnan(roi) else roi)


@dataclass(frozen=True)
class BootstrapResult:
    """Per-statistic interval bounds and point estimates."""

    low: np.ndarray
    high: np.ndarray
    point: np.ndarray


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


def _count_draws(stream: np.random.SeedSequence, counts: np.ndarray) -> None:
    """Fill row i of the (m, n) `counts` with how often resample i drew each of
    n positions; the m resamples are drawn in one call from `stream`."""
    m, n = counts.shape
    # int32 draws hold the same values as int64 ones in half the memory, and
    # are freed on return, before the block's sums or the next block's draw
    draws = np.random.Generator(np.random.PCG64(stream)).integers(0, n, (m, n), dtype=np.int32)
    for i, drawn in enumerate(draws):
        counts[i] = np.bincount(drawn, minlength=n)


class UserSums:
    """A bootstrap statistic computed from sums over users.

    Row j of the (k, n) matrix `per_user` holds every user's contribution
    to the j-th sum. With `groups`, one label in [0, n_groups) per user
    fixed before randomization (such as the exposure cluster), each row
    is summed within every group. `finish` maps the (R, k, n_groups) sums
    of R resamples to R statistics; by default it flattens them.

    A whole-user resample enters such sums only through how often it drew
    each user, so one resample costs a count-weighted row sum over users,
    not a gather of its n drawn rows. Users are stored sorted by group, so
    a group sum is a sum over a contiguous slice. No sum goes through BLAS,
    so none depends on the BLAS thread count.
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
            self._rows = per_user
            bounds = [0, per_user.shape[1]]
        else:
            order = np.argsort(groups, kind="stable")
            self._rows = np.ascontiguousarray(per_user[:, order])
            bounds = np.searchsorted(groups[order], np.arange(n_groups + 1)).tolist()
        self._segments = tuple(zip(bounds[:-1], bounds[1:]))
        self._finish = finish

    @property
    def n_users(self) -> int:
        return self._rows.shape[1]

    def resample(self, seed: int, n_resamples: int) -> np.ndarray:
        """(R, k, n_groups) sums of R whole-user resamples with replacement.

        The stream contract: resamples are cut into blocks of
        B = max(1, 2**16 // n) resamples, a number fixed by the user count
        alone; the last block may be shorter. Block b draws the users of
        all its m resamples in one call,
        ``Generator(PCG64(SeedSequence(seed, spawn_key=(b,)))).integers(0, n, (m, n))``
        (the stream of ``SeedSequence(seed).spawn(n_blocks)[b]``),
        and row i holds resample b * B + i as positions in the group-sorted
        users. Each resample's draw counts weight one einsum per group.
        Contiguous ranges of blocks run on at most one thread per core;
        which thread runs a block changes no byte.
        """
        n = self.n_users
        k, n_groups = self._rows.shape[0], len(self._segments)
        block = max(1, _BLOCK_DRAWS // max(n, 1))
        n_blocks = -(-n_resamples // block)
        n_workers = max(1, min(_n_workers(), n_blocks))
        # per worker: one float64 count buffer and one block of int32 draws
        sums_bytes, buffer_bytes = n_resamples * k * n_groups * 8, n_workers * block * n * 12
        _check_memory(
            sums_bytes + buffer_bytes,
            f"resamples={n_resamples} needs about {_approx(sums_bytes + buffer_bytes)} B "
            f"({n_resamples}*{k}*{n_groups}*8 B of resample sums plus {_approx(buffer_bytes)} B of worker buffers)",
            _physical_memory(),
        )
        out = np.empty((n_resamples, k, n_groups))

        def run(first: int, last: int) -> None:
            counts = np.empty((block, n))  # this worker's, reused by each of its blocks
            for b in range(first, last):
                r = b * block
                m = min(block, n_resamples - r)
                _count_draws(np.random.SeedSequence(seed, spawn_key=(b,)), counts[:m])
                for g, (a, z) in enumerate(self._segments):
                    np.einsum("bn,kn->bk", counts[:m, a:z], self._rows[:, a:z], out=out[r:r + m, :, g])

        _in_parallel(run, n_blocks, n_workers)
        return _finite(out)

    def finish(self, sums: np.ndarray) -> np.ndarray:
        """The statistics of (R, k, n_groups) sums, one row per resample."""
        if self._finish is None:
            return sums.reshape(len(sums), -1)
        return self._finish(sums)

    def point(self) -> np.ndarray:
        """The statistic with every user counted once; each sum is pairwise over the group's users."""
        sums = np.empty((len(self._rows), len(self._segments)))
        with np.errstate(over="ignore"):
            for g, (a, b) in enumerate(self._segments):
                self._rows[:, a:b].sum(axis=1, out=sums[:, g])
        return self.finish(_finite(sums)[None])[0]


def bootstrap_ci(
    estimator: UserSums,
    log: RandomizedLog,
    n_resamples: int = 1000,
    seed: int = 0,
) -> BootstrapResult:
    """Percentile interval (CI_LEVEL) from whole-user resamples with replacement.

    `estimator` is a :class:`UserSums` over the log's users. The integer
    `seed` fixes every resample through the block streams of
    :meth:`UserSums.resample`, so the interval does not depend on the
    number of cores or BLAS threads. The user is the independence unit,
    so resampling never splits a user's records.
    """
    if n_resamples < 100:
        raise ValidationError("n_resamples must be >= 100")
    n = len(log)
    if estimator.n_users != n:
        raise ValidationError(f"statistic covers {estimator.n_users} users, log has {n}")
    stats = estimator.finish(estimator.resample(seed, n_resamples))
    tail = (1 - CI_LEVEL) / 2
    low = np.quantile(stats, tail, axis=0)
    high = np.quantile(stats, 1 - tail, axis=0)
    return BootstrapResult(low, high, estimator.point())


def _cluster_sums(log: RandomizedLog) -> UserSums:
    """Per-cluster dcost and dvalue sums, finished to (dcost, dvalue, mROI) per cluster."""
    arr = log.arrays
    nc = log.n_clusters
    lw = linear_weight(arr["theta"], log.spec)
    scale = np.array([_roi_scale(log, c) for c in range(nc)])

    def finish(sums: np.ndarray) -> np.ndarray:
        dcost, dvalue = sums[:, 0], sums[:, 1]
        return np.concatenate([dcost, dvalue, _mroi(dcost, dvalue, scale)], axis=1)

    per_user = np.stack([_terms(arr["cost"], lw), _terms(arr["value_predicted"], lw)])
    return UserSums(per_user, groups=arr["cluster"], n_groups=nc, finish=finish)


def cluster_estimates(log: RandomizedLog, n_resamples: int = 1000, seed: int = 0) -> list[ClusterRow]:
    """Per-cluster marginal cost/value derivatives and marginal ROI, as
    :func:`marginal_roi` gives them, with bootstrap CIs."""
    nc = log.n_clusters
    ci = bootstrap_ci(_cluster_sums(log), log, n_resamples=n_resamples, seed=seed)
    rows = []
    for c in range(nc):
        lo, hi = ci.low[2 * nc + c], ci.high[2 * nc + c]
        rows.append(replace(
            marginal_roi(log, c),
            dcost_ci=(float(ci.low[c]), float(ci.high[c])),
            dvalue_ci=(float(ci.low[nc + c]), float(ci.high[nc + c])),
            mroi_ci=(float(lo), float(hi)) if np.isfinite(lo) and np.isfinite(hi) else None,
        ))
    return rows


def _policy_delta_sums(log: RandomizedLog, policies: Sequence[PolicySpec]) -> UserSums:
    """Linear and exact value/cost deltas of each policy as sums over users;
    rows 4j to 4j + 3 are policy j's."""
    arr = log.arrays
    lw = linear_weight(arr["theta"], log.spec)
    rows = np.empty((4 * len(policies), len(log)))
    for j, policy in enumerate(policies):
        alphas = policy.multiplier_array(log.n_clusters)
        x = alphas[arr["cluster"]] - 1.0
        w_minus_1 = exact_weight(arr["theta"], log.spec, alphas[arr["cluster"]]) - 1.0
        rows[4 * j] = _terms(x * arr["value_predicted"], lw)
        rows[4 * j + 1] = _terms(x * arr["cost"], lw)
        rows[4 * j + 2] = _terms(arr["value_predicted"], w_minus_1)
        rows[4 * j + 3] = _terms(arr["cost"], w_minus_1)
    return UserSums(rows)


def _policy_delta_bootstraps(
    log: RandomizedLog, policies: Sequence[PolicySpec], n_resamples: int, seed: int
) -> list[BootstrapResult]:
    """:func:`policy_delta_bootstrap` of each policy, from one draw.

    Every policy is resampled from the same seed, so each result is byte
    for byte the one its own call gives.
    """
    if not policies:
        return []
    ci = bootstrap_ci(_policy_delta_sums(log, policies), log, n_resamples=n_resamples, seed=seed)
    return [BootstrapResult(ci.low[j:j + 4], ci.high[j:j + 4], ci.point[j:j + 4]) for j in range(0, len(ci.point), 4)]


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
    return _policy_delta_bootstraps(log, [policy], n_resamples, seed)[0]


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
    if n_samples < 2:  # each std has ddof=1
        raise ValidationError(f"n_samples must be >= 2, got {n_samples}")
    # theta, a weight array and two temporaries of the same size are held at once
    _check_memory(n_samples * 32, f"samples={n_samples} needs about {_approx(n_samples * 32)} B "
                  f"({n_samples}*4*8 B of samples, weights and temporaries)", _physical_memory())
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
