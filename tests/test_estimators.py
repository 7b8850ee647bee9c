import math
import os
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impatience import (
    BootstrapResult,
    IndependenceViolationError,
    PolicySpec,
    RandomizationSpec,
    RandomizedLog,
    UserSubset,
    ValidationError,
    assign_clusters,
    bootstrap_ci,
    cluster_estimates,
    exact_weight,
    exact_weight_std_analytic,
    ips_estimate,
    linear_weight,
    marginal_estimate,
    marginal_roi,
    policy_delta_bootstrap,
    weight_std_profile,
)
from impatience import estimators
from impatience.estimators import (
    CI_LEVEL,
    UserSums,
    _ClusterSums,
    _in_parallel,
    _policy_delta_bootstraps,
    _policy_delta_sums,
)

SPEC = RandomizationSpec(0.0, 0.3)


def synth_log(n=2000, seed=0, spec=SPEC, value_fn=None, cost_fn=None) -> RandomizedLog:
    rng = np.random.default_rng(seed)
    theta = rng.lognormal(spec.mu, spec.sigma, n)
    exposure = rng.integers(0, 8, n)
    cost = rng.exponential(1.0, n) * theta if cost_fn is None else cost_fn(theta, exposure, rng)
    value = cost * 0.8 if value_fn is None else value_fn(cost, theta, exposure, rng)
    return RandomizedLog(
        spec,
        tuple(f"u{i}" for i in range(n)),
        theta=theta,
        exposure_at_start=exposure,
        cluster=assign_clusters(exposure),
        cost=cost,
        value_observed=value,
        value_predicted=value,
        n_auctions=np.full(n, 5),
        n_wins=np.full(n, 2),
    )


class TestExactWeight:
    def test_alpha_one_is_identity(self):
        for theta in (0.01, 0.5, 1.0, 7.3):
            assert exact_weight(theta, SPEC, 1.0) == 1.0

    def test_centered_draw_unit_sigma(self):
        # theta = e^mu, sigma = 1, alpha = e -> exp(-1/2)
        spec = RandomizationSpec(0.4, 1.0)
        assert exact_weight(np.exp(0.4), spec, np.e) == pytest.approx(0.6065306597126334, rel=1e-12)

    def test_frozen_closed_form_value(self):
        # mu=0, sigma=1, alpha=2, theta=e -> exp(ln 2 - ln^2(2)/2)
        spec = RandomizationSpec(0.0, 1.0)
        assert exact_weight(np.e, spec, 2.0) == pytest.approx(1.5728994091188107, rel=1e-12)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValidationError):
            exact_weight(0.0, SPEC, 1.1)
        with pytest.raises(ValidationError):
            exact_weight(1.0, SPEC, 0.0)
        with pytest.raises(ValidationError):
            exact_weight(np.ones(3), SPEC, np.array([1.1, 0.0, 0.9]))

    def test_per_user_alpha_matches_one_alpha_per_group(self):
        rng = np.random.default_rng(3)
        theta = rng.lognormal(SPEC.mu, SPEC.sigma, 1000)
        alpha = rng.choice([0.8, 0.95, 1.05, 1.2], size=1000)
        w = exact_weight(theta, SPEC, alpha)
        for a in np.unique(alpha):
            # np.log may round a scalar and an array element differently by one ulp
            np.testing.assert_allclose(w[alpha == a], exact_weight(theta[alpha == a], SPEC, a), rtol=1e-14)

    def test_mean_weight_is_one(self):
        rng = np.random.default_rng(42)
        theta = rng.lognormal(SPEC.mu, SPEC.sigma, 100_000)
        for alpha in (0.9, 1.1, 1.2):
            w = exact_weight(theta, SPEC, alpha)
            se = w.std(ddof=1) / np.sqrt(len(w))
            assert abs(w.mean() - 1.0) < 3 * se


class TestLinearWeight:
    def test_centered_draw_is_zero(self):
        spec = RandomizationSpec(0.7, 0.5)
        assert linear_weight(np.exp(0.7), spec) == pytest.approx(0.0, abs=1e-12)

    def test_unit_deviation(self):
        spec = RandomizationSpec(0.0, 1.0)
        assert linear_weight(np.e, spec) == pytest.approx(1.0, rel=1e-12)

    def test_mean_linear_weight_is_zero(self):
        rng = np.random.default_rng(7)
        theta = rng.lognormal(SPEC.mu, SPEC.sigma, 100_000)
        lw = linear_weight(theta, SPEC)
        assert abs(lw.mean()) < 3 * lw.std(ddof=1) / np.sqrt(len(lw))

    @settings(max_examples=50, deadline=None)
    @given(
        mu=st.floats(-1, 1),
        sigma=st.floats(0.1, 1.5),
        z=st.floats(-3, 3),
    )
    def test_is_derivative_of_exact_weight_at_one(self, mu, sigma, z):
        spec = RandomizationSpec(mu, sigma)
        theta = float(np.exp(mu + sigma * z))
        h = 1e-6
        fd = (exact_weight(theta, spec, 1 + h) - exact_weight(theta, spec, 1 - h)) / (2 * h)
        lw = linear_weight(theta, spec)
        assert fd == pytest.approx(lw, rel=1e-4, abs=1e-7)

    def test_finite_difference_batch(self):
        rng = np.random.default_rng(3)
        theta = rng.lognormal(SPEC.mu, SPEC.sigma, 1000)
        h = 1e-6
        fd = (exact_weight(theta, SPEC, 1 + h) - exact_weight(theta, SPEC, 1 - h)) / (2 * h)
        lw = linear_weight(theta, SPEC)
        assert np.allclose(fd, lw, rtol=1e-4)


class TestIpsEstimate:
    def test_identity_policy_is_raw_sum(self):
        log = synth_log()
        ones = PolicySpec({c: 1.0 for c in range(6)})
        total = ips_estimate(log, "cost", policy=ones)
        assert total == pytest.approx(float(log.arrays["cost"].sum()), rel=1e-12)
        assert ips_estimate(log, "cost") == pytest.approx(total, rel=1e-12)

    def test_empty_subset_is_zero(self):
        log = synth_log()
        assert ips_estimate(log, "cost", subset=UserSubset(clusters=frozenset())) == 0.0

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValidationError, match="metric"):
            ips_estimate(synth_log(), "profit")

    def test_partition_reassociation(self):
        # estimator is a pure fold: summing per-cluster partials matches the total
        log = synth_log(n=5000, seed=4)
        policy = PolicySpec({c: 1.0 + 0.02 * (c - 2) for c in range(6)}, cap_delta=0.2)
        total = ips_estimate(log, "cost", policy=policy)
        partials = [
            ips_estimate(log, "cost", subset=UserSubset(clusters=frozenset({c})), policy=policy)
            for c in range(6)
        ]
        assert sum(partials) == pytest.approx(total, rel=1e-10)

    def test_raw_predicate_rejected(self):
        log = synth_log()
        with pytest.raises(IndependenceViolationError):
            ips_estimate(log, "cost", subset=lambda u: u.cost > 1)

    def test_unsafe_subset_needs_explicit_opt_in(self):
        log = synth_log(n=50)
        tainted = UserSubset.unsafe_from_mask([True] * 50)
        with pytest.raises(IndependenceViolationError):
            ips_estimate(log, "cost", subset=tainted)
        # with the escape hatch it computes (and matches the safe full-set sum here)
        full = ips_estimate(log, "cost", subset=tainted, allow_unsafe=True)
        assert full == pytest.approx(ips_estimate(log, "cost"), rel=1e-12)
        with pytest.raises(ValidationError, match="^mask length 49 != log size 50$"):
            ips_estimate(log, "cost", subset=UserSubset.unsafe_from_mask([True] * 49), allow_unsafe=True)


class TestMarginalEstimate:
    def test_zero_metric_gives_zero(self):
        log = synth_log(cost_fn=lambda t, e, rng: np.zeros(len(t)))
        assert marginal_estimate(log, "cost") == 0.0

    def test_single_centered_user(self):
        log = RandomizedLog(SPEC, ("u0",), theta=[1.0], exposure_at_start=[0], cluster=[0], cost=[1.0],
                            value_observed=[1.0], value_predicted=[1.0], n_auctions=[1], n_wins=[1])
        assert marginal_estimate(log, "cost") == 0.0


class TestMarginalRoi:
    def test_value_equal_cost_gives_one(self):
        log = synth_log(value_fn=lambda cost, t, e, rng: cost)
        roi = marginal_roi(log, cluster=None)
        assert roi.defined
        assert roi.mroi == pytest.approx(1.0, rel=1e-9)

    def test_value_twice_cost_gives_two(self):
        log = synth_log(value_fn=lambda cost, t, e, rng: 2 * cost)
        roi = marginal_roi(log, cluster=None)
        assert roi.mroi == pytest.approx(2.0, rel=1e-9)

    def test_degenerate_denominator_is_undefined(self):
        log = synth_log(cost_fn=lambda t, e, rng: np.zeros(len(t)))
        roi = marginal_roi(log, cluster=None)
        assert not roi.defined
        assert roi.mroi is None
        assert roi.dcost == 0.0


@pytest.mark.filterwarnings("error")
class TestOverflow:
    """A log value whose weighted term or sum leaves the float range is an error of the log, not an inf."""

    MESSAGE = "overflows a float"

    def log(self, thetas, cost=1e308) -> RandomizedLog:
        n = len(thetas)
        return RandomizedLog(SPEC, tuple(f"u{i}" for i in range(n)), theta=thetas, exposure_at_start=[0] * n,
                             cluster=[0] * n, cost=[cost] * n, value_observed=[1.0] * n, value_predicted=[1.0] * n,
                             n_auctions=[1] * n, n_wins=[1] * n)

    def test_overflowing_term(self):
        # ln(theta) / sigma**2 = 10, so 1e308 times the weight is past the float range
        log = self.log([math.exp(0.9)])
        for estimate in (lambda: marginal_estimate(log, "cost"), lambda: marginal_roi(log, 0),
                         lambda: cluster_estimates(log, n_resamples=100)):
            with pytest.raises(ValidationError, match=self.MESSAGE):
                estimate()

    def test_overflowing_exact_weight(self):
        log = self.log([1e300], cost=1.0)
        with pytest.raises(ValidationError, match=self.MESSAGE):
            ips_estimate(log, "cost", policy=PolicySpec({0: 1.2}))

    def test_overflowing_fsum(self):
        # each term is about 1e308, their sum is not a float: fsum raises OverflowError
        with pytest.raises(ValidationError, match=self.MESSAGE):
            estimators.compensated_sum([1e308, 1e308])
        with pytest.raises(ValidationError, match=self.MESSAGE):
            marginal_estimate(self.log([math.exp(0.09)] * 2), "cost")

    def test_overflowing_point_and_resample_sums(self):
        with pytest.raises(ValidationError, match=self.MESSAGE):
            UserSums(np.array([[1e308, 1e308]])).point()
        # most resamples of two users draw the first one twice
        with pytest.raises(ValidationError, match=self.MESSAGE):
            UserSums(np.array([[1e308, 1.0]])).resample(0, 100)


class TestPoint:
    def test_point_is_exactly_rounded(self):
        # a pairwise or left-to-right float sum loses the 1.0 against 1e16, in one group or in several
        assert UserSums(np.array([[1e16, 1.0, -1e16]])).point().tolist() == [1.0]
        grouped = UserSums(np.array([[1e16, 2.0, 1.0, 3.0, -1e16]]), groups=np.array([1, 0, 1, 0, 1]), n_groups=3)
        assert grouped.point().tolist() == [5.0, 1.0, 0.0]


def resample_users(n, n_resamples, seed, groups=None):
    """Each resample's drawn users, in resample order, under the block stream
    contract of `UserSums.resample`: blocks of max(1, 2**16 // n) resamples,
    block b drawn in one `integers(0, n, (m, n))` call from child b of
    `SeedSequence(seed)`. A draw is a position in the users sorted (stably)
    by `groups`, mapped back to the user here."""
    order = np.arange(n) if groups is None else np.argsort(groups, kind="stable")
    block = max(1, 2**16 // n)
    n_blocks = -(-n_resamples // block)
    for b, stream in enumerate(np.random.SeedSequence(seed).spawn(n_blocks)):
        m = min(block, n_resamples - b * block)
        yield from order[np.random.Generator(np.random.PCG64(stream)).integers(0, n, (m, n))]


def index_bootstrap(estimator, n, n_resamples, seed):
    """Reference percentile interval from whole-user resamples: `estimator`
    is applied to each resample's drawn users (`resample_users`)."""
    stats = np.array([estimator(idx) for idx in resample_users(n, n_resamples, seed)])
    tail = (1 - CI_LEVEL) / 2
    return BootstrapResult(np.quantile(stats, tail, axis=0), np.quantile(stats, 1 - tail, axis=0),
                           np.asarray(estimator(np.arange(n)), dtype=np.float64))


class TestBootstrap:
    def test_constant_estimator_zero_width(self):
        # every resample draws n users, so the sum of a column of ones is n in each
        ci = bootstrap_ci(UserSums(np.ones((1, 300))), n_resamples=200, seed=0)
        assert ci.low.tolist() == ci.high.tolist() == ci.point.tolist() == [300.0]

    def test_deterministic_given_seed(self):
        log = synth_log(n=500)
        mean_cost = UserSums(log.arrays["cost"][None] / len(log))
        a = bootstrap_ci(mean_cost, n_resamples=200, seed=9)
        b = bootstrap_ci(mean_cost, n_resamples=200, seed=9)
        for x, y in ((a.low, b.low), (a.high, b.high), (a.point, b.point)):
            np.testing.assert_array_equal(x, y)

    def test_normal_theory_width_for_log_theta_mean(self):
        # mean of ln(theta), sigma=0.3, n=1e4: width ~ 2 * 1.96 * 0.3 / 100
        log = synth_log(n=10_000, seed=11)
        lt = np.log(log.arrays["theta"])
        ci = bootstrap_ci(UserSums(lt[None] / len(log)), n_resamples=1000, seed=1)
        width = ci.high[0] - ci.low[0]
        assert width == pytest.approx(0.01176, rel=0.20)

    def test_resample_floor_enforced(self):
        with pytest.raises(ValidationError):
            bootstrap_ci(UserSums(np.ones((1, 10))), n_resamples=50)


def gather_sums(rows, seed, n_resamples, cluster=None, n_clusters=1):
    """Reference (R, k, n_clusters) resample sums of the (k, n) per-user
    `rows`: gather each resample's drawn users, then sum them per cluster."""
    n = rows.shape[1]
    cluster = np.zeros(n, dtype=np.int64) if cluster is None else cluster
    return np.array([[np.bincount(cluster[idx], weights=row[idx], minlength=n_clusters) for row in rows]
                     for idx in resample_users(n, n_resamples, seed, cluster)])


POLICY = PolicySpec({0: 1.2, 1: 1.1, 2: 0.95, 3: 0.9, 4: 0.8, 5: 1.05})


def cluster_rows(log):
    lw = linear_weight(log.arrays["theta"], SPEC)
    return np.stack([log.arrays["cost"] * lw, log.arrays["value_predicted"] * lw])


def policy_delta_rows(log, policy):
    arr = log.arrays
    alpha = policy.multiplier_array(log.n_clusters)[arr["cluster"]]
    lw = linear_weight(arr["theta"], SPEC)
    w1 = np.empty(len(log))
    for c, a in enumerate(policy.multiplier_array(log.n_clusters)):
        mask = arr["cluster"] == c
        w1[mask] = exact_weight(arr["theta"][mask], SPEC, a) - 1.0
    return np.stack([(alpha - 1) * arr["value_predicted"] * lw, (alpha - 1) * arr["cost"] * lw,
                     arr["value_predicted"] * w1, arr["cost"] * w1])


class TestResampleCounts:
    """The count kernel against a gather of every resample's drawn users."""

    def check_close(self, got, rows, seed, cluster=None, n_clusters=1):
        # the same terms summed in another order: within 1e-12 of the sum of
        # their magnitudes, which stays meaningful when a sum cancels
        ref = gather_sums(rows, seed, len(got), cluster, n_clusters)
        scale = gather_sums(np.abs(rows), seed, len(got), cluster, n_clusters)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-12 * scale)

    def test_cluster_sums_match_gather(self):
        log = synth_log(n=3000, seed=21)
        got = _ClusterSums(log).resample(4, 200)
        self.check_close(got, cluster_rows(log), 4, log.arrays["cluster"], log.n_clusters)

    def test_policy_delta_sums_match_gather(self):
        log = synth_log(n=3000, seed=22)
        got = _policy_delta_sums(log, [POLICY]).resample(5, 200)
        self.check_close(got, policy_delta_rows(log, POLICY), 5)

    @pytest.mark.parametrize("kind", ["cluster", "policy_delta"])
    def test_consumes_the_same_draws_as_the_index_form(self, kind):
        # one unit row per user sums to how often each resample drew that user;
        # 500 resamples of 300 users are two full blocks of 218 and a short one
        log = synth_log(n=300, seed=23)
        groups = log.arrays["cluster"] if kind == "cluster" else None
        stat = UserSums(np.eye(len(log)), groups=groups, n_groups=log.n_clusters if kind == "cluster" else 1)
        counts = stat.resample(6, 500).sum(axis=2)
        expected = [np.bincount(idx, minlength=len(log)) for idx in resample_users(len(log), 500, 6, groups)]
        np.testing.assert_array_equal(counts, expected)

    def test_policy_delta_ci_matches_index_form(self):
        log = synth_log(n=1000, seed=24)
        rows = policy_delta_rows(log, POLICY)
        P = np.ascontiguousarray(rows.T)
        ci = policy_delta_bootstrap(log, POLICY, 150, 8)
        gathered = index_bootstrap(lambda idx: P[idx].sum(axis=0), len(log), 150, 8)
        scale = np.abs(rows).sum(axis=1)
        for a, b in ((ci.low, gathered.low), (ci.high, gathered.high), (ci.point, gathered.point)):
            assert np.all(np.abs(a - b) <= 1e-12 * scale)

    def test_cluster_finish_is_dcost_dvalue_and_their_ratio(self):
        log = synth_log(n=3000, seed=25)
        stat = _ClusterSums(log)
        sums = stat.resample(7, 100)
        stats = stat.finish(sums)
        nc = log.n_clusters
        np.testing.assert_array_equal(stats[:, :nc], sums[:, 0])
        np.testing.assert_array_equal(stats[:, nc:2 * nc], sums[:, 1])
        np.testing.assert_array_equal(stats[:, 2 * nc:], sums[:, 1] / sums[:, 0])


class TestBlockPool:
    """Blocks of resamples on a thread pool the size of the usable cores."""

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_sums_do_not_depend_on_the_worker_count(self, monkeypatch, workers):
        # 3000 users make blocks of 21 resamples: 130 resamples are 7 blocks,
        # split unevenly; a short switch interval interleaves the workers often
        log = synth_log(n=3000, seed=26)
        stat = _ClusterSums(log)
        monkeypatch.setattr(estimators, "_n_workers", lambda: 1)
        one = stat.resample(9, 130)
        monkeypatch.setattr(estimators, "_n_workers", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = stat.resample(9, 130)
        finally:
            sys.setswitchinterval(interval)
        assert many.tobytes() == one.tobytes()

    @pytest.mark.parametrize("cores,n_resamples", [(1, 500), (2, 500), (3, 500), (8, 500), (8, 100)])
    def test_never_starts_more_threads_than_cores(self, monkeypatch, cores, n_resamples):
        started = []

        class CountedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", CountedThread)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        # 300 users make blocks of 218 resamples: 500 resamples are 3 blocks, 100 are 1
        UserSums(np.ones((1, 300))).resample(0, n_resamples)
        n_blocks = -(-n_resamples // 218)
        # the calling thread runs the first range of blocks itself
        assert len(started) + 1 == min(cores, n_blocks)

    def test_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert estimators._n_workers() == 3

    def test_worker_exception_propagates(self):
        ran = []

        def task(first, last):
            ran.append((first, last))
            if first == 2:
                raise ZeroDivisionError("worker failed")

        with pytest.raises(ZeroDivisionError, match="worker failed"):
            _in_parallel(task, 4, 2)
        assert sorted(ran) == [(0, 2), (2, 4)]

    @pytest.mark.parametrize("n_users,n_resamples", [(3000, 10**4), (70_000, 10**9)])
    def test_memory_estimate_is_checked_before_drawing(self, monkeypatch, n_users, n_resamples):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before the size check")

        monkeypatch.setattr(np.random, "SeedSequence", no_draws)
        monkeypatch.setattr(estimators, "_physical_memory", lambda: 10**6)
        monkeypatch.setattr(estimators, "_n_workers", lambda: 2)
        groups = np.arange(n_users) % 6
        stat = UserSums(np.ones((2, n_users)), groups=groups, n_groups=6)
        # R resamples * 2 sums * 6 groups * 8 B, plus per worker a block of
        # max(1, 2**16 // n) resamples * n users * 12 B (1 resample at 70k users)
        block = max(1, 2**16 // n_users)
        needed = n_resamples * 2 * 6 * 8 + 2 * block * n_users * 12
        with pytest.raises(ValidationError, match=re.escape(f"resamples={n_resamples:.3g} needs about {needed:.3g} B")):
            stat.resample(0, n_resamples)

    @pytest.mark.parametrize("page_size,pages", [(-1, 10**6), (4096, -1), (0, 0)])
    def test_indeterminate_physical_memory_checks_nothing(self, monkeypatch, page_size, pages):
        # os.sysconf returns -1 without raising when a value is indeterminate
        values = {"SC_PAGE_SIZE": page_size, "SC_PHYS_PAGES": pages}
        monkeypatch.setattr(os, "sysconf", values.__getitem__)
        assert estimators._physical_memory() == math.inf
        UserSums(np.ones((1, 300))).resample(0, 100)

    def test_stacked_policies_equal_separate_calls(self):
        log = synth_log(n=2000, seed=28)
        policies = [POLICY, PolicySpec({1: 1.2, 4: 0.9}), PolicySpec({})]
        stacked = _policy_delta_bootstraps(log, policies, 150, 3)
        for policy, got in zip(policies, stacked):
            alone = policy_delta_bootstrap(log, policy, 150, 3)
            for a, b in ((got.low, alone.low), (got.high, alone.high), (got.point, alone.point)):
                assert a.tobytes() == b.tobytes()
        assert _policy_delta_bootstraps(log, [], 150, 3) == []


class TestClusterEstimates:
    def test_rows_cover_all_clusters(self):
        log = synth_log(n=3000, seed=2)
        rows = cluster_estimates(log, n_resamples=200, seed=0)
        assert [r.cluster for r in rows] == list(range(6))
        assert sum(r.n_users for r in rows) == len(log)

    def test_point_estimates_match_direct_marginals(self):
        # both are exactly rounded sums of the same terms, so they agree to the bit
        log = synth_log(n=2000, seed=5)
        rows = cluster_estimates(log, n_resamples=200, seed=0)
        for r in rows:
            assert r.dcost == marginal_estimate(log, "cost", r.cluster)
            assert r.dvalue == marginal_estimate(log, "value_predicted", r.cluster)
            assert r.mroi == marginal_roi(log, r.cluster).mroi

    def test_undefined_mroi_matches_marginal_roi(self):
        # cluster 0 spends nothing and cluster 5 keeps no users: mROI is undefined in both
        def no_cost_at_exposure_0(theta, exposure, rng):
            return np.where(exposure == 0, 0.0, rng.exponential(1.0, len(theta)))

        full = synth_log(n=1000, seed=7, cost_fn=no_cost_at_exposure_0)
        keep = full.cluster != 5
        ids = tuple(u for u, k in zip(full.user_ids, keep) if k)
        log = RandomizedLog(SPEC, ids, **{f: column[keep] for f, column in full.arrays.items()})
        rows = cluster_estimates(log, n_resamples=100, seed=0)
        assert rows[5].n_users == 0
        assert rows[0].mroi is None and rows[5].mroi is None
        for r in rows:
            assert r.mroi == marginal_roi(log, r.cluster).mroi

    def test_points_and_resamples_share_the_mroi_rule(self):
        # the statistic a resample finishes, given the point's sums, must be
        # defined exactly where marginal_roi is, and equal to it there
        def no_cost_at_exposure_0(theta, exposure, rng):
            return np.where(exposure == 0, 0.0, rng.exponential(1.0, len(theta)))

        log = synth_log(n=1000, seed=7, cost_fn=no_cost_at_exposure_0)
        rois = [marginal_roi(log, c) for c in range(log.n_clusters)]
        sums = np.array([[[roi.dcost for roi in rois], [roi.dvalue for roi in rois]]])
        finished = _ClusterSums(log).finish(sums)[0, 2 * log.n_clusters:]
        assert [None if np.isnan(m) else float(m) for m in finished] == [roi.mroi for roi in rois]
        assert rois[0].mroi is None

    def test_one_linear_weight_pass(self, monkeypatch):
        calls = []

        def counted(theta, spec):
            calls.append(len(theta))
            return linear_weight(theta, spec)

        log = synth_log(n=2000, seed=5)
        monkeypatch.setattr(estimators, "linear_weight", counted)
        cluster_estimates(log, n_resamples=100, seed=0)
        assert calls == [len(log)]

    def test_ci_brackets_point(self):
        log = synth_log(n=3000, seed=6)
        for r in cluster_estimates(log, n_resamples=300, seed=1):
            assert r.dcost_ci[0] <= r.dcost <= r.dcost_ci[1]
            assert r.dvalue_ci[0] <= r.dvalue <= r.dvalue_ci[1]


class TestWeightStdProfile:
    def test_samples_beyond_physical_memory_are_refused_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before the size check")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        monkeypatch.setattr(estimators, "_physical_memory", lambda: 10**6)
        # 4 float64 arrays of n samples: 31250 samples fill 10**6 B exactly
        with pytest.raises(AssertionError, match="drew before the size check"):
            weight_std_profile(SPEC, [1.0], n_samples=31_250)
        with pytest.raises(ValidationError, match=re.escape("samples=3.13e+04 needs about 1e+06 B")):
            weight_std_profile(SPEC, [1.0], n_samples=31_251)

    @pytest.mark.parametrize("alphas,shown", [([0.0], "0.0"), ([1.1, -1], "-1.0")])
    def test_alpha_is_checked_before_drawing(self, monkeypatch, alphas, shown):
        # an alpha of 0 was once rejected only after every sample was drawn: 494 MB at 2e7 samples
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before the alpha check")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValidationError, match=f"^alpha must be > 0, got {re.escape(shown)}$"):
            weight_std_profile(SPEC, alphas, n_samples=20_000_000)

    def test_alpha_one_has_zero_spread(self):
        rows = weight_std_profile(SPEC, [1.0], n_samples=5000, seed=0)
        assert rows[0].std_exact == 0.0
        assert rows[0].std_linear == 0.0

    def test_matches_analytic_std(self):
        rows = weight_std_profile(SPEC, [0.9, 1.1, 1.2], n_samples=200_000, seed=1)
        for row in rows:
            assert row.std_exact == pytest.approx(
                exact_weight_std_analytic(SPEC, row.alpha), rel=0.03
            )

    def test_linear_profile_value(self):
        # std((ln theta - mu)/sigma^2) = 1/sigma, so |0.2| / 0.3 at alpha=1.2
        rows = weight_std_profile(SPEC, [1.2], n_samples=200_000, seed=2)
        assert rows[0].std_linear == pytest.approx(0.2 / 0.3, rel=0.02)

    def test_linear_profile_exactly_linear_in_alpha(self):
        rows = weight_std_profile(SPEC, [1.05, 1.1, 1.2, 1.4], n_samples=2000, seed=3)
        base = rows[0].std_linear / 0.05
        for row in rows:
            assert row.std_linear == pytest.approx(abs(row.alpha - 1) * base, rel=1e-12)
