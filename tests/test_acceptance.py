"""End-to-end acceptance checks, one test per criterion.

These pin the statistical and numerical guarantees of the whole
pipeline against independent oracles: closed forms where they exist,
re-simulation (with paired random numbers) where they do not. Each
test prints a single summary line with the quantities it checked.

Monte-Carlo checks use pinned seeds so the suite is deterministic;
tolerances are stated next to each assertion.
"""

import time

import numpy as np
import pytest

from impatience import (
    Distribution,
    PolicySpec,
    RandomizationSpec,
    ReallocationProblem,
    UserSubset,
    assign_clusters,
    calibration_curve,
    cluster_estimates,
    events_from_trace,
    exact_weight,
    exact_weight_std_analytic,
    fit_ctr,
    ips_estimate,
    linear_weight,
    marginal_estimate,
    marginal_roi,
    solve_reallocation_detailed,
    two_auction_demo,
    weight_std_profile,
)
from impatience.estimators import policy_delta_bootstrap as _delta_bootstrap
from impatience.simulator import (
    BidPolicy,
    default_config,
    default_randomization,
    oracle_cluster_outcomes,
    oracle_policy_outcome,
    simulate_display_trace,
    simulate_log,
)

SPEC = default_randomization()
N_CLUSTERS = 6


@pytest.fixture(scope="module")
def desk_log():
    """The desk-scale reference log: 100k users, default world, seed 0."""
    return simulate_log(default_config(100_000), SPEC, seed=0)


def global_policy(alpha: float) -> BidPolicy:
    return BidPolicy(
        kind="cluster_multiplier", randomization=SPEC, multipliers=(alpha,) * N_CLUSTERS
    )


def sum_se(values: np.ndarray) -> float:
    """Standard error of a sum of independent per-user terms."""
    return float(np.std(values, ddof=1) * np.sqrt(len(values)))


class TestAcceptance:
    def test_criterion_01_exact_weight_mean_is_one(self):
        # 1e5 lognormal draws (mu=0, sigma=0.3): mean exact weight is 1
        # within 3 empirical standard errors at every multiplier, in < 5 s.
        t0 = time.time()
        rng = np.random.default_rng(0)
        theta = rng.lognormal(SPEC.mu, SPEC.sigma, 100_000)
        worst = 0.0
        for alpha in (0.8, 0.9, 1.1, 1.2, 1.5, 2.0):
            w = exact_weight(theta, SPEC, alpha)
            se = w.std(ddof=1) / np.sqrt(len(w))
            z = abs(float(w.mean()) - 1.0) / se
            assert z < 3.0, f"alpha={alpha}: mean weight off by {z:.2f} SE"
            worst = max(worst, z)
        elapsed = time.time() - t0
        assert elapsed < 5.0
        print(f"criterion 1 PASS: mean exact weight = 1 within 3 SE at all alphas "
              f"(max |z| = {worst:.2f}, {elapsed:.1f}s)")

    def test_criterion_02_linearized_estimator_consistency(self, desk_log):
        # (a) linear_weight is the alpha-derivative of exact_weight at 1
        rng = np.random.default_rng(2)
        theta = rng.lognormal(SPEC.mu, SPEC.sigma, 1000)
        h = 1e-6
        fd = (exact_weight(theta, SPEC, 1 + h) - exact_weight(theta, SPEC, 1 - h)) / (2 * h)
        lw = linear_weight(theta, SPEC)
        rel = np.max(np.abs(fd - lw) / np.maximum(np.abs(lw), 1e-12))
        assert rel < 1e-4

        # (b) the cost marginal matches a paired oracle finite difference
        # (multipliers 1 +/- 0.05, 20 replications of 100k users)
        est = marginal_estimate(desk_log, "cost")
        arr = desk_log.arrays
        se_est = sum_se(arr["cost"] * linear_weight(arr["theta"], SPEC))
        cfg = default_config(100_000)
        up, dn = global_policy(1.05), global_policy(0.95)
        fds = []
        for r in range(20):
            cost_up = oracle_policy_outcome(cfg, up, 1, seed=300 + r).cost
            cost_dn = oracle_policy_outcome(cfg, dn, 1, seed=300 + r).cost
            fds.append((cost_up - cost_dn) / 0.1)
        fds = np.asarray(fds)
        se_fd = fds.std(ddof=1) / np.sqrt(len(fds))
        z = (est - fds.mean()) / np.hypot(se_est, se_fd)
        assert abs(z) < 3.0, f"marginal estimate off oracle FD by {z:.2f} combined SE"
        print(f"criterion 2 PASS: weight derivative rel err {rel:.1e} < 1e-4; "
              f"cost marginal {est:,.0f} vs oracle FD {fds.mean():,.0f} (|z| = {abs(z):.2f})")

    def test_criterion_03_exact_ips_matches_oracle_resimulation(self, desk_log):
        t0 = time.time()
        cfg = default_config(100_000)
        arr = desk_log.arrays
        worst = 0.0
        for alpha in (0.9, 1.1):
            policy = PolicySpec({c: alpha for c in range(N_CLUSTERS)})
            oracle = oracle_policy_outcome(cfg, global_policy(alpha), 20, seed=600)
            w = exact_weight(arr["theta"], SPEC, alpha)
            for metric, o_total, o_se in (
                ("cost", oracle.cost, oracle.cost_se),
                ("value_predicted", oracle.value, oracle.value_se),
            ):
                est = ips_estimate(desk_log, metric, policy=policy)
                z = abs(est - o_total) / np.hypot(sum_se(arr[metric] * w), o_se)
                assert z < 3.0, f"alpha={alpha} {metric}: |z| = {z:.2f}"
                worst = max(worst, z)
        elapsed = time.time() - t0
        assert elapsed < 120.0
        print(f"criterion 3 PASS: exact IPS matches oracle re-simulation at alpha 0.9/1.1 "
              f"for cost and value (max |z| = {worst:.2f}, {elapsed:.0f}s)")

    def test_criterion_04_weight_spread_profile(self):
        # empirical exact-weight std vs the closed form, 1e6 draws.
        alphas = (0.5, 0.8, 0.9, 1.0, 1.1, 1.2, 1.5, 2.0)
        n = 1_000_000
        rows = weight_std_profile(SPEC, alphas, n_samples=n, seed=1)
        theta = np.random.default_rng(1).lognormal(SPEC.mu, SPEC.sigma, n)
        worst = 0.0
        for row in rows:
            analytic = exact_weight_std_analytic(SPEC, row.alpha)
            if row.alpha == 1.0:
                assert row.std_exact == 0.0 and analytic == 0.0
                continue
            # MC error of the sample std via the delta method on the
            # sample variance (heavy-tailed at large alpha, honestly so)
            c = exact_weight(theta, SPEC, row.alpha)
            c = c - c.mean()
            se_std = np.std(c * c, ddof=1) / np.sqrt(n) / (2 * np.sqrt(c.var(ddof=1)))
            z = abs(row.std_exact - analytic) / se_std
            assert z < 3.0, f"alpha={row.alpha}: std off closed form by {z:.2f} MC SE"
            worst = max(worst, z)

        # at alpha=2 the exact spread exceeds the linearized one by > 10
        # (analytic: sqrt(exp(ln(2)^2/0.09) - 1) = 14.39 vs 1/0.3 = 3.33)
        at2 = next(r for r in rows if r.alpha == 2.0)
        analytic_excess = exact_weight_std_analytic(SPEC, 2.0) - 1.0 / SPEC.sigma
        assert analytic_excess > 10.0
        assert at2.std_exact - at2.std_linear > 10.0

        # the linearized profile is exactly linear in |alpha - 1|
        slopes = [r.std_linear / abs(r.alpha - 1) for r in rows if r.alpha != 1.0]
        assert max(slopes) - min(slopes) < 1e-9 * max(slopes)
        print(f"criterion 4 PASS: exact-weight std matches closed form (max |z| = {worst:.2f}); "
              f"excess over linearized at alpha=2 is {at2.std_exact - at2.std_linear:.2f} > 10; "
              f"linearized profile exactly linear")

    def test_criterion_05_cluster_roi_monotone_and_covered(self):
        # oracle per-bucket ROI by paired finite differences (30 paired
        # replications at multipliers 1 +/- 0.05); fixed per-user
        # multipliers mean bucket outcomes decouple, so one up/down pair
        # covers every bucket at once.
        cfg = default_config(100_000)
        up, dn = global_policy(1.05), global_policy(0.95)
        vu, cu, vd, cd = [], [], [], []
        for r in range(30):
            o_up = oracle_cluster_outcomes(cfg, up, 1, seed=500 + r)
            o_dn = oracle_cluster_outcomes(cfg, dn, 1, seed=500 + r)
            vu.append(o_up["value"]); cu.append(o_up["cost"])
            vd.append(o_dn["value"]); cd.append(o_dn["cost"])
        vu, cu, vd, cd = map(np.asarray, (vu, cu, vd, cd))
        oracle_roi = (vu.mean(0) - vd.mean(0)) / (cu.mean(0) - cd.mean(0))

        covered = np.zeros(N_CLUSTERS)
        monotone = 0
        reps = 20
        for rep in range(reps):
            log = simulate_log(cfg, SPEC, seed=1000 + rep)
            rows = cluster_estimates(log, n_resamples=400, seed=rep)
            points = [row.mroi for row in rows]
            monotone += all(a >= b for a, b in zip(points[:5], points[1:5]))
            for b in range(N_CLUSTERS):
                lo, hi = rows[b].mroi_ci
                covered[b] += lo <= oracle_roi[b] <= hi
        assert monotone == reps, f"mROI monotone over buckets 0-4 in only {monotone}/{reps} reps"
        assert covered.min() >= 0.9 * reps, f"bootstrap CI coverage per bucket: {covered}"
        print(f"criterion 5 PASS: mROI non-increasing over buckets 0-4 in {monotone}/{reps} reps; "
              f"CI coverage of oracle ROI per bucket {covered.astype(int).tolist()} / {reps} "
              f"(oracle ROI {np.round(oracle_roi, 3).tolist()})")

    def test_criterion_06_solver_matches_brute_force_grid(self):
        # 200 random instances vs a grid search (step 1e-3 on the free
        # coordinates, the last coordinate solved for exact neutrality)
        rng = np.random.default_rng(66)
        step = 1e-3
        worst_gap = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 5))
            cap = 0.05 if n == 4 else float(rng.choice([0.05, 0.1, 0.2]))
            dcost = rng.uniform(0.1, 3.0, n)
            dvalue = rng.uniform(-1.0, 3.0, n)
            clusters = tuple((i, float(dcost[i]), float(dvalue[i])) for i in range(n))
            result = solve_reallocation_detailed(
                ReallocationProblem(clusters=clusters, cap_delta=cap)
            )
            x = np.array([result.policy.multipliers[i] - 1.0 for i in range(n)])
            assert np.all(np.abs(x) <= cap + 1e-12)
            assert abs(x @ dcost) <= 1e-12 * dcost.sum()

            axis = np.linspace(-cap, cap, round(2 * cap / step) + 1)
            best = 0.0
            for j in range(n):  # balancing coordinate solved continuously
                free = [i for i in range(n) if i != j]
                grid = np.stack(
                    np.meshgrid(*([axis] * (n - 1)), indexing="ij")
                ).reshape(n - 1, -1)
                xj = -(dcost[free] @ grid) / dcost[j]
                ok = np.abs(xj) <= cap + 1e-12
                if not ok.any():
                    continue
                obj = dvalue[free] @ grid[:, ok] + xj[ok] * dvalue[j]
                best = max(best, float(obj.max()))
            gap = abs(result.objective - best)
            assert gap <= 2e-3 * np.abs(dvalue).max(), f"objective gap {gap:.2e}"
            worst_gap = max(worst_gap, gap)
        print(f"criterion 6 PASS: 200 random instances within 2e-3*max|dvalue| of grid "
              f"search (worst gap {worst_gap:.2e}); all solutions in the box and "
              f"cost-neutral to 1e-12 relative")

    def test_criterion_07_ci_widths_across_amplitude_sweep(self, desk_log):
        # per-amplitude policy from the point-estimate marginals, then
        # user-level bootstrap widths for linear and exact deltas
        widths = {}
        for delta in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
            policy = _point_estimate_policy(desk_log, delta)
            ci = _delta_bootstrap(desk_log, policy, 400, 0)
            widths[delta] = tuple(ci.high[j] - ci.low[j] for j in range(4))
        sweep = [d for d in widths if d >= 0.1]
        for d in sweep:
            w_value_lin, w_cost_lin, w_value_exact, w_cost_exact = widths[d]
            assert w_value_lin < w_value_exact, f"delta={d}: value widths"
            assert w_cost_lin < w_cost_exact, f"delta={d}: cost widths"
        ratios = [widths[d][2] / d for d in sweep]
        assert all(b > a for a, b in zip(ratios, ratios[1:])), (
            f"exact CI width not superlinear: width/delta = {ratios}"
        )
        print(f"criterion 7 PASS: linearized CI narrower than exact for all deltas >= 0.1; "
              f"exact width/delta increases {[round(r) for r in ratios]}")

    def test_criterion_08_end_to_end_value_up_cost_flat(self, desk_log):
        # recipe: marginals -> capped reallocation (0.2) -> paired oracle
        # A/B, 10 replications x 50k users x 2 arms = 1e6 users total
        t0 = time.time()
        policy = _point_estimate_policy(desk_log, 0.2)
        cfg = default_config(50_000)
        baseline = BidPolicy.impatient(SPEC)
        treated = BidPolicy.from_policy_spec(SPEC, policy, N_CLUSTERS)
        dv, dc, base_v, base_c = [], [], [], []
        for r in range(10):
            b = oracle_policy_outcome(cfg, baseline, 1, seed=100 + r)
            t = oracle_policy_outcome(cfg, treated, 1, seed=100 + r)
            dv.append(t.value - b.value)
            dc.append(t.cost - b.cost)
            base_v.append(b.value)
            base_c.append(b.cost)
        dv, dc = np.asarray(dv), np.asarray(dc)
        dv_lo = dv.mean() - 1.96 * dv.std(ddof=1) / np.sqrt(len(dv))
        rel_dv = dv.mean() / np.mean(base_v)
        rel_dc = dc.mean() / np.mean(base_c)
        assert dv_lo > 0.0, "value lift CI does not exclude zero"
        assert abs(rel_dc) < 0.005, f"cost moved by {rel_dc:.4%}"
        elapsed = time.time() - t0
        assert elapsed < 600.0
        print(f"criterion 8 PASS: optimized policy lifts value {rel_dv:+.3%} "
              f"(95% CI excludes 0) at cost change {rel_dc:+.3%} (< 0.5%), {elapsed:.0f}s")

    def test_criterion_09_theta_dependent_subsets_are_biased(self):
        # clustering users by END-of-period exposure (which depends on the
        # randomized bids they got) breaks the reweighting: the IPS total
        # for that cohort is biased against a paired oracle that holds the
        # logged cohort fixed and replays it under the target policy.
        cfg = default_config(100_000)
        policy = PolicySpec({c: 1.1 for c in range(N_CLUSTERS)})
        # global multiplier 1.1 == shifting the randomizer's log-mean,
        # with the same seed it replays the same users pathwise
        shifted = RandomizationSpec(SPEC.mu + np.log(1.1), SPEC.sigma)
        reps = 5
        diffs = np.zeros((reps, N_CLUSTERS))
        for r in range(reps):
            log = simulate_log(cfg, SPEC, seed=r)
            replay = simulate_log(cfg, shifted, seed=r)
            arr, rep_arr = log.arrays, replay.arrays
            end_bucket = assign_clusters(
                arr["exposure_at_start"] + arr["n_wins"], log.bucket_boundaries
            )
            for b in range(N_CLUSTERS):
                mask = end_bucket == b
                subset = UserSubset.unsafe_from_mask(mask.tolist())
                est = ips_estimate(
                    log, "cost", subset=subset, policy=policy, allow_unsafe=True
                )
                diffs[r, b] = est - float(rep_arr["cost"][mask].sum())
        bias = diffs.mean(axis=0)
        se = diffs.std(axis=0, ddof=1) / np.sqrt(reps)
        z = np.where(se > 0, np.abs(bias) / np.where(se > 0, se, 1.0), 0.0)
        assert z.max() > 3.0, f"no bucket shows bias beyond 3 SE: z = {z}"
        print(f"criterion 9 PASS: end-of-period clustering biases IPS "
              f"(per-bucket |z| = {np.round(z, 1).tolist()}, max {z.max():.1f} > 3)")

    def test_criterion_10_fatigue_blind_model_overpredicts(self):
        exposure, converted = simulate_display_trace(default_config(100_000), SPEC, seed=0)
        events = events_from_trace(exposure, converted)
        models = {
            name: fit_ctr(events, include_fatigue=include)
            for name, include in (("no_fatigue", False), ("fatigue", True))
        }
        gaps = {}
        for name, model in models.items():
            rows = calibration_curve(model, events)
            gaps[name] = [
                (row.mean_predicted - row.empirical_rate)
                / np.sqrt(row.empirical_rate * (1 - row.empirical_rate) / row.n)
                for row in rows
            ]
        top = gaps["no_fatigue"][-1]  # most-exposed bucket
        assert top > 3.0, f"fatigue-blind overprediction only {top:.1f} binomial SE"
        assert max(abs(g) for g in gaps["fatigue"]) < 3.0
        print(f"criterion 10 PASS: fatigue-blind model overpredicts most-exposed bucket "
              f"by {top:.1f} binomial SE (> 3); fatigue-aware model within 3 SE everywhere "
              f"(max |z| = {max(abs(g) for g in gaps['fatigue']):.2f})")

    def test_criterion_11_repeated_auction_bid_shading(self):
        value = 100.0
        uniform = Distribution(kind="uniform", low=0.0, high=100.0)
        shaded = two_auction_demo(value, uniform, grid_step=0.1)
        assert shaded.best_first_bid < value

        unwinnable = Distribution(kind="constant", value=150.0)
        truthful = two_auction_demo(value, uniform, grid_step=0.1, second_competition=unwinnable)
        assert truthful.best_first_bid == 100.0
        print(f"criterion 11 PASS: with a live second auction the best first bid is "
              f"{shaded.best_first_bid:g} < 100; with it unwinnable the bid is exactly 100")


def _point_estimate_policy(log, cap: float) -> PolicySpec:
    """Reallocation policy from point-estimate marginals (no bootstrap)."""
    eligible, pinned = [], []
    for c in range(log.n_clusters):
        dcost = marginal_estimate(log, "cost", c)
        dvalue = marginal_estimate(log, "value_predicted", c)
        if marginal_roi(log, c).defined and dcost > 0:
            eligible.append((c, dcost, dvalue))
        else:
            pinned.append(c)
    return solve_reallocation_detailed(
        ReallocationProblem(tuple(eligible), cap, tuple(pinned))
    ).policy
