import itertools

import numpy as np
import pytest

from impatience import (
    ClusterRow,
    PolicySpec,
    RandomizationSpec,
    RandomizedLog,
    ReallocationProblem,
    ValidationError,
    assign_clusters,
    ips_estimate,
    policy_delta_bootstrap,
    predict_policy_delta,
    solve_reallocation_detailed,
)


def grid_oracle(clusters, cap, step=1e-3):
    """Brute-force the box-constrained LP on a cartesian grid.

    Only feasible for <= 3 clusters. Returns (best_x, best_objective)
    where neutrality is enforced up to half a grid cell.
    """
    dcost = np.array([dc for _, dc, _ in clusters])
    dvalue = np.array([dv for _, _, dv in clusters])
    axis = np.arange(-cap, cap + step / 2, step)
    best_x, best_obj = np.zeros(len(clusters)), 0.0
    tol = step * dcost.sum()
    for x in itertools.product(axis, repeat=len(clusters)):
        xv = np.asarray(x)
        if abs(xv @ dcost) > tol:
            continue
        obj = float(xv @ dvalue)
        if obj > best_obj:
            best_x, best_obj = xv, obj
    return best_x, best_obj


def solver_neutrality(problem, policy):
    dcost = {c: dc for c, dc, _ in problem.clusters}
    return sum((policy.multipliers[c] - 1.0) * dc for c, dc in dcost.items())


class TestSolveExamples:
    def test_two_clusters_symmetric(self):
        # mROI 2.0 vs 0.5 with equal cost slopes: push the better cluster
        # to the cap and fund it fully from the other.
        problem = ReallocationProblem(
            clusters=((0, 1.0, 2.0), (1, 1.0, 0.5)), cap_delta=0.2
        )
        result = solve_reallocation_detailed(problem)
        assert result.diagnostic is None
        assert result.policy.multipliers[0] == pytest.approx(1.2, abs=1e-12)
        assert result.policy.multipliers[1] == pytest.approx(0.8, abs=1e-12)
        assert result.objective == pytest.approx(0.2 * 2.0 - 0.2 * 0.5, rel=1e-12)

    def test_three_clusters_with_interior_balancer(self):
        # Unequal cost slopes force the middle cluster to sit strictly
        # inside the box to zero out the cost change.
        problem = ReallocationProblem(
            clusters=((0, 2.0, 1.0), (1, 1.0, 3.0), (2, 1.0, 1.5)),
            cap_delta=0.1,
        )
        result = solve_reallocation_detailed(problem)
        policy = result.policy
        assert result.diagnostic is None
        assert policy.multipliers[1] == pytest.approx(1.1, abs=1e-12)
        assert policy.multipliers[0] == pytest.approx(0.9, abs=1e-12)
        # balancing coordinate: 2*(-0.1) + 1*(0.1) + x2 = 0 -> x2 = 0.1
        assert policy.multipliers[2] == pytest.approx(1.1, abs=1e-12)
        assert abs(solver_neutrality(problem, policy)) <= 1e-12
        x_star, obj_star = grid_oracle(problem.clusters, 0.1, step=2e-3)
        assert result.objective == pytest.approx(obj_star, abs=5e-3)

    def test_matches_grid_oracle_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            clusters = tuple(
                (i, float(rng.uniform(0.2, 3.0)), float(rng.uniform(-1.0, 3.0)))
                for i in range(n)
            )
            cap = float(rng.choice([0.05, 0.1, 0.2]))
            problem = ReallocationProblem(clusters=clusters, cap_delta=cap)
            result = solve_reallocation_detailed(problem)
            step = 1e-3 if n == 2 else cap / 25
            _, obj_star = grid_oracle(clusters, cap, step=step)
            slack = 2 * step * max(abs(dv) for _, _, dv in clusters) * n
            assert result.objective >= obj_star - slack
            assert abs(solver_neutrality(problem, result.policy)) <= 1e-12 * sum(
                dc for _, dc, _ in clusters
            )


class TestSolveInvariants:
    def rand_problem(self, rng, n):
        clusters = tuple(
            (i, float(rng.uniform(0.1, 5.0)), float(rng.uniform(-2.0, 5.0)))
            for i in range(n)
        )
        return ReallocationProblem(clusters=clusters, cap_delta=0.2)

    def test_box_and_neutrality_hold(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            problem = self.rand_problem(rng, int(rng.integers(2, 9)))
            policy = solve_reallocation_detailed(problem).policy
            for alpha in policy.multipliers.values():
                assert 0.8 - 1e-12 <= alpha <= 1.2 + 1e-12
            total_dc = sum(dc for _, dc, _ in problem.clusters)
            assert abs(solver_neutrality(problem, policy)) <= 1e-12 * total_dc

    def test_objective_nondecreasing_in_cap(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            clusters = tuple(
                (i, float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.0, 5.0)))
                for i in range(5)
            )
            objectives = [
                solve_reallocation_detailed(
                    ReallocationProblem(clusters=clusters, cap_delta=cap)
                ).objective
                for cap in (0.05, 0.1, 0.2, 0.3)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_uniform_ratio_returns_identity(self):
        problem = ReallocationProblem(
            clusters=((0, 1.0, 0.7), (1, 2.0, 1.4), (2, 0.5, 0.35))
        )
        result = solve_reallocation_detailed(problem)
        assert result.diagnostic is not None
        assert all(a == 1.0 for a in result.policy.multipliers.values())
        assert result.objective == 0.0

    def test_single_cluster_returns_identity(self):
        result = solve_reallocation_detailed(
            ReallocationProblem(clusters=((3, 1.0, 2.0),))
        )
        assert result.diagnostic is not None
        assert result.policy.multipliers == {3: 1.0}

    def test_empty_problem_returns_identity(self):
        result = solve_reallocation_detailed(
            ReallocationProblem(clusters=(), pinned=(0, 1))
        )
        assert result.diagnostic is not None
        assert result.policy.multipliers == {0: 1.0, 1: 1.0}

    def test_pinned_clusters_stay_at_one(self):
        rows = [
            ClusterRow(0, 10, 1.0, 2.0, None, (0, 0), (0, 0), None),
            ClusterRow(1, 10, -0.5, 1.0, None, (0, 0), (0, 0), None),  # dcost <= 0
            ClusterRow(2, 10, 1.0, 0.5, 0.5, (0, 0), (0, 0), (0, 0)),
            ClusterRow(3, 10, 2.0, 3.0, 1.5, (0, 0), (0, 0), (0, 0)),
        ]
        rows[0] = ClusterRow(0, 10, 1.0, 2.0, 2.0, (0, 0), (0, 0), (0, 0))
        problem = ReallocationProblem.from_rows(rows)
        assert problem.pinned == (1,)
        policy = solve_reallocation_detailed(problem).policy
        assert policy.multipliers[1] == 1.0

    def test_rejects_nonpositive_cost_slope(self):
        with pytest.raises(ValidationError):
            ReallocationProblem(clusters=((0, 0.0, 1.0),))

    def test_rejects_duplicate_cluster(self):
        with pytest.raises(ValidationError):
            ReallocationProblem(clusters=((0, 1.0, 1.0), (0, 2.0, 1.0)))


class TestPredictPolicyDelta:
    def make_log(self, n=4000, seed=0, spec=RandomizationSpec(0.0, 0.3)):
        rng = np.random.default_rng(seed)
        theta = rng.lognormal(spec.mu, spec.sigma, n)
        exposure = rng.integers(0, 7, n)
        cost = rng.exponential(1.0, n)
        return RandomizedLog(
            spec,
            tuple(f"u{i}" for i in range(n)),
            theta=theta,
            exposure_at_start=exposure,
            cluster=assign_clusters(exposure),
            cost=cost,
            value_observed=0.8 * cost,
            value_predicted=0.8 * cost,
            n_auctions=np.full(n, 3),
            n_wins=np.full(n, 1),
        )

    def test_identity_policy_gives_zero_delta(self):
        log = self.make_log()
        delta = predict_policy_delta(log, PolicySpec({c: 1.0 for c in range(6)}))
        assert delta.dvalue_linear == 0.0
        assert delta.dcost_linear == 0.0
        assert delta.dvalue_exact == pytest.approx(0.0, abs=1e-9)
        assert delta.dcost_exact == pytest.approx(0.0, abs=1e-9)

    def test_linear_route_matches_exact_for_small_caps(self):
        # first-order agreement: the gap between routes shrinks
        # quadratically as the multipliers approach 1
        log = self.make_log(seed=3)
        gaps = []
        for eps in (0.08, 0.04, 0.02):
            policy = PolicySpec(
                {c: 1.0 + eps * (1 if c % 2 else -1) for c in range(6)}
            )
            d = predict_policy_delta(log, policy)
            gaps.append(abs(d.dcost_exact - d.dcost_linear))
        assert gaps[1] < gaps[0] / 2.5
        assert gaps[2] < gaps[1] / 2.5

    def test_exact_route_matches_direct_ips(self):
        log = self.make_log(seed=5)
        policy = PolicySpec({c: 1.0 + 0.03 * (c - 2) for c in range(6)}, cap_delta=0.2)
        d = predict_policy_delta(log, policy)
        expected = ips_estimate(log, "cost", policy=policy) - ips_estimate(log, "cost")
        assert d.dcost_exact == pytest.approx(expected, rel=1e-12)

    def test_equals_the_bootstrap_point(self):
        log = self.make_log(seed=7)
        policy = PolicySpec({c: 1.0 + 0.05 * (-1) ** c for c in range(6)})
        d = predict_policy_delta(log, policy)
        point = policy_delta_bootstrap(log, policy, 100).point
        assert [d.dvalue_linear, d.dcost_linear, d.dvalue_exact, d.dcost_exact] == point.tolist()
