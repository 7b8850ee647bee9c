"""Capped, cost-neutral reallocation of per-cluster bid multipliers.

With x_S = alpha_S - 1 this is a box-constrained linear program with a
single equality: maximize sum x_S * dvalue_S subject to
sum x_S * dcost_S = 0 and |x_S| <= cap. Because the constraint matrix
is one row, the optimum is a fractional-knapsack fill: clusters sorted
by marginal ROI, the best pushed to +cap, the worst to -cap, and at
most one interior cluster balancing the cost equation exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import ClusterRow, PolicySpec, RandomizedLog, ValidationError
from .estimators import _policy_delta_sums


@dataclass(frozen=True)
class ReallocationProblem:
    """Eligible clusters with their cost/value derivatives.

    Clusters whose marginal ROI is undefined or whose cost derivative
    is non-positive are excluded up front and pinned to multiplier 1:
    the reallocation rule presumes spend increases with the bid.
    """

    clusters: tuple[tuple[int, float, float], ...]  # (cluster, dcost, dvalue)
    cap_delta: float = 0.2
    pinned: tuple[int, ...] = ()

    def __post_init__(self):
        if not 0 < self.cap_delta < 1:
            raise ValidationError(f"cap_delta must lie in (0, 1), got {self.cap_delta}")
        object.__setattr__(self, "clusters", tuple((int(c), float(dc), float(dv)) for c, dc, dv in self.clusters))
        object.__setattr__(self, "pinned", tuple(int(c) for c in self.pinned))
        seen = set()
        for c, dc, _ in self.clusters:
            if c in seen:
                raise ValidationError(f"duplicate cluster {c}")
            seen.add(c)
            if not dc > 0:
                raise ValidationError(f"cluster {c}: eligible clusters need dcost > 0, got {dc}")

    @classmethod
    def from_rows(cls, rows: Sequence[ClusterRow], cap_delta: float = 0.2) -> "ReallocationProblem":
        eligible, pinned = [], []
        for row in rows:
            if row.dcost > 0 and row.mroi is not None:
                eligible.append((row.cluster, row.dcost, row.dvalue))
            else:
                pinned.append(row.cluster)
        return cls(clusters=tuple(eligible), cap_delta=cap_delta, pinned=tuple(pinned))


@dataclass(frozen=True)
class SolveResult:
    policy: PolicySpec
    objective: float  # linearized total value change
    diagnostic: str | None = None


def solve_reallocation_detailed(problem: ReallocationProblem) -> SolveResult:
    """Greedy LP solve; ties broken by cluster index ascending."""
    cap = problem.cap_delta
    ones = {c: 1.0 for c in problem.pinned}
    clusters = problem.clusters
    if len(clusters) == 0:
        return SolveResult(PolicySpec(ones, cap), 0.0, "no eligible clusters; returning all-ones")
    ids = np.array([c for c, _, _ in clusters])
    dcost = np.array([dc for _, dc, _ in clusters])
    dvalue = np.array([dv for _, _, dv in clusters])
    ones.update({int(c): 1.0 for c in ids})

    ratio = dvalue / dcost
    if len(clusters) == 1 or np.ptp(ratio) == 0.0:
        return SolveResult(
            PolicySpec(ones, cap),
            0.0,
            "all eligible clusters share one marginal ROI; no cost-neutral improvement exists",
        )

    # Knapsack in y_S = (x_S + cap) * dcost_S >= 0 with budget cap * sum(dcost).
    order = sorted(range(len(ids)), key=lambda i: (-ratio[i], ids[i]))
    budget = cap * float(dcost.sum())
    x = np.full(len(ids), -cap)
    interior = None
    for i in order:
        capacity = 2 * cap * dcost[i]
        take = min(capacity, budget)
        budget -= take
        x[i] = take / dcost[i] - cap
        if 0.0 < take < capacity:
            interior = i
        if budget <= 0.0:
            break

    # Exact cost-neutrality: re-solve the balancing cluster's coordinate.
    balance = interior if interior is not None else order[0]
    residual = math.fsum(x[i] * dcost[i] for i in range(len(ids)) if i != balance)
    x[balance] = float(np.clip(-residual / dcost[balance], -cap, cap))

    multipliers = dict(ones)
    for i, c in enumerate(ids):
        multipliers[int(c)] = 1.0 + float(x[i])
    objective = math.fsum(x * dvalue)
    if objective <= 0.0:
        return SolveResult(
            PolicySpec(ones, cap),
            0.0,
            "no feasible cost-neutral improvement; returning all-ones",
        )
    return SolveResult(PolicySpec(multipliers, cap), objective, None)


@dataclass(frozen=True)
class PolicyDelta:
    """Predicted change vs the logging policy, by both estimation routes."""

    dvalue_linear: float
    dcost_linear: float
    dvalue_exact: float
    dcost_exact: float


def predict_policy_delta(log: RandomizedLog, policy: PolicySpec) -> PolicyDelta:
    """Counterfactual value/cost deltas of a per-cluster multiplier policy.

    The point of :func:`~impatience.estimators.policy_delta_bootstrap`:
    the same per-user sums, over every user once.
    """
    return PolicyDelta(*map(float, _policy_delta_sums(log, policy).point()))
