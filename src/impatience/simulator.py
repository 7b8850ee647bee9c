"""Generative world of repeated second-price auctions with display fatigue.

Produces randomized logs under the lognormally randomized impatient
bidder, and serves as the ground-truth oracle for any policy: an
offline estimate is validated by re-simulating the counterfactual
world directly.

Mechanics per user: draw a starting ad exposure, a lognormal bid
multiplier theta, and a Poisson auction count whose mean scales with
the user's activity level (heavily exposed users are heavy browsers
and generate more future bid requests). Each auction is second-price
against an i.i.d. competing bid; the impatient bid is
value_per_conversion * p0 * gamma^k at current exposure k, times theta
and any per-cluster policy multiplier. Winning increments exposure.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .distributions import Distribution
from .domain import (
    DEFAULT_BUCKETS,
    PolicyOutcome,
    PolicySpec,
    RandomizationSpec,
    RandomizedLog,
    ValidationError,
    _is_number,
    assign_clusters,
)

_CHUNK = 1 << 17  # users simulated per vectorized block (fixed for determinism)


@dataclass(frozen=True)
class SimConfig:
    """Parameters of the simulated auction world."""

    n_users: int
    auctions_per_user: Distribution
    value_per_conversion: float
    base_conversion_prob: float
    fatigue_decay: float
    competition: Distribution
    initial_exposure: tuple[float, ...]
    activity_by_exposure: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "initial_exposure", tuple(float(p) for p in self.initial_exposure))
        if self.activity_by_exposure is not None:
            object.__setattr__(
                self, "activity_by_exposure", tuple(float(w) for w in self.activity_by_exposure)
            )
        if self.n_users < 0:
            raise ValidationError("n_users must be >= 0")
        if self.auctions_per_user.kind not in ("poisson", "constant"):
            raise ValidationError("auctions_per_user must be poisson or constant")
        if not self.value_per_conversion > 0:
            raise ValidationError("value_per_conversion must be > 0")
        if not 0 < self.base_conversion_prob < 1:
            raise ValidationError("base_conversion_prob must lie in (0, 1)")
        if not 0 < self.fatigue_decay <= 1:
            raise ValidationError("fatigue_decay must lie in (0, 1]")
        probs = np.asarray(self.initial_exposure)
        if probs.ndim != 1 or len(probs) == 0 or np.any(probs < 0) or abs(probs.sum() - 1) > 1e-9:
            raise ValidationError("initial_exposure must be a probability vector")
        if self.activity_by_exposure is not None:
            w = np.asarray(self.activity_by_exposure)
            if len(w) != len(probs) or np.any(w <= 0):
                raise ValidationError(
                    "activity_by_exposure must be positive and match initial_exposure length"
                )
            if self.auctions_per_user.kind != "poisson":
                raise ValidationError("activity_by_exposure requires poisson auction counts")

    def _activity_multipliers(self) -> np.ndarray:
        """Per-exposure-level auction-intensity multipliers, mean-one."""
        probs = np.asarray(self.initial_exposure)
        if self.activity_by_exposure is None:
            return np.ones(len(probs))
        w = np.asarray(self.activity_by_exposure, dtype=np.float64)
        return w / float(w @ probs)

    def to_json(self) -> dict:
        out = {
            "n_users": self.n_users,
            "auctions_per_user": self.auctions_per_user.to_json(),
            "value_per_conversion": self.value_per_conversion,
            "base_conversion_prob": self.base_conversion_prob,
            "fatigue_decay": self.fatigue_decay,
            "competition": self.competition.to_json(),
            "initial_exposure": list(self.initial_exposure),
        }
        if self.activity_by_exposure is not None:
            out["activity_by_exposure"] = list(self.activity_by_exposure)
        return out

    @classmethod
    def from_json(cls, raw: dict) -> "SimConfig":
        known = [f.name for f in fields(cls)]
        unknown = set(raw) - set(known)
        if unknown:
            raise ValidationError(f"unknown sim config keys {sorted(unknown)}")
        missing = [key for key in known if key not in raw and key != "activity_by_exposure"]
        if missing:
            raise ValidationError(f"missing sim config key {missing[0]!r}")
        # JSON types first, so that no int() or float() truncates or escapes
        if type(raw["n_users"]) is not int:
            raise ValidationError(f"sim 'n_users' must be an integer, got {raw['n_users']!r}")
        floats = ("value_per_conversion", "base_conversion_prob", "fatigue_decay")
        for key in floats:
            if not _is_number(raw[key]):
                raise ValidationError(f"sim '{key}' must be a finite number, got {raw[key]!r}")
        for key in ("initial_exposure", "activity_by_exposure"):
            if key in raw and not (isinstance(raw[key], (list, tuple)) and all(map(_is_number, raw[key]))):
                raise ValidationError(f"sim '{key}' must be a list of finite numbers, got {raw[key]!r}")
        distributions = {}
        for key in ("auctions_per_user", "competition"):
            try:
                distributions[key] = Distribution.from_json(raw[key])
            except ValidationError as exc:
                raise ValidationError(f"sim '{key}': {exc}") from None
        return cls(**{**raw, **{key: float(raw[key]) for key in floats}, **distributions})


def default_config(n_users: int = 100_000) -> SimConfig:
    """Desk-scale world: 10^5 users, ~20 auctions each, visible fatigue."""
    return SimConfig(
        n_users=n_users,
        auctions_per_user=Distribution(kind="poisson", mean=20.0),
        value_per_conversion=10.0,
        base_conversion_prob=0.05,
        fatigue_decay=0.8,
        competition=Distribution(kind="lognormal", mu=float(np.log(0.4)), sigma=1.2),
        initial_exposure=(0.30, 0.20, 0.15, 0.12, 0.10, 0.13),
        activity_by_exposure=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
    )


def default_randomization() -> RandomizationSpec:
    return RandomizationSpec(mu=0.0, sigma=0.3)


@dataclass(frozen=True)
class BidPolicy:
    """The bidder under simulation.

    `impatient_randomized` bids theta_i times the impatient value; the
    `cluster_multiplier` kind further scales by alpha_S where S is the
    user's exposure cluster (fixed at collection start, or looked up
    from the current exposure when `dynamic` is set).
    """

    kind: str
    randomization: RandomizationSpec
    multipliers: tuple[float, ...] | None = None
    dynamic: bool = False

    def __post_init__(self):
        if self.kind not in ("impatient_randomized", "cluster_multiplier"):
            raise ValidationError(f"unknown policy kind {self.kind!r}")
        if self.kind == "cluster_multiplier":
            if self.multipliers is None:
                raise ValidationError("cluster_multiplier policy requires multipliers")
            object.__setattr__(self, "multipliers", tuple(float(a) for a in self.multipliers))
            if any(a < 0 for a in self.multipliers):
                raise ValidationError("multipliers must be >= 0")
        elif self.multipliers is not None:
            raise ValidationError("impatient_randomized policy takes no multipliers")

    @classmethod
    def impatient(cls, spec: RandomizationSpec) -> "BidPolicy":
        return cls(kind="impatient_randomized", randomization=spec)

    @classmethod
    def from_policy_spec(
        cls,
        spec: RandomizationSpec,
        policy: PolicySpec,
        n_clusters: int,
        dynamic: bool = False,
    ) -> "BidPolicy":
        return cls(
            kind="cluster_multiplier",
            randomization=spec,
            multipliers=tuple(policy.multiplier_array(n_clusters)),
            dynamic=dynamic,
        )


def _simulate_population(
    config: SimConfig,
    spec: RandomizationSpec,
    seed: int,
    bucket_boundaries: tuple[int, ...] = DEFAULT_BUCKETS,
    multipliers: np.ndarray | None = None,
    dynamic: bool = False,
    collect_displays: bool = False,
) -> dict[str, np.ndarray]:
    """Vectorized simulation; one sequential RNG stream, chunked for memory.

    All randomness for a chunk is drawn up front in a fixed order, so
    outcomes for a user are a deterministic function of the draws and
    the policy: scaling a bid up never consumes different randomness.
    """
    rng = np.random.default_rng(seed)
    mult = None if multipliers is None else np.asarray(multipliers)
    chunks = []
    remaining = config.n_users
    while remaining > 0:
        n = min(remaining, _CHUNK)
        remaining -= n
        chunks.append(
            _simulate_chunk(rng, n, config, spec, bucket_boundaries, mult, dynamic, collect_displays)
        )

    if chunks:
        return {k: np.concatenate([c[k] for c in chunks]) for k in chunks[0]}
    result = {k: np.array([]) for k in ("theta", "exposure_at_start", "cluster", "cost",
                                         "value_observed", "value_predicted", "n_auctions", "n_wins")}
    if collect_displays:
        result["display_exposure"] = np.array([], dtype=np.int64)
        result["display_converted"] = np.array([], dtype=bool)
    return result


def _simulate_chunk(
    rng: np.random.Generator,
    n: int,
    config: SimConfig,
    spec: RandomizationSpec,
    bucket_boundaries: tuple[int, ...],
    mult: np.ndarray | None,
    dynamic: bool,
    collect_displays: bool,
) -> dict[str, np.ndarray]:
    """Draw and simulate n users; see `_simulate_population`.

    Users are held in order of auction count, descending, so the users
    with an auction at step t are a prefix and each step costs only its
    real auctions. Per-user outputs come back in user order, and the
    display trace lists each step's winners by user index.
    """
    gamma = config.fatigue_decay
    p0 = config.base_conversion_prob
    vpc = config.value_per_conversion
    levels = np.arange(len(config.initial_exposure))
    e0 = rng.choice(levels, p=np.asarray(config.initial_exposure), size=n)
    theta = rng.lognormal(spec.mu, spec.sigma, n)
    if config.auctions_per_user.kind == "poisson":
        m = rng.poisson(config.auctions_per_user.mean * config._activity_multipliers()[e0], n)
    else:
        m = np.full(n, int(config.auctions_per_user.value))
    mmax = int(m.max())
    order = np.argsort(-m, kind="stable")  # sorted row j is user order[j]
    pos = np.empty(n, dtype=np.intp)  # user i is sorted row pos[i]
    pos[order] = np.arange(n)
    n_active = n - np.cumsum(np.bincount(m, minlength=mmax + 1))[:mmax]  # count(m > t)
    # step-major cells: step t's auctions are cells start[t]:start[t + 1],
    # one per active user, in sorted-row order
    start = np.concatenate(([0], np.cumsum(n_active)))
    comp = config.competition.sample(rng, int(start[-1]))
    conv_u = rng.random(int(start[-1]))

    cluster = assign_clusters(e0, bucket_boundaries)
    alpha = np.ones(n) if mult is None else mult[cluster]
    dynamic = dynamic and mult is not None
    # exposure stays below its start level plus one win per step; indexed by
    # exposure k, these tables hold p0 * gamma**k and the multiplier of k's cluster
    exposures = np.arange(len(levels) + mmax)
    p_by_exposure = p0 * gamma ** exposures.astype(np.float64)
    if dynamic:
        alpha_by_exposure = mult[assign_clusters(exposures, bucket_boundaries)]
    theta_s = theta[order]
    bid_scale = alpha[order] * theta_s * vpc  # the bid's left factors, per user

    k = e0[order]
    cost = np.zeros(n)
    vobs = np.zeros(n)
    vpred = np.zeros(n)
    wins = np.zeros(n, dtype=np.int64)
    disp_key, disp_exposure = [np.array([], dtype=np.int64)], [np.array([], dtype=np.int64)]
    disp_converted = [np.array([], dtype=bool)]
    for t in range(mmax):
        c, lo, hi = n_active[t], start[t], start[t + 1]
        # views of the active prefix: adding to them adds to the users' totals
        k_t, cost_t, vpred_t, vobs_t, wins_t = k[:c], cost[:c], vpred[:c], vobs[:c], wins[:c]
        comp_t = comp[lo:hi]
        p_k = p_by_exposure[k_t]
        if dynamic:
            bid = alpha_by_exposure[k_t] * theta_s[:c] * vpc * p_k
        else:
            bid = bid_scale[:c] * p_k
        won = bid > comp_t
        converted = won & (conv_u[lo:hi] < p_k)
        cost_t += np.where(won, comp_t, 0.0)
        vpred_t += np.where(won, vpc * p_k, 0.0)
        vobs_t += np.where(converted, vpc, 0.0)
        if collect_displays:
            idx = np.flatnonzero(won)
            disp_key.append(t * n + order[idx])
            disp_exposure.append(k_t[idx])
            disp_converted.append(converted[idx])
        k_t += won
        wins_t += won

    result = {
        "theta": theta,
        "exposure_at_start": e0,
        "cluster": cluster,
        "cost": cost[pos],
        "value_observed": vobs[pos],
        "value_predicted": vpred[pos],
        "n_auctions": m.astype(np.int64),
        "n_wins": wins[pos],
    }
    if collect_displays:
        by_step_then_user = np.argsort(np.concatenate(disp_key))
        result["display_exposure"] = np.concatenate(disp_exposure)[by_step_then_user]
        result["display_converted"] = np.concatenate(disp_converted)[by_step_then_user]
    return result


def simulate_log(
    config: SimConfig,
    spec: RandomizationSpec,
    seed: int,
    bucket_boundaries: tuple[int, ...] = DEFAULT_BUCKETS,
) -> RandomizedLog:
    """Run one randomized collection period and aggregate it per user."""
    pop = _simulate_population(config, spec, seed, bucket_boundaries)
    user_ids = tuple(f"u{i:08d}" for i in range(config.n_users))
    return RandomizedLog(spec, user_ids, bucket_boundaries, **pop)


def simulate_display_trace(
    config: SimConfig,
    spec: RandomizationSpec,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-display debug trace for predictor training.

    Returns (exposure_at_display, converted) over all won displays.
    """
    pop = _simulate_population(config, spec, seed, collect_displays=True)
    return pop["display_exposure"], pop["display_converted"]


def _policy_totals(
    config: SimConfig,
    policy: BidPolicy,
    seed,
    bucket_boundaries: tuple[int, ...],
    per_cluster: bool,
):
    """Total value and cost of one simulated population, overall or per cluster."""
    mult = None if policy.kind == "impatient_randomized" else np.asarray(policy.multipliers)
    pop = _simulate_population(
        config,
        policy.randomization,
        seed,
        bucket_boundaries,
        multipliers=mult,
        dynamic=policy.dynamic,
    )
    if not per_cluster:
        return pop["value_predicted"].sum(), pop["cost"].sum()
    nc = len(bucket_boundaries) + 1
    val = np.bincount(pop["cluster"], weights=pop["value_predicted"], minlength=nc)
    cost = np.bincount(pop["cluster"], weights=pop["cost"], minlength=nc)
    return val, cost


def _oracle_reps(
    config: SimConfig,
    policy: BidPolicy,
    n_reps: int,
    seed: int,
    bucket_boundaries: tuple[int, ...],
    per_cluster: bool,
) -> dict[str, np.ndarray]:
    """Means and standard errors of `_policy_totals` over independent populations.

    Each population lives only inside its `_policy_totals` call, so one
    is freed before the next is simulated.
    """
    if n_reps < 1:
        raise ValidationError("n_reps must be >= 1")
    seeds = (np.random.SeedSequence([int(seed), rep]) for rep in range(n_reps))
    reps = [_policy_totals(config, policy, rep_seed, bucket_boundaries, per_cluster) for rep_seed in seeds]
    vals, costs = map(np.stack, zip(*reps))
    ddof = 1 if n_reps > 1 else 0
    return {
        "value": vals.mean(axis=0),
        "cost": costs.mean(axis=0),
        "value_se": vals.std(axis=0, ddof=ddof) / np.sqrt(n_reps),
        "cost_se": costs.std(axis=0, ddof=ddof) / np.sqrt(n_reps),
    }


def oracle_policy_outcome(
    config: SimConfig,
    policy: BidPolicy,
    n_reps: int,
    seed: int,
    bucket_boundaries: tuple[int, ...] = DEFAULT_BUCKETS,
) -> PolicyOutcome:
    """Ground-truth policy outcome: mean totals over independent populations."""
    out = _oracle_reps(config, policy, n_reps, seed, bucket_boundaries, per_cluster=False)
    return PolicyOutcome(n_reps=n_reps, **{key: float(v) for key, v in out.items()})


def oracle_cluster_outcomes(
    config: SimConfig,
    policy: BidPolicy,
    n_reps: int,
    seed: int,
    bucket_boundaries: tuple[int, ...] = DEFAULT_BUCKETS,
) -> dict[str, np.ndarray]:
    """Per-cluster oracle totals (means and standard errors over reps)."""
    return _oracle_reps(config, policy, n_reps, seed, bucket_boundaries, per_cluster=True)


@dataclass(frozen=True)
class TwoAuctionResult:
    best_first_bid: float
    bids: np.ndarray
    expected_profit: np.ndarray


def two_auction_demo(
    ticket_value: float,
    competition: Distribution,
    grid_step: float,
    second_competition: Distribution | None = None,
) -> TwoAuctionResult:
    """Morning/afternoon second-price auctions for a single prize.

    The afternoon bid is truthful: the ticket value if the morning
    auction was lost, zero otherwise. Expected profit is computed in
    closed form per grid point; ties break toward the truthful
    (highest) bid.
    """
    if grid_step <= 0:
        raise ValidationError("grid_step must be > 0")
    comp2 = second_competition if second_competition is not None else competition
    n = max(1, int(round(ticket_value / grid_step)))
    bids = np.linspace(0.0, ticket_value, n + 1)
    afternoon_if_lost = comp2.expected_second_price_profit(ticket_value, ticket_value)
    profit = np.array(
        [
            competition.expected_second_price_profit(b, ticket_value)
            + (1.0 - competition.cdf(b)) * afternoon_if_lost
            for b in bids
        ]
    )
    best = len(profit) - 1 - int(np.argmax(profit[::-1]))
    return TwoAuctionResult(best_first_bid=float(bids[best]), bids=bids, expected_profit=profit)
