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

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .domain import (
    DEFAULT_BUCKETS,
    PolicyOutcome,
    PolicySpec,
    RandomizationSpec,
    RandomizedLog,
    ValidationError,
    _COLUMNS,
    _approx,
    _check_kinds,
    _check_memory,
    _from_json,
    _json_object,
    _physical_memory,
    assign_clusters,
)

_CHUNK = 1 << 17  # users simulated per vectorized block (fixed for determinism)
_MAX_GRID_POINTS = 10**6  # the two-auction demo costs about 3 us per grid point
_BYTES_PER_USER = 64  # a user's log columns and id


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
        _check_kinds(self, "sim", {"n_users": "integer", "value_per_conversion": "number",
                                   "base_conversion_prob": "number", "fatigue_decay": "number",
                                   "initial_exposure": "numbers", "activity_by_exposure": "numbers"})
        if self.n_users < 0:
            raise ValidationError("n_users must be >= 0")
        if self.auctions_per_user.kind not in ("poisson", "constant"):
            raise ValidationError("auctions_per_user must be poisson or constant")
        count = self.auctions_per_user.value
        if self.auctions_per_user.kind == "constant" and not (count >= 0 and float(count).is_integer()):
            raise ValidationError(f"a constant auctions_per_user must be a non-negative integer, got {count}")
        if not self.value_per_conversion > 0:
            raise ValidationError("value_per_conversion must be > 0")
        if not 0 < self.base_conversion_prob < 1:
            raise ValidationError("base_conversion_prob must lie in (0, 1)")
        if not 0 < self.fatigue_decay <= 1:
            raise ValidationError("fatigue_decay must lie in (0, 1]")
        probs = np.asarray(self.initial_exposure)
        if len(probs) == 0 or np.any(probs < 0) or abs(probs.sum() - 1) > 1e-9:
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
        return _json_object(self)

    @classmethod
    def from_json(cls, raw) -> "SimConfig":
        return _from_json(cls, raw, "sim", auctions_per_user=Distribution.from_json,
                          competition=Distribution.from_json)


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
    policy: BidPolicy,
    seed: int,
    bucket_boundaries: tuple[int, ...] = DEFAULT_BUCKETS,
    collect_displays: bool = False,
) -> dict[str, np.ndarray]:
    """Vectorized simulation of `policy`; one sequential RNG stream, chunked for memory.

    All randomness for a chunk is drawn in a fixed order and amount that
    no policy changes, so outcomes for a user are a deterministic function
    of the draws and the policy: scaling a bid up never consumes
    different randomness.
    """
    _check_population_memory(config)
    rng = np.random.default_rng(seed)
    chunks = []
    remaining = config.n_users
    while remaining > 0:
        n = min(remaining, _CHUNK)
        remaining -= n
        chunks.append(_simulate_chunk(rng, n, config, policy, bucket_boundaries, collect_displays))

    if chunks:
        return {k: np.concatenate([c[k] for c in chunks]) for k in chunks[0]}
    result = {k: np.array([]) for k in _COLUMNS}
    if collect_displays:
        result["display_exposure"] = np.array([], dtype=np.int64)
        result["display_converted"] = np.array([], dtype=bool)
    return result


def _check_population_memory(config: SimConfig) -> None:
    """Reject a population whose estimated memory exceeds physical memory.

    A block of up to `_CHUNK` users holds one 8 B competing bid per real
    auction, and a user has the configured mean auction count (the
    activity multipliers have mean one); every user then keeps
    `_BYTES_PER_USER` of columns and id. The estimate is exact integer
    arithmetic, so a size past the float range is still compared right.
    """
    apu = config.auctions_per_user
    count = apu.mean if apu.kind == "poisson" else apu.value
    block = min(config.n_users, _CHUNK)
    draws, users = block * math.ceil(count) * 8, config.n_users * _BYTES_PER_USER
    _check_memory(
        draws + users,
        f"sim 'auctions_per_user' ({apu.kind}, {count:g} auctions per user) and 'n_users' need about "
        f"{_approx(draws + users)} B ({_approx(draws)} B of auction draws for a block of {block} users "
        f"plus {_BYTES_PER_USER} B per user)",
        _physical_memory(),
    )


def _simulate_chunk(
    rng: np.random.Generator,
    n: int,
    config: SimConfig,
    policy: BidPolicy,
    bucket_boundaries: tuple[int, ...],
    collect_displays: bool,
) -> dict[str, np.ndarray]:
    """Draw and simulate n users; see `_simulate_population`.

    Users are held in order of auction count, descending, so the users
    with an auction at step t are a prefix and each step costs only its
    real auctions. Per-user outputs come back in user order, and the
    display trace lists each step's winners in that sorted order.
    """
    gamma = config.fatigue_decay
    p0 = config.base_conversion_prob
    vpc = config.value_per_conversion
    levels = np.arange(len(config.initial_exposure))
    e0 = rng.choice(levels, p=np.asarray(config.initial_exposure), size=n)
    theta = rng.lognormal(policy.randomization.mu, policy.randomization.sigma, n)
    if config.auctions_per_user.kind == "poisson":
        m = rng.poisson(config.auctions_per_user.mean * config._activity_multipliers()[e0], n)
    else:
        m = np.full(n, int(config.auctions_per_user.value))
    mmax = int(m.max())
    # sorted row j is user order[j]: descending auction count, ties by user index.
    # The key is unsigned and as narrow as mmax allows, so that up to 16 bits
    # numpy's stable sort is a radix sort
    order = np.argsort((mmax - m).astype(np.min_scalar_type(mmax)), kind="stable")
    pos = np.empty(n, dtype=np.intp)  # user i is sorted row pos[i]
    pos[order] = np.arange(n)
    n_active = n - np.cumsum(np.bincount(m, minlength=mmax + 1))[:mmax]  # count(m > t)
    # step-major cells: step t's auctions are cells start[t]:start[t + 1],
    # one per active user, in sorted-row order; the conversion uniforms follow
    # `comp` in the stream, drawn one step at a time so that one step's are held
    start = np.concatenate(([0], np.cumsum(n_active)))
    comp = config.competition.sample(rng, int(start[-1]))

    cluster = assign_clusters(e0, bucket_boundaries)
    # the impatient bidder's multiplier is 1.0 in every cluster
    mult = np.ones(len(bucket_boundaries) + 1) if policy.multipliers is None else np.asarray(policy.multipliers)
    # a bid is at most vpc * alpha * theta (p0 * gamma**k < 1 scales it down), and the
    # block's users win at most one value of at most vpc per auction
    reach = max(float(mult.max()) * float(theta.max()), int(start[-1]))
    if math.isinf(vpc * reach) and math.isfinite(reach):
        raise ValidationError(f"sim 'value_per_conversion' {vpc:g} overflows a float: a block of {n} users "
                              f"bids or wins up to {reach:.6g} times it")
    # exposure stays below its start level plus one win per step; indexed by
    # exposure k, these tables hold p0 * gamma**k and the multiplier of k's cluster
    exposures = np.arange(len(levels) + mmax)
    p_by_exposure = p0 * gamma ** exposures.astype(np.float64)
    if policy.dynamic:
        alpha_by_exposure = mult[assign_clusters(exposures, bucket_boundaries)]
    theta_s = theta[order]
    bid_scale = mult[cluster][order] * theta_s * vpc  # the bid's left factors, per user

    k = e0[order]
    cost = np.zeros(n)
    conversions = np.zeros(n, dtype=np.int64)
    disp_exposure, disp_converted = [np.array([], dtype=np.int64)], [np.array([], dtype=bool)]
    for t in range(mmax):
        c, lo, hi = n_active[t], start[t], start[t + 1]
        # views of the active prefix: adding to them adds to the users' totals
        k_t, cost_t, conversions_t = k[:c], cost[:c], conversions[:c]
        comp_t = comp[lo:hi]
        p_k = p_by_exposure[k_t]
        if policy.dynamic:
            bid = alpha_by_exposure[k_t] * theta_s[:c] * vpc * p_k
        else:
            bid = bid_scale[:c] * p_k
        won = bid > comp_t
        converted = won & (rng.random(c) < p_k)
        cost_t += np.where(won, comp_t, 0.0)
        conversions_t += converted
        if collect_displays:
            disp_exposure.append(k_t[won])
            disp_converted.append(converted[won])
        k_t += won

    # a user's j-th win is at exposure e0 + j, so the value totals depend only on
    # the start level and the win and conversion counts. Each table is a running
    # sum, left to right, of the values in the order they are won, so a total is
    # the float that adding them one step at a time gives
    wins = k[pos] - e0
    conversions = conversions[pos]
    most = np.zeros(len(levels), dtype=np.int64)  # the most wins from each start level
    np.maximum.at(most, e0, wins)
    # row e, for start level e, is entries 1 + row[e] to row[e] + most[e]; entry 0 is 0.0
    vpred_table = np.concatenate([[0.0]] + [np.cumsum(vpc * p_by_exposure[e:e + w]) for e, w in enumerate(most)])
    row = np.cumsum(most) - most
    vobs_table = np.concatenate(([0.0], np.cumsum(np.full(conversions.max(), vpc))))
    result = {
        "theta": theta,
        "exposure_at_start": e0,
        "cluster": cluster,
        "cost": cost[pos],
        "value_observed": vobs_table[conversions],
        "value_predicted": vpred_table[np.where(wins > 0, row[e0] + wins, 0)],
        "n_auctions": m.astype(np.int64),
        "n_wins": wins,
    }
    if collect_displays:
        result["display_exposure"] = np.concatenate(disp_exposure)
        result["display_converted"] = np.concatenate(disp_converted)
    return result


def simulate_log(
    config: SimConfig,
    spec: RandomizationSpec,
    seed: int,
    bucket_boundaries: tuple[int, ...] = DEFAULT_BUCKETS,
) -> RandomizedLog:
    """Run one randomized collection period and aggregate it per user."""
    pop = _simulate_population(config, BidPolicy.impatient(spec), seed, bucket_boundaries)
    user_ids = tuple(f"u{i:08d}" for i in range(config.n_users))
    return RandomizedLog(spec, user_ids, bucket_boundaries, **pop)


def simulate_display_trace(
    config: SimConfig,
    spec: RandomizationSpec,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-display debug trace for predictor training.

    Returns (exposure_at_display, converted) over all won displays: block by
    block, step by step, and within a step in the step loop's order, by
    auction count (descending, ties by user index). The fit and the
    calibration read per-bucket counts, so no output depends on this order.
    """
    pop = _simulate_population(config, BidPolicy.impatient(spec), seed, collect_displays=True)
    return pop["display_exposure"], pop["display_converted"]


def _policy_totals(
    config: SimConfig,
    policy: BidPolicy,
    seed,
    bucket_boundaries: tuple[int, ...],
    per_cluster: bool,
):
    """Total value and cost of one simulated population, overall or per cluster."""
    pop = _simulate_population(config, policy, seed, bucket_boundaries)
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
    # every repetition's totals are held until their mean is taken: 16 B per
    # value-and-cost pair, and the standard deviation's temporary copy of one
    # array adds 8 B. tracemalloc put the peak at 24.0 B per pair and repetition
    # from 100k repetitions on, for overall totals and for 2-20 clusters.
    pairs = len(bucket_boundaries) + 1 if per_cluster else 1
    per_rep = 24 * pairs
    _check_memory(n_reps * per_rep, f"reps={n_reps} needs about {_approx(n_reps * per_rep)} B "
                  f"({n_reps}*{per_rep} B of per-repetition totals)", _physical_memory())
    shape = (n_reps, pairs) if per_cluster else (n_reps,)
    vals, costs = np.empty(shape), np.empty(shape)
    for rep in range(n_reps):
        rep_seed = np.random.SeedSequence([int(seed), rep])
        vals[rep], costs[rep] = _policy_totals(config, policy, rep_seed, bucket_boundaries, per_cluster)
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
    if ticket_value <= 0:
        raise ValidationError(f"ticket_value must be > 0, got {ticket_value:g}")
    points = ticket_value / grid_step
    if not points <= _MAX_GRID_POINTS:  # NaN and infinity too
        raise ValidationError(f"ticket_value / grid_step must be at most {_MAX_GRID_POINTS}, got {points:g}")
    comp2 = second_competition if second_competition is not None else competition
    n = max(1, int(round(points)))
    bids = np.linspace(0.0, ticket_value, n + 1)
    afternoon_if_lost = comp2.expected_second_price_profit(ticket_value, ticket_value)
    profit = np.array(
        [
            competition.expected_second_price_profit(b, ticket_value)
            + (1.0 - competition.cdf(b)) * afternoon_if_lost
            for b in bids.tolist()  # float arithmetic: an overflow gives inf or nan, reported below
        ]
    )
    if not np.all(np.isfinite(profit)):
        bad = bids[np.flatnonzero(~np.isfinite(profit))[0]]
        raise ValidationError(f"expected profit at bid {bad:g} is not finite: the ticket value or "
                              "the competition's parameters overflow a float")
    best = len(profit) - 1 - int(np.argmax(profit[::-1]))
    return TwoAuctionResult(best_first_bid=float(bids[best]), bids=bids, expected_profit=profit)
