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
    _DTYPES,
    _ID_DTYPE,
    _approx,
    _check_kinds,
    _check_memory,
    _from_json,
    _in_parallel,
    _json_object,
    _n_workers,
    _physical_memory,
    assign_clusters,
)

_CHUNK = 1 << 17  # users simulated per vectorized block (fixed for determinism)
_MAX_GRID_POINTS = 10**6  # the two-auction demo costs about 3 us per grid point
#: simulate_log's traced peak grows by 89.0 B per user from 8 to 16 blocks of default-config users, and by
#: 89.1 from 16 to 32: the log holds 80.0 (64 B of columns and a 16 B id), and its cluster check 9 more
_BYTES_PER_USER = 89
#: What `_simulate_population` keeps for an oracle, with each field's dtype: the values that the wins alone fix.
_TOTALS = {k: _DTYPES[k] for k in ("cluster", "cost", "value_predicted")}
#: What it keeps for a display trace: each won display's exposure and whether it converted.
_TRACE = {"display_exposure": np.int64, "display_converted": np.bool_}


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
        _check_kinds(self, "sim", {"n_users": "count", "value_per_conversion": "positive",
                                   "base_conversion_prob": "fraction", "fatigue_decay": "number",
                                   "initial_exposure": "numbers", "activity_by_exposure": "numbers"})
        if self.auctions_per_user.kind not in ("poisson", "constant"):
            raise ValidationError("auctions_per_user must be poisson or constant")
        count = self.auctions_per_user.value
        if self.auctions_per_user.kind == "constant" and not (count >= 0 and float(count).is_integer()):
            raise ValidationError(f"a constant auctions_per_user must be a non-negative integer, got {count}")
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


DEFAULT_SWEEP = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment-level knobs shared across subcommands: the config file."""

    sim: SimConfig
    randomization: RandomizationSpec
    bucket_boundaries: tuple[int, ...] = DEFAULT_BUCKETS
    resamples: int = 1000
    cap_delta: float = 0.2
    sweep: tuple[float, ...] = DEFAULT_SWEEP
    seed: int = 0

    def __post_init__(self):
        _check_kinds(self, "config", {"bucket_boundaries": "boundaries", "resamples": "count", "cap_delta": "fraction",
                                      "sweep": "fractions", "seed": "count"})

    def to_json(self) -> dict:
        return _json_object(self)

    @classmethod
    def from_json(cls, raw) -> "ExperimentConfig":
        return _from_json(cls, raw, "config", sim=SimConfig.from_json, randomization=RandomizationSpec.from_json)


def default_experiment_config() -> ExperimentConfig:
    return ExperimentConfig(sim=default_config(), randomization=default_randomization())


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
            _check_kinds(self, "bid policy", {"multipliers": "numbers"})
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
    keep: dict[str, type] = _DTYPES,
) -> dict[str, np.ndarray]:
    """Vectorized simulation of `policy`; one sequential RNG stream, chunked for memory.

    All randomness for a chunk is drawn in a fixed order and amount that
    no policy changes, so outcomes for a user are a deterministic function
    of the draws and the policy: scaling a bid up never consumes
    different randomness. `keep` maps each field returned to its dtype, and so
    names the kind: a log's `_DTYPES`, an oracle's `_TOTALS` or a display `_TRACE`.
    """
    n_clusters = len(bucket_boundaries) + 1
    if policy.multipliers is not None and len(policy.multipliers) != n_clusters:
        raise ValidationError(f"the bid policy holds {len(policy.multipliers)} multipliers, but the "
                              f"bucket boundaries make {n_clusters} clusters")
    _check_population_memory(config)
    rng = np.random.default_rng(seed)
    blocks = [_simulate_chunk(rng, min(config.n_users - first, _CHUNK), config, policy, bucket_boundaries, keep)
              for first in range(0, config.n_users, _CHUNK)]
    # one array per field, from an empty one of its dtype, letting go of each block's part once it is joined
    return {k: np.concatenate([np.empty(0, dtype), *(block.pop(k) for block in blocks)]) for k, dtype in keep.items()}


def _check_population_memory(config: SimConfig, populations: int = 1) -> None:
    """Reject `populations` populations, simulated at once, whose estimated memory exceeds physical memory.

    A block of up to `_CHUNK` users is counted at 8 B per auction, a bound
    on its winning rows, with the configured mean auction count per user
    (the activity multipliers have mean one); every user then takes
    `_BYTES_PER_USER`. The estimate is exact integer arithmetic, so a size
    past the float range is still compared right.
    """
    apu = config.auctions_per_user
    count = apu.mean if apu.kind == "poisson" else apu.value
    block = min(config.n_users, _CHUNK)
    rows, users = block * math.ceil(count) * 8, config.n_users * _BYTES_PER_USER
    at_once = f", for each of {populations} populations simulated at once" if populations > 1 else ""
    _check_memory(
        populations * (rows + users),
        f"sim 'auctions_per_user' ({apu.kind}, {count:g} auctions per user) and 'n_users' need about "
        f"{_approx(rows + users)} B ({_approx(rows)} B of winning rows for a block of {block} users "
        f"plus {_BYTES_PER_USER} B per user){at_once}",
        _physical_memory(),
    )


def _simulate_chunk(
    rng: np.random.Generator,
    n: int,
    config: SimConfig,
    policy: BidPolicy,
    bucket_boundaries: tuple[int, ...],
    keep: dict[str, type],
) -> dict[str, np.ndarray]:
    """Draw and simulate n users; see `_simulate_population`.

    Users are held in order of auction count, descending, so the users
    with an auction at step t are a prefix and each step costs only its
    real auctions. Per-user outputs come back in user order, and the
    display trace lists each step's winners in that sorted order.

    The stream: after the users' draws, a block draws one competing bid
    per real auction, step by step, then one conversion uniform per real
    auction, step by step. The step loop draws each step's competing bids
    as it reaches them, and a log or trace block keeps only each step's
    winning rows (8 B per win). After the loop it draws each step's
    uniforms and walks the wins again from the start exposures, which
    gives each win's conversion probability. A `_TOTALS` block needs
    no conversions, so it advances the generator past the uniforms: each
    `Generator.random` double takes one 64-bit PCG64 output, so
    `advance(n_cells)` leaves the stream where drawing them would.
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
    n_active = n - np.cumsum(np.bincount(m, minlength=mmax + 1))[:mmax]  # count(m > t)
    n_cells = int(n_active.sum())

    cluster = assign_clusters(e0, bucket_boundaries)
    # the impatient bidder's multiplier is 1.0 in every cluster
    mult = np.ones(len(bucket_boundaries) + 1) if policy.multipliers is None else np.asarray(policy.multipliers)
    # a bid is at most vpc * alpha * theta (p0 * gamma**k < 1 scales it down), and the
    # block's users win at most one value of at most vpc per auction
    reach = max(float(mult.max()) * float(theta.max()), n_cells)
    if math.isinf(vpc * reach) and math.isfinite(reach):
        raise ValidationError(f"sim 'value_per_conversion' {vpc:g} overflows a float: a block of {n} users "
                              f"bids or wins up to {reach:.6g} times it")
    # exposure stays below its start level plus one win per step; indexed by
    # exposure k, these tables hold p0 * gamma**k and the multiplier of k's cluster
    exposures = np.arange(len(levels) + mmax)
    p_by_exposure = p0 * gamma ** exposures.astype(np.float64)
    # only the bid factor that the policy reads is built
    if policy.dynamic:
        alpha_by_exposure = mult[assign_clusters(exposures, bucket_boundaries)]
        theta_s = theta[order]
    else:
        bid_scale = mult[cluster][order] * theta[order] * vpc  # the bid's left factors, per user

    k = e0[order]
    cost = np.zeros(n)
    won_rows, keep_rows = [], keep != _TOTALS  # a log or trace block's winning sorted rows, step by step
    for c in n_active:
        # views of the active prefix: adding to them adds to the users' totals
        k_t, cost_t = k[:c], cost[:c]
        comp_t = config.competition.sample(rng, c)
        p_k = p_by_exposure[k_t]
        if policy.dynamic:
            bid = alpha_by_exposure[k_t] * theta_s[:c] * vpc * p_k
        else:
            bid = bid_scale[:c] * p_k
        won = bid > comp_t
        cost_t += np.where(won, comp_t, 0.0)  # a masked np.add is slower, and its saving is one step's temporary
        if keep_rows:
            won_rows.append(np.flatnonzero(won))
        k_t += won

    if keep == _TOTALS:
        rng.bit_generator.advance(n_cells)  # past the conversion uniforms
    else:
        # each step's uniforms, read at its wins: walking the wins again from the start exposures
        # gives each win's exposure k, and so its conversion probability, and ends at the same k
        trace = keep == _TRACE
        k = e0[order]
        conversions = np.zeros(n, dtype=np.int64)
        # a trace's parts, each from an empty array of its `_TRACE` dtype: a block may have no win
        disp_exposure, disp_converted = ([np.empty(0, dtype)] for dtype in _TRACE.values())
        for c, rows in zip(n_active, won_rows):
            k_w = k[rows]
            converted = rng.random(c)[rows] < p_by_exposure[k_w]
            k[rows] += 1
            if trace:
                disp_exposure.append(k_w)
                disp_converted.append(converted)
            else:
                conversions[rows] += converted
        if trace:
            return dict(zip(_TRACE, map(np.concatenate, (disp_exposure, disp_converted))))
    pos = np.empty(n, dtype=np.intp)  # user i is sorted row pos[i]
    pos[order] = np.arange(n)
    # a user's j-th win is at exposure e0 + j, so the value totals depend only on
    # the start level and the win and conversion counts. Each table is a running
    # sum, left to right, of the values in the order they are won, so a total is
    # the float that adding them one step at a time gives
    wins = k[pos] - e0
    most = np.zeros(len(levels), dtype=np.int64)  # the most wins from each start level
    np.maximum.at(most, e0, wins)
    # row e, for start level e, is entries 1 + row[e] to row[e] + most[e]; entry 0 is 0.0
    vpred_table = np.concatenate([[0.0]] + [np.cumsum(vpc * p_by_exposure[e:e + w]) for e, w in enumerate(most)])
    row = np.cumsum(most) - most
    value_predicted = vpred_table[np.where(wins > 0, row[e0] + wins, 0)]
    if keep == _TOTALS:
        return {"cluster": cluster, "cost": cost[pos], "value_predicted": value_predicted}
    conversions = conversions[pos]
    vobs_table = np.concatenate(([0.0], np.cumsum(np.full(conversions.max(), vpc))))
    return {
        "theta": theta,
        "exposure_at_start": e0,
        "cluster": cluster,
        "cost": cost[pos],
        "value_observed": vobs_table[conversions],
        "value_predicted": value_predicted,
        "n_auctions": m.astype(np.int64, copy=False),
        "n_wins": wins,
    }


def simulate_log(
    config: SimConfig,
    spec: RandomizationSpec,
    seed: int,
    bucket_boundaries: tuple[int, ...] = DEFAULT_BUCKETS,
) -> RandomizedLog:
    """Run one randomized collection period and aggregate it per user."""
    pop = _simulate_population(config, BidPolicy.impatient(spec), seed, bucket_boundaries, keep=_DTYPES)
    return RandomizedLog._adopt(spec, _user_ids(0, config.n_users), bucket_boundaries, pop)


def _user_ids(start: int, stop: int) -> np.ndarray:
    """The ids `f"u{i:08d}"` for i in range(start, stop), as one array of `_ID_DTYPE`.

    No id is a Python str on the way: up to `_CHUNK` ids of one width at a
    time are written digit by digit, last digit first, into the columns of
    a byte buffer, whose rows are then cast to strings.
    """
    ids = np.empty(stop - start, dtype=_ID_DTYPE)
    lo = start
    while lo < stop:
        width = max(8, len(str(lo)))
        hi = min(stop, lo + _CHUNK, 10**width)
        text = np.empty((hi - lo, 1 + width), dtype=np.uint8)
        text[:, 0] = ord("u")
        rest = np.arange(lo, hi)
        for j in range(width, 0, -1):
            text[:, j] = rest % 10
            rest //= 10
        text[:, 1:] += ord("0")
        ids[lo - start:hi - start] = text.view(f"S{1 + width}")[:, 0]
        lo = hi
    return ids


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
    pop = _simulate_population(config, BidPolicy.impatient(spec), seed, keep=_TRACE)
    return pop["display_exposure"], pop["display_converted"]


def _policy_totals(config: SimConfig, policy: BidPolicy, seed, bucket_boundaries: tuple[int, ...]) -> np.ndarray:
    """Total value (row 0) and cost (row 1) of one simulated population: column 0
    over all users, column 1 + c over cluster c."""
    pop = _simulate_population(config, policy, seed, bucket_boundaries, keep=_TOTALS)
    nc = len(bucket_boundaries) + 1
    return np.array([[pop[k].sum(), *np.bincount(pop["cluster"], weights=pop[k], minlength=nc)]
                     for k in ("value_predicted", "cost")])


def _oracle_reps(config: SimConfig, policy: BidPolicy, n_reps: int, seed: int,
                 bucket_boundaries: tuple[int, ...]) -> dict[str, np.ndarray]:
    """Means and standard errors of `_policy_totals` over independent populations,
    each laid out as a row of the totals: the whole population's, then each cluster's.

    Repetition r simulates the stream of `SeedSequence([seed, r])`, and
    its totals are entry r of the last axis, so no total depends on which
    thread ran it: contiguous ranges of repetitions run on at most one
    thread per core, the calling thread running the first. Each population
    lives only inside its `_policy_totals` call, so a worker frees one
    before it simulates the next, and the memory check counts one per
    worker. Every population keeps `_TOTALS`: it keeps no winning rows,
    skips the conversions and holds O(users) (see `_simulate_chunk`).
    """
    if n_reps < 1:
        raise ValidationError("n_reps must be >= 1")
    # every repetition's totals are held until their mean is taken: 16 B per value-and-cost
    # pair (the whole population's and each cluster's), and the standard deviation, taken one
    # row at a time, adds a temporary copy of one row, 8 B per pair. tracemalloc put the peak
    # at 24.0 B per pair and repetition at 400k repetitions, for 2, 6 and 20 clusters.
    per_rep = 24 * (len(bucket_boundaries) + 2)
    _check_memory(n_reps * per_rep, f"reps={_approx(n_reps)} needs about {_approx(n_reps * per_rep)} B "
                  f"({_approx(n_reps)}*{per_rep} B of per-repetition totals)", _physical_memory())
    n_workers = max(1, min(_n_workers(), n_reps))
    _check_population_memory(config, n_workers)
    totals = np.empty((2, len(bucket_boundaries) + 2, n_reps))  # each total's repetitions side by side

    def run(first: int, last: int) -> None:
        for rep in range(first, last):
            rep_seed = np.random.SeedSequence([int(seed), rep])
            totals[..., rep] = _policy_totals(config, policy, rep_seed, bucket_boundaries)

    _in_parallel(run, n_reps, n_workers)
    ddof = 1 if n_reps > 1 else 0
    (value, cost), (value_sd, cost_sd) = totals.mean(axis=-1), [row.std(axis=-1, ddof=ddof) for row in totals]
    return {"value": value, "cost": cost, "value_se": value_sd / np.sqrt(n_reps), "cost_se": cost_sd / np.sqrt(n_reps)}


def oracle_policy_outcome(
    config: SimConfig,
    policy: BidPolicy,
    n_reps: int,
    seed: int,
    bucket_boundaries: tuple[int, ...] = DEFAULT_BUCKETS,
) -> PolicyOutcome:
    """Ground-truth policy outcome: mean totals over independent populations."""
    out = _oracle_reps(config, policy, n_reps, seed, bucket_boundaries)
    return PolicyOutcome(n_reps=n_reps, **{key: float(v[0]) for key, v in out.items()})


def oracle_cluster_outcomes(
    config: SimConfig,
    policy: BidPolicy,
    n_reps: int,
    seed: int,
    bucket_boundaries: tuple[int, ...] = DEFAULT_BUCKETS,
) -> dict[str, np.ndarray]:
    """Per-cluster oracle totals (means and standard errors over reps)."""
    return {key: v[1:] for key, v in _oracle_reps(config, policy, n_reps, seed, bucket_boundaries).items()}


def ab_outcomes(config: SimConfig, spec: RandomizationSpec, policy: PolicySpec, n_reps: int, seed: int,
                bucket_boundaries: tuple[int, ...] = DEFAULT_BUCKETS) -> dict[str, PolicyOutcome]:
    """A simulated A/B test of `policy`: the oracle outcome of the impatient bidder
    (`baseline`, seeded `seed`), of the policy's multipliers fixed at each user's
    cluster at collection start (`fixed_factor`, `seed + 1`) and of them looked up
    from the current exposure (`dynamic_factor`, `seed + 2`)."""
    n_clusters = len(bucket_boundaries) + 1
    arms = {
        "baseline": BidPolicy.impatient(spec),
        "fixed_factor": BidPolicy.from_policy_spec(spec, policy, n_clusters),
        "dynamic_factor": BidPolicy.from_policy_spec(spec, policy, n_clusters, dynamic=True),
    }
    return {name: oracle_policy_outcome(config, bids, n_reps, seed + i, bucket_boundaries)
            for i, (name, bids) in enumerate(arms.items())}


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
