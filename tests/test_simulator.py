import __future__
import inspect
import io
import re
import textwrap
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from impatience import (
    DEFAULT_BUCKETS,
    BidPolicy,
    Distribution,
    PolicySpec,
    RandomizationSpec,
    RandomizedLog,
    SimConfig,
    ValidationError,
    default_config,
    default_randomization,
    oracle_cluster_outcomes,
    oracle_policy_outcome,
    simulate_log,
    two_auction_demo,
    write_log,
)
from impatience import simulator
from impatience.domain import assign_clusters


def small_config(**overrides) -> SimConfig:
    base = dict(
        n_users=4000,
        auctions_per_user=Distribution(kind="poisson", mean=8.0),
        value_per_conversion=10.0,
        base_conversion_prob=0.05,
        fatigue_decay=0.8,
        competition=Distribution(kind="lognormal", mu=float(np.log(0.4)), sigma=1.2),
        initial_exposure=(0.4, 0.3, 0.3),
        activity_by_exposure=None,
    )
    base.update(overrides)
    return SimConfig(**base)


SPEC = RandomizationSpec(0.0, 0.3)


def log_bytes(log) -> str:
    buf = io.StringIO()
    write_log(log, buf)
    return buf.getvalue()


class TestConfigValidation:
    def test_rejects_bad_probs(self):
        with pytest.raises(ValidationError):
            small_config(initial_exposure=(0.5, 0.1))

    def test_rejects_gamma_above_one(self):
        with pytest.raises(ValidationError):
            small_config(fatigue_decay=1.5)

    def test_json_roundtrip(self):
        cfg = default_config()
        assert SimConfig.from_json(cfg.to_json()) == cfg

    def test_missing_key_named(self):
        raw = default_config().to_json()
        del raw["fatigue_decay"]
        with pytest.raises(ValidationError, match="missing sim key 'fatigue_decay'"):
            SimConfig.from_json(raw)

    @pytest.mark.parametrize("record,raw,message", [
        (SimConfig, 5, "sim must be a JSON object, got int"),
        (Distribution, {"mu": 0.0, "sigma": 1.0}, "missing distribution key 'kind'"),
        (RandomizationSpec, {"mu": 0.0, "sigma": 0.3, "sigmaa": 0.9}, r"unknown randomization keys \['sigmaa'\]"),
        (RandomizationSpec, {"mu": 0.0}, "missing randomization key 'sigma'"),
    ])
    def test_reader_checks_the_document(self, record, raw, message):
        # the first once ended in a TypeError and the second named a kind None
        with pytest.raises(ValidationError, match=message):
            record.from_json(raw)

    def test_integer_json_numbers_become_floats(self):
        raw = {**default_config().to_json(), "value_per_conversion": 10, "initial_exposure": [0, 1]}
        raw.pop("activity_by_exposure")
        cfg = SimConfig.from_json(raw)
        assert type(cfg.value_per_conversion) is float and cfg.value_per_conversion == 10.0
        assert cfg.initial_exposure == (0.0, 1.0)

    def test_unknown_key_rejected(self):
        raw = default_config().to_json()
        raw["budget"] = 10
        with pytest.raises(ValidationError, match="unknown"):
            SimConfig.from_json(raw)

    @pytest.mark.parametrize("count", [7, 7.0])
    def test_constant_auction_count_may_be_a_whole_float(self, count):
        cfg = small_config(auctions_per_user=Distribution(kind="constant", value=count))
        assert simulate_log(cfg, SPEC, 0).n_auctions.tolist() == [7] * cfg.n_users

    @pytest.mark.parametrize("field,value,message", [
        ("n_users", "x", "sim 'n_users' must be an integer"),
        ("n_users", True, "sim 'n_users' must be an integer"),
        ("value_per_conversion", None, "sim 'value_per_conversion' must be a finite number"),
        ("fatigue_decay", float("nan"), "sim 'fatigue_decay' must be a finite number"),
        ("initial_exposure", "abc", "sim 'initial_exposure' must be a list of finite numbers"),
        ("activity_by_exposure", (1.0, float("inf"), 1.0), "sim 'activity_by_exposure' must be a list of finite"),
    ])
    def test_fields_built_in_code_are_checked(self, field, value, message):
        # the rules `from_json` applied to JSON documents hold for a config built in code
        with pytest.raises(ValidationError, match=message):
            small_config(**{field: value})

    @pytest.mark.parametrize("kind,params,message", [
        ("lognormal", dict(mu=float("nan"), sigma=1.0), "distribution 'mu' must be a finite number"),
        ("uniform", dict(low=0.0, high=float("inf")), "distribution 'high' must be a finite number"),
        ("poisson", dict(mean="3"), "distribution 'mean' must be a finite number"),
    ])
    def test_distribution_parameters_must_be_finite_numbers(self, kind, params, message):
        with pytest.raises(ValidationError, match=message):
            Distribution(kind=kind, **params)

    @pytest.mark.parametrize("count", [2.5, -2])
    def test_constant_auction_count_must_be_a_non_negative_integer(self, count):
        # 2.5 was read as 2 auctions; -2 ended in a numpy ValueError
        with pytest.raises(ValidationError, match="constant auctions_per_user must be a non-negative integer"):
            small_config(auctions_per_user=Distribution(kind="constant", value=count))


class TestSimulateLog:
    def test_deterministic_identical_bytes(self):
        cfg = small_config()
        a = simulate_log(cfg, SPEC, seed=123)
        b = simulate_log(cfg, SPEC, seed=123)
        assert log_bytes(a) == log_bytes(b)
        c = simulate_log(cfg, SPEC, seed=124)
        assert log_bytes(a) != log_bytes(c)

    def test_no_users_gives_the_empty_log(self):
        log = simulate_log(small_config(n_users=0), SPEC, seed=0)
        assert log == RandomizedLog(SPEC, ())
        assert log_bytes(log).count("\n") == 1

    def test_unwinnable_competition_gives_no_wins(self):
        # competition lower bound above any possible bid
        cfg = small_config(competition=Distribution(kind="uniform", low=1e6, high=2e6))
        log = simulate_log(cfg, SPEC, seed=5)
        arr = log.arrays
        assert arr["n_wins"].sum() == 0
        assert arr["cost"].sum() == 0.0
        assert arr["value_observed"].sum() == 0.0

    def test_degenerate_competition_single_auction(self):
        # gamma=1, one auction per user, constant competing bid c that always loses
        c = 0.01
        cfg = small_config(
            n_users=20_000,
            fatigue_decay=1.0,
            auctions_per_user=Distribution(kind="constant", value=1),
            competition=Distribution(kind="constant", value=c),
            initial_exposure=(1.0,),
        )
        log = simulate_log(cfg, SPEC, seed=11)
        arr = log.arrays
        # bid = theta * 10 * 0.05 = 0.5 * theta > c for every plausible theta
        assert arr["n_wins"].sum() == cfg.n_users
        assert np.allclose(arr["cost"], c)
        expected = cfg.value_per_conversion * cfg.base_conversion_prob
        assert np.allclose(arr["value_predicted"], expected)
        # realized conversions average to the predicted value
        se = arr["value_observed"].std() / np.sqrt(cfg.n_users)
        assert abs(arr["value_observed"].mean() - expected) < 3 * se

    def test_value_proxy_is_conditionally_unbiased(self):
        cfg = small_config(n_users=60_000)
        log = simulate_log(cfg, SPEC, seed=21)
        arr = log.arrays
        diff = arr["value_observed"] - arr["value_predicted"]
        se = diff.std(ddof=1) / np.sqrt(len(diff))
        assert abs(diff.mean()) < 3 * se

    def test_value_predicted_exact_identity(self):
        # gamma=1 makes value_predicted = n_wins * vpc * p0 exactly
        cfg = small_config(fatigue_decay=1.0)
        log = simulate_log(cfg, SPEC, seed=3)
        arr = log.arrays
        expected = arr["n_wins"] * cfg.value_per_conversion * cfg.base_conversion_prob
        assert np.allclose(arr["value_predicted"], expected, rtol=1e-12)

    def test_fatigue_caps_value_predicted(self):
        # per-win value is vpc * p0 * gamma^k <= vpc * p0
        cfg = small_config()
        log = simulate_log(cfg, SPEC, seed=9)
        arr = log.arrays
        cap = arr["n_wins"] * cfg.value_per_conversion * cfg.base_conversion_prob
        assert np.all(arr["value_predicted"] <= cap + 1e-12)

    def test_payment_below_bid_cost_bound(self):
        # second price: per-user cost is below theta * sum of per-win values
        cfg = small_config()
        log = simulate_log(cfg, SPEC, seed=13)
        arr = log.arrays
        max_bid = arr["theta"] * cfg.value_per_conversion * cfg.base_conversion_prob
        assert np.all(arr["cost"] <= arr["n_wins"] * max_bid + 1e-9)

    def test_win_monotonicity_in_theta(self):
        # same seed and competition draws; scaling mu up scales every theta up
        cfg = small_config()
        lo = simulate_log(cfg, RandomizationSpec(-0.2, 0.3), seed=17)
        hi = simulate_log(cfg, RandomizationSpec(0.3, 0.3), seed=17)
        wins_lo = lo.arrays["n_wins"]
        wins_hi = hi.arrays["n_wins"]
        assert np.all(wins_hi >= wins_lo)
        assert np.all(hi.arrays["cost"] >= lo.arrays["cost"] - 1e-12)

    def test_exposure_start_distribution(self):
        cfg = small_config(n_users=30_000)
        log = simulate_log(cfg, SPEC, seed=19)
        counts = np.bincount(log.arrays["exposure_at_start"], minlength=3) / len(log)
        assert np.allclose(counts, cfg.initial_exposure, atol=0.01)

    def test_log_theta_mean_matches_mu(self):
        cfg = small_config(n_users=50_000)
        spec = RandomizationSpec(0.15, 0.3)
        log = simulate_log(cfg, spec, seed=23)
        lt = np.log(log.arrays["theta"])
        assert abs(lt.mean() - spec.mu) < 3 * lt.std() / np.sqrt(len(log))


class TestOraclePolicyOutcome:
    def test_identity_policy_matches_baseline(self):
        cfg = small_config(n_users=20_000)
        base = oracle_policy_outcome(cfg, BidPolicy.impatient(SPEC), n_reps=6, seed=1)
        ident = BidPolicy.from_policy_spec(SPEC, PolicySpec({c: 1.0 for c in range(6)}), 6)
        same = oracle_policy_outcome(cfg, ident, n_reps=6, seed=1)
        # identical seeds and multipliers 1: the two policies are the same world
        assert same.value == base.value
        assert same.cost == base.cost

    def test_zero_multiplier_spends_nothing(self):
        cfg = small_config()
        zero = BidPolicy(kind="cluster_multiplier", randomization=SPEC, multipliers=(0.0,) * 6)
        out = oracle_policy_outcome(cfg, zero, n_reps=2, seed=2)
        assert out.cost == 0.0
        assert out.value == 0.0

    def test_uniform_bid_raise_increases_cost(self):
        cfg = small_config(fatigue_decay=1.0, n_users=20_000)
        base = oracle_policy_outcome(cfg, BidPolicy.impatient(SPEC), n_reps=5, seed=3)
        up = BidPolicy(kind="cluster_multiplier", randomization=SPEC, multipliers=(1.1,) * 6)
        treated = oracle_policy_outcome(cfg, up, n_reps=5, seed=3)
        assert treated.cost > base.cost

    def test_outcome_carries_replication_metadata(self):
        cfg = small_config(n_users=2000)
        out = oracle_policy_outcome(cfg, BidPolicy.impatient(SPEC), n_reps=3, seed=4)
        assert out.n_reps == 3
        assert out.value_se > 0 and out.cost_se > 0

    @pytest.mark.parametrize("n_reps", [1, 3])
    def test_totals_are_the_sum_of_the_cluster_totals(self, n_reps):
        cfg = small_config(n_users=3000)
        policy = BidPolicy(kind="cluster_multiplier", randomization=SPEC, multipliers=(0.9, 1.0, 1.1, 1.2, 0.8, 1.0))
        total = oracle_policy_outcome(cfg, policy, n_reps=n_reps, seed=5)
        by_cluster = oracle_cluster_outcomes(cfg, policy, n_reps=n_reps, seed=5)
        assert total.value == pytest.approx(by_cluster["value"].sum(), rel=1e-12)
        assert total.cost == pytest.approx(by_cluster["cost"].sum(), rel=1e-12)

    def test_rejects_no_reps(self):
        for oracle in (oracle_policy_outcome, oracle_cluster_outcomes):
            with pytest.raises(ValidationError, match="n_reps"):
                oracle(small_config(n_users=10), BidPolicy.impatient(SPEC), n_reps=0, seed=0)


class TestTwoAuctionDemo:
    def test_unwinnable_second_auction_bids_truthfully(self):
        comp1 = Distribution(kind="uniform", low=0.0, high=100.0)
        comp2 = Distribution(kind="uniform", low=500.0, high=600.0)
        res = two_auction_demo(100.0, comp1, grid_step=0.5, second_competition=comp2)
        assert res.best_first_bid == 100.0

    def test_repeated_auction_shades_below_value(self):
        comp = Distribution(kind="uniform", low=0.0, high=100.0)
        res = two_auction_demo(100.0, comp, grid_step=0.25)
        assert res.best_first_bid < 100.0
        # uniform [0,100] both rounds: analytic optimum is 50
        assert res.best_first_bid == pytest.approx(50.0, abs=0.25)

    def test_profit_curve_matches_monte_carlo(self):
        comp = Distribution(kind="uniform", low=0.0, high=100.0)
        res = two_auction_demo(100.0, comp, grid_step=10.0)
        rng = np.random.default_rng(0)
        n = 200_000
        c1 = rng.uniform(0, 100, n)
        c2 = rng.uniform(0, 100, n)
        for bid, analytic in zip(res.bids, res.expected_profit):
            won = bid > c1
            profit = np.where(won, 100.0 - c1, np.where(100.0 > c2, 100.0 - c2, 0.0))
            se = profit.std(ddof=1) / np.sqrt(n)
            assert abs(profit.mean() - analytic) < 3 * se

    def test_closed_form_profit_matches_quadrature(self):
        for comp in (
            Distribution(kind="uniform", low=0.0, high=100.0),
            Distribution(kind="lognormal", mu=3.0, sigma=0.8),
            # E[C] underflows to 0; Phi is 1 above 0
            Distribution(kind="lognormal", mu=-800.0, sigma=0.5),
            # E[C] overflows a float, so the partial mean takes its erfcx form
            Distribution(kind="lognormal", mu=0.0, sigma=40.0),
            Distribution(kind="lognormal", mu=1000.0, sigma=1.0),
        ):
            for bid in (5.0, 40.0, 99.0):
                exact = comp.expected_second_price_profit(bid, 100.0)
                quad = quadrature_profit(comp, bid, 100.0)
                assert exact == pytest.approx(quad, rel=1e-8, abs=1e-10)


def quadrature_profit(comp, bid, value):
    """E[(value - C) ; C < bid] for competing bid C, by numeric quadrature.

    The reference for `Distribution.expected_second_price_profit`. A
    uniform C is integrated over c; a lognormal C over y = ln c, whose
    normal density stays finite where exp(mu) over- or underflows.
    """
    if comp.kind == "uniform":
        lo, hi = comp.low, min(bid, comp.high)
        integrand = lambda c: (value - c) / (comp.high - comp.low)
    else:
        # all but 1e-300 of ln C's mass lies within 40 sigma of mu
        lo, hi = comp.mu - 40 * comp.sigma, min(np.log(bid), comp.mu + 40 * comp.sigma)
        integrand = lambda y: (value - np.exp(y)) * stats.norm.pdf(y, comp.mu, comp.sigma)
    if hi <= lo:
        return 0.0
    out, _ = integrate.quad(integrand, lo, hi, limit=200)
    return out


class TestClosedForms:
    """`Distribution.cdf` and `partial_mean_below` against scipy.stats."""

    XS = np.linspace(0.0, 100.0, 20_001)

    @pytest.mark.parametrize("mu,sigma", [(3.0, 0.8), (0.0, 1.0), (float(np.log(0.4)), 1.2), (2.0, 2.0)])
    def test_lognormal_matches_scipy(self, mu, sigma):
        comp = Distribution(kind="lognormal", mu=mu, sigma=sigma)
        cdf = stats.lognorm.cdf(self.XS, s=sigma, scale=np.exp(mu))
        # E[X; X<x] = E[X] * Phi((ln x - mu - sigma^2) / sigma); its bound is
        # 1e-15 of E[X], the largest value it takes, since its float spacing
        # near E[X] = 27.7 (mu=3) is 3.6e-15
        mean = np.exp(mu + sigma**2 / 2)
        with np.errstate(divide="ignore"):
            partial = mean * stats.norm.cdf((np.log(self.XS) - mu - sigma**2) / sigma)
        got_cdf = np.array([comp.cdf(x) for x in self.XS])
        got_partial = np.array([comp.partial_mean_below(x) for x in self.XS])
        assert np.abs(got_cdf - cdf).max() <= 1e-15
        assert np.abs(got_partial - partial).max() <= 1e-15 * mean

    def test_uniform_cdf_equals_scipy(self):
        comp = Distribution(kind="uniform", low=20.0, high=70.0)
        xs = self.XS - 10.0
        got = np.array([comp.cdf(x) for x in xs])
        np.testing.assert_array_equal(got, stats.uniform.cdf(xs, loc=20.0, scale=50.0))


def reference_population(config, spec, seed, bucket_boundaries=DEFAULT_BUCKETS, multipliers=None,
                         dynamic=False, collect_displays=False):
    """The simulator one user and one auction at a time, over its step-major draws.

    Each chunk draws e0, theta and the auction counts m, then one competing bid
    and one conversion uniform per real auction. The cells are laid out step by
    step: at step t each user with an auction left takes one cell, in order of
    auction count (descending, ties by user index), so the user at rank r reads
    cell start[t] + r."""
    rng = np.random.default_rng(seed)
    gamma = config.fatigue_decay
    p0 = config.base_conversion_prob
    vpc = config.value_per_conversion
    levels = np.arange(len(config.initial_exposure))
    probs = np.asarray(config.initial_exposure)
    act = config._activity_multipliers()
    mult = None if multipliers is None else [float(a) for a in multipliers]
    keys = ("theta", "exposure_at_start", "cluster", "cost", "value_observed",
            "value_predicted", "n_auctions", "n_wins")
    out = {k: [] for k in keys}
    displays = []  # (exposure, converted) per won auction, by chunk, step, then rank
    remaining = config.n_users
    while remaining > 0:
        n = min(remaining, simulator._CHUNK)
        remaining -= n
        e0 = rng.choice(levels, p=probs, size=n)
        theta = rng.lognormal(spec.mu, spec.sigma, n)
        if config.auctions_per_user.kind == "poisson":
            m = rng.poisson(config.auctions_per_user.mean * act[e0], n)
        else:
            m = np.full(n, int(config.auctions_per_user.value))
        rank = {user: r for r, user in enumerate(sorted(range(n), key=lambda i: -m[i]))}
        start = [0]
        for t in range(int(m.max())):
            start.append(start[-1] + sum(1 for count in m if count > t))
        comp = config.competition.sample(rng, start[-1]).tolist()
        conv_u = rng.random(start[-1]).tolist()
        cluster = assign_clusters(e0, bucket_boundaries)
        p_by_exposure = (p0 * gamma ** np.arange(len(levels) + int(m.max())).astype(np.float64)).tolist()
        cost, vobs, vpred = np.zeros(n), np.zeros(n), np.zeros(n)
        wins = np.zeros(n, dtype=np.int64)
        chunk_displays = []
        for i in range(n):
            k = int(e0[i])
            for t in range(int(m[i])):
                cell = start[t] + rank[i]
                p_k = p_by_exposure[k]
                if mult is None:
                    alpha = 1.0
                elif dynamic:
                    alpha = mult[assign_clusters(k, bucket_boundaries)]
                else:
                    alpha = mult[cluster[i]]
                if alpha * theta[i] * vpc * p_k > comp[cell]:
                    converted = conv_u[cell] < p_k
                    cost[i] += comp[cell]
                    vpred[i] += vpc * p_k
                    vobs[i] += vpc if converted else 0.0
                    chunk_displays.append((t, rank[i], k, converted))
                    k += 1
                    wins[i] += 1
        displays.extend((k, converted) for _, _, k, converted in sorted(chunk_displays))
        for key, arr in zip(keys, (theta, e0, cluster, cost, vobs, vpred, m.astype(np.int64), wins)):
            out[key].append(arr)
    result = {k: (np.concatenate(v) if v else np.array([])) for k, v in out.items()}
    if collect_displays:
        result["display_exposure"] = np.array([k for k, _ in displays], dtype=np.int64)
        result["display_converted"] = np.array([c for _, c in displays], dtype=bool)
    return result


MULT = (1.3, 0.7, 1.1, 0.9, 1.0, 0.5)
WORLDS = {
    # activity scaling: per-level means 1.5, 4.5 and 13.5; about 22% of users have no auction
    "poisson_activity": dict(
        auctions_per_user=Distribution(kind="poisson", mean=6.0), activity_by_exposure=(1.0, 3.0, 9.0)
    ),
    "constant": dict(auctions_per_user=Distribution(kind="constant", value=7)),
    "no_auctions": dict(auctions_per_user=Distribution(kind="constant", value=0)),
    "no_users": dict(n_users=0),
    "uniform_competition": dict(competition=Distribution(kind="uniform", low=0.0, high=1.0)),
    "poisson_competition": dict(competition=Distribution(kind="poisson", mean=0.3)),
    # 0.3 is not exact in binary, and some users convert 6 times or more, where
    # the running sum 0.3 + 0.3 + ... first differs from 0.3 times the count
    "inexact_value": dict(value_per_conversion=0.3, base_conversion_prob=0.9,
                          competition=Distribution(kind="uniform", low=0.0, high=0.3)),
    "no_fatigue": dict(fatigue_decay=1.0),
    # about 10 users average 273 auctions: the sort key of a count above 255 takes 16 bits
    "heavy_tail": dict(
        auctions_per_user=Distribution(kind="poisson", mean=2.0),
        initial_exposure=(0.996, 0.004),
        activity_by_exposure=(1.0, 300.0),
    ),
}
POLICIES = {
    "base": dict(),
    "fixed": dict(multipliers=np.array(MULT)),
    "dynamic": dict(multipliers=np.array(MULT), dynamic=True),
    "displays": dict(collect_displays=True),
}


def population(cfg, seed, multipliers=None, dynamic=False, collect_displays=False):
    """`_simulate_population` of the policy that `reference_population` takes as loose arguments."""
    if multipliers is None:
        policy = BidPolicy.impatient(SPEC)
    else:
        policy = BidPolicy("cluster_multiplier", SPEC, tuple(multipliers), dynamic)
    return simulator._simulate_population(cfg, policy, seed, collect_displays=collect_displays)


def assert_same_bytes(got, ref):
    assert got.keys() == ref.keys()
    for key in ref:
        assert got[key].dtype == ref[key].dtype, key
        assert got[key].shape == ref[key].shape, key
        assert got[key].tobytes() == ref[key].tobytes(), key


def mutate_chunk(monkeypatch, old, new):
    """Replace `_simulate_chunk` by its source with `old` swapped for `new`."""
    source = textwrap.dedent(inspect.getsource(simulator._simulate_chunk))
    assert source.count(old) == 1, old
    namespace = dict(vars(simulator))
    code = compile(source.replace(old, new), simulator.__file__, "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    monkeypatch.setattr(simulator, "_simulate_chunk", namespace["_simulate_chunk"])


MUTANTS = {
    # every step after the first reads its cells t places early
    "slice_offset": ("c, lo, hi = n_active[t], start[t], start[t + 1]",
                     "c, lo, hi = n_active[t], start[t] - t, start[t + 1] - t"),
    # each step also bids for the first user with no auction left
    "extra_user": ("# count(m > t)\n", "# count(m > t)\n    n_active = np.minimum(n_active + 1, n)\n"),
    # each display records the exposure after its win, not at it
    "display_exposure_after_win": ("disp_exposure.append(k_t[won])", "disp_exposure.append(k_t[won] + 1)"),
    # each start level's value table begins one win late
    "value_table_shift": ("p_by_exposure[e:e + w]", "p_by_exposure[e + 1:e + 1 + w]"),
}


class TestActiveUserLoop:
    """The active-prefix step loop over step-major draws equals the per-user
    reference byte for byte."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("world", sorted(WORLDS))
    def test_matches_padded_loop(self, world, policy):
        cfg = small_config(**{"n_users": 2500, **WORLDS[world]})
        for seed in (0, 1):
            got = population(cfg, seed, **POLICIES[policy])
            ref = reference_population(cfg, SPEC, seed, **POLICIES[policy])
            assert_same_bytes(got, ref)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_heavy_tail_needs_a_16_bit_sort_key(self, seed):
        cfg = small_config(n_users=2500, **WORLDS["heavy_tail"])
        assert population(cfg, seed)["n_auctions"].max() > 255

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_matches_padded_loop_across_chunks_and_draw_blocks(self, policy, monkeypatch):
        monkeypatch.setattr(simulator, "_CHUNK", 700)
        cfg = small_config(n_users=2500, **WORLDS["poisson_activity"])
        got = population(cfg, 3, **POLICIES[policy])
        ref = reference_population(cfg, SPEC, 3, **POLICIES[policy])
        assert_same_bytes(got, ref)

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_reference_catches_mutant(self, mutant, monkeypatch):
        mutate_chunk(monkeypatch, *MUTANTS[mutant])
        cfg = small_config(n_users=2500, **WORLDS["poisson_activity"])
        got = population(cfg, 0, collect_displays=True)
        ref = reference_population(cfg, SPEC, 0, collect_displays=True)
        with pytest.raises(AssertionError):
            assert_same_bytes(got, ref)


class TestMemory:
    def test_heavy_tailed_activity_memory_scales_with_real_auctions(self):
        # 0.2% of users average about 3300 auctions and the rest about 3, so a
        # grid padded to the largest count would hold about 350x the real cells
        cfg = small_config(
            n_users=5000,
            auctions_per_user=Distribution(kind="poisson", mean=10.0),
            initial_exposure=(0.998, 0.002),
            activity_by_exposure=(1.0, 1000.0),
        )
        tracemalloc.start()
        try:
            pop = population(cfg, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cells = int(pop["n_auctions"].sum())
        bound = 4 * 16 * cells + 512 * cfg.n_users  # draws: 16 B per real auction
        padded = 16 * cfg.n_users * int(pop["n_auctions"].max())
        assert padded >= 10 * bound  # the padded grid would break the bound
        assert peak < bound

    @pytest.mark.parametrize("chunk", [simulator._CHUNK, 100])
    def test_population_memory_estimate_is_checked_before_simulating(self, monkeypatch, chunk):
        # a block of min(n, chunk) users draws 8 B per auction at the mean count
        # rounded up, and every user keeps 64 B: exact integers throughout
        cfg = small_config(n_users=1000, auctions_per_user=Distribution(kind="poisson", mean=7.5))
        needed = min(1000, chunk) * 8 * 8 + 1000 * 64
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        monkeypatch.setattr(simulator, "_physical_memory", lambda: needed)
        assert len(population(cfg, 0)["theta"]) == 1000
        monkeypatch.setattr(simulator, "_physical_memory", lambda: needed - 1)
        with pytest.raises(ValidationError, match=re.escape(f"need about {needed:.3g} B")):
            population(cfg, 0)
