import __future__
import inspect
import io
import os
import re
import sys
import textwrap
import threading
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
    simulate_display_trace,
    simulate_log,
    two_auction_demo,
    write_log,
)
from impatience import simulator
from impatience.domain import _DTYPES, _ID_DTYPE, assign_clusters


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
        ("n_users", "x", "sim 'n_users' must be a non-negative integer"),
        ("n_users", True, "sim 'n_users' must be a non-negative integer"),
        ("n_users", -1, "sim 'n_users' must be a non-negative integer, got -1"),
        ("value_per_conversion", 0.0, "sim 'value_per_conversion' must be a finite number > 0, got 0.0"),
        ("base_conversion_prob", 1.0, r"sim 'base_conversion_prob' must be a finite number in \(0, 1\), got 1.0"),
        ("value_per_conversion", None, "sim 'value_per_conversion' must be a finite number"),
        ("fatigue_decay", float("nan"), "sim 'fatigue_decay' must be a finite number"),
        ("initial_exposure", "abc", "sim 'initial_exposure' must be a list of finite numbers"),
        ("activity_by_exposure", (1.0, float("inf"), 1.0), "sim 'activity_by_exposure' must be a list of finite"),
        ("activity_by_exposure", (1.0, 2.0), "^activity_by_exposure must be positive and match initial_exposure"),
        ("activity_by_exposure", (1.0, 0.0, 1.0), "^activity_by_exposure must be positive and match initial_exposure"),
    ])
    def test_fields_built_in_code_are_checked(self, field, value, message):
        # the rules `from_json` applied to JSON documents hold for a config built in code
        with pytest.raises(ValidationError, match=message):
            small_config(**{field: value})

    @pytest.mark.parametrize("kind,params,message", [
        ("lognormal", dict(mu=float("nan"), sigma=1.0), "distribution 'mu' must be a finite number"),
        ("uniform", dict(low=0.0, high=float("inf")), "distribution 'high' must be a finite number"),
        ("poisson", dict(mean="3"), "distribution 'mean' must be a finite number"),
        # a sigma that a uniform spec does not read was once taken as it was
        ("uniform", dict(low=0.0, high=1.0, sigma=0.0), "distribution 'sigma' must be a finite number > 0, got 0.0"),
    ])
    def test_distribution_parameters_must_be_finite_numbers(self, kind, params, message):
        with pytest.raises(ValidationError, match=message):
            Distribution(kind=kind, **params)

    @pytest.mark.parametrize("kind,params,message", [
        ("lognormal", dict(mu=0.0), "lognormal requires mu and sigma"),
        ("uniform", dict(low=1.0, high=1.0), "uniform requires low < high"),
        ("poisson", dict(mean=-1.0), "poisson requires mean >= 0"),
    ])
    def test_distribution_parameters_must_fit_their_kind(self, kind, params, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Distribution(kind=kind, **params)

    @pytest.mark.parametrize("kind,params,stray", [
        ("constant", dict(value=0.4, mu=3.0), "mu"),
        ("lognormal", dict(mu=0.0, sigma=1.0, low=0.0, high=2.0), "low or high"),
        ("poisson", dict(mean=2.0, value=2.0), "value"),
        ("uniform", dict(low=0.0, high=1.0, sigma=1.0), "sigma"),
    ])
    def test_distribution_rejects_parameters_its_kind_does_not_read(self, kind, params, stray):
        # each was once kept, and `to_json` wrote it back
        with pytest.raises(ValidationError, match=f"^{kind} takes only .+, not {stray}$"):
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

    @pytest.mark.parametrize("first", [0, 99_999_999, 10**8, 123_456_789_012])
    def test_user_ids_are_u_and_eight_or_more_digits(self, first):
        ids = simulator._user_ids(first, first + 3)
        assert ids.dtype == _ID_DTYPE
        assert ids.tolist() == [f"u{i:08d}" for i in range(first, first + 3)]

    def test_user_ids_across_blocks_and_widths(self, monkeypatch):
        monkeypatch.setattr(simulator, "_CHUNK", 7)
        ids = simulator._user_ids(99_999_990, 100_000_010)
        assert ids.tolist() == [f"u{i:08d}" for i in range(99_999_990, 100_000_010)]
        log = simulate_log(small_config(n_users=30), SPEC, seed=0)
        assert log.user_ids.tolist() == [f"u{i:08d}" for i in range(30)]

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

    def test_no_users_give_zero_totals(self, monkeypatch):
        # the empty population's columns were once float64, and bincount refused its clusters
        out = oracle_cluster_outcomes(default_config(n_users=0), BidPolicy.impatient(SPEC), 2, 0)
        assert out["value"].tolist() == out["cost"].tolist() == [0.0] * 6
        # every kind of population, of no block, one and two, holds each field in the dtype that `keep` names
        monkeypatch.setattr(simulator, "_CHUNK", 100)
        for keep in (_DTYPES, simulator._TOTALS, simulator._TRACE):
            for n_users in (0, 100, 200):
                pop = simulator._simulate_population(small_config(n_users=n_users), BidPolicy.impatient(SPEC), 0,
                                                     keep=keep)
                assert {k: v.dtype for k, v in pop.items()} == {k: np.dtype(t) for k, t in keep.items()}, n_users

    @pytest.mark.parametrize("n", [3, 8])
    def test_policy_must_fit_the_clusters(self, n):
        # 3 multipliers once ended in an IndexError, and 8 silently dropped two
        policy = BidPolicy(kind="cluster_multiplier", randomization=SPEC, multipliers=(1.0,) * n)
        with pytest.raises(ValidationError, match=f"^the bid policy holds {n} multipliers, but the bucket "
                                                  "boundaries make 6 clusters$"):
            oracle_policy_outcome(small_config(n_users=100), policy, n_reps=1, seed=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "1.0"])
    def test_multipliers_must_be_finite_numbers(self, value):
        # a NaN multiplier once never won an auction, and the run exited 0
        with pytest.raises(ValidationError, match="^bid policy 'multipliers' must be a list of finite numbers"):
            BidPolicy(kind="cluster_multiplier", randomization=SPEC, multipliers=(1.0,) * 5 + (value,))

    @pytest.mark.parametrize("kind,multipliers,message", [
        ("cluster", (1.0,) * 6, "unknown policy kind 'cluster'"),
        ("cluster_multiplier", None, "cluster_multiplier policy requires multipliers"),
        ("cluster_multiplier", (1.0,) * 5 + (-0.5,), "multipliers must be >= 0"),
        ("impatient_randomized", (1.0,) * 6, "impatient_randomized policy takes no multipliers"),
    ])
    def test_bid_policy_kind_and_multipliers_must_agree(self, kind, multipliers, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            BidPolicy(kind=kind, randomization=SPEC, multipliers=multipliers)

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

    @pytest.mark.parametrize("log_bid", [690.0, 700.0, 705.0])
    def test_partial_mean_past_the_float_range_matches_quadrature(self, log_bid):
        # E[C] = exp(705 + 3.5**2 / 2) overflows a float, and at these bids the erfcx
        # form's argument is 5.5, 3.5 and 2.5, where erfcx is exp(t^2) * erfc(t)
        comp = Distribution(kind="lognormal", mu=705.0, sigma=3.5)
        # the quadrature over y = ln c, with c / bid in the integrand so that it stays in range
        scaled, _ = integrate.quad(lambda y: np.exp(y - log_bid) * stats.norm.pdf(y, 705.0, 3.5),
                                   705.0 - 40 * 3.5, log_bid, limit=200)
        bid = np.exp(log_bid)
        assert comp.partial_mean_below(bid) == pytest.approx(scaled * bid, rel=1e-8)


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
    result = {k: (np.concatenate(v) if v else np.empty(0, _DTYPES[k])) for k, v in out.items()}
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
    """`_simulate_population` of the policy that `reference_population` takes as loose arguments; with
    `collect_displays`, a log population and a trace population of the same seed, merged."""
    if multipliers is None:
        policy = BidPolicy.impatient(SPEC)
    else:
        policy = BidPolicy("cluster_multiplier", SPEC, tuple(multipliers), dynamic)
    pop = simulator._simulate_population(cfg, policy, seed)
    if collect_displays:
        pop.update(simulator._simulate_population(cfg, policy, seed, keep=simulator._TRACE))
    return pop


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
    # each step draws a uniform for every user of the block, so every step after the
    # first reads uniforms that belong to other steps' auctions
    "other_steps_uniforms": ("rng.random(c)[rows]", "rng.random(n)[rows]"),
    # each step also bids for the first user with no auction left
    "extra_user": ("# count(m > t)\n", "# count(m > t)\n    n_active = np.minimum(n_active + 1, n)\n"),
    # each display records the exposure after its win, not at it
    "display_exposure_after_win": ("disp_exposure.append(k_w)", "disp_exposure.append(k_w + 1)"),
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

    def test_log_population_holds_no_competing_bid_per_auction(self):
        # 400 auctions per user, about 3% of them won: a log population keeps each step's
        # winning rows, 8 B per win; holding every competing bid of the block made it 8.4 B
        # per real auction
        cfg = small_config(n_users=5000, auctions_per_user=Distribution(kind="constant", value=400))
        population(small_config(n_users=10), 0)  # first-call work
        tracemalloc.start()
        try:
            population(cfg, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (5000 * 400) < 2

    def test_simulate_log_bytes_per_user(self, monkeypatch):
        # the slope of the traced peak between two sizes, so that a block's fixed working set
        # cancels: 80 B per user are the columns and ids that the log holds. One str per id, a
        # set of them, the blocks' columns joined and then copied by the log made it 209 B per user
        monkeypatch.setattr(simulator, "_CHUNK", 4096)
        simulate_log(default_config(2000), SPEC, 1)  # first-call work
        peaks = {}
        for n in (20_000, 60_000):
            tracemalloc.start()
            try:
                simulate_log(default_config(n), SPEC, 0)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[60_000] - peaks[20_000]) / 40_000 < 120

    @pytest.mark.parametrize("blocks", [4, 8])
    def test_display_trace_peak_stays_under_the_memory_estimate(self, monkeypatch, blocks):
        # a trace population holds no log column: one that built every column of a log and
        # copied them into full-size arrays peaked at 1.05-1.08 times the estimate
        monkeypatch.setattr(simulator, "_CHUNK", 8192)
        estimates, check_memory = [], simulator._check_memory

        def recorded(needed, *args):
            estimates.append(needed)
            check_memory(needed, *args)

        monkeypatch.setattr(simulator, "_check_memory", recorded)
        simulate_display_trace(default_config(2000), SPEC, 1)  # first-call work
        tracemalloc.start()
        try:
            simulate_display_trace(default_config(blocks * 8192), SPEC, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < estimates[-1]

    @pytest.mark.parametrize("chunk", [simulator._CHUNK, 100])
    def test_population_memory_estimate_is_checked_before_simulating(self, monkeypatch, chunk):
        # a block of min(n, chunk) users counts 8 B per auction at the mean count
        # rounded up, and every user 89 B: exact integers throughout
        cfg = small_config(n_users=1000, auctions_per_user=Distribution(kind="poisson", mean=7.5))
        needed = min(1000, chunk) * 8 * 8 + 1000 * 89
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        monkeypatch.setattr(simulator, "_physical_memory", lambda: needed)
        assert len(population(cfg, 0)["theta"]) == 1000
        monkeypatch.setattr(simulator, "_physical_memory", lambda: needed - 1)
        with pytest.raises(ValidationError, match=re.escape(f"need about {needed:.3g} B")):
            population(cfg, 0)


COMPETITIONS = {
    "lognormal": Distribution(kind="lognormal", mu=float(np.log(0.4)), sigma=1.2),
    "uniform": Distribution(kind="uniform", low=0.0, high=1.0),
    "constant": Distribution(kind="constant", value=0.4),
    "poisson": Distribution(kind="poisson", mean=0.3),
}
ORACLE_POLICIES = {
    "base": BidPolicy.impatient(SPEC),
    "fixed": BidPolicy("cluster_multiplier", SPEC, MULT),
    "dynamic": BidPolicy("cluster_multiplier", SPEC, MULT, dynamic=True),
}
#: 0.2% of users average about 3300 auctions and the rest about 3.
HEAVY_TAILED = dict(n_users=5000, auctions_per_user=Distribution(kind="poisson", mean=10.0),
                    initial_exposure=(0.998, 0.002), activity_by_exposure=(1.0, 1000.0))


class TestStreamedOracle:
    """An oracle population draws each step's competing bids in the step loop,
    skips the conversions and advances the stream past their uniforms; its
    totals are the bits that the full population's columns give."""

    @pytest.mark.parametrize("n_chunks", [1, 2, 3])
    @pytest.mark.parametrize("policy", sorted(ORACLE_POLICIES))
    @pytest.mark.parametrize("competition", sorted(COMPETITIONS))
    def test_totals_equal_the_sums_of_the_full_columns(self, monkeypatch, competition, policy, n_chunks):
        # blocks of 2400, 1200 or 800 users: a later block draws what it draws after a full block
        monkeypatch.setattr(simulator, "_CHUNK", 2400 // n_chunks)
        cfg = small_config(n_users=2400, competition=COMPETITIONS[competition], **WORLDS["poisson_activity"])
        pol = ORACLE_POLICIES[policy]
        full = simulator._simulate_population(cfg, pol, 7)
        streamed = simulator._simulate_population(cfg, pol, 7, keep=simulator._TOTALS)
        assert streamed.keys() == {"cluster", "cost", "value_predicted"}
        for key, column in streamed.items():
            assert column.tobytes() == full[key].tobytes(), key
        value, cost = simulator._policy_totals(cfg, pol, 7, DEFAULT_BUCKETS)
        assert (value[0].tobytes(), cost[0].tobytes()) == (full["value_predicted"].sum().tobytes(),
                                                            full["cost"].sum().tobytes())
        for got, column in ((value[1:], "value_predicted"), (cost[1:], "cost")):
            assert got.tobytes() == np.bincount(full["cluster"], weights=full[column], minlength=6).tobytes()

    def test_outcomes_do_not_depend_on_the_worker_count(self, monkeypatch):
        # 7 repetitions split unevenly; a short switch interval interleaves the workers often
        cfg = small_config(n_users=1500)
        pol = ORACLE_POLICIES["dynamic"]
        outcomes = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(simulator, "_n_workers", lambda: workers)
                by_cluster = oracle_cluster_outcomes(cfg, pol, n_reps=7, seed=11)
                outcomes.append((oracle_policy_outcome(cfg, pol, n_reps=7, seed=11),
                                 {key: v.tobytes() for key, v in by_cluster.items()}))
        finally:
            sys.setswitchinterval(interval)
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]

    @pytest.mark.parametrize("cores,n_reps", [(1, 4), (2, 4), (3, 4), (8, 4), (8, 1)])
    def test_never_starts_more_threads_than_cores(self, monkeypatch, cores, n_reps):
        started = []

        class CountedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", CountedThread)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        oracle_policy_outcome(small_config(n_users=300), BidPolicy.impatient(SPEC), n_reps=n_reps, seed=0)
        # the calling thread runs the first range of repetitions itself
        assert len(started) + 1 == min(cores, n_reps)

    def test_memory_check_counts_one_population_per_worker(self, monkeypatch):
        # 1000 users at 7.5 auctions: 8 B per auction for the 8 rounded up, plus 89 B per user
        cfg = small_config(n_users=1000, auctions_per_user=Distribution(kind="poisson", mean=7.5))
        one = 1000 * 8 * 8 + 1000 * 89
        simulate_chunk, thread = simulator._simulate_chunk, threading.Thread

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the size check")

        class NoThread(threading.Thread):
            def start(self):
                raise AssertionError("started a worker before the size check")

        monkeypatch.setattr(simulator, "_n_workers", lambda: 3)
        monkeypatch.setattr(simulator, "_physical_memory", lambda: 3 * one - 1)
        monkeypatch.setattr(simulator, "_simulate_chunk", no_simulation)
        monkeypatch.setattr(threading, "Thread", NoThread)
        with pytest.raises(ValidationError, match=re.escape(f"need about {one:.3g} B (") + ".*"
                           + re.escape("per user), for each of 3 populations simulated at once, more than")):
            oracle_policy_outcome(cfg, BidPolicy.impatient(SPEC), n_reps=5, seed=0)
        # two repetitions run on two workers, and two populations fit
        monkeypatch.setattr(simulator, "_simulate_chunk", simulate_chunk)
        monkeypatch.setattr(threading, "Thread", thread)
        assert oracle_policy_outcome(cfg, BidPolicy.impatient(SPEC), n_reps=2, seed=0).n_reps == 2


class TestOracleMemory:
    @pytest.mark.parametrize("world", ["2000x10", "10000x40", "40000x160", "heavy_tailed"])
    def test_population_memory_does_not_grow_with_auctions_per_user(self, world):
        # an oracle population holds no 8 B per auction: its traced peak stays under
        # a fixed number of bytes per user from 10 to 160 auctions per user, and
        # when a few users have thousands; holding the block's competing bids broke it
        if world == "heavy_tailed":
            cfg = small_config(**HEAVY_TAILED)
        else:
            n_users, mean = map(int, world.split("x"))
            cfg = small_config(n_users=n_users, auctions_per_user=Distribution(kind="poisson", mean=float(mean)))
        policy = BidPolicy.impatient(SPEC)
        simulator._policy_totals(small_config(n_users=10), policy, 0, DEFAULT_BUCKETS)  # first-call work
        tracemalloc.start()
        try:
            simulator._policy_totals(cfg, policy, 0, DEFAULT_BUCKETS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 160 * cfg.n_users + (1 << 16)
