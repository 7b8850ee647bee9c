import math
import re

import numpy as np
import pytest

from impatience import (
    DEFAULT_BUCKETS,
    CalibrationRow,
    ConvergenceError,
    CtrModel,
    DisplayEvents,
    ValidationError,
    assign_clusters,
    calibration_curve,
    events_from_trace,
    fit_ctr,
    loglik_gradient,
    penalized_loglik,
)
from impatience.predictor import _design, _sigmoid


def bernoulli_events(rng, probs_by_bucket, counts_by_bucket):
    """counts_by_bucket[b] events at fatigue b, each converting with probs_by_bucket[b]."""
    converted = [rng.random(n) < p for p, n in zip(probs_by_bucket, counts_by_bucket)]
    return DisplayEvents(np.repeat(np.arange(len(converted)), counts_by_bucket), np.concatenate(converted))


def design(events, include_fatigue=True, boundaries=DEFAULT_BUCKETS):
    """The per-event design matrix of the fatigue model."""
    return _design(assign_clusters(events.fatigue, boundaries), include_fatigue, len(boundaries) + 1)


def continuous_problem(seed, n, d_ctx=2):
    """A per-event design [1, d_ctx normal columns, fatigue one-hot] and 0/1
    outcomes of n random events: every row distinct, so no two merge."""
    rng = np.random.default_rng(seed)
    rows = [(rng.integers(0, 8), rng.random() < 0.3, rng.normal(size=d_ctx)) for _ in range(n)]
    fatigue, converted, features = zip(*rows)
    onehot = design(DisplayEvents(fatigue, converted))[:, 1:]
    X = np.hstack([np.ones((n, 1)), np.reshape(features, (n, d_ctx)), onehot])
    return X, np.asarray(converted, dtype=np.float64)


@pytest.fixture
def evaluations(monkeypatch):
    """Counts of the gradient and likelihood evaluations `fit_ctr` makes."""
    import impatience.predictor as predictor

    calls = {"gradient": 0, "loglik": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(predictor, "loglik_gradient", counted("gradient", predictor.loglik_gradient))
    monkeypatch.setattr(predictor, "penalized_loglik", counted("loglik", predictor.penalized_loglik))
    return calls


def table_events(counts, positives):
    """counts[b] events at fatigue b, the first positives[b] of them converting."""
    return DisplayEvents(np.repeat(np.arange(len(counts)), counts),
                         np.concatenate([np.arange(n) < k for n, k in zip(counts, positives)]))


def separable_events():
    """50 converting events at fatigue 0, then 50 non-converting at fatigue 5."""
    return DisplayEvents([0] * 50 + [5] * 50, [True] * 50 + [False] * 50)


class TestDesignMatrix:
    def test_intercept_only_without_fatigue(self):
        events = DisplayEvents([0, 3], [True, False])
        X = design(events, include_fatigue=False, boundaries=(1, 2))
        assert X.shape == (2, 1)
        assert np.all(X == 1.0)

    def test_bucket_zero_is_reference_level(self):
        events = DisplayEvents([0, 1, 9], [True, False, True])
        X = design(events, include_fatigue=True, boundaries=(1, 2, 3, 4, 5))
        assert X.shape == (3, 6)
        assert np.array_equal(X[0], [1, 0, 0, 0, 0, 0])
        assert np.array_equal(X[1], [1, 1, 0, 0, 0, 0])
        assert np.array_equal(X[2], [1, 0, 0, 0, 0, 1])


class TestGradientAndLikelihood:
    def test_gradient_matches_central_differences(self):
        X, y = continuous_problem(seed=0, n=400)
        ones = np.ones(len(y))  # one event per row
        rng = np.random.default_rng(1)
        for l2 in (0.0, 0.05):
            w = rng.normal(scale=0.5, size=X.shape[1])
            g = loglik_gradient(w, X, y, l2, ones)
            h = 1e-6
            for j in range(len(w)):
                e = np.zeros_like(w)
                e[j] = h
                fd = penalized_loglik(w + e, X, y, l2, ones) - penalized_loglik(w - e, X, y, l2, ones)
                fd /= 2 * h
                assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_loglik_stable_at_extreme_scores(self):
        X = np.array([[1.0], [1.0]])
        y = np.array([1.0, 0.0])
        ll = penalized_loglik(np.array([500.0]), X, y, 0.0, np.ones(2))
        assert math.isfinite(ll)
        assert ll == pytest.approx(-250.0, rel=1e-6)

    def test_sigmoid_extremes(self):
        z = np.array([-800.0, 0.0, 800.0])
        p = _sigmoid(z)
        assert p[0] == 0.0
        assert p[1] == 0.5
        assert p[2] == 1.0

    def test_sigmoid_matches_the_masked_formula_bit_for_bit(self):
        def masked_sigmoid(z):
            # the two-branch form with boolean-mask assignments
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        rng = np.random.default_rng(0)
        special = [0.0, -0.0, 745.0, -745.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 709.8, -709.8]
        z = np.concatenate([special, rng.normal(0, 3, 2000), rng.normal(0, 300, 2000)])
        assert _sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()


class TestFitCtr:
    def test_intercept_only_recovers_empirical_rate(self):
        rng = np.random.default_rng(4)
        events = bernoulli_events(rng, [0.12], [4000])
        model = fit_ctr(events, include_fatigue=False, tol=1e-9)
        rate = events.converted.sum() / len(events)
        assert model.bucket_proba()[0] == pytest.approx(rate, rel=1e-6)

    @pytest.mark.parametrize("tol,rel", [(1e-9, 1e-5), (None, 1e-6)], ids=["tol=1e-9", "default-tol"])
    def test_saturated_model_matches_per_bucket_rates(self, tol, rel):
        # one weight per bucket: the fitted model reproduces each bucket's rate,
        # at the default tolerance too
        rng = np.random.default_rng(5)
        probs = [0.20, 0.15, 0.10, 0.07, 0.05, 0.03]
        events = bernoulli_events(rng, probs, [3000] * 6)
        model = fit_ctr(events) if tol is None else fit_ctr(events, tol=tol)
        for row in calibration_curve(model, events):
            assert row.mean_predicted == pytest.approx(row.empirical_rate, rel=rel)

    @pytest.mark.parametrize("events", [
        bernoulli_events(np.random.default_rng(5), [0.20, 0.15, 0.10, 0.07, 0.05, 0.03], [3000] * 6),
        # bucket 0 above 0.5 and the rest far below it: at w = 0 their residuals
        # cancel in the intercept, and the first full step raises the gradient
        # max-norm (0.0096 -> 0.0106) far from the optimum
        table_events([45000] + [1000] * 5, [24898] + [20] * 5),
    ], ids=["falling-rates", "rates-straddle-one-half"])
    def test_default_fit_takes_few_gradient_evaluations(self, evaluations, events):
        # Newton's method converges quadratically: a handful of iterations
        # reach the default tolerance
        fit_ctr(events)
        assert 1 <= evaluations["gradient"] <= 10

    def test_unreachable_tol_stops_when_no_step_gains(self, evaluations):
        # tol=0 is below what the gradient resolves (~1e-17 here): once a
        # step no longer lowers the gradient the fit gives up, instead of
        # spinning to max_iters (10000 gradients)
        rng = np.random.default_rng(5)
        events = bernoulli_events(rng, [0.20, 0.15, 0.10, 0.07, 0.05, 0.03], [3000] * 6)
        with pytest.raises(ConvergenceError) as exc_info:
            fit_ctr(events, tol=0.0)
        assert exc_info.value.grad_norm < 1e-12
        assert evaluations["gradient"] <= 1000
        assert evaluations["loglik"] <= 3000
        # the error carries the partial model, fitted as far as the data resolve
        for row in calibration_curve(exc_info.value.model, events):
            assert row.mean_predicted == pytest.approx(row.empirical_rate, rel=1e-9)

    def test_unreachable_tol_stops_when_backtracked_steps_stall(self, evaluations):
        # on these counts the steps at the gradient's rounding floor pass the
        # Armijo test only after backtracking, so a stop rule that looks at
        # full steps alone would run to max_iters
        events = table_events([18293, 16647, 40272, 9968, 13361, 6982], [17098, 869, 8513, 1374, 13144, 6963])
        with pytest.raises(ConvergenceError) as exc_info:
            fit_ctr(events, tol=0.0)
        assert exc_info.value.grad_norm < 1e-12
        assert evaluations["gradient"] <= 100

    @pytest.mark.parametrize("events", [
        bernoulli_events(np.random.default_rng(5), [0.20, 0.15, 0.10, 0.07, 0.05, 0.03], [3000] * 6),
        # its gradient max-norms end 1.1e-17, 8.6e-18, 1.1e-17: the last iterate is not the best
        table_events([18293, 16647, 40272, 9968, 13361, 6982], [17098, 869, 8513, 1374, 13144, 6963]),
    ], ids=["falling-rates", "backtracked-stall"])
    def test_stall_carries_the_lowest_gradient_iterate(self, monkeypatch, events):
        import impatience.predictor as predictor

        seen = []  # (gradient max-norm, weights) of every iterate

        def recorded(w, *args):
            g = loglik_gradient(w, *args)
            seen.append((float(np.abs(g).max()), tuple(map(float, w))))
            return g

        monkeypatch.setattr(predictor, "loglik_gradient", recorded)
        with pytest.raises(ConvergenceError) as exc_info:
            fit_ctr(events, tol=0.0)
        norm, weights = min(seen, key=lambda pair: pair[0])
        assert (exc_info.value.grad_norm, exc_info.value.model.weights) == (norm, weights)
        assert f"lowest gradient max-norm {norm:.3e}" in str(exc_info.value)

    def test_penalized_fit_stops_at_a_decrement_far_below_rounding(self, evaluations):
        # with l2 > 0 the gradient max-norm reaches 7.4e-18 after 9 gradients and then
        # creeps down by about 1e-22 a step at a decrement of 3.9e-34; a fit that stopped
        # only when the gradient rose took 159 gradients
        events = table_events([56339, 2496, 118, 3125, 4167], [28269, 24, 4, 31, 77])
        with pytest.raises(ConvergenceError) as exc_info:
            fit_ctr(events, l2=1e-4, tol=0.0)
        assert exc_info.value.grad_norm < 1e-16
        assert evaluations["gradient"] <= 20

    def test_likelihood_nondecreasing_over_refit(self):
        # tighter tolerance can only improve the mean log-likelihood
        rng = np.random.default_rng(6)
        events = bernoulli_events(rng, [0.3, 0.1], [500, 500])
        X = design(events)
        y = events.converted.astype(np.float64)
        lls = []
        for tol in (1e-3, 1e-6, 1e-8):
            m = fit_ctr(events, tol=tol)
            lls.append(penalized_loglik(np.asarray(m.weights), X, y, 0.0, np.ones(len(y))))
        assert lls[1] >= lls[0] - 1e-12
        assert lls[2] >= lls[1] - 1e-12

    def test_separable_data_without_penalty_diverges_but_classifies(self):
        # perfectly separated: the unpenalized MLE runs off to infinity, so
        # the capped fit raises, yet the partial model has 100% accuracy (with
        # more iterations the rates round to exactly 1 and 0 and it converges)
        events = separable_events()
        with pytest.raises(ConvergenceError) as exc_info:
            fit_ctr(events, l2=0.0, max_iters=20, tol=1e-12)
        err = exc_info.value
        assert err.grad_norm > 0
        pred = err.model.bucket_proba()[assign_clusters(events.fatigue, err.model.fatigue_boundaries)]
        assert np.all(pred[:50] > 0.5)
        assert np.all(pred[50:] < 0.5)

    def test_l2_penalty_restores_convergence_on_separable_data(self):
        events = separable_events()
        model = fit_ctr(events, l2=0.01, tol=1e-8)
        assert all(math.isfinite(w) for w in model.weights)

    def test_rejects_single_class(self):
        events = DisplayEvents([0] * 10, [True] * 10)
        with pytest.raises(ValidationError):
            fit_ctr(events)
        with pytest.raises(ValidationError):
            fit_ctr(DisplayEvents([], []))

    def test_rejects_negative_penalty(self):
        events = DisplayEvents([0, 0], [True, False])
        with pytest.raises(ValidationError):
            fit_ctr(events, l2=-1.0)

    @pytest.mark.parametrize("l2", [math.nan, math.inf])
    def test_rejects_non_finite_penalty(self, l2):
        # NaN fails `l2 < 0` too: the ascent would never take a step
        events = DisplayEvents([0, 0], [True, False])
        with pytest.raises(ValidationError, match="l2 must be finite and >= 0"):
            fit_ctr(events, l2=l2)

    @pytest.mark.parametrize("kwargs,message", [
        ({"tol": math.nan}, "tol must be finite and >= 0, got nan"),
        ({"tol": math.inf}, "tol must be finite and >= 0, got inf"),
        ({"tol": -1.0}, "tol must be finite and >= 0, got -1.0"),
        ({"max_iters": 0}, "max_iters must be an integer >= 1, got 0"),
        ({"max_iters": 2.5}, "max_iters must be an integer >= 1, got 2.5"),
        ({"max_iters": True}, "max_iters must be an integer >= 1, got True"),
    ])
    def test_rejects_bad_stopping_rule(self, kwargs, message):
        # NaN would end the fit unconverged without an error, a negative tol or
        # no iteration could never converge, and a float count is a TypeError
        events = DisplayEvents([0, 0], [True, False])
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            fit_ctr(events, **kwargs)

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    def test_rank_deficient_design(self, l2):
        # no event in bucket 0 (the reference level) and none in bucket 3: the
        # design has more columns than distinct rows, so its Hessian is
        # singular; the empty bucket's weight keeps its start value up to the
        # rounding of the least-squares solve
        rng = np.random.default_rng(13)
        probs = [0.0, 0.2, 0.1, 0.0, 0.05, 0.03]
        events = bernoulli_events(rng, probs, [0, 2000, 2000, 0, 2000, 2000])
        model = fit_ctr(events, l2=l2)
        assert model.weights[3] == pytest.approx(0.0, abs=1e-15)
        if l2 == 0.0:
            for row in calibration_curve(model, events):
                if row.n > 0:
                    assert row.mean_predicted == pytest.approx(row.empirical_rate, rel=1e-6)


class TestCalibrationCurve:
    def test_counts_and_rates(self):
        events = DisplayEvents([0, 0, 2, 7], [True, False, True, False])
        model = CtrModel(
            weights=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            includes_fatigue=True,
            fatigue_boundaries=(1, 2, 3, 4, 5),
        )
        rows = calibration_curve(model, events)
        assert len(rows) == 6
        assert rows[0] == CalibrationRow(bucket=0, n=2, empirical_rate=0.5, mean_predicted=0.5)
        assert rows[2].n == 1 and rows[2].empirical_rate == 1.0
        assert rows[5].n == 1 and rows[5].empirical_rate == 0.0
        assert rows[1].n == 0 and rows[1].empirical_rate is None

    @pytest.mark.parametrize("include_fatigue", [False, True])
    def test_mean_predicted_is_the_bucket_prediction(self, include_fatigue):
        # every event of a bucket gets one prediction, so the bucket's mean
        # prediction is that value itself, not a sum of n equal floats over n
        rng = np.random.default_rng(12)
        probs = [0.05, 0.04, 0.03, 0.025, 0.02, 0.015, 0.01]
        events = bernoulli_events(rng, probs, [9000, 7000, 5000, 4000, 3000, 2000, 1500])
        model = fit_ctr(events, include_fatigue=include_fatigue)
        bucket = assign_clusters(events.fatigue, model.fatigue_boundaries)
        predicted = model.bucket_proba()[bucket]
        rows = [row for row in calibration_curve(model, events) if row.n > 0]
        assert len(rows) == 6
        for row in rows:
            assert set(predicted[bucket == row.bucket].tolist()) == {row.mean_predicted}
        if not include_fatigue:
            assert {row.mean_predicted for row in rows} == {float(_sigmoid(np.array(model.weights[:1]))[0])}

    def test_events_from_trace_roundtrip(self):
        exposure = np.array([0, 3, 9])
        converted = np.array([True, False, True])
        events = events_from_trace(exposure, converted)
        assert events.fatigue.tolist() == [0, 3, 9]
        assert events.converted.tolist() == [True, False, True]


def reference_fit(events, include_fatigue=True, l2=0.0, tol=1e-7, max_iters=10_000):
    """The Newton iteration of `fit_ctr` run event by event: one design row per event."""
    X = design(events, include_fatigue)
    y = events.converted.astype(np.float64)
    ones = np.ones(len(y))
    w = np.zeros(X.shape[1])
    for _ in range(max_iters):
        g = loglik_gradient(w, X, y, l2, ones)
        if np.abs(g).max() < tol:
            break
        p = _sigmoid(X @ w)
        H = (X.T * (p * (1 - p))) @ X / len(y) + l2 * np.eye(len(w))
        d = np.linalg.lstsq(H, g, rcond=None)[0]
        t = 1.0
        while t > 1e-18 and penalized_loglik(w + t * d, X, y, l2, ones, base=w) < 1e-4 * t * (g @ d):
            t /= 2
        w = w + t * d
    return w, X, y


class TestSufficientStatistics:
    @pytest.mark.parametrize("include_fatigue,l2", [(True, 0.0), (False, 0.0), (True, 0.01)])
    def test_aggregated_fit_matches_per_event_reference(self, include_fatigue, l2):
        rng = np.random.default_rng(8)
        probs = [0.2, 0.15, 0.1, 0.07, 0.05, 0.03, 0.03]
        events = bernoulli_events(rng, probs, [400, 350, 300, 250, 200, 150, 100])
        tol = 1e-8
        model = fit_ctr(events, include_fatigue=include_fatigue, l2=l2, tol=tol)
        w_ref, X, y = reference_fit(events, include_fatigue, l2=l2, tol=tol)
        w = np.asarray(model.weights)
        assert np.abs(loglik_gradient(w, X, y, l2, np.ones(len(y)))).max() < tol
        np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-10)

    def test_converges_below_the_rounding_of_the_objective(self):
        # near the optimum the likelihood gain of a step is far below the
        # rounding error of the likelihood itself
        rng = np.random.default_rng(5)
        events = bernoulli_events(rng, [0.20, 0.15, 0.10, 0.07, 0.05, 0.03], [3000] * 6)
        model = fit_ctr(events, tol=1e-12)
        for row in calibration_curve(model, events):
            assert row.mean_predicted == pytest.approx(row.empirical_rate, rel=1e-9)

    def test_loglik_change_from_base(self):
        X, _ = continuous_problem(seed=10, n=50)
        y = (np.arange(len(X)) % 3 == 0).astype(float)
        ones = np.ones(len(y))
        rng = np.random.default_rng(11)
        w0 = rng.normal(size=X.shape[1])
        for l2 in (0.0, 0.1):
            w1 = w0 + rng.normal(size=X.shape[1])
            expected = penalized_loglik(w1, X, y, l2, ones) - penalized_loglik(w0, X, y, l2, ones)
            assert penalized_loglik(w1, X, y, l2, ones, base=w0) == pytest.approx(expected, rel=1e-12)
            # a step whose gain is about the rounding error of the objective:
            # the gain equals the first-order term
            g = loglik_gradient(w0, X, y, l2, ones)
            w2 = w0 + 1e-14 * g
            gain = penalized_loglik(w2, X, y, l2, ones, base=w0)
            assert gain == pytest.approx((w2 - w0) @ g, rel=1e-6)

    def test_counts_equal_repeated_rows(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        w = np.array([-1.0, 0.5])
        counts, positives = np.array([3.0, 2.0]), np.array([1.0, 2.0])
        X_rep = np.repeat(X, [3, 2], axis=0)
        y_rep = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
        for l2 in (0.0, 0.2):
            assert penalized_loglik(w, X, positives, l2, counts) == pytest.approx(
                penalized_loglik(w, X_rep, y_rep, l2, np.ones(5)), rel=1e-14
            )
            np.testing.assert_allclose(
                loglik_gradient(w, X, positives, l2, counts),
                loglik_gradient(w, X_rep, y_rep, l2, np.ones(5)),
                rtol=1e-14,
            )


class TestDisplayEvents:
    def test_columns_take_their_dtypes(self):
        events = DisplayEvents([0, 3], [1, 0])
        assert len(events) == 2
        assert events.fatigue.dtype == np.int64
        assert events.converted.dtype == bool and events.converted.tolist() == [True, False]

    def test_trace_events_are_columns(self):
        events = events_from_trace(np.array([0, 3, 9]), np.array([True, False, True]))
        assert isinstance(events, DisplayEvents) and len(events) == 3
        assert (events.fatigue[1], events.converted[1]) == (3, False)

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValidationError):
            DisplayEvents([0, 1], [True])
        with pytest.raises(ValidationError):
            DisplayEvents([[0, 1]], [True, False])
