import math

import numpy as np
import pytest

from impatience import (
    DEFAULT_BUCKETS,
    CalibrationRow,
    ConvergenceError,
    CtrModel,
    DisplayEvents,
    ValidationError,
    calibration_curve,
    events_from_trace,
    fit_ctr,
    loglik_gradient,
    penalized_loglik,
)
from impatience.predictor import _design_matrix, _sigmoid


def bernoulli_events(rng, probs_by_bucket, counts_by_bucket):
    """counts_by_bucket[b] events at fatigue b, each converting with probs_by_bucket[b]."""
    converted = [rng.random(n) < p for p, n in zip(probs_by_bucket, counts_by_bucket)]
    return DisplayEvents(np.repeat(np.arange(len(converted)), counts_by_bucket), np.concatenate(converted))


def context_events(seed, n=300, d_ctx=2):
    """n events with a random fatigue, conversion and d_ctx normal context features."""
    rng = np.random.default_rng(seed)
    rows = [(rng.integers(0, 8), rng.random() < 0.3, rng.normal(size=d_ctx)) for _ in range(n)]
    fatigue, converted, features = zip(*rows)
    return DisplayEvents(fatigue, converted, np.reshape(features, (n, d_ctx)))


def separable_events():
    """50 converting events at fatigue 0, then 50 non-converting at fatigue 5."""
    return DisplayEvents([0] * 50 + [5] * 50, [True] * 50 + [False] * 50)


class TestDesignMatrix:
    def test_intercept_only_without_fatigue(self):
        events = DisplayEvents([0, 3], [True, False])
        X = _design_matrix(events, include_fatigue=False, boundaries=(1, 2), n_context=0)
        assert X.shape == (2, 1)
        assert np.all(X == 1.0)

    def test_bucket_zero_is_reference_level(self):
        events = DisplayEvents([0, 1, 9], [True, False, True])
        X = _design_matrix(events, include_fatigue=True, boundaries=(1, 2, 3, 4, 5), n_context=0)
        assert X.shape == (3, 6)
        assert np.array_equal(X[0], [1, 0, 0, 0, 0, 0])
        assert np.array_equal(X[1], [1, 1, 0, 0, 0, 0])
        assert np.array_equal(X[2], [1, 0, 0, 0, 0, 1])

    def test_context_features_shape_checked(self):
        events = DisplayEvents([0, 1], [True, False], [[1.0], [3.0]])
        with pytest.raises(ValidationError, match="expected 2 context features"):
            _design_matrix(events, include_fatigue=False, boundaries=(1,), n_context=2)


class TestGradientAndLikelihood:
    def make_problem(self, seed=0, n=400, d_ctx=2):
        events = context_events(seed, n, d_ctx)
        X = _design_matrix(events, include_fatigue=True, boundaries=(1, 2, 3, 4, 5), n_context=d_ctx)
        return X, events.converted.astype(np.float64)

    def test_gradient_matches_central_differences(self):
        X, y = self.make_problem()
        rng = np.random.default_rng(1)
        for l2 in (0.0, 0.05):
            w = rng.normal(scale=0.5, size=X.shape[1])
            g = loglik_gradient(w, X, y, l2)
            h = 1e-6
            for j in range(len(w)):
                e = np.zeros_like(w)
                e[j] = h
                fd = (penalized_loglik(w + e, X, y, l2) - penalized_loglik(w - e, X, y, l2)) / (2 * h)
                assert g[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_loglik_stable_at_extreme_scores(self):
        X = np.array([[1.0], [1.0]])
        y = np.array([1.0, 0.0])
        ll = penalized_loglik(np.array([500.0]), X, y, 0.0)
        assert math.isfinite(ll)
        assert ll == pytest.approx(-250.0, rel=1e-6)

    def test_sigmoid_extremes(self):
        z = np.array([-800.0, 0.0, 800.0])
        p = _sigmoid(z)
        assert p[0] == 0.0
        assert p[1] == 0.5
        assert p[2] == 1.0


class TestFitCtr:
    def test_intercept_only_recovers_empirical_rate(self):
        rng = np.random.default_rng(4)
        events = bernoulli_events(rng, [0.12], [4000])
        model = fit_ctr(events, include_fatigue=False, tol=1e-9)
        rate = events.converted.sum() / len(events)
        assert model.predict_proba(events)[0] == pytest.approx(rate, rel=1e-6)

    def test_saturated_model_matches_per_bucket_rates(self):
        rng = np.random.default_rng(5)
        probs = [0.20, 0.15, 0.10, 0.07, 0.05, 0.03]
        events = bernoulli_events(rng, probs, [3000] * 6)
        model = fit_ctr(events, tol=1e-9)
        for row in calibration_curve(model, events):
            assert row.mean_predicted == pytest.approx(row.empirical_rate, rel=1e-5)

    def test_unreachable_tol_stops_when_no_step_gains(self, monkeypatch):
        # tol=1e-17 is below what the gradient resolves (~2e-17 here): once
        # backtracking finds no step with any gain the fit gives up, instead
        # of spinning to max_iters (10000 gradients, 20311 likelihoods)
        import impatience.predictor as predictor

        calls = {"gradient": 0, "loglik": 0}
        gradient, loglik = predictor.loglik_gradient, predictor.penalized_loglik

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(predictor, "loglik_gradient", counted("gradient", gradient))
        monkeypatch.setattr(predictor, "penalized_loglik", counted("loglik", loglik))
        rng = np.random.default_rng(5)
        events = bernoulli_events(rng, [0.20, 0.15, 0.10, 0.07, 0.05, 0.03], [3000] * 6)
        with pytest.raises(ConvergenceError) as exc_info:
            fit_ctr(events, tol=1e-17)
        assert exc_info.value.grad_norm < 1e-12
        assert calls["gradient"] <= 1000
        assert calls["loglik"] <= 3000
        lenient = fit_ctr(events, tol=1e-17, strict=False)
        assert lenient.weights == exc_info.value.model.weights

    def test_likelihood_nondecreasing_over_refit(self):
        # tighter tolerance can only improve the mean log-likelihood
        rng = np.random.default_rng(6)
        events = bernoulli_events(rng, [0.3, 0.1], [500, 500])
        X = _design_matrix(events, True, (1, 2, 3, 4, 5), 0)
        y = events.converted.astype(np.float64)
        lls = []
        for tol in (1e-3, 1e-6, 1e-8):
            m = fit_ctr(events, tol=tol)
            lls.append(penalized_loglik(np.asarray(m.weights), X, y, 0.0))
        assert lls[1] >= lls[0] - 1e-12
        assert lls[2] >= lls[1] - 1e-12

    def test_separable_data_without_penalty_diverges_but_classifies(self):
        # perfectly separated: the unpenalized MLE runs off to infinity,
        # so the capped fit raises, yet the partial model has 100% accuracy
        events = separable_events()
        with pytest.raises(ConvergenceError) as exc_info:
            fit_ctr(events, l2=0.0, max_iters=200, tol=1e-12)
        err = exc_info.value
        assert err.grad_norm > 0
        pred = err.model.predict_proba(events)
        assert np.all(pred[:50] > 0.5)
        assert np.all(pred[50:] < 0.5)
        # non-strict mode returns the same partial model instead of raising
        lenient = fit_ctr(events, l2=0.0, max_iters=200, tol=1e-12, strict=False)
        assert lenient.weights == err.model.weights

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


class TestCalibrationCurve:
    def test_counts_and_rates(self):
        events = DisplayEvents([0, 0, 2, 7], [True, False, True, False])
        model = CtrModel(
            weights=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            includes_fatigue=True,
            fatigue_boundaries=(1, 2, 3, 4, 5),
            n_context_features=0,
        )
        rows = calibration_curve(model, events)
        assert len(rows) == 6
        assert rows[0] == CalibrationRow(bucket=0, n=2, empirical_rate=0.5, mean_predicted=0.5)
        assert rows[2].n == 1 and rows[2].empirical_rate == 1.0
        assert rows[5].n == 1 and rows[5].empirical_rate == 0.0
        assert rows[1].n == 0 and rows[1].empirical_rate is None

    def test_events_from_trace_roundtrip(self):
        exposure = np.array([0, 3, 9])
        converted = np.array([True, False, True])
        events = events_from_trace(exposure, converted)
        assert events.fatigue.tolist() == [0, 3, 9]
        assert events.converted.tolist() == [True, False, True]


def reference_fit(events, include_fatigue=True, l2=0.0, tol=1e-7, max_iters=10_000):
    """The ascent of `fit_ctr` run event by event: one design row per event."""
    X = _design_matrix(events, include_fatigue, DEFAULT_BUCKETS, events.n_context)
    y = events.converted.astype(np.float64)
    w = np.zeros(X.shape[1])
    step = 4.0
    for _ in range(max_iters):
        g = loglik_gradient(w, X, y, l2)
        if np.abs(g).max() < tol:
            break
        t = step
        while t > 1e-18 and penalized_loglik(w + t * g, X, y, l2, base=w) < 0.5 * t * (g @ g):
            t /= 2
        w = w + t * g
        step = min(4.0 * t, 64.0)
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
        assert np.abs(loglik_gradient(w, X, y, l2)).max() < tol
        np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-10)

    def test_context_features_fit_converges(self):
        # continuous features: every event is its own design row
        events = context_events(seed=9)
        tol = 1e-8
        model = fit_ctr(events, tol=tol)
        assert model.n_context_features == 2
        w_ref, X, y = reference_fit(events, tol=tol)
        w = np.asarray(model.weights)
        assert len(w) == 1 + 2 + len(DEFAULT_BUCKETS)
        assert np.abs(loglik_gradient(w, X, y, 0.0)).max() < tol
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
        X = _design_matrix(context_events(seed=10, n=50), True, DEFAULT_BUCKETS, 2)
        y = (np.arange(len(X)) % 3 == 0).astype(float)
        rng = np.random.default_rng(11)
        w0 = rng.normal(size=X.shape[1])
        for l2 in (0.0, 0.1):
            w1 = w0 + rng.normal(size=X.shape[1])
            expected = penalized_loglik(w1, X, y, l2) - penalized_loglik(w0, X, y, l2)
            assert penalized_loglik(w1, X, y, l2, base=w0) == pytest.approx(expected, rel=1e-12)
            # a step whose gain is about the rounding error of the objective:
            # the gain equals the first-order term
            g = loglik_gradient(w0, X, y, l2)
            w2 = w0 + 1e-14 * g
            gain = penalized_loglik(w2, X, y, l2, base=w0)
            assert gain == pytest.approx((w2 - w0) @ g, rel=1e-6)

    def test_counts_equal_repeated_rows(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        w = np.array([-1.0, 0.5])
        counts, positives = np.array([3.0, 2.0]), np.array([1.0, 2.0])
        X_rep = np.repeat(X, [3, 2], axis=0)
        y_rep = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
        for l2 in (0.0, 0.2):
            assert penalized_loglik(w, X, positives, l2, counts) == pytest.approx(
                penalized_loglik(w, X_rep, y_rep, l2), rel=1e-14
            )
            np.testing.assert_allclose(
                loglik_gradient(w, X, positives, l2, counts),
                loglik_gradient(w, X_rep, y_rep, l2),
                rtol=1e-14,
            )


class TestDisplayEvents:
    def test_columns_take_their_dtypes(self):
        events = DisplayEvents([0, 3], [1, 0], [[0.5], [-1.0]])
        assert len(events) == 2 and events.n_context == 1
        assert events.fatigue.dtype == np.int64
        assert events.converted.dtype == bool and events.converted.tolist() == [True, False]
        assert events.features.dtype == np.float64

    def test_trace_events_are_columns(self):
        events = events_from_trace(np.array([0, 3, 9]), np.array([True, False, True]))
        assert isinstance(events, DisplayEvents)
        assert events.features.shape == (3, 0)
        assert (events.fatigue[1], events.converted[1]) == (3, False)

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValidationError):
            DisplayEvents([0, 1], [True])
        with pytest.raises(ValidationError):
            DisplayEvents([0, 1], [True, False], np.zeros((3, 1)))
