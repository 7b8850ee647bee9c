"""Fatigue-aware conversion-rate prediction.

A logistic model fit by full-batch gradient ascent with backtracking
line search. The fatigue variable (prior ad exposure at display time)
enters as a one-hot over exposure buckets; leaving it out makes the
model overpredict on recently exposed users, which the calibration
curve makes visible.

Display events are held as columns (:class:`DisplayEvents`). The fit
runs on sufficient statistics: events that share a design row are
merged into one row with a trial count and a positive count, so with
fatigue as the only feature the ascent touches one row per exposure
bucket whatever the number of events. The objective is still the mean
log-likelihood over all events.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .domain import DEFAULT_BUCKETS, ValidationError, assign_clusters


class ConvergenceError(RuntimeError):
    """Gradient ascent did not reach the tolerance; carries the last
    gradient max-norm and the partially fitted model."""

    def __init__(self, grad_norm: float, model: "CtrModel"):
        super().__init__(
            f"gradient ascent did not converge: last gradient max-norm {grad_norm:.3e}"
        )
        self.grad_norm = grad_norm
        self.model = model


@dataclass(frozen=True)
class DisplayEvent:
    """One won display: optional context features, the fatigue state at
    display time, and whether a conversion followed."""

    fatigue: int
    converted: bool
    features: tuple[float, ...] = ()


class DisplayEvents(Sequence):
    """Display events as columns: fatigue ints, converted bools and an
    (n, d) context-feature matrix.

    Behaves as a read-only sequence of :class:`DisplayEvent`: integer
    indexing and iteration yield rows, slicing yields `DisplayEvents`.
    """

    __slots__ = ("fatigue", "converted", "features")

    def __init__(self, fatigue, converted, features=None):
        fatigue = np.asarray(fatigue, dtype=np.int64)
        converted = np.asarray(converted, dtype=bool)
        n = len(fatigue)
        features = np.empty((n, 0)) if features is None else np.asarray(features, dtype=np.float64)
        if fatigue.ndim != 1 or converted.shape != (n,) or features.ndim != 2 or len(features) != n:
            raise ValidationError(
                f"columns disagree: fatigue {fatigue.shape}, converted {converted.shape}, "
                f"features {features.shape}"
            )
        self.fatigue = fatigue
        self.converted = converted
        self.features = features

    @classmethod
    def of(cls, events: Iterable[DisplayEvent]) -> "DisplayEvents":
        """Columns of `events`; a `DisplayEvents` is returned as is."""
        if isinstance(events, DisplayEvents):
            return events
        events = list(events)
        widths = {len(e.features) for e in events}
        if len(widths) > 1:
            raise ValidationError(f"events carry differing numbers of context features: {sorted(widths)}")
        features = np.array([e.features for e in events], dtype=np.float64)
        return cls(
            [e.fatigue for e in events],
            [e.converted for e in events],
            features.reshape(len(events), widths.pop() if widths else 0),
        )

    @property
    def n_context(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return len(self.fatigue)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DisplayEvents(self.fatigue[index], self.converted[index], self.features[index])
        i = operator.index(index)
        return DisplayEvent(
            int(self.fatigue[i]), bool(self.converted[i]), tuple(self.features[i].tolist())
        )


def events_from_trace(exposure: np.ndarray, converted: np.ndarray) -> DisplayEvents:
    """Wrap a simulator display trace as events."""
    return DisplayEvents(exposure, converted)


@dataclass(frozen=True)
class CtrModel:
    """Logistic conversion model; prediction = logistic(weights . features)."""

    weights: tuple[float, ...]
    includes_fatigue: bool
    fatigue_boundaries: tuple[int, ...]
    n_context_features: int

    def design_matrix(self, events: Iterable[DisplayEvent]) -> np.ndarray:
        return _design_matrix(
            events, self.includes_fatigue, self.fatigue_boundaries, self.n_context_features
        )

    def predict_proba(self, events: Iterable[DisplayEvent]) -> np.ndarray:
        z = self.design_matrix(events) @ np.asarray(self.weights)
        return _sigmoid(z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _design(bucket: np.ndarray, context: np.ndarray, include_fatigue: bool, n_buckets: int) -> np.ndarray:
    """Design rows [1, context, one-hot(bucket)]; bucket 0 is the reference level."""
    n = len(bucket)
    cols = [np.ones((n, 1)), context]
    if include_fatigue:
        onehot = np.zeros((n, n_buckets - 1))
        nonzero = bucket > 0
        onehot[nonzero, bucket[nonzero] - 1] = 1.0
        cols.append(onehot)
    return np.hstack(cols)


def _design_matrix(
    events: Iterable[DisplayEvent],
    include_fatigue: bool,
    boundaries: tuple[int, ...],
    n_context: int,
) -> np.ndarray:
    events = DisplayEvents.of(events)
    if events.n_context != n_context:
        raise ValidationError(
            f"expected {n_context} context features per event, got {events.n_context}"
        )
    bucket = assign_clusters(events.fatigue, boundaries)
    return _design(bucket, events.features, include_fatigue, len(boundaries) + 1)


def _softplus_change(z: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """softplus(z + dz) - softplus(z), accurate to the rounding of dz itself."""
    # log1p(sigmoid(z) * expm1(dz)) for dz >= 0; mirror through
    # softplus(x) = x + softplus(-x) for dz < 0, so log1p never sees an
    # argument near -1. Overflow on huge dz gives inf or nan, which the
    # line search rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.minimum(dz, 0.0) + np.log1p(_sigmoid(np.where(dz < 0, -z, z)) * np.expm1(np.abs(dz)))


def penalized_loglik(
    weights: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    l2: float,
    counts: np.ndarray | None = None,
    base: np.ndarray | None = None,
) -> float:
    """Mean Bernoulli log-likelihood minus (l2/2) ||w||^2.

    Without `counts` each row of `X` is one event and `y` its 0/1
    outcome. With `counts`, row i stands for `counts[i]` events of which
    `y[i]` converted, and the mean is taken over all `counts.sum()` events.

    With `base`, returns the objective at `weights` minus the objective at
    `base`, computed from each row's change of score. It stays accurate
    when that change is below the rounding error of the objective itself,
    which the line search of :func:`fit_ctr` needs near the optimum.
    """
    n = np.ones_like(y) if counts is None else counts
    if base is None:
        z = X @ weights
        # log(sigmoid(z)) and log(1 - sigmoid(z)) via logaddexp for stability
        loss = np.logaddexp(0.0, -z) * y + np.logaddexp(0.0, z) * (n - y)
        penalty = weights @ weights
    else:
        z, dz = X @ base, X @ (weights - base)
        loss = _softplus_change(-z, -dz) * y + _softplus_change(z, dz) * (n - y)
        penalty = (weights - base) @ (weights + base)
    return float(-loss.sum() / n.sum() - 0.5 * l2 * penalty)


def loglik_gradient(
    weights: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float, counts: np.ndarray | None = None
) -> np.ndarray:
    """Gradient of :func:`penalized_loglik`, with the same arguments."""
    n = np.ones_like(y) if counts is None else counts
    p = _sigmoid(X @ weights)
    return X.T @ (y - n * p) / n.sum() - l2 * weights


def _sufficient_stats(
    events: DisplayEvents, include_fatigue: bool, boundaries: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct design rows, their positive counts and their event counts."""
    y = events.converted.astype(np.float64)
    n_buckets = len(boundaries) + 1
    if include_fatigue:
        bucket = assign_clusters(events.fatigue, boundaries)
    else:
        bucket = np.zeros(len(events), dtype=np.intp)
    if events.n_context == 0:
        # the design row is a function of the bucket alone
        counts = np.bincount(bucket, minlength=n_buckets).astype(np.float64)
        positives = np.bincount(bucket, weights=y, minlength=n_buckets)
        levels = np.flatnonzero(counts)
        X = _design(levels, np.empty((len(levels), 0)), include_fatigue, n_buckets)
        return X, positives[levels], counts[levels]
    X, row = np.unique(
        _design(bucket, events.features, include_fatigue, n_buckets), axis=0, return_inverse=True
    )
    row = row.reshape(-1)
    return X, np.bincount(row, weights=y), np.bincount(row).astype(np.float64)


def fit_ctr(
    events: Iterable[DisplayEvent],
    include_fatigue: bool = True,
    l2: float = 0.0,
    max_iters: int = 10_000,
    tol: float = 1e-7,
    fatigue_boundaries: tuple[int, ...] = DEFAULT_BUCKETS,
    strict: bool = True,
) -> CtrModel:
    """Fit the logistic model by gradient ascent with backtracking.

    The ascent runs on the distinct design rows weighted by their event
    counts, which gives the same objective and gradient as running it
    event by event. Each step must raise the mean penalized
    log-likelihood by the Armijo margin, measured as an exact change
    from the current weights, so the likelihood is non-decreasing across
    iterations; convergence is declared when the gradient max-norm drops
    below `tol`. The ascent stops early when backtracking finds no step
    with any gain, which happens when `tol` is below what the gradient can
    resolve. With `strict`, stopping above `tol` (at `max_iters` or on
    such a stall) raises :class:`ConvergenceError` (which carries the
    partial model).
    """
    if l2 < 0:
        raise ValidationError("l2 must be >= 0")
    events = DisplayEvents.of(events)
    if len(events) == 0 or events.converted.all() or not events.converted.any():
        raise ValidationError("need at least one positive and one negative event")
    X, y, n = _sufficient_stats(events, include_fatigue, tuple(fatigue_boundaries))
    w = np.zeros(X.shape[1])
    grad_norm = np.inf
    step = 4.0
    for _ in range(max_iters):
        g = loglik_gradient(w, X, y, l2, n)
        grad_norm = float(np.abs(g).max())
        if grad_norm < tol:
            break
        gg = float(g @ g)
        t, gained = step, False
        while t > 1e-18:
            gain = penalized_loglik(w + t * g, X, y, l2, n, base=w)
            if gain >= 0.5 * t * gg:  # Armijo for ascent
                break
            gained = gained or gain > 0
            t /= 2
        if t <= 1e-18 and not gained:
            break  # no step along the gradient raises the likelihood: the ascent has stalled
        w = w + t * g
        step = min(4.0 * t, 64.0)  # let the step grow back after backtracks

    model = CtrModel(
        weights=tuple(float(v) for v in w),
        includes_fatigue=include_fatigue,
        fatigue_boundaries=tuple(fatigue_boundaries),
        n_context_features=events.n_context,
    )
    if grad_norm >= tol and strict:
        raise ConvergenceError(grad_norm, model)
    return model


@dataclass(frozen=True)
class CalibrationRow:
    bucket: int
    n: int
    empirical_rate: float | None
    mean_predicted: float | None


def calibration_curve(
    model: CtrModel,
    events: Iterable[DisplayEvent],
    boundaries: tuple[int, ...] | None = None,
) -> list[CalibrationRow]:
    """Per-fatigue-bucket empirical conversion rate vs mean prediction."""
    if boundaries is None:
        boundaries = model.fatigue_boundaries
    events = DisplayEvents.of(events)
    n_buckets = len(boundaries) + 1
    bucket = assign_clusters(events.fatigue, boundaries)
    counts = np.bincount(bucket, minlength=n_buckets)
    positives = np.bincount(bucket, weights=events.converted, minlength=n_buckets)
    predicted = np.bincount(bucket, weights=model.predict_proba(events), minlength=n_buckets)
    return [
        CalibrationRow(bucket=b, n=0, empirical_rate=None, mean_predicted=None)
        if n == 0
        else CalibrationRow(
            bucket=b,
            n=int(n),
            empirical_rate=float(positives[b] / n),
            mean_predicted=float(predicted[b] / n),
        )
        for b, n in enumerate(counts)
    ]
