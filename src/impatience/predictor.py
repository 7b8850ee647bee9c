"""Fatigue-aware conversion-rate prediction.

A logistic model fit by damped Newton's method (iteratively reweighted
least squares) with a backtracking line search. The fatigue variable
(prior ad exposure at display time) enters as a one-hot over exposure
buckets; leaving it out makes the model overpredict on recently exposed
users, which the calibration curve makes visible.

Display events are held as columns (:class:`DisplayEvents`). The fit
runs on sufficient statistics: a design row is a function of the
exposure bucket alone, so the events of one bucket are merged into one
row with a trial count and a positive count, and each Newton step
touches one row per bucket whatever the number of events. The objective
is still the mean log-likelihood over all events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DEFAULT_BUCKETS, ValidationError, _is_integer, assign_clusters


class ConvergenceError(RuntimeError):
    """The fit did not reach the tolerance; carries the last gradient
    max-norm and the partially fitted model."""

    def __init__(self, grad_norm: float, model: "CtrModel"):
        super().__init__(
            f"CTR fit did not converge: last gradient max-norm {grad_norm:.3e}"
        )
        self.grad_norm = grad_norm
        self.model = model


class DisplayEvents:
    """Display events as columns: the fatigue state at display time (ints)
    and whether a conversion followed (bools), one row per won display."""

    __slots__ = ("fatigue", "converted")

    def __init__(self, fatigue, converted):
        fatigue = np.asarray(fatigue, dtype=np.int64)
        converted = np.asarray(converted, dtype=bool)
        if fatigue.ndim != 1 or converted.shape != fatigue.shape:
            raise ValidationError(f"columns disagree: fatigue {fatigue.shape}, converted {converted.shape}")
        self.fatigue = fatigue
        self.converted = converted

    def __len__(self) -> int:
        return len(self.fatigue)


def events_from_trace(exposure: np.ndarray, converted: np.ndarray) -> DisplayEvents:
    """Wrap a simulator display trace as events."""
    return DisplayEvents(exposure, converted)


@dataclass(frozen=True)
class CtrModel:
    """Logistic conversion model; prediction = logistic(weights . design row)."""

    weights: tuple[float, ...]
    includes_fatigue: bool
    fatigue_boundaries: tuple[int, ...]

    def bucket_proba(self) -> np.ndarray:
        """The predicted conversion probability of each fatigue bucket."""
        n_buckets = len(self.fatigue_boundaries) + 1
        return _sigmoid(_design(np.arange(n_buckets), self.includes_fatigue, n_buckets) @ np.asarray(self.weights))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # the exponent -|z| never overflows; it is -z where z >= 0 and z below. It is
    # written as a minimum, which returns a NaN z as it is, so the NaN keeps its sign
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _design(bucket: np.ndarray, include_fatigue: bool, n_buckets: int) -> np.ndarray:
    """Design rows [1, one-hot(bucket)]; bucket 0 is the reference level."""
    if not include_fatigue:
        return np.ones((len(bucket), 1))
    X = np.eye(n_buckets)[bucket]
    X[:, 0] = 1.0  # bucket 0's one-hot column becomes the intercept
    return X


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
    counts: np.ndarray,
    base: np.ndarray | None = None,
) -> float:
    """Mean Bernoulli log-likelihood minus (l2/2) ||w||^2.

    Row i of `X` stands for `counts[i]` events of which `y[i]` converted,
    and the mean is taken over all `counts.sum()` events; one event per
    row is `counts` of ones.

    With `base`, returns the objective at `weights` minus the objective at
    `base`, computed from each row's change of score. It stays accurate
    when that change is below the rounding error of the objective itself,
    which the line search of :func:`fit_ctr` needs near the optimum.
    """
    if base is None:
        z = X @ weights
        # log(sigmoid(z)) and log(1 - sigmoid(z)) via logaddexp for stability
        loss = np.logaddexp(0.0, -z) * y + np.logaddexp(0.0, z) * (counts - y)
        penalty = weights @ weights
    else:
        z, dz = X @ base, X @ (weights - base)
        loss = _softplus_change(-z, -dz) * y + _softplus_change(z, dz) * (counts - y)
        penalty = (weights - base) @ (weights + base)
    return float(-loss.sum() / counts.sum() - 0.5 * l2 * penalty)


def loglik_gradient(weights: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float, counts: np.ndarray) -> np.ndarray:
    """Gradient of :func:`penalized_loglik`, with the same arguments."""
    p = _sigmoid(X @ weights)
    return X.T @ (y - counts * p) / counts.sum() - l2 * weights


def _bucket_table(events: DisplayEvents, boundaries: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The event count and the positive count of each fatigue bucket."""
    n_buckets = len(boundaries) + 1
    bucket = assign_clusters(events.fatigue, boundaries)
    counts = np.bincount(bucket, minlength=n_buckets).astype(np.float64)
    positives = np.bincount(bucket, weights=events.converted.astype(np.float64), minlength=n_buckets)
    return counts, positives


def _sufficient_stats(
    events: DisplayEvents, include_fatigue: bool, boundaries: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The design rows of the buckets that hold events, their positive counts and their event counts."""
    # without fatigue no boundary splits the events: one bucket, the design row [1]
    counts, positives = _bucket_table(events, boundaries if include_fatigue else ())
    levels = np.flatnonzero(counts)
    return _design(levels, include_fatigue, len(boundaries) + 1), positives[levels], counts[levels]


def fit_ctr(
    events: DisplayEvents,
    include_fatigue: bool = True,
    l2: float = 0.0,
    max_iters: int = 10_000,
    tol: float = 1e-7,
    fatigue_boundaries: tuple[int, ...] = DEFAULT_BUCKETS,
) -> CtrModel:
    """Fit the logistic model by damped Newton's method (IRLS).

    The fit runs on the distinct design rows weighted by their event
    counts, which gives the same objective, gradient and Hessian as
    running it event by event. The Newton direction is the minimum-norm
    least-squares solution of ``H d = g``, with ``H`` the negated Hessian
    of the mean penalized log-likelihood; when a bucket holds no event or
    the reference bucket has none, ``H`` is singular and that solution
    keeps the weights in the row space of the design. Backtracking from
    the full step takes the first step that raises the mean penalized
    log-likelihood by the Armijo margin, measured as an exact change from
    the current weights, so the likelihood is non-decreasing across
    iterations; convergence is declared when the gradient max-norm drops
    below `tol`. The fit stops early when a step no longer lowers the
    gradient max-norm while the Newton decrement ``g @ d`` is at the
    rounding level of the objective, or when no step raises the
    likelihood, which happens when `tol` is below what the gradient can
    resolve; far from the optimum a step may raise the gradient max-norm,
    and the fit goes on. Stopping above `tol` (at `max_iters` or on such a
    stall) raises :class:`ConvergenceError`, which carries the partial
    model.
    """
    if not 0 <= l2 < np.inf:  # also rejects NaN
        raise ValidationError(f"l2 must be finite and >= 0, got {l2}")
    if not 0 <= tol < np.inf:
        raise ValidationError(f"tol must be finite and >= 0, got {tol}")
    if not _is_integer(max_iters) or max_iters < 1:
        raise ValidationError(f"max_iters must be an integer >= 1, got {max_iters}")
    if len(events) == 0 or events.converted.all() or not events.converted.any():
        raise ValidationError("need at least one positive and one negative event")
    X, y, n = _sufficient_stats(events, include_fatigue, tuple(fatigue_boundaries))
    w = np.zeros(X.shape[1])
    grad_norm = np.inf
    for _ in range(max_iters):
        g = loglik_gradient(w, X, y, l2, n)
        last_norm, grad_norm = grad_norm, float(np.abs(g).max())
        if grad_norm < tol:
            break
        p = _sigmoid(X @ w)
        H = (X.T * (n * p * (1 - p))) @ X / n.sum() + l2 * np.eye(len(w))
        d = np.linalg.lstsq(H, g, rcond=None)[0]  # min-norm: stays in the row space of X
        decrement = g @ d  # twice the gain the quadratic model predicts for the full step
        if grad_norm >= last_norm and decrement <= np.finfo(float).eps:
            break  # the gradient no longer falls and a step could gain only rounding: it is at its floor
        for t in 0.5 ** np.arange(60):
            if penalized_loglik(w + t * d, X, y, l2, n, base=w) >= 1e-4 * t * decrement:  # Armijo
                break
        else:
            break  # no step along d raises the likelihood: the gradient is rounding noise
        w = w + t * d

    model = CtrModel(
        weights=tuple(float(v) for v in w),
        includes_fatigue=include_fatigue,
        fatigue_boundaries=tuple(fatigue_boundaries),
    )
    if grad_norm >= tol:
        raise ConvergenceError(grad_norm, model)
    return model


@dataclass(frozen=True)
class CalibrationRow:
    bucket: int
    n: int
    empirical_rate: float | None
    mean_predicted: float | None


def calibration_curve(model: CtrModel, events: DisplayEvents) -> list[CalibrationRow]:
    """Per-fatigue-bucket empirical conversion rate vs mean prediction: the bucket's one prediction."""
    counts, positives = _bucket_table(events, model.fatigue_boundaries)
    predicted = model.bucket_proba()
    return [
        CalibrationRow(bucket=b, n=0, empirical_rate=None, mean_predicted=None)
        if n == 0
        else CalibrationRow(
            bucket=b,
            n=int(n),
            empirical_rate=float(positives[b] / n),
            mean_predicted=float(predicted[b]),
        )
        for b, n in enumerate(counts)
    ]


def calibration_curves(events: DisplayEvents, l2: float = 0.0,
                       fatigue_boundaries: tuple[int, ...] = DEFAULT_BUCKETS) -> dict[str, list[CalibrationRow]]:
    """The calibration curve of a CTR model fit to `events` without (`no_fatigue`) and
    with (`fatigue`) the exposure bucket as its feature."""
    return {name: calibration_curve(fit_ctr(events, include_fatigue=fatigue, l2=l2,
                                            fatigue_boundaries=fatigue_boundaries), events)
            for name, fatigue in (("no_fatigue", False), ("fatigue", True))}
