"""Small distribution specs used by the simulator configuration."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .domain import ValidationError, _check_kinds, _from_json, _json_object

_PARAMETERS = {**dict.fromkeys(("mu", "low", "high", "value", "mean"), "number"), "sigma": "positive"}
#: The parameters that each kind reads; it takes no other.
_BY_KIND = {"lognormal": ("mu", "sigma"), "uniform": ("low", "high"), "constant": ("value",), "poisson": ("mean",)}
_SQRT2 = math.sqrt(2.0)
#: The largest x whose exp(x) is a finite float.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _normal_cdf(z: float) -> float:
    """Phi(z), the standard normal CDF."""
    return 0.5 * math.erfc(-z / _SQRT2)


def _erfcx(t: float) -> float:
    """exp(t^2) * erfc(t) for t >= 0, finite where exp(t^2) overflows."""
    if t < 26.0:
        return math.exp(t * t) * math.erfc(t)
    # Laplace's continued fraction for erfc; 8 levels reach double precision from t = 26 on
    f = t
    for k in range(8, 0, -1):
        f = t + 0.5 * k / f
    return 1.0 / (math.sqrt(math.pi) * f)


@dataclass(frozen=True)
class Distribution:
    """A scalar distribution spec: lognormal (mu and sigma of the underlying
    normal), uniform (low, high), constant (value) or poisson (mean). A kind
    takes only its own parameters."""

    kind: str
    mu: float | None = None
    sigma: float | None = None
    low: float | None = None
    high: float | None = None
    value: float | None = None
    mean: float | None = None

    def __post_init__(self):
        _check_kinds(self, "distribution", _PARAMETERS)
        names = _BY_KIND.get(self.kind) if isinstance(self.kind, str) else None
        if names is None:
            raise ValidationError(f"unknown distribution kind {self.kind!r}")
        stray = [name for name in _PARAMETERS if name not in names and getattr(self, name) is not None]
        if stray:
            raise ValidationError(f"{self.kind} takes only {' and '.join(names)}, not {' or '.join(stray)}")
        if any(getattr(self, name) is None for name in names):
            raise ValidationError(f"{self.kind} requires {' and '.join(names)}")
        if self.kind == "uniform" and not self.low < self.high:
            raise ValidationError("uniform requires low < high")
        if self.kind == "poisson" and self.mean < 0:
            raise ValidationError("poisson requires mean >= 0")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "lognormal":
            return rng.lognormal(self.mu, self.sigma, size)
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, size)
        if self.kind == "constant":
            return np.full(size, float(self.value))
        return rng.poisson(self.mean, size).astype(np.float64)

    def cdf(self, x: float) -> float:
        """P(X <= x); continuous kinds only."""
        if self.kind == "lognormal":
            return _normal_cdf((math.log(x) - self.mu) / self.sigma) if x > 0 else 0.0
        if self.kind == "uniform":
            return min(max((x - self.low) / (self.high - self.low), 0.0), 1.0)
        if self.kind == "constant":
            return float(x >= self.value)
        raise ValidationError(f"cdf undefined for kind {self.kind!r}")

    def partial_mean_below(self, b: float) -> float:
        """E[X ; X < b], the partial first moment below b."""
        if self.kind == "constant":
            return float(self.value) if b > self.value else 0.0
        if self.kind == "uniform":
            lo, hi = float(self.low), float(self.high)
            t = min(max(b, lo), hi)
            if t <= lo:
                return 0.0
            return (t * t - lo * lo) / (2 * (hi - lo))
        if self.kind == "lognormal":
            if b <= 0:
                return 0.0
            # E[X; X<b] = exp(mu + sigma^2/2) * Phi((ln b - mu - sigma^2)/sigma); products,
            # not powers, so that a float out of range becomes inf instead of raising
            log_b, mu, sigma = math.log(b), self.mu, self.sigma
            log_mean = mu + sigma * sigma / 2
            if log_mean <= _LOG_FLOAT_MAX:
                return math.exp(log_mean) * _normal_cdf((log_b - mu - sigma * sigma) / sigma)
            # E[X] overflows, but the product does not: with u = (ln b - mu)/sigma it
            # equals b * exp(-u^2/2) * erfcx((sigma - u)/sqrt 2) / 2, at most b
            u = (log_b - mu) / sigma
            return 0.5 * b * math.exp(-0.5 * u * u) * _erfcx((sigma - u) / _SQRT2)
        raise ValidationError(f"partial mean undefined for kind {self.kind!r}")

    def expected_second_price_profit(self, bid: float, value: float) -> float:
        """E[(value - C) ; C < bid] for competing bid C, by closed form.

        Cross-checked in tests against numeric quadrature.
        """
        return value * self.cdf(bid) - self.partial_mean_below(bid)

    def to_json(self) -> dict:
        return _json_object(self)

    @classmethod
    def from_json(cls, raw) -> "Distribution":
        return _from_json(cls, raw, "distribution")
