"""Small distribution specs used by the simulator configuration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import ValidationError, _is_number

_PARAMETERS = ("mu", "sigma", "low", "high", "value", "mean")


@dataclass(frozen=True)
class Distribution:
    """A scalar distribution spec: lognormal, uniform, constant or poisson.

    Parameters by kind:
      lognormal: mu, sigma (of the underlying normal)
      uniform:   low, high
      constant:  value
      poisson:   mean
    """

    kind: str
    mu: float | None = None
    sigma: float | None = None
    low: float | None = None
    high: float | None = None
    value: float | None = None
    mean: float | None = None

    def __post_init__(self):
        if self.kind == "lognormal":
            if self.mu is None or self.sigma is None or self.sigma <= 0:
                raise ValidationError("lognormal requires finite mu and sigma > 0")
        elif self.kind == "uniform":
            if self.low is None or self.high is None or not self.low < self.high:
                raise ValidationError("uniform requires low < high")
        elif self.kind == "constant":
            if self.value is None or not np.isfinite(self.value):
                raise ValidationError("constant requires a finite value")
        elif self.kind == "poisson":
            if self.mean is None or self.mean < 0:
                raise ValidationError("poisson requires mean >= 0")
        else:
            raise ValidationError(f"unknown distribution kind {self.kind!r}")

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
        from scipy import stats  # imported on use: it is most of the package's import time

        if self.kind == "lognormal":
            return float(stats.lognorm.cdf(x, s=self.sigma, scale=np.exp(self.mu)))
        if self.kind == "uniform":
            return float(stats.uniform.cdf(x, loc=self.low, scale=self.high - self.low))
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
            # E[X; X<b] = exp(mu + sigma^2/2) * Phi((ln b - mu - sigma^2)/sigma)
            from scipy import stats

            full_mean = np.exp(self.mu + self.sigma**2 / 2)
            z = (np.log(b) - self.mu - self.sigma**2) / self.sigma
            return float(full_mean * stats.norm.cdf(z))
        raise ValidationError(f"partial mean undefined for kind {self.kind!r}")

    def expected_second_price_profit(self, bid: float, value: float) -> float:
        """E[(value - C) ; C < bid] for competing bid C, by closed form.

        Cross-checked in tests against numeric quadrature.
        """
        return value * self.cdf(bid) - self.partial_mean_below(bid)

    def expected_second_price_profit_quad(self, bid: float, value: float) -> float:
        """Quadrature fallback/oracle for :meth:`expected_second_price_profit`."""
        from scipy import integrate, stats

        if self.kind == "constant":
            return (value - self.value) if bid > self.value else 0.0
        if self.kind == "lognormal":
            pdf = stats.lognorm(s=self.sigma, scale=np.exp(self.mu)).pdf
            lo = 0.0
        else:
            pdf = stats.uniform(loc=self.low, scale=self.high - self.low).pdf
            lo = float(self.low)
        if bid <= lo:
            return 0.0
        out, _ = integrate.quad(lambda c: (value - c) * pdf(c), lo, bid, limit=200)
        return float(out)

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for f in _PARAMETERS:
            v = getattr(self, f)
            if v is not None:
                out[f] = v
        return out

    @classmethod
    def from_json(cls, raw: dict) -> "Distribution":
        if not isinstance(raw, dict):
            raise ValidationError(f"distribution spec must be a JSON object, got {raw!r}")
        unknown = set(raw) - {"kind", *_PARAMETERS}
        if unknown:
            raise ValidationError(f"unknown distribution keys {sorted(unknown)}")
        for key in _PARAMETERS:
            if key in raw and not _is_number(raw[key]):
                raise ValidationError(f"distribution '{key}' must be a finite number, got {raw[key]!r}")
        return cls(**{"kind": None, **raw})
