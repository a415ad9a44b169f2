"""Heavy-tailed (and reference light-tailed) distributions.

The paper's analysis of BSS (Sec. V) models the traffic marginal as a Pareto
distribution with shape ``alpha`` in (1, 2) — finite mean, infinite variance.
:class:`Pareto` implements exactly the parameterisation of the paper:

    Pr(X > x) = (k / x) ** alpha       for x >= k,

where ``k`` is the scale (smallest attainable value, the paper's ``l``) and
``alpha`` the tail index.  The conditional means above/below a threshold are
the quantities the BSS bias analysis (Eqs. 24–27) needs, so they are provided
as first-class methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.utils.rng import normalize_rng
from repro.utils.validation import require_positive


@dataclass(frozen=True)
class Pareto:
    """Pareto distribution ``Pr(X > x) = (scale / x) ** alpha`` for ``x >= scale``.

    Parameters
    ----------
    scale:
        The smallest value the variable can take (the paper's ``l``/``k``).
    alpha:
        Tail index.  The paper's regime of interest is ``1 < alpha < 2``
        (finite mean, infinite variance), but any ``alpha > 0`` is accepted
        because light/heavier tails are useful as controls.
    """

    scale: float
    alpha: float

    def __post_init__(self) -> None:
        require_positive("scale", self.scale)
        require_positive("alpha", self.alpha)

    # ------------------------------------------------------------------ CDFs
    def ccdf(self, x) -> np.ndarray:
        """Complementary CDF ``Pr(X > x)`` (vectorised)."""
        x = np.asarray(x, dtype=np.float64)
        out = np.ones_like(x)
        above = x > self.scale
        out[above] = (self.scale / x[above]) ** self.alpha
        return out

    def cdf(self, x) -> np.ndarray:
        """CDF ``Pr(X <= x)`` (vectorised)."""
        return 1.0 - self.ccdf(x)

    def pdf(self, x) -> np.ndarray:
        """Density ``alpha * scale**alpha * x**-(alpha+1)`` on ``x >= scale``."""
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        ok = x >= self.scale
        out[ok] = self.alpha * self.scale**self.alpha * x[ok] ** -(self.alpha + 1)
        return out

    def ppf(self, q) -> np.ndarray:
        """Quantile function: inverse of :meth:`cdf` on [0, 1)."""
        q = np.asarray(q, dtype=np.float64)
        if np.any((q < 0) | (q >= 1)):
            raise ParameterError("quantiles must lie in [0, 1)")
        # scale * (1 - q) ** (-1 / alpha), evaluated in one work array.
        out = 1.0 - q
        out **= -1.0 / self.alpha
        out *= self.scale
        return out

    # ---------------------------------------------------------------- moments
    @property
    def mean(self) -> float:
        """``alpha * scale / (alpha - 1)`` for alpha > 1, else +inf."""
        if self.alpha <= 1:
            return math.inf
        return self.alpha * self.scale / (self.alpha - 1.0)

    @property
    def variance(self) -> float:
        """Finite only for alpha > 2 — the paper's regime has infinite variance."""
        if self.alpha <= 2:
            return math.inf
        a, k = self.alpha, self.scale
        return k * k * a / ((a - 1.0) ** 2 * (a - 2.0))

    def mean_above(self, threshold: float) -> float:
        """``E[X | X > threshold]`` — the paper's qualified-sample mean.

        For a Pareto tail this is ``threshold * alpha / (alpha - 1)`` when
        ``threshold >= scale`` (Eq. 26's first moment); below the scale the
        condition is vacuous and the unconditional mean is returned.
        """
        if self.alpha <= 1:
            return math.inf
        t = max(float(threshold), self.scale)
        return t * self.alpha / (self.alpha - 1.0)

    def mean_below(self, threshold: float) -> float:
        """``E[X | X <= threshold]`` (Eq. 27's first moment)."""
        t = float(threshold)
        if t <= self.scale:
            return self.scale
        if self.alpha == 1.0:
            # integral of x * x^-2 = log
            num = self.scale * math.log(t / self.scale)
        else:
            a, k = self.alpha, self.scale
            num = (a * k / (a - 1.0)) * (1.0 - (k / t) ** (a - 1.0))
        p_below = 1.0 - (self.scale / t) ** self.alpha
        if p_below <= 0:
            return self.scale
        return num / p_below

    # --------------------------------------------------------------- sampling
    def sample(self, size: int, rng=None) -> np.ndarray:
        """Draw ``size`` iid variates (inverse-transform sampling)."""
        gen = normalize_rng(rng)
        u = gen.random(size)
        return self.scale * (1.0 - u) ** (-1.0 / self.alpha)

    @classmethod
    def from_mean(cls, mean: float, alpha: float) -> "Pareto":
        """Construct a Pareto with the given mean and tail index.

        Inverts ``mean = alpha * scale / (alpha - 1)``; requires alpha > 1.
        """
        require_positive("mean", mean)
        if alpha <= 1:
            raise ParameterError(
                f"alpha must exceed 1 for a finite mean, got {alpha}"
            )
        scale = mean * (alpha - 1.0) / alpha
        return cls(scale=scale, alpha=alpha)


@dataclass(frozen=True)
class TruncatedPareto:
    """Pareto truncated at an upper bound, for bounded-support workloads.

    Useful as a control: truncation restores finite variance, so samplers
    that fail on :class:`Pareto` succeed here — exactly the contrast the
    paper draws between light- and heavy-tailed burst lengths.
    """

    scale: float
    alpha: float
    upper: float

    def __post_init__(self) -> None:
        require_positive("scale", self.scale)
        require_positive("alpha", self.alpha)
        if self.upper <= self.scale:
            raise ParameterError(
                f"upper bound {self.upper} must exceed scale {self.scale}"
            )

    @property
    def _tail_mass(self) -> float:
        return 1.0 - (self.scale / self.upper) ** self.alpha

    @classmethod
    def from_pareto(cls, base: "Pareto", upper_ccdf: float) -> "TruncatedPareto":
        """Truncate a Pareto at the quantile where its CCDF equals ``upper_ccdf``.

        This models a finite-length trace: values rarer than one-in-
        ``1/upper_ccdf`` samples simply never occur in it.  The paper's
        Fig. 8 value ranges correspond to upper_ccdf around 1e-6..1e-7.
        """
        if not 0.0 < upper_ccdf < 1.0:
            raise ParameterError(
                f"upper_ccdf must lie in (0, 1), got {upper_ccdf}"
            )
        upper = base.scale * upper_ccdf ** (-1.0 / base.alpha)
        return cls(scale=base.scale, alpha=base.alpha, upper=upper)

    def ppf(self, q) -> np.ndarray:
        """Quantile function of the truncated law on [0, 1)."""
        q = np.asarray(q, dtype=np.float64)
        if np.any((q < 0) | (q >= 1)):
            raise ParameterError("quantiles must lie in [0, 1)")
        # scale * (1 - q * mass) ** (-1 / alpha), evaluated in one work
        # array; q * -mass + 1 is the float 1 - q * mass.
        out = q * -self._tail_mass
        out += 1.0
        out **= -1.0 / self.alpha
        out *= self.scale
        return out

    def mean_above(self, threshold: float) -> float:
        """E[X | X > threshold] under truncation (BSS theory cross-checks)."""
        t = min(max(float(threshold), self.scale), self.upper)
        a, k, u = self.alpha, self.scale, self.upper
        mass = (k / t) ** a - (k / u) ** a
        if mass <= 0:
            return self.upper
        if a == 1.0:
            integral = k * math.log(u / t)
        else:
            integral = (a * k**a / (a - 1.0)) * (
                t ** (1.0 - a) - u ** (1.0 - a)
            )
        return integral / mass

    def ccdf(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        base = Pareto(self.scale, self.alpha)
        raw = base.ccdf(x) - (self.scale / self.upper) ** self.alpha
        out = np.clip(raw / self._tail_mass, 0.0, 1.0)
        out[x >= self.upper] = 0.0
        out[x <= self.scale] = 1.0
        return out if out.size > 1 else out.reshape(())

    @property
    def mean(self) -> float:
        a, k, u = self.alpha, self.scale, self.upper
        if a == 1.0:
            raw = k * math.log(u / k)
        else:
            raw = (a * k / (a - 1.0)) * (1.0 - (k / u) ** (a - 1.0))
        return raw / self._tail_mass

    def sample(self, size: int, rng=None) -> np.ndarray:
        gen = normalize_rng(rng)
        u = gen.random(size) * self._tail_mass
        return self.scale * (1.0 - u) ** (-1.0 / self.alpha)


@dataclass(frozen=True)
class Exponential:
    """Exponential distribution — the light-tailed control of Eq. (19).

    The persistence probability of a 1-burst with exponential tail stays
    constant (``exp(-rate)``) instead of converging to 1; tests use this to
    exercise both branches of the paper's argument.
    """

    rate: float

    def __post_init__(self) -> None:
        require_positive("rate", self.rate)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def ccdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.where(x <= 0, 1.0, np.exp(-self.rate * np.maximum(x, 0.0)))

    def sample(self, size: int, rng=None) -> np.ndarray:
        gen = normalize_rng(rng)
        return gen.exponential(scale=1.0 / self.rate, size=size)


def pareto_alpha_for_hurst(hurst: float) -> float:
    """Tail index of on/off sojourns that yields a given Hurst parameter.

    Taqqu's aggregation result: superposing on/off sources whose sojourn
    times have tail index ``alpha`` produces LRD traffic with
    ``H = (3 - alpha) / 2``.  The paper uses the equivalent statement
    ``alpha = beta + 1`` with ``beta = 2 - 2H``.
    """
    if not 0.5 < hurst < 1.0:
        raise ParameterError(f"hurst must lie in (0.5, 1), got {hurst}")
    return 3.0 - 2.0 * hurst


def hurst_for_pareto_alpha(alpha: float) -> float:
    """Inverse of :func:`pareto_alpha_for_hurst`: ``H = (3 - alpha) / 2``."""
    if not 1.0 < alpha < 2.0:
        raise ParameterError(f"alpha must lie in (1, 2), got {alpha}")
    return (3.0 - alpha) / 2.0
