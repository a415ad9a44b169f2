"""Sampler interface and shared result type.

All samplers operate on a traffic series f(t) (a numpy array or a
:class:`~repro.trace.process.RateProcess`) and return a
:class:`SamplingResult`: the chosen time indices, the sampled values, and
enough bookkeeping to compute the paper's three evaluation metrics
(sampled mean, overhead, efficiency).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError
from repro.utils.arrays import as_float_array
from repro.utils.validation import require_int_at_least, require_probability


def series_values(process) -> np.ndarray:
    """Accept either a RateProcess-like object or a plain array.

    :class:`~repro.trace.process.RateProcess` validates its values at
    construction, so its array is returned as-is — re-running the O(n)
    finiteness scan on every sampling instance would dominate the cost of
    the vectorized samplers.
    """
    from repro.trace.process import RateProcess

    if isinstance(process, RateProcess):
        return process.values
    values = getattr(process, "values", process)
    return as_float_array(values, name="process")


def interval_for_rate(rate: float, *, name: str = "rate") -> int:
    """Convert a sampling rate r into the systematic interval C = 1/r."""
    require_probability(name, rate)
    return max(int(round(1.0 / rate)), 1)


@dataclass(frozen=True)
class SamplingResult:
    """Outcome of one sampling instance.

    Attributes
    ----------
    indices:
        Time indices sampled, ascending.  For BSS this includes both the
        regular (systematic) samples and the kept qualified samples.
    values:
        The corresponding f(t) values.
    n_population:
        Length of the parent series.
    method:
        Name of the sampling technique.
    n_base:
        Number of *regular* samples (systematic grid / strata / random
        picks).  Extra qualified samples, if any, are
        ``n_samples - n_base``; for the three classical techniques
        ``n_base == n_samples``.
    """

    indices: np.ndarray
    values: np.ndarray
    n_population: int
    method: str
    n_base: int = field(default=-1)

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if indices.shape != values.shape or indices.ndim != 1:
            raise ParameterError("indices and values must be 1-D, equal length")
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_population):
            raise ParameterError("sample indices outside the parent series")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)
        if self.n_base < 0:
            object.__setattr__(self, "n_base", indices.size)
        if self.n_base > indices.size:
            raise ParameterError(
                f"n_base {self.n_base} exceeds total samples {indices.size}"
            )

    # ------------------------------------------------------------- summaries
    @property
    def n_samples(self) -> int:
        """Total samples taken (regular + qualified)."""
        return int(self.indices.size)

    @property
    def n_extra(self) -> int:
        """Qualified (extra) samples beyond the regular grid."""
        return self.n_samples - self.n_base

    @property
    def sampled_mean(self) -> float:
        """The estimator Xs: plain mean over every kept sample."""
        if self.n_samples == 0:
            raise ParameterError("no samples were taken; mean undefined")
        return float(self.values.mean())

    @property
    def actual_rate(self) -> float:
        """Realised sampling rate n_samples / population."""
        if self.n_population == 0:
            return 0.0
        return self.n_samples / self.n_population

    def eta(self, true_mean: float) -> float:
        """Relative under-estimation 1 - Xs/Xr (paper Eq. 21)."""
        if true_mean == 0:
            raise ParameterError("true_mean must be non-zero")
        return 1.0 - self.sampled_mean / true_mean


class Sampler(ABC):
    """A sampling technique: configuration object with a ``sample`` method."""

    #: Human-readable technique name, set by subclasses.
    name: str = "sampler"

    @abstractmethod
    def sample(self, process, rng=None) -> SamplingResult:
        """Draw one sampling instance from the series."""

    def sampled_mean(self, process, rng=None) -> float:
        """Convenience: mean of a single sampling instance."""
        return self.sample(process, rng).sampled_mean


def check_interval(interval: int, n: int) -> int:
    """Validate a sampling interval against a series length."""
    interval = require_int_at_least("interval", interval, 1)
    if interval > n:
        raise ParameterError(
            f"sampling interval {interval} exceeds series length {n}"
        )
    return interval


def check_offset(offset: int | None, interval: int) -> int | None:
    """Validate a systematic starting offset: ``None`` or an integer in
    ``[0, interval)``; returns it as an ``int``."""
    if offset is None:
        return None
    offset = require_int_at_least("offset", offset, 0)
    if offset >= interval:
        raise ParameterError(
            f"offset must lie in [0, {interval}), got {offset}"
        )
    return offset
