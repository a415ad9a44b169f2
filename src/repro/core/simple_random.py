"""Simple random sampling: N elements uniformly without replacement.

The paper's third technique (Sec. II-B).  Two parameterisations are
supported: a fixed sample count N, or a rate r (then ``N = round(r M)``).
The induced inter-sample gap is geometric (paper Eq. 13), which is what
the renewal/SNC machinery models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import Sampler, SamplingResult, series_values
from repro.errors import ParameterError
from repro.utils.rng import choice_without_replacement, normalize_rng
from repro.utils.validation import require_int_at_least, require_probability


@dataclass(frozen=True)
class SimpleRandomSampler(Sampler):
    """Uniform sampling without replacement.

    Exactly one of ``rate`` and ``n_samples`` must be given.
    """

    rate: float | None = None
    n_samples: int | None = None

    name = "simple_random"

    def __post_init__(self) -> None:
        if (self.rate is None) == (self.n_samples is None):
            raise ParameterError("specify exactly one of rate or n_samples")
        if self.rate is not None:
            require_probability("rate", self.rate)
        if self.n_samples is not None:
            object.__setattr__(
                self,
                "n_samples",
                require_int_at_least("n_samples", self.n_samples, 1),
            )

    @classmethod
    def from_rate(cls, rate: float) -> "SimpleRandomSampler":
        return cls(rate=rate)

    def _count(self, population: int) -> int:
        if self.n_samples is not None:
            if self.n_samples > population:
                raise ParameterError(
                    f"n_samples {self.n_samples} exceeds population {population}"
                )
            return self.n_samples
        return max(int(round(self.rate * population)), 1)

    def sample(self, process, rng=None) -> SamplingResult:
        values = series_values(process)
        gen = normalize_rng(rng)
        count = self._count(values.size)
        indices = choice_without_replacement(gen, values.size, count)
        return SamplingResult(
            indices=indices,
            values=values[indices],
            n_population=values.size,
            method=self.name,
        )


@dataclass(frozen=True)
class BernoulliSampler(Sampler):
    """Independent per-element coin flips with probability ``rate``.

    The iid variant of simple random sampling (what a router actually
    implements); the sample count is Binomial(M, r) rather than fixed.
    """

    rate: float

    name = "bernoulli"

    def __post_init__(self) -> None:
        require_probability("rate", self.rate)

    def sample(self, process, rng=None) -> SamplingResult:
        values = series_values(process)
        gen = normalize_rng(rng)
        mask = gen.random(values.size) < self.rate
        if not mask.any():
            # Guarantee at least one sample so the mean stays defined.
            mask[int(gen.integers(0, values.size))] = True
        indices = np.flatnonzero(mask).astype(np.int64)
        return SamplingResult(
            indices=indices,
            values=values[indices],
            n_population=values.size,
            method=self.name,
        )
