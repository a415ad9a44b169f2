"""Static systematic sampling: every C-th element from a starting offset.

The paper's baseline (Sec. II-B): deterministic selection ``g(t) = f(C t)``.
Different starting offsets give different sampling instances; the offset
ensemble is what the average-variance experiments (Sec. IV) average over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import (
    Sampler,
    SamplingResult,
    check_interval,
    check_offset,
    interval_for_rate,
    series_values,
)
from repro.utils.rng import normalize_rng


@dataclass(frozen=True)
class SystematicSampler(Sampler):
    """Sample every ``interval``-th element.

    Parameters
    ----------
    interval:
        The sampling interval C (inverse of the sampling rate).
    offset:
        Starting index in [0, C).  ``None`` draws a uniform random offset
        per instance — the canonical way to create independent instances
        for variance studies.
    """

    interval: int
    offset: int | None = 0

    name = "systematic"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "offset", check_offset(self.offset, self.interval)
        )

    @classmethod
    def from_rate(cls, rate: float, *, offset: int | None = 0) -> "SystematicSampler":
        """Build from a sampling rate r (C = round(1/r))."""
        return cls(interval=interval_for_rate(rate), offset=offset)

    @property
    def rate(self) -> float:
        return 1.0 / self.interval

    def sample(self, process, rng=None) -> SamplingResult:
        values = series_values(process)
        interval = check_interval(self.interval, values.size)
        if self.offset is None:
            offset = int(normalize_rng(rng).integers(0, interval))
        else:
            offset = self.offset
        indices = np.arange(offset, values.size, interval, dtype=np.int64)
        return SamplingResult(
            indices=indices,
            values=values[indices],
            n_population=values.size,
            method=self.name,
        )
