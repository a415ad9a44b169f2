"""Mergeable partial states for streamed reductions.

The chunked folds in :mod:`repro.parallel.streaming` share one shape:
each chunk folds into a small partial state, the states merge in chunk
order, and ``finalize`` turns the merged state into the quantity the
whole-array code returns.

* :class:`MomentState` — count/mean/M2 running moments with the Chan et
  al. parallel-merge rule; the building block for means and variances
  of series larger than memory.
* :class:`TailHistogramState` — exact integer threshold-exceedance counts
  (:func:`repro.queueing.simulation.tail_probabilities`); merge is
  integer addition, so the streamed result is bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import ParameterError


@runtime_checkable
class MergeableState(Protocol):
    """A partial result that can absorb another partial of the same kind."""

    def merge(self, other: "MergeableState") -> "MergeableState":
        """Combined state of the two partials (does not mutate either)."""
        ...

    def finalize(self):
        """The finished quantity this state accumulates toward."""
        ...


# --------------------------------------------------------------- moments
@dataclass(frozen=True)
class MomentState(MergeableState):
    """Running count/mean/M2 moments (Chan et al. parallel merge).

    ``m2`` is the sum of squared deviations from the mean, so the
    population variance is ``m2 / count``.  The empty state (count 0) is
    the merge identity.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def from_values(cls, values) -> "MomentState":
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return cls()
        mean = float(arr.mean())
        return cls(
            count=int(arr.size),
            mean=mean,
            m2=float(((arr - mean) ** 2).sum()),
        )

    def merge(self, other: "MomentState") -> "MomentState":
        if self.count == 0:
            return other
        if other.count == 0:
            return self
        count = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / count
        m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / count
        return MomentState(count=count, mean=mean, m2=m2)

    @property
    def variance(self) -> float:
        """Population variance (ddof=0), NaN for an empty state."""
        if self.count == 0:
            return float("nan")
        return self.m2 / self.count

    def finalize(self) -> tuple[int, float, float]:
        """``(count, mean, variance)`` of everything folded in so far."""
        return (self.count, self.mean if self.count else float("nan"), self.variance)


def _check_same_sizes(name: str, a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ParameterError(
            f"cannot merge {name} states over different scale grids "
            f"({a.shape} vs {b.shape})"
        )


# -------------------------------------------------------------- queueing
@dataclass(frozen=True)
class TailHistogramState(MergeableState):
    """Exact exceedance counts per threshold: P(Q > b) numerators.

    Counts are integers, so merging shards is exact and the final
    probabilities are bit-identical to a whole-array pass.
    """

    above: np.ndarray
    total: int

    @classmethod
    def empty(cls, n_thresholds: int) -> "TailHistogramState":
        return cls(above=np.zeros(n_thresholds, dtype=np.int64), total=0)

    @classmethod
    def from_values(cls, values, thresholds) -> "TailHistogramState":
        q = np.asarray(values, dtype=np.float64)
        thresholds = np.asarray(thresholds, dtype=np.float64)
        q_sorted = np.sort(q)
        above = q.size - np.searchsorted(q_sorted, thresholds, side="right")
        return cls(above=above.astype(np.int64), total=int(q.size))

    def merge(self, other: "TailHistogramState") -> "TailHistogramState":
        _check_same_sizes("tail-histogram", self.above, other.above)
        return TailHistogramState(
            above=self.above + other.above, total=self.total + other.total
        )

    def finalize(self) -> np.ndarray:
        if self.total == 0:
            raise ParameterError("tail probabilities of an empty series")
        return self.above / self.total
