"""Adaptive random sampling (Choi-Park-Zhang style) — a cited baseline.

The paper's related work (ref. [2]) adjusts the sampling rate when a load
change is detected, trading overhead for accuracy from the opposite
direction as BSS: instead of chasing bursts *within* a fixed-rate budget,
it raises the whole rate while the traffic is elevated.

:class:`AdaptiveRandomSampler` implements the idea as used in the
comparison literature: Bernoulli sampling whose probability switches
between a base and a boosted rate, driven by an EWMA of the observed
values crossing a relative threshold.  It provides the natural experiment
"what would the adaptive alternative have cost/measured" next to BSS.

The detector walks only the granules whose pre-drawn coins could possibly
be sampled (``coins < boosted_rate``) rather than the full series, and it
walks them on Python floats gathered once with ``tolist()``: NumPy scalars
cost several times more per operation than the arithmetic itself.  The
walk stays a loop because each coin is compared with a rate set by an
EWMA of the values sampled before it; that weighted recurrence has no
NumPy scan that rounds exactly like the sequential one, so no vector form
keeps the output bits.  The original every-granule loop survives as
``AdaptiveRandomSampler._reference_sample`` and parity tests pin the two
to identical output and generator state on the same rng stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.base import Sampler, SamplingResult, series_values
from repro.errors import ParameterError
from repro.utils.rng import normalize_rng
from repro.utils.validation import require_positive, require_probability


@dataclass(frozen=True)
class AdaptiveRandomSampler(Sampler):
    """Bernoulli sampling with load-triggered rate boosting.

    Parameters
    ----------
    base_rate:
        Per-element sampling probability in the quiet regime.
    boost_factor:
        Multiplier applied to the rate while the load is elevated
        (capped at probability 1).
    trigger:
        Relative level of the EWMA load (vs its long-run average) above
        which the boosted rate engages.
    ewma_alpha:
        Smoothing weight of the load tracker (per *sampled* observation —
        the detector only sees what it samples, as a real device would).
    """

    base_rate: float
    boost_factor: float = 4.0
    trigger: float = 1.5
    ewma_alpha: float = 0.05

    name = "adaptive_random"

    def __post_init__(self) -> None:
        require_probability("base_rate", self.base_rate)
        require_positive("boost_factor", self.boost_factor)
        if self.boost_factor < 1.0:
            raise ParameterError(
                f"boost_factor must be >= 1, got {self.boost_factor}"
            )
        require_positive("trigger", self.trigger)
        require_probability("ewma_alpha", self.ewma_alpha)

    @classmethod
    def from_rate(cls, rate: float, **kwargs) -> "AdaptiveRandomSampler":
        return cls(base_rate=rate, **kwargs)

    @property
    def rate(self) -> float:
        return self.base_rate

    def sample(self, process, rng=None) -> SamplingResult:
        """Draw one adaptive instance, visiting only coin-flip candidates.

        A granule can be sampled only if its coin lands below the boosted
        rate, so the detector loop walks the ``coins < boosted_rate``
        candidate set (about ``boosted_rate * n`` positions) instead of
        every granule; non-candidates can never change the detector state.

        The loop runs on Python floats: the candidates' coins and values
        are gathered once with ``tolist()``, the parameters are hoisted
        into locals, and the ``elevated`` flag is recomputed only after a
        sampled observation, the only point where the detector state
        changes.  Every expression, its order, its finiteness tests and
        the rng draws are the reference's, so the output is bit-identical.
        The loop has no vector form: each decision depends on an EWMA of
        the observations sampled before it, and that weighted recurrence
        has no NumPy scan that rounds like the sequential loop.
        ``_reference_sample`` keeps the original full-scan loop and
        parity tests pin the two together on the same rng stream.
        """
        values = series_values(process)
        gen = normalize_rng(rng)
        n = values.size
        base_rate = self.base_rate
        boosted_rate = min(base_rate * self.boost_factor, 1.0)
        trigger = self.trigger
        alpha = self.ewma_alpha
        decay = 1 - alpha

        coins = gen.random(n)
        candidates = np.flatnonzero(coins < boosted_rate)
        picked: list[int] = []
        n_base_regime = 0
        ewma = math.nan
        long_run = math.nan
        elevated = False
        for position, (coin, value) in enumerate(
            zip(coins[candidates].tolist(), values[candidates].tolist())
        ):
            if coin < (boosted_rate if elevated else base_rate):
                picked.append(position)
                if not elevated:
                    n_base_regime += 1
                # Detector state updates only on sampled observations.
                ewma = value if not math.isfinite(ewma) else (
                    alpha * value + decay * ewma
                )
                long_run = value if not math.isfinite(long_run) else (
                    0.005 * value + 0.995 * long_run
                )
                elevated = (
                    math.isfinite(ewma)
                    and math.isfinite(long_run)
                    and long_run > 0
                    and ewma > trigger * long_run
                )
        if picked:
            idx = candidates[picked].astype(np.int64, copy=False)
        else:
            idx = np.asarray([int(gen.integers(0, n))], dtype=np.int64)
            n_base_regime = 1
        # n_base counts quiet-regime samples; the boosted-regime surplus is
        # this sampler's analogue of BSS's qualified-sample overhead.
        return SamplingResult(
            indices=idx,
            values=values[idx],
            n_population=n,
            method=self.name,
            n_base=n_base_regime,
        )

    def _reference_sample(self, process, rng=None) -> SamplingResult:
        """Original every-granule loop implementation (kept for parity tests)."""
        values = series_values(process)
        gen = normalize_rng(rng)
        n = values.size
        boosted_rate = min(self.base_rate * self.boost_factor, 1.0)

        coins = gen.random(n)
        indices: list[int] = []
        n_base_regime = 0
        ewma = np.nan
        long_run = np.nan
        for t in range(n):
            elevated = (
                np.isfinite(ewma)
                and np.isfinite(long_run)
                and long_run > 0
                and ewma > self.trigger * long_run
            )
            rate = boosted_rate if elevated else self.base_rate
            if coins[t] < rate:
                indices.append(t)
                if not elevated:
                    n_base_regime += 1
                value = float(values[t])
                # Detector state updates only on sampled observations.
                ewma = value if not np.isfinite(ewma) else (
                    self.ewma_alpha * value + (1 - self.ewma_alpha) * ewma
                )
                long_run = value if not np.isfinite(long_run) else (
                    0.005 * value + 0.995 * long_run
                )
        if not indices:
            indices = [int(gen.integers(0, n))]
            n_base_regime = 1
        idx = np.asarray(indices, dtype=np.int64)
        return SamplingResult(
            indices=idx,
            values=values[idx],
            n_population=n,
            method=self.name,
            n_base=n_base_regime,
        )
