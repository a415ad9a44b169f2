"""Superposition of on/off sources with heavy-tailed sojourns.

This is the generator the paper drives through ns-2: each source alternates
between an ON state (transmitting at a fixed peak rate) and an OFF state
(silent), with sojourn times drawn from Pareto distributions.  By Taqqu's
aggregation theorem the superposition of many such sources converges to
fractional-Gaussian-noise-like traffic with

    H = (3 - min(alpha_on, alpha_off)) / 2,

the relation the paper states as ``alpha = beta + 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError
from repro.traffic.distributions import Pareto, pareto_alpha_for_hurst
from repro.utils.rng import normalize_rng, spawn_rngs
from repro.utils.validation import (
    require_in_range,
    require_int_at_least,
    require_positive,
)


@dataclass(frozen=True)
class OnOffModel:
    """Configuration of an aggregate of heavy-tailed on/off sources.

    Parameters
    ----------
    n_sources:
        Number of independent sources superposed.
    alpha_on / alpha_off:
        Pareto tail indices of the ON and OFF sojourn distributions.
    min_on / min_off:
        Pareto scale parameters (smallest sojourn, in ticks).
    peak_rate:
        Transmission rate of a source while ON (units per tick).
    """

    n_sources: int = 64
    alpha_on: float = 1.4
    alpha_off: float = 1.4
    min_on: float = 4.0
    min_off: float = 8.0
    peak_rate: float = 1.0

    def __post_init__(self) -> None:
        require_int_at_least("n_sources", self.n_sources, 1)
        # alpha <= 1 gives sojourns an infinite mean: every source would
        # start after an infinite random phase and never transmit.
        require_in_range("alpha_on", self.alpha_on, 1.0, math.inf, inclusive=False)
        require_in_range("alpha_off", self.alpha_off, 1.0, math.inf, inclusive=False)
        require_positive("min_on", self.min_on)
        require_positive("min_off", self.min_off)
        require_positive("peak_rate", self.peak_rate)

    @classmethod
    def for_hurst(
        cls,
        hurst: float,
        *,
        n_sources: int = 64,
        min_on: float = 4.0,
        min_off: float = 8.0,
        peak_rate: float = 1.0,
    ) -> "OnOffModel":
        """Model whose aggregate targets Hurst parameter ``hurst``.

        Uses the paper's mapping ``alpha = 3 - 2H`` for both sojourn tails.
        """
        alpha = pareto_alpha_for_hurst(hurst)
        return cls(
            n_sources=n_sources,
            alpha_on=alpha,
            alpha_off=alpha,
            min_on=min_on,
            min_off=min_off,
            peak_rate=peak_rate,
        )

    @property
    def target_hurst(self) -> float:
        """Hurst parameter predicted by Taqqu aggregation."""
        alpha = min(self.alpha_on, self.alpha_off)
        if not 1.0 < alpha < 2.0:
            raise ParameterError(
                f"target Hurst only defined for sojourn alpha in (1, 2), got {alpha}"
            )
        return (3.0 - alpha) / 2.0

    @property
    def mean_rate(self) -> float:
        """Long-run mean of the aggregate rate process."""
        on_mean = Pareto(self.min_on, self.alpha_on).mean
        off_mean = Pareto(self.min_off, self.alpha_off).mean
        duty = on_mean / (on_mean + off_mean)
        return self.n_sources * self.peak_rate * duty

    def generate(self, n_ticks: int, rng=None, *, warmup: int | None = None) -> np.ndarray:
        """Synthesize the aggregate rate process for ``n_ticks`` ticks.

        Each source's alternating sojourns are laid out on a difference
        array (+rate at burst start, -rate at burst end) and the aggregate
        is obtained by one cumulative sum, so the cost is proportional to
        the number of bursts, not ``n_sources * n_ticks``.  A source's
        sojourns are drawn in batches (see :func:`_sojourn_times`) and its
        bursts scattered by one ``np.add.at`` in time order, which
        reproduces :meth:`_reference_generate` bit for bit.

        Parameters
        ----------
        warmup:
            Ticks to simulate before the returned window, letting each
            source forget its synchronized start.  Defaults to
            ``min(n_ticks, 4096)``.
        """
        n_ticks = require_int_at_least("n_ticks", n_ticks, 1)
        gen = normalize_rng(rng)
        if warmup is None:
            warmup = min(n_ticks, 4096)
        total = n_ticks + warmup

        on_dist = Pareto(self.min_on, self.alpha_on)
        off_dist = Pareto(self.min_off, self.alpha_off)
        diff = np.zeros(total + 1, dtype=np.float64)

        for source_rng in spawn_rngs(gen, self.n_sources):
            # Random initial phase: start OFF with a random residual delay.
            start = float(source_rng.random() * (on_dist.mean + off_dist.mean))
            first_on = 0 if source_rng.random() < 0.5 else 1
            times = _sojourn_times(
                start, total, on_dist, off_dist, first_on, source_rng
            )
            # Sojourn i spans times[i] .. times[i + 1]; every other one,
            # from first_on, is a burst.
            starts = times[first_on:-1:2].astype(np.int64)
            ends = np.minimum(times[first_on + 1 :: 2], total).astype(np.int64)
            kept = ends > starts
            edges = np.column_stack((starts[kept], ends[kept])).ravel()
            rates = np.tile((self.peak_rate, -self.peak_rate), int(kept.sum()))
            np.add.at(diff, edges, rates)
        aggregate = np.cumsum(diff[:-1])
        return aggregate[warmup : warmup + n_ticks]

    def _reference_generate(
        self, n_ticks: int, rng=None, *, warmup: int | None = None
    ) -> np.ndarray:
        """One-sojourn-at-a-time loop that :meth:`generate` reproduces."""
        n_ticks = require_int_at_least("n_ticks", n_ticks, 1)
        gen = normalize_rng(rng)
        if warmup is None:
            warmup = min(n_ticks, 4096)
        total = n_ticks + warmup

        on_dist = Pareto(self.min_on, self.alpha_on)
        off_dist = Pareto(self.min_off, self.alpha_off)
        diff = np.zeros(total + 1, dtype=np.float64)

        for source_rng in spawn_rngs(gen, self.n_sources):
            # Random initial phase: start OFF with a random residual delay.
            t = float(source_rng.random() * (on_dist.mean + off_dist.mean))
            state_on = bool(source_rng.random() < 0.5)
            while t < total:
                if state_on:
                    duration = float(on_dist.sample(1, source_rng)[0])
                    start = int(t)
                    end = int(min(t + duration, total))
                    if end > start:
                        diff[start] += self.peak_rate
                        diff[end] -= self.peak_rate
                else:
                    duration = float(off_dist.sample(1, source_rng)[0])
                t += duration
                state_on = not state_on
        aggregate = np.cumsum(diff[:-1])
        return aggregate[warmup : warmup + n_ticks]


def _sojourn_times(
    start: float,
    horizon: int,
    on_dist: Pareto,
    off_dist: Pareto,
    first_on: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Times ``[t_0, t_1, ..., t_K]`` at which one source's sojourns begin.

    ``t_0 = start`` and ``t_{K-1} < horizon <= t_K``: sojourn ``i`` lasts
    ``t_{i+1} - t_i`` and is ON when ``i % 2 == first_on``.  Uniforms are
    drawn in batches, in the order a one-sojourn-at-a-time loop draws
    them, and ``np.cumsum`` adds the durations sequentially like
    ``t += d``, so the times equal the loop's bit for bit.  Uniforms left
    over from the last batch are discarded with the per-source ``rng``.
    """
    cycle = on_dist.mean + off_dist.mean
    chunks = [np.array([start])]
    t, drawn = start, 0
    while t < horizon:
        size = int(2.0 * (horizon - t) / cycle) + 16
        u = rng.random(size)
        on = (first_on - drawn) % 2  # first ON sojourn of this batch
        steps = np.empty(size + 1)
        steps[0] = t
        steps[1 + on :: 2] = on_dist.ppf(u[on::2])
        steps[2 - on :: 2] = off_dist.ppf(u[1 - on :: 2])
        times = np.cumsum(steps)[1:]
        chunks.append(times)
        t = float(times[-1])
        drawn += size
    times = np.concatenate(chunks)
    return times[: np.searchsorted(times, horizon) + 1]


@dataclass
class OnOffSource:
    """A single on/off source exposed as an iterator of (start, end) bursts.

    Mostly useful for packet-level synthesis and for unit tests that need
    to see individual sojourns rather than the aggregate.
    """

    on_dist: Pareto
    off_dist: Pareto
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def bursts(self, horizon: float, *, start_on: bool = False):
        """Yield ``(start, end)`` ON intervals covering ``[0, horizon)``."""
        require_positive("horizon", horizon)
        t = 0.0
        state_on = start_on
        while t < horizon:
            if state_on:
                duration = float(self.on_dist.sample(1, self.rng)[0])
                yield (t, min(t + duration, horizon))
            else:
                duration = float(self.off_dist.sample(1, self.rng)[0])
            t += duration
            state_on = not state_on
