"""M/G/infinity traffic model with heavy-tailed service times.

A classical alternative LRD generator (Cox; Parulekar & Makowski): sessions
arrive as a Poisson process and each stays active for a heavy-tailed
duration; the number of concurrently active sessions is the traffic rate.
With Pareto(alpha) durations the count process is LRD with
``H = (3 - alpha) / 2`` — the same exponent map as on/off aggregation, via a
different mechanism.  The library ships it as a third independent synthetic
workload for cross-validating the Hurst estimators and samplers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traffic.distributions import Pareto, pareto_alpha_for_hurst
from repro.utils.rng import normalize_rng
from repro.utils.validation import require_int_at_least, require_positive


@dataclass(frozen=True)
class MGInfinityModel:
    """M/G/inf session model.

    Parameters
    ----------
    arrival_rate:
        Poisson session arrivals per tick.
    duration:
        Session-duration distribution (heavy-tailed for LRD output).
    rate_per_session:
        Traffic contributed by one active session, per tick.
    """

    arrival_rate: float = 2.0
    duration: Pareto = Pareto(scale=4.0, alpha=1.4)
    rate_per_session: float = 1.0

    def __post_init__(self) -> None:
        require_positive("arrival_rate", self.arrival_rate)
        require_positive("rate_per_session", self.rate_per_session)

    @classmethod
    def for_hurst(
        cls,
        hurst: float,
        *,
        arrival_rate: float = 2.0,
        min_duration: float = 4.0,
        rate_per_session: float = 1.0,
    ) -> "MGInfinityModel":
        """Model calibrated to Hurst ``hurst`` via ``alpha = 3 - 2H``."""
        alpha = pareto_alpha_for_hurst(hurst)
        return cls(
            arrival_rate=arrival_rate,
            duration=Pareto(scale=min_duration, alpha=alpha),
            rate_per_session=rate_per_session,
        )

    @property
    def mean_rate(self) -> float:
        """Little's law: mean active sessions = lambda * E[duration]."""
        return self.arrival_rate * self.duration.mean * self.rate_per_session

    def generate(self, n_ticks: int, rng=None, *, warmup: int | None = None) -> np.ndarray:
        """Synthesize the active-session rate process for ``n_ticks`` ticks.

        Uses the same difference-array trick as the on/off generator: each
        session adds +rate at its arrival tick and -rate at its departure
        tick, and a final cumulative sum yields the occupancy.
        """
        n_ticks = require_int_at_least("n_ticks", n_ticks, 1)
        gen = normalize_rng(rng)
        if warmup is None:
            # Long-memory occupancy needs a warm start; a few mean durations
            # plus a cap keeps the cost bounded.
            warmup = int(min(max(8 * self.duration.mean, 256), 4 * n_ticks))
        total = n_ticks + warmup

        counts = gen.poisson(self.arrival_rate, size=total)
        n_sessions = int(counts.sum())
        diff = np.zeros(total + 1, dtype=np.float64)
        if n_sessions:
            starts = np.repeat(np.arange(total), counts)
            durations = self.duration.sample(n_sessions, gen)
            ends = np.minimum(starts + np.ceil(durations).astype(np.int64), total)
            np.add.at(diff, starts, self.rate_per_session)
            np.add.at(diff, ends, -self.rate_per_session)
        occupancy = np.cumsum(diff[:-1])
        return occupancy[warmup : warmup + n_ticks]
