"""Synthetic substitute for the Bell Labs S-Net traces of the paper.

The paper's "real Internet traces" [18] (Bell Labs, March 8 2000; tcpdump;
about 40 minutes; millions of packets; hundreds of host pairs) are no longer
distributed.  The paper consumes exactly four properties of that data set:

1. the monitored aggregate f(t) has Hurst parameter ~0.62,
2. its marginal fits a Pareto with alpha ~1.71 (Fig. 8b),
3. its mean rate is ~1.21e4 bytes/second (Fig. 19),
4. it is a packet-level trace over hundreds of OD pairs.

:class:`BellLabsLikeTrace` synthesises a trace matching all four by
construction: a Pareto-marginal LRD byte process (Gaussian-copula transform
of exact fGn) is packetised with the classical tri-modal size mix, and
packets are assigned to OD pairs with Zipf popularity.  Everything is
deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.packet import PacketTrace
from repro.trace.process import RateProcess
from repro.traffic.arrivals import PacketSizeMix, packetize, zipf_weights
from repro.traffic.copula import ParetoLRDModel
from repro.utils.rng import normalize_rng
from repro.utils.validation import (
    require_alpha,
    require_hurst,
    require_int_at_least,
    require_positive,
)

#: Statistics of the original Bell Labs aggregate quoted in the paper.
BELL_LABS_HURST = 0.62
BELL_LABS_ALPHA = 1.71
BELL_LABS_MEAN_RATE = 1.21e4  # bytes/second
BELL_LABS_DURATION = 40 * 60.0  # seconds ("about 40 minutes")


@dataclass(frozen=True)
class BellLabsLikeTrace:
    """Generator of Bell-Labs-like packet traces.

    Parameters
    ----------
    hurst / alpha / mean_rate:
        Statistics of the monitored aggregate; defaults match the paper.
    bin_width:
        Granularity (seconds) of the underlying byte process.
    n_hosts:
        Number of distinct hosts; OD pairs are drawn among them.
    n_pairs:
        Number of active OD pairs ("hundreds of pairs of end hosts").
    zipf_exponent:
        Popularity skew of pair activity.
    """

    hurst: float = BELL_LABS_HURST
    alpha: float = BELL_LABS_ALPHA
    mean_rate: float = BELL_LABS_MEAN_RATE
    bin_width: float = 0.1
    n_hosts: int = 64
    n_pairs: int = 200
    zipf_exponent: float = 1.0
    #: Finite-capture tail cut (Fig. 8b's dynamic range); None = untruncated.
    upper_ccdf: float | None = 1e-4

    def __post_init__(self) -> None:
        require_hurst("hurst", self.hurst)
        require_alpha("alpha", self.alpha)
        require_positive("mean_rate", self.mean_rate)
        require_positive("bin_width", self.bin_width)
        require_int_at_least("n_hosts", self.n_hosts, 2)
        require_int_at_least("n_pairs", self.n_pairs, 1)

    def _model(self) -> ParetoLRDModel:
        mean_per_bin = self.mean_rate * self.bin_width
        return ParetoLRDModel.from_mean(
            mean=mean_per_bin,
            alpha=self.alpha,
            hurst=self.hurst,
            upper_ccdf=self.upper_ccdf,
        )

    def byte_process(self, n_bins: int, rng=None) -> RateProcess:
        """Fast path: the monitored aggregate f(t) without packetisation.

        This is what the sampling experiments consume — bytes per
        ``bin_width`` window, Pareto(alpha) marginal, Hurst ``hurst``,
        mean ``mean_rate * bin_width`` per bin.
        """
        n_bins = require_int_at_least("n_bins", n_bins, 2)
        values = self._model().generate(n_bins, normalize_rng(rng))
        return RateProcess(values=values, bin_width=self.bin_width, unit="bytes/bin")

    def od_pairs(self, rng=None) -> list[tuple[int, int]]:
        """Draw the active OD pairs (distinct src != dst host combinations)."""
        gen = normalize_rng(rng)
        pairs: set[tuple[int, int]] = set()
        limit = self.n_hosts * (self.n_hosts - 1)
        target = min(self.n_pairs, limit)
        while len(pairs) < target:
            src, dst = gen.integers(0, self.n_hosts, size=2)
            if src != dst:
                pairs.add((int(src), int(dst)))
        return sorted(pairs)

    def packets(self, n_bins: int, rng=None) -> PacketTrace:
        """Full packet-level trace covering ``n_bins * bin_width`` seconds."""
        gen = normalize_rng(rng)
        process = self.byte_process(n_bins, gen)
        pairs = self.od_pairs(gen)
        weights = zipf_weights(len(pairs), self.zipf_exponent)
        return packetize(
            process.values,
            self.bin_width,
            size_mix=PacketSizeMix(),
            od_pairs=pairs,
            od_weights=weights,
            rng=gen,
        )

    @classmethod
    def paper_scale(cls) -> "BellLabsLikeTrace":
        """Configuration matching the original capture's published scale."""
        return cls()

    def paper_n_bins(self) -> int:
        """Number of bins covering the original ~40-minute capture."""
        return int(BELL_LABS_DURATION / self.bin_width)


def bell_labs_like_process(n_bins: int = 1 << 18, rng=None, **kwargs) -> RateProcess:
    """One-call convenience: the monitored Bell-Labs-like aggregate f(t)."""
    return BellLabsLikeTrace(**kwargs).byte_process(n_bins, rng)
