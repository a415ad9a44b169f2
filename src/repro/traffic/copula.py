"""LRD traffic with an exact Pareto marginal (Gaussian-copula transform).

The BSS analysis of the paper (Sec. V) assumes the traffic marginal f(t) is
Pareto — verified on its traces in Fig. 8 (alpha = 1.5 synthetic, 1.71 Bell
Labs).  Superposed on/off sources, however, have near-Gaussian marginals, so
this module provides the generator the paper's Sec. V/VI experiments really
need: a process that is simultaneously

* long-range dependent with a target Hurst parameter, and
* exactly Pareto-distributed pointwise.

Construction: take exact fGn ``g(t)`` with the target H, push each point
through the standard normal CDF to a uniform, then through the Pareto
quantile function:

    f(t) = F_pareto^{-1}( Phi( g(t) ) ).

The transform is strictly monotone (Hermite rank 1), so the long-memory
exponent of ``g`` survives in ``f`` (Taqqu's theorem on functions of
Gaussian LRD sequences), while the marginal is Pareto by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traffic.distributions import Pareto, TruncatedPareto
from repro.traffic.fgn import fgn_davies_harte
from repro.utils.rng import normalize_rng
from repro.utils.special import ndtr
from repro.utils.validation import require_hurst, require_int_at_least


# Clip uniforms away from 1.0 so the Pareto quantile stays finite; 1e-12
# corresponds to a once-in-10^12-samples cap, far beyond any experiment here.
_UNIFORM_EPS = 1e-12


@dataclass(frozen=True)
class ParetoLRDModel:
    """Heavy-tailed-marginal, long-range-dependent traffic model.

    Parameters
    ----------
    marginal:
        Target marginal of f(t): a :class:`Pareto` (the paper's ``l`` and
        ``alpha``) or a :class:`TruncatedPareto` (finite-trace realism —
        see :meth:`from_mean`'s ``upper_ccdf``).
    hurst:
        Target Hurst parameter of the underlying fGn (0.5, 1).
    """

    marginal: Pareto | TruncatedPareto
    hurst: float

    def __post_init__(self) -> None:
        require_hurst("hurst", self.hurst)

    @classmethod
    def from_mean(
        cls,
        mean: float,
        alpha: float,
        hurst: float,
        *,
        upper_ccdf: float | None = None,
    ) -> "ParetoLRDModel":
        """Calibrate the marginal from a target mean rate and tail index.

        Parameters
        ----------
        upper_ccdf:
            When given, the Pareto is truncated at the quantile whose CCDF
            equals this value.  A finite real trace of n points never
            contains values rarer than ~1/n, so matching a paper trace of
            millions of packets corresponds to upper_ccdf ~ 1e-6..1e-7;
            the untruncated law (None) occasionally produces single values
            large enough to dominate every estimate.
        """
        base = Pareto.from_mean(mean, alpha)
        if upper_ccdf is None:
            return cls(marginal=base, hurst=hurst)
        return cls(
            marginal=TruncatedPareto.from_pareto(base, upper_ccdf), hurst=hurst
        )

    @property
    def mean_rate(self) -> float:
        return self.marginal.mean

    def generate(self, n_ticks: int, rng=None) -> np.ndarray:
        """Synthesize ``n_ticks`` of Pareto-marginal LRD traffic."""
        n_ticks = require_int_at_least("n_ticks", n_ticks, 1)
        gen = normalize_rng(rng)
        return self._marginal_of(ndtr(fgn_davies_harte(n_ticks, self.hurst, gen)))

    def transform(self, gaussian: np.ndarray) -> np.ndarray:
        """Apply the copula transform to an externally supplied Gaussian path.

        Exposed so tests can feed both fGn generators through the identical
        marginal map and so ablations can compare generators while holding
        the Gaussian path fixed.
        """
        return self._marginal_of(ndtr(np.asarray(gaussian, dtype=np.float64)))

    def _marginal_of(self, uniforms) -> np.ndarray:
        """Marginal quantiles of ``ndtr``'s fresh result, clipped in place.

        ``uniforms`` is the caller's to give up: it is clipped in its own
        memory and the quantiles take one more array, so at most two
        n-float arrays are alive at once.
        """
        uniforms = np.asarray(uniforms)  # ndtr gives a NumPy float for 0-d
        np.clip(uniforms, 0.0, 1.0 - _UNIFORM_EPS, out=uniforms)
        return self.marginal.ppf(uniforms)
