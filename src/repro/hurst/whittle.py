"""Whittle-type Hurst estimators.

Two semi/parametric spectral estimators:

* :func:`local_whittle_hurst` — Robinson's local Whittle estimator, which
  only assumes ``f(lambda) ~ G lambda^(1-2H)`` near zero and minimises the
  profiled Whittle objective over the lowest ``m`` frequencies.
* :func:`fgn_whittle_hurst` — fully parametric Whittle under the exact fGn
  spectral density (evaluated by truncated infinite sum), appropriate when
  the data really is fGn.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EstimationError
from repro.hurst.base import HurstEstimate
from repro.hurst.periodogram import periodogram
from repro.utils.brent import minimize_bounded
from repro.utils.validation import require_int_at_least


def _local_whittle_objective(h: float, freqs: np.ndarray, ords: np.ndarray) -> float:
    exponent = 2.0 * h - 1.0
    scaled = ords * freqs**exponent
    g = scaled.mean()
    if g <= 0:
        return np.inf
    return float(np.log(g) - exponent * np.log(freqs).mean())


def local_whittle_hurst(values, *, n_frequencies: int | None = None) -> HurstEstimate:
    """Robinson's local Whittle estimator.

    Parameters
    ----------
    n_frequencies:
        Number of lowest Fourier frequencies in the objective; defaults to
        ``n**0.65``, a standard bandwidth choice.
    """
    freqs, ords = periodogram(values)
    n = 2 * freqs.size
    if n_frequencies is None:
        n_frequencies = int(n**0.65)
    m = require_int_at_least("n_frequencies", n_frequencies, 4)
    m = min(m, freqs.size)
    freqs, ords = freqs[:m], ords[:m]
    positive = ords > 0
    if positive.sum() < 4:
        raise EstimationError("fewer than 4 positive periodogram ordinates")
    freqs, ords = freqs[positive], ords[positive]

    result = minimize_bounded(
        _local_whittle_objective, (0.01, 0.99), (freqs, ords), xatol=1e-6
    )
    if not result.success:
        raise EstimationError(f"local Whittle optimisation failed: {result.message}")
    return HurstEstimate(
        hurst=result.x,
        method="local_whittle",
        fit=None,
        details={"n_frequencies": int(freqs.size), "objective": result.fun},
    )


def fgn_spectral_density(
    lambdas: np.ndarray, hurst: float, *, n_terms: int = 200
) -> np.ndarray:
    """Exact fGn spectral density up to a constant (truncated sum).

    ``f(lambda) = C(H) |1 - e^{i lambda}|^2 * sum_k |lambda + 2 pi k|^(-2H-1)``
    with the sum over all integers k, truncated symmetrically at n_terms.
    The normalising constant is irrelevant for Whittle estimation.
    """
    lambdas = np.asarray(lambdas, dtype=np.float64)
    k = np.arange(-n_terms, n_terms + 1, dtype=np.float64)
    shifted = lambdas[:, None] + 2.0 * np.pi * k[None, :]
    series = np.abs(shifted) ** (-2.0 * hurst - 1.0)
    factor = np.abs(1.0 - np.exp(1j * lambdas)) ** 2
    return factor * series.sum(axis=1)


def _fgn_whittle_objective(h: float, freqs: np.ndarray, ords: np.ndarray) -> float:
    density = fgn_spectral_density(freqs, h)
    if np.any(density <= 0):
        return np.inf
    ratio = ords / density
    scale = ratio.mean()  # profile out the multiplicative constant
    return float(np.log(scale) + np.log(density).mean())


def fgn_whittle_hurst(values, *, max_frequencies: int = 2048) -> HurstEstimate:
    """Parametric Whittle estimator under the exact fGn spectrum.

    Uses at most ``max_frequencies`` ordinates (uniformly subsampled) so
    the truncated-sum density stays affordable on long traces.
    """
    freqs, ords = periodogram(values)
    positive = ords > 0
    freqs, ords = freqs[positive], ords[positive]
    if freqs.size < 8:
        raise EstimationError("too few positive periodogram ordinates")
    if freqs.size > max_frequencies:
        idx = np.linspace(0, freqs.size - 1, max_frequencies).astype(np.int64)
        freqs, ords = freqs[idx], ords[idx]

    result = minimize_bounded(
        _fgn_whittle_objective, (0.01, 0.99), (freqs, ords), xatol=1e-5
    )
    if not result.success:
        raise EstimationError(f"fGn Whittle optimisation failed: {result.message}")
    return HurstEstimate(
        hurst=result.x,
        method="fgn_whittle",
        fit=None,
        details={"n_frequencies": int(freqs.size)},
    )
