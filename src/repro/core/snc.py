"""Theorem 1: the sufficient-and-necessary condition (SNC) checker.

Theorem 1 (paper Sec. III-D): a sampling method with gap distribution H
preserves the second-order statistics of a WSS process f asymptotically
iff::

    sum_u R_f(u) k(u, tau)  ~  R_f(tau)      as tau -> infinity,

where ``k(u, tau)`` is the tau-fold convolution of H.  For
``R_f(u) = u^-beta`` the check reduces to: does the left-hand side decay
with the same exponent beta?  :func:`snc_check` computes the left side by
the paper's FFT method and fits the exponent — reproducing Fig. 3.

The kernels ``k(·, tau)`` depend on H and tau but not on beta, so
:func:`snc_sweep` computes each one once and reuses it for every beta of
the sweep (Fig. 3: 40 kernel FFTs instead of 320).  The original
per-(beta, tau) loop survives as ``_reference_sampled_acf_via_renewal``,
and a parity test pins the two together bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.fitting import LinearFit, fit_loglog
from repro.core.renewal import IntervalDistribution
from repro.errors import ParameterError
from repro.utils.validation import require_in_range


def sampled_acf_via_renewal(
    dist: IntervalDistribution,
    beta: float,
    taus,
    *,
    const: float = 1.0,
) -> np.ndarray:
    """Left-hand side of Eq. (15): R_g(tau) = sum_u R_f(u) k(u, tau).

    ``R_f(u) = const * u^-beta`` for u >= 1 (u = 0 has k mass only in
    degenerate cases and R_f(0) multiplies it by ``const``).  ``taus``
    must be a non-empty 1-D sequence of integer lags >= 1.
    """
    beta = require_in_range("beta", beta, 0.0, 1.0, inclusive=False)
    return _renewal_acfs(dist, [beta], _check_taus(taus), const)[0]


def _check_taus(taus) -> np.ndarray:
    """``taus`` as an int64 array, or a ParameterError naming it."""
    raw = np.asarray(taus)
    if raw.ndim != 1 or raw.size == 0 or raw.dtype.kind not in "iuf":
        raise ParameterError(
            f"taus must be a non-empty 1-D sequence of integers, got {taus!r}"
        )
    if raw.dtype.kind == "f" and not np.all(
        np.isfinite(raw) & (raw == np.floor(raw))
    ):
        raise ParameterError(f"taus must be integers, got {taus!r}")
    checked = raw.astype(np.int64)
    if np.any(checked < 1):
        raise ParameterError("taus must be >= 1")
    return checked


def _renewal_acfs(
    dist: IntervalDistribution, betas, taus: np.ndarray, const: float
) -> np.ndarray:
    """Eq. (15)'s left side for every beta (rows) and tau (columns).

    Each kernel ``k(·, tau)`` (steps S1-S3: FFT the pmf, raise it to the
    tau-th power, invert) is computed once and dotted with every beta's
    ``R_f``; per (beta, tau) the arithmetic is the reference loop's.
    """
    max_support = int(taus.max()) * (dist.pmf.size - 1) + 1
    size = 1 << int(np.ceil(np.log2(max(max_support, 2))))
    spectrum = np.fft.rfft(dist.pmf, size)
    u = np.arange(max_support, dtype=np.float64)
    rfs = []
    for beta in betas:
        rf = np.empty(max_support)
        rf[0] = const
        rf[1:] = const * u[1:] ** -beta
        rfs.append(rf)
    out = np.empty((len(rfs), taus.size), dtype=np.float64)
    for j, tau in enumerate(taus):
        support = int(tau) * (dist.pmf.size - 1) + 1
        k = np.clip(np.fft.irfft(spectrum ** int(tau), size)[:support], 0.0, None)
        for i, rf in enumerate(rfs):
            out[i, j] = float(np.dot(rf[:support], k))
    return out


def _reference_sampled_acf_via_renewal(
    dist: IntervalDistribution,
    beta: float,
    taus,
    *,
    const: float = 1.0,
) -> np.ndarray:
    """Original per-(beta, tau) loop (kept for parity tests)."""
    require_in_range("beta", beta, 0.0, 1.0, inclusive=False)
    taus = np.asarray(taus, dtype=np.int64)
    if np.any(taus < 1):
        raise ParameterError("taus must be >= 1")

    out = np.empty(taus.shape, dtype=np.float64)
    max_support = int(taus.max()) * (dist.pmf.size - 1) + 1
    size = 1 << int(np.ceil(np.log2(max(max_support, 2))))
    spectrum = np.fft.rfft(dist.pmf, size)
    u = np.arange(max_support, dtype=np.float64)
    rf = np.empty(max_support)
    rf[0] = const
    rf[1:] = const * u[1:] ** -beta
    for i, tau in enumerate(taus):
        support = int(tau) * (dist.pmf.size - 1) + 1
        k = np.clip(np.fft.irfft(spectrum ** int(tau), size)[:support], 0.0, None)
        out[i] = float(np.dot(rf[:support], k))
    return out


@dataclass(frozen=True)
class SNCResult:
    """Outcome of an SNC check for one sampling method and beta.

    Attributes
    ----------
    beta:
        The original process exponent.
    beta_hat:
        Exponent fitted to the renewal-predicted sampled ACF.
    fit:
        The underlying log-log fit (quality via ``r_squared``).
    taus, sampled_acf:
        The evaluated points of Eq. (15)'s left side.
    """

    method: str
    beta: float
    beta_hat: float
    fit: LinearFit
    taus: np.ndarray
    sampled_acf: np.ndarray

    def preserved(self, tolerance: float = 0.05) -> bool:
        """Does the sampled process keep the exponent (hence Hurst)?"""
        return abs(self.beta_hat - self.beta) <= tolerance

    @property
    def hurst(self) -> float:
        return 1.0 - self.beta / 2.0

    @property
    def hurst_hat(self) -> float:
        return 1.0 - self.beta_hat / 2.0


def snc_check(
    dist: IntervalDistribution,
    beta: float,
    *,
    taus=None,
    const: float = 1.0,
) -> SNCResult:
    """Run the paper's numerical SNC test for one gap distribution.

    Defaults evaluate tau on a geometric grid in [64, 512] — large enough
    for the asymptotic regime, small enough to keep the FFTs cheap.
    """
    return _snc_checks(dist, [beta], taus=taus, const=const)[0]


def snc_sweep(dist: IntervalDistribution, betas, **kwargs) -> list[SNCResult]:
    """Fig. 3's sweep: SNC check over a range of beta values.

    ``kwargs`` are :func:`snc_check`'s; the renewal kernels are computed
    once for the whole sweep.
    """
    return _snc_checks(dist, betas, **kwargs)


def _snc_checks(
    dist: IntervalDistribution, betas, *, taus=None, const: float = 1.0
) -> list[SNCResult]:
    """One SNC result per beta, all from one set of renewal kernels."""
    betas = [
        require_in_range("beta", beta, 0.0, 1.0, inclusive=False)
        for beta in betas
    ]
    if taus is None:
        taus = np.unique(np.round(np.geomspace(64, 512, 20)).astype(np.int64))
    taus = _check_taus(taus)
    results = []
    for beta, acf in zip(betas, _renewal_acfs(dist, betas, taus, const)):
        positive = acf > 0
        if positive.sum() < 4:
            raise ParameterError("sampled ACF not positive over the tau grid")
        fit = fit_loglog(taus[positive].astype(np.float64), acf[positive])
        results.append(
            SNCResult(
                method=dist.name,
                beta=beta,
                beta_hat=float(-fit.slope),
                fit=fit,
                taus=taus.copy(),
                sampled_acf=acf,
            )
        )
    return results
