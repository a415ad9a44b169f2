"""Closed-form results from the paper's Sections III-V.

Everything here is analytical (no sampling involved):

* sampled-process autocorrelations for the three techniques
  (Eqs. 6, 8, 11) — the basis of Figs. 2 and 3;
* the convexity increment ``delta_tau`` of Theorem 2's condition
  (Eq. 16) — Fig. 4;
* the persistence probability of 1-bursts for heavy- and light-tailed
  burst distributions (Eqs. 18-20).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.utils.special import gammaln
from repro.utils.validation import (
    require_in_range,
    require_int_at_least,
    require_positive,
    require_probability,
)


def _check_beta(beta: float) -> float:
    return require_in_range("beta", beta, 0.0, 1.0, inclusive=False)


def power_law_autocorrelation(taus, beta: float, *, const: float = 1.0) -> np.ndarray:
    """Model ACF of the original process: R_f(tau) = const * tau^-beta."""
    _check_beta(beta)
    require_positive("const", const)
    taus = np.asarray(taus, dtype=np.float64)
    if np.any(taus <= 0):
        raise ParameterError("taus must be positive for the power-law model")
    return const * taus**-beta


def delta_tau(taus, beta: float, *, model: str = "fgn") -> np.ndarray:
    """Eq. (16): delta_tau = R(tau+1) + R(tau-1) - 2 R(tau).

    Theorem 2 (Cochran) requires delta_tau >= 0 for the variance ordering
    E(V_sys) <= E(V_strat) <= E(V_ran); Fig. 4 shows it holds for every
    beta in (0, 1).

    The pure power law ``tau^-beta`` leaves R(0) undefined, so the default
    evaluates delta_tau on the exact fGn autocorrelation with
    ``H = 1 - beta/2`` — a positive-definite ACF with the same
    ``const * tau^-beta`` tail (and the model whose tau = 1 values match
    the paper's Fig. 4).  ``model='power'`` uses the raw power law with
    R(0) = 1 for comparison; it goes negative at tau = 1, which is exactly
    why the fGn form is the default.
    """
    _check_beta(beta)
    taus = np.asarray(taus, dtype=np.int64)
    if np.any(taus < 1):
        raise ParameterError("delta_tau is defined for taus >= 1")

    if model == "fgn":
        two_h = 2.0 - beta  # H = 1 - beta/2

        def acf(t: np.ndarray) -> np.ndarray:
            t = np.asarray(t, dtype=np.float64)
            return 0.5 * (
                np.abs(t + 1) ** two_h
                - 2.0 * np.abs(t) ** two_h
                + np.abs(t - 1) ** two_h
            )

    elif model == "power":

        def acf(t: np.ndarray) -> np.ndarray:
            t = np.asarray(t, dtype=np.float64)
            out = np.ones(t.shape)
            positive = t > 0
            out[positive] = t[positive] ** -beta
            return out

    else:
        raise ParameterError(f"model must be 'fgn' or 'power', got {model!r}")

    return acf(taus + 1) + acf(taus - 1) - 2.0 * acf(taus)


def systematic_sampled_acf(
    taus, beta: float, interval: int, *, const: float = 1.0
) -> np.ndarray:
    """ACF of the systematically sampled process g(t) = f(C t).

    Exactly ``R_g(tau) = R_f(C tau) = const * C^-beta * tau^-beta`` — the
    same power-law exponent beta, hence the same Hurst parameter (the
    statement of the paper's Eq. (6), with the constant written out
    rigorously).
    """
    require_int_at_least("interval", interval, 1)
    taus = np.asarray(taus, dtype=np.float64)
    return power_law_autocorrelation(interval * taus, beta, const=const)


def stratified_sampled_acf(
    taus,
    beta: float,
    interval: int,
    *,
    const: float = 1.0,
    grid: int = 401,
) -> np.ndarray:
    """ACF of the stratified-random sampled process (paper Eq. 8).

    ``R_g(tau) = E[ R_f(tau + tau') ]`` where ``tau' = (tau1 - tau2)/C``
    and tau1, tau2 are iid Uniform[0, C]; tau' therefore has the
    triangular density on [-1, 1] (paper Eq. 7).  The expectation is
    evaluated by deterministic quadrature on a fixed grid.
    """
    _check_beta(beta)
    require_int_at_least("interval", interval, 1)
    require_int_at_least("grid", grid, 11)
    taus = np.asarray(taus, dtype=np.float64)
    if np.any(taus <= 1):
        raise ParameterError("stratified ACF model needs taus > 1")

    t_prime = np.linspace(-1.0, 1.0, grid)
    density = 1.0 - np.abs(t_prime)
    density /= np.trapezoid(density, t_prime)
    shifted = taus[:, None] + t_prime[None, :]
    values = const * shifted**-beta
    return np.trapezoid(values * density[None, :], t_prime, axis=1)


#: The most terms the sum of :func:`simple_random_sampled_acf` takes at
#: one lag.
MAX_TERMS = 2_000_000


def simple_random_sampled_acf(
    taus,
    beta: float,
    rho: float,
    *,
    const: float = 1.0,
) -> np.ndarray:
    """ACF of the simple-random sampled process — the paper's Eq. (11).

    The lag-tau sampled correlation averages the original ACF over the
    negative-binomially distributed original lag ``a``::

        R_g(tau) = sum_{a >= tau} R_f(a) * C(a-1, a-tau) rho^tau (1-rho)^(a-tau)

    The summand is evaluated in log space via ``gammaln`` (the paper used
    Stirling's approximation to the same end).  The sum runs over the
    failures ``i = a - tau`` up to their mean plus 12 standard deviations
    plus 16, and at most :data:`MAX_TERMS` terms; the mass it leaves out is
    negligible.  So over Fig. 2's lags the fitted exponent stays within
    0.002 of beta: the paper's -0.08 for beta = 0.1 is not reproduced.

    Parameters
    ----------
    rho:
        Per-element selection probability (sampling rate N/M).
    """
    _check_beta(beta)
    require_probability("rho", rho)
    require_positive("const", const)
    taus = np.asarray(taus, dtype=np.int64)
    if np.any(taus < 1):
        raise ParameterError("taus must be >= 1")
    if rho == 1.0:
        return power_law_autocorrelation(taus.astype(np.float64), beta, const=const)

    log_rho = np.log(rho)
    log_q = np.log1p(-rho)
    terms = []
    for tau in taus:
        # Negative binomial: number of failures i = a - tau, mean tau(1-rho)/rho.
        mean_i = tau * (1.0 - rho) / rho
        std_i = np.sqrt(tau * (1.0 - rho)) / rho
        terms.append(min(int(mean_i + 12.0 * std_i) + 16, MAX_TERMS))
    # The sums need log Gamma only at integers k, so one table serves every
    # lag: lgam[k - 1] = log Gamma(k).
    top = max((int(tau) + n for tau, n in zip(taus, terms)), default=1)
    lgam = gammaln(np.arange(1.0, top))
    out = np.empty(taus.shape, dtype=np.float64)
    for idx, (tau, n_terms) in enumerate(zip(taus, terms)):
        i = np.arange(n_terms, dtype=np.float64)
        a = tau + i
        log_pmf = (
            lgam[tau - 1:tau - 1 + n_terms] - lgam[:n_terms] - lgam[tau - 1]
            + tau * log_rho + i * log_q
        )
        pmf = np.exp(log_pmf)
        out[idx] = const * np.dot(a**-beta, pmf)
    return out


def persistence_probability_pareto(taus, alpha: float) -> np.ndarray:
    """Eq. (20): ℘(tau) = (tau / (tau+1))^alpha for Pareto 1-bursts.

    Converges to 1 as tau grows — the heavy-tail property BSS exploits.
    """
    require_positive("alpha", alpha)
    taus = np.asarray(taus, dtype=np.float64)
    if np.any(taus < 1):
        raise ParameterError("taus must be >= 1")
    return (taus / (taus + 1.0)) ** alpha


def persistence_probability_exponential(rate: float) -> float:
    """Eq. (19): constant persistence e^-rate for exponential 1-bursts.

    Independent of tau — knowing the burst has lasted tells nothing, which
    is why BSS's extra samples would not pay off for light-tailed traffic.
    """
    require_positive("rate", rate)
    return float(np.exp(-rate))
