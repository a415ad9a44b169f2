"""Fractional Gaussian noise (fGn) and fractional Brownian motion (fBm).

fGn is the canonical exactly-self-similar Gaussian process: its
autocovariance

    gamma(k) = sigma^2 / 2 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})

decays as ``H (2H - 1) k^{2H-2}``, i.e. hyperbolically with
``beta = 2 - 2H``, exactly the paper's Eq. (2).  Two independent generators
are provided:

* :func:`fgn_davies_harte` — exact circulant-embedding synthesis, O(n log n).
  This is the workhorse for the million-point traces the experiments need.
* :func:`fgn_hosking` — exact Durbin–Levinson recursion, O(n^2).  Slow, but
  algorithmically unrelated to the FFT method, so the two cross-validate
  each other in the test suite.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from repro.errors import GenerationError, ParameterError
from repro.utils.rng import normalize_rng
from repro.utils.validation import require_int_at_least, require_positive


def fgn_autocovariance(hurst: float, n_lags: int, *, sigma: float = 1.0) -> np.ndarray:
    """Autocovariance gamma(k) of fGn for lags ``0 .. n_lags - 1``.

    Parameters
    ----------
    hurst:
        Hurst parameter in (0, 1).  ``H = 0.5`` gives white noise.
    n_lags:
        Number of lags to return.
    sigma:
        Marginal standard deviation (gamma(0) = sigma**2).
    """
    if not 0.0 < hurst < 1.0:
        raise ParameterError(f"hurst must lie in (0, 1), got {hurst}")
    require_int_at_least("n_lags", n_lags, 1)
    require_positive("sigma", sigma)
    k = np.arange(n_lags, dtype=np.float64)
    two_h = 2.0 * hurst
    gamma = 0.5 * sigma**2 * (
        np.abs(k + 1) ** two_h - 2.0 * np.abs(k) ** two_h + np.abs(k - 1) ** two_h
    )
    return gamma


def _circulant_scale(n: int, hurst: float, sigma: float) -> np.ndarray:
    """``sqrt(eigenvalues / m)`` of the order-``m = 2n - 2`` circulant
    embedding of fGn's autocovariance.

    A function of its own so that the autocovariance, the embedded row and
    its complex spectrum are freed before the weights are drawn: at
    ``n = 2**19`` they hold 20 MB.
    """
    gamma = fgn_autocovariance(hurst, n, sigma=sigma)
    # Circulant first row [g0 .. g_{n-1}, g_{n-2} .. g1]: the mirror shares
    # its ends with the head, so the order is 2n - 2, not 2n.
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eigenvalues = scipy.fft.rfft(row).real
    min_eig = eigenvalues.min()
    if min_eig < 0:
        if min_eig < -1e-8 * eigenvalues.max():
            raise GenerationError(
                f"circulant embedding not positive semi-definite "
                f"(min eigenvalue {min_eig:.3e}); hurst={hurst}"
            )
        eigenvalues = np.clip(eigenvalues, 0.0, None)
    return np.sqrt(eigenvalues / row.size)


def fgn_davies_harte(
    n: int,
    hurst: float,
    rng=None,
    *,
    sigma: float = 1.0,
) -> np.ndarray:
    """Generate exact fGn via circulant embedding (Davies–Harte method).

    The autocovariance sequence of length ``n`` is embedded in a circulant
    matrix of order ``2n - 2`` with first row
    ``[gamma_0 .. gamma_{n-1}, gamma_{n-2} .. gamma_1]``; its eigenvalues
    (the FFT of that row) are provably non-negative for fGn, allowing exact
    synthesis from complex Gaussian spectral weights.

    Output bits are pinned to this embedding: the standard order-``2n``
    embedding would give other paths for the same seed.  Its FFT length
    ``2(n - 1)`` also sets the speed: when ``n - 1`` has a large prime
    factor (``n = 2**17`` and ``2**19``, where ``n - 1`` is prime) the FFT
    falls back to Bluestein's algorithm and costs several times more per
    point than at ``n = 2**18`` (``2**18 - 1 = 3**3 * 7 * 19 * 73``).
    ``scipy.fft`` keeps its plans between calls, so a repeated ``n`` does
    not pay for the Bluestein set-up again; the kept plan for
    ``n = 2**19`` holds about 65 MB.

    Raises
    ------
    GenerationError
        If numerical round-off produces eigenvalues below a small negative
        tolerance (should not happen for 0 < H < 1; guarded anyway).
    """
    require_int_at_least("n", n, 1)
    gen = normalize_rng(rng)
    if n == 1:
        return gen.normal(0.0, sigma, size=1)

    scale = _circulant_scale(n, hurst, sigma)
    m = 2 * n - 2
    # Complex spectral weights with the Hermitian symmetry rfft expects.
    half = scale.size  # n
    real = gen.normal(size=half)
    imag = gen.normal(size=half)
    weights = (real + 1j * imag) * scale
    # Endpoints (DC and Nyquist) must be purely real with doubled variance.
    weights[0] = real[0] * scale[0] * np.sqrt(2.0)
    weights[-1] = real[-1] * scale[-1] * np.sqrt(2.0)
    sample = scipy.fft.irfft(weights, n=m) * m / np.sqrt(2.0)
    return sample[:n]


def fgn_hosking(
    n: int,
    hurst: float,
    rng=None,
    *,
    sigma: float = 1.0,
) -> np.ndarray:
    """Generate exact fGn via the Hosking (Durbin–Levinson) recursion.

    O(n^2) time and O(n) memory.  Prefer :func:`fgn_davies_harte` beyond a
    few thousand points; this implementation exists as an independent
    cross-check and for short exact paths.
    """
    require_int_at_least("n", n, 1)
    gen = normalize_rng(rng)
    gamma = fgn_autocovariance(hurst, n, sigma=sigma)
    rho = gamma / gamma[0]

    out = np.empty(n)
    out[0] = gen.normal(0.0, sigma)
    if n == 1:
        return out

    phi_prev = np.zeros(n)
    phi_curr = np.zeros(n)
    variance = 1.0  # innovation variance, in units of gamma[0]

    phi_prev[0] = rho[1]
    variance *= 1.0 - rho[1] ** 2
    out[1] = phi_prev[0] * out[0] + np.sqrt(variance) * gen.normal(0.0, sigma)

    for t in range(2, n):
        order = t - 1  # previous model order
        # Levinson step: extend AR coefficients to order t.
        kappa = rho[t] - np.dot(phi_prev[:order], rho[order:0:-1])
        kappa /= variance
        phi_curr[:order] = phi_prev[:order] - kappa * phi_prev[order - 1 :: -1][:order]
        phi_curr[order] = kappa
        variance *= 1.0 - kappa**2
        if variance <= 0:
            raise GenerationError(
                f"Hosking innovation variance collapsed at step {t} (hurst={hurst})"
            )
        mean = np.dot(phi_curr[: t], out[t - 1 :: -1][: t])
        out[t] = mean + np.sqrt(variance) * gen.normal(0.0, sigma)
        phi_prev, phi_curr = phi_curr, phi_prev
    return out


def fbm(n: int, hurst: float, rng=None, *, sigma: float = 1.0) -> np.ndarray:
    """Fractional Brownian motion path of length ``n`` (B_H(0) = 0 excluded).

    Obtained by cumulatively summing exact fGn increments, so the increments
    of the returned path are exactly stationary.
    """
    increments = fgn_davies_harte(n, hurst, rng, sigma=sigma)
    return np.cumsum(increments)
