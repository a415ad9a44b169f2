"""Fractional Gaussian noise (fGn) and fractional Brownian motion (fBm).

fGn is the canonical exactly-self-similar Gaussian process: its
autocovariance

    gamma(k) = sigma^2 / 2 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})

decays as ``H (2H - 1) k^{2H-2}``, i.e. hyperbolically with
``beta = 2 - 2H``, exactly the paper's Eq. (2).  Two independent generators
are provided:

* :func:`fgn_davies_harte` — exact circulant-embedding synthesis on
  ``numpy.fft``, O(n log n), in place in one work array per call.  This
  is the workhorse for the million-point traces the experiments need.
* :func:`fgn_hosking` — exact Durbin–Levinson recursion, O(n^2).  Slow, but
  algorithmically unrelated to the FFT method, so the two cross-validate
  each other in the test suite.
"""

from __future__ import annotations

import numpy as np
# Not np.fft on first call: NumPy loads numpy.fft lazily, and a worker pool
# forked after this module loads should inherit it.
from numpy.fft import irfft, rfft

from repro.errors import GenerationError
from repro.utils.rng import normalize_rng
from repro.utils.validation import (
    require_in_range,
    require_int_at_least,
    require_positive,
)


def _autocovariance_into(out: np.ndarray, hurst: float, sigma: float) -> np.ndarray:
    """Write gamma(k) for ``k = 0 .. out.size - 1`` into ``out`` as
    ``0.5 * sigma**2 * ((k+1)^2H - 2 k^2H + |k-1|^2H)``, in that order,
    from one table of the powers ``j^2H``, ``j = 0 .. out.size``."""
    n_lags = out.size
    powers = np.arange(n_lags + 1, dtype=np.float64)
    powers **= 2.0 * hurst
    np.multiply(powers[:n_lags], 2.0, out=out)
    np.subtract(powers[1:], out, out=out)
    out[1:] += powers[: n_lags - 1]
    out[0] += powers[1]  # |0 - 1|^2H
    out *= 0.5 * sigma**2
    return out


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
    require_in_range("hurst", hurst, 0.0, 1.0, inclusive=False)
    n_lags = require_int_at_least("n_lags", n_lags, 1)
    require_positive("sigma", sigma)
    return _autocovariance_into(np.empty(n_lags), hurst, sigma)


def fgn_davies_harte(
    n: int,
    hurst: float,
    rng=None,
    *,
    sigma: float = 1.0,
) -> np.ndarray:
    """Generate exact fGn via circulant embedding (Davies–Harte method).

    The autocovariance is embedded in a circulant matrix whose order is
    the smallest power of two ``m >= 2(n - 1)`` (``m = 2n`` when ``n`` is
    a power of two), with first row
    ``[gamma_0 .. gamma_{m/2}, gamma_{m/2-1} .. gamma_1]``.  Its
    eigenvalues (the FFT of that row) are non-negative for fGn, so a
    stationary Gaussian path of length ``m / 2 + 1`` follows exactly from
    complex Gaussian spectral weights, and its first ``n`` points are
    returned (Davies & Harte 1987; Wood & Chan 1994; Dietrich & Newsam
    1997).  The power-of-two order keeps both FFTs on pocketfft's radix
    passes whatever the factors of ``n - 1``.

    A call allocates one float64 work array of ``5 (m/2 + 1)`` values
    (about 20 MB at ``n = 2**19``) besides the ``n``-point result it
    returns and the autocovariance's table of ``m/2 + 2`` powers, and
    runs every other step in place in three slices of the work array:
    ``m + 2`` values that hold the embedded row, then the two halves of
    normals, then the path ``numpy.fft.irfft`` writes; ``m/2 + 1``
    complex values that hold the spectrum ``numpy.fft.rfft`` writes,
    then the weights; and the ``m/2 + 1`` spectral scales.

    Raises
    ------
    GenerationError
        If numerical round-off produces eigenvalues below a small negative
        tolerance (none for 0 < H < 1 in exact arithmetic; in floating
        point, ``H = 0.99`` at ``n = 2**19`` and ``H >= 0.96`` at
        ``n = 2**20``).
    """
    n = require_int_at_least("n", n, 1)
    require_in_range("hurst", hurst, 0.0, 1.0, inclusive=False)
    require_positive("sigma", sigma)
    gen = normalize_rng(rng)
    if n == 1:
        return gen.normal(0.0, sigma, size=1)

    m = 1 << (2 * n - 3).bit_length()  # smallest power of two >= 2(n - 1)
    half = m // 2 + 1
    work = np.empty(5 * half)
    row = work[: 2 * half]
    spectrum = work[2 * half : 4 * half].view(np.complex128)
    scale = work[4 * half :]

    _autocovariance_into(row[:half], hurst, sigma)
    row[half:m] = row[half - 2 : 0 : -1]
    rfft(row[:m], out=spectrum)
    eigenvalues = spectrum.real
    min_eig = eigenvalues.min()
    if min_eig < 0:
        if min_eig < -1e-8 * eigenvalues.max():
            raise GenerationError(
                f"circulant embedding not positive semi-definite "
                f"(min eigenvalue {min_eig:.3e}); hurst={hurst}"
            )
        np.clip(eigenvalues, 0.0, None, out=eigenvalues)
    np.divide(eigenvalues, m, out=scale)
    np.sqrt(scale, out=scale)

    # Complex spectral weights with the Hermitian symmetry irfft expects.
    # The draws are those of gen.normal(size=half) twice: normal() returns
    # 0.0 + 1.0 * z, which is z with -0.0 turned into +0.0.
    real, imag = row[:half], row[half:]
    gen.standard_normal(out=real)
    gen.standard_normal(out=imag)
    row += 0.0
    spectrum.real = real
    spectrum.imag = imag
    spectrum *= scale  # the complex product (real + 1j * imag) * scale
    # Endpoints (DC and Nyquist) must be purely real with doubled variance.
    spectrum[0] = real[0] * scale[0] * np.sqrt(2.0)
    spectrum[-1] = real[-1] * scale[-1] * np.sqrt(2.0)
    irfft(spectrum, n=m, out=row[:m])
    sample = np.multiply(row[:n], m)
    sample /= np.sqrt(2.0)
    return sample


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
    n = require_int_at_least("n", n, 1)
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
