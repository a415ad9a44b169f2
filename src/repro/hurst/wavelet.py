"""Wavelet (Abry-Veitch) Hurst estimator with a from-scratch DWT.

This is the estimator the paper uses for its Hurst measurements ("a wavelet
based tool provided by Abry et al." — Roughan, Veitch & Abry 2000).  The
pipeline:

1. a pyramidal discrete wavelet transform (Daubechies db1-db4, periodic
   boundary handling) decomposes the series into detail coefficients
   ``d_{j,k}`` per octave j;
2. the *logscale diagram* plots ``log2 mu_j`` against j, where
   ``mu_j = mean(d_{j,k}^2)``;
3. for a stationary LRD process, ``mu_j ~ 2^{j (2H-1)}``, so a weighted
   straight-line fit over octaves [j1, j2] estimates ``2H - 1``.

The DWT here is self-contained (no pywavelets): filters are hard-coded
Daubechies coefficients, and each pyramid stage is a circular convolution
followed by dyadic downsampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.fitting import LinearFit, fit_line
from repro.errors import EstimationError, ParameterError
from repro.hurst.base import HurstEstimate
from repro.utils.arrays import as_float_array
from repro.utils.special import digamma
from repro.utils.validation import require_int_at_least

#: Daubechies scaling (low-pass) filters.  Values are the standard
#: orthonormal coefficients; db1 is the Haar filter.
DAUBECHIES_FILTERS: dict[str, tuple[float, ...]] = {
    "db1": (
        0.7071067811865476,
        0.7071067811865476,
    ),
    "db2": (
        0.48296291314469025,
        0.8365163037378079,
        0.22414386804185735,
        -0.12940952255092145,
    ),
    "db3": (
        0.3326705529509569,
        0.8068915093133388,
        0.4598775021193313,
        -0.13501102001039084,
        -0.08544127388224149,
        0.03522629188210562,
    ),
    "db4": (
        0.23037781330885523,
        0.7148465705525415,
        0.6308807679295904,
        -0.02798376941698385,
        -0.18703481171888114,
        0.030841381835986965,
        0.032883011666982945,
        -0.010597401784997278,
    ),
}


def wavelet_filters(name: str) -> tuple[np.ndarray, np.ndarray]:
    """Return the (scaling, wavelet) filter pair for a Daubechies name.

    The wavelet (high-pass) filter is the quadrature mirror of the scaling
    filter: ``g[k] = (-1)^k h[L-1-k]``.
    """
    if name not in DAUBECHIES_FILTERS:
        raise ParameterError(
            f"unknown wavelet {name!r}; choose from {sorted(DAUBECHIES_FILTERS)}"
        )
    h = np.asarray(DAUBECHIES_FILTERS[name], dtype=np.float64)
    signs = (-1.0) ** np.arange(h.size)
    g = signs * h[::-1]
    return h, g


def _circular_filter_downsample(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Circularly convolve then keep every second sample.

    Output[k] = sum_m taps[m] * x[(2k + m) mod n] — the standard periodic
    DWT analysis step.
    """
    n = x.size
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(taps.size)[None, :]) % n
    return x[idx] @ taps


def boundary_contamination(n_levels: int, filter_length: int, sizes) -> list[int]:
    """Trailing coefficients per level affected by the periodic wrap.

    The wrap joins the end of the series to its start; any coefficient
    whose filter window crosses it mixes the two ends, which breaks the
    vanishing-moment cancellation of non-periodic trends.  Contamination
    propagates down the approximation cascade with the recurrence
    ``w_{j+1} = ceil((w_j + L - 1) / 2)``, starting from ``w_0 = 0``.

    Returns the contaminated trailing-count for each of ``n_levels``
    levels, clamped to the level size.
    """
    counts: list[int] = []
    w = 0
    for size in sizes[:n_levels]:
        w = int(np.ceil((w + filter_length - 1) / 2))
        counts.append(min(w, int(size)))
    return counts


def dwt(values, wavelet: str = "db3", *, max_level: int | None = None):
    """Pyramidal periodic DWT.

    Returns ``(details, approximation)`` where ``details[j]`` holds the
    level-(j+1) detail coefficients (finest first) and ``approximation``
    is the final low-pass residue.
    """
    x = as_float_array(values, name="values", min_length=2)
    h, g = wavelet_filters(wavelet)
    n_levels = int(np.floor(np.log2(x.size / max(h.size, 2)))) + 1
    if max_level is not None:
        n_levels = min(n_levels, require_int_at_least("max_level", max_level, 1))
    if n_levels < 1:
        raise EstimationError(
            f"series of length {x.size} too short for one {wavelet} level"
        )
    details: list[np.ndarray] = []
    approx = x
    for _ in range(n_levels):
        if approx.size < max(h.size, 2) or approx.size < 2:
            break
        details.append(_circular_filter_downsample(approx, g))
        approx = _circular_filter_downsample(approx, h)
    if not details:
        raise EstimationError("no detail levels produced; series too short")
    return details, approx


def idwt_haar(details, approximation) -> np.ndarray:
    """Inverse DWT for the Haar (db1) case — used to test perfect
    reconstruction of the pyramid machinery."""
    approx = np.asarray(approximation, dtype=np.float64)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for detail in reversed(list(details)):
        detail = np.asarray(detail, dtype=np.float64)
        if detail.size != approx.size:
            raise ParameterError("mismatched detail/approximation lengths")
        upsampled = np.empty(2 * approx.size)
        upsampled[0::2] = (approx + detail) * inv_sqrt2
        upsampled[1::2] = (approx - detail) * inv_sqrt2
        approx = upsampled
    return approx


@dataclass(frozen=True)
class LogscaleDiagram:
    """The Abry-Veitch logscale diagram of one series.

    Attributes
    ----------
    octaves:
        Octave indices j (1 = finest).
    log2_energies:
        ``log2 mu_j`` with the standard small-sample bias correction
        ``g(n_j) = psi(n_j/2)/ln 2 - log2(n_j/2)`` applied.
    n_coefficients:
        Number of detail coefficients per octave.
    """

    octaves: np.ndarray
    log2_energies: np.ndarray
    n_coefficients: np.ndarray

    def fit(self, j1: int = 2, j2: int | None = None) -> LinearFit:
        """Weighted straight-line fit over octaves [j1, j2].

        Weights are the inverse asymptotic variances of ``log2 mu_j``,
        ``Var ~ 2 / (n_j ln^2 2)`` — i.e. proportional to n_j.
        """
        mask = self.octaves >= j1
        if j2 is not None:
            mask &= self.octaves <= j2
        if mask.sum() < 3:
            raise EstimationError(
                f"octave range [{j1}, {j2}] keeps {int(mask.sum())} points; need >= 3"
            )
        return fit_line(
            self.octaves[mask].astype(np.float64),
            self.log2_energies[mask],
            weights=self.n_coefficients[mask].astype(np.float64),
        )


def logscale_diagram(
    values, wavelet: str = "db3", *, trim_boundary: bool = True
) -> LogscaleDiagram:
    """Compute the logscale diagram (octave energies) of a series.

    Parameters
    ----------
    trim_boundary:
        Drop the periodic-wrap-contaminated trailing coefficients at each
        octave (default).  This restores the vanishing-moment immunity to
        non-periodic trends that a circular transform otherwise loses.
    """
    details, _ = dwt(values, wavelet)
    h, _g = wavelet_filters(wavelet)
    trims = (
        boundary_contamination(len(details), h.size, [d.size for d in details])
        if trim_boundary
        else [0] * len(details)
    )
    octaves, log2_mu, counts = [], [], []
    for j, coeffs in enumerate(details, start=1):
        trim = trims[j - 1]
        if trim and coeffs.size - trim >= 4:
            coeffs = coeffs[: coeffs.size - trim]
        nj = coeffs.size
        if nj < 4:
            break
        mu = float(np.mean(coeffs**2))
        if mu <= 0:
            continue
        # Bias correction for E[log2(chi^2 mean)] (Veitch & Abry 1999).
        correction = digamma(nj / 2.0) / np.log(2.0) - np.log2(nj / 2.0)
        octaves.append(j)
        log2_mu.append(np.log2(mu) - correction)
        counts.append(nj)
    if len(octaves) < 3:
        raise EstimationError("fewer than 3 usable octaves; series too short")
    return LogscaleDiagram(
        octaves=np.asarray(octaves, dtype=np.int64),
        log2_energies=np.asarray(log2_mu),
        n_coefficients=np.asarray(counts, dtype=np.int64),
    )


def wavelet_hurst(
    values,
    *,
    wavelet: str = "db3",
    j1: int = 2,
    j2: int | None = None,
) -> HurstEstimate:
    """Abry-Veitch wavelet estimate of H for a stationary (fGn-like) series.

    The logscale slope gamma estimates ``2H - 1``; hence
    ``H = (gamma + 1) / 2``.

    Parameters
    ----------
    wavelet:
        Daubechies filter (db1-db4).  More vanishing moments (db3+) make
        the estimate robust to smooth trends.
    j1, j2:
        Octave range of the regression; j1 = 2 skips the finest octave,
        which carries most of any measurement/discretisation noise.
    """
    diagram = logscale_diagram(values, wavelet)
    fit = diagram.fit(j1, j2)
    hurst = (fit.slope + 1.0) / 2.0
    return HurstEstimate(
        hurst=float(np.clip(hurst, 0.01, 0.999)),
        method="wavelet",
        fit=fit,
        details={
            "wavelet": wavelet,
            "octaves": diagram.octaves,
            "log2_energies": diagram.log2_energies,
            "j1": j1,
            "j2": j2,
        },
    )
