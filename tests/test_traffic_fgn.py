"""Tests for repro.traffic.fgn — both generators against exact theory."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.errors import GenerationError, ParameterError
from repro.traffic.belllabs import BellLabsLikeTrace
from repro.traffic.copula import ParetoLRDModel
from repro.traffic.fgn import fbm, fgn_autocovariance, fgn_davies_harte, fgn_hosking
from repro.traffic.mginf import MGInfinityModel
from repro.traffic.onoff import OnOffModel
from repro.traffic.synthetic import (
    fgn_trace,
    onoff_trace,
    synthetic_packet_trace,
    synthetic_trace,
)


def empirical_acf(x: np.ndarray, lag: int) -> float:
    x = x - x.mean()
    return float(np.dot(x[:-lag], x[lag:]) / np.dot(x, x))


class TestAutocovariance:
    def test_lag_zero_is_variance(self):
        gamma = fgn_autocovariance(0.7, 5, sigma=2.0)
        assert gamma[0] == pytest.approx(4.0)

    def test_white_noise_case(self):
        """H = 0.5 must give exactly zero covariance at positive lags."""
        gamma = fgn_autocovariance(0.5, 10)
        np.testing.assert_allclose(gamma[1:], 0.0, atol=1e-12)

    def test_positive_correlation_for_lrd(self):
        gamma = fgn_autocovariance(0.8, 50)
        assert np.all(gamma[1:] > 0)

    def test_negative_correlation_for_antipersistent(self):
        gamma = fgn_autocovariance(0.3, 10)
        assert np.all(gamma[1:] < 0)

    def test_hyperbolic_tail_exponent(self):
        """gamma(k) ~ H(2H-1) k^(2H-2): check the log-log slope at large k."""
        h = 0.8
        gamma = fgn_autocovariance(h, 4096)
        k = np.arange(1000, 4096)
        slope = np.polyfit(np.log(k), np.log(gamma[k]), 1)[0]
        assert slope == pytest.approx(2 * h - 2, abs=0.01)

    def test_invalid_hurst(self):
        with pytest.raises(ParameterError):
            fgn_autocovariance(1.0, 4)
        with pytest.raises(ParameterError):
            fgn_autocovariance(0.0, 4)


class TestDaviesHarte:
    def test_length(self, rng):
        assert fgn_davies_harte(1000, 0.7, rng).size == 1000

    def test_single_point(self, rng):
        assert fgn_davies_harte(1, 0.7, rng).size == 1

    def test_deterministic_given_seed(self):
        a = fgn_davies_harte(256, 0.8, 42)
        b = fgn_davies_harte(256, 0.8, 42)
        np.testing.assert_array_equal(a, b)

    def test_unit_variance(self, rng):
        x = fgn_davies_harte(1 << 16, 0.8, rng)
        assert x.var() == pytest.approx(1.0, abs=0.08)

    def test_sigma_scaling(self, rng):
        x = fgn_davies_harte(1 << 15, 0.7, rng, sigma=3.0)
        assert x.std() == pytest.approx(3.0, rel=0.08)

    def test_zero_mean(self, rng):
        # The sample-mean std of LRD fGn decays only as n^(H-1) ≈ 0.11 at
        # this length; bound at ~3 sigma.
        x = fgn_davies_harte(1 << 16, 0.8, rng)
        assert abs(x.mean()) < 0.33

    @pytest.mark.parametrize("h", [0.55, 0.7, 0.9])
    def test_lag_one_correlation_matches_theory(self, h, rng):
        # Empirical ACF of an LRD series is biased low by the sample-mean
        # estimate; the bias grows with H, hence the asymmetric tolerance.
        x = fgn_davies_harte(1 << 16, h, rng)
        gamma = fgn_autocovariance(h, 2)
        assert empirical_acf(x, 1) == pytest.approx(gamma[1] / gamma[0], abs=0.06)

    def test_white_noise_uncorrelated(self, rng):
        x = fgn_davies_harte(1 << 15, 0.5, rng)
        assert abs(empirical_acf(x, 1)) < 0.03

    def test_aggregated_variance_slope(self, rng):
        """var(f^(m)) ~ m^(2H-2): the defining self-similarity scaling."""
        h = 0.8
        x = fgn_davies_harte(1 << 17, h, rng)
        ms = [1, 2, 4, 8, 16, 32, 64]
        variances = [
            x[: x.size // m * m].reshape(-1, m).mean(axis=1).var() for m in ms
        ]
        slope = np.polyfit(np.log(ms), np.log(variances), 1)[0]
        assert slope == pytest.approx(2 * h - 2, abs=0.1)

    def test_antipersistent_hurst_supported(self, rng):
        x = fgn_davies_harte(4096, 0.3, rng)
        assert empirical_acf(x, 1) < 0.0

    @pytest.mark.parametrize("n", [1000, 4098])
    @pytest.mark.parametrize("h", [0.55, 0.75, 0.95])
    def test_autocovariance_matches_theory(self, h, n):
        """Over 300 replicates, the known-mean sample autocovariance at
        lags 0-5 is within 5 standard errors of ``fgn_autocovariance``.

        Measured: at most 3.4 standard errors (0.001-0.051 absolute).  The
        order-(2n - 2) row zero-padded to the power-of-two order is 6.6-150
        standard errors off (0.035-0.40).  ``n = 4098`` embeds in 16384 >
        2(n - 1) points, so the row reaches lags beyond n - 1.
        """
        replicates, lags = 300, np.arange(6)
        estimates = np.array([
            [np.dot(x[: n - k], x[k:]) / (n - k) for k in lags]
            for x in (fgn_davies_harte(n, h, seed) for seed in range(replicates))
        ])
        error = np.abs(estimates.mean(axis=0) - fgn_autocovariance(h, lags.size))
        standard_error = estimates.std(axis=0, ddof=1) / np.sqrt(replicates)
        assert np.all(error <= 5 * standard_error), error / standard_error

    def test_eigenvalue_guard(self):
        """Round-off pushes the embedding's smallest eigenvalue below the
        guard's tolerance only at extreme H and length."""
        assert fgn_davies_harte(1 << 19, 0.95, 0).size == 1 << 19
        with pytest.raises(GenerationError, match="positive semi-definite"):
            fgn_davies_harte(1 << 19, 0.99, 0)

    def test_one_work_array_and_the_result(self):
        """A call's traced peak is its 2.5 m-value work array plus the
        n-point result, which owns its data (m = 2**17 at n = 2**16)."""
        n, m = 1 << 16, 1 << 17
        fgn_davies_harte(n, 0.8, 1)  # warm-up
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            out = fgn_davies_harte(n, 0.8, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 3 * 8 * m + 64 * 1024
        assert out.shape == (n,) and out.dtype == np.float64
        assert out.base is None


class TestHosking:
    def test_length_and_determinism(self):
        a = fgn_hosking(128, 0.8, 7)
        b = fgn_hosking(128, 0.8, 7)
        assert a.size == 128
        np.testing.assert_array_equal(a, b)

    def test_single_point(self, rng):
        assert fgn_hosking(1, 0.6, rng).size == 1

    def test_variance(self, rng):
        x = fgn_hosking(4096, 0.75, rng)
        assert x.var() == pytest.approx(1.0, abs=0.15)

    def test_lag_one_matches_theory(self, rng):
        h = 0.8
        x = fgn_hosking(8192, h, rng)
        gamma = fgn_autocovariance(h, 2)
        assert empirical_acf(x, 1) == pytest.approx(gamma[1] / gamma[0], abs=0.05)

    def test_agrees_with_davies_harte_distribution(self, rng_factory):
        """The two exact generators must agree in distribution.

        Each sample is standardized first because the sample mean of an LRD
        path fluctuates as n^(H-1); after standardization the quantile
        *shapes* must line up within sampling noise.
        """
        h = 0.7
        a = fgn_hosking(4096, h, rng_factory(1))
        b = fgn_davies_harte(4096, h, rng_factory(2))
        a = (a - a.mean()) / a.std()
        b = (b - b.mean()) / b.std()
        quantiles = [0.1, 0.25, 0.5, 0.75, 0.9]
        np.testing.assert_allclose(
            np.quantile(a, quantiles), np.quantile(b, quantiles), atol=0.12
        )


class TestFbm:
    def test_fbm_is_cumsum_of_fgn(self):
        path = fbm(512, 0.7, 3)
        increments = np.diff(np.concatenate([[0.0], path]))
        np.testing.assert_allclose(
            increments, fgn_davies_harte(512, 0.7, 3), atol=1e-12
        )

    def test_self_similar_scaling(self, rng):
        """Var(B_H(t)) = t^(2H): variance ratio over a 4x horizon is 4^(2H)."""
        h = 0.8
        n = 1 << 14
        paths = np.array([fbm(n, h, child) for child in rng.spawn(64)])
        v1 = paths[:, n // 4 - 1].var()
        v2 = paths[:, n - 1].var()
        estimated_2h = np.log(v2 / v1) / np.log(4.0)
        assert estimated_2h == pytest.approx(2 * h, abs=0.4)


class TestValidation:
    @pytest.mark.parametrize("generator", [fgn_davies_harte, fgn_hosking, fbm])
    @pytest.mark.parametrize(
        "hurst, sigma",
        [(1.5, 1.0), (float("nan"), 1.0), (0.0, 1.0), (0.7, 0.0), (0.7, -1.0),
         (0.7, float("inf"))],
    )
    def test_single_point_still_validates(self, generator, hurst, sigma):
        """n = 1 skips the embedding, not the parameter checks."""
        with pytest.raises(ParameterError):
            generator(1, hurst, 0, sigma=sigma)

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: fgn_davies_harte(n, 0.8, 5),
            lambda n: fgn_hosking(n, 0.8, 5),
            lambda n: fbm(n, 0.8, 5),
            lambda n: fgn_autocovariance(0.8, n),
            lambda n: fgn_trace(n, 5).values,
            lambda n: synthetic_trace(n, 5).values,
            lambda n: onoff_trace(n, 5).values,
            lambda n: synthetic_packet_trace(n, 5).sizes,
            lambda n: ParetoLRDModel.from_mean(5.0, 1.5, 0.8).generate(n, 5),
            lambda n: MGInfinityModel.for_hurst(0.8).generate(n, 5),
            lambda n: OnOffModel.for_hurst(0.8).generate(n, 5),
            lambda n: BellLabsLikeTrace().byte_process(n, 5).values,
        ],
        ids=["davies_harte", "hosking", "fbm", "autocovariance", "fgn_trace",
             "synthetic_trace", "onoff_trace", "packet_trace", "pareto_lrd",
             "mginf", "onoff", "bell_labs"],
    )
    def test_integral_float_size_is_the_int(self, make):
        """Sizes pass ``require_int_at_least``, which takes ``64.0`` as
        ``64``; the generator must then use that int."""
        np.testing.assert_array_equal(make(64.0), make(64))
