"""Tests for the renewal framework and the Theorem 1 (SNC) checker."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.renewal import IntervalDistribution
from repro.core.snc import sampled_acf_via_renewal, snc_check, snc_sweep
from repro.errors import ParameterError


class TestIntervalDistribution:
    def test_deterministic(self):
        dist = IntervalDistribution.deterministic(10)
        assert dist.mean == pytest.approx(10.0)
        assert dist.variance == pytest.approx(0.0)
        assert dist.implied_rate == pytest.approx(0.1)
        assert dist.pmf[10] == pytest.approx(1.0)

    def test_stratified_mean_is_interval(self):
        """E[C + U2 - U1] = C."""
        dist = IntervalDistribution.stratified(10)
        assert dist.mean == pytest.approx(10.0)
        assert dist.name == "stratified"

    def test_stratified_triangular_peak(self):
        dist = IntervalDistribution.stratified(5)
        assert np.argmax(dist.pmf) == 5
        # Symmetric around C.
        np.testing.assert_allclose(dist.pmf[5 - 3], dist.pmf[5 + 3])

    def test_stratified_support(self):
        """Gaps range over {1, ..., 2C-1}: consecutive picks cannot collide."""
        dist = IntervalDistribution.stratified(4)
        assert dist.pmf[0] == 0.0
        assert dist.pmf.size == 8  # support up to 2C-1

    def test_geometric_mean(self):
        """E[T] = 1/r for the geometric gap law (Eq. 13)."""
        dist = IntervalDistribution.geometric(0.1)
        assert dist.mean == pytest.approx(10.0, rel=1e-3)

    def test_geometric_pmf_form(self):
        dist = IntervalDistribution.geometric(0.25)
        assert dist.pmf[1] == pytest.approx(0.25, rel=1e-6)
        assert dist.pmf[2] == pytest.approx(0.25 * 0.75, rel=1e-6)

    def test_geometric_rate_one(self):
        dist = IntervalDistribution.geometric(1.0)
        assert dist.pmf[1] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            IntervalDistribution(pmf=np.array([0.5, 0.5]))  # gap 0 mass
        with pytest.raises(ParameterError):
            IntervalDistribution(pmf=np.array([0.0, -0.1, 1.1]))
        with pytest.raises(ParameterError):
            IntervalDistribution(pmf=np.array([0.0, 0.5]))  # sums to 0.5


class TestConvolutionPower:
    def test_deterministic_convolution_is_shifted_delta(self):
        dist = IntervalDistribution.deterministic(5)
        k = dist.convolution_power(3)
        assert np.argmax(k) == 15
        assert k[15] == pytest.approx(1.0, abs=1e-9)

    def test_mass_conserved(self):
        dist = IntervalDistribution.stratified(6)
        k = dist.convolution_power(4)
        assert k.sum() == pytest.approx(1.0, abs=1e-9)

    def test_mean_adds(self):
        """E[sum of tau gaps] = tau * E[T]."""
        dist = IntervalDistribution.geometric(0.2)
        tau = 7
        k = dist.convolution_power(tau)
        mean = np.dot(np.arange(k.size), k)
        assert mean == pytest.approx(tau * dist.mean, rel=1e-6)

    def test_matches_monte_carlo(self, rng):
        dist = IntervalDistribution.stratified(4)
        tau = 5
        k = dist.convolution_power(tau)
        sums = dist.sample_gaps((2000, tau), rng).sum(axis=1)
        for u in (15, 20, 25):
            assert k[u] == pytest.approx((sums == u).mean(), abs=0.05)

    def test_undersized_fft_rejected(self):
        dist = IntervalDistribution.stratified(8)
        with pytest.raises(ParameterError, match="alias"):
            dist.convolution_power(10, size=32)

    def test_tau_one_is_pmf(self):
        dist = IntervalDistribution.geometric(0.3)
        np.testing.assert_allclose(
            dist.convolution_power(1)[: dist.pmf.size], dist.pmf, atol=1e-10
        )


class TestSncCheck:
    @pytest.mark.parametrize("beta", [0.1, 0.4, 0.8])
    def test_systematic_preserves_beta(self, beta):
        result = snc_check(IntervalDistribution.deterministic(10), beta)
        assert result.preserved()
        assert result.beta_hat == pytest.approx(beta, abs=0.02)

    @pytest.mark.parametrize("beta", [0.1, 0.4, 0.8])
    def test_fig3a_stratified_preserves_beta(self, beta):
        result = snc_check(IntervalDistribution.stratified(10), beta)
        assert result.preserved()

    @pytest.mark.parametrize("beta", [0.1, 0.4, 0.8])
    def test_fig3b_simple_random_preserves_beta(self, beta):
        result = snc_check(IntervalDistribution.geometric(0.1), beta)
        assert result.preserved()

    def test_result_carries_hurst(self):
        result = snc_check(IntervalDistribution.deterministic(5), 0.4)
        assert result.hurst == pytest.approx(0.8)
        assert result.hurst_hat == pytest.approx(0.8, abs=0.02)

    def test_heavy_tailed_gaps_break_snc(self):
        """A sanity counterpoint: gap laws with slowly decaying tails skew
        the fitted exponent away from beta — the SNC is not vacuous."""
        support = np.arange(513, dtype=np.float64)
        pmf = np.zeros(513)
        pmf[1:] = support[1:] ** -1.5  # very heavy gap tail
        pmf /= pmf.sum()
        heavy = IntervalDistribution(pmf=pmf, name="heavy")
        result = snc_check(heavy, 0.8, taus=np.arange(4, 40))
        assert abs(result.beta_hat - 0.8) > 0.05

    def test_sweep(self):
        results = snc_sweep(
            IntervalDistribution.stratified(10), [0.2, 0.5, 0.8]
        )
        assert [round(r.beta, 1) for r in results] == [0.2, 0.5, 0.8]
        assert all(r.preserved() for r in results)


class TestSampledAcfViaRenewal:
    def test_systematic_closed_form(self):
        """For deterministic gaps, sum_u R_f(u) k(u, tau) = (C tau)^-beta."""
        dist = IntervalDistribution.deterministic(8)
        taus = np.array([10, 20])
        acf = sampled_acf_via_renewal(dist, 0.5, taus)
        np.testing.assert_allclose(acf, (8.0 * taus) ** -0.5, rtol=1e-6)

    def test_invalid_tau(self):
        with pytest.raises(ParameterError):
            sampled_acf_via_renewal(
                IntervalDistribution.deterministic(4), 0.5, [0]
            )

    @pytest.mark.parametrize(
        "taus", [[], [3.5], [64, 128.25], [2.0, np.nan], [[4, 8]]]
    )
    def test_empty_or_non_integral_taus_rejected(self, taus):
        """An empty grid used to raise a bare ValueError, 3.5 ran as 3."""
        dist = IntervalDistribution.deterministic(4)
        with pytest.raises(ParameterError, match="taus"):
            sampled_acf_via_renewal(dist, 0.5, taus)
        with pytest.raises(ParameterError, match="taus"):
            snc_check(dist, 0.5, taus=taus)
        with pytest.raises(ParameterError, match="taus"):
            snc_sweep(dist, [0.3, 0.5], taus=taus)

    def test_integral_float_taus_accepted(self):
        dist = IntervalDistribution.deterministic(4)
        np.testing.assert_array_equal(
            sampled_acf_via_renewal(dist, 0.5, [3.0, 10.0]),
            sampled_acf_via_renewal(dist, 0.5, [3, 10]),
        )
