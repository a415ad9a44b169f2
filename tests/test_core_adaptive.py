"""Tests for the adaptive random sampling baseline (paper ref. [2])."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveRandomSampler
from repro.errors import ParameterError
from repro.traffic.synthetic import synthetic_trace


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace(1 << 15, 314, alpha=1.3, hurst=0.85)


class TestConfiguration:
    def test_from_rate(self):
        sampler = AdaptiveRandomSampler.from_rate(0.01)
        assert sampler.rate == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_rate": 0.0},
            {"base_rate": 0.1, "boost_factor": 0.5},
            {"base_rate": 0.1, "trigger": 0.0},
            {"base_rate": 0.1, "ewma_alpha": 0.0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            AdaptiveRandomSampler(**kwargs)

    def test_bool_base_rate_rejected(self):
        """``base_rate=True`` used to keep every point, as rate 1."""
        with pytest.raises(ParameterError, match="base_rate"):
            AdaptiveRandomSampler(base_rate=True)

    def test_bool_trigger_rejected(self):
        """``trigger=True`` used to construct and keep the bool."""
        with pytest.raises(ParameterError, match="trigger"):
            AdaptiveRandomSampler(base_rate=0.1, trigger=True)


class TestSampling:
    def test_rate_without_bursts_matches_base(self, rng):
        """On flat traffic the boost never engages."""
        flat = np.full(20_000, 5.0)
        sampler = AdaptiveRandomSampler(base_rate=0.05)
        result = sampler.sample(flat, rng)
        assert result.actual_rate == pytest.approx(0.05, rel=0.2)
        assert result.n_extra == 0

    def test_bursty_traffic_triggers_boost(self):
        """Bursts engage the boost, a property of the trace distribution.

        One trace is one draw: the boost engages on 39 of 40 traces of
        this recipe (seeds 314-353), so the claim is checked over eight.
        Tolerance: the boost engages (``n_extra > 0``) on at least 6 of
        the 8, and the mean realized rate exceeds the base rate.  Blocks
        of 8 measured 7-8 engagements and mean rates 0.028-0.031; a
        sampler that never boosts keeps 0 extras and ~0.02.
        """
        sampler = AdaptiveRandomSampler(
            base_rate=0.02, boost_factor=8.0, trigger=1.2
        )
        results = [
            sampler.sample(synthetic_trace(1 << 15, seed, alpha=1.3,
                                           hurst=0.85), 3)
            for seed in range(314, 322)
        ]
        engaged = sum(result.n_extra > 0 for result in results)
        assert engaged >= 6, engaged
        assert np.mean([result.actual_rate for result in results]) > 0.02

    def test_boost_improves_mean_on_heavy_tail(self, trace):
        """The whole point of the baseline: elevated-load sampling pulls
        the estimate toward the true mean versus plain Bernoulli at the
        same base rate (compared on instance medians)."""
        from repro.core.simple_random import BernoulliSampler
        from repro.core.variance import instance_means

        adaptive = AdaptiveRandomSampler(
            base_rate=3e-3, boost_factor=8.0, trigger=1.2
        )
        plain = BernoulliSampler(rate=3e-3)
        adaptive_medians = np.median(instance_means(adaptive, trace, 15, 1))
        plain_medians = np.median(instance_means(plain, trace, 15, 2))
        assert adaptive_medians >= plain_medians - 0.05 * trace.mean

    def test_minimum_one_sample(self, rng):
        sampler = AdaptiveRandomSampler(base_rate=1e-9)
        result = sampler.sample(np.ones(100), rng)
        assert result.n_samples >= 1

    def test_indices_sorted_in_range(self, trace):
        sampler = AdaptiveRandomSampler(base_rate=0.01)
        result = sampler.sample(trace, 5)
        assert np.all(np.diff(result.indices) > 0)
        assert result.indices.max() < len(trace)

    def test_deterministic_given_seed(self, trace):
        sampler = AdaptiveRandomSampler(base_rate=0.01)
        a = sampler.sample(trace, 9)
        b = sampler.sample(trace, 9)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_overhead_accounting(self, trace):
        sampler = AdaptiveRandomSampler(
            base_rate=0.01, boost_factor=10.0, trigger=1.1
        )
        result = sampler.sample(trace, 7)
        assert result.n_base + result.n_extra == result.n_samples
