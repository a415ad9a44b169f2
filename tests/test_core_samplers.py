"""Tests for the three classical samplers and the shared result type."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import SamplingResult, interval_for_rate, series_values
from repro.core.simple_random import BernoulliSampler, SimpleRandomSampler
from repro.core.stratified import StratifiedSampler
from repro.core.systematic import SystematicSampler
from repro.errors import ParameterError
from repro.trace.process import RateProcess


SERIES = np.arange(100, dtype=float)


class TestSamplingResult:
    def test_basic_properties(self):
        result = SamplingResult(
            indices=np.array([0, 10, 20]),
            values=np.array([1.0, 2.0, 3.0]),
            n_population=100,
            method="test",
        )
        assert result.n_samples == 3
        assert result.n_base == 3
        assert result.n_extra == 0
        assert result.sampled_mean == pytest.approx(2.0)
        assert result.actual_rate == pytest.approx(0.03)

    def test_eta(self):
        result = SamplingResult(
            indices=np.array([0]), values=np.array([4.0]), n_population=10,
            method="test",
        )
        assert result.eta(8.0) == pytest.approx(0.5)

    def test_extra_accounting(self):
        result = SamplingResult(
            indices=np.array([0, 5, 7]),
            values=np.array([1.0, 9.0, 8.0]),
            n_population=10,
            method="bss",
            n_base=1,
        )
        assert result.n_extra == 2

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ParameterError):
            SamplingResult(
                indices=np.array([200]), values=np.array([1.0]),
                n_population=100, method="test",
            )

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ParameterError):
            SamplingResult(
                indices=np.array([1, 2]), values=np.array([1.0]),
                n_population=100, method="test",
            )

    def test_n_base_bounds(self):
        with pytest.raises(ParameterError):
            SamplingResult(
                indices=np.array([1]), values=np.array([1.0]),
                n_population=10, method="test", n_base=5,
            )


class TestSeriesValues:
    def test_accepts_rate_process(self):
        process = RateProcess(values=np.array([1.0, 2.0]))
        np.testing.assert_array_equal(series_values(process), [1.0, 2.0])

    def test_accepts_array(self):
        np.testing.assert_array_equal(series_values([3.0, 4.0]), [3.0, 4.0])


class TestIntervalForRate:
    def test_inverse(self):
        assert interval_for_rate(0.01) == 100
        assert interval_for_rate(1.0) == 1

    def test_invalid(self):
        with pytest.raises(ParameterError):
            interval_for_rate(0.0)


class TestSystematicSampler:
    def test_every_cth_element(self):
        result = SystematicSampler(interval=10).sample(SERIES)
        np.testing.assert_array_equal(result.indices, np.arange(0, 100, 10))
        np.testing.assert_array_equal(result.values, SERIES[::10])

    def test_offset(self):
        result = SystematicSampler(interval=10, offset=3).sample(SERIES)
        assert result.indices[0] == 3
        np.testing.assert_array_equal(np.diff(result.indices), 10)

    def test_random_offset_varies(self):
        sampler = SystematicSampler(interval=50, offset=None)
        offsets = {sampler.sample(SERIES, seed).indices[0] for seed in range(30)}
        assert len(offsets) > 1

    def test_from_rate(self):
        sampler = SystematicSampler.from_rate(0.1)
        assert sampler.interval == 10
        assert sampler.rate == pytest.approx(0.1)

    def test_deterministic_mean_on_linear_series(self):
        """On 0..99 with C=10 offset 0 the sampled mean is 45."""
        assert SystematicSampler(10).sample(SERIES).sampled_mean == pytest.approx(45.0)

    def test_offset_out_of_range(self):
        with pytest.raises(ParameterError):
            SystematicSampler(interval=10, offset=10)
        # A non-integral offset used to sample from index 2; True was 1.
        for offset in (2.5, True):
            with pytest.raises(ParameterError, match="offset"):
                SystematicSampler(interval=10, offset=offset)

    def test_interval_exceeds_length(self):
        with pytest.raises(ParameterError):
            SystematicSampler(interval=200).sample(SERIES)

    @given(st.integers(1, 30), st.integers(30, 200))
    @settings(max_examples=30, deadline=None)
    def test_count_property(self, interval, n):
        """ceil(n / C) samples from offset 0, all on the C-grid."""
        series = np.arange(n, dtype=float)
        result = SystematicSampler(interval=min(interval, n)).sample(series)
        expected = int(np.ceil(n / min(interval, n)))
        assert result.n_samples == expected
        assert np.all(result.indices % min(interval, n) == 0)


class TestStratifiedSampler:
    def test_one_sample_per_stratum(self, rng):
        result = StratifiedSampler(interval=10).sample(SERIES, rng)
        assert result.n_samples == 10
        np.testing.assert_array_equal(result.indices // 10, np.arange(10))

    def test_partial_tail_stratum(self, rng):
        series = np.arange(25, dtype=float)
        result = StratifiedSampler(interval=10).sample(series, rng)
        assert result.n_samples == 3
        assert 20 <= result.indices[-1] < 25

    def test_instances_differ(self):
        sampler = StratifiedSampler(interval=10)
        a = sampler.sample(SERIES, 1).indices
        b = sampler.sample(SERIES, 2).indices
        assert not np.array_equal(a, b)

    def test_deterministic_given_seed(self):
        sampler = StratifiedSampler(interval=10)
        np.testing.assert_array_equal(
            sampler.sample(SERIES, 7).indices, sampler.sample(SERIES, 7).indices
        )

    def test_unbiased_over_instances(self, rng):
        """Averaged over many instances the stratified mean hits the truth."""
        sampler = StratifiedSampler(interval=10)
        means = [sampler.sample(SERIES, child).sampled_mean
                 for child in rng.spawn(200)]
        assert np.mean(means) == pytest.approx(SERIES.mean(), abs=0.5)

    @given(st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_indices_sorted_unique_property(self, interval):
        result = StratifiedSampler(interval=interval).sample(SERIES, 3)
        assert np.all(np.diff(result.indices) > 0)


class TestSimpleRandomSampler:
    def test_fixed_count(self, rng):
        result = SimpleRandomSampler(n_samples=7).sample(SERIES, rng)
        assert result.n_samples == 7
        assert np.unique(result.indices).size == 7

    def test_rate_count(self, rng):
        result = SimpleRandomSampler(rate=0.2).sample(SERIES, rng)
        assert result.n_samples == 20

    def test_minimum_one_sample(self, rng):
        result = SimpleRandomSampler(rate=1e-6).sample(SERIES, rng)
        assert result.n_samples == 1

    def test_both_parameters_rejected(self):
        with pytest.raises(ParameterError):
            SimpleRandomSampler(rate=0.1, n_samples=5)
        with pytest.raises(ParameterError):
            SimpleRandomSampler()

    def test_oversampling_rejected(self, rng):
        with pytest.raises(ParameterError):
            SimpleRandomSampler(n_samples=101).sample(SERIES, rng)

    def test_integral_float_count_is_the_int(self):
        sampler = SimpleRandomSampler(n_samples=3.0)
        assert sampler.n_samples == 3 and type(sampler.n_samples) is int
        np.testing.assert_array_equal(
            sampler.sample(SERIES, 5).indices,
            SimpleRandomSampler(n_samples=3).sample(SERIES, 5).indices,
        )

    @pytest.mark.parametrize(
        "bad", [2.5, True, "3", 0, -1, float("inf"), float("nan")]
    )
    def test_invalid_count_rejected_at_construction(self, bad):
        with pytest.raises(ParameterError, match="n_samples"):
            SimpleRandomSampler(n_samples=bad)

    def test_bool_rate_rejected(self):
        """``rate=True`` used to keep every point, as rate 1."""
        with pytest.raises(ParameterError, match="rate"):
            SimpleRandomSampler(rate=True)

    def test_unbiased_over_instances(self, rng):
        sampler = SimpleRandomSampler(rate=0.1)
        means = [sampler.sample(SERIES, child).sampled_mean
                 for child in rng.spawn(300)]
        assert np.mean(means) == pytest.approx(SERIES.mean(), abs=1.0)


class TestBernoulliSampler:
    def test_rate_approximate(self, rng):
        series = np.ones(10_000)
        result = BernoulliSampler(rate=0.1).sample(series, rng)
        assert result.n_samples == pytest.approx(1000, rel=0.2)

    def test_at_least_one_sample(self, rng):
        result = BernoulliSampler(rate=1e-9).sample(SERIES, rng)
        assert result.n_samples >= 1

    def test_invalid_rate(self):
        with pytest.raises(ParameterError):
            BernoulliSampler(rate=1.5)

    def test_bool_rate_rejected(self):
        """``rate=True`` used to keep every point, as rate 1."""
        with pytest.raises(ParameterError, match="rate"):
            BernoulliSampler(rate=True)
