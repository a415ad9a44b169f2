"""Tests for biased systematic sampling (offline + online)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bss import BiasedSystematicSampler, OnlineBSS, _extra_offsets
from repro.core.systematic import SystematicSampler
from repro.errors import ParameterError
from repro.traffic.synthetic import synthetic_trace


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace(1 << 16, 99)


class TestExtraOffsets:
    def test_evenly_spaced_strictly_inside(self):
        offsets = _extra_offsets(100, 4)
        np.testing.assert_array_equal(offsets, [20, 40, 60, 80])

    def test_never_hits_next_regular_point(self):
        for interval in (3, 7, 10, 100):
            for extra in (1, 2, 5, 20):
                offsets = _extra_offsets(interval, extra)
                assert np.all(offsets >= 1)
                assert np.all(offsets <= interval - 1)

    def test_zero_extras(self):
        assert _extra_offsets(100, 0).size == 0

    def test_tiny_interval(self):
        assert _extra_offsets(1, 5).size == 0


class TestBssStructure:
    def test_zero_extras_equals_systematic(self, trace):
        bss = BiasedSystematicSampler(interval=100, extra_samples=0)
        sys_result = SystematicSampler(interval=100).sample(trace)
        bss_result = bss.sample(trace)
        np.testing.assert_array_equal(bss_result.indices, sys_result.indices)
        assert bss_result.n_extra == 0

    def test_contains_systematic_grid(self, trace):
        bss = BiasedSystematicSampler(interval=100, extra_samples=8)
        result = bss.sample(trace)
        grid = np.arange(0, len(trace), 100)
        assert np.isin(grid, result.indices).all()

    def test_qualified_samples_exceed_threshold_family(self, trace):
        """Every extra sample kept is strictly above the current a_th; in
        particular every extra must exceed the smallest threshold used,
        which is at least epsilon times the smallest running mean."""
        bss = BiasedSystematicSampler(interval=50, extra_samples=8, epsilon=1.0)
        result = bss.sample(trace)
        extras_mask = ~np.isin(result.indices, np.arange(0, len(trace), 50))
        extras = result.values[extras_mask]
        if extras.size:
            # Thresholds track the running mean; all must be above the
            # Pareto scale at the very least.
            assert extras.min() > float(np.min(trace.values))

    def test_fixed_threshold_mode(self, trace):
        threshold = 2.0 * trace.mean
        bss = BiasedSystematicSampler(
            interval=50, extra_samples=4, threshold=threshold
        )
        result = bss.sample(trace)
        extras_mask = ~np.isin(result.indices, np.arange(0, len(trace), 50))
        assert np.all(result.values[extras_mask] > threshold)

    def test_extras_raise_sampled_mean(self, trace):
        """Qualified extras are all large, so BSS mean >= systematic mean."""
        sys_mean = SystematicSampler(interval=200).sample(trace).sampled_mean
        bss_mean = (
            BiasedSystematicSampler(interval=200, extra_samples=10)
            .sample(trace)
            .sampled_mean
        )
        assert bss_mean >= sys_mean

    def test_overhead_bounded_by_l(self, trace):
        bss = BiasedSystematicSampler(interval=100, extra_samples=5)
        result = bss.sample(trace)
        assert result.n_extra <= 5 * result.n_base

    def test_indices_sorted_no_duplicates(self, trace):
        result = BiasedSystematicSampler(interval=64, extra_samples=6).sample(trace)
        assert np.all(np.diff(result.indices) > 0)

    def test_random_offset(self, trace):
        bss = BiasedSystematicSampler(interval=512, extra_samples=2, offset=None)
        first = {bss.sample(trace, seed).indices[0] for seed in range(20)}
        assert len(first) > 1

    def test_deterministic_given_fixed_offset(self, trace):
        bss = BiasedSystematicSampler(interval=128, extra_samples=4)
        a = bss.sample(trace)
        b = bss.sample(trace)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            BiasedSystematicSampler(interval=0, extra_samples=1)
        with pytest.raises(ParameterError):
            BiasedSystematicSampler(interval=10, extra_samples=-1)
        with pytest.raises(ParameterError):
            BiasedSystematicSampler(interval=10, extra_samples=1, epsilon=0.0)
        with pytest.raises(ParameterError):
            BiasedSystematicSampler(interval=10, extra_samples=1, offset=10)
        # A non-integral offset used to sample from index 2; True was 1.
        for offset in (2.5, True):
            with pytest.raises(ParameterError, match="offset"):
                BiasedSystematicSampler(
                    interval=10, extra_samples=1, offset=offset
                )
            with pytest.raises(ParameterError, match="offset"):
                OnlineBSS(10, 1, offset=offset)

    def test_bool_epsilon_rejected(self):
        """``epsilon=True`` used to construct and sample as epsilon 1."""
        with pytest.raises(ParameterError, match="epsilon"):
            BiasedSystematicSampler(interval=8, extra_samples=2, epsilon=True)

    def test_integral_offset_stored_as_int(self):
        assert BiasedSystematicSampler(10, 1, offset=3.0).offset == 3
        assert type(BiasedSystematicSampler(10, 1, offset=3.0).offset) is int

    @pytest.mark.parametrize(
        "integral_float",
        [{"interval": 8.0}, {"extra_samples": 2.0}, {"n_presamples": 3.0}],
        ids=["interval", "extra_samples", "n_presamples"],
    )
    def test_integral_float_counts_are_the_ints(self, trace, integral_float):
        """The validated ints are stored: ``n_presamples=3.0`` used to fail
        in ``sample`` on a float slice index, and the floats stayed on the
        sampler."""
        counts = {"interval": 8, "extra_samples": 2, "n_presamples": 3}
        bss = BiasedSystematicSampler(**{**counts, **integral_float})
        for field, value in counts.items():
            assert getattr(bss, field) == value
            assert type(getattr(bss, field)) is int
        got = bss.sample(trace)
        expected = BiasedSystematicSampler(**counts).sample(trace)
        np.testing.assert_array_equal(got.indices, expected.indices)
        np.testing.assert_array_equal(got.values, expected.values)
        assert got.n_base == expected.n_base


class TestBssDesign:
    def test_design_produces_valid_sampler(self, trace):
        bss = BiasedSystematicSampler.design(
            1e-3, 1.5, cs=0.5, total_points=len(trace)
        )
        assert bss.interval == 1000
        assert bss.extra_samples >= 1

    def test_lower_rate_more_extras(self, trace):
        low = BiasedSystematicSampler.design(
            1e-4, 1.5, cs=0.5, total_points=len(trace)
        )
        high = BiasedSystematicSampler.design(
            1e-2, 1.5, cs=0.5, total_points=len(trace)
        )
        assert low.extra_samples >= high.extra_samples

    def test_xi_clamped_when_eta_huge(self):
        """At absurdly low rates eta-hat saturates; design must not blow up."""
        bss = BiasedSystematicSampler.design(
            1e-6, 1.5, cs=1.0, total_points=10_000_000
        )
        assert bss.extra_samples >= 0

    def test_from_rate(self):
        bss = BiasedSystematicSampler.from_rate(0.01, 5)
        assert bss.interval == 100
        assert bss.extra_samples == 5


class TestOnlineBss:
    @pytest.mark.parametrize(
        "interval,extras,npre", [(100, 8, 10), (64, 4, 5), (50, 1, 0), (37, 3, 2)]
    )
    def test_online_matches_offline(self, trace, interval, extras, npre):
        """The streaming state machine is pinned to the array implementation."""
        offline = BiasedSystematicSampler(
            interval=interval, extra_samples=extras, n_presamples=npre
        ).sample(trace)
        online = OnlineBSS(
            interval, extras, n_presamples=npre
        )
        online.process(trace.values)
        result = online.result()
        np.testing.assert_array_equal(result.indices, offline.indices)
        np.testing.assert_allclose(result.values, offline.values)
        assert result.n_base == offline.n_base

    def test_online_integral_float_counts(self, trace):
        online = OnlineBSS(8.0, 2.0, n_presamples=3.0)
        online.process(trace.values)
        result = online.result()
        offline = BiasedSystematicSampler(
            interval=8, extra_samples=2, n_presamples=3
        ).sample(trace)
        np.testing.assert_array_equal(result.indices, offline.indices)
        np.testing.assert_array_equal(result.values, offline.values)

    def test_online_matches_offline_fixed_threshold(self, trace):
        threshold = 1.5 * trace.mean
        offline = BiasedSystematicSampler(
            interval=80, extra_samples=6, threshold=threshold
        ).sample(trace)
        online = OnlineBSS(80, 6, threshold=threshold)
        online.process(trace.values)
        result = online.result()
        np.testing.assert_array_equal(result.indices, offline.indices)

    def test_observe_returns_kept_flag(self, trace):
        online = OnlineBSS(10, 2, n_presamples=0)
        kept = [online.observe(v) for v in trace.values[:100]]
        assert sum(kept) == online.n_samples

    def test_result_before_observe_rejected(self):
        online = OnlineBSS(10, 2)
        with pytest.raises(ParameterError):
            online.result()

    def test_threshold_property_warmup(self, trace):
        online = OnlineBSS(10, 2, n_presamples=3)
        assert online.threshold == np.inf
        online.process(trace.values[:100])
        assert np.isfinite(online.threshold)
