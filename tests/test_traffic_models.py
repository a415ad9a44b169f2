"""Tests for on/off aggregation, M/G/inf, and the copula generator."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.traffic.copula import ParetoLRDModel
from repro.traffic.distributions import Pareto
from repro.traffic.fgn import fgn_davies_harte
from repro.traffic.mginf import MGInfinityModel
from repro.traffic.onoff import OnOffModel, OnOffSource
from repro.utils.special import ndtr


def aggvar_hurst(x: np.ndarray, ms=(1, 2, 4, 8, 16, 32, 64)) -> float:
    variances = [x[: x.size // m * m].reshape(-1, m).mean(axis=1).var() for m in ms]
    slope = np.polyfit(np.log(ms), np.log(variances), 1)[0]
    return 1 + slope / 2


class TestOnOffModel:
    def test_for_hurst_alpha_mapping(self):
        model = OnOffModel.for_hurst(0.8)
        assert model.alpha_on == pytest.approx(1.4)
        assert model.target_hurst == pytest.approx(0.8)

    def test_rate_bounds(self, rng):
        model = OnOffModel(n_sources=16, peak_rate=2.0)
        x = model.generate(4096, rng)
        assert x.min() >= 0.0
        assert x.max() <= 16 * 2.0 + 1e-9

    def test_mean_rate_close_to_theory(self, rng):
        model = OnOffModel.for_hurst(0.8, n_sources=64)
        x = model.generate(1 << 15, rng)
        # Heavy-tailed sojourns converge slowly; generous tolerance.
        assert x.mean() == pytest.approx(model.mean_rate, rel=0.25)

    def test_hurst_in_lrd_range(self, rng):
        model = OnOffModel.for_hurst(0.8, n_sources=32)
        x = model.generate(1 << 15, rng)
        h = aggvar_hurst(x)
        assert 0.65 < h < 1.0

    def test_deterministic_given_seed(self):
        model = OnOffModel.for_hurst(0.75, n_sources=8)
        np.testing.assert_array_equal(model.generate(512, 3), model.generate(512, 3))

    def test_warmup_changes_window(self):
        model = OnOffModel.for_hurst(0.75, n_sources=8)
        a = model.generate(512, 3, warmup=0)
        b = model.generate(512, 3, warmup=256)
        assert not np.array_equal(a, b)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            OnOffModel(n_sources=0)
        with pytest.raises(ParameterError):
            OnOffModel(min_on=-1.0)
        # alpha <= 1: infinite mean sojourns, an all-zero trace and a NaN
        # mean_rate, so the model is refused up front.
        with pytest.raises(ParameterError, match="alpha_on"):
            OnOffModel(alpha_on=0.9)
        with pytest.raises(ParameterError, match="alpha_off"):
            OnOffModel(alpha_off=1.0)

    def test_target_hurst_requires_lrd_alpha(self):
        model = OnOffModel(alpha_on=2.5, alpha_off=2.5)
        with pytest.raises(ParameterError):
            _ = model.target_hurst


class TestOnOffSource:
    def test_bursts_cover_horizon(self, rng):
        source = OnOffSource(
            on_dist=Pareto(2.0, 1.5), off_dist=Pareto(2.0, 1.5), rng=rng
        )
        bursts = list(source.bursts(1000.0))
        assert bursts, "expected at least one ON burst in 1000 ticks"
        for start, end in bursts:
            assert 0.0 <= start < end <= 1000.0

    def test_bursts_disjoint_and_ordered(self, rng):
        source = OnOffSource(
            on_dist=Pareto(2.0, 1.5), off_dist=Pareto(2.0, 1.5), rng=rng
        )
        bursts = list(source.bursts(500.0))
        for (s1, e1), (s2, e2) in zip(bursts, bursts[1:]):
            assert e1 <= s2

    def test_invalid_horizon(self, rng):
        source = OnOffSource(
            on_dist=Pareto(2.0, 1.5), off_dist=Pareto(2.0, 1.5), rng=rng
        )
        with pytest.raises(ParameterError):
            list(source.bursts(0.0))


class TestMGInfinity:
    def test_mean_rate_matches_littles_law(self, rng):
        model = MGInfinityModel.for_hurst(0.8, arrival_rate=3.0)
        x = model.generate(1 << 15, rng)
        assert x.mean() == pytest.approx(model.mean_rate, rel=0.2)

    def test_occupancy_non_negative_integershaped(self, rng):
        model = MGInfinityModel.for_hurst(0.7)
        x = model.generate(4096, rng)
        assert x.min() >= 0
        np.testing.assert_allclose(x, np.round(x))

    def test_lrd_range(self, rng):
        model = MGInfinityModel.for_hurst(0.8, arrival_rate=4.0)
        x = model.generate(1 << 15, rng)
        assert 0.6 < aggvar_hurst(x) < 1.05

    def test_deterministic(self):
        model = MGInfinityModel.for_hurst(0.7)
        np.testing.assert_array_equal(model.generate(256, 1), model.generate(256, 1))

    def test_invalid_arrival_rate(self):
        with pytest.raises(ParameterError):
            MGInfinityModel(arrival_rate=0.0)


class TestParetoLRDModel:
    def test_exact_marginal_lower_bound(self, rng):
        model = ParetoLRDModel.from_mean(5.68, 1.5, 0.8)
        x = model.generate(1 << 14, rng)
        assert x.min() >= model.marginal.scale - 1e-12

    def test_marginal_ccdf_matches_pareto(self, rng):
        model = ParetoLRDModel.from_mean(5.68, 1.5, 0.8)
        x = model.generate(1 << 17, rng)
        threshold = 20.0
        expected = model.marginal.ccdf(threshold).item()
        assert (x > threshold).mean() == pytest.approx(expected, rel=0.15)

    def test_mean_rate_property(self):
        model = ParetoLRDModel.from_mean(12.0, 1.6, 0.7)
        assert model.mean_rate == pytest.approx(12.0)

    def test_long_range_dependence_preserved(self, rng):
        """The copula transform keeps the traffic visibly LRD.

        Heavy tails make the raw aggregated-variance estimator noisy, so the
        check is on a tail-clipped copy, and only asks for H well above 0.5.
        """
        model = ParetoLRDModel.from_mean(5.68, 1.5, 0.85)
        x = model.generate(1 << 17, rng)
        clipped = np.minimum(x, np.quantile(x, 0.999))
        assert aggvar_hurst(clipped) > 0.65

    def test_transform_is_monotone(self, rng):
        model = ParetoLRDModel.from_mean(5.0, 1.5, 0.8)
        g = np.sort(fgn_davies_harte(1024, 0.8, rng))
        f = model.transform(g)
        assert np.all(np.diff(f) >= 0)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("upper_ccdf", [None, 1e-4])
    def test_transform_keeps_the_formula_bits(self, alpha, upper_ccdf):
        """In-place clipping and the one-array quantile give the bits of
        ``scale * (1 - clip(ndtr(g)) * mass) ** (-1 / alpha)``, the
        power's fast paths (alpha 1 and 2) included."""
        base = ParetoLRDModel.from_mean(5.68, 1.5, 0.8, upper_ccdf=upper_ccdf)
        marginal = dataclasses.replace(base.marginal, alpha=alpha)
        model = ParetoLRDModel(marginal, 0.8)
        g = fgn_davies_harte(4096, 0.8, 3)
        g[:6] = [0.0, -0.0, np.inf, -np.inf, 40.0, -40.0]
        q = np.clip(ndtr(g), 0.0, 1.0 - 1e-12)
        if upper_ccdf is not None:
            q = q * marginal._tail_mass
        expected = marginal.scale * (1.0 - q) ** (-1.0 / alpha)
        assert model.transform(g).tobytes() == expected.tobytes()
        assert model.transform(g[7]) == expected[7]

    def test_transform_holds_two_arrays(self):
        """``ndtr``'s result, clipped in place, and one quantile work array
        are all a call holds: 16 bytes a point (12.0 MiB were traced at
        2^19 points before)."""
        n = 1 << 19
        g = np.random.default_rng(4).standard_normal(n)
        for upper_ccdf in (None, 1e-4):
            model = ParetoLRDModel.from_mean(5.68, 1.5, 0.8, upper_ccdf=upper_ccdf)
            model.transform(g[:64])
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                model.transform(g)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - before <= 16 * n + 64 * 1024

    def test_transform_deterministic(self):
        model = ParetoLRDModel.from_mean(5.0, 1.5, 0.8)
        g = fgn_davies_harte(256, 0.8, 11)
        np.testing.assert_array_equal(model.transform(g), model.transform(g))

    def test_invalid_hurst(self):
        with pytest.raises(ParameterError):
            ParetoLRDModel.from_mean(5.0, 1.5, 0.5)
