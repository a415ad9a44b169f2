"""Tests for the per-packet (event/time-driven) samplers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.streaming import (
    BernoulliPacketSampler,
    CountStratifiedSampler,
    CountSystematicSampler,
    SizeBiasedSampler,
    TimeSystematicSampler,
    apply_sampler,
)
from repro.errors import ParameterError
from repro.trace.packet import PacketTrace


def uniform_trace(n: int = 1000, gap: float = 0.01) -> PacketTrace:
    ts = np.arange(n) * gap
    return PacketTrace(ts, np.ones(n, dtype=int), np.full(n, 2), np.full(n, 100))


class TestCountSystematic:
    def test_every_nth_packet(self):
        sampler = CountSystematicSampler(10)
        sampled = apply_sampler(sampler, uniform_trace(100))
        assert len(sampled) == 10
        np.testing.assert_allclose(np.diff(sampled.timestamps), 0.1)

    def test_offset(self):
        sampler = CountSystematicSampler(10, offset=3)
        sampled = apply_sampler(sampler, uniform_trace(100))
        assert sampled.timestamps[0] == pytest.approx(0.03)

    def test_reset(self):
        sampler = CountSystematicSampler(5)
        apply_sampler(sampler, uniform_trace(7))
        sampler.reset()
        sampled = apply_sampler(sampler, uniform_trace(10))
        assert len(sampled) == 2

    def test_invalid(self):
        with pytest.raises(ParameterError):
            CountSystematicSampler(0)
        with pytest.raises(ParameterError):
            CountSystematicSampler(5, offset=5)
        with pytest.raises(ParameterError, match="offset"):
            CountSystematicSampler(10, offset=2.5)
        with pytest.raises(ParameterError, match="offset"):
            CountSystematicSampler(10, offset=True)


class TestTimeSystematic:
    def test_period_spacing(self):
        sampler = TimeSystematicSampler(0.1)
        sampled = apply_sampler(sampler, uniform_trace(100, gap=0.01))
        # First packet always sampled, then one per 0.1 s.  Gaps can jitter
        # by up to one packet gap: a late pick shortens the next gap.
        assert len(sampled) == pytest.approx(10, abs=1)
        assert np.all(np.diff(sampled.timestamps) >= 0.1 - 0.01 - 1e-9)

    def test_idle_gap_skipped(self):
        ts = np.array([0.0, 0.01, 5.0, 5.01])
        trace = PacketTrace(ts, [1] * 4, [2] * 4, [100] * 4)
        sampler = TimeSystematicSampler(0.1)
        sampled = apply_sampler(sampler, trace)
        # t=0 (first), t=5.0 (after idle gap); not 0.01 or 5.01.
        np.testing.assert_allclose(sampled.timestamps, [0.0, 5.0])

    def test_invalid_period(self):
        with pytest.raises(ParameterError):
            TimeSystematicSampler(0.0)


class TestCountStratified:
    def test_one_per_window(self):
        sampler = CountStratifiedSampler(10, rng=3)
        sampled = apply_sampler(sampler, uniform_trace(100))
        assert len(sampled) == 10
        windows = (sampled.timestamps / 0.1).astype(int)
        np.testing.assert_array_equal(windows, np.arange(10))

    def test_instances_differ(self):
        a = apply_sampler(CountStratifiedSampler(10, rng=1), uniform_trace(100))
        b = apply_sampler(CountStratifiedSampler(10, rng=2), uniform_trace(100))
        assert not np.array_equal(a.timestamps, b.timestamps)


class TestBernoulliPacket:
    def test_rate(self):
        sampler = BernoulliPacketSampler(0.2, rng=5)
        sampled = apply_sampler(sampler, uniform_trace(5000))
        assert len(sampled) == pytest.approx(1000, rel=0.15)

    def test_invalid_rate(self):
        with pytest.raises(ParameterError):
            BernoulliPacketSampler(0.0)


class TestSizeBiased:
    def test_large_packets_always_sampled(self):
        ts = np.arange(100) * 0.01
        sizes = np.where(np.arange(100) % 2 == 0, 1500, 40)
        trace = PacketTrace(ts, [1] * 100, [2] * 100, sizes)
        sampler = SizeBiasedSampler(byte_threshold=1500, rng=7)
        sampled = apply_sampler(sampler, trace)
        large = sampled.sizes == 1500
        assert large.sum() == 50  # every large packet kept

    def test_small_packets_proportional(self):
        ts = np.arange(20_000) * 1e-4
        trace = PacketTrace(ts, [1] * 20_000, [2] * 20_000, [150] * 20_000)
        sampler = SizeBiasedSampler(byte_threshold=1500, rng=7)
        sampled = apply_sampler(sampler, trace)
        assert len(sampled) == pytest.approx(2000, rel=0.15)


class TestApplySampler:
    def test_empty_trace(self):
        sampler = CountSystematicSampler(5)
        assert len(apply_sampler(sampler, PacketTrace.empty())) == 0

    def test_preserves_columns(self):
        sampled = apply_sampler(CountSystematicSampler(3), uniform_trace(9))
        assert sampled.sizes.dtype == np.uint32
        assert len(sampled) == 3
