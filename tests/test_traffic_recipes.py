"""Tests for the canonical trace recipes (synthetic + Bell-Labs-like)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.trace.packet import PacketTrace
from repro.trace.process import RateProcess
from repro.traffic.belllabs import (
    BELL_LABS_MEAN_RATE,
    BellLabsLikeTrace,
    bell_labs_like_process,
)
from repro.traffic.synthetic import (
    fgn_trace,
    onoff_trace,
    synthetic_packet_trace,
    synthetic_trace,
)


class TestSyntheticTrace:
    def test_returns_rate_process(self, rng):
        trace = synthetic_trace(1 << 12, rng)
        assert isinstance(trace, RateProcess)
        assert len(trace) == 1 << 12

    def test_mean_near_paper_value(self, rng):
        trace = synthetic_trace(1 << 17, rng)
        # alpha = 1.5 converges slowly; just require the right ballpark.
        assert 3.0 < trace.mean < 12.0

    def test_marginal_lower_bound(self, rng):
        trace = synthetic_trace(1 << 12, rng)
        assert trace.values.min() >= 5.68 * (1.5 - 1) / 1.5 - 1e-9

    def test_deterministic(self):
        a = synthetic_trace(2048, 5)
        b = synthetic_trace(2048, 5)
        np.testing.assert_array_equal(a.values, b.values)


class TestSyntheticPacketTrace:
    def test_matches_recipe(self):
        """Valid arguments draw what the documented recipe draws."""
        n, seed = 5000, 9
        trace = synthetic_packet_trace(n, seed, alpha=1.2, n_hosts=256)
        gen = np.random.default_rng(seed)
        np.testing.assert_array_equal(
            trace.timestamps, np.cumsum(gen.exponential(1e-3, n))
        )
        sizes = np.minimum(40 + gen.pareto(1.2, n) * 100, 1500)
        np.testing.assert_array_equal(trace.sizes, sizes.astype(np.uint32))
        for column in (trace.sources, trace.destinations):
            np.testing.assert_array_equal(
                column, gen.integers(0, 256, n, dtype=np.uint32)
            )

    def test_builds_its_columns_in_place(self):
        """Besides its 21 bytes a packet of columns, a call traces one
        byte a packet (the ordering mask): the draws are transformed in
        place and the float sizes are dropped once cast (the former
        expressions traced 17 bytes a packet more)."""
        n = 1 << 18
        synthetic_packet_trace(64, 1)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            trace = synthetic_packet_trace(n, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = sum(
            getattr(trace, name).nbytes for name in PacketTrace.__slots__
        )
        assert columns == 21 * n
        assert peak - before <= columns + n + 64 * 1024

    def test_integral_arguments_keep_bits(self):
        a = synthetic_packet_trace(1000, 3, alpha=2, n_hosts=16)
        b = synthetic_packet_trace(1000, 3, alpha=2.0, n_hosts=16.0)
        for column in ("timestamps", "sources", "destinations", "sizes"):
            np.testing.assert_array_equal(getattr(a, column), getattr(b, column))

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 0.0, -1.0, True])
    def test_rejects_bad_alpha(self, alpha):
        """NaN used to make every size 2147483648; alpha <= 0 raised a bare
        NumPy ``ValueError``."""
        with pytest.raises(ParameterError, match="alpha"):
            synthetic_packet_trace(100, 1, alpha=alpha)

    @pytest.mark.parametrize("n_hosts", [0, -3, 2.5, True])
    def test_rejects_bad_n_hosts(self, n_hosts):
        """``n_hosts=0`` raised a bare NumPy ``ValueError``; 2.5 ran."""
        with pytest.raises(ParameterError, match="n_hosts"):
            synthetic_packet_trace(100, 1, n_hosts=n_hosts)

    @pytest.mark.parametrize("n_hosts", [2**32 + 1, 2**33, 2.0**40])
    def test_rejects_n_hosts_beyond_uint32_ids(self, n_hosts):
        """Host ids are uint32: these raised a bare NumPy ``ValueError``."""
        with pytest.raises(ParameterError, match="n_hosts"):
            synthetic_packet_trace(100, 1, n_hosts=n_hosts)

    def test_all_uint32_host_ids_still_allowed(self):
        n, seed = 1000, 4
        trace = synthetic_packet_trace(n, seed, n_hosts=2**32)
        gen = np.random.default_rng(seed)
        gen.exponential(1e-3, n)
        gen.pareto(1.2, n)
        for column in (trace.sources, trace.destinations):
            np.testing.assert_array_equal(
                column, gen.integers(0, 2**32, n, dtype=np.uint32)
            )


class TestOnOffTrace:
    def test_non_negative(self, rng):
        trace = onoff_trace(4096, rng, n_sources=16)
        assert trace.values.min() >= 0.0

    def test_length(self, rng):
        assert len(onoff_trace(1000, rng, n_sources=8)) == 1000


class TestFgnTrace:
    def test_mean_shift(self, rng):
        trace = fgn_trace(1 << 14, rng, mean=10.0)
        assert trace.mean == pytest.approx(10.0, abs=0.5)

    def test_sigma(self, rng):
        trace = fgn_trace(1 << 14, rng, sigma=2.0)
        assert np.std(trace.values) == pytest.approx(2.0, rel=0.1)


class TestBellLabsLikeTrace:
    def test_byte_process_mean_rate(self, rng):
        gen = BellLabsLikeTrace()
        process = gen.byte_process(1 << 15, rng)
        per_second = process.mean / process.bin_width
        # alpha = 1.71 converges faster than 1.5; 25% tolerance.
        assert per_second == pytest.approx(BELL_LABS_MEAN_RATE, rel=0.25)

    def test_od_pairs_distinct_hosts(self, rng):
        gen = BellLabsLikeTrace(n_hosts=16, n_pairs=40)
        pairs = gen.od_pairs(rng)
        assert len(pairs) == 40
        assert all(s != d for s, d in pairs)
        assert len(set(pairs)) == len(pairs)

    def test_packets_pipeline(self, rng):
        gen = BellLabsLikeTrace(n_hosts=8, n_pairs=10, bin_width=0.1)
        trace = gen.packets(128, rng)
        assert len(trace) > 0
        assert trace.duration <= 128 * 0.1

    def test_packet_volume_matches_process(self):
        gen = BellLabsLikeTrace(n_hosts=8, n_pairs=10, bin_width=0.1)
        # Same seed drives process + packetisation; compare totals loosely.
        trace = gen.packets(256, 7)
        process = gen.byte_process(256, 7)
        assert trace.total_bytes == pytest.approx(process.values.sum(), rel=0.05)

    def test_paper_n_bins(self):
        gen = BellLabsLikeTrace(bin_width=0.1)
        assert gen.paper_n_bins() == 24000

    def test_convenience_function(self, rng):
        process = bell_labs_like_process(2048, rng)
        assert isinstance(process, RateProcess)
        assert len(process) == 2048
