"""Tests for repro.trace.binning and repro.trace.process."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.trace.binning import RateBinner, bin_bytes, bin_od_flow, bin_packets
from repro.trace.packet import PacketTrace
from repro.trace.process import RateProcess


def sample_trace() -> PacketTrace:
    return PacketTrace(
        timestamps=[0.0, 0.4, 1.1, 2.9, 3.0],
        sources=[1, 1, 2, 1, 1],
        destinations=[2, 2, 3, 2, 2],
        sizes=[100, 200, 300, 400, 500],
    )


class TestBinBytes:
    def test_volumes(self):
        process = bin_bytes(sample_trace(), 1.0)
        np.testing.assert_allclose(process.values, [300.0, 300.0, 400.0, 500.0])

    def test_mass_conservation(self):
        process = bin_bytes(sample_trace(), 1.0)
        assert process.values.sum() == sample_trace().total_bytes

    def test_explicit_origin(self):
        process = bin_bytes(sample_trace(), 1.0, t0=-1.0, n_bins=5)
        np.testing.assert_allclose(process.values, [0.0, 300.0, 300.0, 400.0, 500.0])

    def test_packets_outside_window_dropped(self):
        process = bin_bytes(sample_trace(), 1.0, t0=0.0, n_bins=2)
        np.testing.assert_allclose(process.values, [300.0, 300.0])

    def test_empty_trace_rejected(self):
        with pytest.raises(ParameterError, match="empty"):
            bin_bytes(PacketTrace.empty(), 1.0)

    def test_invalid_width(self):
        with pytest.raises(ParameterError):
            bin_bytes(sample_trace(), 0.0)

    @given(st.floats(0.1, 3.0), st.integers(1, 60))
    @settings(max_examples=20, deadline=None)
    def test_mass_conserved_property(self, width, n_packets):
        ts = np.sort(np.linspace(0.0, 10.0, n_packets))
        trace = PacketTrace(ts, [1] * n_packets, [2] * n_packets, [100] * n_packets)
        process = bin_bytes(trace, width)
        assert process.values.sum() == pytest.approx(trace.total_bytes)


class TestBinPackets:
    def test_counts(self):
        process = bin_packets(sample_trace(), 1.0)
        np.testing.assert_allclose(process.values, [2.0, 1.0, 1.0, 1.0])
        assert process.unit == "packets/bin"

    def test_count_conservation(self):
        process = bin_packets(sample_trace(), 2.0)
        assert process.values.sum() == len(sample_trace())


class TestBinOdFlow:
    def test_bytes_of_selected_pair(self):
        process = bin_od_flow(sample_trace(), [(1, 2)], 1.0, n_bins=4, t0=0.0)
        np.testing.assert_allclose(process.values, [300.0, 0.0, 400.0, 500.0])

    def test_packets_mode(self):
        process = bin_od_flow(
            sample_trace(), [(1, 2)], 1.0, by="packets", n_bins=4, t0=0.0
        )
        np.testing.assert_allclose(process.values, [2.0, 0.0, 1.0, 1.0])

    def test_invalid_mode(self):
        with pytest.raises(ParameterError):
            bin_od_flow(sample_trace(), [(1, 2)], 1.0, by="flows")


class TestRateProcess:
    def test_basic_stats(self):
        process = RateProcess(values=np.array([1.0, 2.0, 3.0, 4.0]), bin_width=0.5)
        assert len(process) == 4
        assert process.duration == pytest.approx(2.0)
        assert process.mean == pytest.approx(2.5)
        assert process.mean_per_second == pytest.approx(5.0)
        assert process.variance == pytest.approx(np.var([1, 2, 3, 4]))

    def test_aggregate_eq1(self):
        """aggregate() implements the paper's Eq. (1): block means."""
        process = RateProcess(values=np.arange(8, dtype=float), bin_width=1.0)
        agg = process.aggregate(4)
        np.testing.assert_allclose(agg.values, [1.5, 5.5])
        assert agg.bin_width == pytest.approx(4.0)

    def test_aggregate_preserves_mean(self):
        process = RateProcess(values=np.arange(16, dtype=float), bin_width=1.0)
        assert process.aggregate(4).mean == pytest.approx(process.mean)

    def test_aggregate_one_is_self(self):
        process = RateProcess(values=np.arange(4, dtype=float))
        assert process.aggregate(1) is process

    def test_slice(self):
        process = RateProcess(values=np.arange(10, dtype=float))
        window = process.slice(2, 5)
        np.testing.assert_allclose(window.values, [2.0, 3.0, 4.0])

    def test_slice_bounds_checked(self):
        process = RateProcess(values=np.arange(4, dtype=float))
        with pytest.raises(ParameterError):
            process.slice(2, 9)
        with pytest.raises(ParameterError):
            process.slice(3, 3)

    def test_per_second(self):
        process = RateProcess(values=np.array([10.0, 20.0]), bin_width=0.1)
        np.testing.assert_allclose(process.per_second().values, [100.0, 200.0])

    def test_centered(self):
        process = RateProcess(values=np.array([1.0, 3.0]))
        np.testing.assert_allclose(process.centered(), [-1.0, 1.0])

    def test_rejects_empty_values(self):
        with pytest.raises(ParameterError):
            RateProcess(values=np.array([]))

    def test_rejects_nan(self):
        with pytest.raises(ParameterError):
            RateProcess(values=np.array([1.0, np.nan]))


class TestRateBinner:
    def test_full_trace_conserves_mass(self):
        trace = sample_trace()
        binner = RateBinner.for_trace(trace, n_bins=4)
        process = binner.bin(trace)
        assert process.values.size == 4
        assert process.values.sum() == trace.total_bytes

    def test_last_packet_lands_in_the_final_bin(self):
        # The defining trace's last packet sits exactly on the grid's
        # right edge; the closed edge keeps it on the grid.
        trace = sample_trace()
        binner = RateBinner.for_trace(trace, n_bins=3)
        process = binner.bin(trace)
        assert process.values[-1] >= trace.sizes[-1]

    def test_substream_shares_the_parent_grid(self):
        trace = sample_trace()
        binner = RateBinner.for_trace(trace, n_bins=4)
        sub = trace.select(np.array([True, False, False, True, False]))
        full, sampled = binner.bin(trace), binner.bin(sub)
        assert full.values.size == sampled.values.size
        assert full.bin_width == sampled.bin_width
        assert sampled.values.sum() == trace.sizes[[0, 3]].sum()
        # Every sampled bin is bounded by the full trace's bin.
        assert np.all(sampled.values <= full.values)

    def test_packet_counting_mode(self):
        trace = sample_trace()
        binner = RateBinner.for_trace(trace, n_bins=4, by="packets")
        process = binner.bin(trace)
        assert process.unit == "packets/bin"
        assert process.values.sum() == len(trace)

    def test_default_bin_count_is_clamped(self):
        trace = sample_trace()
        assert RateBinner.for_trace(trace).n_bins == 16  # 5 // 8 -> floor 16

    def test_zero_span_trace_gets_a_unit_grid(self):
        trace = PacketTrace(timestamps=[1.0, 1.0], sources=[1, 1],
                            destinations=[2, 2], sizes=[10, 20])
        binner = RateBinner.for_trace(trace, n_bins=4)
        assert binner.bin_width == 1.0
        assert binner.bin(trace).values.sum() == 30

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RateBinner(t0=0.0, bin_width=1.0, n_bins=2.5),
            lambda: RateBinner(t0=0.0, bin_width=1.0, n_bins=True),
            lambda: RateBinner(t0=0.0, bin_width=1.0, n_bins=float("nan")),
            lambda: RateBinner(t0=float("nan"), bin_width=1.0, n_bins=4),
            lambda: RateBinner(t0=float("inf"), bin_width=1.0, n_bins=4),
            lambda: RateBinner.for_trace(sample_trace(), n_bins=2.5),
            lambda: bin_bytes(sample_trace(), 0.01, n_bins=2.5),
            lambda: bin_bytes(sample_trace(), 1.0, n_bins=True),
            lambda: bin_packets(sample_trace(), 1.0, n_bins=True),
            lambda: bin_bytes(sample_trace(), 1.0, n_bins=-3),
            lambda: bin_packets(sample_trace(), 1.0, n_bins=-3),
            lambda: bin_bytes(sample_trace(), 1.0, t0=float("nan")),
            lambda: bin_packets(sample_trace(), 1.0, t0=float("-inf")),
        ],
        ids=[
            "binner-n_bins-2.5", "binner-n_bins-True", "binner-n_bins-nan",
            "binner-t0-nan", "binner-t0-inf", "for_trace-n_bins-2.5",
            "bin_bytes-n_bins-2.5", "bin_bytes-n_bins-True",
            "bin_packets-n_bins-True", "bin_bytes-n_bins-neg",
            "bin_packets-n_bins-neg", "bin_bytes-t0-nan",
            "bin_packets-t0-neg-inf",
        ],
    )
    def test_bad_bin_count_or_origin_raises_parameter_error(self, make):
        """A fractional, bool or NaN bin count and a non-finite origin
        used to construct and then fail in NumPy, run with a truncated
        count (2.5 as 2, ``True`` as 1), or bin from a NaN origin."""
        with pytest.raises(ParameterError, match="n_bins|t0"):
            make()

    def test_integral_counts_are_kept_as_ints(self):
        binner = RateBinner(t0=0, bin_width=1.0, n_bins=4.0)
        assert type(binner.n_bins) is int and type(binner.t0) is float
        assert type(RateBinner.for_trace(sample_trace(), n_bins=4.0).n_bins) is int
        assert bin_bytes(sample_trace(), 1.0, n_bins=4.0).values.size == 4

    def test_invalid_grid_rejected(self):
        with pytest.raises(ParameterError):
            RateBinner(t0=0.0, bin_width=0.0, n_bins=4)
        with pytest.raises(ParameterError):
            RateBinner(t0=0.0, bin_width=1.0, n_bins=0)
        with pytest.raises(ParameterError):
            RateBinner(t0=0.0, bin_width=1.0, n_bins=4, by="flows")
        with pytest.raises(ParameterError):
            RateBinner.for_trace(PacketTrace(timestamps=[], sources=[],
                                             destinations=[], sizes=[]))
