"""Tests for repro.trace.packet."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.trace.packet import PacketRecord, PacketTrace


def small_trace() -> PacketTrace:
    return PacketTrace(
        timestamps=[0.0, 0.5, 1.0, 1.5, 2.0],
        sources=[1, 1, 2, 1, 3],
        destinations=[2, 2, 3, 2, 1],
        sizes=[40, 1500, 576, 40, 1500],
        protocols=[6, 6, 17, 6, 6],
    )


class TestPacketRecord:
    def test_od_pair(self):
        record = PacketRecord(timestamp=1.0, src=5, dst=9, size=40)
        assert record.od_pair == (5, 9)

    def test_default_protocol_tcp(self):
        assert PacketRecord(0.0, 1, 2, 100).protocol == 6

    def test_frozen(self):
        record = PacketRecord(0.0, 1, 2, 100)
        with pytest.raises(AttributeError):
            record.size = 200


class TestPacketTraceBasics:
    def test_len(self):
        assert len(small_trace()) == 5

    def test_getitem(self):
        record = small_trace()[2]
        assert record == PacketRecord(1.0, 2, 3, 576, 17)

    def test_iter(self):
        records = list(small_trace())
        assert len(records) == 5
        assert all(isinstance(r, PacketRecord) for r in records)

    def test_duration(self):
        assert small_trace().duration == pytest.approx(2.0)

    def test_duration_single_packet(self):
        trace = PacketTrace([1.0], [1], [2], [40])
        assert trace.duration == 0.0

    def test_total_bytes(self):
        assert small_trace().total_bytes == 40 + 1500 + 576 + 40 + 1500

    def test_mean_rate(self):
        trace = small_trace()
        assert trace.mean_rate == pytest.approx(trace.total_bytes / 2.0)

    def test_equality(self):
        assert small_trace() == small_trace()

    def test_rejects_unsorted_timestamps(self):
        with pytest.raises(TraceFormatError, match="non-decreasing"):
            PacketTrace([1.0, 0.5], [1, 1], [2, 2], [40, 40])

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324]
                ),
                st.floats(),
            ),
            max_size=8,
        ),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_ordering_check_matches_diff(self, values, ordered):
        """``t[1:] < t[:-1]`` accepts and rejects exactly what the former
        ``np.diff(t) < 0`` did: signed zeros, infinities, NaN and
        subnormals included."""
        if ordered:
            values = sorted(values)
        t = np.array(values, dtype=np.float64)
        with np.errstate(invalid="ignore", over="ignore"):
            rejected = bool(np.any(np.diff(t) < 0))
        ids = np.zeros(t.size, dtype=np.uint32)
        if rejected:
            with pytest.raises(TraceFormatError, match="non-decreasing"):
                PacketTrace(t, ids, ids, ids)
        else:
            assert len(PacketTrace(t, ids, ids, ids)) == t.size

    def test_construction_holds_one_mask(self):
        """Built from columns of the right dtypes, a trace copies none of
        them and checks its ordering with one n-byte mask (an n-float
        ``np.diff`` traced 9 bytes a packet)."""
        n = 1 << 18
        timestamps = np.arange(n, dtype=np.float64)
        ids = np.zeros(n, dtype=np.uint32)
        protocols = np.full(n, 6, dtype=np.uint8)
        PacketTrace(timestamps[:8], ids[:8], ids[:8], ids[:8], protocols[:8])
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            trace = PacketTrace(timestamps, ids, ids, ids, protocols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= n + 64 * 1024
        assert trace.timestamps is timestamps and trace.sizes is ids

    def test_rejects_ragged_columns(self):
        with pytest.raises(TraceFormatError, match="rows"):
            PacketTrace([0.0, 1.0], [1], [2, 2], [40, 40])

    def test_empty(self):
        trace = PacketTrace.empty()
        assert len(trace) == 0
        assert trace.total_bytes == 0
        assert trace.mean_rate == 0.0


class TestSelection:
    def test_select_mask(self):
        trace = small_trace()
        sub = trace.select(trace.sizes == 1500)
        assert len(sub) == 2
        assert set(sub.sizes.tolist()) == {1500}

    def test_select_shape_mismatch(self):
        with pytest.raises(TraceFormatError, match="mask shape"):
            small_trace().select(np.array([True, False]))

    def test_filter_od_single_pair(self):
        sub = small_trace().filter_od([(1, 2)])
        assert len(sub) == 3
        assert set(sub.sources.tolist()) == {1}
        assert set(sub.destinations.tolist()) == {2}

    def test_filter_od_multiple_pairs(self):
        sub = small_trace().filter_od([(1, 2), (3, 1)])
        assert len(sub) == 4

    def test_filter_od_empty_pairs(self):
        assert len(small_trace().filter_od([])) == 0

    def test_filter_od_directionality(self):
        """(2, 3) and (3, 2) are distinct OD pairs."""
        sub = small_trace().filter_od([(3, 2)])
        assert len(sub) == 0


class TestConstructors:
    def test_from_records_sorts(self):
        records = [
            PacketRecord(2.0, 1, 2, 40),
            PacketRecord(1.0, 3, 4, 576),
        ]
        trace = PacketTrace.from_records(records)
        assert trace.timestamps[0] == pytest.approx(1.0)
        assert trace[0].src == 3

    def test_concat_merges_sorted(self):
        a = PacketTrace([0.0, 2.0], [1, 1], [2, 2], [40, 40])
        b = PacketTrace([1.0, 3.0], [5, 5], [6, 6], [100, 100])
        merged = a.concat(b)
        assert len(merged) == 4
        np.testing.assert_allclose(merged.timestamps, [0.0, 1.0, 2.0, 3.0])
        assert merged[1].src == 5
