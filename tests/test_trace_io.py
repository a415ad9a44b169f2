"""Tests for repro.trace.io: CSV and binary round-trips and error paths."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.trace.io import (
    read_binary,
    read_csv,
    read_trace,
    write_binary,
    write_csv,
    write_trace,
)
from repro.trace.packet import PacketTrace
from repro.traffic.synthetic import synthetic_packet_trace


def sample_trace() -> PacketTrace:
    return PacketTrace(
        timestamps=[0.0, 0.125, 7.25],
        sources=[10, 20, 10],
        destinations=[20, 10, 30],
        sizes=[40, 1500, 576],
        protocols=[6, 17, 6],
    )


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(sample_trace(), path)
        back = read_csv(path)
        assert back == sample_trace()

    def test_header_present(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(sample_trace(), path)
        assert path.read_text().startswith("# repro-trace v1")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,1,2,40,6\n")
        with pytest.raises(TraceFormatError, match="header"):
            read_csv(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# repro-trace v1\n1.0,1,2,40\n")
        with pytest.raises(TraceFormatError, match="5 fields"):
            read_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# repro-trace v1\nabc,1,2,40,6\n")
        with pytest.raises(TraceFormatError):
            read_csv(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "# repro-trace v1\n\n# a comment\n1.0,1,2,40,6\n"
        )
        trace = read_csv(path)
        assert len(trace) == 1

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(PacketTrace.empty(), path)
        assert len(read_csv(path)) == 0


class TestBinaryRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "trace.rpt"
        write_binary(sample_trace(), path)
        back = read_binary(path)
        assert back == sample_trace()
        np.testing.assert_array_equal(back.timestamps, sample_trace().timestamps)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rpt"
        path.write_bytes(b"NOTATRACE")
        with pytest.raises(TraceFormatError, match="magic"):
            read_binary(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "trace.rpt"
        write_binary(sample_trace(), path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(TraceFormatError, match="truncated"):
            read_binary(path)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.rpt"
        write_binary(PacketTrace.empty(), path)
        assert len(read_binary(path)) == 0

    def test_oversize_packet_rejected_before_writing(self, tmp_path):
        path = tmp_path / "big.rpt"
        trace = PacketTrace([0.0, 1.0], [1, 1], [2, 2], [40, 0x10000])
        with pytest.raises(TraceFormatError, match="uint16"):
            write_binary(trace, path)
        assert not path.exists()


class TestDispatch:
    def test_csv_extension(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace(sample_trace(), path)
        assert read_trace(path) == sample_trace()

    def test_rpt_extension(self, tmp_path):
        path = tmp_path / "t.rpt"
        write_trace(sample_trace(), path)
        assert read_trace(path) == sample_trace()

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(TraceFormatError, match="extension"):
            write_trace(sample_trace(), tmp_path / "t.pcap")
        with pytest.raises(TraceFormatError, match="extension"):
            read_trace(tmp_path / "t.pcap")


def traced_peak(call) -> int:
    """Bytes ``call()`` allocates at its peak, as ``tracemalloc`` counts
    them: the same on any machine."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


class TestWritersHoldNoCopy:
    """The writers never hold a second copy of the capture."""

    @pytest.mark.parametrize("n", [1 << 15, 1 << 17, 1 << 19])
    def test_write_csv_is_flat_in_n(self, tmp_path, n):
        """Blocks of ``_CSV_CHUNK`` rows: 1.5 MiB at any length (2^18-row
        blocks traced 4.7 MiB at 2^15 rows and 37.9 MiB at 2^19).  NumPy
        formats the blocks, so tracing costs little time even at 2^19
        rows: 0.15 s on 2 cores, against 10 s with ``%`` on each row."""
        write_csv(synthetic_packet_trace(64, 1), tmp_path / "warm.csv")
        trace = synthetic_packet_trace(n, 1)
        peak = traced_peak(lambda: write_csv(trace, tmp_path / "trace.csv"))
        assert peak <= 2 << 20

    @pytest.mark.parametrize("n", [1 << 16, 1 << 19])
    def test_write_binary_is_flat_in_n(self, tmp_path, n):
        """One reused block of ``_BINARY_CHUNK`` packed records (19 bytes
        each) goes to the file through a memoryview: 1.2 MiB at any length
        (the whole-trace records and their ``tobytes`` copy traced 38
        bytes a packet)."""
        write_binary(synthetic_packet_trace(64, 2), tmp_path / "warm.rpt")
        trace = synthetic_packet_trace(n, 2)
        peak = traced_peak(lambda: write_binary(trace, tmp_path / "trace.rpt"))
        assert peak <= 19 * (1 << 16) + 64 * 1024


class TestReadBinaryHoldsOneCopy:
    @pytest.mark.parametrize("n", [1 << 16, 1 << 19])
    def test_columns_and_one_block(self, tmp_path, n):
        """The columns (21 bytes a packet), one reused block of
        ``_BINARY_CHUNK`` records (19 bytes each), ``PacketTrace``'s
        n-byte ordering mask and 64 KiB.  Reading the whole file and
        copying each column out of it traced 20.5 MiB at 2^19 packets."""
        write_binary(synthetic_packet_trace(64, 3), tmp_path / "warm.rpt")
        read_binary(tmp_path / "warm.rpt")
        path = tmp_path / "trace.rpt"
        write_binary(synthetic_packet_trace(n, 3), path)
        peak = traced_peak(lambda: read_binary(path))
        assert peak <= 21 * n + 19 * (1 << 16) + n + 64 * 1024

    def test_corrupt_count_fails_before_allocating(self, tmp_path):
        """A header promising 2^60 packets fails on the file's size, with
        the message a whole-file read gave, instead of allocating 2^60
        packets' columns."""
        path = tmp_path / "trace.rpt"
        write_binary(sample_trace(), path)
        data = bytearray(path.read_bytes())
        data[8:16] = (1 << 60).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        expected = 16 + 19 * (1 << 60)
        with pytest.raises(
            TraceFormatError,
            match=f"expected {expected} bytes, found {len(data)}",
        ):
            read_binary(path)


@given(
    st.lists(
        st.tuples(
            st.floats(0, 1e6, allow_nan=False),
            st.integers(0, 2**32 - 1),
            st.integers(0, 2**32 - 1),
            st.integers(0, 65535),
            st.integers(0, 255),
        ),
        min_size=0,
        max_size=40,
    )
)
@settings(max_examples=25, deadline=None)
def test_binary_round_trip_property(tmp_path_factory, rows):
    """Any well-formed trace survives a binary write/read unchanged."""
    rows.sort(key=lambda r: r[0])
    trace = PacketTrace(
        timestamps=[r[0] for r in rows],
        sources=[r[1] for r in rows],
        destinations=[r[2] for r in rows],
        sizes=[r[3] for r in rows],
        protocols=[r[4] for r in rows],
    )
    path = tmp_path_factory.mktemp("prop") / "t.rpt"
    write_binary(trace, path)
    assert read_binary(path) == trace
