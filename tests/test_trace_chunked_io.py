"""Tests for the chunked trace reader: boundaries, partial chunks, parity."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.trace.io import (
    _BINARY_MAGIC,
    iter_trace_chunks,
    read_binary,
    read_trace,
    write_trace,
)
from repro.trace.packet import PacketTrace


def make_trace(n: int, seed: int = 7) -> PacketTrace:
    rng = np.random.default_rng(seed)
    return PacketTrace(
        timestamps=np.sort(rng.uniform(0, 1000, n)).round(6),
        sources=rng.integers(0, 100, n),
        destinations=rng.integers(0, 100, n),
        sizes=rng.integers(40, 1500, n),
        protocols=rng.choice([6, 17], n),
    )


def concat_chunks(chunks) -> PacketTrace:
    chunks = list(chunks)
    if not chunks:
        return PacketTrace.empty()
    out = chunks[0]
    for chunk in chunks[1:]:
        out = out.concat(chunk)
    return out


@pytest.mark.parametrize("suffix", [".csv", ".rpt"])
class TestChunkedReads:
    def test_parity_with_whole_file(self, tmp_path, suffix):
        trace = make_trace(250)
        path = tmp_path / f"t{suffix}"
        write_trace(trace, path)
        assert concat_chunks(iter_trace_chunks(path, chunk_size=64)) == read_trace(path)

    def test_exact_multiple_boundary(self, tmp_path, suffix):
        """Chunk size dividing the packet count exactly: no stub chunk."""
        trace = make_trace(120)
        path = tmp_path / f"t{suffix}"
        write_trace(trace, path)
        chunks = list(iter_trace_chunks(path, chunk_size=40))
        assert [len(c) for c in chunks] == [40, 40, 40]
        assert concat_chunks(chunks) == trace

    def test_last_partial_chunk(self, tmp_path, suffix):
        trace = make_trace(100)
        path = tmp_path / f"t{suffix}"
        write_trace(trace, path)
        chunks = list(iter_trace_chunks(path, chunk_size=30))
        assert [len(c) for c in chunks] == [30, 30, 30, 10]
        assert concat_chunks(chunks) == trace

    def test_chunk_of_one(self, tmp_path, suffix):
        trace = make_trace(5)
        path = tmp_path / f"t{suffix}"
        write_trace(trace, path)
        chunks = list(iter_trace_chunks(path, chunk_size=1))
        assert [len(c) for c in chunks] == [1] * 5
        assert concat_chunks(chunks) == trace

    def test_chunk_larger_than_file(self, tmp_path, suffix):
        trace = make_trace(17)
        path = tmp_path / f"t{suffix}"
        write_trace(trace, path)
        chunks = list(iter_trace_chunks(path, chunk_size=1000))
        assert len(chunks) == 1
        assert chunks[0] == trace

    def test_empty_trace_yields_no_chunks(self, tmp_path, suffix):
        path = tmp_path / f"t{suffix}"
        write_trace(PacketTrace.empty(), path)
        assert list(iter_trace_chunks(path, chunk_size=16)) == []

    @pytest.mark.parametrize("chunk_size", [0, 2.5, True])
    def test_bad_chunk_size_rejected(self, tmp_path, suffix, chunk_size):
        """2.5 used to end in a bare TypeError and True to run 1-packet chunks."""
        path = tmp_path / f"t{suffix}"
        write_trace(make_trace(3), path)
        with pytest.raises(TraceFormatError, match="chunk_size"):
            iter_trace_chunks(path, chunk_size=chunk_size)

    def test_integral_float_chunk_size_is_the_int(self, tmp_path, suffix):
        trace = make_trace(100)
        path = tmp_path / f"t{suffix}"
        write_trace(trace, path)
        chunks = list(iter_trace_chunks(path, chunk_size=30.0))
        assert [len(c) for c in chunks] == [30, 30, 30, 10]
        assert concat_chunks(chunks) == trace


class TestChunkedErrors:
    def test_unknown_extension(self, tmp_path):
        with pytest.raises(TraceFormatError, match="extension"):
            iter_trace_chunks(tmp_path / "t.pcap")

    def test_csv_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,1,2,40,6\n")
        with pytest.raises(TraceFormatError, match="header"):
            list(iter_trace_chunks(path))

    def test_csv_malformed_row_mid_stream(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# repro-trace v1\n1.0,1,2,40,6\n2.0,zap,2,40,6\n")
        chunks = iter_trace_chunks(path, chunk_size=1)
        assert len(next(chunks)) == 1
        with pytest.raises(TraceFormatError, match="bad.csv:3"):
            next(chunks)

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rpt"
        path.write_bytes(b"NOTATRACE")
        with pytest.raises(TraceFormatError, match="magic"):
            list(iter_trace_chunks(path))

    def test_binary_truncated_mid_stream(self, tmp_path):
        trace = make_trace(50)
        path = tmp_path / "t.rpt"
        write_trace(trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(TraceFormatError, match="truncated"):
            list(iter_trace_chunks(path, chunk_size=20))

    def test_binary_trailing_bytes_rejected(self, tmp_path):
        trace = make_trace(10)
        path = tmp_path / "t.rpt"
        write_trace(trace, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(TraceFormatError, match="trailing"):
            list(iter_trace_chunks(path, chunk_size=4))

    @pytest.mark.parametrize(
        "read",
        [read_binary, read_trace, lambda path: list(iter_trace_chunks(path))],
        ids=["read_binary", "read_trace", "iter_trace_chunks"],
    )
    def test_binary_truncated_header(self, tmp_path, read):
        """The whole-file readers used to raise a bare ``struct.error``."""
        path = tmp_path / "t.rpt"
        path.write_bytes(_BINARY_MAGIC + struct.pack("<I", 1))  # 4 of 8 bytes
        with pytest.raises(TraceFormatError, match="truncated header"):
            read(path)


class TestBoundedMemoryContract:
    def test_chunks_are_lazy(self, tmp_path):
        """The iterator yields without reading the whole file first."""
        trace = make_trace(64)
        path = tmp_path / "t.rpt"
        write_trace(trace, path)
        iterator = iter_trace_chunks(path, chunk_size=8)
        first = next(iterator)
        assert len(first) == 8
        assert first == trace.select(np.arange(len(trace)) < 8)
