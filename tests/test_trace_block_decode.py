"""Block CSV decoder vs the reference line loop: grammar/error parity.

The block decoder (:func:`repro.trace.io._iter_csv_column_blocks` and the
``np.loadtxt`` fast path under it) must be observationally identical to
the original per-line parse loop, which survives as
:func:`repro.trace.io._reference_iter_csv_rows` — same accepted grammar,
same decoded values bit-for-bit, same ``TraceFormatError`` text and line
numbers, same chunk boundaries.  These tests force text-block splits at
adversarial offsets by shrinking ``_CSV_BLOCK_CHARS`` and compare
everything against the reference oracles.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.trace.io as trace_io
from repro.errors import TraceFormatError
from repro.trace.io import (
    _CSV_HEADER,
    _reference_iter_csv_chunks,
    _reference_iter_csv_rows,
    iter_trace_chunks,
    read_csv,
    write_csv,
)
from repro.trace.packet import PacketTrace


def make_trace(n: int, seed: int = 11) -> PacketTrace:
    rng = np.random.default_rng(seed)
    return PacketTrace(
        timestamps=np.sort(rng.uniform(0, 1000, n)).round(6),
        sources=rng.integers(0, 2**32, n, dtype=np.uint32),
        destinations=rng.integers(0, 100, n),
        sizes=rng.integers(40, 1500, n),
        protocols=rng.integers(0, 256, n),
    )


def reference_read(path) -> PacketTrace:
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()  # header
        return trace_io._trace_from_rows(
            list(_reference_iter_csv_rows(fh, path))
        )


def assert_bit_identical(a: PacketTrace, b: PacketTrace) -> None:
    for name in ("timestamps", "sources", "destinations", "sizes",
                 "protocols"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype
        np.testing.assert_array_equal(left, right)


class TestBlockBoundaries:
    """Decoding must not depend on where the text blocks split."""

    @pytest.mark.parametrize("block_chars", [1, 3, 7, 16, 64, 1024])
    def test_every_split_offset_decodes_identically(
        self, tmp_path, monkeypatch, block_chars
    ):
        trace = make_trace(97)
        path = tmp_path / "t.csv"
        write_csv(trace, path)
        expected = reference_read(path)
        monkeypatch.setattr(trace_io, "_CSV_BLOCK_CHARS", block_chars)
        assert_bit_identical(read_csv(path), expected)

    def test_block_smaller_than_one_line(self, tmp_path, monkeypatch):
        """A block size below one record forces multi-read carries."""
        path = tmp_path / "t.csv"
        path.write_text(f"{_CSV_HEADER}\n1.5,1,2,40,6\n2.25,3,4,1500,17\n")
        monkeypatch.setattr(trace_io, "_CSV_BLOCK_CHARS", 2)
        trace = read_csv(path)
        assert trace.timestamps.tolist() == [1.5, 2.25]
        assert trace.sizes.tolist() == [40, 1500]

    def test_trailing_line_without_newline(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        path.write_text(f"{_CSV_HEADER}\n1.0,1,2,40,6\n2.0,3,4,80,17")
        for block_chars in (4, 1 << 20):
            monkeypatch.setattr(trace_io, "_CSV_BLOCK_CHARS", block_chars)
            trace = read_csv(path)
            assert trace.timestamps.tolist() == [1.0, 2.0]
            assert trace.sources.tolist() == [1, 3]

    def test_chunk_boundaries_match_reference_chunker(
        self, tmp_path, monkeypatch
    ):
        """Chunk splits are pinned to the per-row reference chunker."""
        trace = make_trace(157)
        path = tmp_path / "t.csv"
        write_csv(trace, path)
        for block_chars in (13, 100, 1 << 20):
            monkeypatch.setattr(trace_io, "_CSV_BLOCK_CHARS", block_chars)
            for chunk_size in (1, 7, 64, 157, 1000):
                fast = list(iter_trace_chunks(path, chunk_size=chunk_size))
                ref = list(_reference_iter_csv_chunks(path, chunk_size))
                assert [len(c) for c in fast] == [len(c) for c in ref]
                for f, r in zip(fast, ref):
                    assert_bit_identical(f, r)


class TestGrammarParity:
    """Comments, blanks, and whitespace parse exactly like the loop."""

    CONTENT = (
        f"{_CSV_HEADER}\n"
        "# a comment line\n"
        "1.0,1,2,40,6\n"
        "\n"
        "   \n"
        "# another comment\n"
        "  2.5,3,4,80,17  \n"
        "3.0,5,6,120,6\n"
    )

    @pytest.mark.parametrize("block_chars", [1, 5, 37, 1 << 20])
    def test_comments_and_blanks_skipped(
        self, tmp_path, monkeypatch, block_chars
    ):
        path = tmp_path / "t.csv"
        path.write_text(self.CONTENT)
        monkeypatch.setattr(trace_io, "_CSV_BLOCK_CHARS", block_chars)
        trace = read_csv(path)
        assert trace.timestamps.tolist() == [1.0, 2.5, 3.0]
        assert_bit_identical(trace, reference_read(path))

    @pytest.mark.parametrize("block_chars", [1, 5, 1 << 20])
    @pytest.mark.parametrize(
        "body", ["\n  \n\t\n", "1.0,1,2,40,6\n\n \n"],
        ids=["blanks", "row-then-blanks"],
    )
    def test_blank_only_blocks_decode_without_warnings(
        self, tmp_path, monkeypatch, block_chars, body
    ):
        """A block of blank lines holds no rows; loadtxt warned on it."""
        path = tmp_path / "t.csv"
        path.write_text(f"{_CSV_HEADER}\n{body}")
        monkeypatch.setattr(trace_io, "_CSV_BLOCK_CHARS", block_chars)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = read_csv(path)
        assert_bit_identical(trace, reference_read(path))

    def test_scientific_notation_and_int_floats(self, tmp_path):
        """Anything ``float()``/``int()`` accept must decode identically."""
        path = tmp_path / "t.csv"
        path.write_text(
            f"{_CSV_HEADER}\n"
            "1e-3,1,2,40,6\n"
            "2.5E0,3,4,80,17\n"
            "3,5,6,120,6\n"  # integer-literal timestamp
            "+4.0,007,8,160,17\n"  # leading + / zero-padded int
        )
        assert_bit_identical(read_csv(path), reference_read(path))


class TestErrorParity:
    """Malformed input raises the reference loop's exact message."""

    def reference_error(self, path):
        with pytest.raises(TraceFormatError) as info:
            reference_read(path)
        return str(info.value)

    @pytest.mark.parametrize("block_chars", [1, 9, 1 << 20])
    @pytest.mark.parametrize(
        "bad_line",
        ["2.0,zap,2,40,6", "2.0,1,2,40", "2.0,1,2,40,6,9", "x", "2.0,1.5,2,40,6"],
    )
    def test_same_message_and_line_number(
        self, tmp_path, monkeypatch, block_chars, bad_line
    ):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"{_CSV_HEADER}\n# pad\n1.0,1,2,40,6\n{bad_line}\n3.0,1,2,40,6\n"
        )
        expected = self.reference_error(path)
        assert ":4:" in expected
        monkeypatch.setattr(trace_io, "_CSV_BLOCK_CHARS", block_chars)
        with pytest.raises(TraceFormatError) as info:
            read_csv(path)
        assert str(info.value) == expected

    def test_rows_before_error_still_chunked(self, tmp_path, monkeypatch):
        """Complete chunks before a malformed row surface before it raises."""
        lines = [f"{i}.0,1,2,40,6" for i in range(1, 8)] + ["oops"]
        path = tmp_path / "bad.csv"
        path.write_text(_CSV_HEADER + "\n" + "\n".join(lines) + "\n")
        monkeypatch.setattr(trace_io, "_CSV_BLOCK_CHARS", 11)
        chunks = iter_trace_chunks(path, chunk_size=3)
        assert len(next(chunks)) == 3
        assert len(next(chunks)) == 3
        with pytest.raises(TraceFormatError, match="bad.csv:9"):
            next(chunks)

    def test_uint32_overflow_parity(self, tmp_path):
        """A >uint32 field overflows like the reference row path did."""
        path = tmp_path / "big.csv"
        path.write_text(f"{_CSV_HEADER}\n1.0,{2**32},2,40,6\n")
        with pytest.raises(OverflowError):
            read_csv(path)


row_strategy = st.tuples(
    st.floats(min_value=0, max_value=1e9, allow_nan=False,
              allow_infinity=False),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=255),
)


class TestHypothesisRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(row_strategy, max_size=40),
           block_chars=st.integers(min_value=1, max_value=200))
    def test_block_decode_matches_reference_rows(
        self, tmp_path_factory, rows, block_chars
    ):
        """Arbitrary decimal rows decode bit-identically to the loop."""
        rows = sorted(rows)  # PacketTrace needs non-decreasing timestamps
        text = _CSV_HEADER + "\n" + "".join(
            f"{t!r},{s},{d},{z},{p}\n" for t, s, d, z, p in rows
        )
        path = tmp_path_factory.mktemp("bd") / "t.csv"
        path.write_text(text)
        expected = reference_read(path)
        original = trace_io._CSV_BLOCK_CHARS
        trace_io._CSV_BLOCK_CHARS = block_chars
        try:
            decoded = read_csv(path)
        finally:
            trace_io._CSV_BLOCK_CHARS = original
        assert_bit_identical(decoded, expected)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=0, max_value=120),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_write_read_round_trip(self, tmp_path_factory, n, seed):
        """write_csv -> block read == write_csv -> reference read."""
        trace = make_trace(n, seed=seed)
        path = tmp_path_factory.mktemp("rt") / "t.csv"
        write_csv(trace, path)
        assert_bit_identical(read_csv(path), reference_read(path))
