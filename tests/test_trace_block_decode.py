"""Block CSV decoder vs the reference line loop: grammar/error parity.

The block decoder (:func:`repro.trace.io._iter_csv_column_blocks`: the
NumPy decoder of ``write_csv``'s grammar, and the reference loop for any
other block) must be observationally identical to the original per-line
parse loop, which survives as
:func:`repro.trace.io._reference_iter_csv_rows` — same accepted grammar,
same decoded values bit-for-bit, same ``TraceFormatError`` text and line
numbers, same chunk boundaries.  These tests force text-block splits at
adversarial offsets by shrinking ``_CSV_BLOCK_CHARS`` and compare
everything against the reference oracles.
"""

from __future__ import annotations

import warnings
from unittest import mock

import golden
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.trace.io as trace_io
from repro.errors import TraceFormatError
from repro.parallel.streaming import streamed_trace_size_moments
from repro.trace.io import (
    _CSV_HEADER,
    _reference_iter_csv_chunks,
    _reference_iter_csv_rows,
    iter_trace_chunks,
    read_csv,
    read_trace,
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
        """A block of blank lines holds no rows and warns of nothing
        (``np.loadtxt``, which once decoded such blocks, warned)."""
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


def refuse_fallback(*args):
    raise AssertionError("a block fell back to _decode_csv_text")


def outcome(read):
    """The chunks ``read()`` yields, then the type and text of what it
    raised (``None`` when it ran to the end)."""
    chunks = []
    try:
        for chunk in read():
            chunks.append(chunk)
    except (TraceFormatError, OverflowError) as exc:
        return chunks, (type(exc), str(exc))
    return chunks, None


def assert_same_outcome(fast, reference) -> None:
    (fast_chunks, fast_error), (ref_chunks, ref_error) = fast, reference
    assert fast_error == ref_error
    assert [len(c) for c in fast_chunks] == [len(c) for c in ref_chunks]
    for f, r in zip(fast_chunks, ref_chunks):
        assert_bit_identical(f, r)


#: A row's values: N microseconds (small, with a 10-digit whole part,
#: or up to 2^53 - 1, the last N in the grammar), src at the integer
#: fields' edges (1 and 10 digits, 8 and 9 digits, which take one window
#: or two, and the uint32 bound), dst, size and proto (to the uint8
#: bound), then the field to pad or alter and its digit count.
_row_values = st.tuples(
    st.one_of(st.integers(0, 10**9), st.integers(0, 2**53 - 1),
              st.integers(2**53 - 4, 2**53 - 1)),
    st.sampled_from((0, 1, 9, 10, 99_999_999, 100_000_000, 999_999_999,
                     1_000_000_000, 2**32 - 1)),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2000),
    st.sampled_from((0, 1, 6, 17, 254, 255)),
    st.integers(0, 4),
    st.integers(1, 10),
)
#: The ways a row can leave ``write_csv``'s grammar (values out of range
#: included); the reference loop still accepts some of them.
_styles = st.sampled_from((
    "uint32 overflow", "proto overflow", "2^53", "plus", "minus",
    "exponent", "int exponent", "5 decimals", "7 decimals", "space",
    "crlf", "nbsp", "non-ascii", "other line",
))
#: Lines that hold no row, or a malformed one.
_other_lines = st.sampled_from((
    "# a comment", "# caf\u00e9", "", "   ", "\t", "1.000000,1,2,40",
    "1.000000,1,2,40,6,7", "x", "1.5.0,1,2,3,4",
))
#: Values, prefixes and digits the off-grammar styles draw.
_past_uint32 = st.sampled_from((2**32, 9_999_999_999))
_past_uint8 = st.sampled_from((256, 999))
_past_2_53 = st.integers(2**53, 2**53 + 4) | st.just(10**16 - 1)
_exponents = st.sampled_from(("e0", "E+00", "e-6"))
_spaces = st.sampled_from((" ", "  ", "\t"))
_digits = st.integers(0, 9)


@st.composite
def csv_lines(draw, off_grammar: bool):
    """One line of a CSV body and its line end: a row in the grammar, or
    one ``_styles`` way outside it."""
    style = draw(_styles) if off_grammar else "grammar"
    if style == "other line":
        return draw(_other_lines), "\n"
    micros, *integers, at, digits = draw(_row_values)
    if style == "uint32 overflow":
        integers[min(at, 2)] = draw(_past_uint32)
    elif style == "proto overflow":
        integers[3] = draw(_past_uint8)
    elif style == "2^53":
        micros = draw(_past_2_53)
    whole, fraction = divmod(micros, 10**6)
    fields = [f"{whole}.{fraction:06d}"] + [str(value) for value in integers]
    # Leading zeros on one field, up to 10 digits in all.
    fields[at] = fields[at].zfill(digits + (at == 0) * 7)
    if style == "plus":
        fields[at] = "+" + fields[at]
    elif style == "minus":
        fields[at] = "-" + fields[at]
    elif style == "exponent":
        exponent = draw(_exponents)
        fields[0] = f"{micros}{exponent}" if exponent == "e-6" else (
            fields[0] + exponent)
    elif style == "int exponent":
        fields[max(at, 1)] += "e0"
    elif style == "5 decimals":
        fields[0] = fields[0][:-1]
    elif style == "7 decimals":
        fields[0] += str(draw(_digits))
    elif style == "space":
        fields[at] = draw(_spaces) + fields[at]
    elif style == "nbsp":
        fields[at] += "\u00a0"
    elif style == "non-ascii":
        fields[at] += "\u00e9"
    return ",".join(fields), "\r\n" if style == "crlf" else "\n"


_grammar_lines, _off_grammar_lines = csv_lines(False), csv_lines(True)
#: How many lines outside the grammar a body has: often none or one, so
#: that blocks holding one line outside it among rows in it are common.
_off_grammar_counts = st.sampled_from((0, 1, 1, 2, 8))


@st.composite
def csv_bodies(draw):
    """Up to 24 rows in the grammar, with lines outside it inserted at
    random places."""
    lines = draw(st.lists(_grammar_lines, max_size=24))
    for _ in range(draw(_off_grammar_counts)):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(_off_grammar_lines))
    return lines


def timestamp_key(line: str):
    """The timestamp the reference loop reads from ``line``, or ``None``."""
    try:
        return float(line.strip().split(",")[0])
    except ValueError:
        return None


class TestLineOutsideTheGrammar:
    @pytest.mark.parametrize("block_chars", [18, 1 << 18])
    @pytest.mark.parametrize("line", [
        "2.50000,1,2,40,6", "2.5000000,1,2,40,6", "2.5,1,2,40,6",
        "2,1,2,40,6", "+2.500000,1,2,40,6", "2.500000e0,1,2,40,6",
        "2.500000,1, 2,40,6", "2.500000,4294967296,2,40,6",
        "2.500000,1,2,40,256", "9007199254.740992,1,2,40,6",
        "2.500000,1,2,40,6\u00a0", "2.500000,1,2,40,-0",
        "2.500000,1,2,40,00000000006", "2.500000,1,2,,6",
        "2.500000,1,2,40,6,",
    ])
    def test_after_rows_in_the_grammar(
        self, tmp_path, monkeypatch, line, block_chars
    ):
        """A line outside the grammar after rows in it decodes, chunks
        and fails like the reference loop, at the same line number: in
        one block (the first row of a block is also checked on its own),
        and after blocks of one row each (18 characters)."""
        path = tmp_path / "t.csv"
        path.write_text(f"{_CSV_HEADER}\n1.000000,1,2,40,6\n"
                        f"2.000000,1,2,40,6\n{line}\n3.000000,1,2,40,6\n",
                        encoding="utf-8")
        monkeypatch.setattr(trace_io, "_CSV_BLOCK_CHARS", block_chars)
        assert_same_outcome(outcome(lambda: [read_csv(path)]),
                            outcome(lambda: [reference_read(path)]))
        assert_same_outcome(
            outcome(lambda: iter_trace_chunks(path, chunk_size=2)),
            outcome(lambda: _reference_iter_csv_chunks(path, 2)),
        )


class TestFixedPointDecoderProperty:
    """The NumPy decoder of ``write_csv``'s grammar against the
    reference loop, on files that mix rows at the grammar's edges with
    lines outside it."""

    @settings(max_examples=200, deadline=None)
    @given(lines=csv_bodies(),
           block_chars=st.integers(min_value=1, max_value=400),
           chunk_size=st.integers(min_value=1, max_value=12))
    def test_matches_reference_loop(
        self, tmp_path_factory, lines, block_chars, chunk_size
    ):
        """Values, chunk boundaries, error types, messages and line
        numbers all equal the reference loop's, whichever decoder takes
        each block.  The rows' timestamps are sorted in place among the
        lines that hold one, so a trace can be built from them."""
        keyed = [i for i, (line, _) in enumerate(lines)
                 if timestamp_key(line) is not None]
        ordered = sorted((lines[i] for i in keyed),
                         key=lambda item: timestamp_key(item[0]))
        for i, item in zip(keyed, ordered):
            lines[i] = item
        path = tmp_path_factory.mktemp("fp") / "t.csv"
        path.write_bytes(
            (_CSV_HEADER + "\n" + "".join(a + b for a, b in lines))
            .encode("utf-8")
        )
        reference_whole = outcome(lambda: [reference_read(path)])
        reference_chunks = outcome(
            lambda: _reference_iter_csv_chunks(path, chunk_size))
        with mock.patch.object(trace_io, "_CSV_BLOCK_CHARS", block_chars):
            assert_same_outcome(outcome(lambda: [read_csv(path)]),
                                reference_whole)
            assert_same_outcome(
                outcome(lambda: iter_trace_chunks(path, chunk_size=chunk_size)),
                reference_chunks,
            )

    @settings(max_examples=100, deadline=None)
    @given(
        timestamps=st.lists(
            st.one_of(
                st.floats(0, 1e4),
                st.floats(0, trace_io._FIXED_POINT_BOUND, exclude_max=True),
                st.integers(0, 2**40).map(lambda k: k / 256),
            ),
            max_size=40,
        ),
        data=st.data(),
        block_chars=st.sampled_from([1, 7, 64, 1000, 1 << 18]),
    )
    def test_write_csv_output_never_falls_back(
        self, tmp_path_factory, timestamps, data, block_chars
    ):
        """Every file ``write_csv`` writes for timestamps in its NumPy
        domain (non-negative, below 2^52/10^6) is in the grammar, at any
        block split: the fallback made to raise is never reached, and
        the packets equal the reference loop's."""
        n = len(timestamps)
        uint32 = st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)
        trace = PacketTrace(
            np.abs(np.sort(np.array(timestamps, dtype=np.float64))),
            data.draw(uint32),
            data.draw(uint32),
            data.draw(uint32),
            data.draw(st.lists(st.integers(0, 255), min_size=n, max_size=n)),
        )
        path = tmp_path_factory.mktemp("rt") / "t.csv"
        write_csv(trace, path)
        expected = reference_read(path)
        with mock.patch.object(trace_io, "_CSV_BLOCK_CHARS", block_chars), \
                mock.patch.object(trace_io, "_decode_csv_text",
                                  refuse_fallback):
            assert_bit_identical(read_csv(path), expected)


def test_crlf_file_takes_the_numpy_path(tmp_path, monkeypatch):
    """The reader's text mode turns CRLF into newlines before any decoder
    sees the block, so a ``write_csv`` file with CRLF line ends never
    reaches the fallback."""
    path, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    write_csv(make_trace(97), path)
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    expected = reference_read(path)
    monkeypatch.setattr(trace_io, "_decode_csv_text", refuse_fallback)
    monkeypatch.setattr(trace_io, "_CSV_BLOCK_CHARS", 64)
    assert_bit_identical(read_csv(crlf), expected)


class TestBenchmarkCaptureDecodesInNumpy:
    @pytest.mark.parametrize("seed", golden.PERFBENCH_SEEDS)
    def test_never_falls_back(self, captures, monkeypatch, seed):
        """``trace-monitor``'s capture never reaches the reference loop:
        with the fallback made to raise, reading the CSV whole and
        streaming its size moments both give the ``.rpt``'s results.  A
        capture that fell back would only be slower."""
        paths = captures[seed]
        monkeypatch.setattr(trace_io, "_decode_csv_text", refuse_fallback)
        assert_bit_identical(read_trace(paths["csv"]),
                             read_trace(paths["rpt"]))
        assert (streamed_trace_size_moments(paths["csv"])
                == streamed_trace_size_moments(paths["rpt"]))
