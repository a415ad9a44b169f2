"""Trace file formats: a readable CSV and a compact binary format.

Two interchangeable on-disk encodings for :class:`~repro.trace.packet.PacketTrace`:

* **CSV** (``.csv``): a commented header line then
  ``timestamp,src,dst,size,protocol`` rows — greppable, diffable.
* **Binary** (``.rpt``): an 8-byte magic + little-endian packed records
  (``<d I I H B`` per packet) — compact enough for millions of packets.

Both round-trip exactly (binary) or to 6-decimal timestamps (CSV).

CSV decoding is block-vectorized: the reader pulls 256 Ki characters of
text at a time and splits record boundaries once.  A block whose rows
are all in the one grammar :func:`write_csv` emits is decoded in NumPy
by :func:`_fixed_point_columns`, to the bits ``float()`` and ``int()``
give.  The original line loop survives as
:func:`_reference_iter_csv_rows`, still the validation oracle: any other
block (comments, blank lines, other number formats, malformed rows) is
parsed by the reference loop, so the accepted grammar and every
``TraceFormatError`` message/line number are exactly the loop's.

CSV encoding is block-vectorized too: :func:`write_csv` formats each
block of rows in NumPy, rounding every timestamp exactly as ``%.6f`` does
(see :func:`_fixed_point_rows`), and keeps Python's ``%`` for the blocks
outside that formatter's domain; the file holds the bytes of a per-row
``%`` loop either way.  Besides the trace's columns, the binary writer
and reader each hold one block of packed records at a time.
"""

from __future__ import annotations

import functools
import io as io_module
import os
import struct
from pathlib import Path

import numpy as np

from repro.errors import ParameterError, TraceFormatError
from repro.trace.packet import PacketTrace
from repro.utils.validation import require_int_at_least

_CSV_HEADER = "# repro-trace v1: timestamp,src,dst,size,protocol"
_BINARY_MAGIC = b"RPTRACE1"
_RECORD = struct.Struct("<dIIHB")
#: numpy equivalent of ``_RECORD``: packed (no padding), little-endian.
_RECORD_DTYPE = np.dtype(
    [
        ("timestamp", "<f8"),
        ("src", "<u4"),
        ("dst", "<u4"),
        ("size", "<u2"),
        ("proto", "u1"),
    ]
)
assert _RECORD_DTYPE.itemsize == _RECORD.size
#: Rows formatted and written per block when writing CSV: bounds what a
#: block holds at once (about 1.5 MiB traced at 2^13 rows, whatever the
#: trace's length).
_CSV_CHUNK = 1 << 13
#: One CSV row, as Python's ``%`` operator formats it.
_CSV_ROW = "%.6f,%d,%d,%d,%d"
#: ``write_csv`` formats a block in NumPy when its timestamps are all
#: below this (2^52/10^6, about 4.5e9 s) and carry no sign bit.
_FIXED_POINT_BOUND = 2.0**52 / 1e6
#: Records packed and written per block when writing binary (1.2 MiB).
_BINARY_CHUNK = 1 << 16
#: Where the second and third runs of :func:`_digit_words` start.
_LONE_ZERO, _PADDED = 10_000, 20_000


@functools.cache
def _digit_words() -> np.ndarray:
    """Every 4-digit group 0000-9999 as the little-endian uint32 of its
    ASCII bytes, in three runs of 10^4: leading zeros as NUL bytes (0000
    all NUL), the same with 0000 as a lone ``"0"``, and zero-padded.

    Built on first use (120 KB), so importing this module costs nothing
    to a program that writes no CSV.
    """
    words = np.empty((3, 10_000, 4), dtype=np.uint8)
    words[2] = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
    leading = np.arange(10_000, dtype=np.int16)[:, None] < np.array(
        [1000, 100, 10, 1], dtype=np.int16
    )
    words[0] = np.where(leading, 0, words[2])
    words[1] = words[0]
    words[1, 0, 3] = ord("0")
    table = words.view("<u4").ravel()
    table.flags.writeable = False
    return table


# --------------------------------------------------------------------- CSV
def write_csv(trace: PacketTrace, path) -> None:
    """Write a trace in the CSV format (overwrites ``path``).

    The file holds exactly the bytes ``_CSV_ROW % row`` gives each row.
    Each block of ``_CSV_CHUNK`` rows is formatted in NumPy by
    :func:`_fixed_point_rows` when its timestamps lie in that formatter's
    domain: no sign bit and below ``_FIXED_POINT_BOUND`` = 2^52/10^6
    (about 4.5e9 s, so every epoch timestamp).  There ``np.rint(x * 1e6)``
    rounds to microseconds exactly as ``%.6f`` does, except where the
    product is exactly a half-integer, and there the sign of the exact
    residual x·10^6 - fl(x·10^6) picks the neighbour.  A block with a NaN,
    an inf, a negative or signed-zero timestamp, or one at or above the
    bound keeps one Python ``%`` call per row.  Either way the block goes
    to the file in one write.
    """
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(_CSV_HEADER.encode("ascii") + b"\n")
        for start in range(0, len(trace), _CSV_CHUNK):
            stop = start + _CSV_CHUNK
            columns = (
                trace.timestamps[start:stop],
                trace.sources[start:stop],
                trace.destinations[start:stop],
                trace.sizes[start:stop],
                trace.protocols[start:stop],
            )
            block = _fixed_point_rows(*columns)
            if block is None:
                rows = zip(*(column.tolist() for column in columns))
                text = "\n".join(map(_CSV_ROW.__mod__, rows)) + "\n"
                block = text.encode("ascii")
            fh.write(block)


def _fixed_point_rows(timestamps, *integers):
    """The bytes ``_CSV_ROW`` gives a block of rows, or ``None`` when a
    timestamp lies outside the domain where this formatter is exact.

    ``%.6f`` prints the integer nearest the exact product x·10^6 (ties to
    even) with six decimals.  The domain is every x below
    ``_FIXED_POINT_BOUND`` without a sign bit (so neither NaN nor inf):
    there x·10^6 and its double p = fl(x·10^6) lie below 2^52.  Every
    integer and half-integer below 2^52 is a double, so rounding x·10^6
    to p never crosses one, and ``np.rint(p)`` is the answer unless p is
    itself a half-integer.  Then the sign of the exact residual x·10^6 - p
    picks the neighbour, and a zero residual is a true tie, which
    ``rint`` breaks to even as ``%`` does.  The residual is Dekker's
    two-product (Numer. Math. 18, 1971), with x split by Veltkamp; 10^6
    needs no split.

    Each row is laid out in a byte array, every number as 4-digit groups
    from :func:`_digit_words` (as few groups as the block's largest value
    needs) with its leading zeros as NUL bytes; dropping the NULs leaves
    the rows' text.
    """
    if not (timestamps < _FIXED_POINT_BOUND).all() or np.signbit(timestamps).any():
        return None
    scaled = timestamps * 1e6
    micros = np.rint(scaled)
    ties = np.flatnonzero(np.abs(scaled - micros) == 0.5)
    if ties.size:
        x, p = timestamps[ties], scaled[ties]
        split = x * 134217729.0  # 2^27 + 1
        x_high = split - (split - x)
        residual = (x_high * 1e6 - p) + (x - x_high) * 1e6
        micros[ties] = np.where(
            residual == 0.0, micros[ties], p + np.copysign(0.5, residual)
        )
    whole, fraction = np.divmod(micros.astype(np.int64), 1_000_000)
    # int64 throughout: the table offsets would overflow a uint8 column.
    numbers = [whole] + [column.astype(np.int64) for column in integers]
    groups = [1 + int(top >= 10**4) + int(top >= 10**8)
              for top in (number.max() for number in numbers)]
    # The whole part, then "." and six digits in two groups, then a ","
    # before each integer column, then a newline.
    rows = np.empty((whole.size, 4 * sum(groups) + 13), dtype=np.uint8)
    at = _put_number(rows, 0, whole, groups[0])
    high, low = np.divmod(fraction, 10_000)
    words = rows[:, at:at + 8].view("<u4")
    # "00dd" becomes "\0.dd": NUL, the point, the first two digits.
    words[:, 0] = (_digit_words()[_PADDED + high] & 0xFFFF0000) | ord(".") << 8
    words[:, 1] = _digit_words()[_PADDED + low]
    at += 8
    for number, count in zip(numbers[1:], groups[1:]):
        rows[:, at] = ord(",")
        at = _put_number(rows, at + 1, number, count)
    rows[:, at] = ord("\n")
    return rows[rows != 0]


def _put_number(rows, at: int, number, count: int) -> int:
    """Write ``number``'s digits as ``count`` 4-digit groups from byte
    ``at`` of each row, leading zeros as NUL; return the next byte."""
    words = rows[:, at:at + 4 * count].view("<u4")
    for j in range(count - 1, 0, -1):
        number, group = np.divmod(number, 10_000)
        # Zero-padded below a nonzero group; a zero lowest group alone
        # prints as "0".
        run = np.where(number > 0, _PADDED, _LONE_ZERO if j == count - 1 else 0)
        words[:, j] = _digit_words()[run + group]
    words[:, 0] = _digit_words()[number + (_LONE_ZERO if count == 1 else 0)]
    return at + 4 * count


def _reference_iter_csv_rows(fh, path, *, start: int = 2):
    """Yield parsed ``(timestamp, src, dst, size, proto)`` rows.

    The original per-line parse loop, now the oracle for the block
    decoder: it defines the accepted grammar (comment/blank-line
    skipping included) and the exact ``TraceFormatError`` text.  The
    fast path re-runs any undecodable block through this loop, with
    ``start`` carrying the true file line number of the block's first
    line so diagnostics are unchanged.  The header line must already
    have been consumed.
    """
    for lineno, line in enumerate(fh, start=start):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise TraceFormatError(
                f"{path}:{lineno}: expected 5 fields, got {len(parts)}"
            )
        try:
            yield (
                float(parts[0]),
                int(parts[1]),
                int(parts[2]),
                int(parts[3]),
                int(parts[4]),
            )
        except ValueError as exc:
            raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc


def _check_csv_header(fh, path) -> None:
    first = fh.readline().rstrip("\n")
    if not first.startswith("# repro-trace v1"):
        raise TraceFormatError(
            f"{path}: missing 'repro-trace v1' header (got {first!r})"
        )


def _trace_from_rows(rows) -> PacketTrace:
    return PacketTrace(
        timestamps=[r[0] for r in rows],
        sources=[r[1] for r in rows],
        destinations=[r[2] for r in rows],
        sizes=[r[3] for r in rows],
        protocols=[r[4] for r in rows],
    )


#: Text pulled per read by the block decoder (256 Ki characters): large
#: enough that the per-block Python overhead amortises to nothing, small
#: enough that :func:`_fixed_point_columns`'s arrays stay in cache.
#: Tests shrink it to force boundary splits.
_CSV_BLOCK_CHARS = 1 << 18

#: The dtypes of :class:`PacketTrace`'s columns, in its order, which
#: every decoded CSV block has (``size`` is uint32, not the binary
#: format's uint16).
_COLUMN_DTYPES = (np.float64, np.uint32, np.uint32, np.uint32, np.uint8)

#: The marks that end the six fields of a ``write_csv`` row, in order.
_ROW_MARKS = np.frombuffer(b".,,,,\n", dtype=np.uint8)
#: ``_DIGIT_MASKS[w]`` keeps the digit values (low nibbles) of the last
#: ``w`` bytes of a little-endian 8-byte window, all eight from w = 8.
_DIGIT_MASKS = np.array(
    [0x0F0F0F0F0F0F0F0F << 8 * max(8 - w, 0) & 0xFFFFFFFFFFFFFFFF
     for w in range(11)],
    dtype=np.uint64,
)


def _fixed_point_columns(data: bytes):
    """The columns of a block of complete rows in the grammar
    :func:`write_csv` emits, decoded in NumPy, or ``None`` when any line
    of the block lies outside it.

    The grammar is ``W.FFFFFF,src,dst,size,proto`` and a newline: every
    field has 1-10 ASCII digits, the fraction exactly six, src, dst and
    size are at most 2^32 - 1, proto at most 255, and N = W·10^6 + F lies
    below 2^53.  Each row decodes to the bits the reference loop's
    ``float()`` and ``int()`` give it: N and 10^6 are exact doubles, so
    ``N / 1e6`` is the double nearest N/10^6, the value ``float()``
    rounds the text to (Clinger's fast path, PLDI 1990).  Anything else
    (comments, blanks, signs, exponents, spaces, other decimal counts,
    out-of-range values) returns ``None``, and the block goes to
    :func:`_decode_csv_text` and the reference loop.

    Every byte below ``"0"`` is a mark: each row's six must read
    ``.,,,,\\n``, and every other byte must be a digit.  A field is the
    unaligned little-endian 8-byte window that ends at its mark, masked
    to the field's width and turned into an integer by three SWAR
    multiply-shift steps (:func:`_swar_digits`); a 9- or 10-digit field
    adds the window before that one times 10^8.  The checks that reject
    most blocks outside the grammar come first, so such a block costs
    little before the reference loop takes it.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    # Most blocks outside the grammar show it in their first row, which
    # fits in 62 bytes: its marks alone cost little to check.
    first = np.flatnonzero(b[:62] < ord("0"))[:6]
    if first.size < 6 or first[1] - first[0] != 7:
        return None
    if not (b[first] == _ROW_MARKS).all():
        return None
    marks = np.flatnonzero(b < ord("0"))
    n = marks.size // 6
    if not n or marks.size != 6 * n or marks[-1] != b.size - 1:
        return None
    if b.max() > ord("9"):
        return None
    # The digits of each field: the gap before its mark.
    widths = np.empty_like(marks)
    widths[0] = marks[0]
    np.subtract(marks[1:], marks[:-1], out=widths[1:])
    widths[1:] -= 1
    if not (widths[1::6] == 6).all() or widths.min() < 1 or widths.max() > 10:
        return None
    if not (b[marks].reshape(n, 6) == _ROW_MARKS).all():
        return None
    # Sixteen zero bytes ahead of the block keep every window inside the
    # buffer, the second one of a 10-digit first field included.
    padded = np.zeros(16 + b.size, dtype=np.uint8)
    padded[16:] = b
    windows = np.ndarray((padded.size - 7,), "<u8", padded, 0, (1,))
    # In ``padded`` the window [mark - 8, mark) starts at mark + 8.  Fancy
    # indexing reads the overlapping windows where they lie; ``take``
    # would first copy them all, 8 bytes for each byte of the block.
    starts = marks
    starts += 8  # in place: the marks are not needed again
    values = _swar_digits(windows[starts], widths)
    long = np.flatnonzero(widths > 8)
    if long.size:
        values[long] += 10**8 * _swar_digits(
            windows[starts[long] - 8], widths[long] - 8
        )
    fields = values.reshape(n, 6)
    if fields[:, 2:5].max() > 0xFFFFFFFF or fields[:, 5].max() > 0xFF:
        return None
    micros = fields[:, 0] * 10**6
    micros += fields[:, 1]
    if micros.max() >= 1 << 53:
        return None
    timestamps = micros.astype(np.float64)
    timestamps /= 1e6
    return (
        timestamps,
        fields[:, 2].astype(np.uint32),
        fields[:, 3].astype(np.uint32),
        fields[:, 4].astype(np.uint32),
        fields[:, 5].astype(np.uint8),
    )


def _swar_digits(windows, widths):
    """The integer each little-endian 8-byte window spells in its last
    ``widths`` bytes of ASCII digits (at most 8).

    The window's first byte is its most significant digit.  After the
    mask, three multiply-shift steps fold neighbouring digits into
    pairs, the pairs into fours and the fours into the eight-digit
    value, every lane in one uint64 at once; the multiplications wrap
    modulo 2^64 only above the lanes they keep.
    """
    value = _DIGIT_MASKS.take(widths)
    value &= windows
    value *= 10 << 8 | 1
    value >>= 8
    value &= 0x00FF00FF00FF00FF
    value *= 100 << 16 | 1
    value >>= 16
    value &= 0x0000FFFF0000FFFF
    value *= 10_000 << 32 | 1
    value >>= 32
    return value


def _columns_from_rows(rows):
    """Reference-path column conversion: python lists -> typed arrays.

    Conversion from *python* scalars keeps the reference loop's error
    behaviour.  A value its column's dtype cannot hold (an ``int``
    outside uint32 or uint8) keeps the block's columns as object arrays,
    so that the ``OverflowError`` comes when the chunk holding the value
    is built (:func:`_take_chunk`): where the reference chunker raises
    it, after every earlier chunk, and only if no malformed line comes
    first.
    """
    try:
        return tuple(
            np.asarray([r[i] for r in rows], dtype=dtype)
            for i, dtype in enumerate(_COLUMN_DTYPES)
        )
    except OverflowError:
        return tuple(
            np.array([r[i] for r in rows], dtype=object) for i in range(5)
        )


def _decode_csv_text(text: str, first_lineno: int, path):
    """Decode a block of complete CSV lines that
    :func:`_fixed_point_columns` rejected (or a last line without its
    newline) with the reference loop.

    Returns ``(columns, error)`` where ``columns`` is the 5-tuple of
    arrays for every row decoded before ``error`` (a deferred
    :class:`TraceFormatError`, or ``None``).  The rows come from
    :func:`_reference_iter_csv_rows`, so such a block has the
    reference's values, skipping rules and error text by construction.
    """
    rows = []
    error = None
    source = _reference_iter_csv_rows(
        io_module.StringIO(text), path, start=first_lineno
    )
    while True:
        try:
            rows.append(next(source))
        except StopIteration:
            break
        except TraceFormatError as exc:
            error = exc
            break
    return _columns_from_rows(rows), error


def _iter_csv_column_blocks(fh, path):
    """Yield ``(columns, error)`` per decoded block; stop after an error.

    Reads ``_CSV_BLOCK_CHARS`` of text at a time, splits records at the
    last newline (the partial trailing line carries into the next
    block), and block-decodes the complete lines: in NumPy by
    :func:`_fixed_point_columns` when every line is in ``write_csv``'s
    grammar (then one row per line), else by :func:`_decode_csv_text`.
    The reader stays in text mode, so Python translates CRLF and CR
    line ends before either decoder sees them.  Rows decoded before
    a malformed line are still yielded with the deferred error so the
    chunk assembler can emit every complete preceding chunk first —
    exactly when the per-row reference chunker would have surfaced it.
    """
    carry = ""
    lineno = 2  # the header was line 1
    while True:
        text = fh.read(_CSV_BLOCK_CHARS)
        if not text:
            break
        text = carry + text
        cut = text.rfind("\n")
        if cut < 0:
            carry = text
            continue
        block, carry = text[: cut + 1], text[cut + 1 :]
        if block.isascii():
            columns = _fixed_point_columns(block.encode("ascii"))
            if columns is not None:
                yield columns, None
                lineno += columns[0].size
                continue
        columns, error = _decode_csv_text(block, lineno, path)
        yield columns, error
        if error is not None:
            return
        lineno += block.count("\n")
    if carry:  # trailing line without a final newline
        yield _decode_csv_text(carry, lineno, path)


def _take_chunk(blocks: list, n: int) -> PacketTrace:
    """Pop exactly ``n`` rows off the front of ``blocks`` as a trace.

    Each piece is cast to its column's dtype, column by column in
    :class:`PacketTrace`'s order, before the pieces are joined: a block
    kept as object arrays (see :func:`_columns_from_rows`) then raises
    the ``OverflowError`` that building the chunk from rows raises, and
    never turns the whole chunk's columns into objects first.
    """
    pieces = []
    need = n
    while need:
        block = blocks[0]
        size = block[0].size
        if size <= need:
            pieces.append(blocks.pop(0))
            need -= size
        else:
            pieces.append(tuple(column[:need] for column in block))
            blocks[0] = tuple(column[need:] for column in block)
            need = 0
    if len(pieces) == 1:
        columns = pieces[0]
    else:
        columns = tuple(
            np.concatenate([piece[i].astype(dtype, copy=False)
                            for piece in pieces])
            for i, dtype in enumerate(_COLUMN_DTYPES)
        )
    return PacketTrace(*columns)


def read_csv(path) -> PacketTrace:
    """Read a CSV trace written by :func:`write_csv`.

    Routed through the block-decoding chunk iterator so header and row
    validation live in exactly one place; the whole file is one chunk.
    """
    path = Path(path)
    chunks = list(_iter_csv_chunks(path, chunk_size=None))
    if not chunks:
        return _trace_from_rows([])
    return chunks[0]


# ------------------------------------------------------------------ binary
def _check_binary_header(data: bytes, path) -> None:
    """Raise unless ``data`` starts with the magic and the packet count."""
    if not data.startswith(_BINARY_MAGIC):
        raise TraceFormatError(f"{path}: bad magic, not a repro binary trace")
    if len(data) < len(_BINARY_MAGIC) + 8:
        raise TraceFormatError(f"{path}: truncated header")


def write_binary(trace: PacketTrace, path) -> None:
    """Write a trace in the compact binary format (overwrites ``path``).

    Each block of ``_BINARY_CHUNK`` records is packed into one reused
    structured array and written through a memoryview of it —
    byte-identical to the per-packet ``struct.pack`` loop it replaced,
    without the per-packet Python cost or a second copy of the trace.
    """
    path = Path(path)
    if trace.sizes.max(initial=0) > 0xFFFF:
        raise TraceFormatError(
            "packet size exceeds the binary format's uint16 range"
        )
    n = len(trace)
    records = np.empty(min(n, _BINARY_CHUNK), dtype=_RECORD_DTYPE)
    with path.open("wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<Q", n))
        for start in range(0, n, _BINARY_CHUNK):
            block = records[: min(n - start, _BINARY_CHUNK)]
            stop = start + block.size
            block["timestamp"] = trace.timestamps[start:stop]
            block["src"] = trace.sources[start:stop]
            block["dst"] = trace.destinations[start:stop]
            block["size"] = trace.sizes[start:stop]
            block["proto"] = trace.protocols[start:stop]
            fh.write(memoryview(block))


def read_binary(path) -> PacketTrace:
    """Read a binary trace written by :func:`write_binary`.

    The header's packet count is checked against the file's size before
    anything is allocated.  The five columns are then filled from one
    reused block of ``_BINARY_CHUNK`` records at a time, so the reader
    holds one copy of the trace, plus one block.
    """
    path = Path(path)
    with path.open("rb") as fh:
        header = fh.read(len(_BINARY_MAGIC) + 8)
        _check_binary_header(header, path)
        (count,) = struct.unpack_from("<Q", header, len(_BINARY_MAGIC))
        expected = len(header) + count * _RECORD.size
        found = os.fstat(fh.fileno()).st_size
        if found != expected:
            raise TraceFormatError(
                f"{path}: truncated or oversized trace "
                f"(expected {expected} bytes, found {found})"
            )
        columns = {
            "timestamp": np.empty(count, dtype=np.float64),
            "src": np.empty(count, dtype=np.uint32),
            "dst": np.empty(count, dtype=np.uint32),
            "size": np.empty(count, dtype=np.uint32),
            "proto": np.empty(count, dtype=np.uint8),
        }
        records = np.empty(min(count, _BINARY_CHUNK), dtype=_RECORD_DTYPE)
        for start in range(0, count, _BINARY_CHUNK):
            block = records[: min(count - start, _BINARY_CHUNK)]
            if fh.readinto(block) != block.nbytes:
                raise TraceFormatError(
                    f"{path}: truncated or oversized trace "
                    f"(header promised {count} packets)"
                )
            for name, column in columns.items():
                column[start:start + block.size] = block[name]
    return PacketTrace(*columns.values())


# --------------------------------------------------------------- chunked
#: Default packets per chunk for the streaming readers: large enough to
#: amortise per-chunk overhead, small enough (~1 MiB of binary records)
#: to keep memory bounded on traces far larger than RAM.
DEFAULT_CHUNK_PACKETS = 1 << 16


def _iter_csv_chunks(path: Path, chunk_size):
    """Yield block-decoded CSV chunks of exactly ``chunk_size`` packets.

    Chunk boundaries are identical to :func:`_reference_iter_csv_chunks`
    (every chunk is full except possibly the last), decoupled from the
    decoder's text-block boundaries by a small column buffer.  On a
    malformed row, every complete preceding chunk is yielded before the
    deferred :class:`TraceFormatError` raises — the same surfacing
    order as the per-row reference.  ``chunk_size=None`` means
    unbounded (one chunk: the whole file, used by :func:`read_csv`).
    """
    with path.open("r", encoding="utf-8") as fh:
        _check_csv_header(fh, path)
        blocks: list = []
        buffered = 0
        for columns, error in _iter_csv_column_blocks(fh, path):
            if columns[0].size:
                blocks.append(columns)
                buffered += columns[0].size
            while chunk_size is not None and buffered >= chunk_size:
                yield _take_chunk(blocks, chunk_size)
                buffered -= chunk_size
            if error is not None:
                raise error
        if buffered:
            yield _take_chunk(blocks, buffered)


def _reference_iter_csv_chunks(path: Path, chunk_size: int):
    """The original per-row CSV chunker: the block decoder's oracle.

    Pins both the decoded values and the chunk boundaries — the fast
    iterator must yield array-identical chunks with identical splits.
    """
    with path.open("r", encoding="utf-8") as fh:
        _check_csv_header(fh, path)
        rows = []
        for row in _reference_iter_csv_rows(fh, path):
            rows.append(row)
            if len(rows) == chunk_size:
                yield _trace_from_rows(rows)
                rows = []
        if rows:
            yield _trace_from_rows(rows)


def _iter_binary_chunks(path: Path, chunk_size: int):
    with path.open("rb") as fh:
        header = fh.read(len(_BINARY_MAGIC) + 8)
        _check_binary_header(header, path)
        (count,) = struct.unpack_from("<Q", header, len(_BINARY_MAGIC))
        remaining = count
        while remaining > 0:
            n = min(remaining, chunk_size)
            data = fh.read(n * _RECORD.size)
            if len(data) != n * _RECORD.size:
                raise TraceFormatError(
                    f"{path}: truncated or oversized trace "
                    f"(header promised {count} packets)"
                )
            records = np.frombuffer(data, dtype=_RECORD_DTYPE, count=n)
            yield PacketTrace(
                records["timestamp"].astype(np.float64),
                records["src"].astype(np.uint32),
                records["dst"].astype(np.uint32),
                records["size"].astype(np.uint32),
                records["proto"].astype(np.uint8),
            )
            remaining -= n
        if fh.read(1):
            raise TraceFormatError(
                f"{path}: truncated or oversized trace "
                f"(trailing bytes after {count} packets)"
            )


def iter_trace_chunks(path, *, chunk_size: int = DEFAULT_CHUNK_PACKETS):
    """Iterate a trace file as bounded-memory :class:`PacketTrace` chunks.

    Yields successive chunks of at most ``chunk_size`` packets, in file
    order, choosing the format from the extension exactly like
    :func:`read_trace` — but only ever holding one chunk in memory, so
    traces far larger than RAM can feed streamed reductions.  The last
    chunk may be partial; an empty trace yields no chunks.

    ``chunk_size`` follows ``require_int_at_least``: an integral float
    is used as its int, and a bool, a non-integral value or one below 1
    raises :class:`TraceFormatError`.
    """
    path = Path(path)
    try:
        chunk_size = require_int_at_least("chunk_size", chunk_size, 1)
    except ParameterError as exc:
        raise TraceFormatError(str(exc)) from None
    if path.suffix == ".csv":
        return _iter_csv_chunks(path, chunk_size)
    if path.suffix == ".rpt":
        return _iter_binary_chunks(path, chunk_size)
    raise TraceFormatError(
        f"unknown trace extension {path.suffix!r} (use .csv or .rpt)"
    )


# ---------------------------------------------------------------- dispatch
def write_trace(trace: PacketTrace, path) -> None:
    """Write ``trace`` choosing the format from the file extension."""
    path = Path(path)
    if path.suffix == ".csv":
        write_csv(trace, path)
    elif path.suffix == ".rpt":
        write_binary(trace, path)
    else:
        raise TraceFormatError(
            f"unknown trace extension {path.suffix!r} (use .csv or .rpt)"
        )


def read_trace(path) -> PacketTrace:
    """Read a trace choosing the format from the file extension."""
    path = Path(path)
    if path.suffix == ".csv":
        return read_csv(path)
    if path.suffix == ".rpt":
        return read_binary(path)
    raise TraceFormatError(
        f"unknown trace extension {path.suffix!r} (use .csv or .rpt)"
    )
