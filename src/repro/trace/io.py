"""Trace file formats: a readable CSV and a compact binary format.

Two interchangeable on-disk encodings for :class:`~repro.trace.packet.PacketTrace`:

* **CSV** (``.csv``): a commented header line then
  ``timestamp,src,dst,size,protocol`` rows — greppable, diffable.
* **Binary** (``.rpt``): an 8-byte magic + little-endian packed records
  (``<d I I H B`` per packet) — compact enough for millions of packets.

Both round-trip exactly (binary) or to 6-decimal timestamps (CSV).

CSV decoding is block-vectorized: the reader pulls ~1 MiB of text at a
time, splits record boundaries once, and hands the whole block to
``np.loadtxt``'s C tokenizer — one vectorized conversion per column per
block instead of a GIL-bound ``line.split(",")`` loop per packet.  The
original line loop survives as :func:`_reference_iter_csv_rows`, still
the validation oracle: any block the fast path cannot decode (comments,
blank lines, malformed rows) is re-parsed by the reference loop so the
accepted grammar and every ``TraceFormatError`` message/line number are
exactly the loop's.
"""

from __future__ import annotations

import io as io_module
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
#: Rows formatted and written per block when writing CSV: bounds the
#: Python lists and the joined text a block holds at once.
_CSV_CHUNK = 1 << 18
#: One CSV row, formatted whole by Python's ``%`` operator.
_CSV_ROW = "%.6f,%d,%d,%d,%d"


# --------------------------------------------------------------------- CSV
def write_csv(trace: PacketTrace, path) -> None:
    """Write a trace in the CSV format (overwrites ``path``).

    Each block of ``_CSV_CHUNK`` rows converts its five columns to Python
    scalars with ``tolist()``, formats every row with one ``%`` call, and
    joins the block into one write.  That is Python's own float and int
    formatting, the bytes a per-packet loop writes; a vectorised
    fixed-point formatter (``round(x * 1e6)``) would not round as
    ``%.6f`` does and is not a substitute.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(_CSV_HEADER + "\n")
        for start in range(0, len(trace), _CSV_CHUNK):
            stop = start + _CSV_CHUNK
            rows = zip(
                trace.timestamps[start:stop].tolist(),
                trace.sources[start:stop].tolist(),
                trace.destinations[start:stop].tolist(),
                trace.sizes[start:stop].tolist(),
                trace.protocols[start:stop].tolist(),
            )
            fh.write("\n".join(map(_CSV_ROW.__mod__, rows)))
            fh.write("\n")


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


#: Text pulled per read by the block decoder (~1 MiB): large enough that
#: the per-block Python overhead amortises to nothing, small enough to
#: keep memory bounded.  Tests shrink it to force boundary splits.
_CSV_BLOCK_CHARS = 1 << 20

#: Column layout of a decoded CSV block.  ``size`` is ``u4`` (not the
#: binary format's ``u2``): the CSV grammar accepts any value the
#: reference loop's ``int(...)`` accepts into a uint32 column.
_CSV_DTYPE = np.dtype(
    [
        ("timestamp", "<f8"),
        ("src", "<u4"),
        ("dst", "<u4"),
        ("size", "<u4"),
        ("proto", "u1"),
    ]
)


def _columns_from_rows(rows):
    """Reference-path column conversion: python lists -> typed arrays.

    Conversion from *python* scalars keeps the reference loop's error
    behaviour (an out-of-range uint32 raises ``OverflowError`` exactly
    as building a :class:`PacketTrace` from row lists did).
    """
    return (
        np.asarray([r[0] for r in rows], dtype=np.float64),
        np.asarray([r[1] for r in rows], dtype=np.uint32),
        np.asarray([r[2] for r in rows], dtype=np.uint32),
        np.asarray([r[3] for r in rows], dtype=np.uint32),
        np.asarray([r[4] for r in rows], dtype=np.uint8),
    )


def _decode_csv_text(text: str, first_lineno: int, path):
    """Decode a block of complete CSV lines into typed column arrays.

    Returns ``(columns, error)`` where ``columns`` is the 5-tuple of
    arrays for every row decoded before ``error`` (a deferred
    :class:`TraceFormatError`, or ``None``).  The fast path hands the
    whole block to ``np.loadtxt``'s C tokenizer; it only applies when
    the block has no ``#`` (loadtxt would strip inline comments the
    reference loop keeps) and loadtxt accepts every line — any
    rejection falls back to :func:`_reference_iter_csv_rows`, which
    reproduces the reference's row values, skipping rules, and error
    text verbatim.  loadtxt's float/int conversions are correctly
    rounded / exact, so accepted blocks decode bit-identically to the
    reference loop.
    """
    if text.isspace():
        # Blank lines only: the reference skips them all, where loadtxt
        # would warn that the input contained no data.  (isspace stops at
        # the first data character; strip would copy the whole block.)
        return _columns_from_rows([]), None
    if "#" not in text:
        try:
            records = np.loadtxt(
                io_module.StringIO(text),
                delimiter=",",
                dtype=_CSV_DTYPE,
                ndmin=1,
            )
        except ValueError:
            pass  # comments, blanks, or malformed rows: reference decides
        else:
            # Field views, not copies: the values and dtypes are the
            # columns' contract; chunk assembly concatenates (and thereby
            # compacts) them anyway wherever a chunk spans pieces.
            return (
                records["timestamp"],
                records["src"],
                records["dst"],
                records["size"],
                records["proto"],
            ), None
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
    block), and block-decodes the complete lines.  Rows decoded before
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
        columns, error = _decode_csv_text(block, lineno, path)
        yield columns, error
        if error is not None:
            return
        lineno += block.count("\n")
    if carry:  # trailing line without a final newline
        yield _decode_csv_text(carry, lineno, path)


def _take_chunk(blocks: list, n: int) -> PacketTrace:
    """Pop exactly ``n`` rows off the front of ``blocks`` as a trace."""
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
            np.concatenate([piece[i] for piece in pieces]) for i in range(5)
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

    Records are assembled in one packed structured array and written with
    a single ``tobytes`` — byte-identical to the per-packet
    ``struct.pack`` loop it replaced, without the per-packet Python cost.
    """
    path = Path(path)
    if np.any(trace.sizes > 0xFFFF):
        raise TraceFormatError(
            "packet size exceeds the binary format's uint16 range"
        )
    records = np.empty(len(trace), dtype=_RECORD_DTYPE)
    records["timestamp"] = trace.timestamps
    records["src"] = trace.sources
    records["dst"] = trace.destinations
    records["size"] = trace.sizes
    records["proto"] = trace.protocols
    with path.open("wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<Q", len(trace)))
        fh.write(records.tobytes())


def read_binary(path) -> PacketTrace:
    """Read a binary trace written by :func:`write_binary`."""
    path = Path(path)
    data = path.read_bytes()
    _check_binary_header(data, path)
    (count,) = struct.unpack_from("<Q", data, len(_BINARY_MAGIC))
    offset = len(_BINARY_MAGIC) + 8
    expected = offset + count * _RECORD.size
    if len(data) != expected:
        raise TraceFormatError(
            f"{path}: truncated or oversized trace "
            f"(expected {expected} bytes, found {len(data)})"
        )
    records = np.frombuffer(data, dtype=_RECORD_DTYPE, count=count, offset=offset)
    return PacketTrace(
        records["timestamp"].astype(np.float64),
        records["src"].astype(np.uint32),
        records["dst"].astype(np.uint32),
        records["size"].astype(np.uint32),
        records["proto"].astype(np.uint8),
    )


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
