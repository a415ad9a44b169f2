"""Chunked streaming reductions: bounded memory, mergeable states.

Couples the chunked trace reader (:func:`repro.trace.io.iter_trace_chunks`)
and plain in-memory chunking to the partial states of
:mod:`repro.parallel.state`, so the library's reductions also run over
inputs that never materialise as one array:

* :func:`streamed_moments` — count/mean/variance of any chunk stream.
* :func:`streamed_tail_probabilities` — P(Q > b) histograms folded chunk
  by chunk (bit-identical to the whole-array pass: counts are integers).
* :func:`streamed_queue_tail_probabilities` — the Lindley queue driven
  chunk by chunk, carrying the backlog across chunk boundaries.
* :func:`streamed_trace_size_moments` — packet-size moments straight from
  a ``.csv``/``.rpt`` file without reading it whole.

Chunks arriving from a file are inherently sequential, so these folds are
single-process.  What a sequential fold *can* overlap is ingest with
reduction: :func:`prefetch_chunks` double-buffers any chunk stream by pulling chunk
N+1 on a background reader thread while the caller reduces chunk N —
file reads and the numpy reductions both release the GIL, so the two
pipeline stages genuinely overlap.  The file-backed folds take a
``pipelined`` flag that applies it; order, values, and exceptions are
preserved exactly, so pipelining never changes a result.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from typing import Iterable, Iterator

import numpy as np

import repro.obs as obs
from repro.parallel.state import MomentState, TailHistogramState
from repro.queueing.simulation import queue_occupancy
from repro.trace.io import DEFAULT_CHUNK_PACKETS, iter_trace_chunks
from repro.utils.validation import require_int_at_least


def prefetch_chunks(chunks: Iterable, *, depth: int = 2) -> Iterator:
    """Yield ``chunks`` unchanged while reading ahead in the background.

    Double-buffered ingest: a background reader pulls up to ``depth``
    chunks ahead of the consumer through a bounded queue, so chunk N+1
    is fetched (file read, parse, column copy) while chunk N reduces.
    The stream's order and values are untouched and an exception raised
    by the source re-raises at the consumer in its place, so wrapping a
    fold in ``prefetch_chunks`` can never change its result — only its
    wall-clock.  If the consumer stops early, the reader is told to stop
    and the remaining chunks are never pulled.  The reader is a daemon
    thread, and any iterable will do.
    """
    depth = require_int_at_least("depth", depth, 1)
    return _thread_prefetch(chunks, depth)


def _thread_prefetch(chunks: Iterable, depth: int) -> Iterator:
    # One collector lookup per stream, not per chunk: the consumer loop
    # is the ingest hot path and must stay a plain queue drain when off.
    col = obs.current_collector()
    if col is not None:
        col.gauge_max("prefetch.depth", depth)
    source = iter(chunks)
    buffer: queue_module.Queue = queue_module.Queue(maxsize=depth)
    stop = threading.Event()

    def _put(item) -> bool:
        # Bounded-blocking put that still honours a consumer bail-out.
        while not stop.is_set():
            try:
                buffer.put(item, timeout=0.05)
                return True
            except queue_module.Full:
                continue
        return False

    def _reader() -> None:
        try:
            for chunk in source:
                if not _put(("chunk", chunk)):
                    return
            _put(("done", None))
        except BaseException as exc:  # noqa: BLE001 — re-raised by consumer
            _put(("error", exc))

    thread = threading.Thread(
        target=_reader, name="repro-chunk-prefetch", daemon=True
    )
    thread.start()
    try:
        while True:
            if col is None:
                kind, payload = buffer.get()
            else:
                waited = time.monotonic()
                kind, payload = buffer.get()
                waited = time.monotonic() - waited
                if waited >= 1e-3:  # the consumer genuinely stalled
                    col.count("prefetch.stalls")
                    col.count("prefetch.stall_s", round(waited, 6))
            if kind == "chunk":
                if col is not None:
                    col.count("prefetch.chunks")
                yield payload
            elif kind == "done":
                return
            else:
                raise payload
    finally:
        stop.set()


def chunked(values, chunk_size: int) -> Iterator[np.ndarray]:
    """Yield contiguous views of a 1-D array, ``chunk_size`` items each."""
    chunk_size = require_int_at_least("chunk_size", chunk_size, 1)
    arr = np.asarray(values)
    for start in range(0, arr.size, chunk_size):
        yield arr[start : start + chunk_size]


def streamed_moments(chunks: Iterable) -> MomentState:
    """Fold count/mean/M2 moments over a stream of value chunks."""
    state = MomentState()
    for chunk in chunks:
        state = state.merge(MomentState.from_values(chunk))
    return state


def streamed_tail_probabilities(chunks: Iterable, thresholds) -> np.ndarray:
    """P(Q > b) per threshold, folded over occupancy chunks.

    Exceedance counts are exact integers, so the result is bit-identical
    to :func:`repro.queueing.simulation.tail_probabilities` on the
    concatenated series.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    state = TailHistogramState.empty(thresholds.size)
    for chunk in chunks:
        state = state.merge(TailHistogramState.from_values(chunk, thresholds))
    return state.finalize()


def streamed_queue_tail_probabilities(
    arrival_chunks: Iterable,
    capacity: float,
    thresholds,
    *,
    initial: float = 0.0,
    pipelined: bool = False,
) -> np.ndarray:
    """Tail probabilities of the Lindley queue fed chunk by chunk.

    The queue recursion is Markov in the backlog, so each chunk is
    simulated with the previous chunk's final occupancy as its initial
    backlog — a trace larger than memory streams through in bounded
    space.  Within-chunk sums restart at the chunk boundary, so float
    workloads match the whole-series simulation to reduction-order
    precision (integer-valued arrivals and capacity match exactly).
    ``pipelined=True`` double-buffers the ingest through
    :func:`prefetch_chunks`: the next chunk is fetched while the current
    one simulates, with identical results.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    state = TailHistogramState.empty(thresholds.size)
    backlog = float(initial)
    if pipelined:
        arrival_chunks = prefetch_chunks(arrival_chunks)
    for chunk in arrival_chunks:
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.size == 0:
            continue  # tolerate empty chunks, like streamed_tail_probabilities
        occupancy = queue_occupancy(chunk, capacity, initial=backlog)
        state = state.merge(TailHistogramState.from_values(occupancy, thresholds))
        backlog = float(occupancy[-1])
    return state.finalize()


def streamed_trace_size_moments(
    path,
    *,
    chunk_size: int = DEFAULT_CHUNK_PACKETS,
    pipelined: bool = True,
) -> MomentState:
    """Packet-size moments of a trace file, read in bounded-memory chunks.

    With ``pipelined`` (the default), the chunked file read is
    double-buffered against the moment fold through
    :func:`prefetch_chunks` — chunk N+1 is parsed while chunk N reduces,
    with bit-identical results (the fold order never changes).
    """
    with obs.span("ingest.stream", path=str(path), pipelined=pipelined):
        chunks: Iterable = (
            chunk.sizes.astype(np.float64)
            for chunk in iter_trace_chunks(path, chunk_size=chunk_size)
        )
        if pipelined:
            chunks = prefetch_chunks(chunks)
        return streamed_moments(chunks)
