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

Chunks arriving from a file are inherently sequential, so these folds run
in the calling thread, one chunk after another: their memory is bounded
by the chunk size, not by the length of the input.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

import repro.obs as obs
from repro.parallel.state import MomentState, TailHistogramState
from repro.queueing.simulation import queue_occupancy
from repro.trace.io import DEFAULT_CHUNK_PACKETS, iter_trace_chunks
from repro.utils.validation import require_int_at_least


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
) -> np.ndarray:
    """Tail probabilities of the Lindley queue fed chunk by chunk.

    The queue recursion is Markov in the backlog, so each chunk is
    simulated with the previous chunk's final occupancy as its initial
    backlog — a trace larger than memory streams through in bounded
    space.  Within-chunk sums restart at the chunk boundary, so float
    workloads match the whole-series simulation to reduction-order
    precision (integer-valued arrivals and capacity match exactly).
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    state = TailHistogramState.empty(thresholds.size)
    backlog = float(initial)
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
) -> MomentState:
    """Packet-size moments of a trace file, read in bounded-memory chunks."""
    with obs.span("ingest.stream", path=str(path)):
        return streamed_moments(
            chunk.sizes.astype(np.float64)
            for chunk in iter_trace_chunks(path, chunk_size=chunk_size)
        )
