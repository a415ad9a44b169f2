"""Tests for repro.parallel.streaming: chunked folds match whole-array passes."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import ParameterError, TraceFormatError
from repro.parallel.streaming import (
    chunked,
    streamed_moments,
    streamed_queue_tail_probabilities,
    streamed_tail_probabilities,
    streamed_trace_size_moments,
)
from repro.queueing.simulation import queue_occupancy, tail_probabilities
from repro.trace.io import write_trace
from repro.trace.packet import PacketTrace


def _trace(n: int) -> PacketTrace:
    rng = np.random.default_rng(5)
    return PacketTrace(
        timestamps=np.sort(rng.uniform(0, 100, n)),
        sources=rng.integers(0, 50, n),
        destinations=rng.integers(0, 50, n),
        sizes=rng.integers(40, 1500, n),
        protocols=rng.choice([6, 17], n),
    )


class TestChunked:
    def test_covers_array_in_order(self):
        x = np.arange(10)
        chunks = list(chunked(x, 3))
        assert [c.size for c in chunks] == [3, 3, 3, 1]
        np.testing.assert_array_equal(np.concatenate(chunks), x)

    def test_chunk_larger_than_array(self):
        chunks = list(chunked(np.arange(4), 100))
        assert len(chunks) == 1 and chunks[0].size == 4

    def test_empty_array_yields_nothing(self):
        assert list(chunked(np.empty(0), 4)) == []

    def test_bad_chunk_size_rejected(self):
        for bad in (0, 2.5, True):
            with pytest.raises(ParameterError, match="chunk_size"):
                list(chunked(np.arange(4), bad))


class TestStreamedMoments:
    def test_matches_whole_array(self):
        rng = np.random.default_rng(11)
        x = rng.lognormal(size=4001)
        state = streamed_moments(chunked(x, 257))
        assert state.count == x.size
        assert state.mean == pytest.approx(x.mean(), rel=1e-12)
        assert state.variance == pytest.approx(x.var(), rel=1e-12)

    def test_chunk_size_invariant(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=1000)
        a = streamed_moments(chunked(x, 64))
        b = streamed_moments(chunked(x, 999))
        assert a.mean == pytest.approx(b.mean, rel=1e-12)
        assert a.variance == pytest.approx(b.variance, rel=1e-12)


class TestStreamedTailProbabilities:
    def test_bit_identical_to_whole_pass(self):
        rng = np.random.default_rng(13)
        q = rng.exponential(5.0, size=5000)
        thresholds = np.geomspace(0.1, 50.0, 40)
        whole = tail_probabilities(q, thresholds)
        streamed = streamed_tail_probabilities(chunked(q, 311), thresholds)
        np.testing.assert_array_equal(whole, streamed)

    def test_empty_series_rejected(self):
        with pytest.raises(ParameterError, match="empty"):
            streamed_tail_probabilities(chunked(np.empty(0), 10), [1.0])


class TestStreamedQueue:
    def test_integer_workload_bit_identical(self):
        # Integer arrivals and capacity keep every partial sum exact, so
        # the chunked Lindley recursion reproduces the whole-series
        # occupancy bit-for-bit.
        rng = np.random.default_rng(15)
        arrivals = rng.poisson(8, size=6000).astype(np.float64)
        capacity = 10.0
        thresholds = np.arange(0.0, 50.0, 1.0)
        whole = tail_probabilities(
            queue_occupancy(arrivals, capacity), thresholds
        )
        streamed = streamed_queue_tail_probabilities(
            chunked(arrivals, 449), capacity, thresholds
        )
        np.testing.assert_array_equal(whole, streamed)

    def test_float_workload_close(self):
        rng = np.random.default_rng(16)
        arrivals = rng.lognormal(1.0, 0.5, size=4000)
        capacity = float(arrivals.mean()) / 0.8
        thresholds = np.geomspace(0.1, 100.0, 30)
        whole = tail_probabilities(
            queue_occupancy(arrivals, capacity), thresholds
        )
        streamed = streamed_queue_tail_probabilities(
            chunked(arrivals, 333), capacity, thresholds
        )
        # Chunked partial sums can flip individual samples across a
        # threshold, shifting counts by O(1) out of n.
        np.testing.assert_allclose(whole, streamed, atol=5.0 / arrivals.size)

    def test_empty_chunks_skipped(self):
        """A generator that emits an empty chunk must not abort the fold."""
        arrivals = np.array([5.0, 0.0, 7.0, 1.0])
        thresholds = np.array([0.5, 3.0])
        with_empties = [arrivals[:2], np.empty(0), arrivals[2:], np.empty(0)]
        streamed = streamed_queue_tail_probabilities(
            iter(with_empties), capacity=2.0, thresholds=thresholds
        )
        whole = tail_probabilities(queue_occupancy(arrivals, 2.0), thresholds)
        np.testing.assert_array_equal(whole, streamed)

    def test_initial_backlog_carried(self):
        arrivals = np.array([0.0, 0.0, 0.0, 0.0])
        thresholds = np.array([1.0, 5.0])
        streamed = streamed_queue_tail_probabilities(
            chunked(arrivals, 2), capacity=1.0, thresholds=thresholds, initial=10.0
        )
        whole = tail_probabilities(
            queue_occupancy(arrivals, 1.0, initial=10.0), thresholds
        )
        np.testing.assert_array_equal(whole, streamed)


class TestStreamedTraceMoments:
    @pytest.mark.parametrize("suffix", [".csv", ".rpt"])
    def test_matches_whole_file(self, tmp_path, suffix):
        trace = _trace(997)
        path = tmp_path / f"trace{suffix}"
        write_trace(trace, path)
        state = streamed_trace_size_moments(path, chunk_size=100)
        sizes = trace.sizes.astype(np.float64)
        assert state.count == len(trace)
        assert state.mean == pytest.approx(sizes.mean(), rel=1e-12)
        assert state.variance == pytest.approx(sizes.var(), rel=1e-12)

    @pytest.mark.parametrize("suffix", [".csv", ".rpt"])
    def test_starts_no_thread(self, tmp_path, monkeypatch, suffix):
        """The fold reads each chunk in the calling thread, and gives the
        bits of the same fold over the in-memory sizes in the same chunks."""
        trace = _trace(997)
        path = tmp_path / f"trace{suffix}"
        write_trace(trace, path)

        def refuse(thread):
            raise AssertionError(f"started thread {thread.name!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        state = streamed_trace_size_moments(path, chunk_size=64)
        assert state == streamed_moments(
            chunked(trace.sizes.astype(np.float64), 64)
        )

    def test_malformed_csv_error_names_file_and_line(self, tmp_path):
        """A decode error raises out of the fold with the reference
        ``path:line:`` message."""
        path = tmp_path / "bad.csv"
        path.write_text("# repro-trace v1\n1.0,1,2,40,6\n2.0,zap,2,40,6\n")
        with pytest.raises(TraceFormatError, match=r"bad\.csv:3: "):
            streamed_trace_size_moments(path, chunk_size=1)

