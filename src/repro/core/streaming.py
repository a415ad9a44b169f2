"""Event-driven per-packet samplers (router-style deployment).

The paper's context is PSAMP/NetFlow-style packet sampling (Sec. I), and
Claffy et al.'s classic result is that *event-driven* (count-based)
sampling beats *time-driven* sampling.  This module provides both flavours
as single-pass decision machines: call :meth:`~PacketSampler.offer` once
per packet and get back whether the packet is sampled, or
:meth:`~PacketSampler.offer_many` once per run of consecutive packets.
``offer_many`` leaves the sampler, and its random generator, exactly where
that many ``offer`` calls would, so any chunking of a trace, mixed with
single ``offer`` calls, gets the decisions packet-by-packet calls get.  The
count-based and Bernoulli samplers compute it with array operations; the
base-class default loops over ``offer``, so a sampler that defines only
``offer`` still works everywhere.  :func:`apply_sampler` runs one over a
whole :class:`~repro.trace.packet.PacketTrace`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ParameterError
from repro.trace.packet import PacketTrace
from repro.utils.rng import normalize_rng
from repro.utils.validation import (
    require_int_at_least,
    require_positive,
    require_probability,
)


class PacketSampler(ABC):
    """Single-pass per-packet sampling decision machine."""

    name: str = "packet_sampler"

    @abstractmethod
    def offer(self, timestamp: float, size: int) -> bool:
        """Decide whether the packet observed now is sampled."""

    def offer_many(self, timestamps: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Decide a run of consecutive packets; a boolean array, one per packet.

        Leaves the sampler and its generator exactly where one :meth:`offer`
        call per packet would.  This default is that per-packet loop: the
        reference every override is tested against.  A subclass that
        changes ``offer`` of a sampler that overrides this method must
        override this method too.
        """
        return np.fromiter(
            (
                self.offer(float(ts), int(size))
                for ts, size in zip(timestamps, sizes)
            ),
            dtype=bool,
            count=len(timestamps),
        )

    def reset(self) -> None:
        """Restore initial state (default: nothing to reset)."""


class CountSystematicSampler(PacketSampler):
    """1-out-of-N count-based (event-driven) systematic sampling.

    The strategy NetFlow implements: every ``period``-th packet,
    starting at packet index ``offset``.
    """

    name = "count_systematic"

    def __init__(self, period: int, *, offset: int = 0) -> None:
        self._period = require_int_at_least("period", period, 1)
        self._offset = require_int_at_least("offset", offset, 0)
        if self._offset >= self._period:
            raise ParameterError(
                f"offset must lie in [0, {self._period}), got {self._offset}"
            )
        self._count = -1

    def offer(self, timestamp: float, size: int) -> bool:
        self._count += 1
        return self._count % self._period == self._offset

    def offer_many(self, timestamps: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        n = len(timestamps)
        out = np.zeros(n, dtype=bool)
        # Packet j of the run is packet self._count + 1 + j of the stream.
        start = (self._offset - self._count - 1) % self._period
        out[start::self._period] = True
        self._count += n
        return out

    def reset(self) -> None:
        self._count = -1


class TimeSystematicSampler(PacketSampler):
    """Time-driven systematic sampling: first packet after each period tick."""

    name = "time_systematic"

    def __init__(self, period: float) -> None:
        require_positive("period", period)
        self._period = float(period)
        self._next_tick: float | None = None

    def offer(self, timestamp: float, size: int) -> bool:
        if self._next_tick is None:
            self._next_tick = timestamp + self._period
            return True
        if timestamp >= self._next_tick:
            # Skip any fully missed periods (idle gaps).
            missed = int((timestamp - self._next_tick) // self._period)
            self._next_tick += (missed + 1) * self._period
            return True
        return False

    def reset(self) -> None:
        self._next_tick = None


class CountStratifiedSampler(PacketSampler):
    """Event-driven stratified sampling: one random packet per N-packet window."""

    name = "count_stratified"

    def __init__(self, period: int, rng=None) -> None:
        self._period = require_int_at_least("period", period, 1)
        self._rng = normalize_rng(rng)
        self._position = 0
        self._chosen = int(self._rng.integers(0, self._period))

    def offer(self, timestamp: float, size: int) -> bool:
        take = self._position == self._chosen
        self._position += 1
        if self._position == self._period:
            self._position = 0
            self._chosen = int(self._rng.integers(0, self._period))
        return take

    def offer_many(self, timestamps: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        n = len(timestamps)
        # Window i of the run starts at packet i * period - position (window
        # 0 is the open one).  Each of the k windows that complete in the
        # run draws its successor's pick as it completes, as offer does, so
        # the last pick belongs to the window left open.
        k = (self._position + n) // self._period
        chosen = np.concatenate(
            ([self._chosen], self._rng.integers(0, self._period, size=k))
        )
        picks = self._period * np.arange(k + 1) - self._position + chosen
        out = np.zeros(n, dtype=bool)
        out[picks[(picks >= 0) & (picks < n)]] = True
        self._position = (self._position + n) % self._period
        self._chosen = int(chosen[-1])
        return out

    def reset(self) -> None:
        self._position = 0
        self._chosen = int(self._rng.integers(0, self._period))


class BernoulliPacketSampler(PacketSampler):
    """Independent coin flip per packet (iid simple random sampling)."""

    name = "bernoulli"

    def __init__(self, rate: float, rng=None) -> None:
        self._rate = require_probability("rate", rate)
        self._rng = normalize_rng(rng)

    def offer(self, timestamp: float, size: int) -> bool:
        return bool(self._rng.random() < self._rate)

    def offer_many(self, timestamps: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        return self._rng.random(len(timestamps)) < self._rate


class SizeBiasedSampler(PacketSampler):
    """Size-dependent sampling (Estan-Varghese style): p = min(size/B, 1).

    Large packets are always sampled; small packets proportionally.  The
    byte-weighted analogue of the paper's "bias toward large values"
    lesson, included as a packet-level baseline.
    """

    name = "size_biased"

    def __init__(self, byte_threshold: float, rng=None) -> None:
        require_positive("byte_threshold", byte_threshold)
        self._threshold = float(byte_threshold)
        self._rng = normalize_rng(rng)

    def offer(self, timestamp: float, size: int) -> bool:
        p = min(size / self._threshold, 1.0)
        return bool(self._rng.random() < p)


def apply_sampler(sampler: PacketSampler, trace: PacketTrace) -> PacketTrace:
    """Run a packet sampler over a trace; returns the sampled sub-trace.

    The trace's packets are offered in order through one
    :meth:`PacketSampler.offer_many` call, so the sampler continues from
    its current state and ends where per-packet :meth:`~PacketSampler.offer`
    calls would leave it: applying it to consecutive chunks of a capture
    samples exactly what applying it to the whole capture does.  A sampler
    that defines only ``offer`` runs through the base-class loop.
    """
    if len(trace) == 0:
        return trace
    return trace.select(sampler.offer_many(trace.timestamps, trace.sizes))
