"""Time-binning packet traces into rate processes.

Turns an event-level :class:`~repro.trace.packet.PacketTrace` into the
fixed-granularity series f(t) that the paper's samplers and estimators
operate on.  Byte and packet counting are both supported; bin mass is
conserved exactly (every packet lands in exactly one bin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.trace.packet import PacketTrace
from repro.trace.process import RateProcess
from repro.utils.validation import (
    require_finite,
    require_int_at_least,
    require_positive,
)


def _bin_edges(trace: PacketTrace, bin_width: float, t0, n_bins):
    if len(trace) == 0:
        raise ParameterError("cannot bin an empty trace")
    if t0 is None:
        start = float(trace.timestamps[0])
    else:
        start = require_finite("t0", t0)
    if n_bins is None:
        span = float(trace.timestamps[-1]) - start
        return start, max(int(math.floor(span / bin_width)) + 1, 1)
    return start, require_int_at_least("n_bins", n_bins, 1)


def bin_bytes(
    trace: PacketTrace,
    bin_width: float,
    *,
    t0: float | None = None,
    n_bins: int | None = None,
) -> RateProcess:
    """Total bytes per bin of width ``bin_width`` seconds.

    Parameters
    ----------
    t0:
        Left edge of the first bin; defaults to the first packet time.
    n_bins:
        Number of bins; defaults to just covering the trace.  Packets
        outside ``[t0, t0 + n_bins * bin_width)`` are dropped.
    """
    require_positive("bin_width", bin_width)
    start, count = _bin_edges(trace, bin_width, t0, n_bins)
    idx = np.floor((trace.timestamps - start) / bin_width).astype(np.int64)
    ok = (idx >= 0) & (idx < count)
    volumes = np.bincount(
        idx[ok], weights=trace.sizes[ok].astype(np.float64), minlength=count
    )
    return RateProcess(values=volumes, bin_width=bin_width, unit="bytes/bin")


def bin_packets(
    trace: PacketTrace,
    bin_width: float,
    *,
    t0: float | None = None,
    n_bins: int | None = None,
) -> RateProcess:
    """Packet count per bin of width ``bin_width`` seconds."""
    require_positive("bin_width", bin_width)
    start, count = _bin_edges(trace, bin_width, t0, n_bins)
    idx = np.floor((trace.timestamps - start) / bin_width).astype(np.int64)
    ok = (idx >= 0) & (idx < count)
    counts = np.bincount(idx[ok], minlength=count).astype(np.float64)
    return RateProcess(values=counts, bin_width=bin_width, unit="packets/bin")


@dataclass(frozen=True)
class RateBinner:
    """A fixed binning grid, reusable across substreams of one trace.

    :func:`bin_bytes`/:func:`bin_packets` derive their grid from the
    trace they are given, so a sampled substream and its parent trace
    land on *different* grids — incomparable rate series.  A
    ``RateBinner`` freezes the grid once (:meth:`for_trace`, from the
    full trace) and projects any substream onto it (:meth:`bin`), which
    is what lets the campaign's Hurst and queueing reducers run on
    packet cells: the full trace and every count-sampled substream
    become rate series over identical bins.

    The grid covers ``[t0, t0 + n_bins * bin_width]`` with the *right
    edge closed* — the defining trace's last packet sits exactly on it
    and must land in the final bin, not fall off the grid — so binning
    the defining trace conserves mass exactly.  Packets outside the
    grid (none, for substreams of the defining trace) are dropped, as
    in the one-shot binners.
    """

    t0: float
    bin_width: float
    n_bins: int
    by: str = "bytes"

    def __post_init__(self):
        object.__setattr__(self, "t0", require_finite("t0", self.t0))
        require_positive("bin_width", self.bin_width)
        object.__setattr__(
            self, "n_bins", require_int_at_least("n_bins", self.n_bins, 1)
        )
        if self.by not in ("bytes", "packets"):
            raise ParameterError(
                f"by must be 'bytes' or 'packets', got {self.by!r}"
            )

    @classmethod
    def for_trace(cls, trace: PacketTrace, *, n_bins: int | None = None,
                  by: str = "bytes") -> "RateBinner":
        """Fit a grid to ``trace``: first packet to last, ``n_bins`` wide.

        The default bin count, ``clamp(len(trace) // 8, 16, 4096)``,
        keeps about 8 packets per bin on the defining trace — coarse
        enough that a moderately sampled substream still has occupied
        bins, fine enough that the series resolves the correlation
        structure the estimators need.
        """
        if len(trace) == 0:
            raise ParameterError("cannot fit a RateBinner to an empty trace")
        if n_bins is None:
            n_bins = min(max(len(trace) // 8, 16), 4096)
        n_bins = require_int_at_least("n_bins", n_bins, 1)
        t0 = float(trace.timestamps[0])
        span = float(trace.timestamps[-1]) - t0
        bin_width = span / n_bins if span > 0 else 1.0
        return cls(t0=t0, bin_width=float(bin_width), n_bins=n_bins, by=by)

    def bin(self, trace: PacketTrace) -> RateProcess:
        """Project ``trace`` onto this grid as a rate series."""
        offsets = np.asarray(trace.timestamps, dtype=np.float64) - self.t0
        idx = np.floor(offsets / self.bin_width).astype(np.int64)
        # The closed right edge: a packet exactly on (or, through
        # floating-point round-off, a hair past) the grid's end belongs
        # to the last bin.
        idx[idx == self.n_bins] = self.n_bins - 1
        ok = (idx >= 0) & (idx < self.n_bins)
        if self.by == "bytes":
            values = np.bincount(
                idx[ok], weights=trace.sizes[ok].astype(np.float64),
                minlength=self.n_bins,
            )
            unit = "bytes/bin"
        else:
            values = np.bincount(idx[ok], minlength=self.n_bins).astype(
                np.float64
            )
            unit = "packets/bin"
        return RateProcess(values=values, bin_width=self.bin_width, unit=unit)


def bin_od_flow(
    trace: PacketTrace,
    pairs,
    bin_width: float,
    *,
    by: str = "bytes",
    t0: float | None = None,
    n_bins: int | None = None,
) -> RateProcess:
    """Bin only the chosen OD pairs — the paper's monitored f(t) in one call."""
    sub = trace.filter_od(pairs)
    if by == "bytes":
        return bin_bytes(sub, bin_width, t0=t0, n_bins=n_bins)
    if by == "packets":
        return bin_packets(sub, bin_width, t0=t0, n_bins=n_bins)
    raise ParameterError(f"by must be 'bytes' or 'packets', got {by!r}")
