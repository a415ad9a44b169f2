"""Packet records and columnar packet traces.

The paper's measurement context is packet-level traces (tcpdump-format Bell
Labs captures with hundreds of host pairs).  This module provides:

* :class:`PacketRecord` — one packet, convenient for row-at-a-time code.
* :class:`PacketTrace` — a columnar (structure-of-arrays) trace holding
  millions of packets in a handful of numpy arrays, which is what the flow
  and binning machinery operates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import TraceFormatError

#: IANA protocol numbers used throughout the library.
PROTO_TCP = 6
PROTO_UDP = 17


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """A single observed packet.

    Attributes
    ----------
    timestamp:
        Capture time in seconds (monotone within a trace).
    src / dst:
        Integer host identifiers (anonymised addresses).
    size:
        Wire size in bytes.
    protocol:
        IANA protocol number (6 = TCP, 17 = UDP, ...).
    """

    timestamp: float
    src: int
    dst: int
    size: int
    protocol: int = PROTO_TCP

    @property
    def od_pair(self) -> tuple[int, int]:
        """Origin-destination key of this packet."""
        return (self.src, self.dst)


class PacketTrace:
    """Columnar packet trace: parallel numpy arrays, one row per packet."""

    __slots__ = ("timestamps", "sources", "destinations", "sizes", "protocols")

    def __init__(
        self,
        timestamps,
        sources,
        destinations,
        sizes,
        protocols=None,
    ) -> None:
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        self.sources = np.asarray(sources, dtype=np.uint32)
        self.destinations = np.asarray(destinations, dtype=np.uint32)
        self.sizes = np.asarray(sizes, dtype=np.uint32)
        if protocols is None:
            protocols = np.full(self.timestamps.size, PROTO_TCP, dtype=np.uint8)
        self.protocols = np.asarray(protocols, dtype=np.uint8)

        n = self.timestamps.size
        for name in ("sources", "destinations", "sizes", "protocols"):
            if getattr(self, name).size != n:
                raise TraceFormatError(
                    f"column {name!r} has {getattr(self, name).size} rows, "
                    f"expected {n}"
                )
        # Comparing neighbours takes one n-byte mask and no n-float
        # difference, and flags the same pairs as a negative difference
        # would (signed zeros, inf and NaN included).
        if np.any(self.timestamps[1:] < self.timestamps[:-1]):
            raise TraceFormatError("timestamps must be non-decreasing")

    # ------------------------------------------------------------ basic info
    def __len__(self) -> int:
        return int(self.timestamps.size)

    def __iter__(self) -> Iterator[PacketRecord]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, index: int) -> PacketRecord:
        return PacketRecord(
            timestamp=float(self.timestamps[index]),
            src=int(self.sources[index]),
            dst=int(self.destinations[index]),
            size=int(self.sizes[index]),
            protocol=int(self.protocols[index]),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PacketTrace):
            return NotImplemented
        return (
            np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.sources, other.sources)
            and np.array_equal(self.destinations, other.destinations)
            and np.array_equal(self.sizes, other.sizes)
            and np.array_equal(self.protocols, other.protocols)
        )

    @property
    def duration(self) -> float:
        """Seconds between first and last packet (0 for < 2 packets)."""
        if len(self) < 2:
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0])

    @property
    def total_bytes(self) -> int:
        return int(self.sizes.sum(dtype=np.int64))

    @property
    def mean_rate(self) -> float:
        """Average bytes/second over the trace span."""
        if self.duration <= 0:
            return 0.0
        return self.total_bytes / self.duration

    # ------------------------------------------------------------- selection
    def select(self, mask: np.ndarray) -> "PacketTrace":
        """Sub-trace of the rows where ``mask`` is true (order preserved)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.timestamps.shape:
            raise TraceFormatError(
                f"mask shape {mask.shape} does not match trace length {len(self)}"
            )
        return PacketTrace(
            self.timestamps[mask],
            self.sources[mask],
            self.destinations[mask],
            self.sizes[mask],
            self.protocols[mask],
        )

    def filter_od(self, pairs: Iterable[tuple[int, int]]) -> "PacketTrace":
        """Sub-trace containing only the given origin-destination pairs.

        This is the paper's motivating operation: the analyst cares about
        "one or several OD flows", not the router-wide aggregate.
        """
        pair_set = set((int(s), int(d)) for s, d in pairs)
        if not pair_set:
            return self.select(np.zeros(len(self), dtype=bool))
        keys = self._od_keys()
        wanted = np.array(
            [(s << 32) | d for s, d in sorted(pair_set)], dtype=np.uint64
        )
        mask = np.isin(keys, wanted)
        return self.select(mask)

    def _od_keys(self) -> np.ndarray:
        """64-bit packed (src, dst) keys for vectorised grouping."""
        return (self.sources.astype(np.uint64) << np.uint64(32)) | (
            self.destinations.astype(np.uint64)
        )

    # --------------------------------------------------------- constructors
    @classmethod
    def from_records(cls, records: Sequence[PacketRecord]) -> "PacketTrace":
        """Build a columnar trace from row records (sorted by timestamp)."""
        ordered = sorted(records, key=lambda r: r.timestamp)
        return cls(
            timestamps=[r.timestamp for r in ordered],
            sources=[r.src for r in ordered],
            destinations=[r.dst for r in ordered],
            sizes=[r.size for r in ordered],
            protocols=[r.protocol for r in ordered],
        )

    @classmethod
    def empty(cls) -> "PacketTrace":
        return cls(
            timestamps=np.empty(0, dtype=np.float64),
            sources=np.empty(0, dtype=np.uint32),
            destinations=np.empty(0, dtype=np.uint32),
            sizes=np.empty(0, dtype=np.uint32),
            protocols=np.empty(0, dtype=np.uint8),
        )

    def concat(self, other: "PacketTrace") -> "PacketTrace":
        """Merge two traces, re-sorting by timestamp (stable)."""
        ts = np.concatenate([self.timestamps, other.timestamps])
        order = np.argsort(ts, kind="stable")
        return PacketTrace(
            ts[order],
            np.concatenate([self.sources, other.sources])[order],
            np.concatenate([self.destinations, other.destinations])[order],
            np.concatenate([self.sizes, other.sizes])[order],
            np.concatenate([self.protocols, other.protocols])[order],
        )
