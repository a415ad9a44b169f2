"""Zero-copy trace buffers shared between the parent and shard workers.

PR 2's fork-pool dispatched every shard with a pickled copy of the
parent's trace values (~8 MB per shard on the 1M-point workloads) — the
dominant constant in the engine's scaling rows.  This module removes the
copy: the parent *publishes* a trace once into a :class:`TraceStore` and
hands each shard a tiny picklable :class:`TraceHandle`; workers *attach*
to the parent's buffer instead of unpickling their own copy.

Backends, in the order :func:`TraceStore.publish` tries them:

``inherit``
    The values array is parked in a module-level registry keyed by a
    token.  Fork children inherit the parent's address space, so
    attaching is a dictionary lookup — zero copies anywhere.  Only valid
    when the worker pool forks (the executor's preferred start method).
``shm``
    The values are copied once into a
    :class:`multiprocessing.shared_memory.SharedMemory` segment; workers
    attach by name.  One copy in the parent, none per shard — the
    correct backend for spawn/forkserver pools.
``mmap``
    The buffer is a read-only :func:`numpy.memmap` over an on-disk trace
    file — either the raw ``.rps`` rate-series format written by
    :func:`write_rate_series`, or the ``timestamp`` column of a ``.rpt``
    packet trace (the one float64 field a packed record exposes as a
    zero-copy strided view).  Workers re-map the file themselves; the OS
    page cache is the shared buffer.
``inline``
    Plain-array fallback when no sharing mechanism is available: the
    handle carries the values and dispatch degrades to PR 2's pickle
    behaviour.  Results are identical either way — sharing is purely a
    constant-factor lever, never a semantics change.

Whatever the backend, workers see the same float64 bits the parent
holds, so the engine's ``workers=N`` ≡ ``workers=1`` contract is
unaffected.
"""

from __future__ import annotations

import itertools
import os
import struct
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

import repro.obs as obs
from repro.errors import ParameterError, TraceFormatError
from repro.trace.io import _BINARY_MAGIC, _RECORD_DTYPE
from repro.trace.process import RateProcess

#: Magic prefix of the raw ``.rps`` rate-series format (float64 payload).
_SERIES_MAGIC = b"RPSERIE1"

#: Parent-side registry backing the ``inherit`` backend.  Fork children
#: receive a copy-on-write view of this dict, so a token published before
#: the pool forked resolves to the parent's own array in every worker.
_PUBLISHED: dict[str, np.ndarray] = {}

#: Worker-side cache of attached shared-memory segments, keyed by name.
#: Pool workers serve many tasks; caching keeps one mapping per segment
#: alive instead of re-attaching per task.  Persistent-pool workers see
#: a fresh segment per published trace, so the cache is bounded (FIFO):
#: old entries are evicted and closed once no task still views them.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}

#: Eviction threshold for :data:`_ATTACHED`.
_ATTACHED_MAX = 8

_TOKENS = itertools.count()


#: ``warn_once`` key for the shm-fallback diagnostic under a persistent pool.
SHM_FALLBACK_KEY = "trace.shm-fallback"


def _warn_shm_fallback(exc: BaseException) -> None:
    """One-time diagnostic: a live persistent pool lost zero-copy dispatch."""
    from repro.utils.once import warn_once

    warn_once(
        SHM_FALLBACK_KEY,
        "repro.trace.store: shared memory is unavailable "
        f"({type(exc).__name__}: {exc}); traces published while the "
        "persistent pool is live will be pickled into every shard "
        "(results are identical, dispatch is slower). Consider a fresh-"
        "pool session, which keeps the zero-copy fork-inherit backend.",
        stacklevel=4,
    )


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without re-registering it for cleanup.

    The publishing parent owns the segment's lifetime (it unlinks on
    ``close``); an attach must not add its own resource-tracker
    registration or the tracker warns about the already-unlinked name at
    exit.  Python 3.13+ exposes ``track=False`` for exactly this; on
    older versions the spurious registration is undone by hand.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        segment = shared_memory.SharedMemory(name=name)
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:  # best-effort: the warning is cosmetic
            pass
        return segment


def _next_token() -> str:
    """Registry key unique within this process (and, via the pid, across
    forks that publish after the fork)."""
    return f"repro-trace-{os.getpid()}-{next(_TOKENS)}"


@dataclass(frozen=True)
class TraceHandle:
    """Small picklable reference to a published trace buffer.

    This is what crosses the process boundary instead of the values
    array: a backend tag, a name/path, and the array geometry.  The
    ``inline`` fallback carries the payload itself.
    """

    kind: str  # "inherit" | "shm" | "mmap" | "inline"
    ref: str = ""
    shape: tuple = ()
    dtype: str = "float64"
    offset: int = 0
    # Excluded from __eq__/__hash__: an ndarray payload would make handle
    # comparison ambiguous and handles unhashable.  (Declared before the
    # ``field`` column name below shadows ``dataclasses.field``.)
    payload: np.ndarray | None = field(default=None, compare=False)
    field: str = ""

    def values(self) -> np.ndarray:
        """Attach to the published buffer and return a read-only view.

        The fork-inherited registry is consulted first for every backend:
        when the worker was forked after ``publish``, the parent's own
        array is already in its address space and no attach of any kind
        is needed.
        """
        inherited = _PUBLISHED.get(self.ref)
        if inherited is not None:
            return inherited
        if self.kind == "inline":
            return self.payload
        if self.kind == "shm":
            return self._attach_shm()
        if self.kind == "mmap":
            return _map_series(Path(self.ref), field=self.field)
        raise ParameterError(
            f"cannot attach trace handle {self.ref!r}: backend {self.kind!r} "
            "requires a fork-inherited registry entry and none was found"
        )

    def _attach_shm(self) -> np.ndarray:
        segment = _ATTACHED.get(self.ref)
        if segment is None:
            segment = _attach_segment(self.ref)
            while len(_ATTACHED) >= _ATTACHED_MAX:
                stale = _ATTACHED.pop(next(iter(_ATTACHED)))
                try:
                    stale.close()
                except BufferError:
                    # A task still views the buffer; the mapping lives
                    # exactly as long as that view does.
                    pass
            _ATTACHED[self.ref] = segment
        view = np.ndarray(
            self.shape, dtype=np.dtype(self.dtype), buffer=segment.buf
        )
        view.flags.writeable = False
        return view

    @property
    def nbytes(self) -> int:
        """Size of the referenced buffer (what pickling would have cost)."""
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


def resolve_values(ref) -> np.ndarray:
    """Worker-side entry point: handle, array, or RateProcess -> array.

    Shard workers accept either a :class:`TraceHandle` (the zero-copy
    protocol) or a plain array (serial path, small arrays), so the
    same worker function serves both dispatch modes.
    """
    if isinstance(ref, TraceHandle):
        return ref.values()
    if isinstance(ref, RateProcess):
        return ref.values
    return ref


class TraceStore:
    """Parent-side owner of one published trace buffer.

    Create with :meth:`publish` (in-memory values) or :meth:`open`
    (on-disk trace file); hand :attr:`handle` to shard workers; call
    :meth:`close` (or use as a context manager) when the parallel region
    ends.  Closing unlinks any shared-memory segment and drops the
    registry entry — handles must not outlive their store.
    """

    def __init__(self, handle: TraceHandle, *, segment=None, token=None):
        self._handle = handle
        self._segment = segment
        self._token = token
        self._values = handle.values()

    # ------------------------------------------------------------ creation
    @classmethod
    def publish(cls, process, *, backend: str = "auto") -> "TraceStore":
        """Publish a trace (RateProcess or array) for zero-copy dispatch.

        ``backend`` is ``"auto"`` (prefer ``inherit`` when the executor
        will fork, else ``shm``, else ``inline``), or one of
        ``"inherit"``/``"shm"``/``"inline"`` to force a specific
        mechanism.  Publishing never mutates or copies the caller's
        array except for the single parent-side copy the ``shm`` backend
        needs to fill its segment.
        """
        values = np.ascontiguousarray(resolve_values(process))
        if backend == "auto":
            from repro.parallel.executor import pool_start_method
            from repro.parallel.runtime import attach_preferred

            if attach_preferred():
                # A persistent pool is already live: its workers forked
                # before this publish, so a registry entry made now is
                # invisible to them — they must attach by name instead.
                backend = "shm"
            elif pool_start_method() == "fork":
                backend = "inherit"
            else:
                backend = "shm"
        if backend == "inherit":
            token = _next_token()
            _PUBLISHED[token] = values
            handle = TraceHandle(
                kind="inherit", ref=token, shape=values.shape,
                dtype=str(values.dtype),
            )
            return cls(handle, token=token)
        if backend == "shm":
            try:
                segment = shared_memory.SharedMemory(
                    create=True, size=max(values.nbytes, 1)
                )
            except (OSError, ValueError, RuntimeError) as exc:
                from repro.parallel.runtime import attach_preferred

                if attach_preferred():
                    # A persistent pool forced the shm backend; falling
                    # back to inline re-introduces the per-shard pickle a
                    # fresh-pool session would have avoided via inherit —
                    # say so, once, instead of silently dispatching slow.
                    _warn_shm_fallback(exc)
                return cls.publish(values, backend="inline")
            target = np.ndarray(
                values.shape, dtype=values.dtype, buffer=segment.buf
            )
            target[...] = values
            obs.count("shm.bytes_published", int(values.nbytes))
            token = _next_token()
            # Parent-side (and fork-child) lookups short-circuit the
            # attach; the name doubles as the registry key.
            _PUBLISHED[segment.name] = target
            handle = TraceHandle(
                kind="shm", ref=segment.name, shape=values.shape,
                dtype=str(values.dtype),
            )
            return cls(handle, segment=segment, token=segment.name)
        if backend == "inline":
            handle = TraceHandle(
                kind="inline", shape=values.shape, dtype=str(values.dtype),
                payload=values,
            )
            return cls(handle)
        raise ParameterError(
            f"unknown trace-store backend {backend!r} "
            "(use 'auto', 'inherit', 'shm', or 'inline')"
        )

    @classmethod
    def open(cls, path, *, field: str = "") -> "TraceStore":
        """Open an on-disk trace as a memory-mapped store.

        ``.rps`` files (see :func:`write_rate_series`) map their float64
        payload directly.  ``.rpt`` packet traces map the packed records
        and expose the ``timestamp`` column — the only float64 field a
        packed record offers as a zero-copy strided view; pass
        ``field="timestamp"`` explicitly or leave the default.  Workers
        re-map the file from the handle's path, so nothing but the path
        crosses the process boundary.
        """
        path = Path(path)
        values = _map_series(path, field=field)
        handle = TraceHandle(
            kind="mmap", ref=str(path), shape=values.shape,
            dtype=str(values.dtype), field=field,
        )
        return cls(handle)

    # ------------------------------------------------------------ accessors
    @property
    def handle(self) -> TraceHandle:
        return self._handle

    @property
    def values(self) -> np.ndarray:
        return self._values

    def process(self, *, bin_width: float = 1.0, unit: str = "units/bin") -> RateProcess:
        return RateProcess(self._values, bin_width=bin_width, unit=unit)

    # ------------------------------------------------------------- lifetime
    def close(self) -> None:
        """Release the published buffer (idempotent).

        Drops the registry entry and, for the ``shm`` backend, closes and
        unlinks the segment.  Existing fork children keep their inherited
        mapping; new attaches through the handle will fail, which is the
        point — handles are scoped to one parallel region.
        """
        if self._token is not None:
            _PUBLISHED.pop(self._token, None)
            self._token = None
        if self._segment is not None:
            # Drop our own buffer view first, or it would block
            # segment.close() (BufferError) and the mapping would persist
            # for the process lifetime on platforms where unlink alone
            # frees nothing.
            self._values = None
            try:
                self._segment.close()
            except BufferError:
                # A caller still holds a view; the mapping dies with the
                # process.  Unlinking below still removes the name, so
                # nothing persists beyond it.
                pass
            try:
                self._segment.unlink()
            except (FileNotFoundError, OSError):
                pass
            self._segment = None

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ------------------------------------------------------------- disk format
def write_rate_series(path, values) -> None:
    """Write a float64 rate series in the raw ``.rps`` mmap format.

    Layout: 8-byte magic, little-endian uint64 count, then the raw
    float64 payload — exactly what :func:`numpy.memmap` can map back
    without parsing, so disk-backed traces join the zero-copy protocol.
    """
    path = Path(path)
    values = np.ascontiguousarray(values, dtype="<f8")
    if values.ndim != 1:
        raise ParameterError("rate series must be 1-D")
    with path.open("wb") as fh:
        fh.write(_SERIES_MAGIC)
        fh.write(struct.pack("<Q", values.size))
        fh.write(values.tobytes())


def _map_series(path: Path, *, field: str = "") -> np.ndarray:
    """Read-only zero-copy view of an on-disk trace file."""
    if path.suffix == ".rps":
        with path.open("rb") as fh:
            header = fh.read(len(_SERIES_MAGIC) + 8)
        if not header.startswith(_SERIES_MAGIC):
            raise TraceFormatError(f"{path}: bad magic, not a rate-series file")
        (count,) = struct.unpack_from("<Q", header, len(_SERIES_MAGIC))
        expected = len(_SERIES_MAGIC) + 8 + count * 8
        if path.stat().st_size != expected:
            raise TraceFormatError(
                f"{path}: truncated or oversized rate series "
                f"(expected {expected} bytes, found {path.stat().st_size})"
            )
        return np.memmap(
            path, dtype="<f8", mode="r", offset=len(_SERIES_MAGIC) + 8,
            shape=(count,),
        )
    if path.suffix == ".rpt":
        field = field or "timestamp"
        if field != "timestamp":
            raise TraceFormatError(
                f"{path}: only the float64 'timestamp' column of a packed "
                f".rpt trace can be mapped zero-copy (got field {field!r}); "
                "bin the trace and publish the RateProcess instead"
            )
        with path.open("rb") as fh:
            header = fh.read(len(_BINARY_MAGIC) + 8)
        if not header.startswith(_BINARY_MAGIC):
            raise TraceFormatError(f"{path}: bad magic, not a repro binary trace")
        (count,) = struct.unpack_from("<Q", header, len(_BINARY_MAGIC))
        expected = len(_BINARY_MAGIC) + 8 + count * _RECORD_DTYPE.itemsize
        if path.stat().st_size != expected:
            raise TraceFormatError(
                f"{path}: truncated or oversized trace "
                f"(expected {expected} bytes, found {path.stat().st_size})"
            )
        records = np.memmap(
            path, dtype=_RECORD_DTYPE, mode="r",
            offset=len(_BINARY_MAGIC) + 8, shape=(count,),
        )
        return records["timestamp"]
    raise TraceFormatError(
        f"unknown trace extension {path.suffix!r} (use .rps or .rpt)"
    )
