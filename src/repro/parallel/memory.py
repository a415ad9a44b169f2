"""Zero-copy argument passing between the planner and shard workers.

:func:`shared_values` is the bridge between :mod:`repro.trace.store` and
the parallel entry points in :mod:`repro.parallel.ensembles`: it decides,
per parallel region, whether a values array should cross the process
boundary as a :class:`~repro.trace.store.TraceHandle` (published once,
attached by every shard) or ride along as the plain array (serial runs,
single-shard plans, tiny arrays not worth a segment).

Workers call :func:`repro.trace.store.resolve_values` on whatever they
receive, so the dispatch mode is invisible to the computation — and to
the ``workers=N`` ≡ ``workers=1`` determinism contract.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.trace.store import TraceStore, resolve_values

#: Arrays smaller than this are cheaper to pickle than to publish; the
#: cutoff only tunes the constant factor, never the results.
MIN_SHARED_BYTES = 1 << 16


@contextlib.contextmanager
def shared_values(values, *, workers: int, n_tasks: int = 2):
    """Yield what shard tasks should carry for ``values``.

    Publishes the array into a :class:`TraceStore` — yielding its handle
    — when a real pool is coming (``workers > 1`` and more than one
    task) and the array is big enough to matter; otherwise yields the
    array itself.  The store is closed (and any shared-memory segment
    unlinked) when the region exits, so handles never outlive the
    dispatch they were minted for.
    """
    values = resolve_values(values)
    if (
        workers <= 1
        or n_tasks <= 1
        or not isinstance(values, np.ndarray)
        or values.nbytes < MIN_SHARED_BYTES
    ):
        yield values
        return
    with TraceStore.publish(values) as store:
        yield store.handle
