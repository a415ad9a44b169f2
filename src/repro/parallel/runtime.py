"""Session-scoped persistent worker pool: amortize fork across calls.

:func:`~repro.parallel.executor.run_shards` historically forked a fresh
pool on every call, so a 21-figure sweep at ``--workers N`` paid pool
creation once per panel cell.  A :class:`PoolRuntime` keeps one pool
alive for a whole session: the first parallel region forks it lazily,
every later region reuses it, and the per-call cost drops to task
dispatch.  Activate one with the :func:`pool_runtime` context manager
(or :func:`start_runtime`/:func:`stop_runtime` for REPL sessions); the
executor consults :func:`active_runtime` transparently, so no call site
changes.

Correctness properties the runtime preserves:

* **Determinism** — the runtime only changes *which pool* executes the
  shard tasks, never the plan, the RNG streams, or the merge order, so
  ``workers=N ≡ workers=1`` holds bit-for-bit across reused-pool calls.
* **Fork safety on config change** — a pool is recycled (torn down and
  re-forked) when a call needs more processes than it has or the
  platform start method changed; shrinking requests reuse the larger
  pool, since idle workers cost nothing.
* **Trace visibility** — persistent workers fork *before* later traces
  are published, so the fork-``inherit`` registry backend cannot reach
  them.  :meth:`repro.trace.store.TraceStore.publish` asks
  :func:`attach_preferred` and switches to the attach-by-name ``shm``
  backend whenever a live pool predates the publish.
* **Fresh-fork escape hatch** — call sites that rely on fork
  inheritance of state set *after* session start (the sweep engine's
  ``parallel_rows`` spec global) pass ``fresh_pool=True`` to
  ``run_shards`` and bypass the runtime.

An optional ``idle_timeout`` tears the pool down after a quiet period —
a long interactive session does not pin N idle processes — and the next
parallel region simply re-forks it.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time

import repro.obs as obs
from repro.errors import ParameterError
from repro.parallel.executor import (
    _POOL_CREATION_ERRORS,
    _create_pool,
    _pool_worker_state,
    _shutdown_pool,
    _supervise,
    _validate_workers,
    pool_start_method,
    resolve_retry_policy,
)


class PoolUnavailableError(RuntimeError):
    """The runtime could not provide a pool (executor falls back to serial)."""


class _RuntimePoolProvider:
    """Supervision's view of the persistent pool (runtime lock held).

    The executor's supervisor drives recovery through this shim while
    :meth:`PoolRuntime.starmap` holds the runtime lock: ``recycle``
    tears the poisoned pool down and the next ``pool()`` call re-forks
    it through the ordinary ``_ensure_pool_locked`` recipe — bumping the
    runtime's ``forks`` counter, so chaos tests can count recoveries the
    same way perf tests count amortized forks.
    """

    pool_errors = (PoolUnavailableError,)

    def __init__(self, runtime: "PoolRuntime", workers: int):
        self._runtime = runtime
        self._workers = workers

    def pool(self):
        return self._runtime._ensure_pool_locked(self._workers)

    def worker_state(self) -> frozenset:
        return _pool_worker_state(self._runtime._pool)

    def recycle(self) -> None:
        self._runtime._teardown_locked()


class PoolRuntime:
    """A lazily created, persistent worker pool reused across calls.

    Parameters
    ----------
    workers:
        Optional cap on the pool size.  ``None`` (the default) lets the
        pool grow to the largest worker count any call requests.
    idle_timeout:
        Tear the pool down after this many seconds without a parallel
        region (``None`` disables).  The next region re-forks it; only
        wall-clock, never results, depends on the teardown.
    """

    def __init__(self, workers: int | None = None, *, idle_timeout: float | None = None):
        if workers is not None:
            workers = _validate_workers(workers)
        if idle_timeout is not None and not idle_timeout > 0:
            raise ParameterError(
                f"idle_timeout must be positive or None, got {idle_timeout!r}"
            )
        self._max_workers = workers
        self._idle_timeout = idle_timeout
        self._lock = threading.Lock()
        self._owner_pid = os.getpid()
        self._pool = None
        self._pool_size = 0
        self._start_method: str | None = None
        self._timer: threading.Timer | None = None
        self._last_used = 0.0
        self._closed = False
        #: Number of pool (re)creations — the quantity the persistent
        #: runtime exists to minimise; benchmarks and tests read it.
        self.forks = 0

    # ------------------------------------------------------------- execution
    def starmap(self, fn, tasks, *, workers: int, policy=None, plan=None,
                base: int = 0, collect_errors: bool = False) -> list:
        """Run ``fn(*task)`` for every task on the persistent pool.

        Raises :class:`PoolUnavailableError` when no pool can be created
        (the executor then degrades to its serial path); exceptions from
        ``fn`` propagate unchanged and leave the pool usable.

        Dispatch is supervised under the resolved ``policy``: the
        executor's supervisor runs under the runtime lock through a
        provider shim, so a worker death or blown deadline recycles
        *this* pool in place — ``forks`` counts the recovery — instead
        of poisoning the session.  A
        :class:`~repro.errors.RetryBudgetError` likewise leaves the
        runtime recycled and reusable.
        """
        workers = _validate_workers(workers)
        policy = resolve_retry_policy(policy)
        with self._lock:
            if self._closed:
                raise PoolUnavailableError("pool runtime is closed")
            self._cancel_timer_locked()
            self._ensure_pool_locked(workers)
            try:
                return _supervise(
                    fn, tasks, policy=policy, plan=plan, base=base,
                    provider=_RuntimePoolProvider(self, workers),
                    collect_errors=collect_errors,
                )
            finally:
                self._last_used = time.monotonic()
                self._schedule_teardown_locked()

    # ------------------------------------------------------------- lifecycle
    def _ensure_pool_locked(self, workers: int):
        method = pool_start_method()
        size = workers if self._max_workers is None else min(workers, self._max_workers)
        size = max(size, 1)
        if self._pool is not None and (
            self._start_method != method or self._pool_size < size
        ):
            # Config changed under us (bigger request, new start method):
            # recycle rather than serve from a stale pool.
            self._teardown_locked()
        if self._pool is None:
            try:
                self._pool = _create_pool(method, size)
            except _POOL_CREATION_ERRORS as exc:
                raise PoolUnavailableError(
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            self._pool_size = size
            self._start_method = method
            self.forks += 1
            obs.event("runtime.pool_fork", size=size, forks=self.forks)
        return self._pool

    def _teardown_locked(self) -> None:
        if self._pool is not None:
            # No tasks can be in flight: starmap holds the same lock.
            # _shutdown_pool SIGKILLs stragglers, so a worker that lost
            # its SIGTERM (or is stuck in a C loop) cannot hang us here.
            _shutdown_pool(self._pool)
            self._pool = None
            self._pool_size = 0
            self._start_method = None

    def _cancel_timer_locked(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _schedule_teardown_locked(self) -> None:
        if self._idle_timeout is None or self._pool is None:
            return
        self._timer = threading.Timer(self._idle_timeout, self._idle_check)
        self._timer.daemon = True
        self._timer.start()

    def _idle_check(self) -> None:
        with self._lock:
            self._timer = None
            if self._pool is None or self._closed:
                return
            idle = time.monotonic() - self._last_used
            if idle + 1e-3 >= self._idle_timeout:
                self._teardown_locked()
                obs.event("runtime.idle_teardown", idle_s=round(idle, 3))
            else:  # a region ran since the timer was armed; re-arm the rest
                self._schedule_teardown_locked()

    def restart(self) -> None:
        """Force the next parallel region onto a freshly forked pool."""
        with self._lock:
            self._cancel_timer_locked()
            self._teardown_locked()

    def close(self) -> None:
        """Tear the pool down and refuse further work (idempotent)."""
        with self._lock:
            self._closed = True
            self._cancel_timer_locked()
            self._teardown_locked()

    # ------------------------------------------------------------ inspection
    def has_live_pool(self) -> bool:
        """Whether worker processes are currently alive (forked already)."""
        return self._pool is not None

    @property
    def pool_size(self) -> int:
        """Processes in the live pool (0 when torn down / not yet forked)."""
        return self._pool_size

    def __enter__(self) -> "PoolRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ------------------------------------------------------------ session scope
_ACTIVE_RUNTIME: PoolRuntime | None = None


def active_runtime() -> PoolRuntime | None:
    """The runtime ``run_shards`` should reuse, or None for fork-per-call.

    Only the process that created the runtime may use it: a forked child
    inherits the module global, but the pool's handler threads and task
    queues do not survive the fork — dispatching there would hang, not
    run.  Children therefore see None and take the ordinary fresh-pool
    path (which, inside a daemonic pool worker, degrades loudly to
    serial exactly as before).
    """
    runtime = _ACTIVE_RUNTIME
    if runtime is not None and runtime._owner_pid != os.getpid():
        return None
    return runtime


def start_runtime(
    workers: int | None = None, *, idle_timeout: float | None = None
) -> PoolRuntime:
    """Activate a session-scoped persistent runtime (replacing any current one)."""
    global _ACTIVE_RUNTIME
    if _ACTIVE_RUNTIME is not None:
        _ACTIVE_RUNTIME.close()
    _ACTIVE_RUNTIME = PoolRuntime(workers, idle_timeout=idle_timeout)
    return _ACTIVE_RUNTIME


def stop_runtime() -> None:
    """Deactivate and tear down the session runtime (no-op when absent)."""
    global _ACTIVE_RUNTIME
    if _ACTIVE_RUNTIME is not None:
        _ACTIVE_RUNTIME.close()
        _ACTIVE_RUNTIME = None


@contextlib.contextmanager
def pool_runtime(workers: int | None = None, *, idle_timeout: float | None = None):
    """Scope a persistent pool to a ``with`` block.

    Every ``run_shards`` call inside the block reuses one pool (forked
    lazily on first need); on exit the pool is torn down and any
    previously active runtime is restored, so scopes nest cleanly.
    """
    global _ACTIVE_RUNTIME
    previous = _ACTIVE_RUNTIME
    runtime = PoolRuntime(workers, idle_timeout=idle_timeout)
    _ACTIVE_RUNTIME = runtime
    try:
        yield runtime
    finally:
        _ACTIVE_RUNTIME = previous
        runtime.close()


def attach_preferred() -> bool:
    """Should ``TraceStore.publish`` pick an attach-by-name backend?

    True when a persistent pool is already live: its workers forked
    before the publish, so a fork-``inherit`` registry entry made now
    would be invisible to them — shared memory (attach by name) is the
    correct transport.  False otherwise, including when a runtime is
    active but its pool has not forked yet (the first region's pool
    forks *after* publish and inherits the registry as usual).
    """
    runtime = active_runtime()
    return runtime is not None and runtime.has_live_pool()


def runtime_mode_from_env() -> str:
    """``REPRO_RUNTIME`` session default: ``"persistent"`` or ``"fresh"``.

    An unknown runtime name raises :class:`ParameterError` naming the
    variable: a user who exported ``REPRO_RUNTIME=persistant`` asked for
    the persistent pool and must not silently get fork-per-call.
    """
    raw = os.environ.get("REPRO_RUNTIME")
    if raw is None:
        return "fresh"
    value = raw.strip().lower()
    if value in ("persistent", "pool"):
        return "persistent"
    if value in ("fresh", "fork", ""):
        return "fresh"
    raise ParameterError(
        f"invalid REPRO_RUNTIME={raw!r}: expected 'persistent' or 'fresh' "
        "(unset the variable for the fresh-pool default)"
    )
