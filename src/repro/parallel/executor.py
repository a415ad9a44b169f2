"""Worker-pool executor: serial fallback, session defaults, supervision.

``run_shards`` is the only place in the library that touches
``multiprocessing``: every parallel entry point hands it a module-level
worker function plus one argument tuple per shard and gets the per-shard
results back *in shard order*.  ``workers=1`` (the default) never creates
a pool — the tasks run in-process, in order, so the serial path is the
parallel path with a trivial plan, not a separate code branch.

If a pool cannot be created (sandboxed environments without working
semaphores, platforms without ``fork``), execution degrades to the
serial path — results are identical by construction, only slower — and a
one-time :class:`RuntimeWarning` names the cause, so a silently serial
session is diagnosable.

The session default worker count starts at the ``REPRO_WORKERS``
environment variable (1 when unset; a malformed value raises
:class:`~repro.errors.ParameterError` naming the variable rather than
silently running serial); the ``--workers`` CLI flag and the
:func:`default_workers` context override it for their scope.

Fault tolerance (the supervision layer)
---------------------------------------
Every pool dispatch is *supervised*: instead of one blocking
``starmap``, shards go out as individual async tasks and the parent
watches the pool's worker processes while it collects results.  A worker
that dies (killed, OOM, segfault) or a shard that misses the
:class:`RetryPolicy` deadline does not hang or poison the session — the
pool is recycled and only the affected shards are re-executed, with
bounded exponential backoff, up to the policy's attempt budget.  Shard
tasks are pure functions of their argument tuples (RNG streams are
spawned in the parent), so a retried shard is bit-identical to an
undisturbed one; supervision can never change a result, only rescue it.
A shard still failing after its last attempt raises
:class:`~repro.errors.RetryBudgetError`, which the campaign layer turns
into a quarantined cell instead of an aborted run.

Dispatch under ``RetryPolicy(max_attempts=1)`` is supervised too; the
budget only forbids retries, so a lost shard raises at once instead of
hanging the call.  Deterministic fault *injection* — the tooling that
proves all of this on every CI run — lives in :mod:`repro.faults`; when
a fault plan is active, shard dispatch routes through its picklable
wrapper so directives fire inside the workers.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass

import repro.obs as obs
from repro.errors import (
    ParameterError,
    RetryBudgetError,
    ShardDeadlineError,
    WorkerLostError,
)
from repro.faults import active_plan, call_with_faults, next_shard_base
from repro.utils.once import warn_once


def _validate_workers(workers) -> int:
    """Reject anything but a genuine positive int (2.5 must not truncate)."""
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ParameterError(
            f"workers must be an int >= 1, got {workers!r} "
            f"({type(workers).__name__})"
        )
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    return workers


def _workers_from_env() -> int:
    """Session default from ``REPRO_WORKERS`` (1 when unset).

    A malformed value raises :class:`ParameterError` naming the variable:
    a user who exported ``REPRO_WORKERS=8x`` asked for parallelism and
    must not silently get a serial session.  The variable is read lazily
    (first :func:`get_default_workers` call), so ``import repro`` itself
    never fails — the first parallel-aware call does, loudly.
    """
    raw = os.environ.get("REPRO_WORKERS")
    if raw is None:
        return 1
    try:
        return _validate_workers(int(raw))
    except (ValueError, ParameterError):
        raise ParameterError(
            f"invalid REPRO_WORKERS={raw!r}: expected an int >= 1 "
            "(unset the variable for the serial default)"
        ) from None


#: Session-wide default worker count: seeded lazily from ``REPRO_WORKERS``
#: (None = not yet read), overridden by ``--workers`` at the CLI.
_DEFAULT_WORKERS: int | None = None

#: Provenance of the session worker default, for the ``runtime`` CLI:
#: "default", "env", "cli", or "context".
_WORKERS_SOURCE = "default"


def set_default_workers(workers: int, *, _source: str = "cli") -> None:
    """Set the session default used when a call site passes ``workers=None``."""
    global _DEFAULT_WORKERS, _WORKERS_SOURCE
    _DEFAULT_WORKERS = _validate_workers(workers)
    _WORKERS_SOURCE = _source


def get_default_workers() -> int:
    """Current session default worker count (reads ``REPRO_WORKERS`` once)."""
    global _DEFAULT_WORKERS, _WORKERS_SOURCE
    if _DEFAULT_WORKERS is None:
        _DEFAULT_WORKERS = _workers_from_env()
        _WORKERS_SOURCE = (
            "env" if os.environ.get("REPRO_WORKERS") is not None else "default"
        )
    return _DEFAULT_WORKERS


def workers_provenance() -> str:
    """Where the effective worker default came from (``runtime`` CLI)."""
    get_default_workers()
    return _WORKERS_SOURCE


@contextlib.contextmanager
def default_workers(workers: int | None):
    """Temporarily set the session default (no-op when ``workers`` is None).

    Saves and restores the raw default slot rather than resolving it, so
    an explicit worker count wins over ``REPRO_WORKERS`` even when the
    env value is malformed — the documented CLI-beats-env precedence.
    The env error still fires loudly the first time the default is
    actually *consulted* (a ``workers=None`` resolution outside any
    override).
    """
    global _DEFAULT_WORKERS, _WORKERS_SOURCE
    if workers is None:
        yield
        return
    previous = _DEFAULT_WORKERS  # may be the unread-env sentinel (None)
    previous_source = _WORKERS_SOURCE
    set_default_workers(workers, _source="context")
    try:
        yield
    finally:
        _DEFAULT_WORKERS = previous
        _WORKERS_SOURCE = previous_source


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` argument: ``None`` means the session default."""
    if workers is None:
        return get_default_workers()
    return _validate_workers(workers)


def suggested_workers() -> int:
    """A sensible ``--workers`` value for this machine (>= 1)."""
    return max(os.cpu_count() or 1, 1)


def pool_start_method() -> str:
    """Start method ``run_shards`` will use for its pools.

    Fork is preferred — it is cheap and lets children inherit the
    parent's published trace buffers outright (the zero-copy ``inherit``
    backend); elsewhere the platform default applies and shared memory
    carries the traces instead.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


def machine_metadata() -> dict:
    """What a reader needs to interpret this machine's recorded numbers.

    Stamped into every ``BENCH_*`` report header and scenario-campaign
    manifest: parallel-scaling rows measured on a single-core container
    say something entirely different from the same rows on a 16-core
    box, and the pool start method decides which zero-copy backend a
    recorded run exercised.
    """
    import platform

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "start_method": pool_start_method(),
    }


#: Campaign scheduling modes — where the unit of parallel dispatch sits.
#: ``"ensembles"`` parallelises inside each cell (the historical
#: behaviour), ``"cells"`` shards the campaign's pending-cell list
#: itself, ``"auto"`` lets the planner pick per campaign.
SCHEDULE_MODES = ("auto", "cells", "ensembles")

#: Session-wide schedule mode: seeded lazily from ``REPRO_SCHEDULE``
#: (None = not yet read), overridden by ``--schedule`` at the CLI.
_DEFAULT_SCHEDULE: str | None = None

#: Provenance of the session schedule mode (see ``_WORKERS_SOURCE``).
_SCHEDULE_SOURCE = "default"


def _validate_schedule(mode) -> str:
    if not isinstance(mode, str) or mode not in SCHEDULE_MODES:
        raise ParameterError(
            f"schedule must be one of {list(SCHEDULE_MODES)}, got {mode!r}"
        )
    return mode


def _schedule_from_env() -> str:
    """Session default from ``REPRO_SCHEDULE`` (``"auto"`` when unset).

    Same contract as ``REPRO_WORKERS``: a malformed value raises
    :class:`ParameterError` naming the variable — a user who exported
    ``REPRO_SCHEDULE=cell`` asked for cell scheduling and must not
    silently get something else.  Read lazily on first consultation.
    """
    raw = os.environ.get("REPRO_SCHEDULE")
    if raw is None:
        return "auto"
    value = raw.strip().lower()
    if value == "":
        return "auto"
    if value in SCHEDULE_MODES:
        return value
    raise ParameterError(
        f"invalid REPRO_SCHEDULE={raw!r}: expected one of "
        f"{list(SCHEDULE_MODES)} (unset the variable for the 'auto' default)"
    )


def set_default_schedule(mode: str, *, _source: str = "cli") -> None:
    """Set the session schedule mode used when a call site passes ``None``."""
    global _DEFAULT_SCHEDULE, _SCHEDULE_SOURCE
    _DEFAULT_SCHEDULE = _validate_schedule(mode)
    _SCHEDULE_SOURCE = _source


def get_default_schedule() -> str:
    """Current session schedule mode (reads ``REPRO_SCHEDULE`` once)."""
    global _DEFAULT_SCHEDULE, _SCHEDULE_SOURCE
    if _DEFAULT_SCHEDULE is None:
        _DEFAULT_SCHEDULE = _schedule_from_env()
        _SCHEDULE_SOURCE = (
            "env" if os.environ.get("REPRO_SCHEDULE") is not None else "default"
        )
    return _DEFAULT_SCHEDULE


def schedule_provenance() -> str:
    """Where the effective schedule mode came from (``runtime`` CLI)."""
    get_default_schedule()
    return _SCHEDULE_SOURCE


@contextlib.contextmanager
def default_schedule(mode: str | None):
    """Temporarily set the session schedule mode (no-op when ``None``).

    Like :func:`default_workers`, the raw slot is saved and restored
    unresolved, so an explicit mode wins over a malformed env value and
    the env error still fires when the default is genuinely consulted.
    """
    global _DEFAULT_SCHEDULE, _SCHEDULE_SOURCE
    if mode is None:
        yield
        return
    previous = _DEFAULT_SCHEDULE  # may be the unread-env sentinel (None)
    previous_source = _SCHEDULE_SOURCE
    set_default_schedule(mode, _source="context")
    try:
        yield
    finally:
        _DEFAULT_SCHEDULE = previous
        _SCHEDULE_SOURCE = previous_source


def resolve_schedule(mode: str | None) -> str:
    """Normalise a ``schedule`` argument: ``None`` means the session default."""
    if mode is None:
        return get_default_schedule()
    return _validate_schedule(mode)


#: Exceptions meaning "no working pool in this environment" (missing
#: semaphores, daemonic parent, unsupported start method, ...).
_POOL_CREATION_ERRORS = (OSError, ValueError, RuntimeError, AssertionError)


def _create_pool(method: str, processes: int):
    """The one pool-creation recipe every dispatch path shares.

    Both the fresh-pool path below and the persistent
    :class:`repro.parallel.runtime.PoolRuntime` create their pools here,
    so the two can never diverge on context or error handling; callers
    catch :data:`_POOL_CREATION_ERRORS`.
    """
    ctx = multiprocessing.get_context(method)
    pool = ctx.Pool(processes=processes)
    obs.count("executor.pool_forks")
    return pool


#: ``warn_once`` key for the serial-degradation diagnostic.
POOL_FAILURE_KEY = "parallel.pool-unavailable"


def _warn_pool_failure(exc: BaseException) -> None:
    """One-time diagnostic naming why shards are running serially."""
    warn_once(
        POOL_FAILURE_KEY,
        "repro.parallel: could not create a worker pool "
        f"({type(exc).__name__}: {exc}); shards will run serially in this "
        "session (results are identical, only slower)",
        stacklevel=4,
    )


@dataclass(frozen=True)
class RetryPolicy:
    """How supervised dispatch handles lost, hung, and failing shards.

    ``max_attempts`` is the per-shard budget: the first execution is
    attempt 1, so ``max_attempts=1`` means "never retry" — a lost shard
    raises :class:`~repro.errors.RetryBudgetError` at once.
    ``shard_deadline`` (seconds,
    measured per dispatch round) marks shards still running past it as
    :class:`~repro.errors.ShardDeadlineError` candidates for retry.
    Between retry rounds the supervisor recycles the pool and sleeps
    ``min(backoff_base * 2**(round-1), backoff_cap)`` seconds.
    """

    max_attempts: int = 3
    shard_deadline: float | None = None
    backoff_base: float = 0.05
    backoff_cap: float = 1.0

    def __post_init__(self):
        if isinstance(self.max_attempts, bool) or not isinstance(self.max_attempts, int):
            raise ParameterError(
                f"max_attempts must be an int >= 1, got {self.max_attempts!r}"
            )
        if self.max_attempts < 1:
            raise ParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.shard_deadline is not None and not self.shard_deadline > 0:
            raise ParameterError(
                f"shard_deadline must be positive (or None), got "
                f"{self.shard_deadline!r}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ParameterError(
                "backoff_base and backoff_cap must be >= 0, got "
                f"{self.backoff_base!r} and {self.backoff_cap!r}"
            )


#: Session-wide retry policy used when a call site passes ``policy=None``.
_RETRY_POLICY = RetryPolicy()


def _validate_policy(policy) -> RetryPolicy:
    if not isinstance(policy, RetryPolicy):
        raise ParameterError(
            f"policy must be a RetryPolicy, got {policy!r} "
            f"({type(policy).__name__})"
        )
    return policy


def get_retry_policy() -> RetryPolicy:
    """The session's current default :class:`RetryPolicy`."""
    return _RETRY_POLICY


def set_retry_policy(policy: RetryPolicy) -> None:
    """Set the session default used when a call site passes ``policy=None``."""
    global _RETRY_POLICY
    _RETRY_POLICY = _validate_policy(policy)


@contextlib.contextmanager
def retry_policy(policy: RetryPolicy | None):
    """Temporarily set the session retry policy (no-op when ``None``)."""
    global _RETRY_POLICY
    if policy is None:
        yield
        return
    previous = _RETRY_POLICY
    set_retry_policy(policy)
    try:
        yield
    finally:
        _RETRY_POLICY = previous


def resolve_retry_policy(policy: RetryPolicy | None) -> RetryPolicy:
    """Normalise a ``policy`` argument: ``None`` means the session default."""
    if policy is None:
        return _RETRY_POLICY
    return _validate_policy(policy)


#: Poll interval of the supervision loop (seconds).  Coarse enough to be
#: invisible next to real shard work, fine enough that worker death and
#: deadline overruns are noticed promptly.
_POLL_INTERVAL = 0.02


def _pool_worker_state(pool) -> frozenset:
    """Snapshot of the pool's worker processes for death detection.

    Pairs each worker pid with its exit code: a killed worker flips its
    exit code the instant ``waitpid`` reaps it — before the pool's
    handler thread gets around to pruning ``_pool`` — so comparing
    snapshots catches deaths with one poll tick of latency.  ``_pool``
    is a CPython implementation detail; where it is absent the snapshot
    is empty and detection quietly degrades to deadline-based recovery.
    """
    procs = getattr(pool, "_pool", None) or ()
    return frozenset((p.pid, p.exitcode) for p in list(procs))


#: How long ``Pool.terminate``'s own machinery (sentinels, SIGTERM) gets
#: before escalation.  A healthy teardown finishes in milliseconds and
#: never waits this long; only a wedged one pays it.
_SHUTDOWN_TERM_GRACE = 1.0

#: Grace period for a pool teardown before the pool object is abandoned.
#: By then every worker has been SIGKILLed, so abandoning leaks at most
#: the pool's daemon helper threads — never a process.
_SHUTDOWN_GRACE = 5.0


def _shutdown_pool(pool) -> None:
    """Tear a pool down without trusting SIGTERM delivery.

    ``Pool.terminate`` signals its workers and then joins them
    unconditionally, and that join can hang forever.  A replacement
    worker forked by the pool's maintenance thread at the wrong instant
    can receive the SIGTERM before the interpreter's after-fork hook
    runs — which clears fork-inherited pending signals — and then park
    in ``inqueue.get()`` on the very queue lock the terminating parent
    holds.  A compute-bound worker similarly outlives SIGTERM because
    the Python-level handler needs the eval loop.  So run ``terminate``
    on a helper thread and, if it has not returned after a grace window,
    sweep SIGKILL over the worker list until it does.

    The grace window matters: an idle worker *holds* the inqueue read
    lock while blocked in ``recv``, and normal teardown releases it by
    feeding the worker a sentinel.  Killing that worker pre-emptively
    would wedge the very teardown this function exists to protect, so
    escalation waits for the cooperative path to prove itself stuck.
    Teardown only ever happens after the batch's results are collected
    or written off, so no result of value can be lost either way.
    """

    def _terminate():
        try:
            pool.terminate()
        except Exception:
            pass  # best effort: the kill sweep already reaps the workers

    finisher = threading.Thread(target=_terminate, daemon=True)
    finisher.start()
    finisher.join(_SHUTDOWN_TERM_GRACE)
    deadline = time.monotonic() + _SHUTDOWN_GRACE
    while finisher.is_alive():
        for proc in list(getattr(pool, "_pool", None) or ()):
            try:
                proc.kill()
            except (OSError, ValueError):
                pass  # already reaped or closed
        finisher.join(_POLL_INTERVAL)
        if time.monotonic() >= deadline:
            return
    pool.join()


class _FreshPoolProvider:
    """Supervision's view of a throwaway per-call pool."""

    pool_errors = _POOL_CREATION_ERRORS

    def __init__(self, method: str, processes: int):
        self._method = method
        self._processes = processes
        self._pool = None

    def pool(self):
        if self._pool is None:
            self._pool = _create_pool(self._method, self._processes)
        return self._pool

    def worker_state(self) -> frozenset:
        return _pool_worker_state(self._pool) if self._pool is not None else frozenset()

    def recycle(self) -> None:
        if self._pool is not None:
            _shutdown_pool(self._pool)
            self._pool = None

    close = recycle


def _call_shard(fn, task, plan, shard: int, attempt: int, *, in_worker: bool):
    """Run one shard in-process, honouring any active fault plan."""
    if plan is not None and plan.has_shard_faults():
        return call_with_faults(plan, shard, attempt, in_worker, fn, tuple(task))
    return fn(*task)


def _dispatch_shard(pool, fn, task, plan, shard: int, attempt: int):
    """Send one shard to the pool, wrapped for fault injection if needed.

    The fault plan rides in the pickled arguments — never via inherited
    globals — so workers forked before the plan existed still honour it.
    """
    if plan is not None and plan.has_shard_faults():
        return pool.apply_async(
            call_with_faults, (plan, shard, attempt, True, fn, tuple(task))
        )
    return pool.apply_async(fn, tuple(task))


def _supervise(fn, tasks, *, policy: RetryPolicy, plan, base: int, provider,
               collect_errors: bool = False) -> list:
    """Supervised dispatch: async shards, a watchdog, and bounded retries.

    The first round dispatches every shard with ``apply_async`` and
    polls for results while watching the pool's worker processes.  A
    worker death marks the round's uncollected shards lost (an already
    ``ready()`` result is always collected first — completed work is
    never discarded); a shard running past ``policy.shard_deadline``
    (measured from its dispatch) is marked the same way.  Lost shards
    trigger a pool recycle and a backed-off retry round of *only* those
    shards — re-execution is bit-identical because shard tasks are pure
    functions of their arguments.

    Retry rounds go **single-flight**: one shard in the pool at a time,
    so a worker death (or deadline miss) is attributable to exactly the
    shard that was running.  Collateral loss can therefore only cost a
    shard its first-round attempt — an innocent shard that shared round
    zero with a poisonous one retries in isolation and succeeds, and
    only genuinely failing shards ever exhaust their budgets.

    A shard with no attempts left raises
    :class:`~repro.errors.RetryBudgetError` (after the recycle, so a
    persistent session is not poisoned); exceptions raised *by* the
    shard function propagate unchanged, as on every other path.  With
    ``collect_errors=True`` an exhausted shard does not abort the call:
    its slot in the result list holds the
    :class:`~repro.errors.RetryBudgetError` instance and the remaining
    shards keep running.  The campaign layer uses this to quarantine
    exactly the failing cell.

    If the pool cannot be (re)created, the round's remaining shards
    finish serially in-process — same degradation, same one-time
    warning, as a pool that fails to start.
    """
    results: list = [None] * len(tasks)
    attempts = [0] * len(tasks)
    pending = list(range(len(tasks)))
    round_no = 0
    while pending:
        if round_no > 0:
            time.sleep(
                min(policy.backoff_base * 2 ** (round_no - 1), policy.backoff_cap)
            )
        batches = [list(pending)] if round_no == 0 else [[i] for i in pending]
        lost: dict = {}
        for b, batch in enumerate(batches):
            try:
                pool = provider.pool()
            except provider.pool_errors as exc:
                _warn_pool_failure(exc.__cause__ or exc)
                for i in [j for rest in batches[b:] for j in rest] + sorted(lost):
                    attempts[i] += 1
                    results[i] = _call_shard(
                        fn, tasks[i], plan, base + i, attempts[i], in_worker=False
                    )
                return results
            workers_before = provider.worker_state()
            dispatched = time.monotonic()
            handles = []
            for i in batch:
                attempts[i] += 1
                if attempts[i] > 1:
                    obs.event("executor.shard_retry", shard=base + i,
                              attempt=attempts[i])
                    obs.count("executor.retries")
                handles.append(
                    (i, _dispatch_shard(pool, fn, tasks[i], plan, base + i,
                                        attempts[i]))
                )
            worker_died = False
            batch_lost = False
            for i, handle in handles:
                while True:
                    if handle.ready():
                        results[i] = handle.get()
                        break
                    if worker_died:
                        lost[i] = WorkerLostError(
                            f"shard {base + i} lost to a dead pool worker "
                            f"(attempt {attempts[i]} of {policy.max_attempts})"
                        )
                        obs.event("executor.worker_lost", shard=base + i,
                                  attempt=attempts[i])
                        obs.count("executor.worker_losses")
                        batch_lost = True
                        break
                    if (
                        policy.shard_deadline is not None
                        and time.monotonic() - dispatched >= policy.shard_deadline
                    ):
                        lost[i] = ShardDeadlineError(
                            f"shard {base + i} missed its "
                            f"{policy.shard_deadline:g}s deadline "
                            f"(attempt {attempts[i]} of {policy.max_attempts})"
                        )
                        obs.event("executor.shard_deadline", shard=base + i,
                                  attempt=attempts[i])
                        obs.count("executor.deadline_misses")
                        batch_lost = True
                        break
                    handle.wait(_POLL_INTERVAL)
                    if provider.worker_state() != workers_before:
                        worker_died = True
            if batch_lost:
                # A dead or deadline-hogged worker must never serve another
                # shard: recycle before the next batch, the next retry
                # round, and before giving up, so a persistent runtime
                # session stays healthy either way.
                provider.recycle()
                obs.event("executor.pool_recycle")
                obs.count("executor.pool_recycles")
        if not lost:
            return results
        exhausted = sorted(i for i in lost if attempts[i] >= policy.max_attempts)
        if exhausted:
            for i in exhausted:
                obs.event("executor.retry_budget_exhausted", shard=base + i,
                          attempts=attempts[i])
                obs.count("executor.budget_exhaustions")
            if not collect_errors:
                detail = "; ".join(str(lost[i]) for i in exhausted)
                raise RetryBudgetError(
                    f"{len(exhausted)} shard(s) still failing after "
                    f"{policy.max_attempts} attempt(s): {detail}"
                )
            for i in exhausted:
                results[i] = RetryBudgetError(
                    f"shard {base + i} still failing after "
                    f"{policy.max_attempts} attempt(s): {lost[i]}"
                )
                del lost[i]
        round_no += 1
        pending = sorted(lost)
    return results


def _run_serial(fn, tasks, plan, base: int) -> list:
    """The in-process path: shard spans, no pool, results in order."""
    results = []
    for i, task in enumerate(tasks):
        with obs.span("shard", index=base + i):
            results.append(
                _call_shard(fn, task, plan, base + i, 1, in_worker=False)
            )
    return results


def run_shards(fn, tasks, *, workers: int | None = None, fresh_pool: bool = False,
               policy: RetryPolicy | None = None,
               collect_errors: bool = False) -> list:
    """Apply ``fn(*task)`` to every task, returning results in task order.

    ``fn`` must be a module-level (picklable) function and each task a
    tuple of picklable arguments.  With ``workers > 1`` and more than one
    task, tasks are distributed over a process pool; otherwise — or when a
    pool cannot be created — they run serially in-process.  Exceptions
    raised by ``fn`` propagate to the caller either way.

    ``collect_errors=True`` makes supervised dispatch deliver a shard's
    :class:`~repro.errors.RetryBudgetError` *in its result slot* instead
    of raising, so one doomed task cannot abort its siblings; it only
    changes what happens on budget exhaustion, never a healthy result.

    When a session-scoped :class:`repro.parallel.runtime.PoolRuntime` is
    active, its persistent pool is reused instead of forking per call —
    amortizing pool creation across every parallel region of a session.
    ``fresh_pool=True`` opts a call out of the runtime: pass it when the
    worker function depends on fork-inheriting parent state set *after*
    the session started (e.g. the sweep engine's ``parallel_rows`` spec
    global), which a long-lived pool's workers cannot see.

    Pool dispatch is supervised per the resolved :class:`RetryPolicy`
    (``policy=None`` means the session default): dead workers and blown
    shard deadlines cost a pool recycle and a retry of only the affected
    shards, never the session.  Each task is dispatched on its own, so a
    cheap task is never batched behind an expensive one.  When a
    :mod:`repro.faults` plan is active, this call claims the next global
    shard indices and routes dispatch through the fault wrapper so
    directives can fire.

    Large arrays should not ride in the task tuples: publish them once
    through :class:`repro.trace.store.TraceStore` and pass the handle —
    see :func:`repro.parallel.memory.shared_values`.
    """
    tasks = list(tasks)
    n_workers = resolve_workers(workers)
    pol = resolve_retry_policy(policy)
    plan = active_plan()
    # Claim shard indices even on the serial path: fault directives must
    # address the same unit of work regardless of the worker count.
    base = next_shard_base(len(tasks)) if plan is not None else 0
    obs.count("executor.shards", len(tasks))
    if n_workers <= 1 or len(tasks) <= 1:
        return _run_serial(fn, tasks, plan, base)
    if not fresh_pool:
        from repro.parallel.runtime import PoolUnavailableError, active_runtime

        runtime = active_runtime()
        if runtime is not None:
            try:
                # Cap at the task count like the fresh path sizes its
                # pool — a small dispatch must not grow (and recycle)
                # the persistent pool past what it can use.
                return runtime.starmap(
                    fn, tasks, workers=min(n_workers, len(tasks)),
                    policy=pol, plan=plan, base=base,
                    collect_errors=collect_errors,
                )
            except PoolUnavailableError as exc:
                _warn_pool_failure(exc.__cause__ or exc)
                return _run_serial(fn, tasks, plan, base)
    provider = _FreshPoolProvider(pool_start_method(), min(n_workers, len(tasks)))
    try:
        provider.pool()
    except _POOL_CREATION_ERRORS as exc:
        # No working pool in this environment (missing semaphores, daemonic
        # parent, ...): degrade to the serial path, which is bit-for-bit
        # identical by construction — but say so, once.
        _warn_pool_failure(exc)
        return _run_serial(fn, tasks, plan, base)
    try:
        return _supervise(fn, tasks, policy=pol, plan=plan, base=base,
                          provider=provider, collect_errors=collect_errors)
    finally:
        provider.close()
