"""Worker-pool executor: serial fallback, session defaults, supervision.

``run_shards`` is the only place in the library that touches
``multiprocessing``.  A caller hands it a module-level worker function
plus one argument tuple per task, and iterates the results *in task
order*, each as soon as it and every task before it have finished.  The
library dispatches whole units of the paper's evaluation this way, once
per command: the pending cells of a campaign
(:mod:`repro.scenarios.schedule`) and the figures of ``run all``.
``workers=1`` (the default) never creates a pool — the tasks run
in-process, in order, so the serial path is the parallel path with one
worker, not a separate code branch.

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
Every pool dispatch is *supervised*.  At most one task per worker is in
flight: the next task goes out when a worker frees, so a task's
:class:`RetryPolicy` deadline runs from when it could start, never over
time it spent queued.  The parent polls every in-flight task while it
watches the pool's worker processes.  A worker that dies (killed, OOM,
segfault) or a task that misses its deadline does not hang the call —
the pool is recycled and the tasks that were in flight are re-executed,
each on its own, with bounded exponential backoff, up to the policy's
attempt budget.  Tasks are pure functions of their argument tuples, so
a retried task is bit-identical to an undisturbed one; supervision can
never change a result, only rescue it.  A task still failing after its
last attempt raises :class:`~repro.errors.RetryBudgetError`, which the
campaign layer turns into a quarantined cell instead of an aborted run.

Dispatch under ``RetryPolicy(max_attempts=1)`` is supervised too; the
budget only forbids retries, so a lost task raises at once instead of
hanging the call.  Every supervision event names its task by its index
in the call's task list (the ``shard`` attribute).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import queue as queue_module
import sys
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
from repro.utils.once import warn_once
from repro.utils.validation import (
    require_int_at_least,
    require_non_negative,
    require_positive,
)


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

    Fork is preferred — it is cheap, and the workers start with the
    parent's imports already loaded; elsewhere the platform default
    applies.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


def machine_metadata() -> dict:
    """What a reader needs to interpret this machine's recorded numbers.

    Stamped into every benchmark header and scenario-campaign manifest:
    parallel-scaling rows measured on a single-core container say
    something entirely different from the same rows on a 16-core box,
    and the pool start method decides how workers come up.
    """
    import platform

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "start_method": pool_start_method(),
    }


#: Exceptions meaning "no working pool in this environment" (missing
#: semaphores, daemonic parent, unsupported start method, ...).
_POOL_CREATION_ERRORS = (OSError, ValueError, RuntimeError, AssertionError)


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

    ``max_attempts`` is the per-task budget: the first execution is
    attempt 1, so ``max_attempts=1`` means "never retry" — a lost task
    raises :class:`~repro.errors.RetryBudgetError` at once.
    ``shard_deadline`` (seconds, measured from the moment a worker takes
    the task) marks a task still running past it as a
    :class:`~repro.errors.ShardDeadlineError` candidate for retry.  After
    a loss the supervisor recycles the pool, and before a task's
    attempt ``a`` it sleeps ``min(backoff_base * 2**(a-2), backoff_cap)``
    seconds.
    """

    max_attempts: int = 3
    shard_deadline: float | None = None
    backoff_base: float = 0.05
    backoff_cap: float = 1.0

    def __post_init__(self):
        checked = {"max_attempts": require_int_at_least(
            "max_attempts", self.max_attempts, 1)}
        if self.shard_deadline is not None:
            checked["shard_deadline"] = require_positive(
                "shard_deadline", self.shard_deadline)
        for field in ("backoff_base", "backoff_cap"):
            checked[field] = require_non_negative(field, getattr(self, field))
        for field, value in checked.items():
            object.__setattr__(self, field, value)


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


#: Poll interval of the supervision loop (seconds).  A finished task
#: wakes the loop at once; the interval only bounds how late a worker
#: death or a missed deadline is noticed.
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
    Teardown only ever happens after the call's results are collected
    or written off, so no result of value can be lost either way.

    A dispatch left open until the interpreter exits is finalized after
    ``multiprocessing``'s own exit handler has terminated its pool, at a
    point where no new thread can start (``Thread.start`` would wait
    forever), so teardown is skipped there.
    """
    if sys.is_finalizing():
        return

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


class _PoolUnavailable(Exception):
    """No pool could be (re)created; the caller finishes serially."""


class _Supervisor:
    """One supervised pool dispatch: at most one task per worker in flight.

    A task goes out only when a worker is free for it, so its deadline
    runs from when it can start, and every in-flight task is watched,
    not only the oldest.  A worker death or a missed deadline recycles
    the pool, and every task then in flight is *lost*: it re-runs alone
    in the pool (single-flight), so a further death or overrun is
    attributable to exactly that task.  Collateral loss therefore costs
    an innocent task one attempt at most, and only a task that keeps
    failing on its own exhausts its budget.
    """

    def __init__(self, fn, tasks, *, processes: int, policy: RetryPolicy):
        self.fn = fn
        self.tasks = tasks
        self.processes = processes
        self.policy = policy
        self.attempts = [0] * len(tasks)
        self.pool = None
        self.workers_before = frozenset()
        # The pool's completion callbacks deliver ``(token, ok, value)``
        # here, so a finished task wakes ``wait`` at once.  A token names
        # one attempt of one task; a stale one, from a pool that was
        # recycled under it, matches no in-flight entry.
        self.done: queue_module.SimpleQueue = queue_module.SimpleQueue()

    def ensure_pool(self) -> None:
        if self.pool is not None:
            return
        try:
            ctx = multiprocessing.get_context(pool_start_method())
            self.pool = ctx.Pool(processes=self.processes)
        except _POOL_CREATION_ERRORS as exc:
            raise _PoolUnavailable() from exc
        obs.count("executor.pool_forks")
        self.workers_before = _pool_worker_state(self.pool)

    def recycle(self) -> None:
        if self.pool is not None:
            _shutdown_pool(self.pool)
            self.pool = None

    def submit(self, i: int) -> tuple:
        """Send task ``i`` to the pool; returns ``(token, started)``."""
        self.attempts[i] += 1
        attempt = self.attempts[i]
        if attempt > 1:
            obs.event("executor.shard_retry", shard=i, attempt=attempt)
            obs.count("executor.retries")
        token = (i, attempt)
        self.pool.apply_async(
            self.fn, tuple(self.tasks[i]),
            callback=lambda value: self.done.put((token, True, value)),
            error_callback=lambda exc: self.done.put((token, False, exc)),
        )
        return token, time.monotonic()

    def wait(self, inflight: dict) -> tuple[dict, dict]:
        """Block until in-flight tasks finish or the pool is lost.

        ``inflight`` maps task index to ``(token, started)``.  Returns
        ``(finished, lost)``: the results of the tasks that finished (a
        task's own exception propagates from here) and, when a worker
        died or a task ran past its deadline, the error every other
        in-flight task was lost with; the pool is then recycled.  A
        result that has arrived is always kept, even beside a loss.
        """
        finished: dict = {}
        while not finished:
            block = True
            while True:
                try:
                    token, ok, value = self.done.get(block, _POLL_INTERVAL)
                except queue_module.Empty:
                    break
                block = False
                i = token[0]
                if i in inflight and inflight[i][0] == token:
                    if not ok:
                        raise value
                    finished[i] = value
            lost = self._losses(
                {i: entry for i, entry in inflight.items() if i not in finished}
            )
            if lost:
                return finished, lost
        return finished, {}

    def _losses(self, pending: dict) -> dict:
        """Errors for ``pending`` if a worker died or a task is overdue."""
        died = _pool_worker_state(self.pool) != self.workers_before
        deadline = self.policy.shard_deadline
        now = time.monotonic()
        overdue = set() if died or deadline is None else {
            i for i, (_, started) in pending.items() if now - started >= deadline
        }
        if not (died or overdue):
            return {}
        lost = {i: self._loss(i, overdue) for i in pending}
        self.recycle()
        obs.event("executor.pool_recycle")
        obs.count("executor.pool_recycles")
        return lost

    def _loss(self, i: int, overdue: set) -> Exception:
        attempt = self.attempts[i]
        budget = f"attempt {attempt} of {self.policy.max_attempts}"
        if i in overdue:
            obs.event("executor.shard_deadline", shard=i, attempt=attempt)
            obs.count("executor.deadline_misses")
            return ShardDeadlineError(
                f"shard {i} missed its {self.policy.shard_deadline:g}s "
                f"deadline ({budget})"
            )
        obs.event("executor.worker_lost", shard=i, attempt=attempt)
        obs.count("executor.worker_losses")
        cause = ("lost when the pool was recycled" if overdue
                 else "lost to a dead pool worker")
        return WorkerLostError(f"shard {i} {cause} ({budget})")

    def retry(self, i: int, error: Exception, *, collect_errors: bool):
        """Re-run lost task ``i`` alone until it succeeds or its budget ends.

        Sleeps ``min(backoff_base * 2**(attempt-2), backoff_cap)`` before
        each attempt.  An exhausted task raises
        :class:`~repro.errors.RetryBudgetError` — or, with
        ``collect_errors``, returns it as the task's result.
        """
        policy = self.policy
        while self.attempts[i] < policy.max_attempts:
            time.sleep(min(policy.backoff_base * 2 ** (self.attempts[i] - 1),
                           policy.backoff_cap))
            self.ensure_pool()
            finished, lost = self.wait({i: self.submit(i)})
            if finished:
                return finished[i]
            error = lost[i]
        obs.event("executor.retry_budget_exhausted", shard=i,
                  attempts=self.attempts[i])
        obs.count("executor.budget_exhaustions")
        exhausted = RetryBudgetError(
            f"shard {i} still failing after "
            f"{policy.max_attempts} attempt(s): {error}"
        )
        if not collect_errors:
            raise exhausted
        return exhausted


def _supervise(fn, tasks, *, processes: int, policy: RetryPolicy,
               collect_errors: bool):
    """Supervised pool dispatch, yielding results in task order.

    Tasks go out in task order, at most ``processes`` at a time; each
    result is yielded as soon as it and every task before it are done.
    If the pool cannot be (re)created, every task not yet finished runs
    serially in-process instead — the same degradation, and the same
    one-time warning, as a pool that fails to start.
    """
    sup = _Supervisor(fn, tasks, processes=processes, policy=policy)
    results: dict = {}
    inflight: dict = {}
    next_out = submitted = 0
    try:
        while True:
            while next_out in results:
                yield results.pop(next_out)
                next_out += 1
            if next_out == len(tasks):
                return
            try:
                sup.ensure_pool()
                while submitted < len(tasks) and len(inflight) < processes:
                    inflight[submitted] = sup.submit(submitted)
                    submitted += 1
                finished, lost = sup.wait(inflight)
                for i in finished:
                    del inflight[i]
                results.update(finished)
                for i in sorted(lost):
                    del inflight[i]
                    results[i] = sup.retry(i, lost[i],
                                           collect_errors=collect_errors)
            except _PoolUnavailable as exc:
                _warn_pool_failure(exc.__cause__)
                submitted = len(tasks)
                inflight.clear()
                for i in range(next_out, len(tasks)):
                    if i not in results:
                        results[i] = fn(*tasks[i])
    finally:
        sup.recycle()


def _run_serial(fn, tasks):
    """The in-process path: one ``shard`` span per task, results in order."""
    for i, task in enumerate(tasks):
        with obs.span("shard", index=i):
            result = fn(*task)
        yield result


def run_shards(fn, tasks, *, workers: int | None = None,
               policy: RetryPolicy | None = None,
               collect_errors: bool = False):
    """Apply ``fn(*task)`` to every task; iterate the results in task order.

    Returns an iterator that yields each task's result as soon as it and
    every task before it have finished, so a caller can commit a prefix
    while later tasks still run; ``list(run_shards(...))`` collects them
    all.  Arguments are validated when ``run_shards`` is called; the
    tasks run as the iterator is consumed.  Closing the iterator early
    tears the pool down.

    ``fn`` must be a module-level (picklable) function and each task a
    tuple of picklable arguments.  With ``workers > 1`` and more than one
    task, tasks run in one per-call pool of ``min(workers, len(tasks))``
    processes; otherwise — or when a pool cannot be created — they run
    serially in-process.  Exceptions raised by ``fn`` propagate to the
    caller either way.

    Pool dispatch is supervised per the resolved :class:`RetryPolicy`
    (``policy=None`` means the session default): dead workers and blown
    deadlines cost a pool recycle and a retry of only the tasks that
    were in flight, never the call.  ``collect_errors=True`` delivers a
    task's :class:`~repro.errors.RetryBudgetError` *in its result slot*
    instead of raising, so one doomed task cannot abort its siblings; it
    only changes what happens on budget exhaustion, never a healthy
    result.
    """
    tasks = list(tasks)
    n_workers = resolve_workers(workers)
    pol = resolve_retry_policy(policy)
    obs.count("executor.shards", len(tasks))
    if n_workers <= 1 or len(tasks) <= 1:
        return _run_serial(fn, tasks)
    return _supervise(fn, tasks, processes=min(n_workers, len(tasks)),
                      policy=pol, collect_errors=collect_errors)
