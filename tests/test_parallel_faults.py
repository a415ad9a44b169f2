"""Supervised dispatch: worker-loss recovery, deadlines, retry budgets.

Pins the supervision contracts of the per-call pool: a killed worker
costs a retry of the tasks in flight and the retry is bit-identical; a
task that blows its deadline is re-dispatched, and a deadline counts
from when a worker takes the task, not from when the call queued it; an
exhausted budget raises :class:`RetryBudgetError` and leaves no worker
behind; a worker exception still propagates unchanged; and dispatch
under ``max_attempts=1`` is supervised too, so a dead worker fails the
call instead of hanging it.

Faults come from :mod:`faultkit`: a wrapped task function kills its
pool worker or hangs before the real task runs.

Timing discipline: injected delays are the only sleeps, deadlines are
an order of magnitude above poll granularity, and no assertion depends
on wall-clock beyond "the 5 s hang did not happen".
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from faultkit import KILL, KILL_EVERY_ATTEMPT, Fault, faulty

import repro.obs as obs
import repro.parallel.executor as executor
from repro.errors import (
    ParameterError,
    RetryBudgetError,
)
from repro.parallel import (
    RetryPolicy,
    get_retry_policy,
    resolve_retry_policy,
    retry_policy,
    run_shards,
    set_retry_policy,
)

#: Generous budget so an injected 5 s delay hitting the deadline path
#: is the *only* way a shard gets retried for timing reasons.
FAST = RetryPolicy(max_attempts=3, shard_deadline=1.5, backoff_base=0.01)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"worker exploded on {x}")


def _nap(x):
    time.sleep(0.2)
    return x


def _run(tasks, fn=_square, **kwargs):
    return list(run_shards(fn, tasks, **kwargs))


#: Four shards at workers=2 with shard 1 SIGKILLing its worker once (a
#: marker file makes the kill one-shot): ``max_attempts=1`` must raise,
#: and a second attempt must recover the exact result.
SINGLE_ATTEMPT_SNIPPET = """
import os, signal, sys
from repro.errors import RetryBudgetError
from repro.parallel import RetryPolicy, run_shards

MARKER = sys.argv[1]

def square_killing_shard_one_once(x):
    if x == 1 and not os.path.exists(MARKER):
        open(MARKER, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x

tasks = [(i,) for i in range(4)]
try:
    list(run_shards(square_killing_shard_one_once, tasks, workers=2,
                    policy=RetryPolicy(max_attempts=1)))
except RetryBudgetError:
    print("RetryBudgetError")
os.remove(MARKER)
print(list(run_shards(square_killing_shard_one_once, tasks, workers=2,
                      policy=RetryPolicy(max_attempts=2, backoff_base=0.01))))
"""


#: A script that exits while its dispatch is still open: one result taken,
#: five tasks pending or in flight, the iterator never closed.
OPEN_AT_EXIT_SNIPPET = """
import time
from repro.parallel import run_shards

def nap(x):
    time.sleep(0.1)
    return x

if __name__ == "__main__":
    results = run_shards(nap, [(i,) for i in range(6)], workers=2)
    print(next(results))
"""


# ------------------------------------------------------------ RetryPolicy
class TestRetryPolicy:
    def test_defaults_supervise(self):
        pol = RetryPolicy()
        assert pol.max_attempts == 3
        assert pol.shard_deadline is None

    @pytest.mark.parametrize("kwargs, match", [
        ({"max_attempts": 0}, "max_attempts"),
        ({"shard_deadline": 0.0}, "shard_deadline"),
        ({"shard_deadline": -1.0}, "shard_deadline"),
        ({"backoff_base": -0.1}, "backoff_base"),
        ({"backoff_cap": -1.0}, "backoff_cap"),
    ])
    def test_validation(self, kwargs, match):
        with pytest.raises(ParameterError, match=match):
            RetryPolicy(**kwargs)

    def test_resolve_passthrough_and_default(self):
        pol = RetryPolicy(max_attempts=2)
        assert resolve_retry_policy(pol) is pol
        assert resolve_retry_policy(None) == get_retry_policy()

    def test_resolve_rejects_wrong_type(self):
        with pytest.raises(ParameterError, match="RetryPolicy"):
            resolve_retry_policy(3)

    def test_context_sets_and_restores(self):
        before = get_retry_policy()
        pol = RetryPolicy(max_attempts=5)
        with retry_policy(pol):
            assert get_retry_policy() is pol
        assert get_retry_policy() == before

    def test_none_context_is_a_no_op(self):
        before = get_retry_policy()
        with retry_policy(None):
            assert get_retry_policy() == before

    def test_set_installs_session_default(self):
        before = get_retry_policy()
        pol = RetryPolicy(max_attempts=2)
        set_retry_policy(pol)
        try:
            assert get_retry_policy() is pol
            assert resolve_retry_policy(None) is pol
        finally:
            set_retry_policy(before)


# ------------------------------------------------------ pool supervision
class TestFreshPoolRecovery:
    def test_kill_recovery_is_bit_identical(self, tmp_path):
        with obs.telemetry() as col:
            got = _run([(i,) for i in range(4)], workers=2, policy=FAST,
                       fn=faulty(_square, tmp_path, {1: KILL}))
        assert got == [0, 1, 4, 9]
        assert col.counters["executor.worker_losses"] >= 1

    def test_fault_plan_forces_supervision_onto_plain_policy(self, tmp_path):
        """An injected kill costs one retry of the killed task, even under
        the smallest budget that allows a retry."""
        with obs.telemetry() as col:
            got = _run([(i,) for i in range(4)], workers=2,
                       policy=RetryPolicy(max_attempts=2),
                       fn=faulty(_square, tmp_path, {1: KILL}))
        assert got == [0, 1, 4, 9]
        assert col.counters["executor.worker_losses"] >= 1

    def test_deadline_retry_recovers_a_hung_shard(self, tmp_path):
        deadline = RetryPolicy(max_attempts=3, shard_deadline=0.5,
                               backoff_base=0.01)
        start = time.monotonic()
        with obs.telemetry() as col:
            got = _run([(i,) for i in range(3)], workers=2, policy=deadline,
                       fn=faulty(_square, tmp_path, {0: Fault(sleep=5)}))
        elapsed = time.monotonic() - start
        assert got == [0, 1, 4]
        assert col.counters["executor.deadline_misses"] == 1
        # The 5 s injected hang must have been abandoned, not waited out.
        assert elapsed < 4.0

    def test_deadline_counts_from_start_not_from_queueing(self):
        """Eight 0.2 s tasks on two workers take 0.8 s in all, but none
        runs for longer than 0.2 s: a 0.5 s deadline must never fire,
        even with no retries allowed."""
        tasks = [(i,) for i in range(8)]
        for attempts in (3, 1):
            policy = RetryPolicy(max_attempts=attempts, shard_deadline=0.5)
            with obs.telemetry() as col:
                got = list(run_shards(_nap, tasks, workers=2, policy=policy))
            assert got == list(range(8))
            for counter in ("executor.deadline_misses", "executor.retries",
                            "executor.pool_recycles"):
                assert counter not in col.counters, col.counters
            assert col.counters["executor.pool_forks"] == 1

    def test_budget_exhaustion_raises_with_detail(self, tmp_path):
        with pytest.raises(RetryBudgetError, match="3 attempt"):
            _run([(i,) for i in range(4)], workers=2, policy=FAST,
                 fn=faulty(_square, tmp_path, {1: KILL_EVERY_ATTEMPT}))

    def test_worker_exception_still_propagates(self):
        with pytest.raises(ValueError, match="worker exploded on"):
            list(run_shards(_boom, [(i,) for i in range(4)],
                            workers=2, policy=FAST))

    def test_single_attempt_worker_death_raises(self, tmp_path):
        """A worker SIGKILLed under a one-attempt budget fails the call
        with RetryBudgetError in seconds; it must never hang.  Run in a
        subprocess so a regression times out instead of stalling the
        suite."""
        script = tmp_path / "single_attempt.py"
        script.write_text(SINGLE_ATTEMPT_SNIPPET)
        env = {"PYTHONPATH": "src", "PATH": os.environ.get("PATH", "")}
        proc = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "killed")],
            capture_output=True, text=True, timeout=60,
            cwd=Path(__file__).resolve().parent.parent, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["RetryBudgetError", "[0, 1, 4, 9]"]

    def test_exit_with_an_open_dispatch_does_not_hang(self, tmp_path):
        """The open dispatch is finalized during interpreter shutdown,
        where no thread can start: teardown must not wait for one."""
        script = tmp_path / "open_at_exit.py"
        script.write_text(OPEN_AT_EXIT_SNIPPET)
        env = {"PYTHONPATH": "src", "PATH": os.environ.get("PATH", "")}
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            timeout=60, cwd=Path(__file__).resolve().parent.parent, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["0"]

    def test_closing_early_tears_the_pool_down(self):
        results = run_shards(_nap, [(i,) for i in range(6)], workers=2)
        assert next(results) == 0
        assert multiprocessing.active_children()
        results.close()
        assert not multiprocessing.active_children()


# ------------------------------------------------ recovery across calls
class TestRuntimeRecovery:
    """Recovery as a session sees it: each call forks its own pool and
    tears it down, so no failure can outlive the call it happened in."""

    def test_kill_recycles_pool_and_session_survives(self, tmp_path):
        with obs.telemetry() as col:
            got = _run([(i,) for i in range(4)], workers=2, policy=FAST,
                       fn=faulty(_square, tmp_path, {1: KILL}))
        assert got == [0, 1, 4, 9]
        # Recovery tore down the broken pool and forked one new one.
        assert col.counters["executor.pool_forks"] == 2
        assert col.counters["executor.pool_recycles"] == 1
        assert not multiprocessing.active_children()
        assert _run([(i,) for i in range(4)], workers=2, policy=FAST) == [
            0, 1, 4, 9
        ]

    def test_budget_exhaustion_does_not_poison_the_session(self, tmp_path):
        with pytest.raises(RetryBudgetError):
            _run([(i,) for i in range(4)], workers=2, policy=FAST,
                 fn=faulty(_square, tmp_path, {1: KILL_EVERY_ATTEMPT}))
        assert not multiprocessing.active_children()
        assert _run([(i,) for i in range(4)], workers=2, policy=FAST) == [
            0, 1, 4, 9
        ]

    def test_healthy_supervised_dispatch_forks_once(self):
        with obs.telemetry() as col:
            for _ in range(3):
                assert _run([(i,) for i in range(4)], workers=2,
                            policy=FAST) == [0, 1, 4, 9]
        # One pool per call, none kept between calls.
        assert col.counters["executor.pool_forks"] == 3
        assert not multiprocessing.active_children()


def test_module_state_clean():
    """Last in file: no test may leak session supervision state."""
    assert not multiprocessing.active_children()
    assert executor.get_retry_policy() == RetryPolicy()
