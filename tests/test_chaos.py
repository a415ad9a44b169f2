"""End-to-end chaos: every fault the stack claims to survive, in one campaign.

One small campaign goes through every failure mode the supervisor and
the store recover from, and each act ends on the strongest property the
repo has: the final store is *byte-identical* to the fault-free
``workers=1`` run.

1. A fault-free ``workers=1`` campaign gives the reference bytes.
2. The same campaign at ``workers=2`` under :mod:`faultkit` faults, on
   cell numbering (one dispatch, so task ``k`` is cell ``k``): a worker
   kill that recovery absorbs, a cell hung past its deadline that a
   retry absorbs, and a kill on *every* attempt that exhausts the retry
   budget and quarantines its cell.
3. A fault-free resume re-attempts exactly the quarantined cell and
   converges to the reference bytes, manifest included.
4. A torn store append (a kill mid-write) at ``workers=2`` aborts the
   run with exactly the records before it committed; a resume repairs
   the tail and converges.
5. A corrupted final append (a CRC-failing line) is repaired on resume,
   which re-executes exactly that cell and converges.

The faulted acts run inside ``obs.telemetry()`` and check that every
fault surfaces as its telemetry event (worker losses, shard retries,
budget exhaustions, quarantines, tail repairs).  Only set inclusion over
the deterministic fault targets is asserted, never deadline timing
events, which race with machine load.  Last, no worker process may be
left behind.  CI's ``chaos`` job runs this file with
``REPRO_TELEMETRY=on``.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest
from faultkit import (
    KILL,
    KILL_EVERY_ATTEMPT,
    Fault,
    TornAppend,
    corrupt_append,
    fault_cells,
    tear_append,
)

import repro.obs as obs
from repro.parallel import RetryPolicy
from repro.scenarios import expand_cells, run_campaign

#: One scenario keeps the campaign small; its 6 smoke cells host every
#: fault with healthy cells on both sides.
SCENARIOS = ["fgn-hurst-sweep"]
CAMPAIGN = "chaos"

#: An absorbed kill on cell 0, a deadline-blowing hang on cell 2, and a
#: kill on every attempt of cell 4 (budget exhaustion).
FAULTS = {0: KILL, 2: Fault(sleep=5), 4: KILL_EVERY_ATTEMPT}

#: Deadline generous enough for a smoke cell's real work on a busy
#: machine, tight enough that the 5 s hang always blows it.
RETRY = RetryPolicy(max_attempts=3, shard_deadline=1.5, backoff_base=0.05)


def _campaign(results_dir, **kwargs):
    return run_campaign(SCENARIOS, campaign=CAMPAIGN, results_dir=results_dir,
                        smoke=True, **kwargs)


def _store_bytes(summary):
    return (
        summary.store.results_path.read_bytes(),
        summary.store.manifest_path.read_bytes(),
    )


def _event_shards(col, name):
    """The set of shard indices carried by events named ``name``."""
    return {
        e["attrs"]["shard"] for e in col.events
        if e["name"] == name and "shard" in (e.get("attrs") or {})
    }


def _event_count(col, name):
    return sum(1 for e in col.events if e["name"] == name)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Act 1: the fault-free workers=1 store bytes."""
    ref = _campaign(tmp_path_factory.mktemp("chaos") / "ref", workers=1)
    return _store_bytes(ref)


def test_kills_and_hang_are_absorbed_or_quarantined_then_resume_converges(
        tmp_path, reference):
    """Acts 2 and 3: recovery, deadline retry and quarantine in one run,
    then a fault-free resume of exactly the quarantined cell."""
    cells = expand_cells(SCENARIOS, smoke=True)
    with obs.telemetry() as col, fault_cells(tmp_path, cells, FAULTS):
        faulty = _campaign(tmp_path / "run", workers=2, retry=RETRY)
    assert faulty.quarantined == 1, (
        f"expected exactly the budget-exhausted cell quarantined, got "
        f"{faulty.quarantined}"
    )
    assert faulty.executed == faulty.n_cells - 1, (
        "kill and hang faults must be absorbed by retries, not "
        f"quarantine: executed {faulty.executed}/{faulty.n_cells}"
    )
    assert faulty.store.quarantine_path.exists()
    # Supersets, not equality: a kill or a recycle takes the cell in
    # flight on the other worker down with it, and that cell is retried.
    lost = _event_shards(col, "executor.worker_lost")
    retried = _event_shards(col, "executor.shard_retry")
    exhausted = _event_shards(col, "executor.retry_budget_exhausted")
    assert lost >= {0, 4}, f"kills missing from worker_lost: {lost}"
    assert retried >= {0, 2, 4}, (
        f"injected faults missing from shard_retry: {retried}"
    )
    assert exhausted == {4}, (
        f"only the every-attempt kill may exhaust its budget: {exhausted}"
    )
    assert _event_count(col, "campaign.quarantine") == 1, (
        "the exhausted cell must surface as one quarantine event"
    )
    # A killed attempt loses its in-worker span buffer by design; the
    # replacement attempt's spans are the record, so every *executed*
    # cell contributes exactly one drained "cell" span.
    cell_spans = sum(1 for s in col.spans if s["name"] == "cell")
    assert cell_spans == faulty.executed, (
        f"expected one drained cell span per executed cell, got "
        f"{cell_spans} for {faulty.executed} executed"
    )

    resumed = _campaign(tmp_path / "run", workers=2, resume=True,
                        retry=RETRY)
    assert resumed.executed == 1, (
        f"resume must re-attempt only quarantined cells, executed "
        f"{resumed.executed}"
    )
    assert resumed.skipped == resumed.n_cells - 1
    assert not resumed.store.quarantine_path.exists()
    assert _store_bytes(resumed) == reference, (
        "resumed store is not byte-identical to the fault-free "
        "workers=1 run"
    )


def test_torn_append_aborts_then_resume_repairs(tmp_path, reference):
    """Act 4: a torn write aborts like a kill, and resume repairs the
    tail.  At workers=2 the records before the torn one are committed
    in canonical order, whatever order their cells finished in."""
    with tear_append(3):
        with pytest.raises(TornAppend, match="tore append #3"):
            _campaign(tmp_path / "torn", workers=2)
    assert not multiprocessing.active_children(), (
        "the aborted campaign left its worker pool running"
    )
    with obs.telemetry() as col:
        repaired = _campaign(tmp_path / "torn", workers=2, resume=True)
    assert repaired.skipped == 2, (
        f"tail repair should keep the 2 records before the torn "
        f"append, skipped {repaired.skipped}"
    )
    assert _event_count(col, "store.tail_repair") == 1, (
        "the torn line must surface as exactly one tail-repair event"
    )
    assert _store_bytes(repaired) == reference, (
        "torn-then-resumed store is not byte-identical to the "
        "fault-free workers=1 run"
    )


def test_corrupt_tail_is_repaired_on_resume(tmp_path, reference):
    """Act 5: the campaign completes over a CRC-failing final record
    (the corruption is silent at write time); the resume detects the
    bad tail line, repairs it, and re-executes exactly that cell."""
    with corrupt_append(6):
        _campaign(tmp_path / "corrupt", workers=1)
    with obs.telemetry() as col:
        recovered = _campaign(tmp_path / "corrupt", workers=1, resume=True)
    assert _event_count(col, "store.tail_repair") == 1, (
        "the corrupt line must surface as exactly one tail-repair event"
    )
    assert recovered.executed == 1, (
        f"resume must re-execute only the corrupted cell, executed "
        f"{recovered.executed}"
    )
    assert _store_bytes(recovered) == reference, (
        "corrupt-then-resumed store is not byte-identical to the "
        "fault-free workers=1 run"
    )


def test_no_orphaned_workers():
    """Last in file: every pool the acts recycled reaped its workers."""
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    leaked = multiprocessing.active_children()
    assert not leaked, f"orphaned worker processes: {leaked}"
