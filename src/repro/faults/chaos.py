"""End-to-end chaos smoke: prove fault tolerance converges byte-exactly.

``python -m repro.faults.chaos`` drives one small campaign through every
failure mode the fault-tolerant stack claims to survive, and asserts the
strongest property the repo has: the final store is *byte-identical* to
the fault-free ``workers=1`` run.

The script runs five acts:

1. a fault-free ``workers=1`` reference campaign (the golden bytes);
2. the same campaign at ``workers=2`` under an injected plan, on cell
   numbering (shard ``k`` is cell ``k``: the campaign dispatches its
   cells in one call) — one worker kill that recovery absorbs, one cell
   delayed past its deadline that a retry absorbs, and one kill on
   *every* attempt that exhausts the retry budget and quarantines its
   cell;
3. a fault-free ``--resume`` that must re-attempt exactly the
   quarantined cell (``executed == retried cells only``) and converge
   the store to the reference bytes, manifest included;
4. a torn store append (kill mid-write) at ``workers=2`` that aborts
   the run with exactly the records before it committed, followed by a
   resume whose tail repair again converges to the reference bytes;
5. a corrupted final append (CRC-failing line) whose resume must repair
   the tail, re-execute exactly that cell, and converge byte-exactly.

The faulted acts run inside an ``obs.telemetry()`` scope and assert the
observability contract alongside the byte contract: every injected
fault must surface as the expected telemetry event (worker losses,
shard retries, budget exhaustions, quarantines, tail repairs), so a
regression that silently swallows a fault class fails here even when
the bytes still converge.  Only set-inclusion over deterministic fault
targets is asserted — never delay/deadline timing events, which race
with machine load.

Finally it asserts no worker processes were orphaned.  CI runs this as
the chaos job; locally it finishes in well under a minute.
"""

from __future__ import annotations

import multiprocessing
import sys
import tempfile
import time
from pathlib import Path

import repro.obs as obs
from repro.errors import InjectedFault
from repro.faults import fault_plan
from repro.parallel.executor import RetryPolicy

#: One scenario keeps the campaign small; its 6 smoke cells are enough
#: to host every injected fault with healthy cells on both sides.
SCENARIOS = ["fgn-hurst-sweep"]
CAMPAIGN = "chaos"

#: The campaign dispatches its 6 smoke cells in one call, so shard ``k``
#: is cell ``k``: an absorbed kill on cell 0, a deadline-blowing delay on
#: cell 2, and a kill on every attempt of cell 4 (budget exhaustion).
FAULTS = "kill:shard=0,delay:shard=2:seconds=5,kill:shard=4:attempt=*"

#: Deadline generous enough for a smoke cell's real work on a busy
#: machine, tight enough that the injected 5 s delay always blows it.
RETRY = RetryPolicy(max_attempts=3, shard_deadline=1.5, backoff_base=0.05)


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


def main(argv=None) -> int:
    from repro.scenarios import run_campaign

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        base = Path(tmp)

        # Act 1 — the golden bytes.  fault_plan(None) masks any
        # REPRO_FAULTS session plan: the reference must be undisturbed.
        with fault_plan(None):
            ref = run_campaign(
                SCENARIOS, campaign=CAMPAIGN, results_dir=base / "ref",
                smoke=True, workers=1,
            )
        ref_results, ref_manifest = _store_bytes(ref)
        print(f"reference: {ref.render()}")

        # Act 2 — recovery, deadline retry, and quarantine in one run.
        with obs.telemetry() as col, fault_plan(FAULTS):
            faulty = run_campaign(
                SCENARIOS, campaign=CAMPAIGN, results_dir=base / "run",
                smoke=True, workers=2, retry=RETRY,
            )
        print(f"faulty:    {faulty.render()}")
        assert faulty.quarantined == 1, (
            f"expected exactly the budget-exhausted cell quarantined, got "
            f"{faulty.quarantined}"
        )
        assert faulty.executed == faulty.n_cells - 1, (
            "kill and delay faults must be absorbed by retries, not "
            f"quarantine: executed {faulty.executed}/{faulty.n_cells}"
        )
        assert faulty.store.quarantine_path.exists()
        # Every injected fault must be visible in telemetry.  Supersets,
        # not equality: a kill or a recycle takes the cell in flight on
        # the other worker down with it, and that cell is retried too.
        lost = _event_shards(col, "executor.worker_lost")
        retried = _event_shards(col, "executor.shard_retry")
        exhausted = _event_shards(col, "executor.retry_budget_exhausted")
        assert lost >= {0, 4}, f"kills missing from worker_lost: {lost}"
        assert retried >= {0, 2, 4}, (
            f"injected faults missing from shard_retry: {retried}"
        )
        assert exhausted == {4}, (
            f"only the attempt=* kill may exhaust its budget: {exhausted}"
        )
        assert _event_count(col, "campaign.quarantine") == 1, (
            "the exhausted cell must surface as one quarantine event"
        )
        # A killed attempt loses its in-worker span buffer by design; the
        # replacement attempt's spans are the record — so every *executed*
        # cell contributes exactly one drained "cell" span.
        cell_spans = sum(1 for s in col.spans if s["name"] == "cell")
        assert cell_spans == faulty.executed, (
            f"expected one drained cell span per executed cell, got "
            f"{cell_spans} for {faulty.executed} executed"
        )

        # Act 3 — fault-free resume: exactly the quarantined cell runs.
        with fault_plan(None):
            resumed = run_campaign(
                SCENARIOS, campaign=CAMPAIGN, results_dir=base / "run",
                smoke=True, workers=2, resume=True, retry=RETRY,
            )
        print(f"resumed:   {resumed.render()}")
        assert resumed.executed == 1, (
            f"resume must re-attempt only quarantined cells, executed "
            f"{resumed.executed}"
        )
        assert resumed.skipped == resumed.n_cells - 1
        assert not resumed.store.quarantine_path.exists()
        assert _store_bytes(resumed) == (ref_results, ref_manifest), (
            "resumed store is not byte-identical to the fault-free "
            "workers=1 run"
        )
        print("act 3: quarantine + resume converged byte-identically")

        # Act 4 — torn write aborts like a kill; resume repairs the tail.
        # At workers=2 the records before the torn one are committed in
        # canonical order, whatever order their cells finished in.
        with fault_plan("torn:append=3"):
            try:
                run_campaign(
                    SCENARIOS, campaign=CAMPAIGN, results_dir=base / "torn",
                    smoke=True, workers=2,
                )
            except InjectedFault as exc:
                print(f"torn:      aborted as intended ({exc})")
            else:
                raise AssertionError("torn append did not abort the campaign")
        assert not multiprocessing.active_children(), (
            "the aborted campaign left its worker pool running"
        )
        with obs.telemetry() as col, fault_plan(None):
            repaired = run_campaign(
                SCENARIOS, campaign=CAMPAIGN, results_dir=base / "torn",
                smoke=True, workers=2, resume=True,
            )
        print(f"repaired:  {repaired.render()}")
        assert repaired.skipped == 2, (
            f"tail repair should keep the 2 records before the torn "
            f"append, skipped {repaired.skipped}"
        )
        assert _event_count(col, "store.tail_repair") == 1, (
            "the torn line must surface as exactly one tail-repair event"
        )
        assert _store_bytes(repaired) == (ref_results, ref_manifest), (
            "torn-then-resumed store is not byte-identical to the "
            "fault-free workers=1 run"
        )
        print("act 4: torn tail + resume converged byte-identically")

        # Act 5 — a CRC-failing final record: the campaign completes (the
        # corruption is silent at write time), the resume must detect the
        # bad tail line, repair it, and re-execute exactly that cell.
        with fault_plan("corrupt:append=6"):
            run_campaign(
                SCENARIOS, campaign=CAMPAIGN, results_dir=base / "corrupt",
                smoke=True, workers=1,
            )
        with obs.telemetry() as col, fault_plan(None):
            recovered = run_campaign(
                SCENARIOS, campaign=CAMPAIGN, results_dir=base / "corrupt",
                smoke=True, workers=1, resume=True,
            )
        print(f"recovered: {recovered.render()}")
        assert _event_count(col, "store.tail_repair") == 1, (
            "the corrupt line must surface as exactly one tail-repair event"
        )
        assert recovered.executed == 1, (
            f"resume must re-execute only the corrupted cell, executed "
            f"{recovered.executed}"
        )
        assert _store_bytes(recovered) == (ref_results, ref_manifest), (
            "corrupt-then-resumed store is not byte-identical to the "
            "fault-free workers=1 run"
        )
        print("act 5: corrupt tail + resume converged byte-identically")

    # Nothing above may leak worker processes — chaos runs recycle pools
    # aggressively, and every recycle must reap its corpses.
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    leaked = multiprocessing.active_children()
    assert not leaked, f"orphaned worker processes: {leaked}"
    print("chaos smoke: OK (no orphaned workers)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
