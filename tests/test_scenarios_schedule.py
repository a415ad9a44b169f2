"""Campaign cell dispatch: canonical order and byte-identity.

The acceptance property: dispatching a campaign's pending cells in one
``run_shards`` call must produce result stores and manifests
byte-identical to the serial ``workers=1`` run — for every built-in
campaign, at any worker count, under ``max_cells`` truncation,
out-of-order completion, and injected cell-worker kills routed through
retry and quarantine — and must commit each record as soon as its
canonical prefix is complete.  Faults come from :mod:`faultkit`.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest
from faultkit import (
    KILL,
    KILL_EVERY_ATTEMPT,
    Fault,
    TornAppend,
    fault_cells,
    tear_append,
)

from repro.errors import ParameterError
from repro.parallel import RetryPolicy, default_workers
from repro.scenarios import (
    SamplerSpec,
    Scenario,
    TrafficSpec,
    available_scenarios,
    evaluate_cell,
    expand_cells,
    register_scenario,
    run_campaign,
)
from repro.scenarios.registry import _REGISTRY
from repro.scenarios.schedule import iter_cell_results

SEED = 20260726
BUILTINS = available_scenarios()

#: Two attempts and near-zero backoff: budget exhaustion in well under a
#: second, and the kill-recovery path still gets one retry.
RETRY = RetryPolicy(max_attempts=2, backoff_base=0.01)


@pytest.fixture()
def mini_registered():
    """Four small cells: 2 fGn traffics x 2 samplers."""
    scenario = Scenario(
        name="sched-mini",
        description="fixture",
        traffic=(
            TrafficSpec(model="fgn", n=2048, hurst=0.7),
            TrafficSpec(model="fgn", n=2048, hurst=0.85),
        ),
        samplers=(
            SamplerSpec(kind="systematic", rate=0.05),
            SamplerSpec(kind="stratified", rate=0.05),
        ),
        n_instances=4,
    )
    register_scenario(scenario)
    yield scenario.name
    _REGISTRY.pop(scenario.name, None)


def _run(names, results_dir, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("campaign", "sched-test")
    return run_campaign(names, seed=SEED, results_dir=results_dir, **kwargs)


def _store_bytes(summary):
    return (summary.store.results_path.read_bytes(),
            summary.store.manifest_path.read_bytes())


# ------------------------------------------------- out-of-order completion
class TestCompletionOrder:
    def test_scrambled_round_yields_in_canonical_order(self, mini_registered,
                                                       tmp_path):
        """Cell 0 is held back until every other cell has finished; the
        outcomes still arrive in canonical order, equal to evaluating
        each cell directly."""
        cells = expand_cells([mini_registered])
        with fault_cells(tmp_path, cells, {0: Fault(sleep=0.5)}), \
                default_workers(2):
            got = list(iter_cell_results(cells, campaign="order-test",
                                         seed=SEED))
        assert [cell.key for cell, _ in got] == [c.key for c in cells]
        for cell, outcome in got:
            tag, record = outcome
            assert tag == "ok"
            direct = evaluate_cell(cell, campaign="order-test", seed=SEED)
            assert (json.dumps(record, sort_keys=True)
                    == json.dumps(direct, sort_keys=True))

    def test_schedule_accepts_only_auto(self, mini_registered, tmp_path):
        for mode in ("cells", "ensembles", "rows"):
            with pytest.raises(ParameterError, match="schedule"):
                _run([mini_registered], tmp_path / mode, schedule=mode)
            assert not (tmp_path / mode).exists()
        summary = _run([mini_registered], tmp_path / "auto", schedule="auto")
        assert summary.executed == summary.n_cells


# ----------------------------------------------------------- byte identity
class TestByteIdentity:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin_smoke_campaigns_match_serial(self, name, tmp_path):
        serial = _run([name], tmp_path / "w1", smoke=True, workers=1,
                      campaign=name)
        for workers in (2, 4):
            parallel = _run([name], tmp_path / f"w{workers}", smoke=True,
                            workers=workers, campaign=name)
            assert parallel.executed == serial.executed == serial.n_cells
            assert _store_bytes(parallel) == _store_bytes(serial)

    def test_max_cells_truncates_identically(self, mini_registered, tmp_path):
        serial = _run([mini_registered], tmp_path / "serial",
                      max_cells=3, workers=1)
        parallel = _run([mini_registered], tmp_path / "parallel",
                        max_cells=3, workers=4)
        assert parallel.executed == serial.executed == 3
        assert _store_bytes(parallel) == _store_bytes(serial)
        # The fourth cell still completes on resume, either way.
        resumed = _run([mini_registered], tmp_path / "parallel",
                       resume=True, workers=4)
        finished = _run([mini_registered], tmp_path / "serial",
                        resume=True, workers=1)
        assert resumed.executed == finished.executed == 1
        assert _store_bytes(resumed) == _store_bytes(finished)


# ------------------------------------------------------- prefix commits
class TestPrefixCommit:
    def test_torn_append_keeps_the_canonical_prefix(self, tmp_path):
        """A torn third append at workers=2 leaves exactly the first two
        canonical records plus the torn line, no live worker, and a
        store that a resume brings back to the workers=1 bytes."""
        name = "fgn-hurst-sweep"
        serial = _run([name], tmp_path / "w1", smoke=True, campaign=name)
        with tear_append(3):
            with pytest.raises(TornAppend, match="tore append #3"):
                _run([name], tmp_path / "w2", smoke=True, workers=2,
                     campaign=name)
        assert not multiprocessing.active_children()
        path = tmp_path / "w2" / name / "results.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        reference = serial.store.results_path.read_bytes().splitlines(
            keepends=True
        )
        assert len(lines) == 3
        assert lines[:2] == reference[:2]
        assert not lines[2].endswith(b"\n")
        assert reference[2].startswith(lines[2])
        resumed = _run([name], tmp_path / "w2", smoke=True, workers=2,
                       campaign=name, resume=True)
        assert (resumed.skipped, resumed.executed) == (2, serial.n_cells - 2)
        assert _store_bytes(resumed) == _store_bytes(serial)


# -------------------------------------------------- faults and quarantine
class TestCellFaults:
    def test_killed_cell_quarantines_and_resume_converges(
            self, mini_registered, tmp_path):
        reference = _store_bytes(_run([mini_registered], tmp_path / "ref"))
        cells = expand_cells([mini_registered])
        with fault_cells(tmp_path, cells, {0: KILL_EVERY_ATTEMPT}):
            faulty = _run([mini_registered], tmp_path / "run",
                          workers=2, retry=RETRY)
        assert faulty.quarantined == 1
        assert faulty.executed == faulty.n_cells - 1
        (sidecar,) = faulty.store.quarantined_records()
        assert sidecar["error"]["type"] == "RetryBudgetError"

        resumed = _run([mini_registered], tmp_path / "run",
                       workers=2, resume=True, retry=RETRY)
        assert resumed.executed == 1
        assert resumed.skipped == resumed.n_cells - 1
        assert not resumed.store.quarantine_path.exists()
        assert _store_bytes(resumed) == reference

    def test_absorbed_kill_is_byte_identical(self, mini_registered, tmp_path):
        reference = _store_bytes(_run([mini_registered], tmp_path / "ref"))
        cells = expand_cells([mini_registered])
        with fault_cells(tmp_path, cells, {0: KILL}):
            summary = _run([mini_registered], tmp_path / "run",
                           workers=2, retry=RETRY)
        assert summary.quarantined == 0
        assert summary.executed == summary.n_cells
        assert _store_bytes(summary) == reference


def test_module_state_clean():
    """Last in file: dispatch tests must not leak session state."""
    assert not multiprocessing.active_children()
