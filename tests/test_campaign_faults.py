"""Campaign fault tolerance: quarantine, store integrity, clean shutdown.

The acceptance property everything here funnels into: a campaign run
under injected faults — worker kills, budget exhaustion, torn or
corrupted store appends — must converge, via retries, quarantine, and
``resume``, to a result store *byte-identical* (results and manifest)
to the undisturbed ``workers=1`` run.  Plus the named failure modes
that must never be repaired silently: mid-file corruption raises
:class:`StoreIntegrityError`, a missing manifest is a
:class:`ParameterError`, and SIGTERM/SIGINT tear the worker pool down
instead of orphaning it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal

import pytest

import repro.faults as faults
from repro.errors import InjectedFault, ParameterError, StoreIntegrityError
from repro.faults import fault_plan
from repro.parallel import RetryPolicy
from repro.scenarios import (
    ResultStore,
    SamplerSpec,
    Scenario,
    TrafficSpec,
    register_scenario,
    run_campaign,
)
from repro.scenarios.store import checksummed_line, record_checksum_ok
from repro.scenarios.registry import _REGISTRY

SEED = 20260726

#: Two attempts and near-zero backoff: budget exhaustion in well under a
#: second, and the kill-recovery path still gets one retry.
RETRY = RetryPolicy(max_attempts=2, backoff_base=0.01)


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.setattr(faults, "_SESSION_PLAN", None)
    faults.reset_shard_counter()
    yield
    faults.reset_shard_counter()


@pytest.fixture()
def mini_registered():
    """The 4-cell fixture scenario from test_scenarios, registered."""
    scenario = Scenario(
        name="test-mini",
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


def _run(name, results_dir, **kwargs):
    kwargs.setdefault("workers", 1)
    return run_campaign([name], campaign="chaos-test", seed=SEED,
                        results_dir=results_dir, **kwargs)


def _store_bytes(summary):
    return (summary.store.results_path.read_bytes(),
            summary.store.manifest_path.read_bytes())


@pytest.fixture()
def reference(mini_registered, tmp_path):
    """Golden bytes: the undisturbed workers=1 run of the fixture grid."""
    with fault_plan(None):
        summary = _run(mini_registered, tmp_path / "ref")
    return _store_bytes(summary)


# ------------------------------------------------------------- checksums
class TestRecordChecksums:
    def test_round_trip(self):
        line = checksummed_line({"key": "k", "value": 1.5})
        parsed = json.loads(line)
        assert parsed["_crc32"]
        assert record_checksum_ok(parsed)

    def test_tampering_fails_the_checksum(self):
        parsed = json.loads(checksummed_line({"key": "k", "value": 1.5}))
        parsed["value"] = 2.5
        assert not record_checksum_ok(parsed)

    def test_legacy_record_without_checksum_passes(self):
        assert record_checksum_ok({"key": "k", "value": 1.5})


# ------------------------------------------------- quarantine and resume
class TestQuarantine:
    def test_budget_exhaustion_quarantines_then_resume_converges(
            self, mini_registered, tmp_path, reference):
        # Shard 0 belongs to cell 0; killing it on *every* attempt
        # exhausts the budget, and the campaign must keep going.
        with fault_plan("kill:shard=0:attempt=*"):
            faulty = _run(mini_registered, tmp_path / "run",
                          workers=2, retry=RETRY)
        assert faulty.quarantined == 1
        assert faulty.executed == faulty.n_cells - 1
        assert "quarantined=1" in faulty.render()
        assert faulty.store.quarantine_path.exists()
        (sidecar,) = faulty.store.quarantined_records()
        assert sidecar["error"]["type"] == "RetryBudgetError"
        assert faulty.store.is_quarantined(sidecar["key"])
        assert json.loads(
            faulty.store.manifest_path.read_text())["quarantined"] == 1

        # Fault-free resume re-attempts exactly the quarantined cell and
        # the compacted store converges to the golden bytes.
        with fault_plan(None):
            resumed = _run(mini_registered, tmp_path / "run",
                           workers=2, resume=True, retry=RETRY)
        assert resumed.executed == 1
        assert resumed.skipped == resumed.n_cells - 1
        assert not resumed.store.quarantine_path.exists()
        assert "quarantined" not in resumed.store.read_manifest()
        assert _store_bytes(resumed) == reference

    def test_absorbed_kill_never_reaches_quarantine(
            self, mini_registered, tmp_path, reference):
        # First-attempt-only kill: recovery absorbs it inside the cell.
        with fault_plan("kill:shard=0"):
            summary = _run(mini_registered, tmp_path / "run",
                           workers=2, retry=RETRY)
        assert summary.quarantined == 0
        assert summary.executed == summary.n_cells
        assert "quarantined" not in summary.render()
        assert _store_bytes(summary) == reference


# -------------------------------------------------------- store integrity
class TestStoreIntegrity:
    def test_torn_append_aborts_then_resume_repairs(
            self, mini_registered, tmp_path, reference):
        with fault_plan("torn:append=2"):
            with pytest.raises(InjectedFault, match="tore append #2"):
                _run(mini_registered, tmp_path / "run")
        with fault_plan(None):
            resumed = _run(mini_registered, tmp_path / "run", resume=True)
        # Only the record before the torn append survived the repair.
        assert resumed.skipped == 1
        assert resumed.executed == resumed.n_cells - 1
        assert _store_bytes(resumed) == reference

    def test_mid_file_checksum_corruption_is_never_repaired(
            self, mini_registered, tmp_path):
        # The corrupted line parses as JSON, so only its CRC betrays it;
        # it sits before the tail, so resume must refuse, not repair.
        with fault_plan("corrupt:append=1"):
            summary = _run(mini_registered, tmp_path / "run")
        assert summary.executed == summary.n_cells
        with pytest.raises(StoreIntegrityError,
                           match="line 1 .*checksum mismatch"):
            _run(mini_registered, tmp_path / "run", resume=True)
        with pytest.raises(StoreIntegrityError, match="checksum mismatch"):
            summary.store.records()

    def test_empty_results_file_resumes_from_scratch(
            self, mini_registered, tmp_path, reference):
        summary = _run(mini_registered, tmp_path / "run")
        summary.store.results_path.write_bytes(b"")
        resumed = _run(mini_registered, tmp_path / "run", resume=True)
        assert resumed.executed == resumed.n_cells
        assert resumed.skipped == 0
        assert _store_bytes(resumed) == reference

    def test_missing_manifest_is_a_named_error(
            self, mini_registered, tmp_path):
        summary = _run(mini_registered, tmp_path / "run")
        summary.store.manifest_path.unlink()
        with pytest.raises(ParameterError, match="no campaign manifest"):
            _run(mini_registered, tmp_path / "run", resume=True)

    def test_truncation_at_multibyte_utf8_boundary(
            self, mini_registered, tmp_path, reference):
        """A kill can land mid-flush inside a multi-byte character; the
        torn tail is then not even decodable, let alone JSON."""
        summary = _run(mini_registered, tmp_path / "run")
        intact = summary.store.results_path.read_bytes()
        with open(summary.store.results_path, "ab") as fh:
            fh.write('{"key": "caf'.encode("utf-8") + "é".encode("utf-8")[:1])
        # Read-only access tolerates the torn tail...
        assert len(summary.store.records()) == summary.n_cells
        # ...and resume repairs it back to exactly the intact bytes.
        resumed = _run(mini_registered, tmp_path / "run", resume=True)
        assert resumed.skipped == resumed.n_cells
        assert resumed.executed == 0
        assert summary.store.results_path.read_bytes() == intact
        assert _store_bytes(resumed) == reference


# --------------------------------------------------------- clean shutdown
def _interrupt_after_first_append(monkeypatch, interrupt):
    """Make the store run ``interrupt()`` right after its first append."""
    original = ResultStore.append
    appended = []

    def append(self, record):
        original(self, record)
        appended.append(record["key"])
        if len(appended) == 1:
            interrupt()

    monkeypatch.setattr(ResultStore, "append", append)


class TestCleanShutdown:
    def test_sigterm_interrupts_and_tears_the_pool_down(
            self, mini_registered, tmp_path, monkeypatch):
        def _sigterm():
            os.kill(os.getpid(), signal.SIGTERM)

        _interrupt_after_first_append(monkeypatch, _sigterm)
        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt):
            _run(mini_registered, tmp_path / "run", workers=2)
        assert not multiprocessing.active_children()
        # The previous handler is back and the first append is durable.
        assert signal.getsignal(signal.SIGTERM) is before
        store = ResultStore(tmp_path / "run" / "chaos-test")
        assert len(store.records()) == 1

    def test_keyboard_interrupt_propagates_after_pool_teardown(
            self, mini_registered, tmp_path, monkeypatch):
        def _ctrl_c():
            raise KeyboardInterrupt

        _interrupt_after_first_append(monkeypatch, _ctrl_c)
        with pytest.raises(KeyboardInterrupt):
            _run(mini_registered, tmp_path / "run", workers=2)
        assert not multiprocessing.active_children()


def test_module_state_clean():
    """Last in file: campaign faults must not leak session state."""
    assert not multiprocessing.active_children()
    assert faults.active_plan() is None
    assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
