"""Observability layer: toggle grammar, collector semantics, contracts.

The properties pinned here are the ones ``repro.obs`` exists for:

* the ``REPRO_TELEMETRY`` toggle follows the shared precedence grammar
  (context beats env beats the off default; malformed values raise
  :class:`~repro.errors.ParameterError` naming the variable);
* telemetry off is genuinely free — the default path never imports
  ``repro.obs.record`` (checked in a subprocess);
* spans nest into a tree, worker payloads absorb with remapped ids, and
  killed workers lose only their own attempt's buffer (the replacement
  attempt's spans survive);
* stores, manifests, figures are byte-identical with telemetry on or
  off — the sidecar is the *only* output that may differ;
* ``warn_once`` fires each warning once per session and records it as a
  telemetry event.
"""

from __future__ import annotations

import json
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import repro.obs as obs
import repro.utils.once as once
from repro.errors import ParameterError
from repro.scenarios import (
    SamplerSpec,
    Scenario,
    TrafficSpec,
    register_scenario,
    run_campaign,
)
from repro.scenarios.registry import _REGISTRY

SEED = 20260808


@pytest.fixture(autouse=True)
def clean_toggle(monkeypatch):
    """Each test starts env-unset with no leaked scope or session state."""
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    monkeypatch.setattr(obs, "_SESSION", None)
    assert not obs._OVERRIDES  # no scope leaked from another test
    yield
    assert not obs._OVERRIDES


@pytest.fixture()
def mini_scenario():
    """One fast scenario (4 cells) for campaign-level telemetry tests."""
    scenario = Scenario(
        name="obs-mini",
        description="fixture",
        traffic=(
            TrafficSpec(model="fgn", n=2048, hurst=0.7),
            TrafficSpec(model="fgn", n=2048, hurst=0.85),
        ),
        samplers=(
            SamplerSpec(kind="systematic", rate=0.05),
            SamplerSpec(kind="stratified", rate=0.05),
        ),
        n_instances=2,
    )
    register_scenario(scenario)
    yield scenario
    _REGISTRY.pop(scenario.name, None)


class TestToggle:
    def test_default_is_off(self):
        assert obs.telemetry_enabled() is False
        assert obs.current_collector() is None
        assert obs.telemetry_provenance() == "default"

    @pytest.mark.parametrize("value", ["on", "1", "true", "yes", " ON "])
    def test_env_enables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TELEMETRY", value)
        assert obs.telemetry_enabled() is True
        assert obs.telemetry_provenance() == "env"

    @pytest.mark.parametrize("value", ["off", "0", "false", "no", ""])
    def test_env_disables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TELEMETRY", value)
        assert obs.telemetry_enabled() is False

    def test_malformed_env_rejected_naming_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "maybe")
        with pytest.raises(ParameterError, match="REPRO_TELEMETRY"):
            obs.telemetry_enabled()

    def test_context_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "on")
        with obs.telemetry(False):
            assert obs.telemetry_enabled() is False
            assert obs.telemetry_provenance() == "context"
        assert obs.telemetry_enabled() is True

    def test_nesting_innermost_wins(self):
        with obs.telemetry() as outer:
            with obs.telemetry(False):
                assert obs.current_collector() is None
                with obs.telemetry() as inner:
                    assert obs.current_collector() is inner
                    assert inner is not outer
            assert obs.current_collector() is outer

    def test_session_collector_is_cached(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "on")
        assert obs.current_collector() is obs.current_collector()


class TestCollector:
    def test_span_tree_parenting(self):
        with obs.telemetry() as col:
            with obs.span("a"):
                with obs.span("b", key="k"):
                    pass
                with obs.span("c"):
                    pass
        by_name = {s["name"]: s for s in col.spans}
        assert by_name["b"]["parent"] == by_name["a"]["id"]
        assert by_name["c"]["parent"] == by_name["a"]["id"]
        assert by_name["a"]["parent"] is None
        assert by_name["b"]["attrs"] == {"key": "k"}
        assert all(s["duration_s"] >= 0 for s in col.spans)

    def test_failed_span_flagged(self):
        with obs.telemetry() as col:
            with pytest.raises(ValueError):
                with obs.span("doomed"):
                    raise ValueError("boom")
        assert col.spans[0]["failed"] is True

    def test_events_carry_current_span(self):
        with obs.telemetry() as col:
            obs.event("outside")
            with obs.span("s"):
                obs.event("inside", shard=3)
        outside, inside = col.events
        assert outside["span"] is None
        assert inside["span"] == col.spans[0]["id"]
        assert inside["attrs"] == {"shard": 3}

    def test_counters_add_and_gauges_max(self):
        with obs.telemetry() as col:
            obs.count("c")
            obs.count("c", 4)
            obs.gauge_max("g", 2.0)
            obs.gauge_max("g", 1.0)
        assert col.counters == {"c": 5}
        assert col.gauges == {"g": 2.0}

    def test_absorb_remaps_ids_and_reparents_roots(self):
        from repro.obs.record import Collector

        worker = Collector()
        with worker.span("cell", key="k"):
            with worker.span("shard"):
                worker.event("inner")
            worker.count("n", 2)
            worker.gauge_max("g", 7)
        payload = worker.export()
        payload["pid"] = 99999  # simulate a foreign process

        with obs.telemetry() as col:
            with obs.span("round"):
                col.absorb(payload)
            obs.count("n", 1)
            obs.gauge_max("g", 3)
        by_name = {s["name"]: s for s in col.spans}
        assert by_name["cell"]["parent"] == by_name["round"]["id"]
        assert by_name["shard"]["parent"] == by_name["cell"]["id"]
        assert by_name["cell"]["pid"] == 99999
        ids = {s["id"] for s in col.spans}
        assert len(ids) == 3  # remapped, no collisions
        assert col.events[0]["span"] == by_name["shard"]["id"]
        assert col.counters == {"n": 3}
        assert col.gauges == {"g": 7}

    def test_scoped_collector_feeds_parent(self):
        with obs.telemetry() as col:
            with obs.scoped_collector() as child:
                with obs.span("inner"):
                    pass
                assert [s["name"] for s in child.spans] == ["inner"]
            assert [s["name"] for s in col.spans] == ["inner"]

    def test_scoped_collector_off_is_none(self):
        with obs.scoped_collector() as child:
            assert child is None

    def test_null_span_is_shared(self):
        assert obs.span("a") is obs.span("b")


class TestWarnOnce:
    def test_fires_once_per_session(self, monkeypatch):
        monkeypatch.setattr(once, "_SEEN", set())
        with pytest.warns(RuntimeWarning, match="flaky"):
            assert once.warn_once("test.key", "flaky thing") is True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert once.warn_once("test.key", "flaky thing") is False
        assert once.warned("test.key")

    def test_mark_warned_suppresses(self, monkeypatch):
        monkeypatch.setattr(once, "_SEEN", set())
        once.mark_warned("test.key")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert once.warn_once("test.key", "quiet") is False

    def test_warning_recorded_as_event(self, monkeypatch):
        monkeypatch.setattr(once, "_SEEN", set())
        with obs.telemetry() as col:
            with pytest.warns(RuntimeWarning):
                once.warn_once("test.key", "observed thing")
        [event] = col.events
        assert event["name"] == "warning"
        assert event["attrs"]["key"] == "test.key"


class TestByteIdentity:
    def _run(self, root, enabled, mini_scenario, **kwargs):
        directory = Path(root) / ("on" if enabled else "off")
        with obs.telemetry(enabled):
            summary = run_campaign(
                [mini_scenario.name], campaign="obs", seed=SEED,
                results_dir=directory, **kwargs,
            )
        return summary.store

    @pytest.mark.parametrize("workers", [1, 2])
    def test_store_and_manifest_identical(self, tmp_path, mini_scenario,
                                          workers):
        off = self._run(tmp_path, False, mini_scenario, workers=workers)
        on = self._run(tmp_path, True, mini_scenario, workers=workers)
        assert off.results_path.read_bytes() == on.results_path.read_bytes()
        assert off.manifest_path.read_bytes() == on.manifest_path.read_bytes()

    def test_sidecar_written_only_when_on(self, tmp_path, mini_scenario):
        off = self._run(tmp_path, False, mini_scenario)
        on = self._run(tmp_path, True, mini_scenario)
        assert not (off.directory / "telemetry.jsonl").exists()
        sidecar = on.directory / "telemetry.jsonl"
        records = [
            json.loads(line) for line in sidecar.read_text().splitlines()
        ]
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "meta" and kinds[-1] == "metrics"
        assert "span" in kinds and "event" in kinds
        meta = records[0]
        assert meta["campaign"] == "obs"
        assert meta["seed"] == SEED

    def test_resume_appends_second_run(self, tmp_path, mini_scenario):
        directory = tmp_path / "resumable"
        with obs.telemetry():
            run_campaign([mini_scenario.name], campaign="obs", seed=SEED,
                         results_dir=directory, max_cells=2)
            run_campaign([mini_scenario.name], campaign="obs", seed=SEED,
                         results_dir=directory, resume=True)
        sidecar = directory / "obs" / "telemetry.jsonl"
        metas = [
            json.loads(line) for line in sidecar.read_text().splitlines()
            if json.loads(line)["kind"] == "meta"
        ]
        assert len(metas) == 2
        assert metas[1]["resume"] is True

    def test_figure_identical(self):
        from repro.experiments import run_experiment
        from repro.experiments.runner import execution_scope

        def _render():
            return [
                panel.render()
                for panel in run_experiment("fig02", scale=0.1, seed=SEED)
            ]

        with execution_scope(telemetry=False):
            off = _render()
        with execution_scope(telemetry=True):
            on = _render()
        assert off == on


ZERO_IMPORT_SNIPPET = """
import sys
from repro.parallel import run_shards
import repro.obs as obs

with obs.span("noop"):
    pass
obs.count("noop")
assert list(run_shards(pow, [(2, 3), (2, 4)], workers=1)) == [8, 16]
assert "repro.obs.record" not in sys.modules, "telemetry-off imported record"
print("ok")
"""


class TestZeroOverheadOff:
    def test_off_path_never_imports_record(self, tmp_path):
        """The default (telemetry-off) path must not even import the
        recording machinery — the strongest cheap no-op guarantee."""
        script = tmp_path / "probe.py"
        script.write_text(ZERO_IMPORT_SNIPPET)
        env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            cwd=Path(__file__).resolve().parent.parent, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


class TestSpansSurviveWorkerKills:
    def test_cells_campaign_with_kill(self, tmp_path, mini_scenario):
        from faultkit import KILL, fault_cells

        from repro.parallel import RetryPolicy
        from repro.scenarios import expand_cells

        cells = expand_cells([mini_scenario.name])
        with obs.telemetry() as col, fault_cells(tmp_path, cells, {1: KILL}):
            summary = run_campaign(
                [mini_scenario.name], campaign="obs", seed=SEED,
                results_dir=tmp_path, workers=2,
                retry=RetryPolicy(max_attempts=3, backoff_base=0.05),
            )
        assert summary.executed == summary.n_cells  # kill absorbed
        lost = {
            e["attrs"]["shard"] for e in col.events
            if e["name"] == "executor.worker_lost"
        }
        assert 1 in lost
        # The killed attempt's buffer is gone; the replacement attempt
        # re-records the cell, so every executed cell has its span.
        cell_keys = {
            s["attrs"]["key"] for s in col.spans if s["name"] == "cell"
        }
        assert len(cell_keys) == summary.n_cells


class TestCLI:
    def test_runtime_shows_provenance(self, capsys, monkeypatch):
        from repro.experiments.__main__ import main

        monkeypatch.setenv("REPRO_TELEMETRY", "on")
        assert main(["runtime"]) == 0
        out = capsys.readouterr().out
        assert "telemetry:          on [env]" in out
        assert "[default]" in out  # untouched knobs say so
        # Exactly these knobs: a retired one must not come back unnoticed.
        knobs = [line.split(":", 1)[0] for line in out.splitlines()]
        assert knobs == [
            "cpu_count", "suggested_workers", "pool_start_method",
            "default_workers", "telemetry",
        ]

    def test_scenarios_report_json(self, capsys, tmp_path, mini_scenario):
        from repro.experiments.__main__ import main

        run_campaign([mini_scenario.name], campaign="obs", seed=SEED,
                     results_dir=tmp_path)
        assert main(["scenarios", "report", "--campaign", "obs",
                     "--results-dir", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["campaign"] == "obs"
        assert report["cells_complete"] == 4
        assert set(report["by_sampler"]) == {"systematic", "stratified"}

    @pytest.mark.parametrize("view", ["summary", "spans", "timeline"])
    def test_telemetry_views_render(self, capsys, tmp_path, mini_scenario,
                                    view):
        from repro.experiments.__main__ import main

        assert main(["scenarios", "run", mini_scenario.name,
                     "--campaign", "obs", "--results-dir", str(tmp_path),
                     "--seed", str(SEED), "--telemetry", "on"]) == 0
        capsys.readouterr()
        assert main(["telemetry", view, "--campaign", "obs",
                     "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign=obs" in out

    def test_telemetry_view_missing_sidecar_hint(self, tmp_path):
        from repro.experiments.__main__ import main

        with pytest.raises(ParameterError, match="telemetry"):
            main(["telemetry", "summary", "--campaign", "nope",
                  "--results-dir", str(tmp_path)])

    def test_profile_writes_and_aggregates(self, capsys, tmp_path,
                                           mini_scenario):
        from repro.experiments.__main__ import main

        profile_dir = tmp_path / "prof"
        assert main(["scenarios", "run", mini_scenario.name,
                     "--campaign", "obs", "--results-dir", str(tmp_path),
                     "--seed", str(SEED), "--profile",
                     str(profile_dir)]) == 0
        out = capsys.readouterr().out
        assert list(profile_dir.glob("*.prof"))
        assert "cumulative" in out  # the aggregated pstats table printed
