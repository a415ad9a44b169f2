"""Scenario campaigns: grammar validation, determinism, resumable store.

The acceptance properties this file pins:

* the built-in smoke campaign exercises >= 4 traffic models x >= 3
  sampling techniques (the coverage the subsystem exists for);
* ``workers=4`` produces a result store byte-identical to ``workers=1``
  (cells are pure functions of their seed labels, their records are
  appended in canonical order, and nothing else in a record may depend
  on the machine);
* a campaign killed mid-run — including mid-append — and re-run with
  ``resume=True`` skips every completed cell, re-executes none of them,
  and converges to a byte-identical store.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.errors import ParameterError
from repro.scenarios import (
    EstimatorSuite,
    QueueSpec,
    ResultStore,
    SamplerSpec,
    Scenario,
    TrafficSpec,
    available_scenarios,
    evaluate_cell,
    expand_cells,
    get_scenario,
    register_scenario,
    run_campaign,
    render_report,
)
from repro.scenarios.registry import _REGISTRY

SEED = 20260726


@pytest.fixture()
def small_scenario():
    """One fast scenario (4 cells) for store/resume mechanics."""
    return Scenario(
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


@pytest.fixture()
def mini_registered(small_scenario):
    register_scenario(small_scenario)
    yield small_scenario.name
    _REGISTRY.pop(small_scenario.name, None)


# ----------------------------------------------------------------- grammar
class TestSpecValidation:
    def test_unknown_traffic_model(self):
        with pytest.raises(ParameterError, match="unknown traffic model"):
            TrafficSpec(model="quantum", n=4096)

    def test_model_requires_its_parameters(self):
        with pytest.raises(ParameterError, match="requires hurst"):
            TrafficSpec(model="fgn", n=4096)
        with pytest.raises(ParameterError, match="requires alpha"):
            TrafficSpec(model="pareto_lrd", n=4096)

    def test_inapplicable_parameters_rejected(self):
        """A parameter the model never consumes must not be accepted —
        the store would record a workload the trace never had."""
        with pytest.raises(ParameterError, match="does not take"):
            TrafficSpec(model="mginf", n=4096, hurst=0.7, mean=5.0)
        with pytest.raises(ParameterError, match="does not take"):
            TrafficSpec(model="fgn", n=4096, hurst=0.7, alpha=1.5)
        with pytest.raises(ParameterError, match="does not take"):
            TrafficSpec(model="bell_labs", n=4096, hurst=0.62)
        with pytest.raises(ParameterError, match="does not take"):
            TrafficSpec(model="packets", n=4096, n_sources=8)

    def test_srd_hurst_rejected(self):
        with pytest.raises(ParameterError, match="hurst"):
            TrafficSpec(model="fgn", n=4096, hurst=0.4)

    def test_unknown_sampler_kind(self):
        with pytest.raises(ParameterError, match="unknown sampler kind"):
            SamplerSpec(kind="psychic", rate=0.01)

    def test_bss_parameters_rejected_elsewhere(self):
        with pytest.raises(ParameterError, match="only apply to 'bss'"):
            SamplerSpec(kind="systematic", rate=0.01, epsilon=1.5)

    def test_unknown_estimator_method(self):
        with pytest.raises(ParameterError, match="unknown Hurst method"):
            EstimatorSuite(methods=("tea_leaves",))

    def test_queue_utilisation_domain(self):
        with pytest.raises(ParameterError, match="utilisation"):
            QueueSpec(utilisation=1.2)

    def test_packet_series_mismatch_fails_at_declaration(self):
        with pytest.raises(ParameterError, match="packet"):
            Scenario(
                name="bad",
                description="",
                traffic=(TrafficSpec(model="packets", n=4096),),
                samplers=(SamplerSpec(kind="systematic", rate=0.01),),
            )

    def test_scenario_name_charset(self):
        with pytest.raises(ParameterError, match="free of"):
            Scenario(
                name="a:b",
                description="",
                traffic=(TrafficSpec(model="fgn", n=2048, hurst=0.7),),
                samplers=(SamplerSpec(kind="systematic", rate=0.05),),
            )

    def test_duplicate_grid_point_rejected(self):
        """Identical grid points would share a resume key and a seed
        stream — resume would then skip one forever."""
        with pytest.raises(ParameterError, match="collide"):
            Scenario(
                name="dup",
                description="",
                traffic=(TrafficSpec(model="fgn", n=2048, hurst=0.7),) * 2,
                samplers=(SamplerSpec(kind="systematic", rate=0.05),),
            )

    def test_grids_varying_only_in_n_mean_or_extras_stay_distinct(self):
        """Every spec field reaches the slug, so any single-axis grid is
        legal and resume-safe."""
        by_n = Scenario(
            name="byn", description="",
            traffic=(
                TrafficSpec(model="fgn", n=2048, hurst=0.7),
                TrafficSpec(model="fgn", n=4096, hurst=0.7),
            ),
            samplers=(
                SamplerSpec(kind="bss", rate=0.05, extra_samples=4),
                SamplerSpec(kind="bss", rate=0.05, extra_samples=8),
            ),
        )
        keys = [cell.key for cell in by_n.cells()]
        assert len(keys) == len(set(keys)) == 4

    def test_smoke_collapsed_n_axis_rejected(self):
        """An n-only grid that the smoke cap collapses must fail loudly,
        not silently merge two cells into one key."""
        scenario = Scenario(
            name="collapse", description="",
            traffic=(
                TrafficSpec(model="fgn", n=1 << 15, hurst=0.7),
                TrafficSpec(model="fgn", n=1 << 16, hurst=0.7),
            ),
            samplers=(SamplerSpec(kind="systematic", rate=0.05),),
        )
        assert len(scenario.cells()) == 2
        with pytest.raises(ParameterError, match="smoke-mode size cap"):
            scenario.cells(smoke=True)


class TestRegistry:
    def test_unknown_scenario(self):
        with pytest.raises(ParameterError, match="unknown scenario"):
            get_scenario("does-not-exist")

    def test_duplicate_registration_rejected(self, mini_registered):
        with pytest.raises(ParameterError, match="already registered"):
            register_scenario(get_scenario(mini_registered))

    def test_duplicate_scenario_names_rejected(self):
        """Duplicated names would duplicate resume keys, leaving the
        manifest's cell count unreachable forever."""
        with pytest.raises(ParameterError, match="more than once"):
            expand_cells(["fgn-hurst-sweep", "fgn-hurst-sweep"])

    def test_builtins_present(self):
        names = available_scenarios()
        assert len(names) >= 8
        for name in names:
            assert get_scenario(name).cells()  # every grid expands


# ---------------------------------------------------------------- coverage
class TestSmokeCoverage:
    def test_smoke_campaign_breadth(self):
        """The acceptance floor: >= 4 traffic models x >= 3 samplers."""
        cells = expand_cells(smoke=True)
        models = {cell.traffic.model for cell in cells}
        kinds = {cell.sampler.kind for cell in cells}
        assert len(models) >= 4
        assert len(kinds) >= 3

    def test_smoke_shrinks_sizes_never_grids(self):
        full = expand_cells()
        smoke = expand_cells(smoke=True)
        assert len(full) == len(smoke)
        # Same grid points in the same order — only sizes shrink (n is
        # part of the key, so smoke keys legitimately differ from full).
        assert [
            (c.scenario, c.traffic.model, c.sampler.slug()) for c in full
        ] == [
            (c.scenario, c.traffic.model, c.sampler.slug()) for c in smoke
        ]
        assert max(c.traffic.n for c in smoke) <= 8192


# ------------------------------------------------------------- determinism
class TestDeterminism:
    def test_evaluate_cell_is_pure(self, small_scenario):
        cell = small_scenario.cells()[0]
        first = evaluate_cell(cell, campaign="purity", seed=SEED)
        second = evaluate_cell(cell, campaign="purity", seed=SEED)
        assert first == second

    def test_workers_four_store_byte_identical(
        self, tmp_path, mini_registered
    ):
        """workers=N must not move a single byte of the result store."""
        names = [mini_registered, "pareto-heavy-trigger", "queueing-tail"]
        one = run_campaign(
            names, campaign="pin", results_dir=tmp_path / "w1",
            seed=SEED, smoke=True, workers=1,
        )
        four = run_campaign(
            names, campaign="pin", results_dir=tmp_path / "w4",
            seed=SEED, smoke=True, workers=4,
        )
        assert one.executed == four.executed == one.n_cells
        assert (
            one.store.results_path.read_bytes()
            == four.store.results_path.read_bytes()
        )
        assert (
            one.store.manifest_path.read_bytes()
            == four.store.manifest_path.read_bytes()
        )

    def test_full_smoke_campaign_workers_identical(self, tmp_path):
        """The whole built-in smoke campaign, workers=4 vs workers=1."""
        one = run_campaign(
            campaign="smoke", results_dir=tmp_path / "w1", smoke=True,
            workers=1,
        )
        four = run_campaign(
            campaign="smoke", results_dir=tmp_path / "w4", smoke=True,
            workers=4,
        )
        assert one.n_cells == four.n_cells == one.executed
        assert (
            one.store.results_path.read_bytes()
            == four.store.results_path.read_bytes()
        )


# ------------------------------------------------------------------ resume
class TestResume:
    @pytest.mark.parametrize("max_cells", [2.5, True, -1])
    def test_invalid_max_cells_rejected_before_the_store_opens(
        self, tmp_path, mini_registered, max_cells
    ):
        with pytest.raises(ParameterError, match="max_cells"):
            run_campaign(
                [mini_registered], campaign="ref", results_dir=tmp_path,
                seed=SEED, smoke=True, max_cells=max_cells,
            )
        # Nothing was written, so a plain rerun is not refused.
        assert not (tmp_path / "ref").exists()
        summary = run_campaign(
            [mini_registered], campaign="ref", results_dir=tmp_path,
            seed=SEED, smoke=True, max_cells=1,
        )
        assert summary.executed == 1

    def test_killed_campaign_resumes_byte_identical(
        self, tmp_path, mini_registered
    ):
        names = [mini_registered]
        reference = run_campaign(
            names, campaign="ref", results_dir=tmp_path / "ref",
            seed=SEED, smoke=True,
        )
        # "Kill" a second campaign after 2 cells, mid-append: a truncated
        # final line simulates the worst interruption point.
        partial = run_campaign(
            names, campaign="ref", results_dir=tmp_path / "res",
            seed=SEED, smoke=True, max_cells=2,
        )
        assert partial.executed == 2
        with open(partial.store.results_path, "ab") as fh:
            fh.write(b'{"key":"test-mini/fgn-h0.85+syst')  # no newline
        resumed = run_campaign(
            names, campaign="ref", results_dir=tmp_path / "res",
            seed=SEED, smoke=True, resume=True,
        )
        assert resumed.skipped == 2           # completed cells not re-run
        assert resumed.executed == resumed.n_cells - 2
        assert (
            resumed.store.results_path.read_bytes()
            == reference.store.results_path.read_bytes()
        )

    def test_resume_of_complete_campaign_executes_nothing(
        self, tmp_path, mini_registered
    ):
        names = [mini_registered]
        first = run_campaign(
            names, campaign="done", results_dir=tmp_path,
            seed=SEED, smoke=True,
        )
        again = run_campaign(
            names, campaign="done", results_dir=tmp_path,
            seed=SEED, smoke=True, resume=True,
        )
        assert again.executed == 0
        assert again.skipped == again.n_cells
        assert (
            again.store.results_path.read_bytes()
            == first.store.results_path.read_bytes()
        )

    def test_fresh_open_refuses_existing_results(
        self, tmp_path, mini_registered
    ):
        names = [mini_registered]
        run_campaign(names, campaign="c", results_dir=tmp_path,
                     seed=SEED, smoke=True, max_cells=1)
        with pytest.raises(ParameterError, match="resume"):
            run_campaign(names, campaign="c", results_dir=tmp_path,
                         seed=SEED, smoke=True)

    def test_resume_with_changed_grid_rejected(
        self, tmp_path, mini_registered
    ):
        names = [mini_registered]
        run_campaign(names, campaign="c", results_dir=tmp_path,
                     seed=SEED, smoke=True, max_cells=1)
        with pytest.raises(ParameterError, match="different .*grid"):
            run_campaign(names, campaign="c", results_dir=tmp_path,
                         seed=SEED + 1, smoke=True, resume=True)

    def test_corrupt_complete_line_is_cut(self, tmp_path, mini_registered):
        names = [mini_registered]
        partial = run_campaign(
            names, campaign="c", results_dir=tmp_path,
            seed=SEED, smoke=True, max_cells=2,
        )
        with open(partial.store.results_path, "ab") as fh:
            fh.write(b"garbage not json\n")
        resumed = run_campaign(
            names, campaign="c", results_dir=tmp_path,
            seed=SEED, smoke=True, resume=True,
        )
        assert resumed.skipped == 2
        for line in resumed.store.results_path.read_bytes().splitlines():
            json.loads(line)  # every stored line is valid again


# ----------------------------------------------------------------- records
class TestRecordsAndReport:
    def test_record_shape(self, tmp_path, mini_registered):
        summary = run_campaign(
            [mini_registered], campaign="c", results_dir=tmp_path,
            seed=SEED, smoke=True,
        )
        records = summary.store.records()
        assert len(records) == summary.n_cells
        for record in records:
            assert record["key"].startswith("test-mini/")
            assert record["label"].startswith("c:test-mini:")
            assert set(record["truth"]) == {"mean", "hurst", "tail"}
            assert record["estimate"]["mean"] is not None
            assert "mean" in record["errors"]
            # Canonical serialisation: a reload-and-redump round-trips.
            assert json.dumps(
                record, sort_keys=True, separators=(",", ":")
            ) in summary.store.results_path.read_text()

    def test_queue_cells_record_norros_gap(self, tmp_path):
        summary = run_campaign(
            ["queueing-tail"], campaign="q", results_dir=tmp_path,
            seed=SEED, smoke=True,
        )
        records = summary.store.records()
        assert all("queue" in record for record in records)
        assert any(
            record["queue"]["norros_log10_err_truth"] is not None
            for record in records
        )

    def test_report_renders(self, tmp_path, mini_registered):
        summary = run_campaign(
            [mini_registered], campaign="c", results_dir=tmp_path,
            seed=SEED, smoke=True,
        )
        text = render_report(summary.store)
        assert "accuracy by sampler" in text
        assert "test-mini" in text

    def test_report_on_missing_campaign_fails_loudly(self, tmp_path):
        store = ResultStore(tmp_path / "nope")
        with pytest.raises(ParameterError, match="manifest"):
            render_report(store)

    def test_report_on_interrupted_store_renders_completed_cells(
        self, tmp_path, mini_registered
    ):
        """A kill-truncated tail must not crash the (read-only) report."""
        summary = run_campaign(
            [mini_registered], campaign="c", results_dir=tmp_path,
            seed=SEED, smoke=True, max_cells=2,
        )
        with open(summary.store.results_path, "ab") as fh:
            fh.write(b'{"key":"test-mini/torn')  # no newline
        text = render_report(summary.store)
        assert "2/4 cells complete" in text
        # The file itself is untouched: reporting is read-only.
        assert summary.store.results_path.read_bytes().endswith(b"torn")

    def test_mid_file_corruption_is_an_integrity_error(
        self, tmp_path, mini_registered
    ):
        summary = run_campaign(
            [mini_registered], campaign="c", results_dir=tmp_path,
            seed=SEED, smoke=True, max_cells=2,
        )
        raw = summary.store.results_path.read_bytes().splitlines(keepends=True)
        summary.store.results_path.write_bytes(
            raw[0] + b"garbage\n" + raw[1]
        )
        with pytest.raises(ParameterError, match="corrupt record at line 2"):
            summary.store.records()


# --------------------------------------------------------------------- CLI
class TestScenariosCLI:
    def test_list_run_resume_report(self, tmp_path, capsys, mini_registered):
        from repro.experiments.__main__ import main

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "pareto-heavy-trigger" in out

        argv = ["scenarios", "run", mini_registered, "--smoke",
                "--campaign", "cli", "--results-dir", str(tmp_path),
                "--seed", str(SEED), "--workers", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "executed=4 skipped=0" in out

        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "executed=0 skipped=4" in out

        assert main(["scenarios", "report", "--campaign", "cli",
                     "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "accuracy by sampler" in out
