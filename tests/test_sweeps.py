"""Unit tests for the declarative sweep layer (SweepSpec + run_panel)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.systematic import SystematicSampler
from repro.errors import ParameterError
from repro.experiments.sweeps import (
    CellSeries,
    ColumnSeries,
    DerivedSeries,
    EnsembleSeries,
    RowGroup,
    SweepSpec,
    make_run,
    run_panel,
)
from repro.trace.process import RateProcess
from repro.utils.rng import stream_for

SEED = 424242


@pytest.fixture(scope="module")
def trace():
    rng = np.random.default_rng(SEED)
    return RateProcess(np.abs(rng.standard_normal(4096)) + 0.5)


def _spec(trace, **overrides):
    defaults = dict(
        panel_id="panel",
        title="test panel",
        x_name="x",
        x_values=(1.0, 2.0, 3.0),
        trace=trace,
        n_instances=6,
        seed=SEED,
        series=(CellSeries("double", lambda ctx, x: 2 * x),),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestSpecValidation:
    def test_empty_grid_rejected(self, trace):
        with pytest.raises(ParameterError, match="empty x grid"):
            _spec(trace, x_values=())

    def test_no_series_rejected(self, trace):
        with pytest.raises(ParameterError, match="no series"):
            _spec(trace, series=())

    def test_non_series_rejected(self, trace):
        with pytest.raises(ParameterError, match="not a series spec"):
            _spec(trace, series=(lambda x: x,))

    def test_column_length_mismatch_rejected(self, trace):
        with pytest.raises(ParameterError, match="column"):
            _spec(trace, series=(ColumnSeries("c", [1.0, 2.0]),))

    def test_ensemble_without_trace_rejected(self):
        spec = _spec(
            None,
            series=(
                EnsembleSeries(
                    "m", lambda x: SystematicSampler(interval=4, offset=None)
                ),
            ),
        )
        with pytest.raises(ParameterError, match="declares no trace"):
            run_panel(spec)


class TestRunPanel:
    def test_cell_and_derived_and_column(self, trace):
        spec = _spec(
            trace,
            series=(
                ColumnSeries("fixed", [10.0, 20.0, 30.0]),
                CellSeries("double", lambda ctx, x: 2 * x),
                DerivedSeries(
                    "sum", lambda ctx, x, row: row["fixed"] + row["double"]
                ),
            ),
        )
        panel = run_panel(spec)
        assert panel.series["double"] == [2.0, 4.0, 6.0]
        assert panel.series["sum"] == [12.0, 24.0, 36.0]
        assert panel.x_values == [1.0, 2.0, 3.0]

    def test_column_order_is_declaration_order(self, trace):
        spec = _spec(
            trace,
            series=(
                CellSeries("b", lambda ctx, x: x),
                RowGroup(("a", "c"), lambda ctx, x: {"a": x, "c": x}),
                CellSeries("d", lambda ctx, x: x),
            ),
        )
        assert list(run_panel(spec).series) == ["b", "a", "c", "d"]

    def test_rounding(self, trace):
        spec = _spec(
            trace,
            series=(CellSeries("v", lambda ctx, x: x / 3.0, round_to=2),),
        )
        assert run_panel(spec).series["v"] == [0.33, 0.67, 1.0]

    def test_ensemble_series_uses_stream_labels(self, trace):
        """Cells seed via the legacy '<panel>:<tag>:<x>' label grammar."""
        from repro.core.variance import instance_means

        spec = _spec(
            trace,
            series=(
                EnsembleSeries(
                    "sys",
                    lambda x: SystematicSampler(interval=8, offset=None),
                    tag="s",
                ),
            ),
        )
        panel = run_panel(spec)
        expected = float(np.median(instance_means(
            SystematicSampler(interval=8, offset=None),
            trace, 6, stream_for("panel:s:2.0", SEED),
        )))
        assert panel.series["sys"][1] == expected

    def test_tagless_stream_label(self, trace):
        captured = []
        spec = _spec(
            trace,
            series=(
                CellSeries(
                    "v",
                    lambda ctx, x: captured.append(ctx.stream(None, x)) or 0.0,
                ),
            ),
        )
        run_panel(spec)
        expected = stream_for("panel:2.0", SEED)
        assert (
            captured[1].bit_generator.state
            == expected.bit_generator.state
        )

    def test_notes_callable_sees_columns(self, trace):
        spec = _spec(
            trace,
            notes=lambda ctx, columns: [f"total={sum(columns['double'])}"],
        )
        assert run_panel(spec).notes == ["total=12.0"]


class TestMakeRun:
    def test_single_spec_wrapped(self, trace):
        run = make_run(lambda *, scale, seed: _spec(trace, seed=seed))
        panels = run(scale=1.0, seed=SEED)
        assert len(panels) == 1
        assert panels[0].experiment_id == "panel"
