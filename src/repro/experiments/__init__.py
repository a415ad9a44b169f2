"""Experiment harness: one module per paper figure, plus a CLI.

Run ``python -m repro.experiments list`` to see the experiments and
``python -m repro.experiments run fig18`` to regenerate one figure's data
as a text table.  Figures declare their panels as
:class:`~repro.experiments.sweeps.SweepSpec` objects.  Each figure is a
pure function of ``(scale, seed)``, so ``run all --workers N`` runs N
figures at a time without changing a number.
"""

from repro.experiments.runner import (
    ExperimentResult,
    available_experiments,
    run_experiment,
)
from repro.experiments.sweeps import (
    CellSeries,
    ColumnSeries,
    DerivedSeries,
    EnsembleSeries,
    RowGroup,
    SweepContext,
    SweepSpec,
    make_run,
    run_panel,
    run_panels,
)

__all__ = [
    "ExperimentResult",
    "available_experiments",
    "run_experiment",
    "SweepSpec",
    "SweepContext",
    "EnsembleSeries",
    "CellSeries",
    "RowGroup",
    "DerivedSeries",
    "ColumnSeries",
    "run_panel",
    "run_panels",
    "make_run",
]
