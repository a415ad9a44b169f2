"""Declarative figure panels: SweepSpec and the generic panel runner.

Every paper figure is some sweep — a grid of x values (sampling rates,
thresholds ``eps``, spectral exponents ``beta``) crossed with one or more
plotted curves.  A figure module *declares* its panels::

    def build_specs(*, scale=1.0, seed=MASTER_SEED):
        trace = eval_trace(scale, seed)
        return [SweepSpec(
            panel_id="figNN",
            title="sampled mean vs rate",
            x_name="rate",
            x_values=tuple(float(r) for r in rates),
            trace=trace,
            n_instances=instances(15, scale),
            seed=seed,
            series=(
                EnsembleSeries("systematic",
                               lambda r: SystematicSampler.from_rate(r, offset=None),
                               tag="sys", round_to=4),
            ),
        )]

    run = make_run(build_specs)

and :func:`run_panel` executes it, row by row, in-process: every
:class:`EnsembleSeries` cell is a Monte-Carlo ensemble computed by
:func:`repro.core.variance.instance_means` and seeded from the same
``stream_for`` label grammar (``"<panel_id>:<tag>:<x>"``) the
hand-rolled loops used, so declaring a sweep changes nothing about its
numbers.  A figure is a pure function of ``(scale, seed)``; ``run all
--workers N`` dispatches whole figures over the pool, never the rows of
one panel.

Series variants, composable within one spec:

* :class:`EnsembleSeries` — statistic of an instance-mean ensemble per x
  (the paper's bread and butter; engine-routed).
* :class:`CellSeries` — arbitrary per-cell value ``fn(ctx, x)``.
* :class:`RowGroup` — several columns produced by one shared evaluation
  per x (for cells that must consume one RNG stream jointly).
* :class:`DerivedSeries` — computed from the already-evaluated row.
* :class:`ColumnSeries` — a precomputed column (closed-form figures that
  evaluate a whole curve in one vectorized call).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.variance import instance_means
from repro.errors import ParameterError
from repro.experiments.config import MASTER_SEED
from repro.experiments.runner import ExperimentResult
from repro.utils.rng import stream_for


def _median(means: np.ndarray) -> float:
    """Default ensemble statistic: the paper's 'typical instance' view."""
    return float(np.median(means))


def _round(value, round_to):
    if round_to is None:
        return value
    return round(float(value), round_to)


@dataclass(frozen=True)
class SweepContext:
    """What a cell evaluation may depend on: workload, seeds, sizing.

    The seed-stream helpers reproduce the label grammar the hand-rolled
    figure loops used (``"<panel_id>:<tag>:<x>"``; tagless cells collapse
    to ``"<panel_id>:<x>"``), so every cell's randomness is a pure
    function of its coordinates.
    """

    panel_id: str
    seed: int
    trace: object = None
    n_instances: int = 0

    def stream(self, tag: str | None = None, x=None) -> np.random.Generator:
        """Named RNG stream for one cell (or one row when ``tag`` is None)."""
        parts = [self.panel_id]
        if tag is not None:
            parts.append(str(tag))
        if x is not None:
            parts.append(str(x))
        return stream_for(":".join(parts), self.seed)

    def instance_means(self, sampler, tag: str | None, x) -> np.ndarray:
        """Monte-Carlo ensemble for one cell."""
        if self.trace is None:
            raise ParameterError(
                f"panel {self.panel_id!r} declares no trace but an ensemble "
                "cell asked for one"
            )
        return instance_means(
            sampler, self.trace, self.n_instances, self.stream(tag, x)
        )

    def median_means(self, sampler, tag: str | None, x) -> float:
        """Median instance mean — the figures' default cell statistic."""
        return _median(self.instance_means(sampler, tag, x))


# ------------------------------------------------------------- series kinds
#: Default for ``EnsembleSeries.tag``: use the series name.  ``None`` means
#: a *tagless* stream (label ``"<panel_id>:<x>"``) — some original figure
#: loops seeded that way and the labels are part of their outputs.
SERIES_NAME = "__series-name__"


@dataclass(frozen=True)
class EnsembleSeries:
    """Statistic of a sampling-instance ensemble at each x.

    ``sampler`` maps x to the technique under test; the ensemble runs
    through :func:`repro.core.variance.instance_means`.  ``tag`` names
    the seed stream (defaults to the series name; ``None`` for a
    tagless stream).
    """

    name: str
    sampler: Callable
    statistic: Callable[[np.ndarray], float] = _median
    tag: str | None = SERIES_NAME
    round_to: int | None = None


@dataclass(frozen=True)
class CellSeries:
    """Arbitrary per-cell value: ``fn(ctx, x) -> float``."""

    name: str
    fn: Callable
    round_to: int | None = None


@dataclass(frozen=True)
class RowGroup:
    """Several columns from one shared per-x evaluation.

    ``fn(ctx, x)`` returns a mapping containing at least ``names``; use
    this when sibling columns must draw from a single RNG stream in a
    fixed order (e.g. paired variance comparisons).
    """

    names: tuple
    fn: Callable
    round_to: int | None = None


@dataclass(frozen=True)
class DerivedSeries:
    """Column computed from the row evaluated so far: ``fn(ctx, x, row)``."""

    name: str
    fn: Callable
    round_to: int | None = None


@dataclass(frozen=True)
class ColumnSeries:
    """A precomputed column, for closed-form curves evaluated in bulk."""

    name: str
    values: Sequence


SeriesSpec = (EnsembleSeries, CellSeries, RowGroup, DerivedSeries, ColumnSeries)


# ------------------------------------------------------------------- spec
@dataclass(frozen=True)
class SweepSpec:
    """One figure panel: an x grid crossed with declarative series.

    ``notes`` is either a static sequence of strings or a callable
    ``(ctx, columns) -> list[str]`` evaluated on the finished table.
    """

    panel_id: str
    title: str
    x_name: str
    x_values: tuple
    series: tuple
    trace: object = None
    n_instances: int = 0
    seed: int = MASTER_SEED
    notes: object = ()

    def __post_init__(self) -> None:
        if not self.x_values:
            raise ParameterError(f"panel {self.panel_id!r} has an empty x grid")
        if not self.series:
            raise ParameterError(f"panel {self.panel_id!r} declares no series")
        for s in self.series:
            if not isinstance(s, SeriesSpec):
                raise ParameterError(
                    f"panel {self.panel_id!r}: {s!r} is not a series spec"
                )
            if isinstance(s, ColumnSeries) and len(s.values) != len(self.x_values):
                raise ParameterError(
                    f"panel {self.panel_id!r}: column {s.name!r} has "
                    f"{len(s.values)} values for {len(self.x_values)} x points"
                )

    def column_names(self) -> list[str]:
        names: list[str] = []
        for s in self.series:
            names.extend(s.names if isinstance(s, RowGroup) else (s.name,))
        return names

    def context(self) -> SweepContext:
        return SweepContext(
            panel_id=self.panel_id,
            seed=self.seed,
            trace=self.trace,
            n_instances=self.n_instances,
        )


# ------------------------------------------------------------------ runner
def _eval_row(spec: SweepSpec, ctx: SweepContext, index: int) -> dict:
    """All column values at one x, in declared series order."""
    x = spec.x_values[index]
    row: dict = {}
    for s in spec.series:
        if isinstance(s, ColumnSeries):
            row[s.name] = s.values[index]
        elif isinstance(s, EnsembleSeries):
            tag = s.name if s.tag is SERIES_NAME else s.tag
            means = ctx.instance_means(s.sampler(x), tag, x)
            row[s.name] = _round(s.statistic(means), s.round_to)
        elif isinstance(s, CellSeries):
            row[s.name] = _round(s.fn(ctx, x), s.round_to)
        elif isinstance(s, RowGroup):
            out = s.fn(ctx, x)
            for name in s.names:
                row[name] = _round(out[name], s.round_to)
        else:  # DerivedSeries
            row[s.name] = _round(s.fn(ctx, x, row), s.round_to)
    return row


def run_panel(spec: SweepSpec) -> ExperimentResult:
    """Execute one spec into the figure table it declares."""
    ctx = spec.context()
    rows = [_eval_row(spec, ctx, i) for i in range(len(spec.x_values))]
    columns = {name: [row[name] for row in rows] for name in spec.column_names()}
    notes = (
        list(spec.notes(ctx, columns)) if callable(spec.notes)
        else list(spec.notes)
    )
    return ExperimentResult(
        experiment_id=spec.panel_id,
        title=spec.title,
        x_name=spec.x_name,
        x_values=list(spec.x_values),
        series=columns,
        notes=notes,
    )


def run_panels(specs) -> list[ExperimentResult]:
    """Execute a figure's panels in order."""
    return [run_panel(spec) for spec in specs]


def make_run(build_specs: Callable) -> Callable:
    """Standard ``run`` entry point for a spec-declared figure module.

    ``build_specs(scale=..., seed=...)`` returns the figure's specs (one
    or a sequence); the generated ``run`` accepts the harness signature
    ``run(scale, seed)`` and executes them through :func:`run_panel`.
    """

    def run(scale: float = 1.0, seed: int = MASTER_SEED) -> list[ExperimentResult]:
        specs = build_specs(scale=scale, seed=seed)
        if isinstance(specs, SweepSpec):
            specs = [specs]
        return run_panels(specs)

    run.build_specs = build_specs
    return run
