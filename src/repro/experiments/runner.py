"""Experiment result container, the ensemble-median helper, and the registry.

Figure panels themselves are declared as :class:`~repro.experiments.sweeps.SweepSpec`
objects and executed by :func:`repro.experiments.sweeps.run_panel`; this
module holds what every layer shares — the :class:`ExperimentResult`
table, the registry mapping figure names to modules,
:func:`run_experiment`, the harness entry point that runs one figure
in-process, and :func:`timed_experiment`, the task ``run all`` hands the
executor once per figure.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.base import Sampler
from repro.core.variance import instance_means
from repro.errors import ParameterError
from repro.utils.rng import stream_for
from repro.utils.tables import format_series_table
from repro.utils.validation import require_probability


@dataclass(frozen=True)
class ExperimentResult:
    """One figure panel as a data table.

    Attributes
    ----------
    experiment_id:
        Paper figure id, e.g. ``"fig18a"``.
    title:
        Human-readable description.
    x_name / x_values:
        The x-axis of the original figure.
    series:
        One named column per plotted curve.
    notes:
        Free-form findings (fitted exponents, averages, ...), printed
        under the table.
    """

    experiment_id: str
    title: str
    x_name: str
    x_values: Sequence
    series: Mapping[str, Sequence]
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        table = format_series_table(
            self.x_name,
            list(self.x_values),
            {k: list(v) for k, v in self.series.items()},
            title=f"[{self.experiment_id}] {self.title}",
        )
        if self.notes:
            table += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return table


def median_instance_means(
    sampler: Sampler, process, n_instances: int, seed_label: str, seed: int
) -> float:
    """Median sampled mean across instances.

    The paper's 'sampled mean vs rate' curves show a *typical* sampling
    outcome.  The instance mean is unbiased for every technique, so the
    under-estimation phenomenon lives in the median (most instances miss
    the rare large values; a few overshoot hugely).
    """
    rng = stream_for(seed_label, seed)
    means = instance_means(sampler, process, n_instances, rng)
    return float(np.median(means))


@contextlib.contextmanager
def execution_scope(*, workers: int | None = None,
                    telemetry: bool | None = None):
    """The CLI's run context: workers default + telemetry.

    One scope serves every harness entry point (figure runs, scenario
    campaigns): ``workers`` becomes the session worker default for the
    block — how many figures or campaign cells run at a time — and
    ``telemetry=True`` turns on span/metric recording for the block
    (``None`` consults ``REPRO_TELEMETRY``).  Results never depend on
    either: the scope is purely a wall-clock lever.
    """
    import repro.obs as obs
    from repro.parallel import default_workers

    telemetry_scope = (
        obs.telemetry(telemetry) if telemetry is not None
        else contextlib.nullcontext()
    )
    with default_workers(workers), telemetry_scope:
        yield


# ----------------------------------------------------------------- registry
#: Experiment name -> module path; every paper figure has an entry.
_REGISTRY: dict[str, str] = {
    f"fig{n:02d}": f"repro.experiments.fig{n:02d}"
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18,
              19, 20, 21, 22)
}


def available_experiments() -> list[str]:
    return sorted(_REGISTRY)


def run_experiment(
    name: str,
    *,
    scale: float = 1.0,
    seed: int | None = None,
    workers: int | None = None,
) -> list[ExperimentResult]:
    """Run one figure's experiment in-process; returns its panels.

    ``scale`` must lie in (0, 1].  ``workers`` is validated but changes
    nothing inside one figure — whole figures are the parallel grain
    (``run all --workers N``); the parameter stays only because
    ``perfbench/workloads.py`` passes it.
    """
    if name not in _REGISTRY:
        raise ParameterError(
            f"unknown experiment {name!r}; available: {available_experiments()}"
        )
    from repro.parallel import resolve_workers

    resolve_workers(workers)
    require_probability("scale", scale)
    module = importlib.import_module(_REGISTRY[name])
    kwargs = {"scale": scale}
    if seed is not None:
        kwargs["seed"] = seed
    results = module.run(**kwargs)
    if isinstance(results, ExperimentResult):
        return [results]
    return list(results)


def timed_experiment(name: str, scale: float, seed: int | None):
    """One ``run all`` task: a figure's panels and its compute seconds."""
    start = time.perf_counter()
    panels = run_experiment(name, scale=scale, seed=seed)
    return panels, time.perf_counter() - start
