"""Experiment result container, the ensemble-median helper, and the registry.

Figure panels themselves are declared as :class:`~repro.experiments.sweeps.SweepSpec`
objects and executed by :func:`repro.experiments.sweeps.run_panel`; this
module holds what every layer shares — the :class:`ExperimentResult`
table, the registry mapping figure names to modules, and
:func:`run_experiment`, the harness entry point that routes a figure run
through the sharded engine via the session ``workers`` default.
"""

from __future__ import annotations

import contextlib
import importlib
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.base import Sampler
from repro.core.variance import instance_means
from repro.errors import ParameterError
from repro.utils.rng import stream_for
from repro.utils.tables import format_series_table


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
def execution_scope(*, workers: int | None = None, runtime: str | None = None,
                    schedule: str | None = None,
                    telemetry: bool | None = None):
    """The CLI's run context: workers default + pool runtime + telemetry.

    One scope serves every harness entry point (figure runs, scenario
    campaigns): ``workers`` becomes the session sharding default for the
    block, ``runtime="persistent"`` keeps one worker pool alive across
    every parallel region inside it (``None`` consults
    ``REPRO_RUNTIME``), ``schedule`` sets the session cell-scheduling
    mode — ``"cells"``, ``"ensembles"``, or ``"auto"`` (``None``
    consults ``REPRO_SCHEDULE``), and ``telemetry=True`` turns on
    span/metric recording for the block (``None`` consults
    ``REPRO_TELEMETRY``).  Results never depend on any of them — the
    scope is purely a wall-clock lever.
    """
    import repro.obs as obs
    from repro.parallel import default_schedule, default_workers
    from repro.parallel.runtime import pool_runtime, runtime_mode_from_env

    mode = runtime if runtime is not None else runtime_mode_from_env()
    if mode not in ("persistent", "fresh"):
        raise ParameterError(
            f"runtime must be 'persistent' or 'fresh', got {mode!r}"
        )
    pool_scope = (
        pool_runtime() if mode == "persistent" else contextlib.nullcontext()
    )
    telemetry_scope = (
        obs.telemetry(telemetry) if telemetry is not None
        else contextlib.nullcontext()
    )
    with pool_scope, default_workers(workers), default_schedule(schedule), \
            telemetry_scope:
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
    """Run one figure's experiment; returns its panels.

    ``workers`` routes every ensemble the experiment runs through the
    sharded engine (:mod:`repro.parallel`) for the duration of the run.
    Results are bit-identical to ``workers=1`` — parallelism is purely a
    wall-clock lever, so figure outputs never depend on the machine.
    """
    if name not in _REGISTRY:
        raise ParameterError(
            f"unknown experiment {name!r}; available: {available_experiments()}"
        )
    from repro.parallel import default_workers

    module = importlib.import_module(_REGISTRY[name])
    kwargs = {"scale": scale}
    if seed is not None:
        kwargs["seed"] = seed
    with default_workers(workers):
        results = module.run(**kwargs)
    if isinstance(results, ExperimentResult):
        return [results]
    return list(results)
