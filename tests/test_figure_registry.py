"""Registry-wide smoke test: every figure renders, is finite, and is
deterministic — in-process and dispatched as a whole figure.

This is the acceptance pin for the sweep refactor: all 21 figure modules
now declare their panels as SweepSpecs, so one parametrized test can run
the whole registry at tiny scale and assert

* each panel renders and its columns match the x grid,
* values are finite (NaN cells are allowed only where a figure designs
  them in, e.g. infeasible design regions; infinities never are),
* two runs are bit-identical (pure seed-label streams),
* every figure dispatched through ``run_shards`` at ``workers=4`` — as
  ``run all`` dispatches them — is bit-identical to ``workers=1``, and
  ``run all`` prints the same panels at ``--workers 1`` and ``2``.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import available_experiments, run_experiment
from repro.experiments.runner import timed_experiment
from repro.parallel import run_shards

TINY = 0.02
SEED = 20050601


@pytest.fixture(scope="module")
def baseline():
    """One tiny-scale serial run of the whole registry, cached."""
    return {
        name: run_experiment(name, scale=TINY, seed=SEED)
        for name in available_experiments()
    }


@pytest.fixture(scope="module")
def dispatched():
    """The whole registry in one ``run_shards`` call at workers=4."""
    names = available_experiments()
    tasks = [(name, TINY, SEED) for name in names]
    return {
        name: panels
        for name, (panels, _) in zip(
            names, run_shards(timed_experiment, tasks, workers=4)
        )
    }


def _same_values(left, right) -> bool:
    """Bit-for-bit column equality, counting NaN cells as equal."""
    if len(left) != len(right):
        return False
    return all(
        a == b or (math.isnan(float(a)) and math.isnan(float(b)))
        for a, b in zip(left, right)
    )


def _assert_same_panels(first, second, context: str) -> None:
    assert len(first) == len(second), context
    for a, b in zip(first, second):
        assert a.experiment_id == b.experiment_id, context
        assert _same_values(a.x_values, b.x_values), (context, a.experiment_id)
        assert list(a.series) == list(b.series), (context, a.experiment_id)
        for name in a.series:
            assert _same_values(a.series[name], b.series[name]), (
                context, a.experiment_id, name,
            )
        assert a.notes == b.notes, (context, a.experiment_id)


@pytest.mark.parametrize("name", available_experiments())
def test_renders_and_is_finite(name, baseline):
    for panel in baseline[name]:
        text = panel.render()
        assert panel.experiment_id in text
        assert len(text.splitlines()) >= 3
        for x in panel.x_values:
            assert math.isfinite(float(x)), (panel.experiment_id, "x", x)
        n_finite = 0
        for series_name, column in panel.series.items():
            assert len(column) == len(panel.x_values), (
                panel.experiment_id, series_name,
            )
            n_finite += sum(math.isfinite(float(v)) for v in column)
            # Designed-in NaN cells (infeasible design regions, contour
            # levels above the attainable maximum) are tolerated, but a
            # value may never overflow to infinity.
            assert not any(math.isinf(float(v)) for v in column), (
                panel.experiment_id, series_name, "inf",
            )
        assert n_finite, (panel.experiment_id, "no finite values at all")


@pytest.mark.parametrize("name", available_experiments())
def test_deterministic_across_two_calls(name, baseline):
    again = run_experiment(name, scale=TINY, seed=SEED)
    _assert_same_panels(baseline[name], again, "rerun")


@pytest.mark.parametrize("name", available_experiments())
def test_workers4_bit_identical_to_workers1(name, baseline, dispatched):
    _assert_same_panels(baseline[name], dispatched[name], "workers=4")


def test_run_all_prints_the_same_at_any_worker_count(capsys):
    from repro.experiments.__main__ import main

    def _run_all(workers):
        assert main(["run", "all", "--scale", str(TINY), "--seed", str(SEED),
                     "--workers", str(workers)]) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if "completed in" not in line]

    serial = _run_all(1)
    titles = sum(line.startswith("[fig") for line in serial)
    assert titles >= len(available_experiments())
    assert _run_all(2) == serial
