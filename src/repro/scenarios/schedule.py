"""Campaign cell dispatch: every pending cell in one ``run_shards`` call.

A campaign cell is a pure function of ``(cell, campaign, seed)`` — every
random input inside it is seeded from ``stream_for(cell_label)`` — so the
whole cell is the unit of parallel work.  :func:`iter_cell_results`
hands the campaign's pending cells to
:func:`~repro.parallel.executor.run_shards` once, in canonical order: at
``workers=1`` they run in-process, one after another; otherwise the
executor keeps one cell per worker in flight and gives each worker the
next cell as it frees (Graham's list scheduling).  Results come back in
canonical order as each prefix completes, so the caller — the campaign's
sole store writer — appends every record as soon as the cells before it
are done.  The store and manifest are therefore byte-identical for any
worker count, and an interrupted campaign loses only the cells still in
flight or waiting on an earlier one (``--resume`` re-runs exactly
those).

Fault tolerance: the dispatch uses the executor's supervised path with
``collect_errors=True`` — a lost cell worker is retried as a unit
(bit-identical by purity), and a cell that exhausts its
:class:`~repro.parallel.RetryPolicy` budget surfaces as a
:class:`~repro.errors.RetryBudgetError` in its own result slot, which
the campaign quarantines without aborting its siblings.
"""

from __future__ import annotations

import contextlib
import time

import repro.obs as obs
from repro.errors import ExecutionError
from repro.parallel.executor import default_workers, resolve_workers, run_shards
from repro.scenarios.specs import Cell


def _cell_worker(cell: Cell, campaign: str, seed: int,
                 telemetry: bool = False, profile_to: str | None = None):
    """Evaluate one cell as a dispatch task (module-level, picklable).

    The cell is the unit of parallelism, so the evaluation runs with
    ``workers=1``.

    Returns a tagged tuple rather than raising: ``("ok", record, obs)``
    or ``("quarantine", error_type, message, obs)``, so an in-cell
    :class:`~repro.errors.ExecutionError` reaches the campaign's
    quarantine path.  The trailing element is the cell's drained
    telemetry buffer (None when telemetry is off) — a fresh collector,
    shipped home through the result path and absorbed by the parent; a
    killed attempt loses its buffer by design and the replacement
    attempt's spans are the record.
    """
    from repro.scenarios import campaign as campaign_module

    profile_scope = contextlib.nullcontext()
    if profile_to is not None:
        from repro.obs.profile import profiled, worker_profile_path

        profile_scope = profiled(worker_profile_path(profile_to))
    with default_workers(1), obs.telemetry(telemetry) as collector, \
            profile_scope:
        try:
            with obs.span("cell", key=cell.key):
                record = campaign_module.evaluate_cell(
                    cell, campaign=campaign, seed=seed
                )
        except ExecutionError as exc:
            return ("quarantine", type(exc).__name__, str(exc),
                    collector.export() if collector is not None else None)
    return ("ok", record,
            collector.export() if collector is not None else None)


def iter_cell_results(cells, *, campaign: str, seed: int):
    """Evaluate ``cells``, yielding ``(cell, outcome)`` in canonical order.

    One :func:`run_shards` call covers every cell — one task per cell, so
    heterogeneous cells are never batched behind each other, and
    ``collect_errors=True`` so one budget-exhausted cell cannot abort
    the rest.  Each outcome is yielded as soon as its cell and every
    cell before it have finished.

    Outcomes are the worker's tagged tuples with the telemetry payload
    absorbed and stripped — ``("ok", record)`` / ``("quarantine",
    error_type, message)``; a cell whose retry budget was exhausted
    arrives as ``("quarantine", "RetryBudgetError", ...)``.
    """
    if not cells:
        return
    tasks = [(cell, campaign, seed, obs.telemetry_enabled(), obs.profile_dir())
             for cell in cells]
    busy = 0.0
    with obs.span("schedule.round", index=0, n_cells=len(tasks)):
        started = time.monotonic()
        # Only this loop references the dispatch, so when this generator
        # is closed (or dropped) early, the dispatch goes with it and its
        # ``finally`` tears the worker pool down.
        for cell, outcome in zip(
            cells, run_shards(_cell_worker, tasks, collect_errors=True)
        ):
            outcome, cell_busy = _drain_outcome(outcome)
            busy += cell_busy
            if isinstance(outcome, ExecutionError):
                outcome = ("quarantine", type(outcome).__name__, str(outcome))
            yield cell, outcome
        _record_round(len(tasks), time.monotonic() - started, busy)


def _drain_outcome(outcome):
    """Absorb a worker's shipped telemetry; return (stripped, busy_s).

    ``busy_s`` is the worker-measured root-span time of the outcome —
    what the dispatch imbalance/idle metrics are computed from.  Outcomes
    without a payload (telemetry off, or a ``RetryBudgetError`` in the
    slot) pass through untouched.
    """
    if not isinstance(outcome, tuple):
        return outcome, 0.0
    if outcome[0] == "ok" and len(outcome) == 3:
        payload, stripped = outcome[2], outcome[:2]
    elif outcome[0] == "quarantine" and len(outcome) == 4:
        payload, stripped = outcome[3], outcome[:3]
    else:
        return outcome, 0.0
    if payload is None:
        return stripped, 0.0
    ids = {span["id"] for span in payload.get("spans", ())}
    busy = sum(
        span["duration_s"] for span in payload.get("spans", ())
        if span.get("parent") not in ids
    )
    collector = obs.current_collector()
    if collector is not None:
        collector.absorb(payload)
    return stripped, busy


def _record_round(n_cells: int, wall: float, busy: float) -> None:
    """Emit the dispatch's health numbers as telemetry.

    The names predate the single dispatch, when cells went out in
    rounds: the ``schedule.round`` event and the ``round_imbalance`` and
    ``pool_idle_fraction`` gauges now describe the one dispatch.
    """
    collector = obs.current_collector()
    if collector is None or wall <= 0:
        return
    n_workers = max(min(resolve_workers(None), n_cells), 1)
    ideal = busy / n_workers
    imbalance = wall / ideal if ideal > 0 else 1.0
    idle = max(1.0 - busy / (wall * n_workers), 0.0)
    collector.event(
        "schedule.round", index=0, n_cells=n_cells,
        wall_s=round(wall, 6), busy_s=round(busy, 6),
        idle_fraction=round(idle, 4), imbalance=round(imbalance, 3),
    )
    collector.gauge_max("schedule.round_imbalance", round(imbalance, 3))
    collector.gauge_max("schedule.pool_idle_fraction", round(idle, 4))
