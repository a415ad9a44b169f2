"""Campaign-level cell scheduling: shard the pending-cell list itself.

``run_campaign`` historically parallelised only *inside* each cell — the
Monte-Carlo ensemble, the estimator grids, the queue tails all route
through :func:`repro.parallel.run_shards` — while the cells themselves
ran one at a time.  Many-cell/small-trace campaigns (the smoke grids,
the packet scenarios, the low/high-rate pairs) therefore starved the
pool: each cell's inner ensemble is too small to cover the workers, so
the campaign crawled at roughly single-core speed no matter what
``--workers`` said.

This module plans the complementary layout.  A :class:`CellSchedule`
shards the campaign's pending-cell list across the pool the way
``parallel_rows`` shards sweep rows:

* **Cost model** — :func:`cell_cost` estimates each cell's work from
  trace length × ensemble size (plus estimator/confidence/queue terms),
  and :func:`cell_costs` normalises the estimates into the integer
  weights :class:`~repro.parallel.plan.JointPlan` consumes, so one giant
  cell cannot serialise the tail of the campaign.
* **Rounds** — the pending list is cut into contiguous, cost-balanced
  rounds on ``JointPlan``'s cumulative cost line.  Rounds bound the
  commit lag: the parent buffers one round's out-of-order completions,
  then commits them in canonical cell order, so an interrupted campaign
  loses at most one round of uncommitted work (and ``--resume`` re-runs
  exactly those cells).
* **Dispatch order** — within a round, cells go out heaviest-first
  (LPT), with a *stable* sort so uniform grids keep canonical order and
  fault-plan shard numbering stays predictable (shard ``k`` of a
  uniform round is cell ``k``).

Determinism: workers evaluate :func:`~repro.scenarios.campaign.evaluate_cell`
as a pure function of ``(cell, campaign, seed)`` — every random input
inside a cell is seeded from ``stream_for(cell_label)`` — so a
cell-scheduled store is *byte-identical* to the serial one once the
parent re-orders completions.  The parent remains the sole store
writer.

Fault tolerance: cell dispatch rides the executor's supervised path
with ``collect_errors=True`` — a lost cell worker is retried as a unit
(bit-identical by purity), and a cell that exhausts its
:class:`~repro.parallel.RetryPolicy` budget surfaces as a
:class:`~repro.errors.RetryBudgetError` in its own result slot, which
the campaign quarantines without aborting its siblings.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import repro.obs as obs
from repro.errors import ExecutionError
from repro.faults import fault_plan
from repro.parallel.executor import (
    default_workers,
    resolve_schedule,
    resolve_workers,
    run_shards,
)
from repro.parallel.plan import JointPlan
from repro.scenarios.specs import Cell

#: Rounds hold about this many cells per worker: large enough that LPT
#: balancing has room to work, small enough that an interrupted campaign
#: forfeits little uncommitted work.
ROUND_FACTOR = 4


# ------------------------------------------------------------- cost model
def cell_cost(cell: Cell) -> int:
    """Deterministic relative cost of one cell, in abstract work units.

    Roughly "trace length × number of passes over it": building the
    trace and reducing the truth side is one pass, every Monte-Carlo
    instance is one, the estimation instance plus each Hurst method one
    more, bootstrap confidence a fraction per resample (resamples run on
    the short sampled series), and a queue study two (Lindley recursion
    + threshold tails).  The absolute scale is meaningless — only the
    ratios matter, and :func:`cell_costs` normalises them away.
    """
    suite = cell.estimators
    passes = 2 + cell.n_instances + 1 + len(suite.methods)
    if suite.confidence_method is not None:
        passes += max(suite.n_resamples // 4, 1)
    if cell.queue is not None:
        passes += 2
    return int(cell.traffic.n) * int(passes)


def cell_costs(cells) -> list[int]:
    """Integer cost weights for ``cells``, cheapest cell normalised to 1.

    Divide by the floor and round, clamping at 1, so the weights stay
    small integers and ``JointPlan``'s cumulative cost line cannot
    overflow or degenerate.
    """
    raw = [cell_cost(cell) for cell in cells]
    if not raw:
        return []
    floor = max(min(raw), 1)
    return [max(int(round(r / floor)), 1) for r in raw]


# ---------------------------------------------------------------- planning
def decide_schedule(mode: str | None, cells, workers: int) -> str:
    """Resolve ``"auto"`` into ``"cells"`` or ``"ensembles"`` for this run.

    Cells win when they can cover the pool — ``len(cells) >= workers``
    with more than one worker — *and* no cell is so expensive that
    pinning it to a single worker would serialise the tail (a cell
    holding more than twice its fair share of the total cost keeps the
    campaign on per-cell ``ensembles`` parallelism, where its inner
    ensemble can spread across the pool).
    """
    resolved = resolve_schedule(mode)
    if resolved != "auto":
        return resolved
    if workers <= 1 or len(cells) < workers:
        return "ensembles"
    costs = cell_costs(cells)
    if max(costs) * workers > 2 * sum(costs):
        return "ensembles"
    return "cells"


@dataclass(frozen=True)
class CellSchedule:
    """A planned campaign execution: resolved mode, cell costs, rounds.

    ``rounds`` holds indices into the *pending* cell list (not the full
    grid), already in dispatch (LPT) order; every pending index appears
    exactly once.  ``mode != "cells"`` plans carry no rounds — the
    campaign keeps its serial cell loop and the ensembles inside each
    cell do the sharding.
    """

    mode: str
    costs: tuple[int, ...]
    rounds: tuple[tuple[int, ...], ...]

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


def plan_campaign(cells, *, workers: int | None = None,
                  mode: str | None = None) -> CellSchedule:
    """Plan how a campaign's pending cells should meet the worker pool.

    ``workers=None`` and ``mode=None`` consult the session defaults
    (``--workers``/``REPRO_WORKERS`` and ``--schedule``/``REPRO_SCHEDULE``),
    so the plan is a pure function of ``(cells, session config)`` — the
    determinism tests rely on that.
    """
    n_workers = resolve_workers(workers)
    resolved = decide_schedule(mode, cells, n_workers)
    if resolved != "cells" or not cells:
        return CellSchedule(mode=resolved, costs=(), rounds=())
    costs = cell_costs(cells)
    n = len(cells)
    n_rounds = max(-(-n // (ROUND_FACTOR * n_workers)), 1)
    # One count-1 "scale" per cell puts every cell on JointPlan's
    # cumulative cost line; its integer boundaries cut the canonical
    # order into contiguous, cost-balanced rounds.
    joint = JointPlan.split([1] * n, costs, n_rounds)
    rounds = []
    for shard in joint.shards:
        indices = [s.scale for s in shard]
        indices.sort(key=lambda i: -costs[i])  # stable LPT: ties stay canonical
        rounds.append(tuple(indices))
    return CellSchedule(mode="cells", costs=tuple(costs), rounds=tuple(rounds))


# ---------------------------------------------------------------- dispatch
def _cell_worker(cell: Cell, campaign: str, seed: int,
                 telemetry: bool = False, profile_to: str | None = None):
    """Evaluate one cell in a pool worker (module-level, picklable).

    The cell is the unit of parallelism here, so the evaluation runs
    with ``workers=1`` — its inner ensembles must not try to shard from
    inside a daemonic pool worker — and with the fault plan masked:
    cell-level directives (kill, delay) fire in the executor's dispatch
    wrapper *before* this function runs, and the nested ``run_shards``
    calls inside ``evaluate_cell`` must not consume the plan's global
    shard indices from inside a child.

    Returns a tagged tuple rather than raising: ``("ok", record, obs)``
    or ``("quarantine", error_type, message, obs)``, so an in-cell
    :class:`~repro.errors.ExecutionError` travels back to the parent's
    quarantine path exactly like the serial loop's ``except`` does.
    The trailing element is the worker's drained telemetry buffer
    (None when telemetry is off) — a fresh post-fork collector, shipped
    home through the result path and absorbed by the parent; a killed
    attempt loses its buffer by design and the replacement attempt's
    spans are the record.
    """
    from repro.scenarios import campaign as campaign_module

    profile_scope = contextlib.nullcontext()
    if profile_to is not None:
        from repro.obs.profile import profiled, worker_profile_path

        profile_scope = profiled(worker_profile_path(profile_to))
    with default_workers(1), fault_plan(None), \
            obs.telemetry(telemetry) as collector, profile_scope:
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


def iter_cell_results(schedule: CellSchedule, cells, *, campaign: str,
                      seed: int):
    """Run a cells-mode schedule, yielding ``(cell, outcome)`` in
    canonical order.

    Each round is dispatched through :func:`run_shards` — one task per
    cell, so heterogeneous cells are never batched behind each other,
    and ``collect_errors=True`` so one budget-exhausted cell cannot
    abort its round — and the round's completions are buffered and
    re-ordered before anything is yielded.  The caller (the campaign's
    sole store writer) therefore appends records in exactly the order
    the serial loop would have, which is what makes the store and
    manifest byte-identical.

    Outcomes are the worker's tagged tuples with the telemetry payload
    absorbed and stripped — ``("ok", record)`` / ``("quarantine",
    error_type, message)``; a shard whose retry budget was exhausted
    arrives as ``("quarantine", "RetryBudgetError", ...)``.
    """
    telemetry = obs.telemetry_enabled()
    profile_to = obs.profile_dir()
    for round_no, round_indices in enumerate(schedule.rounds):
        tasks = [
            (cells[i], campaign, seed, telemetry, profile_to)
            for i in round_indices
        ]
        with obs.span("schedule.round", index=round_no,
                      n_cells=len(round_indices)):
            started = time.monotonic()
            outcomes = run_shards(_cell_worker, tasks, collect_errors=True)
            wall = time.monotonic() - started
            outcomes, busy = zip(*(_drain_outcome(o) for o in outcomes))
            _record_round(round_no, round_indices, wall, sum(busy))
        by_index = dict(zip(round_indices, outcomes))
        for i in sorted(by_index):
            outcome = by_index[i]
            if isinstance(outcome, ExecutionError):
                outcome = ("quarantine", type(outcome).__name__, str(outcome))
            yield cells[i], outcome


def _drain_outcome(outcome):
    """Absorb a worker's shipped telemetry; return (stripped, busy_s).

    ``busy_s`` is the worker-measured root-span time of the outcome —
    what the round imbalance/idle metrics are computed from.  Outcomes
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


def _record_round(round_no: int, indices, wall: float, busy: float) -> None:
    """Emit the PR 9 scheduler's health numbers as telemetry."""
    collector = obs.current_collector()
    if collector is None or wall <= 0:
        return
    n_workers = max(min(resolve_workers(None), len(indices)), 1)
    ideal = busy / n_workers
    imbalance = wall / ideal if ideal > 0 else 1.0
    idle = max(1.0 - busy / (wall * n_workers), 0.0)
    collector.event(
        "schedule.round", index=round_no, n_cells=len(indices),
        wall_s=round(wall, 6), busy_s=round(busy, 6),
        idle_fraction=round(idle, 4), imbalance=round(imbalance, 3),
    )
    collector.gauge_max("schedule.round_imbalance", round(imbalance, 3))
    collector.gauge_max("schedule.pool_idle_fraction", round(idle, 4))
