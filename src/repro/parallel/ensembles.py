"""Sharded, deterministic parallel entry points for ensemble workloads.

Each public function mirrors a sequential routine elsewhere in the
library and is pinned to it by the determinism tests:

===============================  ==========================================  ========
parallel function                 sequential twin                             parity
===============================  ==========================================  ========
``parallel_instance_means``      ``repro.core.variance.instance_means``      exact
``parallel_average_variance``    ``repro.core.variance.average_variance``    exact
``parallel_tail_probabilities``  ``repro.queueing.tail_probabilities``       exact
``parallel_rs_statistics``       ``repro.hurst.rs.rs_statistics``            1e-12
``parallel_aggregate_variances`` ``repro.hurst.aggvar.aggregate_variances``  1e-12
``parallel_dfa_fluctuations``    ``repro.hurst.dfa.dfa_fluctuations``        1e-12
===============================  ==========================================  ========

Randomised ensembles derive per-shard RNGs by spawning the full child
list from the caller's seed spec in the parent (the exact list the serial
path uses) and handing each shard its contiguous slice, so ``workers=1``
and ``workers=N`` draw identical streams.  Estimator sharding splits the
*windows/blocks/boxes* of each scale across shards and merges the partial
states from :mod:`repro.parallel.state`; only the final reduction order
changes, hence the 1e-12 rows.

Trace arrays never ride in the task tuples: every entry point publishes
its series once through :func:`repro.parallel.memory.shared_values` and
hands shards a :class:`~repro.trace.store.TraceHandle`, so a shard
attaches to the parent's buffer instead of unpickling a copy — the
workers see the same float64 bits either way.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Sampler, series_values
from repro.core.variance import average_variance, ensemble_means_for_children
from repro.errors import ParameterError
from repro.parallel.executor import resolve_workers, run_shards
from repro.parallel.memory import shared_values
from repro.parallel.plan import JointPlan, ShardPlan
from repro.parallel.state import (
    AggVarState,
    DFAState,
    EnsembleMeansState,
    RSState,
    TailHistogramState,
    merge_states,
)
from repro.trace.store import resolve_values
from repro.utils.arrays import as_float_array
from repro.utils.rng import normalize_rng, spawn_rngs
from repro.utils.validation import require_int_at_least


# --------------------------------------------------------------- ensembles
def _instance_means_partial(
    sampler: Sampler, values_ref, children, start: int
) -> EnsembleMeansState:
    """Shard worker: sampled means for one contiguous slice of children."""
    return EnsembleMeansState(
        start=start,
        means=ensemble_means_for_children(
            sampler, resolve_values(values_ref), children
        ),
    )


def parallel_instance_means(
    sampler: Sampler, process, n_instances: int, rng=None, *, workers=None
) -> np.ndarray:
    """Sharded twin of :func:`repro.core.variance.instance_means`.

    The full child-generator list is spawned in the parent — exactly as
    the serial path spawns it — and sliced contiguously across shards, so
    every instance consumes the same stream it would serially and the
    concatenated result is bit-identical for any worker count.  The
    series itself crosses to the shards as a
    :class:`~repro.trace.store.TraceHandle`, never as a pickled copy.
    """
    require_int_at_least("n_instances", n_instances, 1)
    n_workers = resolve_workers(workers)
    gen = normalize_rng(rng)
    children = spawn_rngs(gen, n_instances)
    values = series_values(process)
    plan = ShardPlan.split(n_instances, n_workers)
    with shared_values(values, workers=n_workers, n_tasks=plan.n_shards) as ref:
        tasks = [
            (sampler, ref, children[shard.start : shard.stop], shard.start)
            for shard in plan.shards
        ]
        partials = run_shards(_instance_means_partial, tasks, workers=n_workers)
    return merge_states(partials).finalize()


def parallel_average_variance(
    sampler: Sampler,
    process,
    n_instances: int,
    rng=None,
    *,
    true_mean: float | None = None,
    workers=None,
) -> float:
    """Sharded twin of :func:`repro.core.variance.average_variance`.

    A pure delegation: ``average_variance`` already routes its ensemble
    through the sharded engine via ``workers``; this name exists so the
    parallel API surface is symmetric with ``parallel_instance_means``.
    """
    return average_variance(
        sampler, process, n_instances, rng, true_mean=true_mean, workers=workers
    )


# -------------------------------------------------------------- estimators
def _run_sharded_estimator(
    x: np.ndarray,
    sizes: np.ndarray,
    *,
    workers: int,
    joint_fn,
    row_counts,
    row_costs,
    empty_state,
):
    """Shared dispatch for the three estimator entry points.

    Lays every scale's rows on one cost line (a row's cost is its
    scale: a size-``s`` window touches ``s`` points), cuts it into
    equal-cost segments with :class:`JointPlan` — splitting each scale
    on its own would starve shards at the large scales — and dispatches
    each shard's explicit ``(scale, lo, hi)`` assignments.
    ``empty_state`` finalizes the all-degenerate case (no rows anywhere)
    without touching a pool.
    """
    plan = JointPlan.split(row_counts, row_costs, workers)
    if plan.n_shards == 0:
        return empty_state.finalize()
    with shared_values(x, workers=workers, n_tasks=plan.n_shards) as ref:
        tasks = [(ref, sizes, shard) for shard in plan.tasks()]
        partials = run_shards(joint_fn, tasks, workers=workers)
    return merge_states(partials).finalize()


def _rs_rows(x: np.ndarray, size: int, lo: int, hi: int) -> tuple[float, int]:
    """R/S sum and finite count over window rows ``[lo, hi)`` of one size."""
    windows = x[lo * size : hi * size].reshape(hi - lo, size)
    std = windows.std(axis=1)
    deviations = np.cumsum(windows - windows.mean(axis=1)[:, None], axis=1)
    spans = deviations.max(axis=1) - deviations.min(axis=1)
    keep = std != 0
    return float((spans[keep] / std[keep]).sum()), int(keep.sum())


def _rs_partial(x_ref, window_sizes: np.ndarray, assignments) -> RSState:
    """Shard worker: the ``(scale, lo, hi)`` window ranges this shard owns."""
    x = resolve_values(x_ref)
    finite_sum = np.zeros(len(window_sizes))
    finite_count = np.zeros(len(window_sizes), dtype=np.int64)
    for i, lo, hi in assignments:
        finite_sum[i], finite_count[i] = _rs_rows(x, int(window_sizes[i]), lo, hi)
    return RSState(finite_sum=finite_sum, finite_count=finite_count)


def parallel_rs_statistics(values, window_sizes, *, workers=None) -> np.ndarray:
    """Sharded twin of :func:`repro.hurst.rs.rs_statistics`.

    Windows are split across shards jointly over the (scale × window)
    grid; degenerate sizes (no complete window, or size < 2) finalize to
    NaN exactly as the sequential path reports them.
    """
    n_workers = resolve_workers(workers)
    x = as_float_array(values, name="values", min_length=16)
    sizes = np.asarray(window_sizes, dtype=np.int64)
    return _run_sharded_estimator(
        x, sizes, workers=n_workers, joint_fn=_rs_partial,
        row_counts=[x.size // int(s) if int(s) >= 2 else 0 for s in sizes],
        row_costs=[max(int(s), 1) for s in sizes],
        empty_state=RSState(
            finite_sum=np.zeros(sizes.size),
            finite_count=np.zeros(sizes.size, dtype=np.int64),
        ),
    )


def _aggvar_rows(x: np.ndarray, m: int, lo: int, hi: int) -> np.ndarray:
    """Block means of blocks ``[lo, hi)`` at aggregation level ``m``."""
    return x[lo * m : hi * m].reshape(hi - lo, m).mean(axis=1)


def _aggvar_partial(x_ref, block_sizes: np.ndarray, assignments) -> AggVarState:
    """Shard worker: the ``(scale, lo, hi)`` block ranges this shard owns."""
    x = resolve_values(x_ref)
    per_size_means = [np.empty(0)] * len(block_sizes)
    for i, lo, hi in assignments:
        per_size_means[i] = _aggvar_rows(x, int(block_sizes[i]), lo, hi)
    return AggVarState.from_block_means(per_size_means)


def parallel_aggregate_variances(values, block_sizes, *, workers=None) -> np.ndarray:
    """Sharded twin of :func:`repro.hurst.aggvar.aggregate_variances`."""
    n_workers = resolve_workers(workers)
    x = as_float_array(values, name="values", min_length=4)
    sizes = np.asarray(block_sizes, dtype=np.int64)
    # Mirror block_means' contract on the sequential path.
    for m in sizes:
        m = int(m)
        if m < 1:
            raise ParameterError(f"block must be >= 1, got {m}")
        if x.size // m == 0:
            raise ParameterError(
                f"series of length {x.size} has no complete block of size {m}"
            )
    return _run_sharded_estimator(
        x, sizes, workers=n_workers, joint_fn=_aggvar_partial,
        row_counts=[x.size // int(m) for m in sizes],
        row_costs=[int(m) for m in sizes],
        empty_state=AggVarState(  # only reachable with an empty scale grid
            count=np.zeros(sizes.size, dtype=np.int64),
            mean=np.zeros(sizes.size),
            m2=np.zeros(sizes.size),
        ),
    )


def _dfa_rows(profile: np.ndarray, size: int, lo: int, hi: int) -> tuple[float, int]:
    """Squared residual sum and point count of boxes ``[lo, hi)``."""
    boxes = profile[lo * size : hi * size].reshape(hi - lo, size)
    t = np.arange(size, dtype=np.float64)
    t_mean = t.mean()
    t_centered = t - t_mean
    denom = np.dot(t_centered, t_centered)
    slopes = boxes @ t_centered / denom
    intercepts = boxes.mean(axis=1) - slopes * t_mean
    trends = slopes[:, None] * t[None, :] + intercepts[:, None]
    residuals = boxes - trends
    return float((residuals**2).sum()), residuals.size


def _dfa_partial(profile_ref, box_sizes: np.ndarray, assignments) -> DFAState:
    """Shard worker: the ``(scale, lo, hi)`` box ranges this shard owns."""
    profile = resolve_values(profile_ref)
    sq_sum = np.zeros(len(box_sizes))
    n_points = np.zeros(len(box_sizes), dtype=np.int64)
    for i, lo, hi in assignments:
        sq_sum[i], n_points[i] = _dfa_rows(profile, int(box_sizes[i]), lo, hi)
    return DFAState(sq_sum=sq_sum, n_points=n_points)


def parallel_dfa_fluctuations(values, box_sizes, *, workers=None) -> np.ndarray:
    """Sharded twin of :func:`repro.hurst.dfa.dfa_fluctuations`.

    The integrated profile is a global cumulative sum and is computed once
    in the parent; shards detrend disjoint box ranges of it.
    """
    n_workers = resolve_workers(workers)
    x = as_float_array(values, name="values", min_length=32)
    profile = np.cumsum(x - x.mean())
    sizes = np.asarray(box_sizes, dtype=np.int64)
    return _run_sharded_estimator(
        profile, sizes, workers=n_workers, joint_fn=_dfa_partial,
        row_counts=[profile.size // int(s) if int(s) >= 4 else 0 for s in sizes],
        row_costs=[max(int(s), 1) for s in sizes],
        empty_state=DFAState(
            sq_sum=np.zeros(sizes.size),
            n_points=np.zeros(sizes.size, dtype=np.int64),
        ),
    )


# ---------------------------------------------------------------- queueing
def _tail_partial(
    q_ref, start: int, stop: int, thresholds: np.ndarray
) -> TailHistogramState:
    """Shard worker: exact exceedance counts for one occupancy range.

    The worker slices the shared buffer itself — passing ``[start, stop)``
    instead of a pre-sliced chunk keeps the parent from materialising (and
    pickling) one copy per shard.
    """
    return TailHistogramState.from_values(
        resolve_values(q_ref)[start:stop], thresholds
    )


def parallel_tail_probabilities(occupancy, thresholds, *, workers=None) -> np.ndarray:
    """Sharded twin of :func:`repro.queueing.simulation.tail_probabilities`.

    Exceedance counts are integers, so any partition of the occupancy
    series merges to exactly the whole-array answer.
    """
    n_workers = resolve_workers(workers)
    q = as_float_array(occupancy, name="occupancy")
    thresholds = np.asarray(thresholds, dtype=np.float64)
    plan = ShardPlan.split(q.size, n_workers)
    with shared_values(q, workers=n_workers, n_tasks=plan.n_shards) as ref:
        tasks = [
            (ref, shard.start, shard.stop, thresholds) for shard in plan.shards
        ]
        partials = run_shards(_tail_partial, tasks, workers=n_workers)
    return merge_states(partials).finalize()
