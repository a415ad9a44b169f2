"""Sharded ensemble engine: deterministic multi-core Monte-Carlo.

The paper's evaluation is ensemble-shaped everywhere — E(V) variance
studies average over sampling instances, estimators reduce over
windows/blocks/boxes, queueing curves over thresholds.  This package
turns every such workload into a sharded computation:

1. :mod:`~repro.parallel.plan` splits the items into balanced contiguous
   shards;
2. :mod:`~repro.parallel.executor` runs one picklable worker per shard
   (``multiprocessing`` with a loud serial fallback, plus the session-wide
   default from ``--workers`` / the ``REPRO_WORKERS`` env var), reusing
   the session's persistent pool when a
   :mod:`~repro.parallel.runtime` scope is active instead of forking one
   per call;
3. :mod:`~repro.parallel.memory` hands shards a zero-copy
   :class:`~repro.trace.store.TraceHandle` instead of pickling the trace
   into every task;
4. :mod:`~repro.parallel.state` merges per-shard partial states;
5. :mod:`~repro.parallel.ensembles` exposes the parallel twins of the
   sequential routines, pinned to them by the determinism test-suite
   (exact, or 1e-12 where the reduction order changes);
6. :mod:`~repro.parallel.streaming` folds the same states over
   bounded-memory chunk streams (including chunked trace files), with a
   reader thread prefetching the next chunk while the current one
   reduces.

``workers=1`` and ``workers=N`` are bit-for-bit identical for every
randomised ensemble: per-instance RNG streams are spawned once from the
caller's seed spec and sliced contiguously across shards.
"""

from repro.parallel.ensembles import (
    parallel_aggregate_variances,
    parallel_average_variance,
    parallel_dfa_fluctuations,
    parallel_instance_means,
    parallel_rs_statistics,
    parallel_tail_probabilities,
)
from repro.parallel.executor import (
    SCHEDULE_MODES,
    RetryPolicy,
    default_schedule,
    default_workers,
    get_default_schedule,
    get_default_workers,
    get_retry_policy,
    pool_start_method,
    resolve_retry_policy,
    resolve_schedule,
    resolve_workers,
    schedule_provenance,
    retry_policy,
    run_shards,
    set_default_schedule,
    set_default_workers,
    workers_provenance,
    set_retry_policy,
    suggested_workers,
)
from repro.parallel.memory import shared_values
from repro.parallel.plan import JointPlan, ScaleSlice, Shard, ShardPlan
from repro.parallel.runtime import (
    PoolRuntime,
    PoolUnavailableError,
    active_runtime,
    pool_runtime,
    start_runtime,
    stop_runtime,
)
from repro.parallel.state import (
    AggVarState,
    DFAState,
    EnsembleMeansState,
    MergeableState,
    MomentState,
    RSState,
    TailHistogramState,
    merge_states,
)
from repro.parallel.streaming import (
    chunked,
    parallel_chunk_tail_probabilities,
    prefetch_chunks,
    streamed_moments,
    streamed_queue_tail_probabilities,
    streamed_tail_probabilities,
    streamed_trace_size_moments,
)

__all__ = [
    # plan
    "Shard",
    "ShardPlan",
    "ScaleSlice",
    "JointPlan",
    # runtime
    "PoolRuntime",
    "PoolUnavailableError",
    "pool_runtime",
    "start_runtime",
    "stop_runtime",
    "active_runtime",
    # executor
    "run_shards",
    "RetryPolicy",
    "retry_policy",
    "get_retry_policy",
    "set_retry_policy",
    "resolve_retry_policy",
    "set_default_workers",
    "get_default_workers",
    "default_workers",
    "resolve_workers",
    "workers_provenance",
    "SCHEDULE_MODES",
    "set_default_schedule",
    "get_default_schedule",
    "default_schedule",
    "resolve_schedule",
    "schedule_provenance",
    "suggested_workers",
    "pool_start_method",
    "shared_values",
    # states
    "MergeableState",
    "merge_states",
    "EnsembleMeansState",
    "MomentState",
    "RSState",
    "AggVarState",
    "DFAState",
    "TailHistogramState",
    # ensembles
    "parallel_instance_means",
    "parallel_average_variance",
    "parallel_rs_statistics",
    "parallel_aggregate_variances",
    "parallel_dfa_fluctuations",
    "parallel_tail_probabilities",
    # streaming
    "chunked",
    "prefetch_chunks",
    "streamed_moments",
    "streamed_tail_probabilities",
    "streamed_queue_tail_probabilities",
    "streamed_trace_size_moments",
    "parallel_chunk_tail_probabilities",
]
