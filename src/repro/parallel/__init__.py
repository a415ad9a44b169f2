"""Parallel dispatch and streaming folds.

The paper's evaluation is 21 figures plus a grid of scenario cells, and
each is a pure function of its seed label.  Whole cells and whole
figures are therefore the one grain of parallel work:

1. :mod:`~repro.parallel.executor` runs one picklable task per cell or
   figure — in-process at ``workers=1``, otherwise in one supervised
   per-call pool — and hands the results back in task order as each
   prefix completes.  It also holds the session defaults: ``--workers``
   / ``REPRO_WORKERS`` and the :class:`RetryPolicy`.
2. :mod:`~repro.parallel.state` holds the mergeable partial states the
   streaming folds reduce into.
3. :mod:`~repro.parallel.streaming` folds those states over
   bounded-memory chunk streams (including chunked trace files), one
   chunk at a time in the calling thread.

``workers=1`` and ``workers=N`` are bit-for-bit identical: every task
draws its randomness from its own seed label, and results come back in
task order whatever order they finish in.
"""

from repro.parallel.executor import (
    RetryPolicy,
    default_workers,
    get_default_workers,
    get_retry_policy,
    pool_start_method,
    resolve_retry_policy,
    resolve_workers,
    retry_policy,
    run_shards,
    set_default_workers,
    set_retry_policy,
    suggested_workers,
    workers_provenance,
)
from repro.parallel.state import (
    MergeableState,
    MomentState,
    TailHistogramState,
)
from repro.parallel.streaming import (
    chunked,
    streamed_moments,
    streamed_queue_tail_probabilities,
    streamed_tail_probabilities,
    streamed_trace_size_moments,
)

__all__ = [
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
    "suggested_workers",
    "pool_start_method",
    # states
    "MergeableState",
    "MomentState",
    "TailHistogramState",
    # streaming
    "chunked",
    "streamed_moments",
    "streamed_tail_probabilities",
    "streamed_queue_tail_probabilities",
    "streamed_trace_size_moments",
]
