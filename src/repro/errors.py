"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch one base class at the boundary of
their own code.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ParameterError(ReproError, ValueError):
    """An argument is outside its documented domain.

    Raised eagerly at construction/call time so that mis-parameterised
    samplers or generators fail before any expensive work starts.
    """


class EstimationError(ReproError, RuntimeError):
    """A statistical estimation procedure could not produce a result.

    Examples: too few points for a log-log regression, a Whittle
    optimisation that failed to bracket a minimum, or a Hill estimator
    asked for more order statistics than the sample contains.
    """


class TraceFormatError(ReproError, ValueError):
    """A trace file or record stream violates the documented format."""


class GenerationError(ReproError, RuntimeError):
    """A traffic generator could not produce a valid sample path.

    The canonical case is circulant-embedding fGn synthesis encountering a
    non-positive-definite circulant for extreme parameters.
    """


class DesignError(ReproError, ValueError):
    """A BSS parameter-design request has no feasible solution.

    For example, asking for the unbiased threshold ``eps2`` when the target
    bias ``xi`` exceeds the maximum of the bias surface for the given ``L``.
    """


class ExecutionError(ReproError, RuntimeError):
    """Parallel execution failed in a way retries could not absorb.

    Base class for the fault-tolerant executor's failure modes.  Shard
    results are pure functions of their task arguments, so the campaign
    layer may catch this, record the cell as quarantined, and move on —
    re-attempting later is always safe and bit-identical.
    """


class WorkerLostError(ExecutionError):
    """A pool worker died (killed, OOM, crashed) while shards were in flight."""


class ShardDeadlineError(ExecutionError):
    """A shard failed to finish within its configured deadline."""


class RetryBudgetError(ExecutionError):
    """A shard kept failing after every attempt its retry budget allowed."""


class StoreIntegrityError(ParameterError):
    """A campaign result store holds a corrupt record outside the torn tail.

    A kill can truncate only the final line of the append-only store —
    that tail is repaired on resume.  A record that fails its checksum or
    does not parse anywhere *before* the tail means disk-level trouble or
    tampering, and resuming over it would silently drop completed work.
    Subclasses :class:`ParameterError` so existing boundary handlers keep
    catching it; the dedicated name makes the cause greppable.
    """
