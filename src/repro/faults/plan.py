"""The deterministic fault-injection grammar: directives and FaultPlan.

A fault plan is a list of directives, each naming one precise failure to
inject.  The grammar (used by ``REPRO_FAULTS`` and ``--faults``) is a
comma- or semicolon-separated list of ``kind:key=value`` directives::

    kill:shard=3                 kill the pool worker while it executes
                                 global shard 3 (first attempt only)
    kill:shard=3:attempt=*       ... on every attempt (exhausts the retry
                                 budget -> the owning cell quarantines)
    delay:shard=5:seconds=30     sleep 30 s inside shard 5 before its
                                 work starts (first attempt only) — used
                                 to blow a shard deadline
    torn:append=2                tear the store's 2nd record append:
                                 write a partial line and abort the run,
                                 emulating a kill mid-write
    corrupt:append=2             flip a digit inside the 2nd appended
                                 record after writing it — still valid
                                 JSON, but the checksum no longer matches

Shard indices are global across a plan's scope: activating a plan (the
:func:`repro.faults.fault_plan` context, or the lazy ``REPRO_FAULTS``
session plan) resets the session shard counter to zero, and every task
any ``run_shards`` call dispatches — parallel or serial — claims the
next index.  A campaign dispatches its pending cells in one call, in
canonical order, so shard ``k`` is its ``k``-th pending cell and a
directive names the same unit of work on every run.

Everything here is a pure value: a :class:`FaultPlan` is picklable (it
rides to pool workers inside the task arguments) and directive matching
is a stateless function of ``(shard, attempt)`` — retried shards see a
bumped attempt number, which is how a default directive fires exactly
once and how ``attempt=*`` keeps firing until the budget runs out.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.errors import ParameterError

#: Directive kinds that target an executor shard.
_SHARD_KINDS = ("kill", "delay")
#: Directive kinds that target a result-store append.
_STORE_KINDS = ("torn", "corrupt")

#: Exit status an injected kill dies with — distinctive in ``ps`` output
#: and in the pool's exitcode bookkeeping, so a chaos run's corpses are
#: attributable.
KILL_EXIT_CODE = 37


@dataclass(frozen=True)
class FaultDirective:
    """One injected failure (see the module docstring for the grammar)."""

    kind: str
    shard: int | None = None
    attempt: int | None = 1  # None = every attempt ("*")
    seconds: float = 0.0
    append: int | None = None

    def matches_shard(self, shard: int, attempt: int) -> bool:
        if self.kind not in _SHARD_KINDS or self.shard != shard:
            return False
        return self.attempt is None or self.attempt == attempt

    def matches_append(self, append: int) -> bool:
        return self.kind in _STORE_KINDS and self.append == append

    def render(self) -> str:
        if self.kind in _STORE_KINDS:
            return f"{self.kind}:append={self.append}"
        parts = [f"{self.kind}:shard={self.shard}"]
        if self.kind == "delay":
            parts.append(f"seconds={self.seconds:g}")
        if self.attempt is None:
            parts.append("attempt=*")
        elif self.attempt != 1:
            parts.append(f"attempt={self.attempt}")
        return ":".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable set of fault directives."""

    directives: tuple

    def shard_fault(self, shard: int, attempt: int) -> FaultDirective | None:
        """The directive targeting ``(shard, attempt)``, if any."""
        for directive in self.directives:
            if directive.matches_shard(shard, attempt):
                return directive
        return None

    def store_fault(self, append: int) -> FaultDirective | None:
        """The directive targeting the ``append``-th store record, if any."""
        for directive in self.directives:
            if directive.matches_append(append):
                return directive
        return None

    def has_shard_faults(self) -> bool:
        return any(d.kind in _SHARD_KINDS for d in self.directives)

    def render(self) -> str:
        return ",".join(d.render() for d in self.directives)


def _parse_fields(kind: str, fields, directive: str) -> dict:
    """``key=value`` tokens of one directive, validated per kind."""
    out: dict = {}
    for field in fields:
        key, sep, raw = field.partition("=")
        if not sep or not key or not raw:
            raise ParameterError(
                f"malformed fault field {field!r} in {directive!r}: "
                "expected key=value"
            )
        if key in out:
            raise ParameterError(
                f"duplicate fault field {key!r} in {directive!r}"
            )
        if key == "shard" and kind in _SHARD_KINDS:
            out["shard"] = _parse_int(key, raw, directive)
        elif key == "attempt" and kind in _SHARD_KINDS:
            out["attempt"] = (
                None if raw == "*" else _parse_int(key, raw, directive, low=1)
            )
        elif key == "seconds" and kind == "delay":
            try:
                seconds = float(raw)
            except ValueError:
                raise ParameterError(
                    f"fault field seconds={raw!r} in {directive!r} is not "
                    "a number"
                ) from None
            if not seconds > 0:
                raise ParameterError(
                    f"fault field seconds={raw!r} in {directive!r} must be "
                    "positive"
                )
            out["seconds"] = seconds
        elif key == "append" and kind in _STORE_KINDS:
            out["append"] = _parse_int(key, raw, directive, low=1)
        else:
            raise ParameterError(
                f"fault kind {kind!r} does not take field {key!r} "
                f"(in {directive!r})"
            )
    return out


def _parse_int(key: str, raw: str, directive: str, *, low: int = 0) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ParameterError(
            f"fault field {key}={raw!r} in {directive!r} is not an integer"
        ) from None
    if value < low:
        raise ParameterError(
            f"fault field {key}={raw!r} in {directive!r} must be >= {low}"
        )
    return value


def parse_faults(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` / ``--faults`` string into a FaultPlan.

    Malformed specs raise :class:`ParameterError` naming the offending
    directive — a user who asked for chaos must not silently get a
    fault-free run.
    """
    directives = []
    for raw in spec.replace(";", ",").split(","):
        directive = raw.strip()
        if not directive:
            continue
        kind, *fields = directive.split(":")
        kind = kind.strip().lower()
        if kind not in _SHARD_KINDS + _STORE_KINDS:
            raise ParameterError(
                f"unknown fault kind {kind!r} in {directive!r}; expected "
                f"one of {_SHARD_KINDS + _STORE_KINDS}"
            )
        parsed = _parse_fields(kind, fields, directive)
        if kind in _SHARD_KINDS and "shard" not in parsed:
            raise ParameterError(
                f"fault directive {directive!r} needs shard=N"
            )
        if kind == "delay" and "seconds" not in parsed:
            raise ParameterError(
                f"fault directive {directive!r} needs seconds=S"
            )
        if kind in _STORE_KINDS and "append" not in parsed:
            raise ParameterError(
                f"fault directive {directive!r} needs append=N"
            )
        directives.append(FaultDirective(kind=kind, **parsed))
    if not directives:
        raise ParameterError(
            f"fault spec {spec!r} contains no directives; unset "
            "REPRO_FAULTS (or omit --faults) for a fault-free run"
        )
    return FaultPlan(directives=tuple(directives))


def call_with_faults(plan: FaultPlan, shard: int, attempt: int,
                     in_worker: bool, fn, args):
    """Worker-side shim: apply any matching directive, then run the shard.

    Module-level so it pickles into the pool's task arguments; the plan
    travels in the arguments, never via inherited globals, so workers
    forked before the plan existed still see it.  ``kill``
    directives only fire inside a real pool worker (``in_worker``) — on
    the serial path there is no worker to kill and exiting would take
    the session down, which is precisely not the failure being modelled.
    """
    directive = plan.shard_fault(shard, attempt)
    if directive is not None:
        if directive.kind == "delay":
            time.sleep(directive.seconds)
        elif directive.kind == "kill" and in_worker:
            os._exit(KILL_EXIT_CODE)
    return fn(*args)
