"""Opt-in, zero-overhead-when-off telemetry for the execution stack.

``repro.obs`` is the observability layer the other subsystems report
into: span tracing (campaign -> cell -> shard, plus ingest and store
spans), a small metrics registry (counters and max-gauges), and a
structured event log.  Everything funnels into a per-session
:class:`~repro.obs.record.Collector`; campaigns drain worker-side
collectors through the existing result path and write a canonical-JSONL
``telemetry.jsonl`` sidecar next to their store.  The sidecar is
explicitly *excluded* from the byte-identity contracts — wall-clock
timestamps live only there — so stores, manifests, and figures stay
byte-identical with telemetry on or off.

Activation follows the same precedence grammar as the other
``REPRO_*`` knobs:

* ``REPRO_TELEMETRY=on|1|true|yes`` enables the session collector;
  ``off|0|false|no`` (or unset) disables it.  Malformed values raise
  :class:`~repro.errors.ParameterError` naming the variable.
* The :func:`telemetry` context manager overrides the environment for a
  scope (innermost wins) and yields the scope's collector so tests can
  inspect captured spans in memory.
* ``--telemetry on|off`` on the CLI sets the same context for one
  invocation; CLI beats context beats env beats the off default.

Cost discipline: this module imports only the stdlib (plus
``repro.errors``) and the heavy recording machinery in
:mod:`repro.obs.record` is imported lazily on first enablement — the
telemetry-off path never imports it, and every facade below
short-circuits on a single ``None`` check.
"""

from __future__ import annotations

import contextlib
import os

from repro.errors import ParameterError

__all__ = [
    "current_collector",
    "event",
    "count",
    "gauge_max",
    "profile_dir",
    "profiling",
    "scoped_collector",
    "span",
    "telemetry",
    "telemetry_enabled",
    "telemetry_provenance",
]

#: Environment variable holding the session default.
_ENV_VAR = "REPRO_TELEMETRY"

#: Context-manager override stack: each entry is a live Collector (scope
#: forced on) or None (scope forced off).  Innermost wins.
_OVERRIDES: list = []

#: Lazily created session collector for the ``REPRO_TELEMETRY=on`` path.
#: None until the env is first consulted while on; stays None while off.
_SESSION = None

#: Directory worker cProfile dumps go to (None disables profiling).
_PROFILE_DIR: str | None = None


def _enabled_from_env() -> bool:
    """Read ``REPRO_TELEMETRY`` with the shared on/off grammar."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return False
    value = raw.strip().lower()
    if value in ("1", "true", "on", "yes"):
        return True
    if value in ("0", "false", "off", "no", ""):
        return False
    raise ParameterError(
        f"invalid {_ENV_VAR}={raw!r}: expected on/1/true/yes or "
        "off/0/false/no (unset the variable for the default)"
    )


def current_collector():
    """The collector telemetry should record into, or None when off.

    Overrides take precedence (innermost context wins); otherwise the
    environment decides, and the session-level collector is created on
    first use so ``repro.obs.record`` stays unimported while telemetry
    is off.
    """
    global _SESSION
    if _OVERRIDES:
        return _OVERRIDES[-1]
    if not _enabled_from_env():
        return None
    if _SESSION is None:
        from repro.obs.record import Collector

        _SESSION = Collector()
    return _SESSION


def telemetry_enabled() -> bool:
    """Whether telemetry is currently recording (context beats env)."""
    return current_collector() is not None


def telemetry_provenance() -> str:
    """Where the effective telemetry setting came from.

    ``"context"`` when a :func:`telemetry` scope (or CLI flag, which
    uses the same mechanism) is active, ``"env"`` when
    ``REPRO_TELEMETRY`` is set, else ``"default"``.
    """
    if _OVERRIDES:
        return "context"
    if os.environ.get(_ENV_VAR) is not None:
        return "env"
    return "default"


@contextlib.contextmanager
def telemetry(enabled: bool = True):
    """Force telemetry on (or off) for a scope, overriding the env.

    Yields the scope's fresh :class:`~repro.obs.record.Collector` when
    enabling (None when disabling), so tests can assert on captured
    spans/events in memory::

        with obs.telemetry() as col:
            run_campaign(...)
        assert any(s["name"] == "campaign" for s in col.spans)
    """
    if enabled:
        from repro.obs.record import Collector

        collector = Collector()
    else:
        collector = None
    _OVERRIDES.append(collector)
    try:
        yield collector
    finally:
        _OVERRIDES.pop()


@contextlib.contextmanager
def scoped_collector():
    """A child collector absorbed into the enclosing one on exit.

    ``run_campaign`` uses this so each campaign owns exactly the spans
    it produced (its ``telemetry.jsonl`` sidecar covers one run) while
    an enclosing :func:`telemetry` scope still sees everything.  No-op
    (yields None) when telemetry is off.
    """
    parent = current_collector()
    if parent is None:
        yield None
        return
    from repro.obs.record import Collector

    child = Collector()
    _OVERRIDES.append(child)
    try:
        yield child
    finally:
        _OVERRIDES.pop()
        parent.absorb(child)


class _NullSpan:
    """Reusable no-op context manager for the telemetry-off path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, /, **attrs):
    """Open a named span (context manager) under the current collector.

    Returns a shared no-op object when telemetry is off, so the hot
    path pays one ``None`` check and no allocation.
    """
    collector = current_collector()
    if collector is None:
        return _NULL_SPAN
    return collector.span(name, **attrs)


def event(name: str, /, **attrs) -> None:
    """Record a structured event (no-op when telemetry is off)."""
    collector = current_collector()
    if collector is not None:
        collector.event(name, **attrs)


def count(name: str, value: float = 1) -> None:
    """Add ``value`` to a counter (no-op when telemetry is off)."""
    collector = current_collector()
    if collector is not None:
        collector.count(name, value)


def gauge_max(name: str, value: float) -> None:
    """Raise a max-gauge to ``value`` (no-op when telemetry is off)."""
    collector = current_collector()
    if collector is not None:
        collector.gauge_max(name, value)


# ------------------------------------------------------------- profiling
@contextlib.contextmanager
def profiling(directory):
    """Scope a per-worker cProfile directory (``--profile`` hook).

    While active, campaign workers dump ``pid-*.prof`` stats into
    ``directory``; :func:`repro.obs.profile.render_profile` aggregates
    them afterwards.  Independent of the telemetry toggle so a profile
    run does not drag span recording in.
    """
    global _PROFILE_DIR
    previous = _PROFILE_DIR
    _PROFILE_DIR = os.fspath(directory) if directory is not None else None
    try:
        yield _PROFILE_DIR
    finally:
        _PROFILE_DIR = previous


def profile_dir() -> str | None:
    """The active profile directory, or None when profiling is off."""
    return _PROFILE_DIR
