"""One-shot session warnings, shared across the whole library.

Subsystems that degrade gracefully do so loudly, exactly once per
session — the executor, for one, falls back to serial tasks when pools
are unavailable.  :func:`warn_once` centralises
the latch so the semantics ("warn the first time, stay quiet after,
never change results") are uniform, and so telemetry records every
degradation as a ``warning`` event even on the silent repeats' first
occurrence.

Tests reset the latch by monkeypatching a fresh ``_SEEN`` set (the
patch restores the session state afterwards)::

    monkeypatch.setattr(once, "_SEEN", set())           # re-arm all
    monkeypatch.setattr(once, "_SEEN", {"parallel.pool-unavailable"})
"""

from __future__ import annotations

import warnings

__all__ = ["mark_warned", "warn_once", "warned"]

#: Keys that have already warned this session.
_SEEN: set = set()


def warn_once(key: str, message: str, *, category=RuntimeWarning,
              stacklevel: int = 3) -> bool:
    """Emit ``message`` the first time ``key`` is seen this session.

    Returns True when the warning actually fired.  The firing is also
    recorded as a telemetry ``warning`` event (when telemetry is on),
    so a degraded run's sidecar explains itself.
    """
    if key in _SEEN:
        return False
    _SEEN.add(key)
    warnings.warn(message, category, stacklevel=stacklevel)
    import repro.obs as obs

    obs.event("warning", key=key, message=message)
    return True


def warned(key: str) -> bool:
    """Whether ``key`` has already warned this session."""
    return key in _SEEN


def mark_warned(key: str) -> None:
    """Pre-latch ``key`` (tests use this to silence a known warning)."""
    _SEEN.add(key)
