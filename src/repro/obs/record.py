"""The telemetry collector: spans, events, counters, gauges, JSONL.

A :class:`Collector` is a fork-safe in-memory buffer.  The parent
process keeps one per campaign (see :func:`repro.obs.scoped_collector`);
pool workers build a fresh one after the fork, record into it, and ship
its :meth:`Collector.export` payload back through the ordinary result
tuple — :meth:`Collector.absorb` then splices the worker's span tree
under the parent's current span with remapped ids.  Killed attempts lose
their buffer by design: the replacement attempt's spans are the record.

Durations are monotonic-clock deltas; wall-clock timestamps appear only
on events and in the ``telemetry.jsonl`` meta line, which keeps every
byte-identity contract (stores, manifests, figures) independent of this
module.  The sidecar uses canonical JSON (sorted keys, compact
separators) so diffs of two telemetry files are line-meaningful, but the
file itself is explicitly outside the determinism contracts.
"""

from __future__ import annotations

import json
import os
import threading
import time

__all__ = ["Collector", "write_run"]


class _Span:
    """Context manager recording one finished span into its collector."""

    __slots__ = ("_collector", "_frame", "_start")

    def __init__(self, collector: "Collector", frame: dict):
        self._collector = collector
        self._frame = frame
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.monotonic()
        self._collector._push(self._frame)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.monotonic() - self._start
        self._collector._pop(self._frame, duration, failed=exc_type is not None)
        return False


class Collector:
    """Thread-safe telemetry buffer: span tree, events, counters, gauges.

    Span parenting is tracked per thread (a ``threading.local`` stack),
    so spans opened on concurrent threads nest correctly; the
    finished-record lists are guarded by one lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._origin = time.monotonic()
        self._next_id = 0
        #: Finished spans: ``{"id", "parent", "name", "start_s",
        #: "duration_s"[, "attrs", "pid", "failed"]}`` (monotonic secs
        #: relative to the collector's origin).
        self.spans: list[dict] = []
        #: Structured events: ``{"name", "time_unix", "span"[, "attrs"]}``.
        self.events: list[dict] = []
        #: Additive counters, name -> value.
        self.counters: dict = {}
        #: Max-gauges, name -> high-water value.
        self.gauges: dict = {}

    # --------------------------------------------------------------- spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self) -> int | None:
        """Id of the innermost open span on this thread (None at root)."""
        stack = self._stack()
        return stack[-1]["id"] if stack else None

    def span(self, name: str, /, **attrs) -> _Span:
        """Open a span; finishes (and records) when the context exits."""
        frame = {"name": name, "attrs": attrs or None}
        return _Span(self, frame)

    def _push(self, frame: dict) -> None:
        with self._lock:
            self._next_id += 1
            frame["id"] = self._next_id
        frame["parent"] = self.current_span_id()
        frame["start_s"] = round(time.monotonic() - self._origin, 6)
        self._stack().append(frame)

    def _pop(self, frame: dict, duration: float, *, failed: bool) -> None:
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        record = {
            "id": frame["id"],
            "parent": frame["parent"],
            "name": frame["name"],
            "start_s": frame["start_s"],
            "duration_s": round(duration, 6),
        }
        if frame["attrs"]:
            record["attrs"] = frame["attrs"]
        if failed:
            record["failed"] = True
        with self._lock:
            self.spans.append(record)

    # ------------------------------------------------------ events / metrics
    def event(self, name: str, /, **attrs) -> None:
        record = {
            "name": name,
            "time_unix": round(time.time(), 6),
            "span": self.current_span_id(),
        }
        if attrs:
            record["attrs"] = attrs
        with self._lock:
            self.events.append(record)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge_max(self, name: str, value: float) -> None:
        with self._lock:
            current = self.gauges.get(name)
            if current is None or value > current:
                self.gauges[name] = value

    # ------------------------------------------------------------ transport
    def export(self) -> dict:
        """Picklable snapshot a worker ships back in its result tuple."""
        with self._lock:
            return {
                "pid": os.getpid(),
                "spans": list(self.spans),
                "events": list(self.events),
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
            }

    def absorb(self, payload) -> None:
        """Splice another collector's records under the current span.

        ``payload`` is a :class:`Collector` or an :meth:`export` dict
        (possibly from another process).  Span ids are remapped into
        this collector's id space, the foreign roots are re-parented to
        the caller's innermost open span, spans crossing a process
        boundary are tagged with the worker ``pid``, counters add, and
        gauges max-merge.
        """
        if isinstance(payload, Collector):
            payload = payload.export()
        if payload is None:
            return
        spans = payload.get("spans", ())
        events = payload.get("events", ())
        pid = payload.get("pid")
        foreign = pid is not None and pid != os.getpid()
        graft_parent = self.current_span_id()
        mapping: dict = {}
        with self._lock:
            for record in spans:
                self._next_id += 1
                mapping[record["id"]] = self._next_id
            for record in spans:
                merged = dict(record)
                merged["id"] = mapping[record["id"]]
                merged["parent"] = mapping.get(record["parent"], graft_parent)
                if foreign:
                    merged["pid"] = pid
                self.spans.append(merged)
            for record in events:
                merged = dict(record)
                merged["span"] = mapping.get(record.get("span"), graft_parent)
                self.events.append(merged)
            for name, value in payload.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, value in payload.get("gauges", {}).items():
                current = self.gauges.get(name)
                if current is None or value > current:
                    self.gauges[name] = value


def _canonical(record: dict) -> str:
    return json.dumps(
        record, sort_keys=True, separators=(",", ":"), default=str
    )


def write_run(path, collector: Collector, meta: dict) -> None:
    """Append one run to a ``telemetry.jsonl`` sidecar.

    Layout per run: a ``kind:"meta"`` header (the only place wall-clock
    context lives), the finished spans sorted by id, the events, then a
    single ``kind:"metrics"`` line with counters and gauges.  Appending
    (not truncating) keeps a resumed campaign's history in one file;
    readers split runs on meta lines and use the last.
    """
    snapshot = collector.export()
    lines = [_canonical({"kind": "meta", "time_unix": round(time.time(), 6),
                         **meta})]
    for record in sorted(snapshot["spans"], key=lambda s: s["id"]):
        lines.append(_canonical({"kind": "span", **record}))
    for record in snapshot["events"]:
        lines.append(_canonical({"kind": "event", **record}))
    lines.append(_canonical({
        "kind": "metrics",
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
    }))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
