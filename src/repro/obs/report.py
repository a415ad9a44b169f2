"""Render ``telemetry.jsonl`` sidecars: summary, span tree, timeline.

Backs ``python -m repro.experiments telemetry {summary,spans,timeline}``.
A sidecar may hold several runs (a resumed campaign appends); readers
split on ``kind:"meta"`` lines and render the last run unless asked
otherwise.
"""

from __future__ import annotations

import json

from repro.errors import ParameterError
from repro.utils.tables import format_table

__all__ = ["load_runs", "render_summary", "render_spans", "render_timeline"]


def load_runs(path) -> list[dict]:
    """Parse a telemetry sidecar into per-run dicts.

    Each run is ``{"meta", "spans", "events", "counters", "gauges"}``.
    Raises :class:`ParameterError` on a missing or empty file so the CLI
    can explain how to produce one.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
    except OSError as exc:
        raise ParameterError(
            f"no telemetry sidecar at {path} ({exc}); run the campaign "
            "with --telemetry on (or REPRO_TELEMETRY=on) first"
        ) from None
    runs: list[dict] = []
    for line in lines:
        record = json.loads(line)
        kind = record.pop("kind", None)
        if kind == "meta":
            runs.append({"meta": record, "spans": [], "events": [],
                         "counters": {}, "gauges": {}})
            continue
        if not runs:  # tolerate a truncated head: synthesize a run
            runs.append({"meta": {}, "spans": [], "events": [],
                         "counters": {}, "gauges": {}})
        if kind == "span":
            runs[-1]["spans"].append(record)
        elif kind == "event":
            runs[-1]["events"].append(record)
        elif kind == "metrics":
            runs[-1]["counters"] = record.get("counters", {})
            runs[-1]["gauges"] = record.get("gauges", {})
    if not runs:
        raise ParameterError(f"telemetry sidecar {path} is empty")
    return runs


def _meta_line(run: dict) -> str:
    meta = run["meta"]
    parts = [f"campaign={meta.get('campaign', '?')}"]
    for key in ("workers", "seed", "smoke"):
        if key in meta:
            parts.append(f"{key}={meta[key]}")
    return "  ".join(parts)


def _roots(run: dict) -> list[dict]:
    ids = {span["id"] for span in run["spans"]}
    return [s for s in run["spans"] if s.get("parent") not in ids]


def _wall_seconds(run: dict) -> float:
    roots = _roots(run)
    if not roots:
        return 0.0
    start = min(s["start_s"] for s in roots)
    end = max(s["start_s"] + s["duration_s"] for s in roots)
    return end - start


# ---------------------------------------------------------------- summary
def render_summary(run: dict) -> str:
    """Per-phase timing table plus counters and gauges."""
    wall = _wall_seconds(run)
    by_name: dict = {}
    for span in run["spans"]:
        entry = by_name.setdefault(span["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span["duration_s"]
        entry[2] = max(entry[2], span["duration_s"])
    rows = []
    for name in sorted(by_name, key=lambda n: -by_name[n][1]):
        n, total, peak = by_name[name]
        share = (100.0 * total / wall) if wall > 0 else 0.0
        rows.append([name, n, round(total, 3), round(1000.0 * total / n, 2),
                     round(1000.0 * peak, 2), f"{share:.0f}%"])
    blocks = [_meta_line(run), f"wall: {wall:.3f} s"]
    if rows:
        blocks.append(format_table(
            ["span", "count", "total_s", "mean_ms", "max_ms", "share"],
            rows, title="per-phase timing",
        ))
    if run["counters"]:
        blocks.append(format_table(
            ["counter", "value"],
            [[k, run["counters"][k]] for k in sorted(run["counters"])],
            title="counters",
        ))
    if run["gauges"]:
        blocks.append(format_table(
            ["gauge", "max"],
            [[k, run["gauges"][k]] for k in sorted(run["gauges"])],
            title="gauges",
        ))
    warned = [e for e in run["events"] if e["name"] == "warning"]
    blocks.append(f"events: {len(run['events'])} ({len(warned)} warnings)")
    return "\n\n".join(blocks)


# ------------------------------------------------------------------ spans
def _attr_text(span: dict) -> str:
    attrs = span.get("attrs") or {}
    rendered = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    if span.get("pid") is not None:
        rendered = f"pid={span['pid']} {rendered}".strip()
    if span.get("failed"):
        rendered = f"{rendered} FAILED".strip()
    return f"  [{rendered}]" if rendered else ""


def render_spans(run: dict) -> str:
    """The span tree, indented, in start order."""
    children: dict = {}
    ids = {span["id"] for span in run["spans"]}
    for span in run["spans"]:
        parent = span.get("parent") if span.get("parent") in ids else None
        children.setdefault(parent, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda s: (s["start_s"], s["id"]))
    lines = [_meta_line(run)]

    def walk(parent, depth: int) -> None:
        for span in children.get(parent, ()):
            lines.append(
                f"{'  ' * depth}{span['name']}  "
                f"{span['duration_s'] * 1000.0:.2f} ms{_attr_text(span)}"
            )
            walk(span["id"], depth + 1)

    walk(None, 0)
    if len(lines) == 1:
        lines.append("(no spans recorded)")
    return "\n".join(lines)


# --------------------------------------------------------------- timeline
def render_timeline(run: dict) -> str:
    """Critical path and utilization analysis for the last run."""
    wall = _wall_seconds(run)
    meta = run["meta"]
    workers = int(meta.get("workers", 1) or 1)
    cells = [s for s in run["spans"] if s["name"] == "cell"]
    busy = sum(s["duration_s"] for s in cells)
    blocks = [_meta_line(run)]

    rounds = [e for e in run["events"] if e["name"] == "schedule.round"]
    if rounds:
        rows = []
        for event in rounds:
            attrs = event.get("attrs", {})
            rows.append([attrs.get("index"), attrs.get("n_cells"),
                         attrs.get("wall_s"), attrs.get("busy_s"),
                         attrs.get("idle_fraction"), attrs.get("imbalance")])
        blocks.append(format_table(
            ["round", "cells", "wall_s", "busy_s", "idle_frac", "imbalance"],
            rows, title="cell dispatch",
        ))

    util = [f"wall: {wall:.3f} s   workers: {workers}"]
    if cells:
        util.append(
            f"cell busy: {busy:.3f} s   "
            f"utilization: {min(busy / (wall * workers), 1.0):.0%}"
            if wall > 0 else f"cell busy: {busy:.3f} s"
        )
        top = sorted(cells, key=lambda s: -s["duration_s"])[:5]
        rows = [[(s.get("attrs") or {}).get("key", "?"),
                 round(s["duration_s"] * 1000.0, 2)] for s in top]
        blocks.append(format_table(["cell", "ms"], rows,
                                   title="longest cells"))
    blocks.append("\n".join(util))

    chain = _critical_path(run)
    if chain:
        blocks.append("critical path:\n" + "\n".join(
            f"  {'> ' * i}{s['name']}  {s['duration_s'] * 1000.0:.2f} ms"
            f"{_attr_text(s)}"
            for i, s in enumerate(chain)
        ))
    return "\n\n".join(blocks)


def _critical_path(run: dict) -> list[dict]:
    """Heaviest root-to-leaf chain through the span tree."""
    children: dict = {}
    ids = {span["id"] for span in run["spans"]}
    for span in run["spans"]:
        parent = span.get("parent") if span.get("parent") in ids else None
        children.setdefault(parent, []).append(span)
    chain: list[dict] = []
    bucket = children.get(None, ())
    while bucket:
        heaviest = max(bucket, key=lambda s: s["duration_s"])
        chain.append(heaviest)
        bucket = children.get(heaviest["id"], ())
    return chain
