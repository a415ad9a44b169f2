"""Golden digests: the program's outputs pinned in absolute terms.

``tests/golden.json`` records

* a SHA-256 of every figure panel at ``SCALE`` and ``SEED`` (the runs of
  the ``results`` fixture in ``tests/conftest.py``);
* the smoke campaign's ``results.jsonl`` SHA-256 and its manifest
  ``grid_hash``, run at one worker with the default seed (the rest of the
  manifest names the machine and library versions, so it is not hashed);
* each perfbench workload's ``# digest`` at ``PERFBENCH_SEEDS``; each of
  CI's three perfbench smoke steps runs its workload at both seeds and
  compares both digests with these;
* the SHA-256 of the CSV and ``.rpt`` files of ``trace-monitor``'s
  capture pipeline at ``PERFBENCH_SEEDS`` (generate, write CSV, read it
  back, write ``.rpt``), which pin both trace writers' bytes;
* the NumPy version they were recorded with (the package uses no other
  numerical library, so importing this module loads no SciPy).

``tests/test_golden.py`` fails on any drift and names the moved keys.
An intended output change is re-recorded from the root of a checkout::

    python tests/golden.py

which reruns everything above (about 1.5 min on 2 cores, most of it
perfbench), rewrites the file and prints the keys that moved.  Every
rebaseline needs an output-change line in CHANGES.md naming them.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PATH = Path(__file__).resolve().with_name("golden.json")

#: The figure runs the panel digests pin.
SCALE = 0.1
SEED = 77

PERFBENCH_WORKLOADS = ("figures", "campaign", "trace-monitor")
#: perfbench's default seed and its held-out seed.
PERFBENCH_SEEDS = (20050608, 7211)
#: Packets in ``trace-monitor``'s capture.
CAPTURE_PACKETS = 1 << 19


def _plain(obj):
    """JSON-safe canonical form: floats by ``repr``, arrays as lists."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    return obj


def panel_digest(panel) -> str:
    """SHA-256 of everything a panel prints: ids, axes, series, notes."""
    text = json.dumps(_plain([
        panel.experiment_id, panel.title, panel.x_name, list(panel.x_values),
        {k: list(v) for k, v in panel.series.items()}, list(panel.notes),
    ]), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_panels() -> dict:
    """Every panel of every figure at ``SCALE`` and ``SEED``, by id."""
    from repro.experiments import available_experiments, run_experiment

    return {
        panel.experiment_id: panel
        for name in available_experiments()
        for panel in run_experiment(name, scale=SCALE, seed=SEED)
    }


def panel_digests(panels: dict) -> dict:
    return {pid: panel_digest(panel) for pid, panel in sorted(panels.items())}


def smoke_campaign_digests(results_dir) -> dict:
    """Run the smoke campaign at one worker into ``results_dir``."""
    from repro.scenarios import run_campaign

    summary = run_campaign(campaign="smoke", results_dir=results_dir,
                           smoke=True, workers=1)
    manifest = json.loads(summary.store.manifest_path.read_text())
    return {
        "results_jsonl": hashlib.sha256(
            summary.store.results_path.read_bytes()).hexdigest(),
        "grid_hash": manifest["grid_hash"],
    }


def perfbench_digest(workload: str, seed: int) -> str:
    """The ``# digest`` line of the shortest perfbench run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    if not json.loads(lines[-1])["correct"]:
        raise RuntimeError(f"perfbench {workload} seed {seed} failed:\n"
                           + proc.stdout)
    prefix = "# digest sha256:"
    return next(line[len(prefix):] for line in lines
                if line.startswith(prefix))


def capture_digests(directory) -> dict:
    """SHA-256 of the capture files ``trace-monitor`` prepares, by seed.

    The same steps as ``TraceMonitor.prepare``: a 2^19-packet capture is
    written as CSV, read back (so timestamps carry 6 decimals) and
    written as ``.rpt``.
    """
    from repro.trace.io import read_trace, write_trace
    from repro.traffic.synthetic import synthetic_packet_trace

    digests = {"csv": {}, "rpt": {}}
    for seed in PERFBENCH_SEEDS:
        trace = synthetic_packet_trace(CAPTURE_PACKETS, rng=seed, alpha=1.2)
        for fmt in ("csv", "rpt"):
            path = Path(directory) / f"capture-{seed}.{fmt}"
            write_trace(trace, path)
            digests[fmt][str(seed)] = hashlib.sha256(
                path.read_bytes()).hexdigest()
            if fmt == "csv":
                trace = read_trace(path)
    return digests


def versions() -> dict:
    return {"numpy": np.__version__}


def load() -> dict:
    return json.loads(PATH.read_text())


def flatten(tree: dict, prefix: str = "") -> dict:
    """``{"a": {"b": x}}`` -> ``{"a.b": x}``."""
    flat = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            flat.update(flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def moved_keys(recorded: dict, current: dict) -> list[str]:
    """Keys whose value differs, or that only one side has."""
    old, new = flatten(recorded), flatten(current)
    return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))


def drift_message(section: str, recorded: dict, current: dict) -> str:
    """Why ``section`` of the golden file no longer matches, for a test."""
    moved = moved_keys({section: recorded[section]}, {section: current})
    if not moved:
        return ""
    return (
        f"golden digests moved: {', '.join(moved)}. Recorded with "
        f"{_versions_text(recorded['versions'])}; installed "
        f"{_versions_text(versions())}. If the change is intended, run "
        "`python tests/golden.py` and add an output-change line to "
        "CHANGES.md naming these keys."
    )


def _versions_text(recorded: dict) -> str:
    return ", ".join(f"{lib} {ver}" for lib, ver in sorted(recorded.items()))


def collect() -> dict:
    """Recompute every digest the golden file holds."""
    with tempfile.TemporaryDirectory() as directory:
        campaign = smoke_campaign_digests(directory)
    with tempfile.TemporaryDirectory() as directory:
        captures = capture_digests(directory)
    return {
        "versions": versions(),
        "panels": panel_digests(run_panels()),
        "campaign": {"smoke": campaign},
        "captures": captures,
        "perfbench": {
            workload: {str(seed): perfbench_digest(workload, seed)
                       for seed in PERFBENCH_SEEDS}
            for workload in PERFBENCH_WORKLOADS
        },
    }


def main() -> int:
    current = collect()
    recorded = load() if PATH.exists() else {}
    PATH.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    moved = moved_keys(recorded, current)
    print(f"wrote {PATH.relative_to(ROOT)}: {len(moved)} moved key(s)")
    for key in moved:
        print(f"  {key}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
