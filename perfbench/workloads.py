"""The benchmark's three workloads: set-up, one timed pass, output checks.

Each workload takes the run's seed and generates its own inputs from it.
A *pass* is what is repeated: all 21 figures, all 45 campaign cells, or
one monitor pass over each of the two capture files.  Every pass of a run
does the same work on the same inputs, and times each of its operations
through ``op(name)``: a figure, the campaign, or a stage of the monitor
(the moments, each chunk, the queue tails).  Checks run after the timed
phase and count each failed operation: a figure, a cell, a resume pass,
or one monitor pass over one capture file.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import math
import os
import shutil
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from perfbench.tracing import FIGURES


def nproc() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def _no_span(name: str):
    return nullcontext()


def _plain(obj):
    """JSON-safe canonical form of panel and record values."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    return obj


def sha256_of(obj) -> str:
    text = json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Check:
    """Operations attempted and failed, with one message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def op(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)


class Workload:
    """What a run does with a workload.

    ``prepare(workdir, op=)`` is one set-up, timing each of its steps
    through ``op(name)``; ``run_pass(span, op=, workers=,
    resume=)`` is one timed pass; ``check(out, check)`` counts its
    operations; ``digest(out)`` fingerprints its outputs.  A traced run
    makes one traced pass per ``(workers, resume)`` entry of
    ``traced_runs`` (``None`` keeps the workload's own worker count).
    """

    traced_runs = ((None, False),)
    #: Timed passes per run at least, however short ``--seconds`` is.
    min_passes = 2
    #: Whether to report passes at the reference speed of ``calibrate.py``
    #: rather than each operation's fastest time; for operations much
    #: shorter than a second only.
    calibrated = False

    def finish(self, outputs: list) -> None:
        """Untimed work after the timed passes (none by default)."""


# ------------------------------------------------------------------ figures
class Figures(Workload):
    """All paper figures at full scale, ``workers=1``, default knobs."""

    name = "figures"

    def __init__(self, seed: int, *, names=FIGURES, scale: float = 1.0):
        self.seed = seed
        self.names = tuple(names)
        self.scale = scale
        self.modules = ("repro", "repro.experiments",
                        *(f"repro.experiments.{n}" for n in self.names))

    def prepare(self, workdir: Path, op=_no_span) -> None:
        # Figure modules load lazily on first use; load them here so the
        # timed phase measures the figures, not their imports.
        with op("imports"):
            for module in self.modules:
                importlib.import_module(module)

    def run_pass(self, span=_no_span, *, op=_no_span, workers=None,
                 resume=False) -> dict:
        from repro.experiments import run_experiment

        out = {}
        for name in self.names:
            with op(name), span(f"experiments.{name}"):
                try:
                    out[name] = run_experiment(
                        name, scale=self.scale, seed=self.seed, workers=1,
                    )
                except Exception as exc:  # noqa: BLE001 — a failed operation
                    out[name] = exc
        return out

    def check(self, out: dict, check: Check) -> None:
        for name in self.names:
            check.op(_figure_problem(name, out.get(name)))

    def digest(self, out: dict) -> str:
        return sha256_of({
            name: [
                [p.experiment_id, p.title, p.x_name, list(p.x_values),
                 {k: list(v) for k, v in p.series.items()}, list(p.notes)]
                for p in panels
            ] if isinstance(panels, list) else repr(panels)
            for name, panels in out.items()
        })


def _figure_problem(name: str, panels) -> str | None:
    """Why a figure's output is wrong, or None when it passes."""
    if isinstance(panels, Exception):
        return f"{name}: raised {type(panels).__name__}: {panels}"
    if not panels:
        return f"{name}: no panels"
    for panel in panels:
        n = len(panel.x_values)
        finite = False
        for key, values in panel.series.items():
            if len(values) != n:
                return (f"{name}/{panel.experiment_id}: series {key!r} has "
                        f"{len(values)} values for {n} x values")
            finite = finite or any(
                isinstance(v, (int, float, np.number)) and math.isfinite(v)
                for v in values
            )
        if not finite:
            return f"{name}/{panel.experiment_id}: no finite value"
    return None


# ----------------------------------------------------------------- campaign
CAMPAIGN = "perfbench"


class Campaign(Workload):
    """All built-in scenarios into a fresh store per pass, then a resume."""

    name = "campaign"
    modules = ("repro", "repro.scenarios.campaign")
    # A pass takes about 3-5 s at two workers and drifts with the load on
    # both cores; its fastest of six passes or more is steadier across runs.
    min_passes = 6

    def __init__(self, seed: int, *, workers: int | None = None,
                 smoke: bool = False):
        self.seed = seed
        self.workers = workers or nproc()
        self.smoke = smoke
        # Traced twice: in process (with the resume) for the science
        # layers, then at the measured worker count for the pool and the
        # cell scheduler, whose forked workers the wrappers cannot see.
        self.traced_runs = ((1, True), (self.workers, False))
        self._directories = 0

    def prepare(self, workdir: Path, op=_no_span) -> None:
        from repro.scenarios.campaign import expand_cells

        with op("cells"):
            self.root = workdir / "campaign"
            shutil.rmtree(self.root, ignore_errors=True)
            self.root.mkdir(parents=True)
            self.cells = expand_cells(smoke=self.smoke)
        self._directories = 0

    def fresh_directory(self) -> Path:
        """A results directory no earlier pass has used."""
        directory = self.root / f"pass{self._directories:03d}"
        self._directories += 1
        if directory.exists():
            raise RuntimeError(f"{directory} exists: a pass would resume it")
        return directory

    def run_pass(self, span=_no_span, *, op=_no_span, workers=None,
                 resume=False) -> dict:
        from repro.scenarios.campaign import run_campaign

        directory = self.fresh_directory()
        out = {"seed": self.seed, "directory": directory}
        try:
            with op("campaign"), span("scenarios.run_campaign"):
                out["summary"] = run_campaign(
                    campaign=CAMPAIGN, results_dir=directory,
                    workers=workers or self.workers, schedule="auto",
                    seed=self.seed, smoke=self.smoke,
                )
        except Exception as exc:  # noqa: BLE001 — every cell failed
            out["error"] = exc
            return out
        if resume:
            self.resume(out, span)
        return out

    def resume(self, out: dict, span=_no_span) -> None:
        """Re-run the pass's campaign with ``resume=True``; must do nothing."""
        from repro.scenarios.campaign import run_campaign

        try:
            with span("scenarios.resume"):
                out["resume"] = run_campaign(
                    campaign=CAMPAIGN, results_dir=out["directory"],
                    workers=self.workers, schedule="auto", seed=out["seed"],
                    smoke=self.smoke, resume=True,
                )
        except Exception as exc:  # noqa: BLE001 — a failed operation
            out["resume"] = exc

    def finish(self, outputs: list) -> None:
        """The untimed resume pass that follows the timed passes."""
        if "error" not in outputs[0]:
            self.resume(outputs[0])

    def check(self, out: dict, check: Check) -> None:
        for problem in self.cell_problems(out):
            check.op(problem)
        if "resume" not in out:
            return
        summary = out["resume"]
        if isinstance(summary, Exception):
            check.op(f"resume raised {type(summary).__name__}: {summary}")
        elif summary.executed != 0 or summary.skipped != len(self.cells):
            check.op(f"resume executed {summary.executed} cells and "
                     f"skipped {summary.skipped}")
        else:
            check.op(None)

    def cell_problems(self, out: dict) -> list:
        """One entry per cell: None when its record is intact."""
        from repro.scenarios.store import ResultStore, grid_hash, record_checksum_ok

        n = len(self.cells)
        if "error" in out:
            exc = out["error"]
            return [f"campaign raised {type(exc).__name__}: {exc}"] * n
        summary = out["summary"]
        if summary.executed != n or summary.skipped != 0:
            return [f"pass executed {summary.executed} and skipped "
                    f"{summary.skipped} of {n} cells"] * n
        store = ResultStore(Path(out["directory"]) / CAMPAIGN)
        manifest = store.read_manifest()
        if (manifest.get("grid_hash") != grid_hash(CAMPAIGN, out["seed"], self.cells)
                or manifest.get("n_cells") != n
                or manifest.get("quarantined")
                or store.quarantined_records()):
            return ["manifest does not match the grid, or cells were "
                    "quarantined"] * n
        seen: dict = {}
        for line in store.results_path.read_bytes().splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and record_checksum_ok(record):
                seen[record.get("key")] = seen.get(record.get("key"), 0) + 1
        return [
            None if seen.get(cell.key) == 1
            else f"cell {cell.key}: {seen.get(cell.key, 0)} intact records"
            for cell in self.cells
        ]

    def digest(self, out: dict) -> str:
        if "error" in out:
            return "error"
        path = Path(out["directory"]) / CAMPAIGN / "results.jsonl"
        return hashlib.sha256(path.read_bytes()).hexdigest()


# ------------------------------------------------------------ trace-monitor
#: 1-in-N for the count samplers; 1/N for the Bernoulli sampler.
PERIOD = 100


class TraceMonitor(Workload):
    """Sec. I monitoring: stream a capture from disk, sample, bin, queue."""

    name = "trace-monitor"
    modules = ("repro", "repro.traffic.synthetic", "repro.trace.io",
               "repro.trace.binning", "repro.core.streaming",
               "repro.parallel.streaming", "repro.queueing.simulation")
    # Its operations take about 0.1 s, and most of that is interpreted
    # (the per-packet loop of apply_sampler): the code the host slows most.
    calibrated = True

    def __init__(self, seed: int, *, n_packets: int = 1 << 19,
                 chunk_size: int = 1 << 16):
        self.seed = seed
        self.n_packets = n_packets
        self.chunk_size = chunk_size

    def prepare(self, workdir: Path, op=_no_span) -> None:
        from repro.trace.binning import RateBinner
        from repro.trace.io import read_trace, write_trace
        from repro.traffic.synthetic import synthetic_packet_trace

        directory = workdir / "capture"
        directory.mkdir(parents=True, exist_ok=True)
        self.paths = (directory / "capture.csv", directory / "capture.rpt")
        with op("generate"):
            trace = synthetic_packet_trace(self.n_packets, rng=self.seed,
                                           alpha=1.2)
        with op("write csv"):
            write_trace(trace, self.paths[0])
        # The capture as the CSV holds it (timestamps at 6 decimals), so
        # both files and the in-memory reference carry identical packets.
        with op("read csv"):
            trace = read_trace(self.paths[0])
        with op("write rpt"):
            write_trace(trace, self.paths[1])
        self.trace = trace
        with op("bin grid"):
            self.binner = RateBinner.for_trace(
                trace, n_bins=max(self.n_packets // 32, 16)
            )
        mean_rate = float(trace.sizes.sum(dtype=np.float64)) / self.binner.n_bins
        # Integer capacity and integer-valued arrivals: the streamed queue
        # then matches the whole-series queue exactly.
        self.capacity = float(math.ceil(1.1 * mean_rate))
        self.thresholds = self.capacity * np.array([0.0, 0.1, 1.0, 10.0])
        self._reference = None

    def samplers(self) -> list:
        from repro.core.streaming import (
            BernoulliPacketSampler,
            CountStratifiedSampler,
            CountSystematicSampler,
        )

        return [
            CountSystematicSampler(PERIOD, offset=self.seed % PERIOD),
            CountStratifiedSampler(
                PERIOD, rng=np.random.default_rng([self.seed, 1])
            ),
            BernoulliPacketSampler(
                1.0 / PERIOD, rng=np.random.default_rng([self.seed, 2])
            ),
        ]

    def _queue_tails(self, rate: np.ndarray) -> list:
        from repro.parallel.streaming import (
            chunked,
            streamed_queue_tail_probabilities,
        )

        return streamed_queue_tail_probabilities(
            chunked(rate, 4096), self.capacity, self.thresholds
        ).tolist()

    def monitor(self, path: Path, op=_no_span) -> dict:
        """One monitor pass over one capture file; each stage and each
        chunk read, sampled and binned is an operation of its own."""
        from repro.core.streaming import apply_sampler
        from repro.parallel.streaming import streamed_trace_size_moments
        from repro.trace.io import iter_trace_chunks

        fmt = path.suffix
        with op(f"{fmt} moments"):
            moments = streamed_trace_size_moments(path)
        samplers = self.samplers()
        full = np.zeros(self.binner.n_bins)
        sampled = [np.zeros(self.binner.n_bins) for _ in samplers]
        kept = [0] * len(samplers)
        chunks = iter_trace_chunks(path, chunk_size=self.chunk_size)
        for k in itertools.count():
            with op(f"{fmt} chunk {k}"):
                chunk = next(chunks, None)
                if chunk is None:
                    break
                full += self.binner.bin(chunk).values
                for i, sampler in enumerate(samplers):
                    sub = apply_sampler(sampler, chunk)
                    kept[i] += len(sub)
                    sampled[i] += self.binner.bin(sub).values
        with op(f"{fmt} queue tails"):
            tails = [self._queue_tails(full)] + [
                self._queue_tails(rate * PERIOD) for rate in sampled
            ]
        return {
            "moments": [moments.count, moments.mean, moments.m2],
            "kept": kept,
            "bytes": float(full.sum()),
            "tails": tails,
        }

    def run_pass(self, span=_no_span, *, op=_no_span, workers=None,
                 resume=False) -> dict:
        out = {}
        for path in self.paths:
            try:
                out[path.suffix] = self.monitor(path, op)
            except Exception as exc:  # noqa: BLE001 — a failed operation
                out[path.suffix] = exc
        return out

    def reference(self) -> dict:
        """The same monitor applied to the in-memory capture in one piece."""
        if self._reference is None:
            from repro.core.streaming import apply_sampler
            from repro.queueing.simulation import queue_occupancy, tail_probabilities

            def tails(rate):
                occupancy = queue_occupancy(rate, self.capacity)
                return tail_probabilities(occupancy, self.thresholds).tolist()

            sizes = self.trace.sizes.astype(np.float64)
            subs = [apply_sampler(s, self.trace) for s in self.samplers()]
            full = self.binner.bin(self.trace).values
            self._reference = {
                "count": len(sizes),
                "mean": float(sizes.mean()),
                "var": float(sizes.var()),
                "kept": [len(sub) for sub in subs],
                "bytes": float(full.sum()),
                "tails": [tails(full)] + [
                    tails(self.binner.bin(sub).values * PERIOD) for sub in subs
                ],
            }
        return self._reference

    def check(self, out: dict, check: Check) -> None:
        for path in self.paths:
            check.op(self._problem(path.suffix, out.get(path.suffix)))

    def _problem(self, fmt: str, result) -> str | None:
        if isinstance(result, Exception):
            return f"{fmt}: raised {type(result).__name__}: {result}"
        if result is None:
            return f"{fmt}: no result"
        ref = self.reference()
        count, mean, m2 = result["moments"]
        if count != ref["count"]:
            return f"{fmt}: streamed {count} packets, capture has {ref['count']}"
        if not _close(mean, ref["mean"]) or not _close(m2 / count, ref["var"]):
            return f"{fmt}: streamed moments differ from the in-memory trace"
        if result["kept"] != ref["kept"]:
            return f"{fmt}: sampled {result['kept']} packets, expected {ref['kept']}"
        if result["bytes"] != ref["bytes"] or result["tails"] != ref["tails"]:
            return f"{fmt}: binned bytes or queue tails differ"
        return None

    def digest(self, out: dict) -> str:
        return sha256_of({
            k: v if isinstance(v, dict) else repr(v) for k, v in out.items()
        })


def _close(value: float, reference: float, rel: float = 1e-12) -> bool:
    return abs(value - reference) <= rel * abs(reference)


WORKLOADS = {cls.name: cls for cls in (Figures, Campaign, TraceMonitor)}
