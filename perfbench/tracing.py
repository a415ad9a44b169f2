"""Layer tracing from outside the program: timed wrappers around public calls.

A :class:`Tracer` replaces public functions and methods of ``repro`` with
timed wrappers for the duration of a traced run and restores them after.
Module functions are patched at every place they are looked up: a name
imported with ``from x import f`` is a separate binding, so the wrapper is
installed in every ``repro``/``perfbench`` module that holds the original
object, not only in ``x``.

Each wrapped call is a span.  Spans nest per thread; a span's *self time*
is its duration minus the time covered by the wrapped calls nested inside
it, so on one thread the self times of all spans add up to the time
covered by the outermost spans.  Self time is accumulated only on the main
thread, which is the thread whose wall-clock the benchmark reports; spans
on helper threads (the prefetch reader) add to busy time and call counts
but not to self time, so the layer self times plus ``unattributed_s``
always add up to the traced wall.

Counters that the program itself keeps (pool forks, retries, prefetch
stalls, scheduler gauges, store bytes) are read from a
:func:`repro.obs.telemetry` collector, not re-measured here.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager

#: The program's layers, named after its packages.  ``analysis``,
#: ``kernels``, ``faults`` and ``utils`` are off by default or negligible
#: in every profile, so they are not measured.
LAYERS = ("traffic", "core", "hurst", "queueing", "trace", "parallel",
          "scenarios", "experiments")

#: The 21 paper figures, each a span opened by the ``figures`` workload.
FIGURES = tuple(
    f"fig{n:02d}" for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                            16, 17, 18, 19, 20, 21, 22)
)

#: (span name, module, attribute): functions patched at every lookup site.
FUNCTIONS = (
    ("traffic.fgn_davies_harte", "repro.traffic.fgn", "fgn_davies_harte"),
    ("traffic.packets", "repro.traffic.synthetic", "synthetic_packet_trace"),
    ("core.instance_means", "repro.core.variance", "instance_means"),
    ("core.apply_sampler", "repro.core.streaming", "apply_sampler"),
    ("hurst.estimate", "repro.hurst.registry", "estimate_hurst"),
    ("hurst.estimate", "repro.hurst.wavelet", "wavelet_hurst"),
    ("hurst.confidence", "repro.hurst.confidence", "hurst_confidence_interval"),
    ("queueing.occupancy", "repro.queueing.simulation", "queue_occupancy"),
    ("queueing.tail", "repro.queueing.simulation", "tail_probabilities"),
    ("queueing.norros", "repro.queueing.norros", "overflow_probability"),
    ("trace.read", "repro.trace.io", "iter_trace_chunks"),
    ("parallel.run_shards", "repro.parallel.executor", "run_shards"),
    ("parallel.streamed_moments", "repro.parallel.streaming",
     "streamed_trace_size_moments"),
    ("parallel.streamed_queue", "repro.parallel.streaming",
     "streamed_queue_tail_probabilities"),
    ("scenarios.evaluate_cell", "repro.scenarios.campaign", "evaluate_cell"),
    ("scenarios.cell_results", "repro.scenarios.schedule", "iter_cell_results"),
)

#: (span name, module, class, method): methods patched on their class.
METHODS = (
    ("traffic.onoff", "repro.traffic.onoff", "OnOffModel", "generate"),
    ("traffic.pareto_lrd", "repro.traffic.copula", "ParetoLRDModel", "generate"),
    ("traffic.bell_labs", "repro.traffic.belllabs", "BellLabsLikeTrace",
     "byte_process"),
    ("traffic.bell_labs", "repro.traffic.belllabs", "BellLabsLikeTrace",
     "packets"),
    ("traffic.mginf", "repro.traffic.mginf", "MGInfinityModel", "generate"),
    ("core.bss", "repro.core.bss", "BiasedSystematicSampler", "sample"),
    ("core.adaptive", "repro.core.adaptive", "AdaptiveRandomSampler", "sample"),
    ("core.sample", "repro.core.systematic", "SystematicSampler", "sample"),
    ("core.sample", "repro.core.stratified", "StratifiedSampler", "sample"),
    ("core.sample", "repro.core.simple_random", "SimpleRandomSampler", "sample"),
    ("core.sample", "repro.core.simple_random", "BernoulliSampler", "sample"),
    ("trace.binning", "repro.trace.binning", "RateBinner", "bin"),
    ("scenarios.store.append", "repro.scenarios.store", "ResultStore", "append"),
)

#: Module-name prefixes searched for bindings of a patched function.
_LOOKUP_PREFIXES = ("repro", "perfbench")


class Tracer:
    """Span bookkeeping: busy time, calls and self time per span name.

    ``busy`` counts only the outermost activation of a name on a thread,
    so a wrapped function that calls another wrapped function of the same
    name (``estimate_hurst`` dispatching to ``wavelet_hurst``) is not
    counted twice; ``self_time`` counts every activation's own share.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.busy: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.self_time: dict = defaultdict(float)
        self.totals: dict = defaultdict(float)
        self._local = threading.local()
        self._undo: list = []

    # ------------------------------------------------------------ spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        outermost = all(frame[0] != name for frame in stack)
        frame = [name, self.clock(), 0.0, outermost]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        now = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        name, start, nested, outermost = frame
        duration = now - start
        if outermost:
            self.busy[name] += duration
            self.calls[name] += 1
        if stack:
            stack[-1][2] += duration
        if threading.current_thread() is threading.main_thread():
            self.self_time[name] += duration - nested

    @contextmanager
    def span(self, name: str):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def layer_self(self) -> dict:
        """Main-thread self time summed per layer (first name component)."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_time.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + value
        return out

    # ---------------------------------------------------------- wrappers
    def wrap(self, fn, name: str, on_result=None):
        """A timed stand-in for ``fn``; generators are timed per item."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            if isinstance(result, types.GeneratorType):
                return _TimedIterator(tracer, name, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def patch_function(self, module: str, attr: str, name: str,
                       on_result=None) -> None:
        original = getattr(importlib.import_module(module), attr)
        original = getattr(original, "__perfbench_original__", original)
        wrapper = self.wrap(original, name, on_result)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if not mod_name.startswith(_LOOKUP_PREFIXES):
                continue
            namespace = getattr(mod, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._undo.append((namespace, key, original))

    def patch_method(self, module: str, cls: str, attr: str, name: str) -> None:
        owner = getattr(importlib.import_module(module), cls)
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(original, name))
        self._undo.append((owner, attr, original))

    def install(self) -> "Tracer":
        """Patch every span target in :data:`FUNCTIONS` and :data:`METHODS`."""
        hooks = {
            "core.apply_sampler": _count_packets,
            "trace.read": _count_bytes,
        }
        for name, module, attr in FUNCTIONS:
            self.patch_function(module, attr, name, hooks.get(name))
        for name, module, cls, attr in METHODS:
            self.patch_method(module, cls, attr, name)
        return self

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


class _TimedIterator:
    """Iterator proxy: each ``next`` is one span of the generator's name."""

    def __init__(self, tracer: Tracer, name: str, generator):
        self._tracer = tracer
        self._name = name
        self._generator = generator

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer.enter(self._name)
        try:
            return next(self._generator)
        finally:
            self._tracer.exit(frame)


def _count_packets(tracer: Tracer, args, kwargs, result) -> None:
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    tracer.totals["core.apply_sampler.packets_offered"] += len(trace)
    tracer.totals["core.apply_sampler.packets_kept"] += len(result)


def _count_bytes(tracer: Tracer, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    tracer.totals["trace.read.bytes"] += os.path.getsize(path)


# ------------------------------------------------------------ the metrics
#: Every per-layer metric, in print order: (name, unit, better).
PER_LAYER = (
    ("traffic.fgn_davies_harte.busy_s", "s", "lower"),
    ("traffic.fgn_davies_harte.calls", "count", "lower"),
    ("traffic.onoff.busy_s", "s", "lower"),
    ("traffic.onoff.calls", "count", "lower"),
    ("traffic.pareto_lrd.busy_s", "s", "lower"),
    ("traffic.bell_labs.busy_s", "s", "lower"),
    ("traffic.mginf.busy_s", "s", "lower"),
    ("traffic.self_s", "s", "lower"),
    ("core.bss.busy_s", "s", "lower"),
    ("core.bss.calls", "count", "lower"),
    ("core.adaptive.busy_s", "s", "lower"),
    ("core.sample.busy_s", "s", "lower"),
    ("core.sample.calls", "count", "lower"),
    ("core.instance_means.busy_s", "s", "lower"),
    ("core.instance_means.calls", "count", "lower"),
    ("core.apply_sampler.busy_s", "s", "lower"),
    ("core.apply_sampler.calls", "count", "lower"),
    ("core.apply_sampler.packets_offered", "count", "higher"),
    ("core.apply_sampler.packets_kept", "count", "higher"),
    ("core.self_s", "s", "lower"),
    ("hurst.estimate.busy_s", "s", "lower"),
    ("hurst.estimate.calls", "count", "lower"),
    ("hurst.confidence.busy_s", "s", "lower"),
    ("hurst.self_s", "s", "lower"),
    ("queueing.occupancy.busy_s", "s", "lower"),
    ("queueing.norros.busy_s", "s", "lower"),
    ("queueing.self_s", "s", "lower"),
    ("trace.read.busy_s", "s", "lower"),
    ("trace.read.bytes", "bytes", "higher"),
    ("trace.read.mb_per_s", "MB/s", "higher"),
    ("trace.binning.busy_s", "s", "lower"),
    ("trace.shm_bytes_published", "bytes", "lower"),
    ("trace.self_s", "s", "lower"),
    ("parallel.run_shards.busy_s", "s", "lower"),
    ("parallel.run_shards.calls", "count", "lower"),
    ("parallel.shards", "count", "lower"),
    ("parallel.pool_forks", "count", "lower"),
    ("parallel.retries", "count", "lower"),
    ("parallel.worker_losses", "count", "lower"),
    ("parallel.prefetch.stall_s", "s", "lower"),
    ("parallel.prefetch.stalls", "count", "lower"),
    ("parallel.prefetch.chunks", "count", "higher"),
    ("parallel.self_s", "s", "lower"),
    ("scenarios.evaluate_cell.busy_s", "s", "lower"),
    ("scenarios.evaluate_cell.calls", "count", "higher"),
    ("scenarios.cell_results_wait_s", "s", "lower"),
    ("scenarios.store.append.busy_s", "s", "lower"),
    ("scenarios.store.append.calls", "count", "higher"),
    ("scenarios.store.append.bytes", "bytes", "lower"),
    ("scenarios.resume.busy_s", "s", "lower"),
    ("scenarios.schedule.pool_idle_fraction", "frac", "lower"),
    ("scenarios.schedule.round_imbalance", "ratio", "lower"),
    ("scenarios.self_s", "s", "lower"),
    *((f"experiments.{fig}.busy_s", "s", "lower") for fig in FIGURES),
    ("experiments.self_s", "s", "lower"),
    ("obs.traced_wall_s", "s", "lower"),
    ("obs.trace_overhead_frac", "frac", "lower"),
    ("unattributed_s", "s", "lower"),
)

#: Metrics read from the ``workers=nproc`` traced campaign run: the
#: parent-side view of the pool and the cell scheduler.  Everything else
#: comes from the in-process ``workers=1`` run, where the science layers
#: execute under the wrappers instead of in forked workers.
POOL_SIDE = ("parallel.run_shards.busy_s", "parallel.run_shards.calls",
             "parallel.shards", "parallel.pool_forks", "parallel.retries",
             "parallel.worker_losses", "scenarios.cell_results_wait_s",
             "scenarios.schedule.pool_idle_fraction",
             "scenarios.schedule.round_imbalance", "trace.shm_bytes_published")


def layer_metrics(tracer: Tracer, counters: dict, gauges: dict,
                  traced_wall: float) -> dict:
    """Every :data:`PER_LAYER` value but the overhead fraction."""
    busy, calls, totals = tracer.busy, tracer.calls, tracer.totals
    values = {}
    for name, _unit, _better in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if stat == "busy_s":
            values[name] = busy.get(head, 0.0)
        elif stat == "calls":
            values[name] = calls.get(head, 0)
    values.update({
        "core.apply_sampler.packets_offered":
            int(totals["core.apply_sampler.packets_offered"]),
        "core.apply_sampler.packets_kept":
            int(totals["core.apply_sampler.packets_kept"]),
        "trace.read.bytes": int(totals["trace.read.bytes"]),
        "trace.read.mb_per_s": (
            totals["trace.read.bytes"] / 1e6 / busy["trace.read"]
            if busy.get("trace.read") else 0.0
        ),
        "trace.shm_bytes_published": int(counters.get("shm.bytes_published", 0)),
        "parallel.shards": int(counters.get("executor.shards", 0)),
        "parallel.pool_forks": int(counters.get("executor.pool_forks", 0)),
        "parallel.retries": int(counters.get("executor.retries", 0)),
        "parallel.worker_losses": int(counters.get("executor.worker_losses", 0)),
        "parallel.prefetch.stall_s": float(counters.get("prefetch.stall_s", 0.0)),
        "parallel.prefetch.stalls": int(counters.get("prefetch.stalls", 0)),
        "parallel.prefetch.chunks": int(counters.get("prefetch.chunks", 0)),
        "scenarios.cell_results_wait_s": busy.get("scenarios.cell_results", 0.0),
        "scenarios.store.append.bytes": int(counters.get("store.bytes_appended", 0)),
        "scenarios.schedule.pool_idle_fraction":
            float(gauges.get("schedule.pool_idle_fraction", 0.0)),
        "scenarios.schedule.round_imbalance":
            float(gauges.get("schedule.round_imbalance", 0.0)),
    })
    layer_self = tracer.layer_self()
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
    values["obs.traced_wall_s"] = traced_wall
    values["unattributed_s"] = traced_wall - sum(layer_self.values())
    return values


def top_spans(tracer: Tracer, n: int = 5) -> list:
    """The ``n`` span names with the most main-thread self time."""
    ranked = sorted(tracer.self_time.items(), key=lambda kv: -kv[1])
    return ranked[:n]
