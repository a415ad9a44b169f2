"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark runs on a few cores of a shared host whose speed changes as
other tenants come and go: between two speeds about 1.7x apart every one
to three seconds, and at times for a minute or more, slowing interpreted
Python more than NumPy.  :func:`kernel` is a fixed piece of work,
independent of the program and of the run's seed, mostly interpreted: a
per-item generator fed to ``np.fromiter`` (the shape of
``apply_sampler``), then a histogram, an FFT and a sort.  On a
``calibrated`` workload the benchmark runs it after every timed operation
and reports each operation's time as a multiple of the kernel's, in
seconds of a machine on which the kernel takes :data:`REFERENCE_S`.  A
change to the program moves that multiple; a change of the machine's
speed moves both and cancels.
"""

from __future__ import annotations

import resource
import time

import numpy as np

#: Wall seconds of one :func:`kernel` call on the reference machine at its
#: faster speed (2-core Intel Xeon KVM guest, Python 3.11, NumPy 2.4), so
#: that reference-speed times read as seconds on that machine.
REFERENCE_S = 0.005

_GEN = np.random.default_rng(20050608)
_TIMES = np.cumsum(_GEN.exponential(1e-3, 16_000))
_SIZES = np.minimum(40 + _GEN.pareto(1.2, 16_000) * 100, 1500).astype(np.uint32)
_SIGNAL = _GEN.standard_normal(1 << 15)
_EDGES = np.linspace(0.0, float(_TIMES[-1]), 513)


class _Every:
    """A stateful per-item decision, like a packet sampler's ``offer``."""

    def __init__(self, period: int):
        self.period = period
        self.seen = 0

    def offer(self, timestamp: float, size: int) -> bool:
        self.seen += 1
        return self.seen % self.period == 0 or size > 1400


def kernel() -> float:
    """One fixed unit of mixed interpreted and NumPy work."""
    sampler = _Every(7)
    keep = np.fromiter(
        (sampler.offer(float(t), int(s)) for t, s in zip(_TIMES, _SIZES)),
        dtype=bool, count=len(_TIMES),
    )
    counts, _ = np.histogram(_TIMES[keep], bins=_EDGES,
                             weights=_SIZES[keep].astype(np.float64))
    spectrum = np.abs(np.fft.rfft(_SIGNAL))
    return float(counts.sum() + spectrum[1:].sum() + np.sort(_SIGNAL)[100])


def _own_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure(repeats: int) -> dict:
    """Mean wall and CPU seconds of ``repeats`` kernel calls."""
    cpu = _own_cpu()
    started = time.perf_counter()
    for _ in range(repeats):
        kernel()
    return {"wall_s": (time.perf_counter() - started) / repeats,
            "cpu_s": (_own_cpu() - cpu) / repeats}
