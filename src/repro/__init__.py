"""repro — sampling techniques for self-similar Internet traffic.

A full reproduction of He & Hou, "An In-Depth, Analytical Study of
Sampling Techniques for Self-Similar Internet Traffic" (ICDCS 2005):

* :mod:`repro.core` — the paper's contribution: systematic, stratified,
  and simple random sampling; biased systematic sampling (BSS) with its
  parameter-design theory; the renewal/SNC framework of Theorem 1; the
  average-variance machinery of Theorem 2; the Sec. VI metrics.
* :mod:`repro.traffic` — self-similar traffic generation (fGn, on/off
  aggregation, M/G/inf, Pareto-marginal LRD traffic, the Bell-Labs-like
  trace substitute).
* :mod:`repro.trace` — packet records, trace files, OD flows, binning.
* :mod:`repro.analysis` — ACFs, heavy-tail fitting, 1-burst analysis,
  the paper's closed forms.
* :mod:`repro.hurst` — seven Hurst estimators including the wavelet
  (Abry-Veitch) tool the paper uses.
* :mod:`repro.queueing` — fBm queueing (why the Hurst parameter matters).
* :mod:`repro.parallel` — dispatch of whole figures and scenario cells
  over a worker pool (``workers=N`` is bit-identical to ``workers=1``),
  plus bounded-memory streaming folds.
* :mod:`repro.experiments` — one runnable experiment per paper figure.

The package-level names load on first use: ``import repro`` imports only
the error classes, and each name's module is imported when the name is
first looked up.

Quickstart::

    import repro

    trace = repro.synthetic_trace(1 << 18, rng=1)
    bss = repro.BiasedSystematicSampler.design(
        1e-3, alpha=1.5, total_points=len(trace)
    )
    result = bss.sample(trace)
    print(result.sampled_mean, trace.mean)
"""

from repro import _lazy
from repro.errors import (
    DesignError,
    EstimationError,
    GenerationError,
    ParameterError,
    ReproError,
    TraceFormatError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "ParameterError",
    "EstimationError",
    "TraceFormatError",
    "GenerationError",
    "DesignError",
]

_lazy.export_lazily(globals(), {
    "Sampler": "core",
    "SamplingResult": "core",
    "SystematicSampler": "core",
    "StratifiedSampler": "core",
    "SimpleRandomSampler": "core",
    "BernoulliSampler": "core",
    "BiasedSystematicSampler": "core",
    "OnlineBSS": "core",
    "IntervalDistribution": "core",
    "snc_check": "core",
    "average_variance": "core",
    "compare_variances": "core",
    "eta": "core",
    "overhead": "core",
    "efficiency": "core",
    "Pareto": "traffic",
    "ParetoLRDModel": "traffic",
    "OnOffModel": "traffic",
    "MGInfinityModel": "traffic",
    "BellLabsLikeTrace": "traffic",
    "bell_labs_like_process": "traffic",
    "fgn_davies_harte": "traffic",
    "synthetic_trace": "traffic",
    "onoff_trace": "traffic",
    "PacketRecord": "trace",
    "PacketTrace": "trace",
    "RateProcess": "trace",
    "FlowTable": "trace",
    "bin_bytes": "trace",
    "bin_packets": "trace",
    "bin_od_flow": "trace",
    "read_trace": "trace",
    "write_trace": "trace",
    "iter_trace_chunks": "trace",
    "HurstEstimate": "hurst",
    "estimate_hurst": "hurst",
    "set_default_workers": "parallel",
})
