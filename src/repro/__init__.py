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

Quickstart::

    import repro

    trace = repro.synthetic_trace(1 << 18, rng=1)
    bss = repro.BiasedSystematicSampler.design(
        1e-3, alpha=1.5, total_points=len(trace)
    )
    result = bss.sample(trace)
    print(result.sampled_mean, trace.mean)
"""

from repro.core import (
    BernoulliSampler,
    BiasedSystematicSampler,
    IntervalDistribution,
    OnlineBSS,
    Sampler,
    SamplingResult,
    SimpleRandomSampler,
    StratifiedSampler,
    SystematicSampler,
    average_variance,
    compare_variances,
    efficiency,
    eta,
    overhead,
    snc_check,
)
from repro.errors import (
    DesignError,
    EstimationError,
    GenerationError,
    ParameterError,
    ReproError,
    TraceFormatError,
)
from repro.hurst import HurstEstimate, estimate_hurst
from repro.parallel import set_default_workers
from repro.trace import (
    FlowTable,
    PacketRecord,
    PacketTrace,
    RateProcess,
    bin_bytes,
    bin_od_flow,
    bin_packets,
    iter_trace_chunks,
    read_trace,
    write_trace,
)
from repro.traffic import (
    BellLabsLikeTrace,
    MGInfinityModel,
    OnOffModel,
    Pareto,
    ParetoLRDModel,
    bell_labs_like_process,
    fgn_davies_harte,
    onoff_trace,
    synthetic_trace,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Sampler",
    "SamplingResult",
    "SystematicSampler",
    "StratifiedSampler",
    "SimpleRandomSampler",
    "BernoulliSampler",
    "BiasedSystematicSampler",
    "OnlineBSS",
    "IntervalDistribution",
    "snc_check",
    "average_variance",
    "compare_variances",
    "eta",
    "overhead",
    "efficiency",
    # traffic
    "Pareto",
    "ParetoLRDModel",
    "OnOffModel",
    "MGInfinityModel",
    "BellLabsLikeTrace",
    "bell_labs_like_process",
    "fgn_davies_harte",
    "synthetic_trace",
    "onoff_trace",
    # trace
    "PacketRecord",
    "PacketTrace",
    "RateProcess",
    "FlowTable",
    "bin_bytes",
    "bin_packets",
    "bin_od_flow",
    "read_trace",
    "write_trace",
    "iter_trace_chunks",
    # hurst
    "HurstEstimate",
    "estimate_hurst",
    # parallel
    "set_default_workers",
    # errors
    "ReproError",
    "ParameterError",
    "EstimationError",
    "TraceFormatError",
    "GenerationError",
    "DesignError",
]
