"""Canonical synthetic workloads used throughout the paper's evaluation.

Two recipes recur in every experiment:

* :func:`synthetic_trace` — the paper's *synthetic trace*: LRD traffic with
  a Pareto marginal (Fig. 8a fits alpha = 1.5; Fig. 18 quotes a mean of
  5.68 and burst alpha around 1.3), built with the Gaussian-copula
  transform at H = 0.8 (the Hurst value the paper generates in ns-2).
* :func:`onoff_trace` — the ns-2-style on/off aggregate (H = 0.8) used in
  Sec. IV's variance study.

Both return a :class:`~repro.trace.process.RateProcess` so downstream code
is agnostic to the trace's origin.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.trace.packet import PacketTrace
from repro.trace.process import RateProcess
from repro.traffic.onoff import OnOffModel
from repro.utils.rng import normalize_rng
from repro.utils.validation import require_int_at_least, require_positive

# ``synthetic_trace`` and ``fgn_trace`` import their generators (fGn and the
# copula) when called, so the packet-level recipe loads neither.

#: Parameters quoted in the paper for the synthetic trace.
SYNTHETIC_MEAN = 5.68  # kbytes/second (Fig. 18)
SYNTHETIC_ALPHA = 1.5  # marginal tail index (Fig. 8a)
SYNTHETIC_HURST = 0.8  # ns-2 generation target (Sec. IV)
#: Finite-trace tail cut.  The paper's synthetic trace spans roughly three
#: decades of values with max/mean ~ 20 (Fig. 8a); a pure Pareto reproduces
#: that dynamic range when truncated at the ~1e-4 CCDF quantile
#: (max/mean ~ 50).  Untruncated Pareto occasionally emits single values
#: thousands of times the mean, which no finite capture contains.
SYNTHETIC_UPPER_CCDF = 1e-4


def synthetic_trace(
    n: int = 1 << 18,
    rng=None,
    *,
    mean: float = SYNTHETIC_MEAN,
    alpha: float = SYNTHETIC_ALPHA,
    hurst: float = SYNTHETIC_HURST,
    bin_width: float = 1.0,
    upper_ccdf: float | None = SYNTHETIC_UPPER_CCDF,
) -> RateProcess:
    """The paper's synthetic trace: Pareto(alpha)-marginal LRD traffic.

    Pass ``upper_ccdf=None`` for the untruncated (infinite-support)
    marginal; the default truncates at the once-in-1e7 quantile to mimic a
    finite capture.
    """
    from repro.traffic.copula import ParetoLRDModel

    n = require_int_at_least("n", n, 2)
    model = ParetoLRDModel.from_mean(
        mean=mean, alpha=alpha, hurst=hurst, upper_ccdf=upper_ccdf
    )
    values = model.generate(n, normalize_rng(rng))
    return RateProcess(values=values, bin_width=bin_width, unit="kbytes/s")


def onoff_trace(
    n: int = 1 << 16,
    rng=None,
    *,
    hurst: float = SYNTHETIC_HURST,
    n_sources: int = 64,
    bin_width: float = 1.0,
) -> RateProcess:
    """ns-2-style on/off aggregate trace with target Hurst ``hurst``."""
    n = require_int_at_least("n", n, 2)
    model = OnOffModel.for_hurst(hurst, n_sources=n_sources)
    values = model.generate(n, normalize_rng(rng))
    return RateProcess(values=values, bin_width=bin_width, unit="units/bin")


def synthetic_packet_trace(
    n: int = 1 << 17,
    rng=None,
    *,
    alpha: float = 1.2,
    n_hosts: int = 256,
) -> PacketTrace:
    """Synthetic packet trace: Poisson-ish arrivals, heavy-tailed sizes.

    The shared workload for packet-level studies (the perf benchmarks'
    ingest rows and the ``packets`` scenario model use this one recipe):
    exponential inter-arrivals at ~1 kpkt/s, uniform anonymised host
    pairs, and Pareto(``alpha``) wire sizes floored at 40 B and capped
    at the 1500 B MTU.
    """
    n = require_int_at_least("n", n, 1)
    alpha = require_positive("alpha", alpha)
    n_hosts = require_int_at_least("n_hosts", n_hosts, 1)
    if n_hosts > 1 << 32:
        raise ParameterError(
            f"n_hosts must be <= 2**32 (host ids are uint32), got {n_hosts}"
        )
    gen = normalize_rng(rng)
    # Each column is built in the array its draw returned (the same
    # operations in the same order, so the same bits), and the float sizes
    # are dropped once cast: the capture is never held twice.
    timestamps = gen.exponential(1e-3, n)
    np.cumsum(timestamps, out=timestamps)
    sizes = gen.pareto(alpha, n)
    sizes *= 100
    sizes += 40
    sizes = np.minimum(sizes, 1500, out=sizes).astype(np.uint32)
    return PacketTrace(
        timestamps=timestamps,
        sources=gen.integers(0, n_hosts, n, dtype=np.uint32),
        destinations=gen.integers(0, n_hosts, n, dtype=np.uint32),
        sizes=sizes,
    )


def fgn_trace(
    n: int = 1 << 16,
    rng=None,
    *,
    hurst: float = SYNTHETIC_HURST,
    mean: float = 10.0,
    sigma: float = 1.0,
    bin_width: float = 1.0,
) -> RateProcess:
    """Gaussian fGn trace shifted to a positive mean.

    Used where an exactly-Gaussian LRD control is wanted (e.g. Hurst
    estimator calibration); not heavy-tailed.
    """
    from repro.traffic.fgn import fgn_davies_harte

    n = require_int_at_least("n", n, 2)
    values = mean + fgn_davies_harte(n, hurst, normalize_rng(rng), sigma=sigma)
    return RateProcess(values=values, bin_width=bin_width, unit="units/bin")
