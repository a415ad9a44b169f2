"""Canonical workloads and parameters shared by all experiments.

Three traces recur throughout the paper's evaluation:

* the **Sec. VI synthetic trace** (Fig. 18: "the synthetic trace with
  alpha = 1.3 and mean value 5.68") — heavy-tailed marginal, strong LRD;
* the **Sec. III/V synthetic trace** with marginal alpha = 1.5 (Fig. 8a);
* the **Bell-Labs-like trace** (H = 0.62, marginal alpha = 1.71, mean
  1.21e4 B/s) substituting the unavailable original [18].

All experiment entry points take a ``scale`` in (0, 1] that shrinks trace
lengths and instance counts proportionally, so the same code serves both
full runs and quick benchmark sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.process import RateProcess
from repro.traffic.belllabs import BellLabsLikeTrace
from repro.traffic.synthetic import onoff_trace, synthetic_trace
from repro.utils.rng import stream_for
from repro.utils.validation import require_probability

#: Master seed for the whole experiment suite.
MASTER_SEED = 20050601

#: Sec. VI evaluation trace parameters (Fig. 18 caption).
EVAL_ALPHA = 1.3
EVAL_MEAN = 5.68
EVAL_HURST = (3.0 - EVAL_ALPHA) / 2.0  # 0.85, the on/off alpha<->H map

#: Sec. III/V trace parameters (Fig. 8a).
PARETO_ALPHA = 1.5
PARETO_HURST = 0.8

#: Bell-Labs-like tail index (Fig. 8b) — used for its BSS designs.
REAL_ALPHA = 1.71

#: Sampling-rate grids (paper x-axes).
SYNTHETIC_RATES = np.array([1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
REAL_RATES = np.array([1e-5, 3e-5, 1e-4, 3e-4, 1e-3])

#: Trace-constant ranges for Eq. (35), calibrated on our substitutes (the
#: paper reports (0.25, 0.35) and (0.2, 0.3) for its own traces).
CS_SYNTHETIC = 0.5
CS_REAL = 0.5


def scaled(n: int, scale: float, *, minimum: int = 1024) -> int:
    """Shrink a nominal size by ``scale``, never below ``minimum``.

    A ``scale`` outside (0, 1] raises :class:`~repro.errors.ParameterError`.
    """
    require_probability("scale", scale)
    return max(int(n * scale), minimum)


def instances(n: int, scale: float, *, minimum: int = 5) -> int:
    """Shrink an instance count by ``scale``, never below ``minimum``."""
    return max(int(n * scale), minimum)


def eval_trace(scale: float = 1.0, seed: int = MASTER_SEED) -> RateProcess:
    """The Sec. VI synthetic evaluation trace (alpha = 1.3, mean 5.68)."""
    n = scaled(1 << 19, scale)
    rng = stream_for("eval-trace", seed)
    return synthetic_trace(n, rng, alpha=EVAL_ALPHA, mean=EVAL_MEAN,
                           hurst=EVAL_HURST)


def pareto_trace(scale: float = 1.0, seed: int = MASTER_SEED) -> RateProcess:
    """The Sec. III/V synthetic trace (alpha = 1.5, H = 0.8)."""
    n = scaled(1 << 18, scale)
    rng = stream_for("pareto-trace", seed)
    return synthetic_trace(n, rng, alpha=PARETO_ALPHA, hurst=PARETO_HURST)


def real_trace(scale: float = 1.0, seed: int = MASTER_SEED) -> RateProcess:
    """The Bell-Labs-like substitute aggregate (H=0.62, alpha=1.71)."""
    n = scaled(1 << 18, scale)
    rng = stream_for("real-trace", seed)
    return BellLabsLikeTrace().byte_process(n, rng)


def onoff_eval_trace(scale: float = 1.0, seed: int = MASTER_SEED) -> RateProcess:
    """The Sec. IV ns-2-style on/off trace (H = 0.8)."""
    n = scaled(1 << 17, scale)
    rng = stream_for("onoff-trace", seed)
    return onoff_trace(n, rng, hurst=0.8, n_sources=64)


def usable_rates(rates: np.ndarray, n_points: int, *, min_samples: int = 3):
    """Drop rates that would take fewer than ``min_samples`` samples."""
    rates = np.asarray(rates, dtype=np.float64)
    return rates[rates * n_points >= min_samples]
