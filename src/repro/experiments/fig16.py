"""Fig. 16: *biased* BSS (xi = 1/(1-eta)) with known eta, synthetic trace.

The designer measures eta per rate from a systematic baseline instance
(the paper: "the value of eta and Xr are readily obtained since we have
the entire traces"), targets xi = 1/(1-eta), and fixes one knob:

* panel (a): L = 10 fixed, eps solved from Eq. (30);
* panel (b): eps = 1 fixed, L solved from Eq. (30).
"""

from __future__ import annotations

import numpy as np

from repro.core.bss import BiasedSystematicSampler
from repro.core.parameters import l_for_xi, threshold_ratio, xi_bias
from repro.core.systematic import SystematicSampler
from repro.errors import DesignError
from repro.experiments._bss_sweeps import bss_comparison_spec
from repro.experiments.config import (
    MASTER_SEED,
    PARETO_ALPHA,
    SYNTHETIC_RATES,
    instances,
    pareto_trace,
    usable_rates,
)
from repro.experiments.runner import median_instance_means
from repro.experiments.sweeps import SweepSpec, make_run
from repro.utils.brent import brentq

L_FIXED = 10
EPS_FIXED = 1.0


def measured_eta(trace, rate: float, n_instances: int, seed: int, tag: str) -> float:
    """Per-rate eta of a systematic baseline (clipped into (0.01, 0.9))."""
    sampled = median_instance_means(
        SystematicSampler.from_rate(rate, offset=None),
        trace, n_instances, f"{tag}:eta:{rate}", seed,
    )
    eta = 1.0 - sampled / trace.mean
    return float(np.clip(eta, 0.01, 0.9))


def eps_for_xi_at_l(xi_target: float, L: int, alpha: float) -> float:
    """Solve xi(L, eps) = xi_target for eps on the decaying branch."""

    def f(eps: float) -> float:
        return xi_bias(L, eps, alpha) - xi_target

    grid = np.linspace(0.35, 5.0, 300)
    values = np.array([f(e) for e in grid])
    peak = int(np.argmax(values))
    if values[peak] < 0:
        raise DesignError(
            f"xi target {xi_target:.3f} unattainable at L={L}"
        )
    return float(brentq(f, grid[peak], 100.0))


def l_for_xi_clamped(xi_target: float, eps: float, alpha: float) -> int:
    """Eq. (30) inversion with the same clamping as the design rule."""
    m = threshold_ratio(eps, alpha)
    xi_target = min(xi_target, 1.0 + 0.95 * (m - 1.0))
    if xi_target <= 1.0:
        return 0
    return max(int(round(l_for_xi(xi_target, eps, alpha))), 0)


def build_figure_specs(
    trace, rates, alpha, *, tag: str, scale: float, seed: int,
    l_fixed: int = L_FIXED, eps_fixed: float = EPS_FIXED,
    title_prefix: str = "biased BSS, synthetic trace",
) -> list[SweepSpec]:
    """The two biased-BSS panels (fixed L, fixed eps) as sweep specs.

    The per-rate eta measurement is a pre-pass: the sampler factories
    close over its results, so the specs stay pure functions of the rate.
    """
    n_instances = instances(15, scale)
    etas = {
        float(r): measured_eta(trace, float(r), n_instances, seed, tag)
        for r in rates
    }

    def bss_fixed_l(rate: float) -> BiasedSystematicSampler:
        xi_target = 1.0 / (1.0 - etas[rate])
        try:
            eps = eps_for_xi_at_l(xi_target, l_fixed, alpha)
        except DesignError:
            eps = 3.0  # unattainable target: fall back to a high threshold
        return BiasedSystematicSampler.from_rate(
            rate, l_fixed, threshold=eps * trace.mean, offset=None
        )

    def bss_fixed_eps(rate: float) -> BiasedSystematicSampler:
        xi_target = 1.0 / (1.0 - etas[rate])
        L = l_for_xi_clamped(xi_target, eps_fixed, alpha)
        return BiasedSystematicSampler.from_rate(
            rate, L, threshold=eps_fixed * trace.mean, offset=None
        )

    eta_note = "measured eta per rate: " + ", ".join(
        f"{r:.0e}:{etas[float(r)]:.3f}" for r in rates
    )
    spec_a = bss_comparison_spec(
        trace, rates, bss_fixed_l,
        panel_id=f"{tag}a",
        title=f"{title_prefix} (L={l_fixed} fixed, eps tuned)",
        n_instances=n_instances, seed=seed, extra_notes=[eta_note],
    )
    spec_b = bss_comparison_spec(
        trace, rates, bss_fixed_eps,
        panel_id=f"{tag}b",
        title=f"{title_prefix} (eps={eps_fixed} fixed, L tuned)",
        n_instances=n_instances, seed=seed, extra_notes=[eta_note],
    )
    return [spec_a, spec_b]


def build_specs(*, scale: float = 1.0, seed: int = MASTER_SEED) -> list[SweepSpec]:
    trace = pareto_trace(scale, seed)
    rates = usable_rates(SYNTHETIC_RATES, len(trace))
    return build_figure_specs(
        trace, rates, PARETO_ALPHA, tag="fig16", scale=scale, seed=seed
    )


run = make_run(build_specs)
