"""Fig. 14: contours of xi over the (L, eps) plane.

The same surface as Fig. 10 in contour form: for each target xi the
(L, eps) pairs achieving it.  Emitted as the eps achieving each xi level
per L (solved on the decaying branch, as the paper's tuning procedure
uses).
"""

from __future__ import annotations

import numpy as np

from repro.core.parameters import threshold_ratio, xi_bias
from repro.experiments.config import MASTER_SEED, PARETO_ALPHA
from repro.experiments.sweeps import CellSeries, SweepSpec, make_run
from repro.utils.brent import brentq

XI_LEVELS = (1.17, 1.4, 1.7, 2.0, 2.3)
LS = tuple(range(1, 11))


def _eps_for_xi(L: int, xi_target: float) -> float:
    """eps on the decaying branch where xi(L, eps) = xi_target (NaN if none)."""

    def f(eps: float) -> float:
        return xi_bias(L, eps, PARETO_ALPHA) - xi_target

    # The decaying branch starts past the peak of xi(eps); bracket from the
    # peak region outward.
    eps_lo, eps_hi = 0.36, 50.0
    grid = np.linspace(eps_lo, 5.0, 200)
    values = np.array([f(e) for e in grid])
    peak = int(np.argmax(values))
    if values[peak] < 0:
        return float("nan")
    return float(brentq(f, grid[peak], eps_hi))


def build_specs(*, scale: float = 1.0, seed: int = MASTER_SEED) -> SweepSpec:
    return SweepSpec(
        panel_id="fig14",
        title=f"contours of xi over (L, eps), alpha={PARETO_ALPHA}",
        x_name="L",
        x_values=LS,
        seed=seed,
        series=tuple(
            CellSeries(
                f"xi={xi_target}",
                lambda ctx, L, xi_target=xi_target: _eps_for_xi(
                    int(L), xi_target
                ),
                round_to=4,
            )
            for xi_target in XI_LEVELS
        ),
        notes=[
            "each cell: the eps (decaying branch) achieving that xi at that L",
            f"max attainable xi at eps*: m grows as eps*alpha/(alpha-1); "
            f"xi targets above m({LS[0]}) are NaN "
            f"(m at eps=1 is {threshold_ratio(1.0, PARETO_ALPHA):.2f})",
        ],
    )


run = make_run(build_specs)
