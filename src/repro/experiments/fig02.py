"""Fig. 2: beta-hat of the simple-random sampled ACF (Eq. 11).

Panel (a): the calculated R_g(tau) for beta = 0.1 fitted to a line in
log2-log2 coordinates.  The paper reports slope -0.08; this panel fits
-0.1001.  The Eq. 11 sum runs to the mean number of failures plus 12
standard deviations plus 16, so the mass it leaves out is negligible and
truncation does not explain the paper's value: -0.08 is not reproduced.
Panel (b): beta-hat versus beta over the paper's sweep 0.1..0.8, where
beta-hat stays within 0.002 of beta.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.fitting import fit_loglog
from repro.analysis.theory import simple_random_sampled_acf
from repro.experiments.config import MASTER_SEED
from repro.experiments.sweeps import CellSeries, ColumnSeries, SweepSpec, make_run

#: tau grid matching Fig. 2(a)'s log2 range [6.5, 9].
TAUS = np.unique(np.round(np.geomspace(90, 512, 24)).astype(np.int64))
RHO = 0.5


def _beta_hat(ctx, beta: float) -> float:
    acf = simple_random_sampled_acf(TAUS, float(beta), rho=RHO)
    return -fit_loglog(TAUS, acf).slope


def build_specs(*, scale: float = 1.0, seed: int = MASTER_SEED) -> list[SweepSpec]:
    # Panel (a): beta = 0.1 in log2 coordinates (one closed-form curve).
    acf = simple_random_sampled_acf(TAUS, 0.1, rho=RHO)
    fit_a = fit_loglog(TAUS, acf, base=2.0)
    panel_a = SweepSpec(
        panel_id="fig02a",
        title="log2 Rg(tau) of simple-random sampling, beta=0.1 (Eq. 11)",
        x_name="log2_tau",
        x_values=tuple(round(float(v), 4) for v in np.log2(TAUS)),
        seed=seed,
        series=(
            ColumnSeries("log2_Rg", [round(float(v), 5) for v in np.log2(acf)]),
            ColumnSeries(
                "fitted",
                [
                    round(float(fit_a.slope * t + fit_a.intercept), 5)
                    for t in np.log2(TAUS)
                ],
            ),
        ),
        notes=[
            f"fitted slope = {fit_a.slope:.4f} (paper: -0.08, true beta 0.1)",
            f"fit R^2 = {fit_a.r_squared:.5f}",
        ],
    )

    # Panel (b): sweep beta over the paper's range.
    betas = np.round(np.arange(0.1, 0.85, 0.1), 2)
    panel_b = SweepSpec(
        panel_id="fig02b",
        title="beta-hat vs beta for simple random sampling",
        x_name="beta",
        x_values=tuple(float(b) for b in betas),
        seed=seed,
        series=(CellSeries("beta_hat", _beta_hat, round_to=4),),
        notes=lambda ctx, columns: [
            "max |beta_hat - beta| = "
            + format(
                max(
                    abs(b - h)
                    for b, h in zip(betas, columns["beta_hat"])
                ),
                ".4f",
            )
        ],
    )
    return [panel_a, panel_b]


run = make_run(build_specs)
