"""Fig. 21: the BSS-sampled process keeps beta (hence the Hurst parameter).

For beta in 0.1..0.8, generate fGn with H = 1 - beta/2, run BSS, and
estimate beta of the *sampled* sequence with the wavelet (Abry-Veitch)
estimator — the same tool the paper uses.
"""

from __future__ import annotations

import numpy as np

from repro.core.bss import BiasedSystematicSampler
from repro.experiments.config import MASTER_SEED, scaled
from repro.experiments.sweeps import CellSeries, SweepSpec, make_run
from repro.hurst.base import beta_from_hurst
from repro.hurst.wavelet import wavelet_hurst
from repro.traffic.fgn import fgn_davies_harte

BETAS = np.round(np.arange(0.1, 0.85, 0.1), 2)
INTERVAL = 8
EXTRAS = 4


def build_specs(*, scale: float = 1.0, seed: int = MASTER_SEED) -> SweepSpec:
    n = scaled(1 << 19, scale, minimum=1 << 15)

    def beta_hat(ctx, beta: float) -> float:
        hurst = 1.0 - float(beta) / 2.0
        rng = ctx.stream(None, beta)
        # Positive-mean fGn so BSS's threshold logic has a meaningful mean.
        series = 10.0 + fgn_davies_harte(n, hurst, rng)
        bss = BiasedSystematicSampler(
            interval=INTERVAL, extra_samples=EXTRAS, epsilon=1.0
        )
        sampled = bss.sample(series).values
        return beta_from_hurst(wavelet_hurst(sampled).hurst)

    def notes(ctx, columns):
        max_err = max(
            abs(b - h) for b, h in zip(BETAS, columns["beta_hat"])
        )
        return [
            f"max |beta_hat - beta| = {max_err:.3f} "
            "(BSS preserves second-order statistics)",
        ]

    return SweepSpec(
        panel_id="fig21",
        title="beta of the BSS-sampled process vs real beta "
              "(wavelet estimator)",
        x_name="beta",
        x_values=tuple(float(b) for b in BETAS),
        seed=seed,
        series=(CellSeries("beta_hat", beta_hat, round_to=4),),
        notes=notes,
    )


run = make_run(build_specs)
