"""Average variance of sampling results, E(V) (paper Sec. IV).

``E(V) = E[(X_i - X_bar)^2]`` where ``X_i`` is the sampled mean of
instance i and ``X_bar`` the true mean of the parent series.  Instances
differ by their randomness: the starting offset for systematic sampling,
the per-stratum picks for stratified, the chosen subset for simple random.

Theorem 2 (Cochran 8.6) predicts ``E(V_sys) <= E(V_strat) <= E(V_ran)``
whenever the ACF satisfies ``delta_tau >= 0`` — which Fig. 4 established
for self-similar traffic; Fig. 5 verifies the ordering empirically and
Fig. 22 shows BSS inherits systematic sampling's low variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.theory import delta_tau
from repro.core.base import Sampler, check_interval, series_values
from repro.core.bss import BiasedSystematicSampler
from repro.core.simple_random import SimpleRandomSampler
from repro.core.stratified import StratifiedSampler
from repro.core.systematic import SystematicSampler
from repro.errors import ParameterError
from repro.utils.rng import normalize_rng, spawn_rngs
from repro.utils.validation import require_int_at_least


def instance_means(
    sampler: Sampler, process, n_instances: int, rng=None
) -> np.ndarray:
    """Sampled means of ``n_instances`` independent sampling instances.

    Samplers whose randomness is a starting offset (systematic, BSS with
    ``offset=None``) get fresh offsets per instance via their own rng
    plumbing; fully random samplers get independent child generators.

    Offset-randomized systematic and stratified ensembles are batched:
    the per-instance randomness is drawn from each child generator exactly
    as ``sample`` would, then every instance's samples are fetched with a
    single 2-D index-matrix gather and reduced along rows — one numpy
    dispatch for the whole Monte-Carlo ensemble instead of one sampling
    pass per instance.  ``_reference_instance_means`` keeps the
    instance-at-a-time loop for parity testing.
    """
    require_int_at_least("n_instances", n_instances, 1)
    children = spawn_rngs(normalize_rng(rng), n_instances)
    if isinstance(sampler, SystematicSampler) and sampler.offset is None:
        return _systematic_instance_means(sampler, process, children)
    if isinstance(sampler, StratifiedSampler):
        return _stratified_instance_means(sampler, process, children)
    return np.array(
        [sampler.sample(process, child).sampled_mean for child in children]
    )


def _systematic_instance_means(
    sampler: SystematicSampler, process, children
) -> np.ndarray:
    """Batched ensemble means for random-offset systematic sampling."""
    values = series_values(process)
    interval = check_interval(sampler.interval, values.size)
    offsets = np.array(
        [int(child.integers(0, interval)) for child in children],
        dtype=np.int64,
    )
    # Instances whose offset leaves the same sample count share one
    # rectangular gather (counts differ by at most 1 across offsets).
    counts = -((offsets - values.size) // interval)
    means = np.empty(offsets.size, dtype=np.float64)
    for count in np.unique(counts):
        rows = counts == count
        idx = offsets[rows, None] + np.arange(count, dtype=np.int64) * interval
        means[rows] = values[idx].mean(axis=1)
    return means


def _stratified_instance_means(
    sampler: StratifiedSampler, process, children
) -> np.ndarray:
    """Batched ensemble means for stratified sampling."""
    values = series_values(process)
    interval = check_interval(sampler.interval, values.size)
    n_full = values.size // interval
    remainder = values.size - n_full * interval
    n_cols = n_full + (1 if remainder > 0 else 0)
    idx = np.empty((len(children), n_cols), dtype=np.int64)
    starts = np.arange(n_full, dtype=np.int64) * interval
    for row, child in enumerate(children):
        # Same draws, in the same order, as StratifiedSampler.sample.
        idx[row, :n_full] = starts + child.integers(0, interval, size=n_full)
        if remainder > 0:
            idx[row, n_full] = n_full * interval + int(
                child.integers(0, remainder)
            )
    return values[idx].mean(axis=1)


def _reference_instance_means(
    sampler: Sampler, process, n_instances: int, rng=None
) -> np.ndarray:
    """Original instance-at-a-time loop (kept for parity tests)."""
    require_int_at_least("n_instances", n_instances, 1)
    gen = normalize_rng(rng)
    children = spawn_rngs(gen, n_instances)
    return np.array(
        [sampler.sample(process, child).sampled_mean for child in children]
    )


def average_variance(
    sampler: Sampler,
    process,
    n_instances: int,
    rng=None,
    *,
    true_mean: float | None = None,
) -> float:
    """E(V): mean squared deviation of instance means from the true mean."""
    values = series_values(process)
    target = float(values.mean()) if true_mean is None else float(true_mean)
    means = instance_means(sampler, process, n_instances, rng)
    return float(np.mean((means - target) ** 2))


@dataclass(frozen=True)
class VarianceComparison:
    """E(V) of the three classical techniques at one sampling rate."""

    rate: float
    systematic: float
    stratified: float
    simple_random: float

    @property
    def ordering_holds(self) -> bool:
        """Theorem 2's prediction, allowing 10% estimation slack."""
        return (
            self.systematic <= self.stratified * 1.1
            and self.stratified <= self.simple_random * 1.1
        )


def compare_variances(
    process,
    rate: float,
    *,
    n_instances: int = 64,
    rng=None,
) -> VarianceComparison:
    """One row of Fig. 5: E(V) for the three techniques at one rate."""
    values = series_values(process)
    interval = max(int(round(1.0 / rate)), 1)
    if interval > values.size:
        raise ParameterError(
            f"rate {rate} implies interval {interval} > series length {values.size}"
        )
    gen = normalize_rng(rng)
    systematic = average_variance(
        SystematicSampler(interval, offset=None), values, n_instances, gen
    )
    stratified = average_variance(
        StratifiedSampler(interval), values, n_instances, gen
    )
    simple = average_variance(
        SimpleRandomSampler(rate=rate), values, n_instances, gen
    )
    return VarianceComparison(
        rate=rate,
        systematic=systematic,
        stratified=stratified,
        simple_random=simple,
    )


def bss_variance_pair(
    process,
    rate: float,
    *,
    alpha: float = 1.5,
    cs: float = 0.3,
    extra_samples: int | None = None,
    epsilon: float = 1.0,
    n_instances: int = 64,
    rng=None,
) -> tuple[float, float]:
    """Fig. 22's comparison: (E(V) systematic, E(V) BSS) at one rate.

    By default BSS is configured with the paper's online design rule
    (eta from Eq. 35 via ``alpha``/``cs``), matching how Fig. 22 was
    produced — a fixed large L at a high rate would inject deliberate
    bias and inflate E(V) meaninglessly.  Pass ``extra_samples`` to pin
    L instead.
    """
    values = series_values(process)
    interval = max(int(round(1.0 / rate)), 1)
    gen = normalize_rng(rng)
    ev_sys = average_variance(
        SystematicSampler(interval, offset=None), values, n_instances, gen
    )
    if extra_samples is None:
        bss = BiasedSystematicSampler.design(
            rate, alpha, cs=cs, epsilon=epsilon,
            total_points=values.size, offset=None,
        )
    else:
        bss = BiasedSystematicSampler(
            interval, extra_samples, epsilon=epsilon, offset=None
        )
    ev_bss = average_variance(bss, values, n_instances, gen)
    return ev_sys, ev_bss


def theorem2_condition_holds(beta: float, *, max_tau: int = 1000) -> bool:
    """Check Eq. (16) (delta_tau >= 0) for the self-similar ACF model."""
    return bool(np.all(delta_tau(np.arange(1, max_tau + 1), beta) >= 0))
