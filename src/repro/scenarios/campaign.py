"""Campaign runner: expand scenario grids, evaluate cells, keep results.

A campaign is a named run of one or more scenarios.  Every cell is a
pure function of its seed label — the legacy ``stream_for`` grammar,
``"<campaign>:<scenario>:<cell>"`` with role suffixes (``:trace``,
``:est``, ``:ci``) for the independent random inputs inside a cell — so
cells can be re-run, skipped, or distributed without changing a single
number.  The cell is the unit of parallel work: :func:`run_campaign`
hands every pending cell to one dispatch
(:func:`repro.scenarios.schedule.iter_cell_results`) and appends the
records in canonical order, so ``workers=N`` is bit-identical to
``workers=1``.

What a rate-series cell records:

* **truth** — the full trace's mean (the paper's ``Xr``), its
  construction-time Hurst exponent, and its ``tail_quantile`` value;
* **estimate** — the ensemble-median sampled mean (the paper's "typical
  instance" view) plus ensemble mean/min/max, Hurst estimates and the
  tail quantile of a designated estimation instance, and optionally a
  bootstrap confidence interval on that instance;
* **errors** — the store's accuracy reducers
  (:mod:`repro.core.metrics`): signed relative error of the median mean,
  mean |relative error| across the ensemble, per-method absolute Hurst
  errors, tail relative error, CI coverage of the true H;
* **queue** (optional) — empirical Lindley tail at the spec's
  utilisation vs Norros predictions from truth and from the sampled
  estimates, reduced to mean |log10| discrepancies.

Packet cells record the same mean/tail structure over mean *packet
size* with count-based samplers; when their suite names Hurst methods
(or a queue spec), the full trace and the estimation substream are
projected onto one :class:`~repro.trace.binning.RateBinner` grid and the
same reducers run on the binned byte rate.
"""

from __future__ import annotations

import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import repro.obs as obs

from repro.core.metrics import (
    interval_coverage,
    mean_absolute_relative_error,
    relative_error,
)
from repro.core.streaming import apply_sampler
from repro.core.variance import instance_means
from repro.errors import ParameterError, ReproError
from repro.experiments.config import MASTER_SEED
from repro.hurst.confidence import hurst_confidence_interval
from repro.hurst.registry import estimate_hurst
from repro.parallel.executor import (
    RetryPolicy,
    default_workers,
    resolve_workers,
    retry_policy,
)
from repro.queueing.norros import overflow_probability
from repro.queueing.simulation import (
    queue_occupancy,
    tail_probabilities,
    utilisation_for_load,
)
from repro.scenarios.registry import available_scenarios, get_scenario
from repro.scenarios.schedule import iter_cell_results
from repro.scenarios.specs import Cell
from repro.scenarios.store import ResultStore
from repro.trace.binning import RateBinner
from repro.utils.rng import spawn_rngs, stream_for
from repro.utils.validation import require_int_at_least

#: Fewer sampled points than this and a Hurst estimate/tail quantile is
#: recorded as missing rather than fitted to noise.
MIN_ESTIMATION_SAMPLES = 64


def cell_label(campaign: str, cell: Cell) -> str:
    """The cell's seed-stream label: ``<campaign>:<scenario>:<cell>``."""
    return f"{campaign}:{cell.scenario}:{cell.cell_id}"


# ------------------------------------------------------------- evaluation
def _hurst_estimates(values: np.ndarray, methods) -> dict:
    """Per-method H of a sampled series (NaN where estimation fails)."""
    out = {}
    for method in methods:
        if values.size < MIN_ESTIMATION_SAMPLES:
            out[method] = float("nan")
            continue
        try:
            out[method] = float(estimate_hurst(values, method).hurst)
        except ReproError:
            out[method] = float("nan")
    return out


def _confidence(cell: Cell, values: np.ndarray, label: str, seed: int,
                true_hurst: float | None):
    """Bootstrap CI on the estimation instance, with coverage of truth."""
    suite = cell.estimators
    if suite.confidence_method is None:
        return None
    if values.size < MIN_ESTIMATION_SAMPLES:
        return {"method": suite.confidence_method, "low": None, "high": None,
                "covers": None}
    try:
        interval = hurst_confidence_interval(
            values,
            suite.confidence_method,
            level=suite.confidence_level,
            n_resamples=suite.n_resamples,
            rng=stream_for(label + ":ci", seed),
        )
    except ReproError:
        return {"method": suite.confidence_method, "low": None, "high": None,
                "covers": None}
    # The one place coverage is decided (reports only average the stored
    # booleans): the same closed-bounds reducer the metrics tests pin.
    covers = (
        interval_coverage([(interval.low, interval.high)], true_hurst) == 1.0
        if true_hurst is not None else None
    )
    return {
        "method": suite.confidence_method,
        "low": interval.low,
        "high": interval.high,
        "covers": covers,
    }


def _queue_study(cell: Cell, values: np.ndarray, true_hurst: float | None,
                 mean_estimate: float, hurst_estimates: dict):
    """Lindley tail of the full trace vs Norros predictions.

    The empirical side is :func:`tail_probabilities` (exact integer
    exceedance counts over the whole occupancy series).  Predictions use
    the trace
    peakedness ``a = Var/mean`` and either the ground truth (how good
    could provisioning be) or the sampled estimates (how good is it
    with this sampler) — their gap, in mean |log10 P|, is the
    operational cost of sampling error.
    """
    spec = cell.queue
    true_mean = float(values.mean())
    if true_mean <= 0:
        return None
    capacity = utilisation_for_load(true_mean, spec.utilisation)
    occupancy = queue_occupancy(values, capacity)
    q_max = float(occupancy.max())
    if q_max <= 0:
        return None
    thresholds = np.geomspace(max(q_max * 1e-3, 1e-9), q_max,
                              spec.n_thresholds)
    empirical = tail_probabilities(occupancy, thresholds)
    peakedness = float(values.var()) / true_mean

    def _norros_log_error(mean_rate, hurst):
        if mean_rate is None or hurst is None:
            return float("nan")
        if not np.isfinite(mean_rate) or not np.isfinite(hurst):
            return float("nan")
        if not 0.0 < hurst < 1.0 or mean_rate >= capacity or mean_rate <= 0:
            return float("nan")
        predicted = overflow_probability(
            thresholds, capacity, mean_rate, hurst,
            variance_coeff=peakedness,
        )
        keep = (empirical > 0) & (predicted > 0)
        if not keep.any():
            return float("nan")
        return float(
            np.abs(np.log10(predicted[keep]) - np.log10(empirical[keep])).mean()
        )

    # Strictly the sampled estimates: when no estimator produced a finite
    # H, the sampled prediction is *missing* (NaN -> null), never quietly
    # backfilled from the ground truth it is supposed to be compared to.
    sampled_hurst = next(
        (h for h in hurst_estimates.values() if np.isfinite(h)), None
    )
    return {
        "utilisation": spec.utilisation,
        "capacity": capacity,
        "occupancy_p99": float(np.quantile(occupancy, 0.99)),
        "norros_log10_err_truth": _norros_log_error(true_mean, true_hurst),
        "norros_log10_err_sampled": _norros_log_error(
            mean_estimate, sampled_hurst
        ),
    }


def _evaluate_series_cell(cell: Cell, label: str, seed: int) -> dict:
    """One rate-series cell: ensemble + estimation instance + reducers."""
    trace = cell.traffic.build(stream_for(label + ":trace", seed))
    values = trace.values
    suite = cell.estimators
    true_mean = float(values.mean())
    true_hurst = cell.traffic.target_hurst()
    true_tail = float(np.quantile(values, suite.tail_quantile))

    sampler = cell.sampler.build()
    means = instance_means(
        sampler, trace, cell.n_instances, stream_for(label, seed)
    )
    mean_estimate = float(np.median(means))

    # One designated estimation instance carries the H/tail questions;
    # its randomness is its own stream, apart from the ensemble's.
    est = sampler.sample(trace, stream_for(label + ":est", seed))
    est_values = est.values
    hursts = _hurst_estimates(est_values, suite.methods)
    tail_estimate = (
        float(np.quantile(est_values, suite.tail_quantile))
        if est_values.size >= MIN_ESTIMATION_SAMPLES else float("nan")
    )

    errors = {
        "mean": relative_error(mean_estimate, true_mean),
        "mean_abs_ensemble": mean_absolute_relative_error(means, true_mean),
        "tail": (
            relative_error(tail_estimate, true_tail)
            if np.isfinite(tail_estimate) and true_tail != 0 else float("nan")
        ),
        "hurst": {
            method: (
                abs(h - true_hurst)
                if true_hurst is not None and np.isfinite(h) else float("nan")
            )
            for method, h in hursts.items()
        },
    }
    record = {
        "key": cell.key,
        "label": label,
        **cell.to_json(),
        "truth": {"mean": true_mean, "hurst": true_hurst, "tail": true_tail},
        "estimate": {
            "mean": mean_estimate,
            "mean_avg": float(means.mean()),
            "mean_min": float(means.min()),
            "mean_max": float(means.max()),
            "n_samples": int(est.n_samples),
            "hurst": hursts,
            "tail": tail_estimate,
        },
        "errors": errors,
        "confidence": _confidence(cell, est_values, label, seed, true_hurst),
    }
    if cell.queue is not None:
        record["queue"] = _queue_study(
            cell, values, true_hurst, mean_estimate, hursts
        )
    return record


def _evaluate_packet_cell(cell: Cell, label: str, seed: int) -> dict:
    """One packet cell: mean wire size recovery under count-based sampling.

    When the cell's suite names Hurst methods, the full trace and the
    estimation substream are projected onto one fixed
    :class:`~repro.trace.binning.RateBinner` grid (bytes per bin), so
    the estimators compare like with like: ``truth.hurst`` is the
    full-trace binned-rate H per method (packet models have no
    construction-time exponent), and ``errors.hurst`` measures the
    sampled substream against it.  An optional queue spec runs the same
    Lindley-vs-Norros study as rate cells on the binned full rate, with
    the sampled prediction fed by the expansion-estimated mean rate
    (sampled bin mass scaled by the known 1-in-N inverse sampling
    fraction).
    """
    trace = cell.traffic.build(stream_for(label + ":trace", seed))
    sizes = trace.sizes.astype(np.float64)
    suite = cell.estimators
    true_mean = float(sizes.mean())
    true_tail = float(np.quantile(sizes, suite.tail_quantile))

    children = spawn_rngs(stream_for(label, seed), cell.n_instances)
    means = np.empty(cell.n_instances, dtype=np.float64)
    for i, child in enumerate(children):
        sampled = apply_sampler(cell.sampler.build_packet(child), trace)
        means[i] = (
            float(sampled.sizes.mean()) if len(sampled) else float("nan")
        )
    mean_estimate = float(np.nanmedian(means))

    est = apply_sampler(
        cell.sampler.build_packet(stream_for(label + ":est", seed)), trace
    )
    est_sizes = est.sizes.astype(np.float64)
    tail_estimate = (
        float(np.quantile(est_sizes, suite.tail_quantile))
        if est_sizes.size >= MIN_ESTIMATION_SAMPLES else float("nan")
    )

    needs_rates = suite.methods or cell.queue is not None
    full_rate = est_rate = None
    if needs_rates:
        binner = RateBinner.for_trace(trace)
        full_rate = binner.bin(trace).values
        est_rate = binner.bin(est).values
    true_hursts = (
        _hurst_estimates(full_rate, suite.methods) if suite.methods else {}
    )
    if suite.methods and len(est) >= MIN_ESTIMATION_SAMPLES:
        # Gate on the substream's *packet* count, not the bin count: the
        # grid always has n_bins entries, however starved the sample.
        hursts = _hurst_estimates(est_rate, suite.methods)
    else:
        hursts = {method: float("nan") for method in suite.methods}

    record = {
        "key": cell.key,
        "label": label,
        **cell.to_json(),
        "truth": {
            "mean": true_mean,
            "hurst": true_hursts or None,
            "tail": true_tail,
        },
        "estimate": {
            "mean": mean_estimate,
            "mean_avg": float(np.nanmean(means)),
            "mean_min": float(np.nanmin(means)),
            "mean_max": float(np.nanmax(means)),
            "n_samples": int(len(est)),
            "hurst": hursts,
            "tail": tail_estimate,
        },
        "errors": {
            "mean": relative_error(mean_estimate, true_mean),
            "mean_abs_ensemble": mean_absolute_relative_error(means, true_mean),
            "tail": (
                relative_error(tail_estimate, true_tail)
                if np.isfinite(tail_estimate) else float("nan")
            ),
            "hurst": {
                method: (
                    abs(h - true_hursts[method])
                    if np.isfinite(h) and np.isfinite(true_hursts[method])
                    else float("nan")
                )
                for method, h in hursts.items()
            },
        },
        "confidence": None,
    }
    if cell.queue is not None:
        reference_hurst = next(
            (h for h in true_hursts.values() if np.isfinite(h)), None
        )
        expansion = len(trace) / len(est) if len(est) else float("nan")
        rate_estimate = float(est_rate.mean()) * expansion
        record["queue"] = _queue_study(
            cell, full_rate, reference_hurst, rate_estimate, hursts
        )
    return record


def evaluate_cell(cell: Cell, *, campaign: str, seed: int = MASTER_SEED) -> dict:
    """Evaluate one cell into its (JSON-safe) result record.

    Pure in the label/seed: the same ``(campaign, cell, seed)`` always
    produces the same record, for any worker count — the property the
    resumable store and the determinism tests rely on.
    """
    label = cell_label(campaign, cell)
    if cell.traffic.is_packet_trace:
        return _evaluate_packet_cell(cell, label, seed)
    return _evaluate_series_cell(cell, label, seed)


# ---------------------------------------------------------------- campaign
@dataclass(frozen=True)
class CampaignSummary:
    """What a campaign run did (printed by the CLI, asserted by CI)."""

    campaign: str
    n_cells: int
    executed: int
    skipped: int
    store: ResultStore
    quarantined: int = 0

    def render(self) -> str:
        quarantine = (
            f" quarantined={self.quarantined}" if self.quarantined else ""
        )
        return (
            f"campaign {self.campaign}: cells={self.n_cells} "
            f"executed={self.executed} skipped={self.skipped}"
            f"{quarantine} -> {self.store.results_path}"
        )


@contextmanager
def _sigterm_as_interrupt():
    """Treat SIGTERM like SIGINT for the duration of a campaign.

    An orchestrator's polite kill must get the same clean shutdown a
    Ctrl-C gets: the store is already durable per append, so all that
    remains is tearing the worker pool down instead of orphaning it.
    Only the main thread may install signal handlers; elsewhere this is
    a no-op and SIGTERM keeps its default (immediate) effect.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    owner = os.getpid()

    def _raise(signum, frame):
        if os.getpid() != owner:
            # Forked pool workers inherit this handler; a terminated
            # worker must just die, not raise into its task loop.
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)
            return
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _raise)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def expand_cells(scenario_names=None, *, smoke: bool = False) -> list[Cell]:
    """Every cell of the named scenarios (default: all), in run order.

    Duplicate names are rejected: the duplicated cells would share
    resume keys, so the manifest's cell count could never be reached and
    the campaign would read incomplete forever.
    """
    names = (
        list(scenario_names) if scenario_names else available_scenarios()
    )
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise ParameterError(
            f"scenario names listed more than once: {sorted(duplicates)}"
        )
    cells = []
    for name in names:
        cells.extend(get_scenario(name).cells(smoke=smoke))
    return cells


def run_campaign(
    scenario_names=None,
    *,
    campaign: str,
    results_dir="results",
    seed: int = MASTER_SEED,
    smoke: bool = False,
    workers: int | None = None,
    resume: bool = False,
    max_cells: int | None = None,
    retry: RetryPolicy | None = None,
    schedule: str | None = None,
) -> CampaignSummary:
    """Run (or resume) a campaign over the named scenarios.

    Completed cells are skipped on resume; every pending cell goes to
    one dispatch (:func:`~repro.scenarios.schedule.iter_cell_results`)
    over ``workers`` processes (``None``: the session default), in
    canonical order.  This process is the sole store writer and appends
    each record as soon as the cells before it are done, so the store
    and manifest are byte-identical for any worker count.
    ``max_cells`` caps how many pending cells this invocation attempts
    — the hook the interruption tests (and incremental jobs) use.

    ``schedule`` does nothing: it accepts only ``None`` and ``"auto"``,
    and stays only because ``perfbench/workloads.py`` passes it.

    Failure handling: ``retry`` (default: the session
    :class:`~repro.parallel.RetryPolicy`) governs the executor's
    worker-loss/deadline supervision of each cell.  A cell whose retry
    budget is exhausted is *quarantined* — recorded in the store's
    sidecar, counted in the summary — and the campaign moves on; the
    next ``resume=True`` run re-attempts exactly those cells.  SIGINT
    and SIGTERM shut down cleanly: results are durable per append, the
    cells still in flight are forfeited (resume re-runs them), and the
    worker pool is torn down rather than orphaned.
    """
    if max_cells is not None:
        require_int_at_least("max_cells", max_cells, 0)
    if schedule not in (None, "auto"):
        raise ParameterError(
            f"schedule must be None or 'auto', got {schedule!r}"
        )
    cells = expand_cells(scenario_names, smoke=smoke)
    store = ResultStore.open(
        results_dir, campaign, seed=seed, cells=cells, smoke=smoke,
        resume=resume,
    )
    executed = skipped = quarantined = 0
    telemetry_meta = {"campaign": campaign, "seed": int(seed),
                      "smoke": bool(smoke), "resume": bool(resume)}

    # One scoped collector per campaign: the sidecar below covers exactly
    # this run, while an enclosing telemetry() scope (tests) still
    # absorbs everything on exit.  None when telemetry is off.
    with obs.scoped_collector() as collector:
        with _sigterm_as_interrupt(), default_workers(workers), \
                retry_policy(retry), \
                obs.span("campaign", name=campaign, smoke=smoke):
            pending = []
            for cell in cells:
                if store.is_completed(cell.key):
                    skipped += 1
                else:
                    pending.append(cell)
            if max_cells is not None:
                pending = pending[:max_cells]
            if skipped:
                obs.count("campaign.cells_skipped", skipped)
            telemetry_meta["workers"] = resolve_workers(None)
            # The loop holds the only reference to the dispatch: an
            # interrupt or a failed append that leaves it drops the
            # dispatch, whose ``finally`` tears the worker pool down.
            for cell, outcome in iter_cell_results(
                pending, campaign=campaign, seed=seed
            ):
                if outcome[0] == "ok":
                    store.append(outcome[1])
                    executed += 1
                    obs.count("campaign.cells_executed")
                    continue
                _, error_type, message = outcome
                obs.event("campaign.quarantine", key=cell.key,
                          error=error_type)
                obs.count("campaign.cells_quarantined")
                store.quarantine({
                    "key": cell.key,
                    "label": cell_label(campaign, cell),
                    "error": {"type": error_type, "message": message},
                })
                quarantined += 1
        store.finalize([cell.key for cell in cells])
        if collector is not None:
            collector.event("campaign.summary", executed=executed,
                            skipped=skipped, quarantined=quarantined)
            _write_telemetry(store, collector, telemetry_meta)
    return CampaignSummary(
        campaign=campaign,
        n_cells=len(cells),
        executed=executed,
        skipped=skipped,
        store=store,
        quarantined=quarantined,
    )


def _write_telemetry(store: ResultStore, collector, meta: dict) -> None:
    """Append this run to the campaign's ``telemetry.jsonl`` sidecar.

    The sidecar lives next to the store but is explicitly *outside* the
    byte-identity contracts (it is where wall-clock time lives); the
    manifest never hashes or counts it, and resume ignores it.
    """
    from repro.obs.record import write_run

    write_run(store.directory / "telemetry.jsonl", collector, meta)
