"""Declarative scenario campaigns with a resumable result store.

The ROADMAP's "handles as many scenarios as you can imagine" subsystem:
the library's traffic models, samplers, Hurst estimators, and queueing
machinery are crossed into named evaluation campaigns —

1. a **scenario grammar** (:mod:`~repro.scenarios.specs`):
   ``TrafficSpec × SamplerSpec × EstimatorSuite × (optional) QueueSpec``
   with validated parameter grids;
2. a **registry** (:mod:`~repro.scenarios.registry`) of built-in
   scenarios covering every traffic model and sampling technique;
3. a **campaign runner** (:mod:`~repro.scenarios.campaign`) that expands
   grids into deterministically seeded cells and dispatches the pending
   cells over the worker pool in one call
   (:mod:`~repro.scenarios.schedule`), appending the records in
   canonical order (``workers=N ≡ workers=1``);
4. a **result store** (:mod:`~repro.scenarios.store`): append-only
   JSONL per campaign with a hashed manifest, so interrupted campaigns
   resume by skipping completed cells, byte-identically;
5. **reports** (:mod:`~repro.scenarios.report`): accuracy comparison
   tables over the stored reducers.

CLI: ``python -m repro.experiments scenarios {list,run,report}``.
"""

from repro.scenarios.campaign import (
    CampaignSummary,
    cell_label,
    evaluate_cell,
    expand_cells,
    run_campaign,
)
from repro.scenarios.registry import (
    available_scenarios,
    get_scenario,
    register_scenario,
)
from repro.scenarios.report import render_report, report_json
from repro.scenarios.specs import (
    Cell,
    EstimatorSuite,
    QueueSpec,
    SamplerSpec,
    Scenario,
    TrafficSpec,
)
from repro.scenarios.store import ResultStore, grid_hash

__all__ = [
    "TrafficSpec",
    "SamplerSpec",
    "EstimatorSuite",
    "QueueSpec",
    "Scenario",
    "Cell",
    "register_scenario",
    "available_scenarios",
    "get_scenario",
    "run_campaign",
    "evaluate_cell",
    "expand_cells",
    "cell_label",
    "CampaignSummary",
    "ResultStore",
    "grid_hash",
    "render_report",
    "report_json",
]
