"""CLI for the experiment harness.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run fig18 [--scale 0.5] [--seed 1]
    python -m repro.experiments run all   [--scale 0.25] [--workers 4]
    python -m repro.experiments run fig18 [--telemetry on]
    python -m repro.experiments runtime
    python -m repro.experiments scenarios list
    python -m repro.experiments scenarios run [NAME ...] [--smoke] [--resume]
        [--workers N] [--max-attempts N] [--shard-deadline S]
        [--telemetry on] [--profile DIR]
    python -m repro.experiments scenarios report --campaign NAME [--json]
    python -m repro.experiments telemetry {summary,spans,timeline} --campaign NAME

Whole figures and whole campaign cells are the one grain of parallel
work: ``run all --workers N`` runs N figures at a time and ``scenarios
run --workers N`` runs N cells at a time, each in one dispatch over a
per-command worker pool.  Output is printed (or appended to the store)
in canonical order as each prefix completes, and is byte-identical for
any N.  ``--workers`` wins over the ``REPRO_WORKERS`` environment
variable, which sets the session default.  ``run`` and ``scenarios
run`` share one definition of ``--workers``, ``--telemetry`` and
``--seed``.  The ``runtime`` subcommand prints the parallel
configuration this machine and environment would run with, each knob
annotated with its provenance (default / env / context / cli).

``--telemetry on`` (or ``REPRO_TELEMETRY=on``) records span traces,
metrics, and structured events through :mod:`repro.obs`; campaigns also
write a ``telemetry.jsonl`` sidecar next to their store, which the
``telemetry`` subcommand reads back as a summary table, span tree, or
dispatch timeline.  Stores, manifests, and figures stay byte-identical
with telemetry on or off.  ``scenarios run --profile DIR`` additionally
dumps per-cell cProfile stats into ``DIR`` and prints the aggregated
hot-path table.

``scenarios run`` executes declarative evaluation campaigns
(:mod:`repro.scenarios`) into an append-only result store under
``results/<campaign>/``; an interrupted campaign continues with
``--resume``, skipping every completed cell, and ``scenarios report``
renders the stored accuracy comparison tables.  ``--max-attempts`` and
``--shard-deadline`` tune the executor's worker-loss/deadline
supervision of each cell.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments.runner import (
    available_experiments,
    execution_scope,
    experiment_module,
    timed_experiment,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures as text tables.",
    )
    # The flags ``run`` and ``scenarios run`` share, defined once.
    execution = argparse.ArgumentParser(add_help=False)
    execution.add_argument("--seed", type=int, default=None,
                           help="override the master seed")
    execution.add_argument("--workers", type=int, default=None,
                           help="run N figures (or campaign cells) at a "
                                "time in worker processes; output is "
                                "identical for any N (overrides the "
                                "REPRO_WORKERS env default)")
    execution.add_argument("--telemetry", choices=("on", "off"),
                           default=None,
                           help="record span traces, metrics, and events; "
                                "a campaign also writes a telemetry.jsonl "
                                "sidecar next to its store (output stays "
                                "byte-identical; default from "
                                "REPRO_TELEMETRY, else off)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runner = sub.add_parser("run", parents=[execution],
                            help="run one experiment (or 'all')")
    runner.add_argument("name", help="experiment name, e.g. fig18, or 'all'")
    runner.add_argument("--scale", type=float, default=1.0,
                        help="workload scale in (0, 1] (default 1.0)")
    sub.add_parser(
        "runtime",
        help="show the parallel runtime configuration for this "
             "machine/session, with each knob's provenance",
    )
    scenarios = sub.add_parser(
        "scenarios",
        help="declarative evaluation campaigns with a resumable store",
    )
    scen_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    scen_sub.add_parser("list", help="list registered scenarios")
    scen_run = scen_sub.add_parser(
        "run", parents=[execution],
        help="run a campaign (all scenarios unless names are given)",
    )
    scen_run.add_argument("names", nargs="*",
                          help="scenario names (default: every registered one)")
    scen_run.add_argument("--campaign", default=None,
                          help="campaign name / store directory (defaults to "
                               "'smoke' with --smoke, else 'full')")
    scen_run.add_argument("--smoke", action="store_true",
                          help="shrink workload sizes (never the grids) for "
                               "a fast deterministic end-to-end pass")
    scen_run.add_argument("--resume", action="store_true",
                          help="continue an interrupted campaign, skipping "
                               "completed cells (byte-identical store)")
    scen_run.add_argument("--results-dir", default="results",
                          help="store root directory (default results/)")
    scen_run.add_argument("--max-attempts", type=int, default=None,
                          help="per-cell retry budget for worker-loss/"
                               "deadline recovery (default 3; 1 never "
                               "retries: a lost cell is quarantined at "
                               "once)")
    scen_run.add_argument("--shard-deadline", type=float, default=None,
                          help="seconds a cell may run in its worker "
                               "before it is retried (default: no "
                               "deadline)")
    scen_run.add_argument("--profile", default=None, metavar="DIR",
                          help="dump per-worker cProfile stats into DIR and "
                               "print the aggregated hot-path table after "
                               "the campaign")
    scen_report = scen_sub.add_parser(
        "report", help="render a stored campaign's comparison tables"
    )
    scen_report.add_argument("--campaign", required=True)
    scen_report.add_argument("--results-dir", default="results")
    scen_report.add_argument("--json", action="store_true",
                             help="emit the same aggregations as "
                                  "machine-readable JSON")

    telemetry = sub.add_parser(
        "telemetry",
        help="inspect a campaign's telemetry.jsonl sidecar",
    )
    telemetry.add_argument("view", choices=("summary", "spans", "timeline"),
                           help="'summary' aggregates spans/counters/gauges, "
                                "'spans' prints the span tree, 'timeline' "
                                "shows the cell dispatch and the critical "
                                "path")
    telemetry.add_argument("--campaign", required=True,
                           help="campaign whose sidecar to read")
    telemetry.add_argument("--results-dir", default="results",
                           help="store root directory (default results/)")
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in available_experiments():
            print(name)
        return 0

    if args.command == "runtime":
        return _runtime_main()

    if args.command == "telemetry":
        return _telemetry_main(args)

    if args.command == "scenarios":
        return _scenarios_main(args)

    from repro.parallel import run_shards
    from repro.utils.validation import require_probability

    names = available_experiments() if args.name == "all" else [args.name]
    require_probability("scale", args.scale)
    # Import every figure (and the science it uses) before the pool forks,
    # so the workers inherit the modules instead of each importing them.
    for name in names:
        experiment_module(name)
    telemetry = None if args.telemetry is None else args.telemetry == "on"
    # One dispatch of whole figures; each is printed once it and every
    # figure before it are done, so the output reads the same for any N.
    tasks = [(name, args.scale, args.seed) for name in names]
    with execution_scope(workers=args.workers, telemetry=telemetry):
        for name, (panels, elapsed) in zip(
            names, run_shards(timed_experiment, tasks)
        ):
            for panel in panels:
                print(panel.render())
                print()
            print(f"[{name}] completed in {elapsed:.1f}s\n", flush=True)
    return 0


def _runtime_main() -> int:
    """The ``runtime`` subcommand: every knob plus its provenance.

    Each line reads ``knob: value [source] (ENV=...)`` — the source is
    where the effective value came from (``default``, ``env``,
    ``context``, or ``cli``), so a surprising setting is traceable to
    the environment variable or scope that set it.
    """
    import repro.obs as obs
    from repro.parallel import (
        get_default_workers,
        pool_start_method,
        suggested_workers,
        workers_provenance,
    )

    def _env(var: str) -> str:
        return f"({var}={os.environ.get(var, 'unset')})"

    print(f"cpu_count:          {os.cpu_count()}")
    print(f"suggested_workers:  {suggested_workers()}")
    print(f"pool_start_method:  {pool_start_method()}")
    print(f"default_workers:    {get_default_workers()} "
          f"[{workers_provenance()}] {_env('REPRO_WORKERS')}")
    print(f"telemetry:          "
          f"{'on' if obs.telemetry_enabled() else 'off'} "
          f"[{obs.telemetry_provenance()}] {_env('REPRO_TELEMETRY')}")
    return 0


def _telemetry_main(args) -> int:
    """The ``telemetry`` subcommand: read back a campaign's sidecar."""
    from repro.obs.report import (
        load_runs,
        render_spans,
        render_summary,
        render_timeline,
    )

    path = os.path.join(args.results_dir, args.campaign, "telemetry.jsonl")
    runs = load_runs(path)
    run = runs[-1]  # a resumed campaign appends; the last run is current
    if len(runs) > 1:
        print(f"({len(runs)} runs recorded; showing the most recent)\n")
    renderer = {
        "summary": render_summary,
        "spans": render_spans,
        "timeline": render_timeline,
    }[args.view]
    print(renderer(run))
    return 0


def _scenarios_main(args) -> int:
    """The ``scenarios`` subcommand family (lazy import: heavy package)."""
    from repro.scenarios import (
        ResultStore,
        available_scenarios,
        get_scenario,
        render_report,
        report_json,
        run_campaign,
    )

    if args.scenarios_command == "list":
        for name in available_scenarios():
            scenario = get_scenario(name)
            n_cells = len(scenario.cells())
            print(f"{name:<24} {n_cells:>3} cells  {scenario.description}")
        return 0

    if args.scenarios_command == "report":
        import json

        store = ResultStore(os.path.join(args.results_dir, args.campaign))
        if args.json:
            print(json.dumps(report_json(store), indent=2, sort_keys=True))
        else:
            print(render_report(store))
        return 0

    import contextlib

    campaign = args.campaign or ("smoke" if args.smoke else "full")
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.max_attempts is not None or args.shard_deadline is not None:
        from repro.parallel import RetryPolicy, get_retry_policy

        current = get_retry_policy()
        kwargs["retry"] = RetryPolicy(
            max_attempts=(
                args.max_attempts if args.max_attempts is not None
                else current.max_attempts
            ),
            shard_deadline=args.shard_deadline,
        )
    telemetry = None if args.telemetry is None else args.telemetry == "on"
    if args.profile is not None:
        import repro.obs as obs

        profile_scope = obs.profiling(args.profile)
    else:
        profile_scope = contextlib.nullcontext()
    start = time.perf_counter()
    with profile_scope, \
            execution_scope(workers=args.workers, telemetry=telemetry):
        summary = run_campaign(
            args.names or None,
            campaign=campaign,
            results_dir=args.results_dir,
            smoke=args.smoke,
            resume=args.resume,
            **kwargs,
        )
    elapsed = time.perf_counter() - start
    print(summary.render())
    print(f"completed in {elapsed:.1f}s")
    if args.profile is not None:
        from repro.obs.profile import render_profile

        print()
        print(render_profile(args.profile))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `... | head`: not an error of ours
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
