"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figures --seed 20050608 --seconds 10 --trace 0

``--trace 0`` sets up, repeats identical timed passes of the workload
until ``--seconds`` have passed (at least two; six for ``campaign``),
checks every output and prints the end-to-end metrics.  Every operation
of a pass (a figure, a campaign, a stage of the monitor) is timed on its
own.  ``wall_s`` and ``cpu_s`` add up each operation's fastest time over
the run's passes; on a workload whose operations are short
(``trace-monitor``), each operation is instead followed by the reference
kernel of ``calibrate.py`` and they are the median pass at the reference
machine's speed (see :func:`reference_seconds`).  ``--trace 1`` runs one
untraced and one traced pass (two for ``campaign``) and prints the
per-layer metrics instead.
Human-readable lines start with ``#``; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it give the machine header, the output
digest, the per-pass times and any failed operation.

The program is imported from ``src/`` of the checkout; the benchmark
refuses to run without it.  All files it writes live under
``.perfbench_work/`` in the checkout and are removed on exit.
"""

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

#: The program's environment knobs.  The benchmark measures the defaults,
#: so any of these found set is removed and the removal recorded.
KNOBS = ("REPRO_WORKERS", "REPRO_RUNTIME", "REPRO_SCHEDULE", "REPRO_PREFETCH",
         "REPRO_KERNELS", "REPRO_TELEMETRY", "REPRO_FAULTS")

#: The seed to use by default, and one kept out of tuning, to confirm a
#: claimed gain on inputs it was not developed against.
DEFAULT_SEED = 20050608
HELD_OUT_SEED = 7211

#: Fresh-interpreter import probe: the set-up a user pays on every run.
_PROBE = ("import importlib, sys; sys.path.insert(0, sys.argv[1]); "
          "[importlib.import_module(m) for m in sys.argv[2:]]")

#: Set-ups per run: ``setup_s`` is the fastest of the import probes plus
#: each step of the input preparation at its fastest.
PROBES = 7
PREPARES = 5

#: Seconds of operation per run of the reference kernel after it.
CALIBRATE_EVERY = 0.1

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "frac"),
)


def pin_environment() -> dict:
    """Remove the program's knobs from the environment; return what was set."""
    return {name: os.environ.pop(name) for name in KNOBS if name in os.environ}


def machine_header() -> dict:
    """The program's own machine metadata, plus what a comparison needs."""
    import numpy
    from repro.parallel.executor import machine_metadata

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        **machine_metadata(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class OpClock:
    """Wall and CPU seconds of each named operation of one pass.

    A workload wraps every operation of a pass in ``with op(name):``.
    With ``calibrate``, the reference kernel then runs about once per
    :data:`CALIBRATE_EVERY` seconds the operation took, and its mean
    times are kept with the operation's under ``"ref"``.
    """

    def __init__(self, calibrate: bool = False):
        self.calibrate = calibrate
        self.ops: dict = {}

    @contextmanager
    def __call__(self, name: str):
        cpu = _cpu_seconds()
        started = time.perf_counter()
        try:
            yield
        finally:
            op = {"wall_s": time.perf_counter() - started,
                  "cpu_s": _cpu_seconds() - cpu}
            if self.calibrate:
                from perfbench import calibrate

                op["ref"] = calibrate.measure(
                    max(1, round(op["wall_s"] / CALIBRATE_EVERY))
                )
            self.ops[name] = op


def timed_pass(workload, calibrate: bool = False, **kwargs) -> dict:
    """One pass; its wall and CPU include the calibrations, if any."""
    clock = OpClock(calibrate)
    cpu = _cpu_seconds()
    started = time.perf_counter()
    out = workload.run_pass(op=clock, **kwargs)
    wall = time.perf_counter() - started
    return {"out": out, "wall_s": wall, "cpu_s": _cpu_seconds() - cpu,
            "ops": clock.ops}


def fastest_ops(passes: list, key: str) -> float:
    """Each operation's fastest ``key`` over the passes, added up.

    The host switches between two speeds about 1.7x apart every one to
    three seconds; the fastest time of each operation follows the
    program and not that switching.
    """
    names = {name for p in passes for name in p["ops"]}
    return sum(min(p["ops"][name][key] for p in passes if name in p["ops"])
               for name in names)


def reference_pass(ops: dict, key: str) -> float:
    """One pass's ``key`` at the reference speed: each operation's time
    over the reference kernel's right after it, added up, in seconds of
    the machine on which the kernel takes ``REFERENCE_S``."""
    from perfbench.calibrate import REFERENCE_S

    return REFERENCE_S * sum(op[key] / op["ref"][key] for op in ops.values())


def reference_seconds(passes: list, key: str) -> float:
    """The median pass's ``key`` at the reference speed.

    The host can also stay slow for a whole run, and then slows
    interpreted code most, in CPU time as much as in wall time, so the
    fastest operation of a run does not follow the program alone.  An
    operation much shorter than a second and the kernel run right after
    it see the same speed, and their ratio cancels it.
    """
    return statistics.median(reference_pass(p["ops"], key) for p in passes)


def _timed_repeats(action, repeats: int) -> list:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        action()
        times.append(time.perf_counter() - started)
    return times


def import_probes(workload, repeats: int) -> list:
    """Fresh interpreters importing the workload's modules.  They run after
    the timed phase and after peak RSS is read, because RUSAGE_CHILDREN
    would otherwise count the probes as the workload's children."""
    return _timed_repeats(lambda: subprocess.run(
        [sys.executable, "-c", _PROBE, str(SRC), *workload.modules],
        check=True,
    ), repeats)


def measure(workload, seconds: float, check) -> dict:
    """Identical timed passes until ``seconds`` have passed and at least
    the workload's ``min_passes`` ran.  The median pass at the reference
    speed on a ``calibrated`` workload, which keeps each operation's
    fastest time as ``measured``; else each operation's fastest time."""
    passes = []
    started = time.perf_counter()
    while (len(passes) < workload.min_passes
           or time.perf_counter() - started < seconds):
        passes.append(timed_pass(workload, calibrate=workload.calibrated))
    workload.finish([p["out"] for p in passes])
    digest = workload.digest(passes[0]["out"])
    for p in passes:
        workload.check(p["out"], check)
        check.op(None if workload.digest(p["out"]) == digest
                 else "a pass changed the output of an identical pass")
    keys = ("wall_s", "cpu_s")
    fastest = {key: fastest_ops(passes, key) for key in keys}
    if not workload.calibrated:
        return {"digest": digest, "metrics": fastest,
                "passes": {key: [p[key] for p in passes] for key in keys}}
    return {
        "digest": digest,
        "metrics": {key: reference_seconds(passes, key) for key in keys},
        "measured": fastest,
        "passes": {f"{key[:-2]}_ref_s": [reference_pass(p["ops"], key)
                                         for p in passes] for key in keys},
    }


def trace(workload, check) -> dict:
    """One untraced pass, then the workload's traced runs; layer metrics."""
    import repro.obs as obs
    from perfbench.tracing import POOL_SIDE, Tracer, layer_metrics, top_spans

    base = timed_pass(workload)
    workload.check(base["out"], check)
    digest = workload.digest(base["out"])
    runs = []
    for workers, resume in workload.traced_runs:
        tracer = Tracer()
        with obs.telemetry() as collector, tracer.installed():
            traced = timed_pass(workload, span=tracer.span,
                                workers=workers, resume=resume)
        workload.check(traced["out"], check)
        check.op(None if workload.digest(traced["out"]) == digest
                 else f"traced run (workers={workers}) changed the output")
        runs.append((tracer, traced, layer_metrics(
            tracer, collector.counters, collector.gauges, traced["wall_s"]
        )))
    tracer, _, values = runs[0]
    for _, _, pool_values in runs[1:]:
        values.update({k: pool_values[k] for k in POOL_SIDE})
    values["obs.trace_overhead_frac"] = runs[-1][1]["wall_s"] / base["wall_s"] - 1
    return {
        "digest": digest,
        "passes": {"untraced_wall_s": [base["wall_s"]],
                   "traced_wall_s": [r[1]["wall_s"] for r in runs]},
        "top_spans": top_spans(tracer),
        "metrics": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "campaign", "trace-monitor"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scrubbed = pin_environment()
    for name, value in scrubbed.items():
        print(f"# WARNING: ignoring {name}={value}; the benchmark measures "
              "the defaults", file=sys.stderr)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    (WORKDIR / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(WORKDIR / "tmp")
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import repro
        if not Path(repro.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"repro imported from {repro.__file__}, "
                             f"not from {SRC}")
        from perfbench.tracing import PER_LAYER
        from perfbench.workloads import WORKLOADS, Check

        header = machine_header()
        # Seeds reach NumPy generators, which take non-negative integers.
        workload = WORKLOADS[args.workload](args.seed % 2**31)
        prepares = []
        for _ in range(PREPARES):
            clock = OpClock()
            workload.prepare(WORKDIR, op=clock)
            prepares.append({"ops": clock.ops})
        setup = {"prepare_s": [sum(op["wall_s"] for op in p["ops"].values())
                               for p in prepares]}
        check = Check()
        if args.trace:
            result = trace(workload, check)
            units = [(name, unit) for name, unit, _ in PER_LAYER]
        else:
            result = measure(workload, args.seconds, check)
            result["metrics"]["peak_rss_mb"] = _peak_rss_mb()
            result["metrics"]["ops_ok_frac"] = 1 - check.failed / check.attempted
            units = END_TO_END
        setup["import_s"] = import_probes(workload, PROBES)
        result["metrics"]["setup_s"] = (min(setup["import_s"])
                                        + fastest_ops(prepares, "wall_s"))
    finally:
        for child in multiprocessing.active_children():
            child.join(timeout=30)
        shutil.rmtree(WORKDIR, ignore_errors=True)

    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "header": header, "env_scrubbed": scrubbed,
        "digest": result["digest"], "setup": setup,
        "passes": result["passes"],
        "attempted": check.attempted, "failed": check.failed,
        "failures": check.failures[:50], "metrics": metrics,
        "measured": result.get("measured", {}),
        "top_spans": result.get("top_spans", []),
    }
    _print_report(record)
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0


def _print_report(record: dict) -> None:
    passes = record["passes"]
    print(f"# perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} passes={len(next(iter(passes.values())))}")
    print(f"# machine {json.dumps(record['header'], sort_keys=True)}")
    if record["env_scrubbed"]:
        print(f"# FLAG env knobs ignored: {sorted(record['env_scrubbed'])}")
    print(f"# digest sha256:{record['digest']}")
    for key, values in passes.items():
        print(f"# passes {key} {json.dumps(values)}")
    for key in ("import_s", "prepare_s"):
        print(f"# setup {key} {json.dumps(record['setup'][key])}")
    for name, metric in record["metrics"].items():
        print(f"# {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in record["measured"].items():
        print(f"# {name:<42} {value:>14.6g} s (fastest operations, as measured)")
    failed, attempted = record["failed"], record["attempted"]
    print(f"# {'ops_failed_frac':<42} {failed / attempted:>14.6g} frac "
          f"({failed} of {attempted} operations failed)")
    for span, seconds in record["top_spans"]:
        print(f"# top self time: {span} {seconds:.3f} s")
    for problem in record["failures"]:
        print(f"# FAILED {problem}")


if __name__ == "__main__":
    sys.exit(main())
