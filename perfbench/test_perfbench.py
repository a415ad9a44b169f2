"""Tests of the benchmark's own logic, at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from perfbench import run
from perfbench.tracing import FIGURES, PER_LAYER, Tracer, layer_metrics
from perfbench.workloads import Campaign, Check, Figures, TraceMonitor

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ------------------------------------------------------------------ tracing
def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("traffic.outer"):
        clock.advance(1)
        with tracer.span("core.inner"):
            clock.advance(2)
            with tracer.span("core.inner"):  # recursion: busy counted once
                clock.advance(1)
        clock.advance(3)
    clock.advance(5)  # outside every span: unattributed

    assert tracer.busy["traffic.outer"] == 7
    assert tracer.self_time["traffic.outer"] == 4
    assert tracer.busy["core.inner"] == 3
    assert tracer.calls["core.inner"] == 1
    assert tracer.self_time["core.inner"] == 3

    values = layer_metrics(tracer, {}, {}, traced_wall=clock.now)
    assert values["traffic.self_s"] == 4
    assert values["core.self_s"] == 3
    assert values["unattributed_s"] == 5
    layer_self = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert layer_self + values["unattributed_s"] == values["obs.traced_wall_s"]


def test_helper_thread_spans_add_busy_but_not_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def reader():
        with tracer.span("trace.read"):
            clock.advance(2)

    with tracer.span("parallel.wait"):
        thread = threading.Thread(target=reader)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert tracer.busy["trace.read"] == 2
    assert "trace.read" not in tracer.self_time
    assert tracer.self_time["parallel.wait"] == 2


def test_wrapped_generator_is_timed_per_item():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def chunks():
        for i in range(3):
            clock.advance(1)
            yield i

    wrapped = tracer.wrap(chunks, "trace.read")
    assert list(wrapped()) == [0, 1, 2]
    assert tracer.busy["trace.read"] == 3


def test_patching_reaches_from_imports_and_is_undone():
    import repro.core.streaming as streaming
    import repro.scenarios.campaign as campaign

    original = streaming.apply_sampler
    tracer = Tracer()
    with tracer.installed():
        assert campaign.apply_sampler is streaming.apply_sampler
        assert campaign.apply_sampler is not original
    assert campaign.apply_sampler is original
    assert streaming.apply_sampler is original


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [w["name"] for w in spec["workloads"]] == [
        "figures", "campaign", "trace-monitor"
    ]
    from repro.experiments import available_experiments

    assert list(FIGURES) == available_experiments()


def test_wall_adds_each_operations_fastest_time():
    def timed(**ops):
        return {"ops": {name: {"wall_s": s, "cpu_s": s / 2}
                        for name, s in ops.items()}}

    passes = [timed(a=3.0, b=1.0), timed(a=2.0, b=4.0), timed(a=5.0, b=1.5)]
    assert run.fastest_ops(passes, "wall_s") == 3.0
    assert run.fastest_ops(passes, "cpu_s") == 1.5
    # An operation missing from a pass (it raised) still counts once.
    assert run.fastest_ops(passes + [timed(c=0.5)], "wall_s") == 3.5


def test_reference_speed_divides_each_operation_by_the_kernel_after_it():
    from perfbench.calibrate import REFERENCE_S

    def op(seconds, kernel):
        return {"wall_s": seconds, "cpu_s": seconds,
                "ref": {"wall_s": kernel, "cpu_s": kernel}}

    k = REFERENCE_S
    # The same pass on a machine running at full, half and a third speed.
    passes = [{"ops": {"a": op(1.0, k), "b": op(2.0, k)}},
              {"ops": {"a": op(2.0, 2 * k), "b": op(4.0, 2 * k)}},
              {"ops": {"a": op(3.0, 3 * k), "b": op(12.0, 3 * k)}}]
    assert run.reference_pass(passes[1]["ops"], "wall_s") == pytest.approx(3.0)
    assert run.reference_seconds(passes, "wall_s") == pytest.approx(3.0)
    assert run.reference_seconds(passes, "cpu_s") == pytest.approx(3.0)


def test_op_clock_times_each_operation():
    clock = run.OpClock()
    with clock("first"):
        sum(range(10_000))
    with pytest.raises(ValueError), clock("raises"):
        raise ValueError
    assert set(clock.ops) == {"first", "raises"}
    assert all(t["wall_s"] >= 0 and t["cpu_s"] >= 0 for t in clock.ops.values())
    assert all("ref" not in t for t in clock.ops.values())

    calibrated = run.OpClock(calibrate=True)
    with calibrated("first"):
        sum(range(10_000))
    assert calibrated.ops["first"]["ref"]["wall_s"] > 0


def test_environment_knobs_are_removed(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    assert run.pin_environment() == {"REPRO_WORKERS": "3"}
    import os

    assert "REPRO_WORKERS" not in os.environ


# ---------------------------------------------------------------- workloads
def test_figures_smoke_and_corrupted_panel(tmp_path):
    workload = Figures(5, names=("fig02", "fig13"), scale=0.05)
    workload.prepare(tmp_path)
    clock = run.OpClock()
    out = workload.run_pass(op=clock)
    assert set(clock.ops) == {"fig02", "fig13"}
    check = Check()
    workload.check(out, check)
    assert (check.attempted, check.failed) == (2, 0), check.failures
    assert workload.digest(out) == workload.digest(workload.run_pass())

    panel = out["fig13"][0]
    name = next(iter(panel.series))
    broken = dict(panel.series, **{name: list(panel.series[name])[:-1]})
    out["fig13"][0] = type(panel)(panel.experiment_id, panel.title,
                                  panel.x_name, panel.x_values, broken)
    check = Check()
    workload.check(out, check)
    assert check.failed == 1 and "fig13" in check.failures[0]


@pytest.fixture(scope="module")
def campaign_passes(tmp_path_factory):
    workload = Campaign(3, workers=1, smoke=True)
    workload.prepare(tmp_path_factory.mktemp("campaign"))
    outputs = [workload.run_pass() for _ in range(2)]
    workload.finish(outputs)
    return workload, outputs


def test_campaign_passes_use_fresh_directories(campaign_passes):
    workload, outputs = campaign_passes
    n = len(workload.cells)
    assert n == 45
    assert outputs[0]["directory"] != outputs[1]["directory"]
    for out in outputs:
        assert (out["summary"].executed, out["summary"].skipped) == (n, 0)
    assert outputs[0]["resume"].executed == 0
    assert workload.digest(outputs[0]) == workload.digest(outputs[1])
    check = Check()
    for out in outputs:
        workload.check(out, check)
    assert (check.attempted, check.failed) == (2 * n + 1, 0), check.failures

    workload._directories = 0  # a pass must never land on an existing store
    with pytest.raises(RuntimeError, match="would resume"):
        workload.fresh_directory()
    workload._directories = 2


def test_campaign_corrupted_record_fails_its_cell(campaign_passes):
    workload, outputs = campaign_passes
    path = outputs[1]["directory"] / "perfbench" / "results.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3].replace(b'"key":"', b'"key":"x', 1)
    path.write_bytes(b"".join(lines))
    problems = [p for p in workload.cell_problems(outputs[1]) if p]
    assert len(problems) == 1


def test_trace_monitor_smoke_and_tampered_counts(tmp_path):
    workload = TraceMonitor(11, n_packets=20_000, chunk_size=3_000)
    workload.prepare(tmp_path)
    clock = run.OpClock()
    out = workload.run_pass(op=clock)
    # Per file: the moments, 7 chunks, the end-of-file read, the tails.
    assert len(clock.ops) == 2 * (1 + 7 + 1 + 1)
    check = Check()
    workload.check(out, check)
    assert (check.attempted, check.failed) == (2, 0), check.failures
    assert out[".csv"] == out[".rpt"]
    assert all(k > 0 for k in out[".rpt"]["kept"])

    out[".rpt"]["kept"][2] += 1
    out[".csv"]["tails"][0][1] = float(np.nextafter(out[".csv"]["tails"][0][1], 2))
    check = Check()
    workload.check(out, check)
    assert check.failed == 2
