"""Absolute output pins: figure panels, the smoke campaign's store and
the trace writers' capture files against ``tests/golden.json``.

Any drift fails, naming the moved keys and the recorded and installed
NumPy versions.  An intended output change is re-recorded with
``python tests/golden.py`` and declared in CHANGES.md.
"""

from __future__ import annotations

import re

import golden


def test_figure_panels(results):
    recorded = golden.load()
    message = golden.drift_message(
        "panels", recorded, golden.panel_digests(results))
    assert not message, message


def test_smoke_campaign(tmp_path):
    recorded = golden.load()
    message = golden.drift_message(
        "campaign", recorded,
        {"smoke": golden.smoke_campaign_digests(tmp_path)})
    assert not message, message


def test_capture_files(tmp_path):
    recorded = golden.load()
    message = golden.drift_message(
        "captures", recorded, golden.capture_digests(tmp_path))
    assert not message, message


def test_records_perfbench_digests_for_ci():
    perfbench = golden.load()["perfbench"]
    assert sorted(perfbench) == sorted(golden.PERFBENCH_WORKLOADS)
    for digests in perfbench.values():
        assert sorted(digests) == sorted(map(str, golden.PERFBENCH_SEEDS))
        assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests.values())


def test_drift_names_keys_and_versions():
    recorded = {"versions": {"numpy": "0.0"},
                "panels": {"fig02a": "a", "fig06a": "b"}}
    message = golden.drift_message(
        "panels", recorded, {"fig02a": "a", "fig06a": "c", "fig99": "d"})
    assert "panels.fig06a, panels.fig99" in message
    assert "numpy 0.0" in message
    assert f"numpy {golden.versions()['numpy']}" in message
    assert not golden.drift_message("panels", recorded, recorded["panels"])
