"""Smoke + invariant tests for the experiment harness (one per figure).

Each experiment runs at a small scale; assertions target the paper's
qualitative claims (the 'shape' contract of the reproduction), not exact
values.
"""

from __future__ import annotations

import golden
import numpy as np
import pytest

from repro.errors import ParameterError
from repro.experiments import available_experiments, run_experiment

# ``results`` (tests/conftest.py) holds every panel at golden.SCALE and
# golden.SEED, run once per session.


class TestHarness:
    def test_all_experiments_registered(self):
        names = available_experiments()
        expected = {f"fig{n:02d}" for n in range(2, 23) if n not in (0, 1)}
        assert set(names) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ParameterError):
            run_experiment("fig99")

    @pytest.mark.parametrize("scale", [-1.0, 0.0, 7.0, float("nan")])
    def test_out_of_range_scale_rejected(self, scale):
        # fig04 is closed-form: it never reaches config.scaled, so only
        # run_experiment's own check can catch the bad scale.
        with pytest.raises(ParameterError, match="scale"):
            run_experiment("fig04", scale=scale)

    def test_scaled_raises_parameter_error(self):
        from repro.experiments.config import scaled

        for scale in (0.0, 1.5, float("nan")):
            with pytest.raises(ParameterError, match="scale"):
                scaled(1 << 10, scale)
        assert scaled(1 << 12, 0.5) == 1 << 11

    def test_cli_checks_scale_before_dispatch(self, capsys, monkeypatch):
        import repro.parallel as parallel
        from repro.experiments.__main__ import main

        def _no_dispatch(*args, **kwargs):
            raise AssertionError("dispatched before checking --scale")

        monkeypatch.setattr(parallel, "run_shards", _no_dispatch)
        for argv in (["run", "fig04", "--scale", "-1"],
                     ["run", "all", "--scale", "0"],
                     ["run", "all", "--scale", "nan", "--workers", "2"]):
            with pytest.raises(ParameterError, match="scale"):
                main(argv)
        assert capsys.readouterr().out == ""

    def test_every_panel_renders(self, results):
        for panel in results.values():
            text = panel.render()
            assert panel.experiment_id in text
            assert len(text.splitlines()) >= 3

    def test_series_lengths_match_x(self, results):
        for panel in results.values():
            for name, column in panel.series.items():
                assert len(column) == len(panel.x_values), (
                    panel.experiment_id, name,
                )


class TestAnalyticFigures:
    def test_fig02_beta_recovered(self, results):
        panel = results["fig02b"]
        errs = [abs(b - h) for b, h in zip(panel.x_values, panel.series["beta_hat"])]
        assert max(errs) < 0.05

    def test_fig03_both_methods_preserve(self, results):
        for pid in ("fig03a", "fig03b"):
            panel = results[pid]
            errs = [
                abs(b - h)
                for b, h in zip(panel.x_values, panel.series["beta_hat"])
            ]
            assert max(errs) < 0.05, pid

    def test_fig04_all_positive(self, results):
        panel = results["fig04"]
        for column in panel.series.values():
            assert min(column) > 0

    def test_fig09_l_grows_with_eta(self, results):
        panel = results["fig09"]
        at_eps1 = [panel.series[f"eta={e}"][-1] for e in (0.1, 0.3, 0.5)]
        assert at_eps1[0] < at_eps1[1] < at_eps1[2]

    def test_fig10_eps2_matches_paper(self, results):
        """The xi=1 roots for L=10/L=8 land on the paper's 2.55/2.28."""
        notes = " ".join(results["fig10"].notes)
        assert "eps2=2.5" in notes or "eps2=2.6" in notes
        assert "eps2=2.2" in notes or "eps2=2.3" in notes

    def test_fig11_crosses_one_twice(self, results):
        xi = np.asarray(results["fig11"].series["xi"])
        crossings = np.sum(np.diff(np.sign(xi - 1.0)) != 0)
        assert crossings == 2

    def test_fig14_eps_grows_with_l(self, results):
        """Along a contour, larger L affords a higher threshold: xi(L, eps)
        increases in L on the decaying branch, so holding xi fixed pushes
        eps up."""
        column = results["fig14"].series["xi=1.4"]
        finite = [v for v in column if np.isfinite(v)]
        assert len(finite) >= 3
        assert finite == sorted(finite)

    def test_fig15_overhead_explodes_small_eps(self, results):
        panel = results["fig15"]
        row = panel.series["L=10"]
        assert row[0] > 10 * row[-1]


class TestTraceFigures:
    def test_fig06_eta_positive_at_low_rate(self, results):
        """At the lowest rate the median sampled mean under-estimates.

        One seed's eta is one draw (> 0 on 61 of seeds 77-140 for fig06a
        and 55 for fig06b), so the claim is on the mean eta over eight
        seeds, the fixture's and the seven after it.  Tolerance: > 0;
        disjoint blocks of 8 measured 0.12-0.34.
        """
        etas = {pid: [results[pid].series["eta"][0]]
                for pid in ("fig06a", "fig06b")}
        for seed in range(golden.SEED + 1, golden.SEED + 8):
            for panel in run_experiment("fig06", scale=golden.SCALE,
                                        seed=seed):
                etas[panel.experiment_id].append(panel.series["eta"][0])
        for pid, values in etas.items():
            assert np.mean(values) > 0.0, (pid, values)

    def test_fig06_sampled_below_real_at_low_rate(self, results):
        panel = results["fig06a"]
        assert panel.series["sampled_mean"][0] < panel.series["real_mean"][0]

    def test_fig07_heavy_burst_tail(self, results):
        for pid in ("fig07a", "fig07b"):
            notes = " ".join(results[pid].notes)
            alpha = float(notes.split("alpha = ")[1].split(" ")[0])
            assert 0.8 < alpha < 3.0, pid

    def test_fig08_alphas_near_construction(self, results):
        notes_a = " ".join(results["fig08a"].notes)
        notes_b = " ".join(results["fig08b"].notes)
        alpha_a = float(notes_a.split("alpha = ")[1].split(" ")[0])
        alpha_b = float(notes_b.split("alpha = ")[1].split(" ")[0])
        assert alpha_a == pytest.approx(1.5, abs=0.2)
        assert alpha_b == pytest.approx(1.71, abs=0.2)

    def test_fig12_unbiased_tracks_systematic(self, results):
        panel = results["fig12a"]
        proposed = np.asarray(panel.series["proposed"])
        systematic = np.asarray(panel.series["systematic"])
        # Low-rate cells: nearly identical (few qualified samples).
        assert abs(proposed[0] - systematic[0]) < 0.25 * abs(systematic[0])

    def test_fig18_bss_closer_to_real_at_low_rates(self, results):
        panel = results["fig18"]
        real = panel.series["real_mean"][0]
        # Compare average |error| over the lowest three rates.
        bss_err = np.mean(
            [abs(v - real) for v in panel.series["proposed"][:3]]
        )
        sys_err = np.mean(
            [abs(v - real) for v in panel.series["systematic"][:3]]
        )
        assert bss_err <= sys_err * 1.25

    def test_fig18_overhead_moderate(self, results):
        panel = results["fig18"]
        overheads = panel.series["bss_overhead"]
        assert max(overheads) < 1.0

    def test_fig21_beta_preserved(self, results):
        panel = results["fig21"]
        errs = [
            abs(b - h) for b, h in zip(panel.x_values, panel.series["beta_hat"])
        ]
        assert max(errs) < 0.2

    def test_fig22_same_order_of_magnitude(self, results):
        panel = results["fig22a"]
        ratio = np.asarray(panel.series["proposed"]) / np.maximum(
            np.asarray(panel.series["systematic"]), 1e-12
        )
        assert np.median(ratio) < 10.0
