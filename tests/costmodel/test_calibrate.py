"""Calibration-harness tests: probe sampling, fit validation, the CLI.

The contract under test (:mod:`repro.costmodel.calibrate`):

* :func:`probe_signatures` is deterministic, respects its budget, always
  keeps the signature-space extremes, and rejects an empty budget,
* :func:`calibrate_model` probes the exact engine, fits, and reports
  held-out residuals small enough to be a useful surrogate,
* the ``python -m repro.costmodel calibrate`` CLI writes a loadable JSON
  artifact, honors ``--tolerance`` and fails cleanly on bad configs.
"""

import json
import warnings

import pytest

from repro.core.errors import ConfigError
from repro.costmodel import (CalibratedCostModel,
                             CostModelExtrapolationWarning, TableCostModel,
                             calibrate_model, load_cost_model,
                             probe_signatures, run_probes)
from repro.costmodel.__main__ import main as costmodel_main
from repro.schedules import Schedule
from repro.serve.library import _serve_model


class TestProbeSignatures:
    def test_deterministic(self):
        assert probe_signatures(24) == probe_signatures(24)

    def test_budget_respected(self):
        assert len(probe_signatures(10)) == 10
        assert len(probe_signatures(1)) == 1

    def test_big_budget_returns_full_grid(self):
        grid = probe_signatures(10_000)
        assert len(grid) < 10_000
        assert len(set(grid)) == len(grid)

    def test_extremes_survive_any_budget(self):
        grid = probe_signatures(10_000)
        sampled = probe_signatures(8)
        assert sampled[0] == grid[0]
        assert sampled[-1] == grid[-1]

    def test_signatures_are_sorted_multisets(self):
        for num_tokens, kv_lengths in probe_signatures(64):
            assert num_tokens >= 1
            assert kv_lengths == tuple(sorted(kv_lengths))

    def test_empty_budget_rejected(self):
        with pytest.raises(ConfigError, match="probe budget"):
            probe_signatures(0)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ConfigError, match="batch_cap"):
            probe_signatures(8, batch_cap=0)
        with pytest.raises(ConfigError, match="max_kv_rows"):
            probe_signatures(8, kv_tile_rows=64, max_kv_rows=32)


class TestRunProbes:
    def test_probes_are_positive_and_contexted(self):
        model = _serve_model(64)
        signatures = probe_signatures(6, batch_cap=2, max_tokens=32,
                                      max_kv_rows=256)
        probes, context = run_probes(signatures, model=model,
                                     schedule=Schedule.dynamic(),
                                     num_layers=1)
        assert len(probes) == len(signatures)
        assert context
        assert all(cycles > 0 for *_, cycles in probes)


class TestCalibrateModel:
    def test_report_fields_and_holdout(self):
        model = _serve_model(64)
        fitted, report = calibrate_model(model, budget=16, batch_cap=4,
                                         max_tokens=64, max_kv_rows=512,
                                         num_layers=1)
        assert isinstance(fitted, CalibratedCostModel)
        assert report["kind"] == "calibrated"
        assert report["platform"] == "sda"
        assert report["probes"] == 16
        assert report["holdout_probes"] > 0
        assert report["fit_probes"] + report["holdout_probes"] == 16
        assert report["holdout_max_rel"] >= report["holdout_mean_rel"] >= 0.0
        assert report["fit"]["num_probes"] == report["fit_probes"]
        assert fitted.context_hash == report["context"]

    def test_table_kind(self):
        model = _serve_model(64)
        fitted, report = calibrate_model(model, kind="table", budget=6,
                                         batch_cap=2, max_tokens=32,
                                         max_kv_rows=256, num_layers=1)
        assert isinstance(fitted, TableCostModel)
        assert report["kind"] == "table"

    def test_tiny_budget_skips_holdout(self):
        model = _serve_model(64)
        fitted, report = calibrate_model(model, budget=4, batch_cap=2,
                                         max_tokens=32, max_kv_rows=256,
                                         num_layers=1)
        assert report["holdout_probes"] == 0
        assert report["holdout_max_rel"] == 0.0

    def test_empty_budget_rejected(self):
        with pytest.raises(ConfigError, match="probe budget"):
            calibrate_model(_serve_model(64), budget=0)

    @pytest.mark.parametrize("kind", ["calibrated", "table"])
    @pytest.mark.parametrize("extrapolation", ["clamp", "raise"])
    def test_holdout_scoring_skips_the_guard(self, kind, extrapolation):
        """Held-out probes here lie outside the fit set's feature ranges;
        scoring them neither warns nor raises, and the scores are the clamped
        predictions, whatever extrapolation mode the fitted model carries."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", CostModelExtrapolationWarning)
            fitted, report = calibrate_model(
                _serve_model(64), kind=kind, budget=16, batch_cap=4,
                max_tokens=64, max_kv_rows=512, num_layers=1,
                extrapolation=extrapolation)
        assert fitted.extrapolation == extrapolation
        assert report["holdout_probes"] > 0
        assert report["holdout_max_rel"] >= report["holdout_mean_rel"] > 0.0


class TestCLI:
    def _calibrate(self, *extra):
        return costmodel_main(["calibrate", "--model-scale", "64",
                               "--budget", "8", "--batch-cap", "2",
                               "--max-tokens", "32", "--max-kv-rows", "256",
                               "--num-layers", "1", *extra])

    def test_writes_loadable_artifact(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        assert self._calibrate("--output", str(path)) == 0
        report = json.loads(capsys.readouterr().out.split("wrote")[0])
        assert report["probes"] == 8
        model = load_cost_model(str(path))
        assert isinstance(model, CalibratedCostModel)
        assert model.context_hash == report["context"]

    def test_tolerance_gate(self, capsys):
        assert self._calibrate("--tolerance", "1e9") == 0
        capsys.readouterr()
        assert self._calibrate("--tolerance", "0.0") == 1
        assert "exceeds the tolerance" in capsys.readouterr().err

    def test_raise_mode_exits_zero(self, capsys):
        """A held-out probe of these settings has 33 tokens against a fit
        set's maximum of 17: scoring it must not trip the guard."""
        assert self._calibrate("--extrapolation", "raise") == 0
        assert "outside the probed ranges" not in capsys.readouterr().err

    def test_config_errors_exit_2(self, capsys):
        assert self._calibrate("--budget", "0") == 2
        assert "probe budget" in capsys.readouterr().err
