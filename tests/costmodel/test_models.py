"""Cost-model artifact tests: registry, table/calibrated fits, guards, JSON.

The contract under test (:mod:`repro.costmodel.models`):

* the builtin kinds are registered and **sealed** — re-registration and
  unknown-name resolution fail with listing errors,
* a :class:`TableCostModel` replays probed signatures exactly and
  interpolates unseen ones; a :class:`CalibratedCostModel` recovers an
  affine cost law exactly and records its residual metadata,
* extrapolation outside the probed ranges is **never silent**: it clamps
  with a :class:`CostModelExtrapolationWarning` or raises,
* every artifact survives a JSON round-trip, and fitted models refuse to
  run against a context they were not calibrated for.
"""

import json

import pytest

from repro.core.errors import ConfigError
from repro.costmodel import (CalibratedCostModel, CostModelExtrapolationWarning,
                             ExactCostModel, FEATURE_NAMES, TableCostModel,
                             check_context, cost_model_from_dict,
                             cost_model_names, fit_calibrated_model,
                             fit_from_probes, get_cost_model_class,
                             load_cost_model, register_cost_model,
                             resolve_cost_model, save_cost_model,
                             signature_features)

#: an exactly-affine synthetic cost law the calibrated fit must recover
AFFINE = (100.0, 7.0, 3.0, 0.25)  # intercept, tokens, requests, kv_rows


def affine_cycles(num_tokens, kv_lengths):
    features = signature_features(num_tokens, kv_lengths)
    return sum(c * f for c, f in zip(AFFINE, features))


def affine_probes():
    signatures = [(t, (kv,) * r)
                  for t in (1, 4, 16, 64)
                  for r in (1, 2, 4)
                  for kv in (64, 256, 1024)]
    return [(t, k, affine_cycles(t, k)) for t, k in signatures]


class TestRegistry:
    def test_builtins_registered(self):
        assert cost_model_names() == ["calibrated", "exact", "table"]
        assert get_cost_model_class("table") is TableCostModel
        assert get_cost_model_class("calibrated") is CalibratedCostModel
        assert get_cost_model_class("exact") is ExactCostModel

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigError, match="calibrated"):
            get_cost_model_class("quadratic")

    def test_builtins_are_sealed(self):
        with pytest.raises(ConfigError, match="sealed|already registered"):
            register_cost_model("table")(TableCostModel)


class TestSignatureFeatures:
    def test_basis(self):
        assert signature_features(5, (64, 128)) == (1.0, 5.0, 2.0, 192.0)
        assert len(FEATURE_NAMES) == 4


class TestExactCostModel:
    def test_predict_refuses(self):
        with pytest.raises(ConfigError, match="delegates"):
            ExactCostModel().predict(1, (64,))

    def test_round_trip(self):
        payload = ExactCostModel().to_dict()
        assert payload == {"kind": "exact"}
        assert isinstance(cost_model_from_dict(payload), ExactCostModel)


class TestTableCostModel:
    def test_probed_signatures_replay_exactly(self):
        probes = affine_probes()
        table = TableCostModel(probes=probes)
        for t, k, cycles in probes:
            assert table.predict(t, k) == cycles

    def test_interpolation_between_probes(self):
        # two probes; an in-range unseen signature lands between their costs
        table = TableCostModel(probes=[(1, (64,), 100.0), (9, (192,), 300.0)],
                               neighbors=2)
        mid = table.predict(5, (128,))
        assert 100.0 < mid < 300.0

    def test_empty_probes_rejected(self):
        with pytest.raises(ConfigError, match="at least one probe"):
            TableCostModel(probes=())

    def test_extrapolation_clamps_with_warning(self):
        table = TableCostModel(probes=affine_probes())
        with pytest.warns(CostModelExtrapolationWarning, match="outside"):
            clamped = table.predict(4096, (65536,))
        # clamped to the probed range: bounded by the probed cycle extremes
        cycles = [c for *_, c in affine_probes()]
        assert min(cycles) <= clamped <= max(cycles)
        assert table.predict_clamped(4096, (65536,)) == clamped

    def test_extrapolation_raise_mode(self):
        table = TableCostModel(probes=affine_probes(), extrapolation="raise")
        with pytest.raises(ConfigError, match="extrapolation"):
            table.predict(4096, (65536,))
        # the unguarded clamped prediction neither raises nor warns
        assert table.predict_clamped(4096, (65536,)) == \
            TableCostModel(probes=affine_probes()).predict_clamped(4096, (65536,))

    def test_unknown_extrapolation_mode(self):
        with pytest.raises(ConfigError, match="extrapolation"):
            TableCostModel(probes=affine_probes(), extrapolation="linear")

    def test_json_round_trip(self):
        table = TableCostModel(probes=affine_probes(), context_hash="ctx",
                               kv_tile_rows=128, neighbors=3)
        rebuilt = cost_model_from_dict(json.loads(json.dumps(table.to_dict())))
        assert rebuilt == table
        assert rebuilt.predict(4, (256, 256)) == table.predict(4, (256, 256))


class TestCalibratedCostModel:
    def test_fit_recovers_affine_law(self):
        fitted = fit_calibrated_model(affine_probes(), context_hash="ctx")
        assert fitted.num_probes == len(affine_probes())
        assert fitted.residual_max_rel < 1e-6
        for t, k in ((2, (128,)), (8, (64, 256)), (32, (1024, 64, 64))):
            assert fitted.predict(t, k) == pytest.approx(
                affine_cycles(t, k), rel=1e-6)

    def test_fit_metadata(self):
        fitted = fit_calibrated_model(affine_probes(), context_hash="ctx")
        meta = fitted.fit_metadata()
        assert meta["num_probes"] == len(affine_probes())
        assert meta["feature_names"] == list(FEATURE_NAMES)
        assert meta["context_hash"] == "ctx"
        assert len(meta["coefficients"]) == len(FEATURE_NAMES)

    def test_zero_probes_rejected(self):
        with pytest.raises(ConfigError, match="zero probes"):
            fit_calibrated_model([])

    def test_underdetermined_fit_rejected(self):
        probes = affine_probes()[:len(FEATURE_NAMES) - 1]
        with pytest.raises(ConfigError, match="table"):
            fit_calibrated_model(probes)

    def test_prediction_floor_is_one_cycle(self):
        # coefficients that dip below zero in-range still cost >= 1 cycle
        model = CalibratedCostModel(
            coefficients=(-1000.0, 1.0, 1.0, 0.0),
            feature_min=(1.0, 1.0, 1.0, 64.0),
            feature_max=(1.0, 64.0, 8.0, 4096.0),
            num_probes=4, residual_mean_rel=0.0, residual_max_rel=0.0,
            cycles_min=1.0, cycles_max=2.0)
        assert model.predict(1, (64,)) == 1.0

    def test_extrapolation_clamps_with_warning(self):
        fitted = fit_calibrated_model(affine_probes())
        with pytest.warns(CostModelExtrapolationWarning, match="clamping"):
            clamped = fitted.predict(4096, (65536,) * 2)
        # clamping is per-feature: tokens and kv_rows snap to their probed
        # maxima while the in-range request count (2) is preserved
        assert clamped == pytest.approx(fitted.predict(64, (2048, 2048)),
                                        rel=1e-6)
        assert fitted.predict_clamped(4096, (65536,) * 2) == clamped

    def test_extrapolation_raise_mode(self):
        fitted = fit_calibrated_model(affine_probes(), extrapolation="raise")
        with pytest.raises(ConfigError, match="recalibrate"):
            fitted.predict(4096, (65536,))
        # the unguarded clamped prediction neither raises nor warns
        assert fitted.predict_clamped(4096, (65536,)) == \
            fit_calibrated_model(affine_probes()).predict_clamped(4096, (65536,))

    def test_json_round_trip(self):
        fitted = fit_calibrated_model(affine_probes(), context_hash="ctx",
                                      kv_tile_rows=128)
        rebuilt = cost_model_from_dict(json.loads(json.dumps(fitted.to_dict())))
        assert rebuilt == fitted


class TestFitFromProbes:
    def test_calibrated_kind(self):
        fitted = fit_from_probes(affine_probes(), kind="calibrated")
        assert isinstance(fitted, CalibratedCostModel)

    def test_table_kind(self):
        fitted = fit_from_probes(affine_probes(), kind="table")
        assert isinstance(fitted, TableCostModel)

    def test_small_probe_set_falls_back_to_table(self):
        probes = affine_probes()[:2]
        fitted = fit_from_probes(probes, kind="calibrated")
        assert isinstance(fitted, TableCostModel)
        # single-signature workloads therefore stay exact
        t, k, cycles = probes[0]
        assert fitted.predict(t, k) == cycles

    def test_zero_probes_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            fit_from_probes([], kind="calibrated")

    def test_unfittable_kind_rejected(self):
        with pytest.raises(ConfigError, match="exact"):
            fit_from_probes(affine_probes(), kind="exact")


class TestResolveCostModel:
    def test_none_is_not_a_spelling(self):
        # one spelling per costing mode: the default is the name "exact"
        with pytest.raises(ConfigError, match="registered name"):
            resolve_cost_model(None)

    def test_exact_artifact_resolves_to_the_engine(self):
        assert resolve_cost_model({"kind": "exact"}) == "exact"
        assert resolve_cost_model(ExactCostModel()) == "exact"

    def test_registered_names_pass(self):
        for name in cost_model_names():
            assert resolve_cost_model(name) == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="registered"):
            resolve_cost_model("quadratic")

    def test_payload_dict_is_reconstructed(self):
        table = TableCostModel(probes=affine_probes())
        resolved = resolve_cost_model(table.to_dict())
        assert resolved == table

    def test_instances_pass_through(self):
        table = TableCostModel(probes=affine_probes())
        assert resolve_cost_model(table) is table

    def test_paths_and_junk_rejected(self):
        # file paths must be loaded via load_cost_model first, so sweep
        # cache keys hash model content rather than a mutable path
        with pytest.raises(ConfigError, match="registered"):
            resolve_cost_model("/tmp/costmodel.json")
        with pytest.raises(ConfigError, match="cost_model must be"):
            resolve_cost_model(42)

    def test_payload_without_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            cost_model_from_dict({"probes": []})


class TestSaveLoad:
    def test_round_trip_via_file(self, tmp_path):
        fitted = fit_calibrated_model(affine_probes(), context_hash="ctx")
        path = tmp_path / "model.json"
        save_cost_model(fitted, str(path))
        assert load_cost_model(str(path)) == fitted

    def test_context_check(self):
        fitted = fit_calibrated_model(affine_probes(), context_hash="ctx-a")
        check_context(fitted, "ctx-a")  # matching context passes
        with pytest.raises(ConfigError, match="recalibrate"):
            check_context(fitted, "ctx-b")

    def test_uncalibrated_context_passes_everywhere(self):
        table = TableCostModel(probes=affine_probes())  # context_hash=""
        check_context(table, "any-context")
