"""The tier-1 surrogate error-bound pin, plus cost-model config semantics.

The headline contract of the two-tier engine
(:mod:`repro.costmodel.runtime` + ``ServeConfig(cost_model=...)``):

* the default config is **bit-identical** to an explicit
  ``cost_model="exact"`` (and to its ``{"kind": "exact"}`` payload) — the
  equivalence anchor,
* the adaptive calibrated surrogate reproduces exact TTFT/TPOT/e2e
  percentiles within :data:`repro.costmodel.SURROGATE_TOLERANCE` across
  platforms and scheduling policies (the documented error bound),
* surrogate runs are deterministic: the same config reproduces the same
  report, and per-trace invariants (request and output-token counts)
  match the exact engine exactly,
* single-signature workloads stay exact (the probe budget covers them, the
  table fallback replays probes verbatim),
* misconfiguration fails loudly: the retired ``engine`` knob, empty
  calibration budgets, unknown cost-model names, fitted models applied to a
  mismatched context.
"""

import warnings

import pytest

from repro.core.errors import ConfigError
from repro.costmodel import SURROGATE_TOLERANCE, calibrate_model
from repro.platforms import get_platform
from repro.schedules import Schedule
from repro.serve import ServeConfig, simulate_serving, trace_from_lists
from repro.serve.generators import generate_trace
from repro.serve.library import _serve_model
from repro.serve.policy import get_serve_policy

MODEL = _serve_model(64)

#: the serving percentiles the error bound is pinned on
PINNED_METRICS = ("ttft_p50", "ttft_p99", "tpot_p50", "tpot_p99",
                  "e2e_p50", "e2e_p99")


def heavy_trace(num_requests=32, seed=0):
    return generate_trace("heavy-tail", rate=400.0, num_requests=num_requests,
                          seed=seed, prompt_mean=48.0, prompt_max=192,
                          output_mean=4.0, output_max=8)


def run(trace, platform=None, policy=None, **knobs):
    knobs.setdefault("batch_cap", 4)
    knobs.setdefault("num_layers", 1)
    config = ServeConfig(model=MODEL, policy=policy, **knobs)
    hardware = get_platform(platform) if platform else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # drain-phase extrapolation clamps
        return simulate_serving(config, trace, Schedule.dynamic(),
                                hardware=hardware)


class TestExactEquivalence:
    def test_default_is_bit_identical_to_explicit_exact(self):
        trace = heavy_trace()
        default = run(trace)
        for spelling in ("exact", {"kind": "exact"}):
            explicit = run(trace, cost_model=spelling)
            assert explicit.to_dict() == default.to_dict()
            assert explicit.metrics() == default.metrics()


class TestErrorBound:
    @pytest.mark.parametrize("platform", ["sda", "sda-hbm-small"])
    @pytest.mark.parametrize("policy", ["default", "chunked-prefill"])
    def test_percentiles_within_documented_tolerance(self, platform, policy):
        """The tier-1 pin: surrogate percentiles vs exact, per platform x policy."""
        trace = heavy_trace()
        spec = get_serve_policy(policy)
        exact = run(trace, platform=platform, policy=spec).metrics()
        surrogate = run(trace, cost_model="calibrated", platform=platform,
                        policy=spec, calibration_budget=16).metrics()
        for key in PINNED_METRICS:
            rel = abs(surrogate[key] - exact[key]) / max(abs(exact[key]), 1e-9)
            assert rel <= SURROGATE_TOLERANCE, (
                f"{platform}/{policy}: {key} off by {rel:.1%} "
                f"(exact {exact[key]}, surrogate {surrogate[key]})")

    @pytest.mark.parametrize("platform", ["sda", "sda-hbm-small"])
    def test_scheduling_counts_match_exact(self, platform):
        """Per-trace invariants hold — every request completes in full."""
        trace = heavy_trace()
        exact = run(trace, platform=platform)
        surrogate = run(trace, cost_model="calibrated", platform=platform,
                        calibration_budget=16)
        assert surrogate.num_requests == exact.num_requests
        assert surrogate.total_output_tokens == exact.total_output_tokens


class TestDeterminism:
    def test_rerun_is_bit_identical(self):
        trace = heavy_trace()
        first = run(trace, cost_model="calibrated", calibration_budget=12)
        second = run(trace, cost_model="calibrated", calibration_budget=12)
        assert first.to_dict() == second.to_dict()

    def test_table_kind_is_deterministic_too(self):
        trace = heavy_trace()
        first = run(trace, cost_model="table", calibration_budget=12)
        second = run(trace, cost_model="table", calibration_budget=12)
        assert first.to_dict() == second.to_dict()


class TestSingleSignatureWorkloads:
    def test_constant_workload_stays_exact(self):
        """One distinct signature -> the probe covers it; no prediction ever."""
        n = 6
        trace = trace_from_lists([float(i) * 50_000.0 for i in range(n)],
                                 [16] * n, [1] * n, name="constant")
        exact = run(trace)
        surrogate = run(trace, cost_model="calibrated", calibration_budget=2)
        assert surrogate.to_dict() == exact.to_dict()


class TestConfigValidation:
    def test_engine_is_not_a_knob(self):
        # cost_model is the only costing axis
        with pytest.raises(TypeError, match="engine"):
            ServeConfig(model=MODEL, engine="exact")

    def test_empty_calibration_budget(self):
        with pytest.raises(ConfigError, match="calibration_budget"):
            ServeConfig(model=MODEL, cost_model="calibrated",
                        calibration_budget=0)

    def test_exact_is_the_default(self):
        assert ServeConfig(model=MODEL).cost_model == "exact"

    def test_unknown_cost_model_name(self):
        with pytest.raises(ConfigError, match="registered"):
            ServeConfig(model=MODEL, cost_model="quadratic")

    def test_none_is_rejected(self):
        with pytest.raises(ConfigError, match="registered name"):
            ServeConfig(model=MODEL, cost_model=None)

    def test_mismatched_context_is_refused(self):
        """A model calibrated for seed 0 must not run against seed 1."""
        fitted, _ = calibrate_model(MODEL, budget=8, batch_cap=2,
                                    max_tokens=32, max_kv_rows=256,
                                    num_layers=1, seed=0)
        trace = heavy_trace(num_requests=4)
        run(trace, cost_model=fitted, num_layers=1,
            kv_tile_rows=64, seed=0)  # matching context serves fine
        with pytest.raises(ConfigError, match="recalibrate"):
            run(trace, cost_model=fitted, num_layers=1,
                kv_tile_rows=64, seed=1)


class TestFittedArtifacts:
    def test_offline_calibrated_model_serves(self):
        """A harness-fitted artifact plugs into the engine and stays bounded."""
        fitted, _ = calibrate_model(MODEL, budget=32, batch_cap=4,
                                    max_tokens=192, max_kv_rows=512,
                                    num_layers=1)
        trace = heavy_trace()
        exact = run(trace, num_layers=1).metrics()
        surrogate = run(trace, cost_model=fitted, num_layers=1).metrics()
        assert surrogate["requests"] == exact["requests"]
        # batch composition may recompose under surrogate latencies, so the
        # step count drifts slightly but stays in the exact engine's regime
        assert surrogate["steps"] == pytest.approx(exact["steps"], rel=0.25)
        assert surrogate["e2e_p99"] == pytest.approx(exact["e2e_p99"],
                                                     rel=SURROGATE_TOLERANCE)

    def test_payload_dict_round_trips_through_config(self):
        fitted, _ = calibrate_model(MODEL, budget=8, batch_cap=2,
                                    max_tokens=32, max_kv_rows=256,
                                    num_layers=1)
        config = ServeConfig(model=MODEL, cost_model=fitted.to_dict())
        assert config.cost_model == fitted
