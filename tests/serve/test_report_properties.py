"""Randomized report invariants: both report modes, fleets and their merges.

Each example serves one generated trace on a fleet of 1-4 replicas under a
random scheduling policy, trace generator and routing policy, once per report
mode.  Step costs come from a literal cost model, so no engine runs and an
example takes milliseconds.  The invariants:

* full and streaming reports (every replica's ``ServingReport`` and the
  ``FleetReport``) agree exactly on counts, output tokens, total and busy
  cycles, queue depth, latency maxima and per-class request counts,
* their percentiles agree within the sketch accuracy,
* in streaming mode a fleet of one equals ``simulate_serving``,
* merging a full-mode replica with a streaming one is a ``ConfigError``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.costmodel.models import CalibratedCostModel
from repro.schedules import Schedule
from repro.serve import (FleetConfig, FleetReport, ServeConfig,
                         generate_trace, generator_names, routing_policy_names,
                         serve_policy_names, simulate_fleet, simulate_serving)
from repro.serve.library import _serve_model

#: integer coefficients keep every step cost an integer, so busy-cycle sums
#: are exact whichever order the two modes add them in
COST_MODEL = CalibratedCostModel(
    coefficients=(300.0, 2.0, 40.0, 0.5),
    feature_min=(1.0, 1.0, 1.0, 64.0), feature_max=(1.0, 1e9, 1e9, 1e9),
    num_probes=4, residual_mean_rel=0.0, residual_max_rel=0.0,
    cycles_min=1.0, cycles_max=1e9)

MODEL = _serve_model(32)

LATENCIES = ("ttft", "tpot", "e2e")
PERCENTILES = ("p50", "p90", "p95", "p99")

cases = st.fixed_dictionaries({
    "policy": st.sampled_from(serve_policy_names()),
    "generator": st.sampled_from(generator_names()),
    "replicas": st.integers(min_value=1, max_value=4),
    "routing": st.sampled_from(routing_policy_names()),
    "rate": st.sampled_from([500.0, 2000.0, 8000.0]),
    "requests": st.integers(min_value=1, max_value=24),
    "seed": st.integers(min_value=0, max_value=2**16),
    "batch_cap": st.integers(min_value=1, max_value=4),
    "sketch_accuracy": st.sampled_from([0.01, 0.05]),
    "window_cycles": st.sampled_from([2_000.0, 100_000.0]),
})


def _knobs(case, mode):
    return dict(model=MODEL, batch_cap=case["batch_cap"], num_layers=1,
                seed=case["seed"], policy=case["policy"], report_mode=mode,
                cost_model=COST_MODEL, sketch_accuracy=case["sketch_accuracy"],
                window_cycles=case["window_cycles"])


def _serve(case):
    trace = generate_trace(case["generator"], rate=case["rate"],
                           num_requests=case["requests"], seed=case["seed"])
    fleets = {mode: simulate_fleet(
        FleetConfig(**_knobs(case, mode), num_replicas=case["replicas"],
                    routing=case["routing"]), trace, Schedule.dynamic())
        for mode in ("full", "streaming")}
    return trace, fleets["full"], fleets["streaming"]


def _assert_modes_agree(full, streaming, rel):
    """One report of each mode over the same run (ServingReport or Fleet)."""
    assert streaming.num_requests == full.num_requests
    assert streaming.total_output_tokens == full.total_output_tokens
    assert streaming.total_cycles == full.total_cycles
    assert streaming.queue_depth() == full.queue_depth()
    assert streaming.priority_classes() == full.priority_classes()
    for cls, exact in full.per_priority().items():
        assert streaming.per_priority()[cls]["requests"] == exact["requests"]
    for metric in LATENCIES:
        exact, sketch = getattr(full, metric)(), getattr(streaming, metric)()
        assert sketch["count"] == exact["count"]
        assert sketch["max"] == exact["max"]
        assert sketch["mean"] == pytest.approx(exact["mean"], rel=1e-9)
        for point in PERCENTILES:
            assert sketch[point] == pytest.approx(exact[point], rel=rel), \
                (metric, point)


@settings(max_examples=40, deadline=None)
@given(case=cases)
def test_full_and_streaming_reports_agree(case):
    trace, full, streaming = _serve(case)
    assert full.num_requests == len(trace)
    assert full.num_replicas == streaming.num_replicas
    rel = case["sketch_accuracy"]
    for exact, sketch in zip(full.replicas, streaming.replicas):
        assert sketch.busy_cycles == exact.busy_cycles
        assert sketch.serving.num_steps == exact.serving.num_steps
        _assert_modes_agree(exact.serving, sketch.serving, rel)
    _assert_modes_agree(full, streaming, rel)
    assert streaming.imbalance == full.imbalance
    assert streaming.utilization() == full.utilization()


@settings(max_examples=20, deadline=None)
@given(case=cases.filter(lambda c: c["replicas"] == 1))
def test_streaming_fleet_of_one_equals_simulate_serving(case):
    trace, _, fleet = _serve(case)
    single = simulate_serving(ServeConfig(**_knobs(case, "streaming")), trace,
                              Schedule.dynamic())
    assert fleet.replicas[0].serving.to_dict() == single.to_dict()
    for metric in LATENCIES:
        assert getattr(fleet, metric)() == getattr(single, metric)()
    assert fleet.per_priority() == single.per_priority()
    assert fleet.queue_depth() == single.queue_depth()
    assert fleet.goodput == single.goodput


@settings(max_examples=10, deadline=None)
@given(case=cases)
def test_merging_mixed_modes_raises(case):
    _, full, streaming = _serve(case)
    mixed = FleetReport(trace="mixed", schedule=full.schedule,
                        routing=full.routing, initial_replicas=2,
                        replicas=(full.replicas[0], streaming.replicas[-1]),
                        total_cycles=full.total_cycles)
    with pytest.raises(ConfigError, match="cannot merge"):
        mixed.metrics()
