"""Every server knob reaches the engine unchanged through every entry point.

``ServeConfig`` declares each serving knob once; the facades
(``api.serve`` / ``api.serve_fleet``), the scenario workloads
(``ServeWorkload`` / ``FleetWorkload``) and the ``"serve"`` / ``"fleet"``
sweep tasks (via ``latency_load_spec`` / ``fleet_latency_spec``) forward it.
For each field set to a non-default value, the config every
``ReplicaEngine`` is built with must equal ``ServeConfig(model, field=value)``
on every ``ServeConfig`` field.
"""

from dataclasses import fields, replace

import pytest

import repro.api as api
from repro.schedules import Schedule
from repro.serve import (FleetWorkload, ServeConfig, ServeWorkload,
                         fleet_latency_spec, latency_load_spec, poisson_trace)
from repro.serve.scheduler import ReplicaEngine
from repro.sweep import SweepRunner
from repro.workloads.configs import QWEN3_30B_A3B, scaled_config

#: one non-default value per ServeConfig field (``model`` is positional)
NON_DEFAULTS = {
    "batch_cap": 3,
    "num_layers": 1,
    "kv_tile_rows": 32,
    "moe_compute_bw": 4096,
    "attention_compute_bw": 128,
    "seed": 7,
    "kv_mode": "contiguous",
    "eviction_policy": "evict-youngest",
    "policy": "chunked-prefill",
    "report_mode": "streaming",
    "window_cycles": 50_000.0,
    "sketch_accuracy": 0.02,
    "cost_model": "table",
    "calibration_budget": 8,
}

#: the "serve"/"fleet" tasks build their own trace from these shape knobs
SHAPE = dict(prompt_mean=16.0, prompt_max=32, output_mean=2.0, output_max=3)
NUM_REQUESTS = 3


@pytest.fixture(scope="module")
def model():
    return replace(scaled_config(QWEN3_30B_A3B, scale=64), name="knobs-2e",
                   num_experts=2, experts_per_token=1)


@pytest.fixture(scope="module")
def trace():
    return poisson_trace(rate=300.0, num_requests=NUM_REQUESTS, seed=0, **SHAPE)


@pytest.fixture
def engine_configs(monkeypatch):
    """The ServeConfig fields of every ReplicaEngine built during a test."""
    seen = []
    original = ReplicaEngine.__init__

    def recording(self, config, *args, **kwargs):
        seen.append({f.name: getattr(config, f.name) for f in fields(ServeConfig)})
        original(self, config, *args, **kwargs)

    monkeypatch.setattr(ReplicaEngine, "__init__", recording)
    return seen


def _latency_spec(model, knob, value):
    """A one-point ``"serve"`` grid with ``knob=value`` forwarded."""
    kwargs = {"batch_caps": (value,)} if knob == "batch_cap" else {knob: value}
    return latency_load_spec(model, Schedule.dynamic(), rates=(300.0,),
                             num_requests=NUM_REQUESTS, **SHAPE, **kwargs)


def _fleet_spec(model, knob, value):
    """A one-point, one-replica ``"fleet"`` grid with ``knob=value`` forwarded.

    ``fleet_latency_spec`` defaults to a smaller batch cap than the server,
    so the server default is passed explicitly unless it is the knob.
    """
    knobs = {"batch_cap": ServeConfig.batch_cap, knob: value}
    return fleet_latency_spec(model, Schedule.dynamic(), rates=(300.0,),
                              num_replicas=(1,), routings=("round-robin",),
                              num_requests=NUM_REQUESTS, **SHAPE, **knobs)


ENTRY_POINTS = {
    "api.serve": lambda m, t, k, v: api.serve(m, t, **{k: v}),
    "api.serve_fleet": lambda m, t, k, v: api.serve_fleet(
        m, t, num_replicas=1, **{k: v}),
    "ServeWorkload": lambda m, t, k, v: ServeWorkload(
        model=m, trace=t, **{k: v}).report(Schedule.dynamic()),
    "FleetWorkload": lambda m, t, k, v: FleetWorkload(
        model=m, trace=t, num_replicas=1, **{k: v}).report(Schedule.dynamic()),
    "serve task": lambda m, t, k, v: SweepRunner(jobs=1).metrics(
        _latency_spec(m, k, v)),
    "fleet task": lambda m, t, k, v: SweepRunner(jobs=1).metrics(
        _fleet_spec(m, k, v)),
}


def test_every_field_has_a_non_default_value():
    knobs = {f.name for f in fields(ServeConfig)} - {"model"}
    assert knobs == set(NON_DEFAULTS)
    for f in fields(ServeConfig):
        if f.name in NON_DEFAULTS:
            assert NON_DEFAULTS[f.name] != f.default, f.name


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("knob", sorted(NON_DEFAULTS))
def test_knob_reaches_the_engine(model, trace, engine_configs, entry, knob):
    value = NON_DEFAULTS[knob]
    expected = ServeConfig(model=model, **{knob: value})
    ENTRY_POINTS[entry](model, trace, knob, value)
    assert engine_configs, f"{entry} built no ReplicaEngine"
    for seen in engine_configs:
        for name, got in seen.items():
            assert got == getattr(expected, name), (entry, knob, name)
