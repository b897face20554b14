"""One float-summation semantics on every interpreter.

CPython 3.12 made the built-in ``sum()`` compensate float additions.  The
reports, the cost-model fit and the benchmark's reference digests were
recorded under the uncompensated fold, so every float reduction that reaches
them goes through :func:`repro.core.summation.left_sum`.  These tests run
the benchmark's serving shapes, scaled down, under both built-ins (the
``builtin_sum`` fixture) and require digests equal to the real built-in's.
"""

import dataclasses
import hashlib
import json

import pytest

from repro import costmodel
from repro.api import get_scenario
from repro.core.summation import left_sum
from repro.serve.arrivals import quantize_up


def digest(payload) -> str:
    """Floats hash by their exact ``repr``, as the benchmark's digests do."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def serve_exact_digests():
    """serve-poisson cells with full reports, as the serve-exact workload."""
    scenario = get_scenario("serve-poisson", model_scale=64, rates=(640.0,),
                            num_requests=8, output_max=12, seed=0)
    return [digest(workload.report(schedule).metrics())
            for workload in scenario.workloads.values()
            for schedule in scenario.schedules.values()]


def fleet_dispatch_digest():
    """A calibrated, streaming fleet, as the fleet-dispatch workload."""
    scenario = get_scenario("fleet-surrogate", model_scale=64,
                            num_requests=100, arrival_rate=4000.0,
                            num_replicas=4, seed=0)
    workload = scenario.workloads["fleet"]
    schedule = next(iter(scenario.schedules.values()))
    longest = max(r.prompt_tokens + r.output_tokens
                  for r in workload.trace.requests)
    model, report = costmodel.calibrate_model(
        workload.model, schedule, budget=8, batch_cap=workload.batch_cap,
        max_tokens=1024, max_kv_rows=quantize_up(longest, workload.kv_tile_rows),
        num_layers=workload.num_layers, kv_tile_rows=workload.kv_tile_rows,
        seed=0)
    fleet = dataclasses.replace(workload, cost_model=model).report(schedule)
    return digest([report, fleet.metrics()])


@pytest.fixture(scope="module")
def real_builtin_digests():
    return serve_exact_digests(), fleet_dispatch_digest()


def test_the_fixture_patches_the_builtin(builtin_sum):
    expected = {"left-fold": 0.9999999999999999, "compensated": 1.0}
    assert sum([0.1] * 10) == expected[builtin_sum]
    assert left_sum([0.1] * 10) == 0.9999999999999999


def test_serve_exact_digests_match_the_real_builtin(real_builtin_digests,
                                                    builtin_sum):
    assert serve_exact_digests() == real_builtin_digests[0]


def test_fleet_dispatch_digest_matches_the_real_builtin(real_builtin_digests,
                                                        builtin_sum):
    assert fleet_dispatch_digest() == real_builtin_digests[1]
