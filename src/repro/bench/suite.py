"""The curated benchmark suite: named scenario factories per scale.

Each :class:`BenchCase` names one benchmark and builds the
:class:`~repro.api.Scenario` to run for a given scale (``"smoke"`` or
``"full"``).  The default suite covers the engine's distinct hot paths:

* ``figure15-batch-sweep`` — attention with dynamic parallelization across
  batch sizes (the paper's headline sweep; EagerMerge / Partition / feedback
  loop heavy).  This is the suite the PR-3 optimization pass was tuned on.
* ``figure14-dynamic-parallelization`` — the three parallelization strategies
  over variance-classed KV traces.
* ``figure9-dynamic-tiling`` — the MoE tiling Pareto grid (Bufferize /
  Streamify / off-chip loads dominate).
* ``figure12-timemux`` — configuration time-multiplexing region sweep.
* ``dense-ffn`` — the dense SwiGLU FFN tiling baseline from the scenario
  library (compute-operator bound).
* ``serve-poisson`` / ``serve-burst`` — request-level serving runs from
  :mod:`repro.serve` (continuous-batching scheduler + step-cost simulation;
  dominated by the serving step memoization and replay path).
* ``serve-chunked-prefill`` — the chunked-prefill scheduling policy
  (:mod:`repro.serve.policy`): budgeted prefill streaming across steps, the
  policy-dispatch hot path the default-policy cases never leave.
* ``serve-overload`` — the same engine under finite HBM
  (:mod:`repro.serve.memory`): per-step KV page-pool accounting,
  memory-aware admission and preemption-with-recompute.
* ``serve-streaming-large`` — a large heavy-tailed trace under the
  ``"streaming"`` report mode (:mod:`repro.serve.streaming`): every
  completion folds into percentile sketches and the windowed timeline, the
  O(1)-memory path production-sized traces ride.
* ``fleet-grid`` / ``fleet-autoscale`` — multi-replica fleet dispatch runs
  (:mod:`repro.serve.fleet`; dispatcher event loop, routing-policy selection
  and the reactive autoscaler on top of the serving replay path).
* ``fleet-surrogate-sweep`` — a production-sized fleet trace on the
  two-tier engine (:mod:`repro.costmodel`): adaptive calibrated step-cost
  prediction instead of per-signature simulation, streaming reports — the
  fast tier fleet-scale sweeps ride.  The ≥10x two-tier headline is its
  first-run wall against the exact twin of the same trace.

New benchmarks register with :func:`register_case`; anything expressible as a
Scenario participates for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..api import Scenario, get_scenario
from ..core.errors import ConfigError
from ..experiments import figure9_10, figure12_13, figure14, figure15
from ..experiments.common import DEFAULT_SCALE, SMOKE_SCALE, ExperimentScale

#: the benchmark scales (mirrors the experiments CLI)
SCALES: Dict[str, ExperimentScale] = {
    "smoke": SMOKE_SCALE,
    "full": DEFAULT_SCALE,
}


@dataclass(frozen=True)
class BenchCase:
    """One named benchmark: a scenario factory parameterized by scale name."""

    name: str
    description: str
    build: Callable[[str], Scenario]

    def scenario(self, scale: str = "smoke") -> Scenario:
        if scale not in SCALES:
            raise ConfigError(f"unknown bench scale {scale!r}; expected one of {sorted(SCALES)}")
        return self.build(scale)


#: case name -> BenchCase, in registration (= report) order
CASES: Dict[str, BenchCase] = {}


def register_case(name: str, description: str):
    """Decorator registering a scenario factory (``scale name -> Scenario``)."""

    def wrap(build: Callable[[str], Scenario]) -> Callable[[str], Scenario]:
        if name in CASES:
            raise ConfigError(f"bench case {name!r} is already registered")
        CASES[name] = BenchCase(name=name, description=description, build=build)
        return build

    return wrap


def bench_cases(names: Optional[List[str]] = None) -> List[BenchCase]:
    """The selected (or all) benchmark cases, in registration order."""
    if names is None:
        return list(CASES.values())
    return [get_case(name) for name in names]


def get_case(name: str) -> BenchCase:
    try:
        return CASES[name]
    except KeyError:
        raise ConfigError(
            f"unknown bench case {name!r}; registered: {sorted(CASES)}") from None


# ---------------------------------------------------------------------------
# Default suite
# ---------------------------------------------------------------------------

@register_case("figure15-batch-sweep",
               "dynamic vs static coarse parallelization across batch sizes")
def _figure15(scale: str) -> Scenario:
    return figure15.scenario(SCALES[scale])


@register_case("figure14-dynamic-parallelization",
               "parallelization strategies over variance-classed KV traces")
def _figure14(scale: str) -> Scenario:
    return figure14.scenario(SCALES[scale])


@register_case("figure9-dynamic-tiling",
               "MoE static-tile Pareto grid vs dynamic tiling")
def _figure9(scale: str) -> Scenario:
    return figure9_10.scenario(SCALES[scale], large_batch=False)


@register_case("figure12-timemux",
               "configuration time-multiplexing region sweep")
def _figure12(scale: str) -> Scenario:
    return figure12_13.scenario(SCALES[scale])


@register_case("dense-ffn",
               "dense SwiGLU FFN tiling baseline (library scenario)")
def _dense_ffn(scale: str) -> Scenario:
    if scale == "full":
        return get_scenario("dense-ffn", model_scale=16, batch=64, tiles=(8, 16, 32, 64))
    return get_scenario("dense-ffn")


# The serving cases time the continuous-batching scheduler's replay path:
# after the warmup run the step-cost memo is hot, so the repeats measure the
# request/queue bookkeeping over hundreds of steps (the serving hot loop)
# rather than re-simulating steps the figure cases already cover.

@register_case("serve-poisson",
               "open-loop Poisson serving, light vs overload arrival rates")
def _serve_poisson(scale: str) -> Scenario:
    if scale == "full":
        return get_scenario("serve-poisson", num_requests=96, batch_cap=8)
    return get_scenario("serve-poisson", rates=(40.0, 640.0), num_requests=48,
                        output_max=12)


@register_case("serve-burst",
               "bursty vs steady request arrivals at equal offered load")
def _serve_burst(scale: str) -> Scenario:
    if scale == "full":
        return get_scenario("serve-burst", num_requests=96, batch_cap=8)
    return get_scenario("serve-burst", num_requests=48, output_max=12)


# serve-chunked-prefill times the policy layer's heaviest batching discipline:
# prefills stream in fixed token chunks across many steps (more steps, more
# plan/bookkeeping work per request than one-shot orca prefill), so the case
# covers the ServePolicy dispatch path the default-policy cases never leave.

@register_case("serve-chunked-prefill",
               "chunked-prefill scheduling policy: budgeted prefill streaming")
def _serve_chunked_prefill(scale: str) -> Scenario:
    if scale == "full":
        return get_scenario("serve-policies", num_requests=96, batch_cap=8,
                            policies=("default", "chunked-prefill"))
    return get_scenario("serve-policies", num_requests=48, output_max=12,
                        policies=("chunked-prefill",))


# serve-overload exercises the memory-pressure path the other serving cases
# never touch: KV page-pool accounting on every step, admission gating and
# (on the bounded platform) eviction + requeue + prefill recompute.

@register_case("serve-overload",
               "load ladder on unbounded vs capacity-bounded HBM (paged KV)")
def _serve_overload(scale: str) -> Scenario:
    if scale == "full":
        return get_scenario("serve-overload", num_requests=48, rates=(160.0, 640.0))
    return get_scenario("serve-overload", num_requests=24, rates=(640.0,))


# serve-streaming-large times the O(1)-memory report path on a trace big
# enough that full mode would dominate the profile with record/step list
# growth: only the streaming cell runs, so every completion folds into the
# percentile sketches and the windowed timeline instead of materializing.

@register_case("serve-streaming-large",
               "large heavy-tailed trace under the O(1)-memory streaming report")
def _serve_streaming_large(scale: str) -> Scenario:
    if scale == "full":
        return get_scenario("serve-streaming", num_requests=4000,
                            arrival_rate=2000.0, batch_cap=8, output_max=8,
                            modes=("streaming",))
    return get_scenario("serve-streaming", num_requests=2000,
                        arrival_rate=2000.0, batch_cap=8, output_max=4,
                        modes=("streaming",))


# The fleet cases add the dispatcher on top: N replica engines advanced in
# lockstep per arrival, routing-policy selection and (for the autoscale case)
# the reactive scaling loop with cold-start warm-ups — the fleet hot loop.

@register_case("fleet-grid",
               "multi-replica dispatch: replicas x routing x arrival rates")
def _fleet_grid(scale: str) -> Scenario:
    if scale == "full":
        return get_scenario("fleet-grid", replicas=(1, 2, 4), num_requests=48,
                            batch_cap=4)
    return get_scenario("fleet-grid", num_requests=24, output_max=12)


@register_case("fleet-autoscale",
               "reactive autoscaling vs fixed fleets under bursty load")
def _fleet_autoscale(scale: str) -> Scenario:
    if scale == "full":
        return get_scenario("fleet-autoscale", num_requests=64, batch_cap=4,
                            max_replicas=4)
    return get_scenario("fleet-autoscale", num_requests=24, output_max=12)


# fleet-surrogate-sweep times the two-tier engine's fast path: a
# production-sized heavy-tailed trace (wide prompt tail, fine KV tiling —
# hundreds of distinct step signatures) on a replica fleet where only the
# first calibration_budget distinct signatures are simulated exactly and
# the rest are predicted by the adaptive cost model, with streaming
# reports so nothing materializes per request.  The warm-repeat
# cycles_per_second recorded here guards the fast path against regression;
# the >= 10x two-tier headline is the *first-run* wall against the exact
# twin of the same trace (get_scenario("fleet-surrogate",
# cost_model="exact")), where the exact engine pays one full simulation per
# distinct signature — see README "Cost models".

@register_case("fleet-surrogate-sweep",
               "fleet-scale heavy-tailed trace on the surrogate cost-model engine")
def _fleet_surrogate_sweep(scale: str) -> Scenario:
    if scale == "full":
        return get_scenario("fleet-surrogate", num_requests=8000,
                            arrival_rate=4000.0)
    return get_scenario("fleet-surrogate", num_requests=2000,
                        arrival_rate=4000.0)
