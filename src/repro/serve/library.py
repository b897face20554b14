"""Registered ``serve-*`` scenarios — serving runs addressable by name.

Importing :mod:`repro.serve` (or :mod:`repro.api`) registers:

* ``"serve-poisson"`` — Poisson traffic at a ladder of arrival rates, served
  under a static and the dynamic schedule: the latency-vs-load picture, as a
  plain scenario grid,
* ``"serve-batch-cap"`` — one arrival rate, swept over continuous-batching
  caps under the dynamic schedule: how much batching headroom the engine
  needs before queueing collapses,
* ``"serve-burst"`` — bursty versus steady arrivals at the same marginal
  rate: the tail-latency cost of synchronized traffic,
* ``"serve-overload"`` — the same load ladder on unbounded (``sda``) versus
  capacity-bounded (``sda-hbm-small``) HBM: where the finite KV pool starts
  costing goodput (admission stalls, preemptions, recompute),
* ``"serve-paged-vs-contiguous"`` — the two KV allocation disciplines under
  one tight HBM budget: paged preempts-and-recomputes, contiguous
  stalls-and-fragments (see :mod:`repro.serve.memory`),
* ``"serve-policies"`` — one traffic trace under every registered scheduling
  policy preset, using the scenario ``policies`` axis (the
  :class:`~repro.serve.policy.ServePolicy` registries: admission × batching ×
  priority, see :mod:`repro.serve.policy`),
* ``"serve-diurnal"`` — the sinusoidal-rate trace (time-varying Poisson via
  thinning, :mod:`repro.serve.generators`) against steady traffic at the same
  mean rate: what rate swings cost a fixed-capacity engine,
* ``"serve-multitenant"`` — the default three-tenant blend (interactive /
  batch / analytics length profiles on priority classes 0/1/2) under the
  default and the priority scheduling policies,
* ``"serve-streaming"`` — one trace served twice, ``report_mode="full"`` vs
  ``"streaming"``: the O(1)-memory report path side by side with the exact
  one (cycle counts and means identical; percentiles sketch-bounded),
* ``"fleet-grid"`` — the fleet-scale picture: replica counts × routing
  policies × arrival rates, every cell a full multi-replica dispatch run
  (:mod:`repro.serve.fleet`),
* ``"fleet-autoscale"`` — reactive autoscaling against fixed fleets under
  the same bursty traffic: what scale-up cold starts cost and what
  over-provisioning wastes,
* ``"fleet-surrogate"`` — a production-sized heavy-tailed trace on a fleet
  under a per-run calibrated cost model (``cost_model="calibrated"``,
  streaming reports): the cost-model fast path for fleet-scale sweeps
  (:mod:`repro.costmodel`) — only the first ``calibration_budget`` distinct
  step signatures are simulated exactly, everything after is predicted.

All factories take keyword overrides; the defaults are smoke-sized (a few
dozen requests, two decoder layers) so the scenarios run in seconds — pass
``num_requests`` / ``rates`` / ``model_scale`` overrides for bigger studies.

Workload imports are deferred into the factories: scenario registration must
not import the serving adapters while :mod:`repro.api` is still initializing.
"""

from __future__ import annotations

from typing import Sequence

from ..api.scenario import Scenario, register_scenario
from ..core.errors import ConfigError
from ..schedules import Schedule
from ..workloads.configs import QWEN3_30B_A3B, scaled_config
from .streaming import DEFAULT_SKETCH_ACCURACY, DEFAULT_WINDOW_CYCLES

#: default arrival-rate ladder (requests per million cycles): light load,
#: near-saturation and overload for the smoke-sized serving model (whose
#: service capacity at batch cap 4 measures ~200 requests per Mcycle)
DEFAULT_RATES = (40.0, 160.0, 640.0)

#: the smoke-sized request-length profile shared by the serve-* scenarios,
#: the serve-latency experiment and examples/serving.py — one definition so
#: the advertised surfaces always describe the same traffic
SMOKE_LENGTHS = {"prompt_mean": 48.0, "prompt_max": 192,
                 "output_mean": 6.0, "output_max": 24}

#: the decode-heavy profile the memory-pressure surfaces share (serve-overload,
#: serve-paged-vs-contiguous and the memory-pressure experiment).  Longer
#: outputs make running requests *grow* across KV-page boundaries — which is
#: what triggers preemption — while ``prompt_max + output_max`` (208 rows)
#: still fits the 4-page ``sda-hbm-small`` pool, so every request is servable
#: and pressure shows up as stalls/evictions rather than rejected traffic
OVERLOAD_LENGTHS = {"prompt_mean": 48.0, "prompt_max": 160,
                    "output_mean": 24.0, "output_max": 48}


def _serve_model(model_scale: int, max_experts=16):
    from ..workloads.configs import cap_experts

    return cap_experts(scaled_config(QWEN3_30B_A3B, scale=model_scale),
                       max_experts)


def serve_schedules(tile_rows: int = 4):
    """The static-vs-dynamic schedule pair the serving scenarios compare."""
    return {
        "static": Schedule.static("static", tile_rows=tile_rows),
        "dynamic": Schedule.dynamic(),
    }


@register_scenario("serve-poisson")
def serve_poisson(model_scale: int = 32, rates: Sequence[float] = DEFAULT_RATES,
                  num_requests: int = 16, batch_cap: int = 4, num_layers: int = 2,
                  prompt_mean: float = SMOKE_LENGTHS["prompt_mean"],
                  prompt_max: int = SMOKE_LENGTHS["prompt_max"],
                  output_mean: float = SMOKE_LENGTHS["output_mean"],
                  output_max: int = SMOKE_LENGTHS["output_max"],
                  kv_tile_rows: int = 128, seed: int = 0) -> Scenario:
    """Poisson arrival-rate ladder × (static, dynamic) schedules."""
    from .arrivals import poisson_trace
    from .scheduler import ServeWorkload

    model = _serve_model(model_scale)
    workloads = {
        f"rate={rate:g}": ServeWorkload(
            model=model,
            trace=poisson_trace(rate=rate, num_requests=num_requests, seed=seed,
                                prompt_mean=prompt_mean, prompt_max=prompt_max,
                                output_mean=output_mean, output_max=output_max),
            batch_cap=batch_cap, num_layers=num_layers,
            kv_tile_rows=kv_tile_rows, seed=seed)
        for rate in rates
    }
    return Scenario(
        name="serve-poisson",
        workloads=workloads,
        schedules=serve_schedules(),
        seed=seed,
        description="open-loop Poisson serving at a ladder of arrival rates",
    )


@register_scenario("serve-batch-cap")
def serve_batch_cap(model_scale: int = 32, arrival_rate: float = 300.0,
                    batch_caps: Sequence[int] = (2, 4, 8), num_requests: int = 16,
                    num_layers: int = 2,
                    prompt_mean: float = SMOKE_LENGTHS["prompt_mean"],
                    prompt_max: int = SMOKE_LENGTHS["prompt_max"],
                    output_mean: float = SMOKE_LENGTHS["output_mean"],
                    output_max: int = SMOKE_LENGTHS["output_max"],
                    kv_tile_rows: int = 128,
                    seed: int = 0) -> Scenario:
    """One arrival rate, swept over continuous-batching caps (dynamic schedule)."""
    from .arrivals import poisson_trace
    from .scheduler import ServeWorkload

    model = _serve_model(model_scale)
    trace = poisson_trace(rate=arrival_rate, num_requests=num_requests, seed=seed,
                          prompt_mean=prompt_mean, prompt_max=prompt_max,
                          output_mean=output_mean, output_max=output_max)
    workloads = {
        f"cap={cap}": ServeWorkload(model=model, trace=trace, batch_cap=cap,
                                    num_layers=num_layers,
                                    kv_tile_rows=kv_tile_rows, seed=seed)
        for cap in batch_caps
    }
    return Scenario(
        name="serve-batch-cap",
        workloads=workloads,
        schedules=Schedule.dynamic(),
        seed=seed,
        description="continuous-batching cap sweep at one arrival rate",
    )


@register_scenario("serve-burst")
def serve_burst(model_scale: int = 32, arrival_rate: float = 150.0,
                burst_size: int = 4, num_requests: int = 16, batch_cap: int = 4,
                num_layers: int = 2,
                prompt_mean: float = SMOKE_LENGTHS["prompt_mean"],
                prompt_max: int = SMOKE_LENGTHS["prompt_max"],
                output_mean: float = SMOKE_LENGTHS["output_mean"],
                output_max: int = SMOKE_LENGTHS["output_max"],
                kv_tile_rows: int = 128,
                seed: int = 0) -> Scenario:
    """Bursty vs steady arrivals at the same marginal rate (dynamic schedule)."""
    from .arrivals import burst_trace, poisson_trace
    from .scheduler import ServeWorkload

    model = _serve_model(model_scale)
    length_kwargs = dict(prompt_mean=prompt_mean, prompt_max=prompt_max,
                         output_mean=output_mean, output_max=output_max)
    workloads = {
        "steady": ServeWorkload(
            model=model,
            trace=poisson_trace(rate=arrival_rate, num_requests=num_requests,
                                seed=seed, **length_kwargs),
            batch_cap=batch_cap, num_layers=num_layers,
            kv_tile_rows=kv_tile_rows, seed=seed),
        "burst": ServeWorkload(
            model=model,
            trace=burst_trace(rate=arrival_rate, num_requests=num_requests,
                              burst_size=burst_size, seed=seed, **length_kwargs),
            batch_cap=batch_cap, num_layers=num_layers,
            kv_tile_rows=kv_tile_rows, seed=seed),
    }
    return Scenario(
        name="serve-burst",
        workloads=workloads,
        schedules=Schedule.dynamic(),
        seed=seed,
        description="bursty vs steady arrivals at equal offered load",
    )


@register_scenario("serve-overload")
def serve_overload(model_scale: int = 32, rates: Sequence[float] = DEFAULT_RATES,
                   num_requests: int = 16, batch_cap: int = 4,
                   num_layers: int = 2,
                   prompt_mean: float = OVERLOAD_LENGTHS["prompt_mean"],
                   prompt_max: int = OVERLOAD_LENGTHS["prompt_max"],
                   output_mean: float = OVERLOAD_LENGTHS["output_mean"],
                   output_max: int = OVERLOAD_LENGTHS["output_max"],
                   kv_tile_rows: int = 64, eviction_policy: str = "evict-lru",
                   seed: int = 0) -> Scenario:
    """The same load ladder on unbounded vs capacity-bounded HBM.

    Every cell pair isolates pure capacity effects: ``sda`` and
    ``sda-hbm-small`` share bandwidths and timing, so the goodput gap and the
    nonzero ``preemptions`` / ``admission_stalls`` columns are entirely the
    finite KV pool.  Decode-heavy traffic (:data:`OVERLOAD_LENGTHS`) keeps
    preemption reachable at smoke size.
    """
    from ..platforms import get_platform
    from .arrivals import poisson_trace
    from .scheduler import ServeWorkload

    model = _serve_model(model_scale)
    workloads = {
        f"rate={rate:g}": ServeWorkload(
            model=model,
            trace=poisson_trace(rate=rate, num_requests=num_requests, seed=seed,
                                prompt_mean=prompt_mean, prompt_max=prompt_max,
                                output_mean=output_mean, output_max=output_max),
            batch_cap=batch_cap, num_layers=num_layers,
            kv_tile_rows=kv_tile_rows, eviction_policy=eviction_policy,
            seed=seed)
        for rate in rates
    }
    return Scenario(
        name="serve-overload",
        workloads=workloads,
        schedules=Schedule.dynamic(),
        platforms={name: get_platform(name)
                   for name in ("sda", "sda-hbm-small")},
        seed=seed,
        description="overload ladder on unbounded vs capacity-bounded HBM",
    )


@register_scenario("serve-paged-vs-contiguous")
def serve_paged_vs_contiguous(model_scale: int = 32, arrival_rate: float = 300.0,
                              num_requests: int = 16, batch_cap: int = 4,
                              num_layers: int = 2,
                              prompt_mean: float = OVERLOAD_LENGTHS["prompt_mean"],
                              prompt_max: int = OVERLOAD_LENGTHS["prompt_max"],
                              output_mean: float = OVERLOAD_LENGTHS["output_mean"],
                              output_max: int = OVERLOAD_LENGTHS["output_max"],
                              kv_tile_rows: int = 64,
                              eviction_policy: str = "evict-lru",
                              seed: int = 0) -> Scenario:
    """Paged vs contiguous KV allocation on the capacity-bounded platform.

    Identical traffic, identical pool — only the allocation discipline
    differs.  Paged admits on *current* demand and pays for it with
    preemptions/recompute under pressure; contiguous reserves each request's
    lifetime maximum up front, never preempts, and pays instead with
    admission stalls and reserved-but-unused fragmentation.
    """
    from ..platforms import get_platform
    from .arrivals import poisson_trace
    from .scheduler import ServeWorkload

    model = _serve_model(model_scale)
    trace = poisson_trace(rate=arrival_rate, num_requests=num_requests,
                          seed=seed, prompt_mean=prompt_mean,
                          prompt_max=prompt_max, output_mean=output_mean,
                          output_max=output_max)
    workloads = {
        mode: ServeWorkload(model=model, trace=trace, batch_cap=batch_cap,
                            num_layers=num_layers, kv_tile_rows=kv_tile_rows,
                            kv_mode=mode, eviction_policy=eviction_policy,
                            seed=seed)
        for mode in ("paged", "contiguous")
    }
    return Scenario(
        name="serve-paged-vs-contiguous",
        workloads=workloads,
        schedules=Schedule.dynamic(),
        platforms={"sda-hbm-small": get_platform("sda-hbm-small")},
        seed=seed,
        description="paged vs contiguous KV allocation under a tight HBM budget",
    )


@register_scenario("serve-policies")
def serve_policies(model_scale: int = 32, arrival_rate: float = 300.0,
                   num_requests: int = 16, batch_cap: int = 2,
                   num_layers: int = 2,
                   policies: Sequence[object] = (),
                   prompt_mean: float = SMOKE_LENGTHS["prompt_mean"],
                   prompt_max: int = SMOKE_LENGTHS["prompt_max"],
                   output_mean: float = SMOKE_LENGTHS["output_mean"],
                   output_max: int = SMOKE_LENGTHS["output_max"],
                   kv_tile_rows: int = 128, seed: int = 0) -> Scenario:
    """One traffic trace under every registered scheduling-policy preset.

    Identical traffic, identical engine — only the scheduling discipline
    (admission × batching × priority) differs, via the scenario ``policies``
    axis.  The tight ``batch_cap`` keeps the waiting queue non-empty so
    admission order and preemption actually matter at smoke size.
    """
    from .arrivals import poisson_trace
    from .policy import policy_grid
    from .scheduler import ServeWorkload

    model = _serve_model(model_scale)
    trace = poisson_trace(rate=arrival_rate, num_requests=num_requests,
                          seed=seed, prompt_mean=prompt_mean,
                          prompt_max=prompt_max, output_mean=output_mean,
                          output_max=output_max)
    workload = ServeWorkload(model=model, trace=trace, batch_cap=batch_cap,
                             num_layers=num_layers, kv_tile_rows=kv_tile_rows,
                             seed=seed)
    return Scenario(
        name="serve-policies",
        workloads={"serve": workload},
        schedules=Schedule.dynamic(),
        policies=policy_grid(*policies),
        seed=seed,
        description="one trace under every scheduling-policy preset",
    )


@register_scenario("serve-diurnal")
def serve_diurnal(model_scale: int = 32, arrival_rate: float = 150.0,
                  amplitude: float = 0.8, period_mcycles: float = 0.25,
                  num_requests: int = 16, batch_cap: int = 4,
                  num_layers: int = 2,
                  prompt_mean: float = SMOKE_LENGTHS["prompt_mean"],
                  prompt_max: int = SMOKE_LENGTHS["prompt_max"],
                  output_mean: float = SMOKE_LENGTHS["output_mean"],
                  output_max: int = SMOKE_LENGTHS["output_max"],
                  kv_tile_rows: int = 128, seed: int = 0) -> Scenario:
    """Diurnal (sinusoidal-rate) vs steady traffic at the same mean rate.

    The diurnal trace comes from the registered ``"diurnal"`` generator —
    a time-varying Poisson process realized by thinning — so peaks hit
    ``(1 + amplitude) x`` the mean rate.  The steady twin serves the same
    request budget at the flat mean, isolating what the swing itself costs.
    """
    from .generators import generate_trace
    from .scheduler import ServeWorkload

    model = _serve_model(model_scale)
    length_kwargs = dict(prompt_mean=prompt_mean, prompt_max=prompt_max,
                         output_mean=output_mean, output_max=output_max)
    workloads = {
        "steady": ServeWorkload(
            model=model,
            trace=generate_trace("poisson", rate=arrival_rate,
                                 num_requests=num_requests, seed=seed,
                                 **length_kwargs),
            batch_cap=batch_cap, num_layers=num_layers,
            kv_tile_rows=kv_tile_rows, seed=seed),
        "diurnal": ServeWorkload(
            model=model,
            trace=generate_trace("diurnal", rate=arrival_rate,
                                 num_requests=num_requests, seed=seed,
                                 amplitude=amplitude,
                                 period_mcycles=period_mcycles,
                                 **length_kwargs),
            batch_cap=batch_cap, num_layers=num_layers,
            kv_tile_rows=kv_tile_rows, seed=seed),
    }
    return Scenario(
        name="serve-diurnal",
        workloads=workloads,
        schedules=Schedule.dynamic(),
        seed=seed,
        description="sinusoidal-rate vs steady traffic at equal mean load",
    )


@register_scenario("serve-multitenant")
def serve_multitenant(model_scale: int = 32, arrival_rate: float = 200.0,
                      num_requests: int = 18, batch_cap: int = 2,
                      num_layers: int = 2, kv_tile_rows: int = 128,
                      seed: int = 0) -> Scenario:
    """The default tenant blend under FIFO vs priority-class scheduling.

    The ``"multitenant"`` generator superposes interactive / batch /
    analytics Poisson processes (priority classes 0/1/2, each with its own
    length profile); the scenario's ``policies`` axis contrasts the default
    FIFO discipline with the priority-class policy, and the per-class report
    breakdowns (``per_priority``) show who pays the queueing.
    """
    from .generators import generate_trace
    from .policy import policy_grid
    from .scheduler import ServeWorkload

    model = _serve_model(model_scale)
    trace = generate_trace("multitenant", rate=arrival_rate,
                           num_requests=num_requests, seed=seed)
    workload = ServeWorkload(model=model, trace=trace, batch_cap=batch_cap,
                             num_layers=num_layers, kv_tile_rows=kv_tile_rows,
                             seed=seed)
    return Scenario(
        name="serve-multitenant",
        workloads={"blend": workload},
        schedules=Schedule.dynamic(),
        policies=policy_grid("default", "priority"),
        seed=seed,
        description="three-tenant blend under FIFO vs priority scheduling",
    )


@register_scenario("serve-streaming")
def serve_streaming(model_scale: int = 32, arrival_rate: float = 300.0,
                    num_requests: int = 48, batch_cap: int = 4,
                    num_layers: int = 2,
                    sketch_accuracy: float = DEFAULT_SKETCH_ACCURACY,
                    window_cycles: float = DEFAULT_WINDOW_CYCLES,
                    prompt_mean: float = SMOKE_LENGTHS["prompt_mean"],
                    prompt_max: int = SMOKE_LENGTHS["prompt_max"],
                    output_mean: float = SMOKE_LENGTHS["output_mean"],
                    output_max: int = SMOKE_LENGTHS["output_max"],
                    kv_tile_rows: int = 128, seed: int = 0,
                    modes: Sequence[str] = ("full", "streaming")) -> Scenario:
    """One heavy-tailed trace reported in full vs streaming mode.

    Both cells serve the identical trace; the only difference is the report
    representation.  Counts, cycle totals, queue-depth means and goodput
    match exactly; percentiles differ by at most the sketch's relative
    error.  ``modes`` picks the report cells — the bench suite's large-trace
    case (``serve-streaming-large``) keeps only ``"streaming"`` so its much
    bigger ``num_requests`` never materializes per-request records.
    """
    from .generators import generate_trace
    from .scheduler import ServeWorkload

    model = _serve_model(model_scale)
    trace = generate_trace("heavy-tail", rate=arrival_rate,
                           num_requests=num_requests, seed=seed,
                           prompt_mean=prompt_mean, prompt_max=prompt_max,
                           output_mean=output_mean, output_max=output_max)
    common = dict(model=model, trace=trace, batch_cap=batch_cap,
                  num_layers=num_layers, kv_tile_rows=kv_tile_rows, seed=seed)
    cells = {
        "full": lambda: ServeWorkload(report_mode="full", **common),
        "streaming": lambda: ServeWorkload(report_mode="streaming",
                                           sketch_accuracy=sketch_accuracy,
                                           window_cycles=window_cycles,
                                           **common),
    }
    unknown = [m for m in modes if m not in cells]
    if unknown or not modes:
        raise ConfigError(f"serve-streaming: modes must be a non-empty subset "
                          f"of {sorted(cells)}, got {tuple(modes)}")
    workloads = {mode: cells[mode]() for mode in modes}
    return Scenario(
        name="serve-streaming",
        workloads=workloads,
        schedules=Schedule.dynamic(),
        seed=seed,
        description="full vs O(1)-memory streaming report on one trace",
    )


@register_scenario("fleet-grid")
def fleet_grid(model_scale: int = 32, rates: Sequence[float] = (160.0, 640.0),
               replicas: Sequence[int] = (1, 2),
               routings: Sequence[str] = ("round-robin", "least-loaded"),
               num_requests: int = 12, batch_cap: int = 2, num_layers: int = 2,
               warmup_cycles: float = 0.0,
               prompt_mean: float = SMOKE_LENGTHS["prompt_mean"],
               prompt_max: int = SMOKE_LENGTHS["prompt_max"],
               output_mean: float = SMOKE_LENGTHS["output_mean"],
               output_max: int = SMOKE_LENGTHS["output_max"],
               kv_tile_rows: int = 128, seed: int = 0) -> Scenario:
    """Fleet serving grid: replica counts × routing policies × arrival rates."""
    from .arrivals import poisson_trace
    from .fleet import FleetWorkload

    model = _serve_model(model_scale)
    workloads = {
        f"r{n}:{policy}:rate={rate:g}": FleetWorkload(
            model=model,
            trace=poisson_trace(rate=rate, num_requests=num_requests, seed=seed,
                                prompt_mean=prompt_mean, prompt_max=prompt_max,
                                output_mean=output_mean, output_max=output_max),
            num_replicas=n, routing=policy, warmup_cycles=warmup_cycles,
            batch_cap=batch_cap, num_layers=num_layers,
            kv_tile_rows=kv_tile_rows, seed=seed)
        for n in replicas for policy in routings for rate in rates
    }
    return Scenario(
        name="fleet-grid",
        workloads=workloads,
        schedules=Schedule.dynamic(),
        seed=seed,
        description="multi-replica dispatch: replicas x routing x arrival rates",
    )


@register_scenario("fleet-autoscale")
def fleet_autoscale(model_scale: int = 32, arrival_rate: float = 640.0,
                    burst_size: int = 4, num_requests: int = 16,
                    batch_cap: int = 2, num_layers: int = 2,
                    max_replicas: int = 3, warmup_cycles: float = 50_000.0,
                    scale_up_depth: float = 3.0, scale_down_depth: float = 0.5,
                    cooldown_cycles: float = 50_000.0,
                    prompt_mean: float = SMOKE_LENGTHS["prompt_mean"],
                    prompt_max: int = SMOKE_LENGTHS["prompt_max"],
                    output_mean: float = SMOKE_LENGTHS["output_mean"],
                    output_max: int = SMOKE_LENGTHS["output_max"],
                    kv_tile_rows: int = 128, seed: int = 0) -> Scenario:
    """Reactive autoscaling vs fixed fleets under the same bursty traffic."""
    from .arrivals import burst_trace
    from .fleet import AutoscalerConfig, FleetWorkload

    model = _serve_model(model_scale)
    trace = burst_trace(rate=arrival_rate, num_requests=num_requests,
                        burst_size=burst_size, seed=seed,
                        prompt_mean=prompt_mean, prompt_max=prompt_max,
                        output_mean=output_mean, output_max=output_max)
    common = dict(model=model, trace=trace, routing="least-loaded",
                  batch_cap=batch_cap, num_layers=num_layers,
                  kv_tile_rows=kv_tile_rows, seed=seed)
    autoscaler = AutoscalerConfig(
        min_replicas=1, max_replicas=max_replicas,
        scale_up_depth=scale_up_depth, scale_down_depth=scale_down_depth,
        cooldown_cycles=cooldown_cycles)
    workloads = {
        "fixed-min": FleetWorkload(num_replicas=1, warmup_cycles=warmup_cycles,
                                   **common),
        "fixed-max": FleetWorkload(num_replicas=max_replicas,
                                   warmup_cycles=warmup_cycles, **common),
        "autoscaled": FleetWorkload(num_replicas=1, warmup_cycles=warmup_cycles,
                                    autoscaler=autoscaler, **common),
    }
    return Scenario(
        name="fleet-autoscale",
        workloads=workloads,
        schedules=Schedule.dynamic(),
        seed=seed,
        description="reactive autoscaling vs fixed fleets under bursty load",
    )


@register_scenario("fleet-surrogate")
def fleet_surrogate(model_scale: int = 32, arrival_rate: float = 2000.0,
                    num_requests: int = 2000, num_replicas: int = 2,
                    routing: str = "least-loaded", batch_cap: int = 8,
                    num_layers: int = 2, cost_model: object = "calibrated",
                    calibration_budget: int = 24,
                    window_cycles: float = DEFAULT_WINDOW_CYCLES,
                    prompt_mean: float = SMOKE_LENGTHS["prompt_mean"],
                    prompt_max: int = 384, output_mean: float = 8.0,
                    output_max: int = 24, kv_tile_rows: int = 64,
                    seed: int = 0) -> Scenario:
    """A fleet-scale heavy-tailed trace under a calibrated cost model.

    The fast tier of the two-tier engine end to end: every replica costs its
    steps through the adaptive calibrated cost model (the first
    ``calibration_budget`` distinct signatures are simulated exactly, the
    rest predicted — see :mod:`repro.costmodel`) and reports through the
    O(1)-memory streaming path, so the trace size is bounded by neither
    per-request records nor per-signature simulation.  The length profile is
    deliberately *wide* (long prompt tail, fine KV tiling) — hundreds of
    distinct step signatures, the regime where the exact engine pays one
    full simulation per signature and the surrogate pays only its fixed
    probe budget.  Pass ``cost_model="exact"`` for the slow-tier twin of the
    same trace.
    """
    from .fleet import FleetWorkload
    from .generators import generate_trace

    model = _serve_model(model_scale)
    trace = generate_trace("heavy-tail", rate=arrival_rate,
                           num_requests=num_requests, seed=seed,
                           prompt_mean=prompt_mean, prompt_max=prompt_max,
                           output_mean=output_mean, output_max=output_max)
    workload = FleetWorkload(
        model=model, trace=trace, num_replicas=num_replicas, routing=routing,
        batch_cap=batch_cap, num_layers=num_layers, kv_tile_rows=kv_tile_rows,
        seed=seed, report_mode="streaming", window_cycles=window_cycles,
        cost_model=cost_model, calibration_budget=calibration_budget)
    return Scenario(
        name="fleet-surrogate",
        workloads={"fleet": workload},
        schedules=Schedule.dynamic(),
        seed=seed,
        description="fleet-scale heavy-tailed trace on the surrogate engine",
    )
