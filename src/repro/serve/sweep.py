"""Serving sweeps: the ``"serve"``/``"fleet"`` tasks and load grids.

The scenario path (:class:`~repro.serve.scheduler.ServeWorkload` under the
generic ``"workload"`` task) covers grids whose points are pre-built workload
objects.  Load studies instead sweep *generator parameters* — the arrival rate
and the batch cap — so this module registers dedicated ``"serve"`` and
``"fleet"`` sweep tasks taking plain parameters and building the trace inside
the worker (a 100k-request trace never crosses the pool boundary), which
makes ``SweepSpec`` axes as simple as ``{"arrival_rate": [...],
"batch_cap": [...]}`` (cartesian load grids, cached and pool-parallel like
every other sweep).  Server knobs are not restated here: the tasks hand them
straight to :class:`~repro.serve.scheduler.ServeConfig` /
:class:`~repro.serve.fleet.FleetConfig`.

Hardware arrives as a named :class:`~repro.platforms.Platform` (the
``platform`` parameter), resolved through the same single path as every other
subsystem, so serving load grids can sweep platforms exactly like scenarios
do and platform identity participates in every cache key.

Six grid builders:

* :func:`latency_load_spec` — one (schedule, model) pair swept over arrival
  rates and batch caps,
* :func:`serve_latency_spec` — the full latency-vs-load record: schedules ×
  arrival rates × batch caps in **one** cartesian spec, which is what the
  registered ``"serve-latency"`` experiment wraps (see
  :mod:`repro.experiments.serve_latency`),
* :func:`fleet_latency_spec` — the fleet-scale record over the ``"fleet"``
  task: replicas × routing policies × arrival rates in one cartesian spec
  (the ``"fleet-latency"`` experiment, see
  :mod:`repro.experiments.fleet_latency`),
* :func:`memory_pressure_spec` — HBM capacities × arrival rates with the
  *platform as a swept axis*: the goodput-cliff record behind the
  ``"memory-pressure"`` experiment (see
  :mod:`repro.experiments.memory_pressure`),
* :func:`policy_shootout_spec` — scheduling policies × platforms × arrival
  rates with a tail-TTFT SLO: the policy-comparison record behind the
  ``policy-shootout`` experiment (see
  :mod:`repro.experiments.policy_shootout`),
* :func:`capacity_spec` — platforms × arrival rates under a production-shaped
  registered trace generator and a TTFT SLO: the max-sustainable-rate record
  behind the ``capacity`` experiment (see :mod:`repro.experiments.capacity`).

The ``seed`` lives in ``base`` so every grid point serves the *same-seed*
traffic (rate changes the inter-arrival scale, not the random stream), which
is what makes a latency-vs-load curve comparable across its points.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, Mapping, Optional, Sequence

from ..core.errors import ConfigError
from ..platforms import Platform, PlatformLike, resolve_platform
from ..schedules import Schedule
from ..sweep import SweepSpec, register_task
from ..workloads.configs import ModelConfig
from .arrivals import (DEFAULT_OUTPUT_MAX, DEFAULT_OUTPUT_MEAN,
                       DEFAULT_OUTPUT_SIGMA, DEFAULT_PROMPT_MAX,
                       DEFAULT_PROMPT_MEAN, DEFAULT_PROMPT_QUANTUM,
                       DEFAULT_PROMPT_SIGMA)
from .fleet import AutoscalerConfig, FleetConfig, simulate_fleet
from .generators import generate_trace
from .policy import policy_grid
from .scheduler import ServeConfig, simulate_serving

#: the trace-shape knobs of the ``"serve"``/``"fleet"`` tasks, with the
#: values every point hands its registered generator unless it sets its own
_TRACE_DEFAULTS = {
    "prompt_mean": DEFAULT_PROMPT_MEAN, "prompt_sigma": DEFAULT_PROMPT_SIGMA,
    "prompt_max": DEFAULT_PROMPT_MAX, "prompt_quantum": DEFAULT_PROMPT_QUANTUM,
    "output_mean": DEFAULT_OUTPUT_MEAN, "output_sigma": DEFAULT_OUTPUT_SIGMA,
    "output_max": DEFAULT_OUTPUT_MAX,
}

#: the per-point knobs the load-grid builders may forward beyond the grid
#: axes: every server knob, the trace shape, the generator and the TTFT SLO
_FORWARDABLE_KNOBS = frozenset(
    {f.name for f in fields(ServeConfig)} - {"model"}
    | set(_TRACE_DEFAULTS) | {"generator", "ttft_slo"})


def _point_inputs(config_cls, model: ModelConfig, arrival_rate: float,
                  num_requests: int, knobs: Dict[str, object]):
    """One point's server config and trace, built inside the worker.

    ``knobs`` splits into the trace shape (``generator`` plus the length
    knobs of :data:`_TRACE_DEFAULTS`) and the server knobs, which go
    straight into ``config_cls``.  The trace is seeded with the config's
    ``seed``, so every point of a grid serves the same-seed traffic.
    """
    generator = knobs.pop("generator", "poisson")
    shape = {key: knobs.pop(key, default)
             for key, default in _TRACE_DEFAULTS.items()}
    config = config_cls(model=model, **knobs)
    trace = generate_trace(generator, rate=arrival_rate,
                           num_requests=num_requests, seed=config.seed, **shape)
    return config, trace


@register_task("serve")
def serve_point(model: ModelConfig, schedule: Schedule, arrival_rate: float,
                num_requests: int, platform: Optional[Platform] = None,
                ttft_slo: Optional[float] = None, **knobs) -> Dict[str, float]:
    """One serving design point: generate the trace, serve it, report metrics.

    The trace is rebuilt from its parameters inside the worker (nothing large
    crosses the pool boundary), and the returned payload carries the swept
    coordinates alongside the serving metrics so result rows are
    self-describing.  ``knobs`` are the trace shape (``generator`` names a
    registered shape, :mod:`repro.serve.generators`, plus the
    :func:`~repro.serve.arrivals.poisson_trace` length knobs) and any
    :class:`~repro.serve.scheduler.ServeConfig` field.  Every knob is a plain
    task parameter, so it participates in the sweep cache key; pass fitted
    cost models as instances or ``to_dict()`` payloads so the model's
    *content* keys the cache.  A ``ttft_slo`` (cycles) adds the
    strict-goodput view — ``slo_attainment`` and ``slo_goodput_rpmc`` — to
    the payload.
    """
    config, trace = _point_inputs(ServeConfig, model, arrival_rate,
                                  num_requests, knobs)
    report = simulate_serving(config, trace, schedule, hardware=platform)
    payload = {"arrival_rate": float(arrival_rate),
               "batch_cap": float(config.batch_cap),
               "policy": config.policy.label, **report.metrics()}
    if ttft_slo is not None:
        payload["slo_attainment"] = float(report.slo_attainment(ttft_slo))
        payload["slo_goodput_rpmc"] = float(report.slo_goodput(ttft_slo))
    return payload


def _load_grid_base(model: ModelConfig, platform: PlatformLike, num_requests: int,
                    seed: int, num_layers: int,
                    knobs: Mapping[str, object]) -> Dict[str, object]:
    unknown = set(knobs) - _FORWARDABLE_KNOBS
    if unknown:
        raise ConfigError(f"serving load grid: unsupported knobs "
                          f"{sorted(unknown)}; forwardable: "
                          f"{sorted(_FORWARDABLE_KNOBS)}")
    return {"model": model, "platform": resolve_platform(platform),
            "num_requests": num_requests, "seed": seed,
            "num_layers": num_layers, **knobs}


def latency_load_spec(model: ModelConfig, schedule: Schedule,
                      rates: Sequence[float], batch_caps: Sequence[int] = (8,),
                      num_requests: int = 32, seed: int = 0,
                      hardware: PlatformLike = None,
                      num_layers: int = 2, name: Optional[str] = None,
                      **knobs) -> SweepSpec:
    """An arrival-rate × batch-cap load grid as a cartesian :class:`SweepSpec`."""
    base = _load_grid_base(model, hardware, num_requests, seed, num_layers,
                           knobs)
    base["schedule"] = schedule
    return SweepSpec(
        name=name or f"serve-load-{schedule.name}",
        task="serve",
        base=base,
        axes={"arrival_rate": [float(r) for r in rates],
              "batch_cap": [int(c) for c in batch_caps]},
        mode="cartesian",
        seed=seed,
    )


@register_task("fleet")
def fleet_point(model: ModelConfig, schedule: Schedule, arrival_rate: float,
                num_requests: int, platform: Optional[Platform] = None,
                **knobs) -> Dict[str, float]:
    """One fleet design point: generate the trace, serve it on N replicas.

    Mirrors :func:`serve_point`, with ``knobs`` taking any
    :class:`~repro.serve.fleet.FleetConfig` field: the fleet axes (replica
    count, routing, warm-up, autoscaler) on top of the per-replica server
    knobs every replica shares.  The returned payload carries the swept
    coordinates (rate, replica count, routing policy) alongside the fleet
    metrics so result rows are self-describing.
    """
    config, trace = _point_inputs(FleetConfig, model, arrival_rate,
                                  num_requests, knobs)
    report = simulate_fleet(config, trace, schedule, hardware=platform)
    return {"arrival_rate": float(arrival_rate),
            "num_replicas": float(config.num_replicas),
            "routing": config.routing, "policy": config.policy.label,
            **report.metrics()}


def fleet_latency_spec(model: ModelConfig, schedule: Schedule,
                       rates: Sequence[float],
                       num_replicas: Sequence[int] = (1, 2, 4),
                       routings: Sequence[str] = ("round-robin", "least-loaded",
                                                  "least-kv"),
                       batch_cap: int = 4, num_requests: int = 32, seed: int = 0,
                       platform: PlatformLike = None, num_layers: int = 2,
                       warmup_cycles: float = 0.0,
                       autoscaler: Optional[AutoscalerConfig] = None,
                       name: str = "fleet-latency",
                       **knobs) -> SweepSpec:
    """The fleet study as **one** cartesian spec over the ``"fleet"`` task.

    Axes are (replicas, routing, arrival rate), replica-major, so the grid
    row for replicas ``i``, routing ``j``, rate ``k`` sits at index
    ``(i * len(routings) + j) * len(rates) + k``.  Every point serves the
    *same-seed* traffic (the seed lives in ``base``), which is what makes the
    latency-vs-replicas curves comparable across their points.
    """
    if not rates:
        raise ConfigError("fleet_latency_spec: at least one arrival rate is required")
    base = _load_grid_base(model, platform, num_requests, seed, num_layers,
                           knobs)
    base.update({"schedule": schedule, "batch_cap": batch_cap,
                 "warmup_cycles": warmup_cycles, "autoscaler": autoscaler})
    return SweepSpec(
        name=name,
        task="fleet",
        base=base,
        axes={"num_replicas": [int(n) for n in num_replicas],
              "routing": list(routings),
              "arrival_rate": [float(r) for r in rates]},
        mode="cartesian",
        seed=seed,
    )


def memory_pressure_spec(model: ModelConfig, schedule: Schedule,
                         rates: Sequence[float],
                         platforms: Sequence[PlatformLike],
                         batch_cap: int = 4, num_requests: int = 32,
                         seed: int = 0, num_layers: int = 2,
                         name: str = "memory-pressure",
                         **knobs) -> SweepSpec:
    """Offered load × HBM capacity as **one** cartesian spec.

    Axes are (platform, arrival rate), platform-major, so the grid row for
    platform ``i``, rate ``j`` sits at index ``i * len(rates) + j``.  The
    platforms differ only in ``hbm_capacity_bytes`` in the intended use
    (:func:`repro.platforms.platform_grid` with ``hbm_capacities=...``), so
    the curves isolate pure capacity effects: an unbounded platform's goodput
    plateaus past saturation while a capacity-bounded one *declines* —
    admission stalls, preemptions and recompute eat the makespan (the goodput
    cliff the ``memory-pressure`` experiment pins).  ``kv_mode`` /
    ``eviction_policy`` forward through ``knobs``.
    """
    if not rates:
        raise ConfigError("memory_pressure_spec: at least one arrival rate "
                          "is required")
    if not platforms:
        raise ConfigError("memory_pressure_spec: at least one platform "
                          "is required")
    base = _load_grid_base(model, None, num_requests, seed, num_layers,
                           knobs)
    del base["platform"]  # the platform is a swept axis here, not a base knob
    base.update({"schedule": schedule, "batch_cap": batch_cap})
    return SweepSpec(
        name=name,
        task="serve",
        base=base,
        axes={"platform": [resolve_platform(p) for p in platforms],
              "arrival_rate": [float(r) for r in rates]},
        mode="cartesian",
        seed=seed,
    )


def policy_shootout_spec(model: ModelConfig, schedule: Schedule,
                         rates: Sequence[float],
                         policies: Sequence[object] = (),
                         platforms: Sequence[PlatformLike] = (None,),
                         ttft_slo: float = 50_000.0,
                         batch_cap: int = 4, num_requests: int = 32,
                         seed: int = 0, num_layers: int = 2,
                         name: str = "policy-shootout",
                         **knobs) -> SweepSpec:
    """Scheduling policies × platforms × offered load as **one** cartesian spec.

    Axes are (policy, platform, arrival rate), policy-major, so the grid row
    for policy ``i``, platform ``j``, rate ``k`` sits at index
    ``(i * len(platforms) + j) * len(rates) + k``.  ``policies`` accepts
    anything :func:`~repro.serve.policy.policy_grid` does — preset names,
    :class:`~repro.serve.policy.ServePolicy` specs, or empty for every
    registered preset — and each policy is a regular axis value, so policy
    identity lands in every point's cache key.  Every point serves the
    *same-seed* traffic and reports ``slo_attainment`` /
    ``slo_goodput_rpmc`` against the shared ``ttft_slo`` (cycles), which is
    what makes tail-TTFT SLO attainment comparable across policies.
    """
    if not rates:
        raise ConfigError("policy_shootout_spec: at least one arrival rate "
                          "is required")
    if not platforms:
        raise ConfigError("policy_shootout_spec: at least one platform "
                          "is required")
    grid = policy_grid(*policies)
    base = _load_grid_base(model, None, num_requests, seed, num_layers,
                           knobs)
    del base["platform"]  # the platform is a swept axis here, not a base knob
    base.update({"schedule": schedule, "batch_cap": batch_cap,
                 "ttft_slo": float(ttft_slo)})
    return SweepSpec(
        name=name,
        task="serve",
        base=base,
        axes={"policy": list(grid.values()),
              "platform": [resolve_platform(p) for p in platforms],
              "arrival_rate": [float(r) for r in rates]},
        mode="cartesian",
        seed=seed,
    )


def capacity_spec(model: ModelConfig, schedule: Schedule,
                  rates: Sequence[float],
                  platforms: Sequence[PlatformLike],
                  ttft_slo: float = 150_000.0,
                  generator: str = "heavy-tail",
                  batch_cap: int = 4, num_requests: int = 32,
                  seed: int = 0, num_layers: int = 2,
                  report_mode: str = "full",
                  name: str = "capacity",
                  **knobs) -> SweepSpec:
    """Platforms × offered load under a production-shaped generator.

    Axes are (platform, arrival rate), platform-major, so the grid row for
    platform ``i``, rate ``j`` sits at index ``i * len(rates) + j`` — the
    record behind the ``capacity`` experiment, which walks each platform's
    rate curve for the highest rate whose ``slo_attainment`` still clears the
    target.  ``generator`` names any registered trace shape
    (:mod:`repro.serve.generators`); every point serves the *same-seed*
    traffic and reports against the shared ``ttft_slo``.
    """
    if not rates:
        raise ConfigError("capacity_spec: at least one arrival rate is required")
    if not platforms:
        raise ConfigError("capacity_spec: at least one platform is required")
    base = _load_grid_base(model, None, num_requests, seed, num_layers,
                           knobs)
    del base["platform"]  # the platform is a swept axis here, not a base knob
    base.update({"schedule": schedule, "batch_cap": batch_cap,
                 "ttft_slo": float(ttft_slo), "generator": generator,
                 "report_mode": report_mode})
    return SweepSpec(
        name=name,
        task="serve",
        base=base,
        axes={"platform": [resolve_platform(p) for p in platforms],
              "arrival_rate": [float(r) for r in rates]},
        mode="cartesian",
        seed=seed,
    )


def serve_latency_spec(model: ModelConfig, schedules: Mapping[str, Schedule],
                       rates: Sequence[float], batch_caps: Sequence[int] = (8,),
                       num_requests: int = 32, seed: int = 0,
                       platform: PlatformLike = None, num_layers: int = 2,
                       name: str = "serve-latency",
                       **knobs) -> SweepSpec:
    """The whole latency-vs-load study as **one** cartesian spec.

    Axes are (schedule, arrival rate, batch cap), schedule-major, so the grid
    row for schedule ``i``, rate ``j``, cap ``k`` sits at index
    ``(i * len(rates) + j) * len(batch_caps) + k``.  Every point is identical
    to the matching :func:`latency_load_spec` point (same task, same
    parameters — the spec name is excluded from cache keys), so the folded
    record shares cache entries with per-schedule grids.
    """
    if not schedules:
        raise ConfigError("serve_latency_spec: at least one schedule is required")
    base = _load_grid_base(model, platform, num_requests, seed, num_layers,
                           knobs)
    return SweepSpec(
        name=name,
        task="serve",
        base=base,
        axes={"schedule": list(schedules.values()),
              "arrival_rate": [float(r) for r in rates],
              "batch_cap": [int(c) for c in batch_caps]},
        mode="cartesian",
        seed=seed,
    )
