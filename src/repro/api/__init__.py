"""repro.api — the unified experiment API: one facade for workloads,
schedules, platforms and simulation.

Every result in the paper is an instance of one pattern: *build a workload
graph under a schedule, simulate it on a hardware platform, collect
metrics*.  This package expresses that pattern once, in declarative layers:

1. **Workloads** (:mod:`repro.api.workload`) — adapters wrapping the graph
   builders in :mod:`repro.workloads` behind one protocol: ``params()``
   (picklable constructor data), ``build(schedule, hardware)`` (the program +
   input streams) and ``run(schedule, hardware)`` (flat metrics).  Shipped
   adapters: :class:`MoEWorkload`, :class:`AttentionWorkload`,
   :class:`QKVWorkload`, :class:`DecoderWorkload` (end-to-end layers) and
   :class:`DenseFFNWorkload`.
2. **Schedules** (:class:`repro.schedules.Schedule`) — the unified schedule
   composes the tiling / time-multiplexing / parallelization descriptors into
   the actual configuration the builders consume, replacing the per-call-site
   knobs that used to be scattered across the codebase.
3. **Platforms** (:mod:`repro.platforms`) — a :class:`Platform` is a named,
   registered, JSON-round-trippable hardware configuration
   (:func:`get_platform` / :func:`register_platform` /
   :func:`platform_names`; presets ``"sda"``, ``"sda-hbm256"``,
   ``"sda-detailed"``, ``"sda-hbm-small"``); :func:`resolve_platform` is the
   single resolution
   path every subsystem uses instead of per-call-site hardware defaults.
4. **Scenarios** (:mod:`repro.api.scenario`) — a :class:`Scenario` is a named
   workloads × schedules × platforms grid plus a seed; :func:`run` executes
   it through the sweep subsystem (parallel workers, on-disk result caching
   with platform identity in every cache key), and a registry
   (:func:`register_scenario` / :func:`get_scenario`) makes scenarios
   addressable by name.
5. **Experiments** (:mod:`repro.api.experiment`) — an :class:`ExperimentSpec`
   wraps a scenario grid, a parametric :class:`~repro.sweep.SweepSpec` (the
   serving load studies) or a native figure entry point in one serializable
   record; :func:`experiment` resolves figures, scenarios, bench cases and
   ``"serve-latency"`` by name and :func:`run_experiment` executes any of
   them uniformly.

A complete three-axis experiment in ten lines::

    from repro.api import MoEWorkload, Scenario, Schedule, platform_grid, run
    from repro.data.expert_routing import generate_routing_trace, representative_iteration
    from repro.workloads.configs import QWEN3_30B_A3B, scaled_config

    model = scaled_config(QWEN3_30B_A3B, scale=32)
    routing = representative_iteration(generate_routing_trace(model, batch_size=16, seed=0))
    result = run(Scenario(
        name="my-tiling-study",
        workloads=MoEWorkload(model=model, batch=16, assignments=routing),
        schedules={"tile=8": Schedule.static("tile=8", 8), "dynamic": Schedule.dynamic()},
        platforms=platform_grid(onchip_bandwidths=(64.0, 256.0))))
    print({(row.schedule, row.platform): row["cycles"] for row in result.rows})

The figure modules in :mod:`repro.experiments` are thin wrappers over this
API, so anything they reproduce you can re-mix by declaring a new scenario.
"""

from ..platforms import (PLATFORMS, Platform, default_platform, get_platform,
                         platform_grid, platform_names, register_platform,
                         resolve_platform)
from ..schedules import (ParallelizationSchedule, Schedule, TilingSchedule,
                         TimeMultiplexSchedule, dynamic_tiling, parallelization,
                         static_tiling, time_multiplexing)
from ..sweep import ResultCache, SweepRunner, SweepSpec
from .experiment import (ExperimentResult, ExperimentSpec, experiment,
                         experiment_descriptions, experiment_names,
                         register_experiment, run_experiment)
from .scenario import (SCENARIOS, Scenario, ScenarioResult, ScenarioRow, get_scenario,
                       register_scenario, run, scenario_descriptions, scenario_names)
from .workload import (WORKLOAD_KINDS, AttentionWorkload, BuiltWorkload,
                       DecoderWorkload, DenseFFNWorkload, MoEWorkload, QKVWorkload,
                       Workload, WorkloadBase, register_workload, workload_from_params)
from . import library  # registers the built-in scenarios  # noqa: F401
from ..serve import library as _serve_library  # registers serve-* scenarios  # noqa: F401
from ..serve.policy import (ServePolicy, get_serve_policy, policy_grid,
                            resolve_serve_policy, serve_policy_names)
from ..serve.streaming import DEFAULT_SKETCH_ACCURACY, DEFAULT_WINDOW_CYCLES

#: facade entry points that already warned about a deprecated kwarg spelling
#: (one warning per call site name, not one per call)
_DEPRECATION_WARNED = set()


def _resolve_serve_args(caller: str, platform, hardware, policy,
                        serve_kwargs):
    """Shared kwarg normalization for :func:`serve` / :func:`serve_fleet`.

    One path resolves the unified facade arguments for both entry points:
    ``platform`` is the hardware spelling going forward; ``hardware`` is the
    pre-platform spelling and keeps working through a warn-once
    :class:`DeprecationWarning` shim (passing both is a
    :class:`~repro.core.errors.ConfigError`).  ``policy`` accepts anything
    :func:`repro.serve.resolve_serve_policy` does — ``None`` (the default
    policy), a :class:`~repro.serve.ServePolicy`, a preset name or a spec
    mapping.  Returns ``(platform, serve_config_kwargs)`` with the resolved
    policy folded into ``serve_kwargs``.
    """
    import warnings

    from ..core.errors import ConfigError

    if hardware is not None:
        if platform is not None:
            raise ConfigError(f"{caller}: pass either platform= or the "
                              f"legacy hardware=, not both")
        if caller not in _DEPRECATION_WARNED:
            _DEPRECATION_WARNED.add(caller)
            warnings.warn(
                f"{caller}(hardware=...) is deprecated; pass platform= "
                f"(a Platform, a registered platform name, or a raw "
                f"HardwareConfig — resolve_platform handles all three)",
                DeprecationWarning, stacklevel=3)
        platform = hardware
    serve_kwargs = dict(serve_kwargs)
    serve_kwargs["policy"] = resolve_serve_policy(policy)
    return platform, serve_kwargs


def serve(model, trace, schedule=None, *, batch_cap: int = 8, num_layers: int = 2,
          platform=None, hardware=None, policy=None, kv_tile_rows: int = 64,
          kv_mode: str = "paged", eviction_policy: str = "evict-lru",
          moe_compute_bw: int = 8192, attention_compute_bw: int = 256,
          seed: int = 0, report_mode: str = "full",
          window_cycles: float = DEFAULT_WINDOW_CYCLES,
          sketch_accuracy: float = DEFAULT_SKETCH_ACCURACY,
          engine: str = "exact", cost_model=None,
          calibration_budget: int = 64):
    """Run one open-loop serving simulation and return its full report.

    ``trace`` is a :class:`repro.serve.ArrivalTrace` (build one with
    :func:`repro.serve.poisson_trace` / :func:`repro.serve.burst_trace` or
    load a recorded JSON trace with :func:`repro.serve.load_trace`);
    ``schedule`` defaults to the paper's dynamic schedule and ``platform`` to
    the default ``"sda"`` platform (``hardware`` is the deprecated spelling of
    the same argument).  ``policy`` selects the scheduling discipline — a
    preset name (see :func:`repro.serve.serve_policy_names`), a
    :class:`repro.serve.ServePolicy` spec or a spec dict; the default
    reproduces the historical scheduler exactly.  Returns the
    :class:`repro.serve.ServingReport` with per-request TTFT/TPOT/e2e records,
    percentiles, per-priority-class breakdowns, goodput and the queue-depth
    timeline.  On a platform with a
    finite ``hbm_capacity_bytes``, ``kv_mode`` (``"paged"`` or
    ``"contiguous"``) selects the KV allocator and ``eviction_policy`` the
    preemption victim order (see :func:`repro.serve.eviction_policy_names`);
    both are inert — and the report bit-identical — when capacity is
    unbounded.  ``report_mode="streaming"`` reports through O(1)-memory
    percentile sketches and windowed timelines (`window_cycles` wide, error
    bound ``sketch_accuracy``) instead of per-request records — the mode for
    very large traces (see :mod:`repro.serve.streaming`).
    ``engine="surrogate"`` replaces per-step simulation with a cost-model
    prediction (``cost_model`` names a registered kind, carries a payload
    dict or a fitted :class:`repro.costmodel.CostModel`; the default
    adaptively calibrates from the first ``calibration_budget`` distinct
    step signatures — see :mod:`repro.costmodel`).  For grids (rates ×
    schedules × caps × policies), prefer the
    registered ``serve-*`` scenarios or :func:`repro.serve.latency_load_spec`
    / :func:`repro.serve.policy_shootout_spec`.
    """
    from ..serve.scheduler import ServeConfig, simulate_serving

    platform, config_kwargs = _resolve_serve_args(
        "serve", platform, hardware, policy,
        dict(model=model, batch_cap=batch_cap, num_layers=num_layers,
             kv_tile_rows=kv_tile_rows, kv_mode=kv_mode,
             eviction_policy=eviction_policy, moe_compute_bw=moe_compute_bw,
             attention_compute_bw=attention_compute_bw, seed=seed,
             report_mode=report_mode, window_cycles=window_cycles,
             sketch_accuracy=sketch_accuracy, engine=engine,
             cost_model=cost_model, calibration_budget=calibration_budget))
    return simulate_serving(ServeConfig(**config_kwargs), trace, schedule,
                            hardware=platform)


def serve_fleet(model, trace, schedule=None, *, num_replicas: int = 2,
                routing: str = "round-robin", warmup_cycles: float = 0.0,
                autoscaler=None, batch_cap: int = 8, num_layers: int = 2,
                platform=None, hardware=None, policy=None,
                kv_tile_rows: int = 64, kv_mode: str = "paged",
                eviction_policy: str = "evict-lru",
                moe_compute_bw: int = 8192, attention_compute_bw: int = 256,
                seed: int = 0, report_mode: str = "full",
                window_cycles: float = DEFAULT_WINDOW_CYCLES,
                sketch_accuracy: float = DEFAULT_SKETCH_ACCURACY,
                engine: str = "exact",
                cost_model=None, calibration_budget: int = 64):
    """Serve one trace on a fleet of replicas and return its full report.

    The fleet runs ``num_replicas`` copies of the continuous-batching engine
    behind a dispatcher using the named ``routing`` policy (``"round-robin"``,
    ``"least-loaded"``, ``"least-kv"`` or ``"most-free-kv"``; see
    :func:`repro.serve.routing_policy_names`).  ``warmup_cycles`` charges each
    replica a one-time cold-start cost before its first step; pass an
    :class:`repro.serve.AutoscalerConfig` as ``autoscaler`` to scale the fleet
    reactively with queue depth.  ``platform`` / ``hardware`` / ``policy`` /
    ``kv_mode`` / ``eviction_policy`` / ``report_mode`` / ``engine`` /
    ``cost_model`` configure every
    replica's engine exactly
    as in :func:`serve` (same deprecation shim, same default policy; in
    streaming mode each replica keeps sketches and the fleet report merges
    them).  Returns the :class:`repro.serve.FleetReport`
    with per-replica serving reports, fleet-level latency percentiles,
    utilization/imbalance and the scaling-event timeline.  A fleet of one
    replica with zero warm-up reproduces :func:`serve` bit-for-bit.
    """
    from ..serve.fleet import FleetConfig, simulate_fleet
    from ..serve.scheduler import ServeConfig

    platform, config_kwargs = _resolve_serve_args(
        "serve_fleet", platform, hardware, policy,
        dict(model=model, batch_cap=batch_cap, num_layers=num_layers,
             kv_tile_rows=kv_tile_rows, kv_mode=kv_mode,
             eviction_policy=eviction_policy, moe_compute_bw=moe_compute_bw,
             attention_compute_bw=attention_compute_bw, seed=seed,
             report_mode=report_mode, window_cycles=window_cycles,
             sketch_accuracy=sketch_accuracy, engine=engine,
             cost_model=cost_model, calibration_budget=calibration_budget))
    config = FleetConfig(serve=ServeConfig(**config_kwargs),
                         num_replicas=num_replicas,
                         routing=routing, warmup_cycles=warmup_cycles,
                         autoscaler=autoscaler)
    return simulate_fleet(config, trace, schedule, hardware=platform)


__all__ = [
    # workloads
    "Workload",
    "WorkloadBase",
    "BuiltWorkload",
    "MoEWorkload",
    "AttentionWorkload",
    "QKVWorkload",
    "DecoderWorkload",
    "DenseFFNWorkload",
    "WORKLOAD_KINDS",
    "register_workload",
    "workload_from_params",
    # schedules
    "Schedule",
    "TilingSchedule",
    "TimeMultiplexSchedule",
    "ParallelizationSchedule",
    "static_tiling",
    "dynamic_tiling",
    "time_multiplexing",
    "parallelization",
    # platforms
    "Platform",
    "PLATFORMS",
    "register_platform",
    "get_platform",
    "platform_names",
    "platform_grid",
    "default_platform",
    "resolve_platform",
    # scenarios
    "Scenario",
    "ScenarioResult",
    "ScenarioRow",
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "scenario_descriptions",
    # experiments
    "ExperimentSpec",
    "ExperimentResult",
    "experiment",
    "experiment_names",
    "experiment_descriptions",
    "register_experiment",
    "run_experiment",
    "run",
    "serve",
    "serve_fleet",
    # scheduling policies
    "ServePolicy",
    "get_serve_policy",
    "serve_policy_names",
    "resolve_serve_policy",
    "policy_grid",
    # execution
    "ResultCache",
    "SweepRunner",
    "SweepSpec",
]
