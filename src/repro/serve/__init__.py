"""repro.serve — the request-level serving simulator.

Every other subsystem evaluates *closed-loop* scenarios: one layer invocation
at a fixed batch size.  This package models the paper's serving side — the
north star's "heavy traffic" — as an **open-loop** system: requests arrive
over time (:mod:`repro.serve.arrivals`), a continuous-batching scheduler
(:mod:`repro.serve.scheduler`) admits them into prefill/decode steps at
iteration granularity, every step is costed by simulating it as a
:class:`~repro.serve.workload.ServeStepWorkload` on the dataflow engine under
a unified :class:`~repro.schedules.Schedule`, and the run yields a
:class:`~repro.serve.report.ServingReport` with TTFT / TPOT / e2e latency
percentiles, goodput and a queue-depth timeline.

Under a platform with finite ``hbm_capacity_bytes``, KV-cache bytes become a
schedulable resource (:mod:`repro.serve.memory`): a paged allocator
(:class:`~repro.serve.memory.KVPagePool`) backs memory-aware admission and
preemption-with-recompute in the engine, with pluggable eviction policies
(``evict-lru`` / ``evict-largest-kv`` / ``evict-youngest``) and a
:class:`~repro.serve.memory.MemoryStats` block on every report.  Unbounded
platforms (the default) skip all of it and stay bit-identical.

Scaling up, :mod:`repro.serve.fleet` runs N replicas behind a dispatcher:
pluggable routing policies (round-robin / least-loaded / least-kv /
most-free-kv), per-replica cold-start warm-up cost and a reactive queue-depth
autoscaler, reported as a :class:`~repro.serve.report.FleetReport` aggregating
the per-replica serving reports with fleet-level percentiles, utilization and
the scaling timeline.

Entry points, highest level first:

* ``repro.api.serve(...)`` / ``repro.api.serve_fleet(...)`` — one serving
  (or fleet) run, full report,
* the registered ``serve-*`` / ``fleet-*`` scenarios
  (:mod:`repro.serve.library`) — named grids runnable via
  ``repro.api.run("serve-poisson")`` / ``run("fleet-grid")``,
* :func:`~repro.serve.sweep.latency_load_spec` /
  :func:`~repro.serve.sweep.fleet_latency_spec` — load grids on the sweep
  runner/cache (the ``"serve"`` and ``"fleet"`` tasks),
* :func:`~repro.serve.scheduler.simulate_serving` /
  :func:`~repro.serve.fleet.simulate_fleet` — the raw simulators.

Everything is deterministic: a trace is a pure function of its seed and a
report a pure function of (config, trace, schedule, hardware).
"""

from .arrivals import (MCYCLE, TRACE_JSONL_VERSION, ArrivalTrace, Request,
                       burst_trace, iter_trace_jsonl, load_trace,
                       load_trace_jsonl, poisson_trace, save_trace,
                       save_trace_jsonl, trace_from_lists)
from .generators import (GENERATORS, generate_trace, generator_names,
                         get_generator, register_generator)
from .streaming import (DEFAULT_SKETCH_ACCURACY, DEFAULT_WINDOW_CYCLES,
                        REPORT_MODES, QuantileSketch, StreamingStats,
                        WindowedTimeline)
from .registry import (builtin_names, is_builtin, registered_names,
                       registry_kinds, resolve_registered)
from .policy import (ADMISSION_POLICIES, BATCHING_POLICIES, DEFAULT_POLICY,
                     PRIORITY_POLICIES, SERVE_POLICIES, AdmissionPolicy,
                     BatchingPolicy, PriorityPolicy, ServePolicy,
                     admission_policy_names, batching_policy_names,
                     get_serve_policy, policy_grid, priority_policy_names,
                     register_admission_policy, register_batching_policy,
                     register_priority_policy, register_serve_policy,
                     resolve_serve_policy, serve_policy_names)
from .report import (PERCENTILE_POINTS, FleetReport, ReplicaReport,
                     RequestRecord, ScalingEvent, ServingReport, StepSample,
                     percentile, priority_breakdown, summarize)
from .workload import ServeStepWorkload
from .memory import (EVICTION_POLICIES, KV_MODES, EvictionPolicy, KVPagePool,
                     MemoryStats, eviction_policy_names, get_eviction_policy,
                     kv_bytes_per_row, register_eviction_policy)
from .scheduler import (ReplicaEngine, ServeConfig, ServeWorkload, StepMemo,
                        clear_step_cache, simulate_serving, step_cache_stats)
from .fleet import (AutoscalerConfig, FleetConfig, FleetWorkload, RoutingPolicy,
                    get_routing_policy, register_routing_policy,
                    routing_policy_names, simulate_fleet)
from .sweep import (capacity_spec, fleet_latency_spec, fleet_point,
                    latency_load_spec, memory_pressure_spec,
                    policy_shootout_spec, serve_point)
from . import library  # registers the serve-* / fleet-* scenarios  # noqa: F401

__all__ = [
    # arrivals
    "MCYCLE",
    "Request",
    "ArrivalTrace",
    "poisson_trace",
    "burst_trace",
    "trace_from_lists",
    "load_trace",
    "save_trace",
    "TRACE_JSONL_VERSION",
    "save_trace_jsonl",
    "load_trace_jsonl",
    "iter_trace_jsonl",
    # generators
    "GENERATORS",
    "register_generator",
    "get_generator",
    "generator_names",
    "generate_trace",
    # streaming analytics
    "REPORT_MODES",
    "DEFAULT_SKETCH_ACCURACY",
    "DEFAULT_WINDOW_CYCLES",
    "QuantileSketch",
    "WindowedTimeline",
    "StreamingStats",
    # report
    "PERCENTILE_POINTS",
    "RequestRecord",
    "StepSample",
    "ServingReport",
    "FleetReport",
    "ReplicaReport",
    "ScalingEvent",
    "percentile",
    "summarize",
    "priority_breakdown",
    # registries (shared index)
    "resolve_registered",
    "registered_names",
    "registry_kinds",
    "builtin_names",
    "is_builtin",
    # scheduling policies
    "ServePolicy",
    "DEFAULT_POLICY",
    "AdmissionPolicy",
    "BatchingPolicy",
    "PriorityPolicy",
    "ADMISSION_POLICIES",
    "BATCHING_POLICIES",
    "PRIORITY_POLICIES",
    "SERVE_POLICIES",
    "register_admission_policy",
    "register_batching_policy",
    "register_priority_policy",
    "register_serve_policy",
    "admission_policy_names",
    "batching_policy_names",
    "priority_policy_names",
    "serve_policy_names",
    "get_serve_policy",
    "resolve_serve_policy",
    "policy_grid",
    # workloads
    "ServeStepWorkload",
    "ServeWorkload",
    "FleetWorkload",
    # memory
    "KV_MODES",
    "KVPagePool",
    "MemoryStats",
    "kv_bytes_per_row",
    "EvictionPolicy",
    "EVICTION_POLICIES",
    "register_eviction_policy",
    "get_eviction_policy",
    "eviction_policy_names",
    # scheduler
    "ServeConfig",
    "ReplicaEngine",
    "StepMemo",
    "simulate_serving",
    "clear_step_cache",
    "step_cache_stats",
    # fleet
    "AutoscalerConfig",
    "FleetConfig",
    "RoutingPolicy",
    "simulate_fleet",
    "register_routing_policy",
    "get_routing_policy",
    "routing_policy_names",
    # sweeps
    "latency_load_spec",
    "serve_point",
    "fleet_latency_spec",
    "fleet_point",
    "memory_pressure_spec",
    "policy_shootout_spec",
    "capacity_spec",
]
