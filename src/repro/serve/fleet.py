"""Fleet-scale serving: multi-replica dispatch, routing policies, autoscaling.

One :class:`~repro.serve.scheduler.ReplicaEngine` is a single
continuous-batching server; production serving spreads open-loop traffic
across a *fleet* of them.  This module adds the dispatcher layer:

* **Routing policies** behind a registry (:func:`register_routing_policy` /
  :func:`get_routing_policy`): ``"round-robin"`` cycles over the active
  replicas, ``"least-loaded"`` picks the smallest queue depth
  (waiting + running requests), ``"least-kv"`` the smallest aggregate KV
  footprint (in ``kv_tile_rows``-quantized rows) and ``"most-free-kv"`` the
  most unreserved KV pages on capacity-bounded platforms — the serving
  analogue of the schedule registry pattern, so policies are a sweepable
  axis,
* **Warm-up cost**: every replica is cold until its first step and pays
  ``warmup_cycles`` once (weights loading / compilation), which is what makes
  reactive scale-up a latency trade-off instead of a free lunch,
* **A reactive autoscaler** (:class:`AutoscalerConfig`): at every arrival it
  smooths the per-replica queue depth with an EWMA and — outside a cooldown
  window — spawns a cold replica above ``scale_up_depth`` or retires the
  least-loaded one below ``scale_down_depth``, clamped to
  ``[min_replicas, max_replicas]``.  Retired replicas stop receiving traffic
  but drain what they already queued.

:func:`simulate_fleet` drives a trace through the dispatcher event loop:
advance every replica to each arrival, let the autoscaler react, route the
request, then drain the fleet.  The result is a
:class:`~repro.serve.report.FleetReport` — per-replica
:class:`~repro.serve.report.ServingReport`\\ s plus fleet-level latency
percentiles, utilization/imbalance and the scaling-event timeline.

Everything is deterministic: replicas are simulated engines sharing the step
memo, policies break ties by replica id, and the autoscaler's signal is a
pure function of the arrival sequence — the same ``(config, trace, schedule,
platform)`` reproduces the report bit-for-bit.  A fleet of **one** replica
with **zero** warm-up reproduces :func:`~repro.serve.scheduler.
simulate_serving` exactly (pinned by ``tests/serve/test_fleet.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence

from ..api.workload import WorkloadBase, register_workload
from ..core.errors import ConfigError
from ..platforms import PlatformLike
from ..schedules import Schedule
from .arrivals import ArrivalTrace, Request
from .policy import DEFAULT_POLICY
from .registry import attach_registry, resolve_registered, seal_builtins
from .report import FleetReport, ReplicaReport, ScalingEvent
from .scheduler import ReplicaEngine, ServeConfig


# ---------------------------------------------------------------------------
# Routing policies
# ---------------------------------------------------------------------------

class RoutingPolicy:
    """Picks the replica a request is dispatched to.

    ``choose`` sees the *active* replicas (retired ones are excluded by the
    dispatcher) in spawn order and returns one of them.  Policies may keep
    state (round-robin's cursor) — one instance is created per fleet run.
    Implementations must be deterministic: equal load must break ties by
    ``replica_id`` so reruns reproduce the same assignment.
    """

    name: ClassVar[str] = ""

    def choose(self, replicas: Sequence[ReplicaEngine],
               request: Request) -> ReplicaEngine:
        raise NotImplementedError


#: policy name -> zero-argument factory producing a fresh policy instance
ROUTING_POLICIES: Dict[str, Callable[[], RoutingPolicy]] = \
    attach_registry("routing", {})


def register_routing_policy(name: str):
    """Decorator registering a routing-policy class under ``name``."""

    def wrap(cls):
        if name in ROUTING_POLICIES:
            raise ConfigError(f"routing policy {name!r} is already registered")
        cls.name = name
        ROUTING_POLICIES[name] = cls
        return cls

    return wrap


def get_routing_policy(name: str) -> RoutingPolicy:
    """A fresh instance of the registered policy ``name``.

    Unknown names raise a :class:`ConfigError` listing the registered ones —
    the one shared error path of :func:`repro.serve.registry.resolve_registered`.
    """
    return resolve_registered("routing", name)()


def routing_policy_names() -> List[str]:
    """The registered routing-policy names, sorted."""
    return sorted(ROUTING_POLICIES)


@register_routing_policy("round-robin")
class RoundRobinPolicy(RoutingPolicy):
    """Cycle over the active replicas, blind to their load."""

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, replicas: Sequence[ReplicaEngine],
               request: Request) -> ReplicaEngine:
        chosen = replicas[self._cursor % len(replicas)]
        self._cursor += 1
        return chosen


@register_routing_policy("least-loaded")
class LeastLoadedPolicy(RoutingPolicy):
    """Dispatch to the replica with the fewest queued + running requests."""

    def choose(self, replicas: Sequence[ReplicaEngine],
               request: Request) -> ReplicaEngine:
        return min(replicas, key=lambda r: (r.queue_depth, r.replica_id))


@register_routing_policy("least-kv")
class LeastKVPolicy(RoutingPolicy):
    """Dispatch to the replica with the smallest aggregate KV footprint.

    Queue depth counts requests; the KV signal weighs them by context size,
    so one long-context request counts for many short ones — the
    memory-pressure view of load.  The signal
    (:attr:`~repro.serve.scheduler.ReplicaEngine.kv_load`) is each request's
    KV rows **quantized up to ``kv_tile_rows``** — the granularity the
    simulator actually allocates at — summed over running requests (current
    context) and waiting ones (the context their next fill materializes).
    Quantization makes near-equal footprints compare *equal*; ties then
    break on ``replica_id`` (lowest wins), so the assignment is deterministic
    and independent of Python hash seeds.
    """

    def choose(self, replicas: Sequence[ReplicaEngine],
               request: Request) -> ReplicaEngine:
        return min(replicas, key=lambda r: (r.kv_load, r.replica_id))


@register_routing_policy("most-free-kv")
class MostFreeKVPolicy(RoutingPolicy):
    """Dispatch to the replica with the most unreserved KV pages.

    The capacity-aware sibling of ``least-kv``: instead of comparing demand
    (KV rows queued per replica) it compares *supply* —
    :attr:`~repro.serve.scheduler.ReplicaEngine.free_kv_pages`, the pages the
    replica's pool has left — so requests steer away from replicas about to
    preempt.  Replicas on unbounded platforms report infinite free pages and
    therefore always win over capacity-bounded ones; among equals the
    quantized ``kv_load`` and then the ``replica_id`` break ties, which keeps
    the policy meaningful (it degrades to exactly ``least-kv``) when no
    replica has a pool at all.
    """

    def choose(self, replicas: Sequence[ReplicaEngine],
               request: Request) -> ReplicaEngine:
        return min(replicas,
                   key=lambda r: (-r.free_kv_pages, r.kv_load, r.replica_id))


seal_builtins("routing")


# ---------------------------------------------------------------------------
# Autoscaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AutoscalerConfig:
    """Reactive queue-depth autoscaling between ``min`` and ``max`` replicas.

    At every arrival the autoscaler observes the mean queue depth per active
    replica, smooths it with an EWMA (``smoothing`` is the weight of the new
    observation), and — if ``cooldown_cycles`` have passed since the last
    scaling event — spawns a cold replica when the smoothed signal exceeds
    ``scale_up_depth`` or retires the least-loaded replica when it falls
    below ``scale_down_depth``.
    """

    min_replicas: int = 1
    max_replicas: int = 4
    #: smoothed per-replica queue depth above which a replica is added
    scale_up_depth: float = 4.0
    #: smoothed per-replica queue depth below which a replica is retired
    scale_down_depth: float = 0.5
    #: EWMA weight of the newest observation (1.0 = no smoothing)
    smoothing: float = 0.3
    #: minimum cycles between consecutive scaling events
    cooldown_cycles: float = 100_000.0

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ConfigError(f"min_replicas must be >= 1, got {self.min_replicas}")
        if self.max_replicas < self.min_replicas:
            raise ConfigError(f"max_replicas ({self.max_replicas}) must be >= "
                              f"min_replicas ({self.min_replicas})")
        if not 0.0 < self.smoothing <= 1.0:
            raise ConfigError(f"smoothing must be in (0, 1], got {self.smoothing}")
        if self.scale_down_depth >= self.scale_up_depth:
            raise ConfigError(f"scale_down_depth ({self.scale_down_depth}) must be "
                              f"below scale_up_depth ({self.scale_up_depth})")
        if self.cooldown_cycles < 0:
            raise ConfigError(f"cooldown_cycles must be >= 0, "
                              f"got {self.cooldown_cycles}")


class _Autoscaler:
    """The autoscaler's run state: EWMA signal + cooldown bookkeeping."""

    def __init__(self, config: AutoscalerConfig) -> None:
        self.config = config
        self.signal: Optional[float] = None
        self.last_event: Optional[float] = None
        self.events: List[ScalingEvent] = []

    def observe(self, cycle: float, active: Sequence[ReplicaEngine]) -> str:
        """Fold in one observation; returns ``"up"``, ``"down"`` or ``"hold"``."""
        depth = sum(r.queue_depth for r in active) / len(active)
        alpha = self.config.smoothing
        self.signal = depth if self.signal is None else \
            alpha * depth + (1.0 - alpha) * self.signal
        if self.last_event is not None and \
                cycle - self.last_event < self.config.cooldown_cycles:
            return "hold"
        if self.signal > self.config.scale_up_depth and \
                len(active) < self.config.max_replicas:
            return "up"
        if self.signal < self.config.scale_down_depth and \
                len(active) > self.config.min_replicas:
            return "down"
        return "hold"

    def record(self, cycle: float, action: str, num_active: int) -> None:
        self.last_event = cycle
        self.events.append(ScalingEvent(cycle=cycle, action=action,
                                        num_replicas=num_active,
                                        signal=float(self.signal)))


# ---------------------------------------------------------------------------
# The fleet simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FleetConfig(ServeConfig):
    """Fleet-side configuration: the replica template plus dispatcher knobs.

    The inherited :class:`ServeConfig` fields configure every replica (all
    replicas are identical); the four fields below configure the fleet.
    """

    #: replicas at simulation start
    num_replicas: int = 2
    #: registered routing-policy name
    routing: str = "round-robin"
    #: cold-start penalty each replica pays before its first step
    warmup_cycles: float = 0.0
    #: reactive scaling; ``None`` keeps the fleet size fixed
    autoscaler: Optional[AutoscalerConfig] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_replicas < 1:
            raise ConfigError(f"num_replicas must be >= 1, got {self.num_replicas}")
        if self.warmup_cycles < 0:
            raise ConfigError(f"warmup_cycles must be >= 0, got {self.warmup_cycles}")
        resolve_registered("routing", self.routing)


@dataclass
class _FleetState:
    """Mutable dispatcher state while a fleet run is in flight."""

    replicas: List[ReplicaEngine] = field(default_factory=list)
    active: List[ReplicaEngine] = field(default_factory=list)
    retired_at: Dict[int, float] = field(default_factory=dict)


def simulate_fleet(config: FleetConfig, trace: ArrivalTrace,
                   schedule: Optional[Schedule] = None,
                   hardware: PlatformLike = None) -> FleetReport:
    """Serve ``trace`` on a replica fleet and collect the aggregate report.

    The dispatcher event loop, per arrival: (1) advance every replica's clock
    to the arrival (replicas step independently — each is its own
    continuous-batching server), (2) let the autoscaler react to the observed
    queue depths, (3) route the request to an active replica.  After the last
    arrival the fleet drains.  ``hardware`` resolves through
    :func:`repro.platforms.resolve_platform` exactly like the single-engine
    path.
    """
    schedule = schedule or Schedule.dynamic()
    state = _FleetState()

    def spawn(cycle: float) -> ReplicaEngine:
        replica = ReplicaEngine(config, schedule, hardware,
                                warmup_cycles=config.warmup_cycles,
                                start_cycle=cycle,
                                replica_id=len(state.replicas))
        state.replicas.append(replica)
        state.active.append(replica)
        return replica

    for _ in range(config.num_replicas):
        spawn(0.0)
    policy = get_routing_policy(config.routing)
    scaler = _Autoscaler(config.autoscaler) if config.autoscaler else None

    for request in trace.requests:
        cycle = request.arrival
        for replica in state.replicas:
            replica.advance_to(cycle)
        if scaler is not None:
            decision = scaler.observe(cycle, state.active)
            if decision == "up":
                spawn(cycle)
                scaler.record(cycle, "scale-up", len(state.active))
            elif decision == "down":
                # retire the least-loaded active replica (newest on ties): it
                # stops receiving traffic but drains what it already holds
                victim = min(state.active,
                             key=lambda r: (r.queue_depth, -r.replica_id))
                state.active.remove(victim)
                state.retired_at[victim.replica_id] = cycle
                scaler.record(cycle, "scale-down", len(state.active))
        policy.choose(state.active, request).submit(request)

    for replica in state.replicas:
        replica.drain()

    total_cycles = max((r.now for r in state.replicas), default=0.0)
    replicas = tuple(
        ReplicaReport(replica_id=r.replica_id, spawned_at=r.spawned_at,
                      retired_at=state.retired_at.get(r.replica_id),
                      serving=r.report(trace.name))
        for r in state.replicas)
    return FleetReport(
        trace=trace.name,
        schedule=schedule.name,
        routing=config.routing,
        initial_replicas=config.num_replicas,
        warmup_cycles=config.warmup_cycles,
        replicas=replicas,
        scaling_events=tuple(scaler.events) if scaler is not None else (),
        total_cycles=total_cycles,
    )


# ---------------------------------------------------------------------------
# Scenario adapter
# ---------------------------------------------------------------------------

@register_workload
@dataclass(frozen=True)
class FleetWorkload(FleetConfig, WorkloadBase):
    """A whole fleet serving run as a scenario workload: config plus trace.

    The fleet counterpart of :class:`~repro.serve.scheduler.ServeWorkload`:
    the knobs are the inherited :class:`FleetConfig` fields, and ``run``
    executes :func:`simulate_fleet` under the given unified schedule and
    reports the flat :meth:`~repro.serve.report.FleetReport.metrics`, so
    replica counts and routing policies drop into scenarios, sweep grids, the
    result cache and the benchmark suite like any other axis.  Use
    :meth:`report` (or :func:`repro.api.serve_fleet`) when the full
    :class:`~repro.serve.report.FleetReport` is needed.
    """

    kind: ClassVar[str] = "fleet"

    trace: ArrivalTrace = field(kw_only=True)

    def build(self, schedule: Schedule, hardware: PlatformLike = None):
        raise ConfigError("FleetWorkload simulates a multi-replica serving run; "
                          "use run() — there is no single Program to build")

    def report(self, schedule: Schedule,
               hardware: PlatformLike = None) -> FleetReport:
        """The full :class:`~repro.serve.report.FleetReport` of this run."""
        return simulate_fleet(self, self.trace, schedule, hardware=hardware)

    def run(self, schedule: Schedule,
            hardware: PlatformLike = None) -> Dict[str, Any]:
        return self.report(schedule, hardware).metrics()

    def label(self) -> str:
        base = f"fleet:{self.trace.name}:r{self.num_replicas}:{self.routing}"
        if self.policy == DEFAULT_POLICY:
            return base
        return f"{base}:{self.policy.label}"
