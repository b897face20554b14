"""Serving workload adapters — serving steps and whole serving runs as Workloads.

Two adapters connect the serving simulator to the unified scenario API:

* :class:`ServeStepWorkload` — **one engine step** of a continuous-batching
  server: QKV generation and the MoE block over the step's token batch plus
  decode attention over the per-request KV-cache lengths, composed exactly
  like :func:`repro.workloads.model.evaluate_layer` composes a decoder layer
  (sub-layers are data dependent, so step latency is their sum, scaled by the
  layer count).  The scheduler maps every step it issues onto one of these,
  so serving rides the same builders, unified schedules and simulator as the
  closed-loop experiments.  The scheduler calls the three sub-layer
  simulations (``simulate_qkv`` / ``simulate_attention`` / ``simulate_moe``)
  one at a time, memoizes each, and sums them with the same
  :meth:`ServeStepWorkload.compose` as ``run``.
* :class:`ServeWorkload` — a **whole serving run**: an arrival trace plus a
  batch cap; ``run`` executes the open-loop simulation
  (:func:`repro.serve.scheduler.simulate_serving`) under the given schedule
  and reports the flat :meth:`~repro.serve.report.ServingReport.metrics`.
  Because it is a registered workload, serving runs drop into scenarios,
  sweep grids, the result cache and the benchmark suite like any layer
  workload.

Both adapters are plain frozen-field dataclasses: picklable across the sweep
pool and canonicalizable for content-hash caching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

from ..api.workload import BuiltWorkload, WorkloadBase, register_workload
from ..core.errors import ConfigError
from ..data.expert_routing import generate_routing_trace, representative_iteration
from ..platforms import resolve_platform
from ..schedules import Schedule
from ..sim import SimReport, simulate
from ..sim.executors.common import HardwareConfig
from ..workloads.attention import AttentionConfig, build_attention_layer
from ..workloads.configs import ModelConfig
from ..workloads.moe import MoELayerConfig, build_moe_layer
from ..workloads.qkv import QKVConfig, build_qkv_layer
from .arrivals import ArrivalTrace
from .policy import ServePolicy, resolve_serve_policy
from .streaming import DEFAULT_SKETCH_ACCURACY, DEFAULT_WINDOW_CYCLES


def moe_tile_rows(schedule: Schedule, num_tokens: int) -> Optional[int]:
    """The schedule's MoE tile rows for a step of ``num_tokens`` tokens.

    Static schedules may carry tiles larger than a step's token batch; those
    clamp to the batch.  Dynamic tiling (``None``) stays ``None``.
    """
    tile_rows = schedule.moe_tile_rows
    return tile_rows if tile_rows is None else min(tile_rows, num_tokens)


@register_workload
@dataclass
class ServeStepWorkload(WorkloadBase):
    """One continuous-batching engine step as a (composite) workload.

    ``num_tokens`` is the step's token batch — the QKV / MoE batch dimension
    (prompt tokens of prefilling requests plus one token per decoding
    request); ``kv_lengths`` carries one KV-cache length per *running
    request* — the attention batch.  ``routing_seed`` makes the MoE routing
    of the step deterministic without shipping per-token assignments.
    """

    kind: ClassVar[str] = "serve_step"

    model: ModelConfig
    num_tokens: int
    kv_lengths: Tuple[int, ...]
    routing_seed: int = 0
    num_layers: int = 1
    kv_tile_rows: int = 64
    moe_compute_bw: int = 8192
    attention_compute_bw: int = 256

    def __post_init__(self) -> None:
        object.__setattr__(self, "kv_lengths", tuple(int(v) for v in self.kv_lengths))
        if self.num_tokens < 1:
            raise ConfigError(f"serve step: num_tokens must be >= 1, got {self.num_tokens}")
        if not self.kv_lengths:
            raise ConfigError("serve step: at least one running request is required")
        if self.num_tokens < len(self.kv_lengths):
            raise ConfigError(
                f"serve step: {self.num_tokens} tokens cannot cover "
                f"{len(self.kv_lengths)} running requests (>= 1 token each)")

    def build(self, schedule: Schedule,
              hardware: Optional[HardwareConfig] = None) -> BuiltWorkload:
        raise ConfigError("ServeStepWorkload is composite (three sub-layer programs); "
                          "use run() — there is no single Program to build")

    # -- the three sub-layer simulations, on a resolved HardwareConfig ------------
    # Each reads only what its step-memo key in repro.serve.scheduler names:
    # QKV no schedule, attention only the parallelization, MoE only the MoE
    # tiling and the routing seed, and none of them num_layers.  All three
    # take (schedule, hardware) so the scheduler can call them alike.

    def simulate_qkv(self, schedule: Schedule, hardware: HardwareConfig) -> SimReport:
        built = build_qkv_layer(QKVConfig(model=self.model, batch=self.num_tokens,
                                          compute_bw=self.moe_compute_bw))
        return simulate(built.program, built.inputs(), hardware=hardware)

    def simulate_attention(self, schedule: Schedule,
                           hardware: HardwareConfig) -> SimReport:
        par = schedule.parallelization
        built = build_attention_layer(AttentionConfig(
            model=self.model, batch=len(self.kv_lengths), strategy=par.strategy,
            num_regions=par.num_regions, coarse_chunk=par.coarse_chunk,
            kv_tile_rows=self.kv_tile_rows, compute_bw=self.attention_compute_bw))
        return simulate(built.program, built.inputs(list(self.kv_lengths)),
                        hardware=hardware)

    def simulate_moe(self, schedule: Schedule, hardware: HardwareConfig) -> SimReport:
        assignments = representative_iteration(generate_routing_trace(
            self.model, batch_size=self.num_tokens, num_iterations=1,
            seed=self.routing_seed))
        built = build_moe_layer(MoELayerConfig(
            model=self.model, batch=self.num_tokens,
            tile_rows=moe_tile_rows(schedule, self.num_tokens),
            num_regions=schedule.moe_num_regions,
            combine_output=schedule.moe_num_regions is None,
            compute_bw=self.moe_compute_bw))
        return simulate(built.program, built.inputs(assignments), hardware=hardware)

    @staticmethod
    def compose(qkv: float, attention: float, moe: float, num_layers: int) -> float:
        """A step's cycles from its sub-layers' cycles: their sum, per layer."""
        return float((qkv + attention + moe) * num_layers)

    def run(self, schedule: Schedule,
            hardware: Optional[HardwareConfig] = None) -> Dict[str, float]:
        hardware = resolve_platform(hardware).hardware
        reports = {"qkv": self.simulate_qkv(schedule, hardware),
                   "attention": self.simulate_attention(schedule, hardware),
                   "moe": self.simulate_moe(schedule, hardware)}
        metrics: Dict[str, float] = {
            "cycles": self.compose(*(r.cycles for r in reports.values()),
                                   self.num_layers),
            "offchip_traffic_bytes": float(
                sum(r.offchip_traffic for r in reports.values()) * self.num_layers),
            "onchip_memory_bytes": float(
                sum(r.onchip_memory for r in reports.values())),
            "allocated_compute_flops_per_cycle": float(
                sum(r.allocated_compute for r in reports.values())),
            "num_layers": float(self.num_layers),
        }
        for sub, report in reports.items():
            metrics[f"step_{sub}_cycles"] = float(report.cycles)
        return metrics

    def label(self) -> str:
        return f"serve_step:{self.model.name}:t{self.num_tokens}:r{len(self.kv_lengths)}"


@register_workload
@dataclass
class ServeWorkload(WorkloadBase):
    """A whole open-loop serving run over an arrival trace.

    ``run`` executes the continuous-batching scheduler against ``trace`` under
    the given unified schedule and returns the flat serving metrics (TTFT /
    TPOT / e2e percentiles, goodput, queue depths — see
    :meth:`repro.serve.report.ServingReport.metrics`).  Use
    :func:`repro.api.serve` (or :func:`repro.serve.scheduler.simulate_serving`
    directly) when the full :class:`~repro.serve.report.ServingReport` —
    per-request records and the queue timeline — is needed.
    """

    kind: ClassVar[str] = "serve"

    model: ModelConfig
    trace: ArrivalTrace
    batch_cap: int = 8
    num_layers: int = 2
    kv_tile_rows: int = 64
    moe_compute_bw: int = 8192
    attention_compute_bw: int = 256
    seed: int = 0
    #: KV allocation discipline on capacity-bounded platforms
    kv_mode: str = "paged"
    #: preemption victim choice under memory pressure
    eviction_policy: str = "evict-lru"
    #: the scheduling discipline (admission × batching × priority);
    #: None = the default policy, the historical scheduler exactly
    policy: Optional[ServePolicy] = None
    #: ``"full"`` keeps every record/step; ``"streaming"`` reports through
    #: O(1)-memory sketches (:mod:`repro.serve.streaming`)
    report_mode: str = "full"
    #: streaming timeline window width, in cycles
    window_cycles: float = DEFAULT_WINDOW_CYCLES
    #: streaming percentile sketch relative-error bound
    sketch_accuracy: float = DEFAULT_SKETCH_ACCURACY
    #: step-costing tier: ``"exact"`` simulates every step,
    #: ``"surrogate"`` predicts from a cost model
    engine: str = "exact"
    #: surrogate cost model (kind name, payload dict or CostModel);
    #: None under ``engine="surrogate"`` = adaptive ``"calibrated"``
    cost_model: Optional[object] = None
    #: distinct signatures probed exactly before the adaptive fit
    calibration_budget: int = 64

    def build(self, schedule: Schedule,
              hardware: Optional[HardwareConfig] = None) -> BuiltWorkload:
        raise ConfigError("ServeWorkload simulates a request-level serving run; "
                          "use run() — there is no single Program to build")

    def report(self, schedule: Schedule,
               hardware: Optional[HardwareConfig] = None):
        """The full :class:`~repro.serve.report.ServingReport` of this run."""
        from .scheduler import ServeConfig, simulate_serving

        config = ServeConfig(model=self.model, batch_cap=self.batch_cap,
                             num_layers=self.num_layers,
                             kv_tile_rows=self.kv_tile_rows,
                             moe_compute_bw=self.moe_compute_bw,
                             attention_compute_bw=self.attention_compute_bw,
                             seed=self.seed, kv_mode=self.kv_mode,
                             eviction_policy=self.eviction_policy,
                             policy=resolve_serve_policy(self.policy),
                             report_mode=self.report_mode,
                             window_cycles=self.window_cycles,
                             sketch_accuracy=self.sketch_accuracy,
                             engine=self.engine, cost_model=self.cost_model,
                             calibration_budget=self.calibration_budget)
        return simulate_serving(config, self.trace, schedule, hardware=hardware)

    def run(self, schedule: Schedule,
            hardware: Optional[HardwareConfig] = None) -> Dict[str, float]:
        return self.report(schedule, hardware).metrics()

    def label(self) -> str:
        base = f"serve:{self.trace.name}:cap{self.batch_cap}"
        if self.policy is None:
            return base
        return f"{base}:{self.policy.label}"
