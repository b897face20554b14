"""End-to-end decoder models (Figure 17, Section 5.5).

A decoder layer comprises QKV generation, attention and the MoE block; the
paper fuses each layer into one STeP graph and executes it repeatedly with
layer-specific weights, parallelizing the batch dimension by four for QKV and
attention and using expert parallelism for the MoE.

This module evaluates the end-to-end models by composing the three sub-layer
programs: the sub-layers of one decoder layer execute back to back (they are
data dependent), so layer latency is the sum of the sub-layer latencies and
the layer's spatial resources (on-chip memory, allocated compute) are the sum
of the sub-graphs' resources; the model repeats the layer configuration with
layer-specific weights, so end-to-end latency and traffic scale with the layer
count while the resource footprint stays that of one layer.  This mirrors the
paper's "single fused layer graph executed repeatedly" setup while keeping the
pure-Python simulation tractable; the (small) pipelining overlap between
adjacent sub-layers inside one fused graph is the only effect lost, and it is
identical across the compared schedules.

Three schedules are compared, as in Figure 17:

* ``dynamic`` — dynamic tiling for the MoE, dynamic parallelization for
  attention, and (for models with many experts) configuration
  time-multiplexing,
* ``static_mem`` — the static schedule whose MoE tile size is closest in
  on-chip memory to the dynamic one (memory-matched baseline),
* ``static_perf`` — the static schedule whose MoE tile size is closest in
  performance (performance-matched baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence


from ..core.errors import ConfigError
from ..core.summation import left_sum
from ..platforms import resolve_platform
from ..schedules import (Schedule, dynamic_tiling, parallelization, static_tiling,
                         time_multiplexing)
from ..sim import simulate
from ..sim.executors.common import HardwareConfig
from .attention import AttentionConfig, build_attention_layer
from .configs import ModelConfig
from .moe import MoELayerConfig, build_moe_layer
from .qkv import QKVConfig, build_qkv_layer


@dataclass
class LayerBreakdown:
    """Per-sub-layer metrics of one decoder layer under one schedule."""

    cycles: Dict[str, float] = field(default_factory=dict)
    offchip_traffic: Dict[str, int] = field(default_factory=dict)
    onchip_memory: Dict[str, int] = field(default_factory=dict)
    allocated_compute: Dict[str, int] = field(default_factory=dict)

    @property
    def layer_cycles(self) -> float:
        return left_sum(self.cycles.values())

    @property
    def layer_traffic(self) -> int:
        return sum(self.offchip_traffic.values())

    @property
    def layer_memory(self) -> int:
        return sum(self.onchip_memory.values())

    @property
    def layer_compute(self) -> int:
        return sum(self.allocated_compute.values())


@dataclass
class EndToEndResult:
    """End-to-end metrics for one model + schedule."""

    model: ModelConfig
    schedule: Schedule
    batch: int
    num_layers: int
    breakdown: LayerBreakdown

    @property
    def total_cycles(self) -> float:
        return self.breakdown.layer_cycles * self.num_layers

    @property
    def total_traffic(self) -> int:
        return self.breakdown.layer_traffic * self.num_layers

    @property
    def onchip_memory(self) -> int:
        return self.breakdown.layer_memory

    @property
    def allocated_compute(self) -> int:
        return self.breakdown.layer_compute


def default_schedules(model: ModelConfig, static_mem_tile: int = 8,
                      static_perf_tile: int = 32,
                      timemux_regions: Optional[int] = None) -> Dict[str, Schedule]:
    """The three Figure 17 schedule variants as unified :class:`Schedule` objects.

    Configuration time-multiplexing is only applied to models with a large
    expert pool (the paper skips it for Mixtral-8x7B because all eight experts
    are active at batch 64).
    """
    if timemux_regions is None and model.num_experts >= 32:
        timemux_regions = max(4, model.num_experts // 8)
    if model.num_experts < 32:
        timemux_regions = None
    timemux = None if timemux_regions is None else \
        time_multiplexing(model.num_experts, timemux_regions)
    return {
        "static_mem": Schedule(name="static_mem", tiling=static_tiling(static_mem_tile),
                               parallelization=parallelization("interleave")),
        "static_perf": Schedule(name="static_perf", tiling=static_tiling(static_perf_tile),
                                parallelization=parallelization("interleave")),
        "dynamic": Schedule(name="dynamic", tiling=dynamic_tiling(), timemux=timemux,
                            parallelization=parallelization("dynamic")),
    }


def evaluate_layer(model: ModelConfig, schedule: Schedule, batch: int,
                   kv_lengths: Sequence[int],
                   moe_assignments: Sequence[Sequence[int]],
                   hardware: Optional[HardwareConfig] = None,
                   moe_compute_bw: int = 8192,
                   attention_compute_bw: int = 256,
                   kv_tile_rows: int = 128) -> LayerBreakdown:
    """Simulate one decoder layer's three sub-layers under ``schedule``."""
    hardware = resolve_platform(hardware).hardware
    breakdown = LayerBreakdown()

    qkv_cfg = QKVConfig(model=model, batch=batch, compute_bw=moe_compute_bw)
    qkv_prog = build_qkv_layer(qkv_cfg)
    _record(breakdown, "qkv", simulate(qkv_prog.program, qkv_prog.inputs(), hardware=hardware))

    attn_cfg = AttentionConfig(model=model, batch=batch,
                               strategy=schedule.attention_strategy,
                               num_regions=schedule.parallelization.num_regions,
                               coarse_chunk=schedule.parallelization.coarse_chunk,
                               kv_tile_rows=kv_tile_rows,
                               compute_bw=attention_compute_bw)
    attn_prog = build_attention_layer(attn_cfg)
    _record(breakdown, "attention",
            simulate(attn_prog.program, attn_prog.inputs(list(kv_lengths)), hardware=hardware))

    moe_cfg = MoELayerConfig(model=model, batch=batch,
                             tile_rows=schedule.moe_tile_rows,
                             num_regions=schedule.moe_num_regions,
                             combine_output=schedule.moe_num_regions is None,
                             compute_bw=moe_compute_bw)
    moe_prog = build_moe_layer(moe_cfg)
    _record(breakdown, "moe",
            simulate(moe_prog.program, moe_prog.inputs(list(moe_assignments)),
                     hardware=hardware))
    return breakdown


def _record(breakdown: LayerBreakdown, name: str, report) -> None:
    breakdown.cycles[name] = report.cycles
    breakdown.offchip_traffic[name] = report.offchip_traffic
    breakdown.onchip_memory[name] = report.onchip_memory
    breakdown.allocated_compute[name] = report.allocated_compute


def evaluate_end_to_end(model: ModelConfig, schedule: Schedule, batch: int,
                        kv_lengths: Sequence[int],
                        moe_assignments: Sequence[Sequence[int]],
                        num_layers: Optional[int] = None,
                        hardware: Optional[HardwareConfig] = None,
                        **layer_kwargs) -> EndToEndResult:
    """End-to-end metrics: one layer simulated, scaled by the layer count."""
    if len(kv_lengths) != batch or len(moe_assignments) != batch:
        raise ConfigError("kv_lengths and moe_assignments must cover the batch")
    breakdown = evaluate_layer(model, schedule, batch, kv_lengths, moe_assignments,
                               hardware=hardware, **layer_kwargs)
    return EndToEndResult(model=model, schedule=schedule, batch=batch,
                          num_layers=num_layers or model.num_layers,
                          breakdown=breakdown)
