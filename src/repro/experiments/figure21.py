"""Figure 21 — parallelization-strategy ablation (Appendix B.5).

Normalized performance of static coarse-grained, static interleaved and
dynamic parallelization across KV-length variance classes and batch classes
(B=16, B=64 and the pipelined B=64+16 micro-batch case).  The paper reports
geometric-mean slowdowns of 1.85x (coarse) and 1.36x (interleave) relative to
dynamic parallelization.

Every unique (variance, sample, batch) simulation is one
:class:`~repro.api.AttentionWorkload`, the three strategies are the schedule
grid, and the overlapping batch classes are aggregated afterwards — the
scenario cross product naturally deduplicates the simulations the old zip
grid repeated.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..api import AttentionWorkload, Scenario
from ..api import run as run_scenario
from ..core.summation import left_sum
from ..data.kv_traces import VarianceClass
from ..sweep import SweepRunner, resolve_runner
from .common import DEFAULT_SCALE, ExperimentScale, geomean, platform, kv_batches, qwen_model
from .figure14 import strategy_schedules

_STRATEGIES = ("coarse", "interleave", "dynamic")


def run(scale: ExperimentScale = DEFAULT_SCALE,
        runner: Optional[SweepRunner] = None) -> Dict[str, object]:
    """Regenerate the Figure 21 ablation grid."""
    model = qwen_model(scale)
    big = scale.attention_batch
    small = max(4, big // 4)
    batch_classes = {f"B={small}": [small], f"B={big}": [big],
                     f"B={big}+{small}": [big, small]}

    big_batches = kv_batches(scale, big)
    small_batches = kv_batches(scale, small)
    variances = (VarianceClass.HIGH, VarianceClass.MEDIUM, VarianceClass.LOW)

    # one workload per unique (variance, sample, batch) simulation; the batch
    # classes below reuse these cells
    workloads: Dict[str, AttentionWorkload] = {}
    for variance in variances:
        samples = min(len(big_batches[variance]), len(small_batches[variance]))
        for sample in range(samples):
            for batch in (small, big):
                source = big_batches if batch == big else small_batches
                workloads[f"{variance.value}/{sample}/b{batch}"] = AttentionWorkload(
                    model=model, batch=batch,
                    lengths=list(source[variance][sample])[:batch], kv_tile_rows=64)

    sc = Scenario(
        name=f"figure21-{scale.name}",
        workloads=workloads,
        schedules=strategy_schedules(_STRATEGIES),
        platforms=platform(scale),
        seed=scale.seed,
        description="parallelization-strategy ablation across variance/batch classes",
    )
    result = run_scenario(sc, runner=resolve_runner(runner))

    def cycles(variance, sample, batch, strategy) -> float:
        return result[(f"{variance.value}/{sample}/b{batch}", strategy)]["cycles"]

    rows: List[dict] = []
    normalized: Dict[str, List[float]] = {s: [] for s in _STRATEGIES}
    for variance in variances:
        samples = min(len(big_batches[variance]), len(small_batches[variance]))
        for class_name, class_batches in batch_classes.items():
            per_strategy: Dict[str, List[float]] = {s: [] for s in _STRATEGIES}
            for sample in range(samples):
                for strategy in _STRATEGIES:
                    per_strategy[strategy].append(left_sum(
                        cycles(variance, sample, batch, strategy)
                        for batch in class_batches))
            means = {s: geomean(per_strategy[s]) for s in _STRATEGIES}
            for strategy in _STRATEGIES:
                ratio = means[strategy] / means["dynamic"]
                normalized[strategy].append(ratio)
                rows.append({
                    "variance": variance.value,
                    "batch_class": class_name,
                    "strategy": strategy,
                    "cycles": means[strategy],
                    "normalized_to_dynamic": ratio,
                })
    return {
        "rows": rows,
        "geomean_normalized": {s: geomean(normalized[s]) for s in _STRATEGIES},
    }
