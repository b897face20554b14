"""The calibration harness: sample the step-signature space, fit, validate.

Offline counterpart of the engine's per-run adaptive calibration
(:mod:`repro.costmodel.runtime`): :func:`probe_signatures` lays a
deterministic grid over the step-signature space (token-batch sizes ×
request counts × ``kv_tile_rows``-quantized KV lengths, geometric ladders
so the extremes are always covered), :func:`run_probes` costs each
signature through the exact event engine (sharing the process-wide step
memo, so calibration warms the exact path for free), and
:func:`calibrate_model` fits the requested surrogate kind and validates its
residuals on a held-out slice of the probes.  ``python -m repro.costmodel
calibrate`` wraps this into a CLI that writes the fitted artifact as JSON.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import ConfigError
from ..core.summation import left_sum
from ..platforms import PlatformLike, resolve_platform
from ..schedules import Schedule
from ..serve.arrivals import quantize_up
from .models import (CostModel, Probe, fit_from_probes, signature_features)

#: distinct step signatures an adaptive surrogate probes through the exact
#: engine before fitting itself (and the CLI's default probe budget)
DEFAULT_PROBE_BUDGET = 64

#: one probe signature: (num_tokens, quantized kv_lengths)
Signature = Tuple[int, Tuple[int, ...]]


def _geometric_ladder(lo: int, hi: int) -> List[int]:
    """``lo, 2*lo, 4*lo, ...`` capped at (and always including) ``hi``."""
    values: List[int] = []
    value = lo
    while value < hi:
        values.append(value)
        value *= 2
    values.append(hi)
    return values


def probe_signatures(budget: int, *, batch_cap: int = 8,
                     kv_tile_rows: int = 64, max_tokens: int = 256,
                     max_kv_rows: int = 4096) -> List[Signature]:
    """A deterministic, budgeted sample of the step-signature space.

    The full grid crosses request counts (1..\\ ``batch_cap``, geometric)
    with per-request KV lengths (one tile..\\ ``max_kv_rows``, geometric)
    for decode-shaped steps (one token per request), plus prefill-shaped
    steps (one prefill of 1..\\ ``max_tokens`` context joining the batch).
    When the grid exceeds ``budget``, evenly spaced grid points are kept —
    the range extremes survive any budget, so a fitted model's probed
    ranges cover the space and extrapolation guards rarely fire.
    """
    if budget < 1:
        raise ConfigError(f"probe budget must be >= 1 (an empty probe "
                          f"budget cannot calibrate anything), got {budget}")
    if batch_cap < 1:
        raise ConfigError(f"batch_cap must be >= 1, got {batch_cap}")
    if max_tokens < 1:
        raise ConfigError(f"max_tokens must be >= 1, got {max_tokens}")
    if max_kv_rows < kv_tile_rows:
        raise ConfigError(f"max_kv_rows ({max_kv_rows}) must be >= "
                          f"kv_tile_rows ({kv_tile_rows})")
    requests = _geometric_ladder(1, batch_cap)
    kv_rows = _geometric_ladder(kv_tile_rows, quantize_up(max_kv_rows,
                                                          kv_tile_rows))
    prefills = _geometric_ladder(1, max_tokens)
    grid: List[Signature] = []
    seen = set()

    def add(num_tokens: int, kv_lengths: Tuple[int, ...]) -> None:
        signature = (num_tokens, tuple(sorted(kv_lengths)))
        if signature not in seen:
            seen.add(signature)
            grid.append(signature)

    for num_requests in requests:
        for kv in kv_rows:
            # decode-shaped: every runner contributes one token
            add(num_requests, (kv,) * num_requests)
            # prefill-shaped: one request prefills `chunk` context tokens
            # while the rest decode at `kv`
            for chunk in prefills:
                context = quantize_up(max(chunk, 1), kv_tile_rows)
                add(chunk + (num_requests - 1),
                    (context,) + (kv,) * (num_requests - 1))
    grid.sort(key=lambda s: (signature_features(*s), s))
    if budget >= len(grid):
        return grid
    if budget == 1:
        return [grid[0]]
    # evenly spaced ranks over the feature-sorted grid keep both extremes
    picks = sorted({round(i * (len(grid) - 1) / (budget - 1))
                    for i in range(budget)})
    return [grid[i] for i in picks]


def run_probes(signatures: List[Signature], *, model, schedule: Schedule,
               platform: PlatformLike = None, num_layers: int = 2,
               kv_tile_rows: int = 64, moe_compute_bw: int = 8192,
               attention_compute_bw: int = 256,
               seed: int = 0) -> Tuple[List[Probe], str]:
    """Cost each signature through the exact engine.

    Returns the probes and the context digest a fitted model must carry.

    Probes share the process-wide step memo with real serving runs, so
    calibration doubles as a warm-up of the exact path.
    """
    # deferred: the scheduler binds cost models lazily through this package
    from ..serve import scheduler

    config = scheduler.ServeConfig(
        model=model, num_layers=num_layers, kv_tile_rows=kv_tile_rows,
        moe_compute_bw=moe_compute_bw,
        attention_compute_bw=attention_compute_bw, seed=seed)
    hardware = resolve_platform(platform).hardware
    context = scheduler._context_key(config, schedule, hardware)
    probes: List[Probe] = []
    for num_tokens, kv_lengths in signatures:
        cycles = scheduler._step_cycles(config, schedule, hardware, context,
                                        num_tokens, kv_lengths, {})
        probes.append((num_tokens, kv_lengths, cycles))
    return probes, context.digest


def calibrate_model(model, schedule: Optional[Schedule] = None,
                    platform: PlatformLike = None, *,
                    kind: str = "calibrated",
                    budget: int = DEFAULT_PROBE_BUDGET,
                    batch_cap: int = 8, max_tokens: int = 256,
                    max_kv_rows: int = 4096, num_layers: int = 2,
                    kv_tile_rows: int = 64, moe_compute_bw: int = 8192,
                    attention_compute_bw: int = 256, seed: int = 0,
                    extrapolation: str = "clamp",
                    holdout_every: int = 4) -> Tuple[CostModel,
                                                     Dict[str, Any]]:
    """Probe, fit and validate one (platform × schedule) cost model.

    Every ``holdout_every``-th probe is held out of the fit and used to
    validate residuals on signatures the model never saw (skipped when the
    budget is too small to spare probes).  Returns the fitted model plus a
    validation report: probe counts, fit metadata, and the mean/max
    relative residuals on both the fit and held-out sets.
    """
    schedule = schedule or Schedule.dynamic()
    signatures = probe_signatures(budget, batch_cap=batch_cap,
                                  kv_tile_rows=kv_tile_rows,
                                  max_tokens=max_tokens,
                                  max_kv_rows=max_kv_rows)
    probes, context = run_probes(
        signatures, model=model, schedule=schedule, platform=platform,
        num_layers=num_layers, kv_tile_rows=kv_tile_rows,
        moe_compute_bw=moe_compute_bw,
        attention_compute_bw=attention_compute_bw, seed=seed)
    if holdout_every > 1 and len(probes) >= 2 * holdout_every:
        held_out = probes[holdout_every - 1::holdout_every]
        fit_set = [p for i, p in enumerate(probes)
                   if (i + 1) % holdout_every != 0]
    else:
        held_out = []
        fit_set = probes
    fitted = fit_from_probes(fit_set, kind=kind, context_hash=context,
                             kv_tile_rows=kv_tile_rows,
                             extrapolation=extrapolation)
    # held-out probes may lie outside the fit set's ranges: score them on
    # clamped features without the guard meant for serving signatures
    residuals = [abs(fitted.predict_clamped(t, k) - c) / max(c, 1.0)
                 for t, k, c in held_out]
    report: Dict[str, Any] = {
        "kind": fitted.kind,
        "context": context,
        "schedule": schedule.name,
        "platform": resolve_platform(platform).name,
        "probes": len(probes),
        "fit_probes": len(fit_set),
        "holdout_probes": len(held_out),
        "holdout_mean_rel": (left_sum(residuals) / len(residuals)
                             if residuals else 0.0),
        "holdout_max_rel": max(residuals, default=0.0),
    }
    if hasattr(fitted, "fit_metadata"):
        report["fit"] = fitted.fit_metadata()
    return fitted, report
