"""``python -m repro.costmodel calibrate`` — fit and validate a cost model.

Samples the step-signature space for one platform × schedule, costs every
probe through the exact event engine, fits the requested surrogate kind
(``calibrated`` by default, ``table`` for the lookup model), validates the
residuals on a held-out probe slice and writes the artifact as JSON.  The
artifact plugs straight into ``ServeConfig(cost_model=load_cost_model(path))``,
``repro.api.serve(..., cost_model=...)`` or the ``serve``/``fleet`` sweep
tasks (pass the ``to_dict()`` payload so the model's content keys the cache).

Example::

    python -m repro.costmodel calibrate --model-scale 32 --platform sda \\
        --schedule dynamic --budget 64 --output costmodel.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..core.errors import ConfigError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.costmodel",
        description="Calibrate a serving step-cost surrogate against the "
                    "exact event engine.")
    commands = parser.add_subparsers(dest="command", required=True)
    cal = commands.add_parser(
        "calibrate", help="probe the exact engine, fit, validate residuals")
    cal.add_argument("--model-scale", type=int, default=32,
                     help="Qwen3-30B-A3B down-scale factor (default 32)")
    cal.add_argument("--max-experts", type=int, default=16,
                     help="cap on the scaled model's expert pool (default 16)")
    cal.add_argument("--platform", default=None,
                     help="registered platform name (default: sda)")
    cal.add_argument("--schedule", choices=("dynamic", "static"),
                     default="dynamic", help="unified schedule (default "
                     "dynamic)")
    cal.add_argument("--kind", choices=("calibrated", "table"),
                     default="calibrated", help="surrogate kind to fit")
    cal.add_argument("--budget", type=int, default=None,
                     help="probe budget: exact-engine steps to sample "
                          "(default 64)")
    cal.add_argument("--batch-cap", type=int, default=8)
    cal.add_argument("--max-tokens", type=int, default=256,
                     help="largest prefill token batch to probe")
    cal.add_argument("--max-kv-rows", type=int, default=4096,
                     help="largest per-request KV length to probe")
    cal.add_argument("--num-layers", type=int, default=2)
    cal.add_argument("--kv-tile-rows", type=int, default=64)
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--extrapolation", choices=("clamp", "raise"),
                     default="clamp",
                     help="what the model does outside the probed ranges")
    cal.add_argument("--tolerance", type=float, default=None,
                     help="fail (exit 1) when the held-out max relative "
                          "residual exceeds this bound")
    cal.add_argument("--output", default=None,
                     help="write the fitted model as JSON here")
    return parser


def _calibrate(args: argparse.Namespace) -> int:
    from ..schedules import Schedule
    from ..workloads.configs import QWEN3_30B_A3B, cap_experts, scaled_config
    from .calibrate import DEFAULT_PROBE_BUDGET, calibrate_model
    from .models import save_cost_model

    model = cap_experts(scaled_config(QWEN3_30B_A3B, scale=args.model_scale),
                        args.max_experts)
    schedule = (Schedule.dynamic() if args.schedule == "dynamic"
                else Schedule.static("static", tile_rows=4))
    budget = DEFAULT_PROBE_BUDGET if args.budget is None else args.budget
    fitted, report = calibrate_model(
        model, schedule, args.platform, kind=args.kind, budget=budget,
        batch_cap=args.batch_cap, max_tokens=args.max_tokens,
        max_kv_rows=args.max_kv_rows, num_layers=args.num_layers,
        kv_tile_rows=args.kv_tile_rows, seed=args.seed,
        extrapolation=args.extrapolation)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.output:
        save_cost_model(fitted, args.output)
        print(f"wrote {fitted.kind} cost model to {args.output}")
    if args.tolerance is not None and \
            report["holdout_max_rel"] > args.tolerance:
        print(f"FAIL: held-out max relative residual "
              f"{report['holdout_max_rel']:.4f} exceeds the tolerance "
              f"{args.tolerance}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "calibrate":
            return _calibrate(args)
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
