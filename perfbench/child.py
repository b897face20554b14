"""One cold measurement: a fresh process runs one workload once.

    python3 perfbench/child.py --workload NAME --seed N --tmp DIR
                               [--trace] [--spans FILE] [--references FILE]

``perfbench/run.py`` starts this script with ``src`` on ``PYTHONPATH`` and
reads its last stdout line, a JSON object.  The process measures its own
timed body with ``time.perf_counter`` and reports the instant the body began,
so the parent can compute set-up time from the moment it started the process
(``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, one clock for every
process).  Nothing here is warm: the step-cost memo must be empty when the
body starts, and the sweep cache is a new directory under ``--tmp``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import warnings
from pathlib import Path
from time import perf_counter

import workloads as bench_workloads
from tracer import Tracer, install


def _layer_stats(tracer: Tracer) -> dict:
    """Per-layer numbers of the traced body (plus the set-up layers)."""
    def calls(name):
        return tracer.layer("body", name)[0]

    def self_s(*names):
        return sum(tracer.layer("body", name)[1] for name in names)

    stats = {
        "sim.engine.runs": calls("sim.engine"),
        "sim.engine.events": tracer.counter("body", "sim.engine.events"),
        "sim.engine.s": self_s("sim.engine"),
        "sim.lowering.calls": calls("sim.lowering"),
        "sim.lowering.s": self_s("sim.lowering"),
        "data.routing.calls": calls("data.routing"),
        "data.routing.s": self_s("data.routing"),
        "serve.scheduler.step_cost.simulated": calls("serve.scheduler.step_cost"),
        "serve.scheduler.step_cost.s": self_s("serve.scheduler.step_cost"),
        "serve.scheduler.steps": calls("serve.scheduler.step"),
        "serve.scheduler.step_self_s": self_s("serve.scheduler.step"),
        "serve.fleet.arrivals": tracer.counter("body", "serve.fleet.arrivals"),
        "serve.fleet.advance_to.calls": calls("serve.fleet.advance_to"),
        "serve.fleet.route.calls": calls("serve.fleet.route"),
        "serve.fleet.route.s": self_s("serve.fleet.route"),
        "serve.fleet.dispatch_self_s": self_s("serve.fleet.dispatch",
                                              "serve.fleet.advance_to"),
        "costmodel.predict.calls": calls("costmodel.predict"),
        "costmodel.predict.s": self_s("costmodel.predict"),
        # set-up layers: whole span durations, calibration's probes included
        "costmodel.calibrate.s": tracer.layer("setup", "costmodel.calibrate")[2],
        "serve.generators.requests": tracer.counter("setup", "serve.generators.requests"),
        "serve.generators.s": tracer.layer("setup", "serve.generators")[2],
        "serve.streaming.records": calls("serve.streaming"),
        "serve.streaming.fold_s": self_s("serve.streaming"),
        "serve.report.s": self_s("serve.report"),
        "sweep.points": tracer.counter("body", "sweep.points"),
        "sweep.runner_self_s": self_s("sweep.runner"),
        "sweep.cache.get.calls": calls("sweep.cache.get"),
        "sweep.cache.get.s": self_s("sweep.cache.get"),
        "sweep.cache.put.calls": calls("sweep.cache.put"),
        "sweep.cache.put.s": self_s("sweep.cache.put"),
        "bench.body_self_s": self_s("bench.body"),
        "trace.spans": tracer.num_spans,
    }
    for part in ("qkv", "attention", "moe", "other"):
        stats[f"workloads.build.{part}.calls"] = calls(f"workloads.build.{part}")
        stats[f"workloads.build.{part}.s"] = self_s(f"workloads.build.{part}")
    engine_s = stats["sim.engine.s"]
    stats["sim.engine.events_per_s"] = stats["sim.engine.events"] / engine_s if engine_s else 0.0
    records = stats["serve.streaming.records"]
    stats["serve.streaming.ns_per_record"] = (
        stats["serve.streaming.fold_s"] * 1e9 / records if records else 0.0)
    gets = stats["sweep.cache.get.calls"]
    stats["sweep.cache.hit_ratio"] = (
        tracer.counter("body", "sweep.cache.get.hits") / gets if gets else 0.0)
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--references", type=Path)
    args = parser.parse_args(argv)

    from repro.costmodel import CostModelExtrapolationWarning
    from repro.serve import scheduler

    workload = bench_workloads.WORKLOADS[args.workload]
    references = json.loads(args.references.read_text()) if args.references else {}
    reference = references.get(workload.name, {}).get(str(args.seed))

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)

    extrapolations = {"setup": 0, "body": 0}
    phase = "setup"

    def count_warning(message, category, *rest, **kwargs):
        if issubclass(category, CostModelExtrapolationWarning):
            extrapolations[phase] += 1
        else:
            sys.stderr.write(warnings.formatwarning(message, category, *rest[:2]))

    args.tmp.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=args.tmp))
    try:
        with warnings.catch_warnings():
            # every clamped prediction is counted, none is printed
            warnings.simplefilter("always", CostModelExtrapolationWarning)
            warnings.showwarning = count_warning
            state = workload.setup(args.seed, tmp)

            memo = scheduler.step_cache_stats()
            if memo["size"] != 0:
                raise SystemExit(f"cold-start guard: the step-cost memo holds "
                                 f"{memo['size']} entries before the timed body")
            phase = "body"
            if tracer is not None:
                tracer.set_phase("body")
                run_body = tracer.wrap("bench.body", workload.body)
            else:
                run_body = workload.body
            body_start = perf_counter()
            out = run_body(state)
            body_end = perf_counter()
            memo_after = scheduler.step_cache_stats()
            if tracer is not None:
                tracer.set_phase("after")

        outcome = workload.check(state, out, reference)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(args.trace),
        "body_start": body_start,
        "wall_s": body_end - body_start,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "digests": outcome.digests,
        "reference": reference is not None,
        "memo_hits": memo_after["hits"] - memo["hits"],
        "memo_misses": memo_after["misses"] - memo["misses"],
    }
    if tracer is not None:
        layers = _layer_stats(tracer)
        hits, misses = result["memo_hits"], result["memo_misses"]
        layers["serve.scheduler.memo.hits"] = hits
        layers["serve.scheduler.memo.misses"] = misses
        layers["serve.scheduler.memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        layers["costmodel.extrapolations"] = extrapolations["body"]
        result["layers"] = layers
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
