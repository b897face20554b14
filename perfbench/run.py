"""Cold, fresh-process benchmark of the simulator's user-facing workloads.

    python3 perfbench/run.py --workload {figures,serve-exact,fleet-dispatch}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every measurement is a new Python process
(``perfbench/child.py``) with every cache cold: a fresh step-cost memo, a new
sweep-cache directory and no in-process warm-up.  The run keeps starting such
processes, one at a time, until ``--seconds`` are spent (at least three
untraced ones, or one untraced/traced pair), and reports medians.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced processes and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  Every process's outputs are checked against
the stored reference digests for the seed (``perfbench/references.json``) and
against each other; the last stdout line is the JSON result, and the exit code
is non-zero when any check fails or the program cannot run.

``--record-reference`` runs one process and stores its output digests as the
reference for the seed instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: scratch space inside the checkout: span files, and sweep caches in a
#: directory of this run's own
WORK = ROOT / ".perfbench"
TMP = WORK / "tmp" / f"run-{os.getpid()}"
REFERENCES = BENCH / "references.json"

#: the whole run, children included, stays inside this many seconds
RUN_LIMIT_S = 170.0
MIN_UNTRACED = 3
MAX_ITERATIONS = 100


class ChildError(RuntimeError):
    """A measurement process crashed or printed no result."""


def metric_units(kind: str) -> dict:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def run_child(workload: str, seed: int, traced: bool, timeout: float,
              references: bool = True) -> dict:
    """One cold measurement in a new process; adds its ``setup_s``."""
    command = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
               "--seed", str(seed), "--tmp", str(TMP)]
    if references:
        command += ["--references", str(REFERENCES)]
    if traced:
        command += ["--trace", "--spans", str(WORK / "spans" / f"{workload}-seed{seed}.bin")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # a sweep that ignored its explicit cache would still stay in the checkout
    env["REPRO_SWEEP_CACHE"] = str(TMP / "default-cache")
    env["REPRO_SWEEP_JOBS"] = "1"
    started = perf_counter()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise ChildError(f"{workload}: the measurement process exceeded {timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise ChildError(f"{workload}: the measurement process exited with "
                         f"{proc.returncode}\n{tail}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["body_start"] - started
    return result


def measure(workload: str, seed: int, seconds: float, traced: bool) -> list:
    """Start cold processes until ``seconds`` are spent; returns their results."""
    started = perf_counter()
    deadline = started + seconds
    results: list = []
    slowest = 0.0
    for iteration in range(1, MAX_ITERATIONS + 1):
        begun = perf_counter()
        results.append(run_child(workload, seed, False, RUN_LIMIT_S - (begun - started)))
        if traced:
            now = perf_counter()
            results.append(run_child(workload, seed, True, RUN_LIMIT_S - (now - started)))
        now = perf_counter()
        slowest = max(slowest, now - begun)
        enough = iteration >= (1 if traced else MIN_UNTRACED)
        if enough and (now + slowest > deadline or now + slowest - started > RUN_LIMIT_S):
            break
    return results


def check_results(results: list, counts) -> list:
    """Cross-process checks: every failure as one line (empty when correct).

    ``counts`` names the per-layer counts, which must repeat exactly.
    """
    problems = []
    for result in results:
        problems += [f"{result['workload']}: {e}" for e in result["errors"]]
        if result["failed"] and not result["errors"]:
            problems.append(f"{result['workload']}: {result['failed']} ops failed")
    first = results[0]["digests"]
    if any(r["digests"] != first for r in results[1:]):
        problems.append("outputs differ between processes run with the same seed")
    traced = [r["layers"] for r in results if r["traced"]]
    for name in counts:
        if len({layers[name] for layers in traced}) > 1:
            problems.append(f"layer count {name} differs between traced processes")
    return problems


def e2e_samples(untraced: list) -> dict:
    """Each end-to-end metric's value in every untraced process."""
    return {
        "wall_s": [r["wall_s"] for r in untraced],
        "setup_s": [r["setup_s"] for r in untraced],
        "peak_rss_mib": [r["peak_rss_mib"] for r in untraced],
        "ops_per_s": [(r["attempted"] - r["failed"]) / r["wall_s"] for r in untraced],
    }


def layer_metrics(untraced: list, traced: list) -> dict:
    metrics = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        # counts repeat exactly: keep them whole numbers
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(r["wall_s"] for r in untraced)
    return metrics


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, results: list, problems: list, units: dict) -> dict:
    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    referenced = results[0]["reference"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced fresh processes, "
          f"every cache cold")
    if referenced:
        print("  outputs: checked against the stored reference digests")
    else:
        print("  outputs: no stored reference for this seed; checked for agreement "
              "between processes and for the invariants")
    samples = {}
    if args.trace:
        measured = layer_metrics(untraced, traced)
        print(f"  per-layer, traced body, median of {len(traced)} (cold):")
    else:
        samples = e2e_samples(untraced)
        measured = {name: statistics.median(values) for name, values in samples.items()}
        print(f"  end-to-end, untraced, median of {len(untraced)} (cold; every sample listed):")
    metrics = {name: measured[name] for name in units}
    for name in metrics:
        listed = " ".join(f"{v:.4g}" for v in samples.get(name, ()))
        print(f"    {name:40s} {_format(metrics[name]):>14s} {units[name]:6s} {listed}")
    ratio = failed / attempted if attempted else 1.0
    print(f"    {'ops_failed_ratio':40s} {_format(ratio):>14s} ratio ({failed}/{attempted})")
    for problem in problems[:20]:
        print(f"  FAILED: {problem}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }


def record_reference(workload: str, seed: int) -> int:
    result = run_child(workload, seed, False, RUN_LIMIT_S, references=False)
    if result["failed"] or result["errors"]:
        print(f"not recording: {result['errors'][:5]}", file=sys.stderr)
        return 1
    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    references.setdefault(workload, {})[str(seed)] = result["digests"]
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"recorded {workload} seed {seed}: {len(result['digests'])} digests")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} is missing); "
              f"run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            return record_reference(args.workload, args.seed)
        results = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        # a process stopped at its timeout leaves its sweep cache behind
        shutil.rmtree(TMP, ignore_errors=True)
    layer_units = metric_units("per_layer")
    problems = check_results(results, [n for n, u in layer_units.items() if u == "count"])
    units = layer_units if args.trace else metric_units("end_to_end")
    result = report(args, results, problems, units)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
