"""Span tracing for the traced benchmark run, installed from outside the program.

:func:`install` replaces the public functions of each layer with wrappers that
record one span per call: the layer name, start, end and the index of the
enclosing span.  Functions are patched where callers look them up: a module
function in every ``repro`` module that holds it under its own name, a method
on its class and on every subclass that overrides it.  The program itself is
not changed.

Each span's *self time* is its duration minus the time covered by its child
spans, so the self times of all layers plus the root's self time add up to the
root span.  Spans stay in memory (compact arrays) and are written out once, at
the end of the run.  Aggregates are kept per *phase* ("setup" or "body"), so a
layer that runs in both (the event engine runs inside cost-model calibration
as well as in the timed body) is attributed to each separately.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Tracer:
    """Records spans and per-layer counts, self times and extra counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("H")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        #: open spans, innermost last: [span index, child time so far]
        self._stack: List[list] = []
        self.phases: Dict[str, Dict[str, list]] = {}
        self.counters: Dict[str, Dict[str, int]] = {}
        self.set_phase("setup")

    def set_phase(self, phase: str) -> None:
        # layer -> [calls, self seconds, inclusive seconds]
        self._layers = self.phases.setdefault(phase, defaultdict(lambda: [0, 0.0, 0.0]))
        self._counters = self.counters.setdefault(phase, defaultdict(int))

    def count(self, counter: str, amount: int = 1) -> None:
        self._counters[counter] += amount

    def layer(self, phase: str, name: str) -> list:
        """``[calls, self_s, inclusive_s]`` of one layer in one phase."""
        return self.phases.get(phase, {}).get(name, [0, 0.0, 0.0])

    def counter(self, phase: str, name: str) -> int:
        return self.counters.get(phase, {}).get(name, 0)

    @property
    def num_spans(self) -> int:
        return len(self._start)

    def _name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` recording a ``name`` span per call.

        ``on_result(tracer, result, args, kwargs)`` runs after a successful
        call, for counters that live in the return value or the arguments.
        """
        ident = self._name_id(name)
        stack = self._stack
        names, parents = self._name, self._parent
        starts, ends = self._start, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(ident)
            parents.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            starts.append(start)
            ends.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                ends[index] = end
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                entry = self._layers[name]
                entry[0] += 1
                entry[1] += duration - frame[1]
                entry[2] += duration
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def write(self, path: Path) -> None:
        """Write every span: a JSON header plus four little-endian arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": self.num_spans,
                  "arrays": [["name", "H"], ["parent", "i"],
                             ["start", "d"], ["end", "d"]],
                  "clock": "time.perf_counter, seconds"}
        with open(path, "wb") as out:
            line = json.dumps(header).encode() + b"\n"
            out.write(line)
            for values in (self._name, self._parent, self._start, self._end):
                if sys.byteorder != "little":
                    values = array(values.typecode, values)
                    values.byteswap()
                values.tofile(out)


def _patch_function(tracer: Tracer, module_name: str, name: str, layer: str,
                    on_result: Optional[Callable] = None) -> None:
    """Wrap ``module.name`` in every loaded ``repro`` module holding it."""
    original = getattr(importlib.import_module(module_name), name)
    wrapped = tracer.wrap(layer, original, on_result)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        if getattr(module, name, None) is original:
            setattr(module, name, wrapped)


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        klass = todo.pop()
        found.append(klass)
        todo.extend(klass.__subclasses__())
    return found


def _patch_method(tracer: Tracer, cls: type, method: str, layer: str,
                  on_result: Optional[Callable] = None) -> None:
    """Wrap ``method`` on ``cls`` and on each subclass that defines its own."""
    for klass in _subclasses(cls):
        fn = klass.__dict__.get(method)
        if fn is None or getattr(fn, "__wrapped_by_perfbench__", False):
            continue
        if not inspect.isfunction(fn):
            continue
        setattr(klass, method, tracer.wrap(layer, fn, on_result))


def _count_events(tracer: Tracer, metrics, args, kwargs) -> None:
    tracer.count("sim.engine.events", metrics.events)


def _count_arrivals(tracer: Tracer, report, args, kwargs) -> None:
    trace = kwargs["trace"] if "trace" in kwargs else args[1]
    tracer.count("serve.fleet.arrivals", len(trace.requests))


def _count_generated(tracer: Tracer, trace, args, kwargs) -> None:
    tracer.count("serve.generators.requests", len(trace.requests))


def _count_points(tracer: Tracer, results, args, kwargs) -> None:
    tracer.count("sweep.points", len(results))


def _count_cache_hit(tracer: Tracer, payload, args, kwargs) -> None:
    if payload is not None:
        tracer.count("sweep.cache.get.hits")


def install(tracer: Tracer) -> None:
    """Wrap every traced layer's public functions (see the module docstring)."""
    import repro.api.workload as api_workload
    import repro.costmodel.models as costmodel_models
    import repro.serve.fleet as fleet
    import repro.serve.report as serve_report
    import repro.serve.scheduler as scheduler
    import repro.serve.streaming as streaming
    import repro.serve.workload as serve_workload
    import repro.sim.engine as engine
    import repro.sweep.cache as sweep_cache
    import repro.sweep.runner as sweep_runner

    functions = [
        ("repro.sim.lowering", "lower", "sim.lowering", None),
        ("repro.workloads.qkv", "build_qkv_layer", "workloads.build.qkv", None),
        ("repro.workloads.attention", "build_attention_layer",
         "workloads.build.attention", None),
        ("repro.workloads.moe", "build_moe_layer", "workloads.build.moe", None),
        ("repro.data.expert_routing", "generate_routing_trace", "data.routing", None),
        ("repro.serve.fleet", "simulate_fleet", "serve.fleet.dispatch", _count_arrivals),
        ("repro.costmodel.calibrate", "calibrate_model", "costmodel.calibrate", None),
        ("repro.serve.generators", "generate_trace", "serve.generators", _count_generated),
    ]
    for module_name, name, layer, on_result in functions:
        _patch_function(tracer, module_name, name, layer, on_result)

    methods = [
        (engine.Engine, "run", "sim.engine", _count_events),
        (serve_workload.ServeStepWorkload, "run", "serve.scheduler.step_cost", None),
        (scheduler.ReplicaEngine, "step", "serve.scheduler.step", None),
        (scheduler.ReplicaEngine, "advance_to", "serve.fleet.advance_to", None),
        (scheduler.ReplicaEngine, "report", "serve.report", None),
        (serve_report.ServingReport, "metrics", "serve.report", None),
        (serve_report.FleetReport, "metrics", "serve.report", None),
        (fleet.RoutingPolicy, "choose", "serve.fleet.route", None),
        (costmodel_models.CostModel, "predict", "costmodel.predict", None),
        (streaming.StreamingStats, "observe_request", "serve.streaming", None),
        (streaming.StreamingStats, "observe_step", "serve.streaming", None),
        (sweep_cache.ResultCache, "get", "sweep.cache.get", _count_cache_hit),
        (sweep_cache.ResultCache, "put", "sweep.cache.put", None),
        (sweep_runner.SweepRunner, "run", "sweep.runner", _count_points),
    ]
    for cls, method, layer, on_result in methods:
        _patch_method(tracer, cls, method, layer, on_result)
    # the adapters' own build() around the layer builders: the figure builders
    for cls in api_workload.WORKLOAD_KINDS.values():
        fn = cls.__dict__.get("build")
        if fn is not None and not getattr(fn, "__wrapped_by_perfbench__", False):
            setattr(cls, "build", tracer.wrap("workloads.build.other", fn))
