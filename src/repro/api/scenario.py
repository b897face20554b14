"""Scenarios — the *experiment grid* of the unified API, and the ``run`` entry point.

A :class:`Scenario` names a grid of **workloads × unified schedules ×
platforms** (optionally × **scheduling policies**, for serving workloads)
plus a seed: everything needed to reproduce a figure (or invent a
new experiment) in one declarative record.  :func:`run` expands the scenario
into a zip-mode :class:`~repro.sweep.spec.SweepSpec` over the single generic
``"workload"`` sweep task and executes it on a
:class:`~repro.sweep.runner.SweepRunner`, so every scenario inherits parallel
pooled execution, content-hash result caching (warm reruns skip simulation
entirely) and deterministic ordering for free.  The platform axis flows
through the sweep like the other two: each point's cache key carries the
:class:`~repro.platforms.Platform` (name + hardware), so points on different
platforms never collide and reruns on the same platform always hit.

Scenarios can also be *registered* by name: ``register_scenario`` stores a
factory, ``get_scenario`` instantiates it, and ``run("name")`` resolves it
directly.  Registered factories accept keyword overrides, so one registration
covers smoke-scale tests and full-scale runs.  Scenarios serialize
symmetrically (:meth:`Scenario.to_dict` / :meth:`Scenario.from_dict`) — a
scenario is data, shippable as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..core.errors import ConfigError
from ..platforms import Platform, PlatformLike, resolve_platforms
from ..schedules import Schedule
from ..serialize import from_jsonable, to_jsonable
from ..sim.executors.common import HardwareConfig
from ..sweep import ResultCache, SweepRunner, SweepSpec, SweepStats, build_runner
from .workload import Workload


def _as_mapping(value, default_key: Callable[[Any], str]) -> Dict[str, Any]:
    if isinstance(value, Mapping):
        return dict(value)
    return {default_key(value): value}


@dataclass
class Scenario:
    """One declarative experiment: workloads × schedules × platforms.

    ``workloads``, ``schedules`` and ``platforms`` are ordered mappings from a
    short label to the object; passing a single :class:`Workload`,
    :class:`Schedule`, :class:`~repro.platforms.Platform` (or registered
    platform name, or raw :class:`HardwareConfig`) wraps it under its own
    label.  ``platforms=None`` resolves to the default ``"sda"`` platform —
    exactly the hardware every call site used to default to, so a scenario
    without an explicit platform reproduces pre-platform results bit for bit.
    ``hardware`` is the pre-platform spelling of a single-platform scenario
    and folds into ``platforms`` (passing both is an error).  ``policies``
    (optional) adds a fourth axis — a mapping from label to
    :class:`~repro.serve.policy.ServePolicy` (or preset name / spec dict),
    usually built with :func:`~repro.serve.policy.policy_grid`; every
    workload in the scenario must then carry a ``policy`` field
    (:class:`~repro.serve.scheduler.ServeWorkload` /
    :class:`~repro.serve.fleet.FleetWorkload`), and each grid cell runs the
    workload under that cell's policy.  ``seed`` feeds
    the sweep spec (tasks that consume seeds derive per-point seeds from it;
    the shipped workload task is seedless — workload data fully determines
    the result).
    """

    name: str
    workloads: Union[Workload, Mapping[str, Workload]]
    schedules: Union[Schedule, Mapping[str, Schedule]]
    platforms: Union[PlatformLike, Mapping[str, PlatformLike]] = None
    hardware: Optional[HardwareConfig] = None
    policies: Optional[Mapping[str, Any]] = None
    seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("a scenario needs a non-empty name")
        self.workloads = _as_mapping(self.workloads, lambda w: w.label())
        self.schedules = _as_mapping(self.schedules, lambda s: s.name)
        if not self.workloads or not self.schedules:
            raise ConfigError(f"{self.name}: needs at least one workload and one schedule")
        if self.hardware is not None:
            if self.platforms is not None:
                raise ConfigError(f"{self.name}: pass either platforms or the "
                                  f"legacy hardware, not both")
            self.platforms = self.hardware
        self.platforms = resolve_platforms(self.platforms)
        # legacy read path: the sole platform's hardware (None when swept)
        self.hardware = (next(iter(self.platforms.values())).hardware
                         if len(self.platforms) == 1 else None)
        if self.policies is not None:
            # deferred: repro.serve imports this module while initializing
            from ..serve.policy import resolve_serve_policy

            if not isinstance(self.policies, Mapping) or not self.policies:
                raise ConfigError(f"{self.name}: policies must be a non-empty "
                                  f"label -> policy mapping (see policy_grid)")
            self.policies = {str(label): resolve_serve_policy(p)
                             for label, p in self.policies.items()}
            for label, workload in self.workloads.items():
                self._with_policy(workload, label,
                                  next(iter(self.policies.values())))

    def _with_policy(self, workload, label: str, policy):
        """``workload`` rebound to ``policy`` (must carry a policy field)."""
        import dataclasses

        if not (dataclasses.is_dataclass(workload)
                and any(f.name == "policy"
                        for f in dataclasses.fields(workload))):
            raise ConfigError(
                f"{self.name}: workload {label!r} "
                f"({type(workload).__name__}) has no policy field; the "
                f"policies axis applies to serving workloads "
                f"(ServeWorkload / FleetWorkload)")
        return dataclasses.replace(workload, policy=policy)

    def grid(self) -> List[Tuple[str, ...]]:
        """The (workload, schedule, platform[, policy]) label cross product.

        Workload-major, then schedule, then platform, then (when the
        ``policies`` axis is set) policy innermost — a single-platform
        scenario without policies enumerates exactly the
        (workload, schedule) order of the pre-platform grid, as 3-tuples.
        """
        if self.policies is None:
            return [(w, s, p)
                    for w in self.workloads for s in self.schedules
                    for p in self.platforms]
        return [(w, s, p, pol)
                for w in self.workloads for s in self.schedules
                for p in self.platforms for pol in self.policies]

    def sweep_spec(self) -> SweepSpec:
        """The scenario as a zip-mode grid over the generic ``workload`` task."""
        cells = self.grid()
        if self.policies is None:
            workloads = [self.workloads[c[0]] for c in cells]
        else:
            workloads = [self._with_policy(self.workloads[c[0]], c[0],
                                           self.policies[c[3]])
                         for c in cells]
        return SweepSpec(
            name=f"scenario-{self.name}",
            task="workload",
            axes={"workload": workloads,
                  "schedule": [self.schedules[c[1]] for c in cells],
                  "platform": [self.platforms[c[2]] for c in cells]},
            mode="zip",
            seed=self.seed,
        )

    def __len__(self) -> int:
        cells = (len(self.workloads) * len(self.schedules)
                 * len(self.platforms))
        return cells if self.policies is None else cells * len(self.policies)

    # -- serialization ---------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON description, symmetric with :meth:`from_dict`."""
        payload = {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "workloads": {label: to_jsonable(w) for label, w in self.workloads.items()},
            "schedules": {label: s.to_dict() for label, s in self.schedules.items()},
            "platforms": {label: p.to_dict() for label, p in self.platforms.items()},
        }
        if self.policies is not None:
            payload["policies"] = {label: p.to_dict()
                                   for label, p in self.policies.items()}
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        policies = None
        if "policies" in payload:
            from ..serve.policy import ServePolicy

            policies = {label: ServePolicy.from_dict(p)
                        for label, p in payload["policies"].items()}
        return cls(
            name=payload["name"],
            workloads={label: from_jsonable(w)
                       for label, w in payload["workloads"].items()},
            schedules={label: Schedule.from_dict(s)
                       for label, s in payload["schedules"].items()},
            platforms={label: Platform.from_dict(p)
                       for label, p in payload["platforms"].items()},
            policies=policies,
            seed=int(payload.get("seed", 0)),
            description=payload.get("description", ""),
        )


@dataclass
class ScenarioRow:
    """Metrics of one (workload, schedule, platform[, policy]) cell."""

    workload: str
    schedule: str
    metrics: Dict[str, float]
    cached: bool = False
    platform: str = ""
    policy: str = ""

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]


@dataclass
class ScenarioResult:
    """All cells of one scenario run, in grid order, plus execution stats."""

    scenario: Scenario
    rows: List[ScenarioRow]
    stats: SweepStats = field(default_factory=SweepStats)

    def __getitem__(self, key: Tuple[str, ...]) -> Dict[str, float]:
        """Metrics by (workload, schedule) or (workload, schedule, platform).

        The two-label form matches any platform and is unambiguous for
        single-platform scenarios; with a swept platform axis it raises unless
        the platform label is given too.
        """
        workload, schedule = key[0], key[1]
        platform = key[2] if len(key) > 2 else None
        matches = [row for row in self.rows
                   if row.workload == workload and row.schedule == schedule
                   and (platform is None or row.platform == platform)]
        if len(matches) > 1:
            raise KeyError(f"{key}: ambiguous across platforms "
                           f"{[row.platform for row in matches]}; "
                           f"use (workload, schedule, platform)")
        if not matches:
            raise KeyError(key)
        return matches[0].metrics

    def select(self, workload: Optional[str] = None, schedule: Optional[str] = None,
               platform: Optional[str] = None,
               policy: Optional[str] = None) -> List[ScenarioRow]:
        """The rows matching every given label, in grid order."""
        return [row for row in self.rows
                if (workload is None or row.workload == workload)
                and (schedule is None or row.schedule == schedule)
                and (platform is None or row.platform == platform)
                and (policy is None or row.policy == policy)]

    def for_policy(self, policy: str) -> Dict[Any, Dict[str, float]]:
        """(workload, schedule[, platform]) -> metrics, for one policy label."""
        multi = len(self.scenario.platforms) > 1
        return {((row.workload, row.schedule, row.platform) if multi
                 else (row.workload, row.schedule)): row.metrics
                for row in self.rows if row.policy == policy}

    def _cell_key(self, row: ScenarioRow, axis: str) -> Union[str, Tuple[str, str]]:
        label = getattr(row, axis)
        if len(self.scenario.platforms) == 1 or axis == "platform":
            return label
        return (label, row.platform)

    def for_workload(self, workload: str) -> Dict[Any, Dict[str, float]]:
        """schedule label (or (schedule, platform)) -> metrics, for one workload."""
        return {self._cell_key(row, "schedule"): row.metrics
                for row in self.rows if row.workload == workload}

    def for_schedule(self, schedule: str) -> Dict[Any, Dict[str, float]]:
        """workload label (or (workload, platform)) -> metrics, for one schedule."""
        return {self._cell_key(row, "workload"): row.metrics
                for row in self.rows if row.schedule == schedule}

    def for_platform(self, platform: str) -> Dict[Tuple[str, str], Dict[str, float]]:
        """(workload, schedule) -> metrics, for one platform."""
        return {(row.workload, row.schedule): row.metrics
                for row in self.rows if row.platform == platform}

    def to_rows(self) -> List[Dict[str, float]]:
        """Flat row dictionaries (axis labels + metrics) for tables."""
        if self.scenario.policies is None:
            return [{"workload": row.workload, "schedule": row.schedule,
                     "platform": row.platform, **row.metrics}
                    for row in self.rows]
        return [{"workload": row.workload, "schedule": row.schedule,
                 "platform": row.platform, "policy": row.policy, **row.metrics}
                for row in self.rows]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: scenario name -> factory(**overrides) -> Scenario
SCENARIOS: Dict[str, Callable[..., Scenario]] = {}


def register_scenario(name: str):
    """Decorator registering a scenario factory under ``name``.

    The factory takes only keyword arguments (scale/seed/batch overrides …)
    and returns a fresh :class:`Scenario`.
    """

    def wrap(factory: Callable[..., Scenario]):
        if name in SCENARIOS:
            raise ConfigError(f"scenario {name!r} is already registered")
        SCENARIOS[name] = factory
        return factory

    return wrap


def get_scenario(name: str, **overrides) -> Scenario:
    """Instantiate the registered scenario ``name`` (with factory overrides)."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ConfigError(f"unknown scenario {name!r}; "
                          f"registered: {scenario_names()}") from None
    return factory(**overrides)


def scenario_names() -> List[str]:
    """The registered scenario names, sorted."""
    return sorted(SCENARIOS)


def scenario_descriptions() -> Dict[str, str]:
    """scenario name -> one-line description (from the factory docstring)."""
    described = {}
    for name in scenario_names():
        doc = (SCENARIOS[name].__doc__ or "").strip()
        described[name] = doc.splitlines()[0] if doc else ""
    return described


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def run(scenario, *, jobs: Optional[int] = None,
        cache: Union[ResultCache, str, None] = None,
        runner: Optional[SweepRunner] = None, **overrides):
    """Execute a scenario, a registered scenario name, or an experiment spec.

    ``runner`` takes precedence when given; otherwise a runner is built from
    ``jobs``/``cache`` (defaulting to the shared serial, uncached runner).
    Results come back in grid order; with a cache, a warm rerun satisfies
    every cell without re-simulating (``result.stats.simulated == 0``).

    An :class:`~repro.api.experiment.ExperimentSpec` executes through
    :func:`~repro.api.experiment.run_experiment` and returns its
    :class:`~repro.api.experiment.ExperimentResult`; everything else returns a
    :class:`ScenarioResult`.
    """
    from .experiment import ExperimentSpec, run_experiment

    if isinstance(scenario, ExperimentSpec):
        if overrides:
            raise ConfigError("factory overrides only apply to registered names")
        return run_experiment(scenario, jobs=jobs, cache=cache, runner=runner)
    if isinstance(scenario, str):
        scenario = get_scenario(scenario, **overrides)
    elif overrides:
        raise ConfigError("factory overrides only apply to registered scenario names")
    runner = build_runner(jobs=jobs, cache=cache, runner=runner)
    results = runner.run(scenario.sweep_spec())
    rows = [ScenarioRow(workload=cell[0], schedule=cell[1], platform=cell[2],
                        policy=cell[3] if len(cell) > 3 else "",
                        metrics=result.metrics, cached=result.cached)
            for cell, result in zip(scenario.grid(), results)]
    return ScenarioResult(scenario=scenario, rows=rows, stats=runner.last_stats)
