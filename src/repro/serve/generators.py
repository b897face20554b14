"""Production-shaped workload generators behind a name registry.

:func:`~repro.serve.arrivals.poisson_trace` and
:func:`~repro.serve.arrivals.burst_trace` cover the textbook open-loop
shapes; production traffic is messier — heavy-tailed request lengths,
several tenants with different rate/length profiles sharing one fleet, and
rates that swing over the day.  This module packages those shapes as
**registered generators** (the same shared registry index that backs the
eviction / routing / scheduling policies, kind ``"generator"``), so a trace
shape is a sweepable string axis exactly like a policy or a platform:

* ``"poisson"`` / ``"burst"`` — the existing generators, registered,
* ``"heavy-tail"`` — log-normal body with a Pareto tail mixed in: a small
  fraction of requests carries pareto-distributed prompt *and* output
  lengths, the shape that makes continuous batching earn its keep,
* ``"diurnal"`` — a time-varying Poisson process (sinusoidal rate curve)
  realized by thinning: candidates arrive at the peak rate and survive with
  probability ``rate(t) / peak`` — the standard exact simulation of an
  inhomogeneous Poisson process,
* ``"ramp"`` — the same thinning with a linearly growing rate: the
  saturation-finding workload (where does the queue start diverging?),
* ``"multitenant"`` — independent per-tenant Poisson processes (each tenant
  a rate share plus its own length profile) superposed into one trace, with
  tenant identity mapped onto :attr:`~repro.serve.arrivals.Request.priority`
  classes so the priority-aware scheduling policies and the per-class report
  breakdowns see the blend.

Every generator is a pure function of ``(rate, num_requests, seed, ...)`` —
same arguments, bit-identical trace — and returns an ordinary
:class:`~repro.serve.arrivals.ArrivalTrace`, so generated traffic records,
replays and serializes exactly like hand-built traces (including the JSONL
format, :func:`~repro.serve.arrivals.save_trace_jsonl`).

Custom generators register with :func:`register_generator`; the ``"serve"``
sweep task and the scenario library resolve them by name through
:func:`generate_trace`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import ConfigError
from ..core.summation import left_sum
from .arrivals import (DEFAULT_OUTPUT_MAX, DEFAULT_OUTPUT_MEAN,
                       DEFAULT_OUTPUT_SIGMA, DEFAULT_PROMPT_MAX,
                       DEFAULT_PROMPT_MEAN, DEFAULT_PROMPT_QUANTUM,
                       DEFAULT_PROMPT_SIGMA, MCYCLE, ArrivalTrace, Request,
                       _lognormal_lengths, burst_trace, poisson_trace,
                       quantize_up)
from .registry import (attach_registry, registered_names, resolve_registered,
                       seal_builtins)

#: name -> generator callable; reach it via :func:`get_generator` so unknown
#: names raise a listing ConfigError, not a KeyError
GENERATORS: Dict[str, Callable[..., ArrivalTrace]] = \
    attach_registry("generator", {})


def register_generator(name: str):
    """Class-less registration decorator for trace generators.

    A generator is any callable ``f(rate, num_requests, seed=0, name=None,
    **kwargs) -> ArrivalTrace`` that is a pure function of its arguments.
    """
    def decorator(fn: Callable[..., ArrivalTrace]):
        if name in GENERATORS:
            raise ConfigError(f"trace generator {name!r} is already registered")
        GENERATORS[name] = fn
        return fn
    return decorator


def get_generator(name: str) -> Callable[..., ArrivalTrace]:
    """The registered generator for ``name`` (ConfigError lists known names)."""
    return resolve_registered("generator", name)


def generator_names() -> List[str]:
    """The registered generator names, sorted."""
    return registered_names("generator")


def generate_trace(generator: str, rate: float, num_requests: int,
                   seed: int = 0, name: Optional[str] = None,
                   **kwargs: Any) -> ArrivalTrace:
    """Build a trace through a registered generator — the one entry point
    the sweep tasks and scenario library use to turn a generator *name*
    plus knobs into requests."""
    return get_generator(generator)(rate=rate, num_requests=num_requests,
                                    seed=seed, name=name, **kwargs)


def _check_rate_and_count(rate: float, num_requests: int) -> None:
    if rate <= 0:
        raise ConfigError(f"arrival rate must be positive, got {rate}")
    if num_requests <= 0:
        raise ConfigError(f"num_requests must be positive, got {num_requests}")


# ---------------------------------------------------------------------------
# Builtin generators
# ---------------------------------------------------------------------------

register_generator("poisson")(poisson_trace)
register_generator("burst")(burst_trace)


@register_generator("heavy-tail")
def heavy_tail_trace(rate: float, num_requests: int, seed: int = 0,
                     name: Optional[str] = None,
                     prompt_mean: float = DEFAULT_PROMPT_MEAN,
                     prompt_sigma: float = DEFAULT_PROMPT_SIGMA,
                     prompt_max: int = DEFAULT_PROMPT_MAX,
                     prompt_quantum: int = DEFAULT_PROMPT_QUANTUM,
                     output_mean: float = DEFAULT_OUTPUT_MEAN,
                     output_sigma: float = DEFAULT_OUTPUT_SIGMA,
                     output_max: int = DEFAULT_OUTPUT_MAX,
                     tail_frac: float = 0.05,
                     tail_alpha: float = 1.5) -> ArrivalTrace:
    """Poisson arrivals with a Pareto tail mixed into the length population.

    A ``tail_frac`` fraction of requests replaces both its prompt and output
    length with ``(pareto(tail_alpha) + 1) * mean`` draws — unbounded-variance
    monsters (clipped to the same maxima as everyone else) amid the log-normal
    body.  ``tail_alpha`` close to 1 makes the tail vicious; 2+ tames it.
    """
    _check_rate_and_count(rate, num_requests)
    if not 0.0 <= tail_frac < 1.0:
        raise ConfigError(f"tail_frac must be in [0, 1), got {tail_frac}")
    if tail_alpha <= 0:
        raise ConfigError(f"tail_alpha must be positive, got {tail_alpha}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=MCYCLE / rate, size=num_requests)
    gaps[0] = 0.0
    arrivals = np.cumsum(gaps)
    prompts = _lognormal_lengths(rng, num_requests, prompt_mean, prompt_sigma,
                                 prompt_quantum, prompt_max)
    outputs = _lognormal_lengths(rng, num_requests, output_mean, output_sigma,
                                 1, output_max)
    tail = rng.random(num_requests) < tail_frac
    tail_prompts = (rng.pareto(tail_alpha, size=num_requests) + 1.0) * prompt_mean
    tail_outputs = (rng.pareto(tail_alpha, size=num_requests) + 1.0) * output_mean
    prompts = np.where(tail, np.clip(np.round(tail_prompts), prompt_quantum,
                                     prompt_max).astype(int), prompts)
    outputs = np.where(tail, np.clip(np.round(tail_outputs), 1,
                                     output_max).astype(int), outputs)
    requests = tuple(
        Request(request_id=i, arrival=float(round(arrivals[i], 3)),
                prompt_tokens=quantize_up(int(prompts[i]), prompt_quantum),
                output_tokens=int(outputs[i]))
        for i in range(num_requests))
    return ArrivalTrace(
        name=name or f"heavytail-r{rate:g}-n{num_requests}-s{seed}",
        requests=requests)


def _thinned_arrivals(rng: np.random.Generator, num_requests: int,
                      peak_rate: float,
                      rate_at: Callable[[float], float]) -> List[float]:
    """Exact inhomogeneous-Poisson arrivals by thinning.

    Candidates arrive as a homogeneous Poisson process at ``peak_rate``; each
    candidate at time ``t`` survives with probability ``rate_at(t) /
    peak_rate``.  ``rate_at`` must never exceed ``peak_rate`` or the law is
    wrong — callers construct the envelope accordingly.
    """
    arrivals: List[float] = []
    t = 0.0
    while len(arrivals) < num_requests:
        t += rng.exponential(scale=MCYCLE / peak_rate)
        if rng.random() * peak_rate <= rate_at(t):
            arrivals.append(t)
    return arrivals


def _lengths_and_requests(rng: np.random.Generator, arrivals: List[float],
                          prompt_mean: float, prompt_sigma: float,
                          prompt_max: int, prompt_quantum: int,
                          output_mean: float, output_sigma: float,
                          output_max: int) -> Tuple[Request, ...]:
    count = len(arrivals)
    prompts = _lognormal_lengths(rng, count, prompt_mean, prompt_sigma,
                                 prompt_quantum, prompt_max)
    outputs = _lognormal_lengths(rng, count, output_mean, output_sigma,
                                 1, output_max)
    return tuple(
        Request(request_id=i, arrival=float(round(arrivals[i], 3)),
                prompt_tokens=quantize_up(int(prompts[i]), prompt_quantum),
                output_tokens=int(outputs[i]))
        for i in range(count))


@register_generator("diurnal")
def diurnal_trace(rate: float, num_requests: int, seed: int = 0,
                  name: Optional[str] = None,
                  amplitude: float = 0.5,
                  period_mcycles: float = 4.0,
                  prompt_mean: float = DEFAULT_PROMPT_MEAN,
                  prompt_sigma: float = DEFAULT_PROMPT_SIGMA,
                  prompt_max: int = DEFAULT_PROMPT_MAX,
                  prompt_quantum: int = DEFAULT_PROMPT_QUANTUM,
                  output_mean: float = DEFAULT_OUTPUT_MEAN,
                  output_sigma: float = DEFAULT_OUTPUT_SIGMA,
                  output_max: int = DEFAULT_OUTPUT_MAX) -> ArrivalTrace:
    """A sinusoidal rate curve: ``rate * (1 + amplitude * sin(2πt/period))``.

    The simulated day: traffic swings between ``rate*(1-amplitude)`` and
    ``rate*(1+amplitude)`` with period ``period_mcycles`` million cycles.
    An autoscaler should track the swell; a fixed fleet provisioned for the
    mean drowns at every peak.
    """
    _check_rate_and_count(rate, num_requests)
    if not 0.0 <= amplitude <= 1.0:
        raise ConfigError(f"amplitude must be in [0, 1], got {amplitude}")
    if period_mcycles <= 0:
        raise ConfigError(f"period_mcycles must be positive, "
                          f"got {period_mcycles}")
    period = period_mcycles * MCYCLE
    peak = rate * (1.0 + amplitude)

    def rate_at(t: float) -> float:
        return rate * (1.0 + amplitude * math.sin(2.0 * math.pi * t / period))

    rng = np.random.default_rng(seed)
    arrivals = _thinned_arrivals(rng, num_requests, peak, rate_at)
    requests = _lengths_and_requests(rng, arrivals, prompt_mean, prompt_sigma,
                                     prompt_max, prompt_quantum, output_mean,
                                     output_sigma, output_max)
    return ArrivalTrace(
        name=name or f"diurnal-r{rate:g}-n{num_requests}-s{seed}",
        requests=requests)


@register_generator("ramp")
def ramp_trace(rate: float, num_requests: int, seed: int = 0,
               name: Optional[str] = None,
               start_frac: float = 0.25,
               ramp_mcycles: float = 4.0,
               prompt_mean: float = DEFAULT_PROMPT_MEAN,
               prompt_sigma: float = DEFAULT_PROMPT_SIGMA,
               prompt_max: int = DEFAULT_PROMPT_MAX,
               prompt_quantum: int = DEFAULT_PROMPT_QUANTUM,
               output_mean: float = DEFAULT_OUTPUT_MEAN,
               output_sigma: float = DEFAULT_OUTPUT_SIGMA,
               output_max: int = DEFAULT_OUTPUT_MAX) -> ArrivalTrace:
    """A linear rate ramp from ``start_frac * rate`` up to ``rate``.

    The rate grows linearly over ``ramp_mcycles`` million cycles and holds at
    ``rate`` afterwards — sweep the target rate and watch where the queue
    depth timeline stops returning to zero: that knee is the capacity the
    ``capacity`` experiment brackets.
    """
    _check_rate_and_count(rate, num_requests)
    if not 0.0 < start_frac <= 1.0:
        raise ConfigError(f"start_frac must be in (0, 1], got {start_frac}")
    if ramp_mcycles <= 0:
        raise ConfigError(f"ramp_mcycles must be positive, got {ramp_mcycles}")
    ramp = ramp_mcycles * MCYCLE

    def rate_at(t: float) -> float:
        return rate * min(1.0, start_frac + (1.0 - start_frac) * t / ramp)

    rng = np.random.default_rng(seed)
    arrivals = _thinned_arrivals(rng, num_requests, rate, rate_at)
    requests = _lengths_and_requests(rng, arrivals, prompt_mean, prompt_sigma,
                                     prompt_max, prompt_quantum, output_mean,
                                     output_sigma, output_max)
    return ArrivalTrace(
        name=name or f"ramp-r{rate:g}-n{num_requests}-s{seed}",
        requests=requests)


#: the default tenant blend: who shares a production fleet.  ``share`` splits
#: both the arrival rate and the request count; ``priority`` is the class the
#: tenant's requests carry (0 = most urgent — the interactive tier)
DEFAULT_TENANTS: Tuple[Dict[str, Any], ...] = (
    {"name": "interactive", "share": 0.5, "priority": 0,
     "prompt_mean": 64.0, "output_mean": 8.0},
    {"name": "batch", "share": 0.3, "priority": 1,
     "prompt_mean": 160.0, "output_mean": 24.0},
    {"name": "analytics", "share": 0.2, "priority": 2,
     "prompt_mean": 256.0, "output_mean": 4.0},
)

#: length knobs a tenant profile may override (everything else about the
#: tenant's sub-trace comes from the blend-level arguments)
_TENANT_LENGTH_KEYS = ("prompt_mean", "prompt_sigma", "prompt_max",
                       "prompt_quantum", "output_mean", "output_sigma",
                       "output_max")


@register_generator("multitenant")
def multitenant_trace(rate: float, num_requests: int, seed: int = 0,
                      name: Optional[str] = None,
                      tenants: Tuple[Dict[str, Any], ...] = DEFAULT_TENANTS,
                      **length_kwargs: Any) -> ArrivalTrace:
    """Superposed per-tenant Poisson processes mapped onto priority classes.

    Each tenant runs its own :func:`~repro.serve.arrivals.poisson_trace` at
    ``share * rate`` with its own length profile and a per-tenant seed
    (``seed + tenant index``); the sub-traces are merged by arrival time
    (ties broken by tenant order, then intra-tenant order — deterministic)
    and renumbered.  Request counts split proportionally to ``share`` with
    the rounding remainder going to the earliest tenants, so the blend sums
    to exactly ``num_requests``.  Tenant identity rides on the request's
    priority class, which both the priority-aware scheduling policies and
    the per-class report breakdowns key on.  Blend-level ``length_kwargs``
    (``prompt_mean`` et al.) are the baseline profile; each tenant's own
    entries override them.
    """
    _check_rate_and_count(rate, num_requests)
    if not tenants:
        raise ConfigError("multitenant_trace needs at least one tenant")
    shares = []
    for idx, tenant in enumerate(tenants):
        share = float(tenant.get("share", 0.0))
        if share <= 0:
            raise ConfigError(f"tenant {idx} ({tenant.get('name', '?')!r}): "
                              f"share must be positive, got {share}")
        shares.append(share)
    total_share = left_sum(shares)
    # proportional counts, remainder to the earliest tenants
    counts = [int(num_requests * s / total_share) for s in shares]
    for idx in range(num_requests - sum(counts)):
        counts[idx % len(counts)] += 1
    tagged: List[Tuple[float, int, int, Request, int]] = []
    for idx, (tenant, count) in enumerate(zip(tenants, counts)):
        if count == 0:
            continue
        overrides = {k: v for k, v in length_kwargs.items()
                     if k in _TENANT_LENGTH_KEYS}
        overrides.update({k: tenant[k] for k in _TENANT_LENGTH_KEYS
                          if k in tenant})
        sub = poisson_trace(rate=rate * shares[idx] / total_share,
                            num_requests=count, seed=seed + idx, **overrides)
        priority = int(tenant.get("priority", idx))
        for intra, request in enumerate(sub.requests):
            tagged.append((request.arrival, idx, intra, request, priority))
    tagged.sort(key=lambda item: item[:3])
    requests = tuple(
        Request(request_id=i, arrival=request.arrival,
                prompt_tokens=request.prompt_tokens,
                output_tokens=request.output_tokens, priority=priority)
        for i, (_, _, _, request, priority) in enumerate(tagged))
    return ArrivalTrace(
        name=name or f"multitenant{len(tenants)}-r{rate:g}-n{num_requests}-s{seed}",
        requests=requests)


seal_builtins("generator")
