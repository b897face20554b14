"""The continuous-batching serving scheduler (Orca-style iteration scheduling).

:class:`ServeConfig` declares every serving knob, once; the scenario adapter
:class:`ServeWorkload` is a config plus an arrival trace.

:class:`ReplicaEngine` is the unit of serving capacity: one continuous-batching
server that can be **stepped incrementally** — submit requests, advance its
clock, step it, drain it — which is what lets :mod:`repro.serve.fleet` run N
replicas side by side behind a dispatcher.  :func:`simulate_serving` drives an
open-loop :class:`~repro.serve.arrivals.ArrivalTrace` through a single engine:

* requests wait in a **queue** until the admission policy moves them into the
  running batch (at most ``batch_cap`` requests); admission happens at *step*
  granularity, exactly like iteration-level scheduling in Orca / vLLM,
* the batching policy plans each step — which runners participate and how
  many context tokens each contributes.  Under the default Orca plan a newly
  admitted request's first step is its **prefill** (the whole prompt joins
  the step's token batch and the step emits the request's first output
  token); chunked prefill spreads that context over several steps,
* every decode step produces one token per participating request against its
  grown KV cache, until ``output_tokens`` tokens have been produced,
* each step's latency comes from simulating the step as a
  :class:`~repro.serve.workload.ServeStepWorkload` under the run's unified
  :class:`~repro.schedules.Schedule` — so batching pressure, KV-length skew
  and the schedule's tiling/parallelization choices all shape the serving
  latencies through the same dataflow engine as the closed-loop experiments.

**Scheduling policies.**  The scheduling discipline is pluggable: a
:class:`~repro.serve.policy.ServePolicy` on :class:`ServeConfig` names one
admission policy (who joins the batch, and whether urgent arrivals preempt
runners), one batching policy (the per-step plan) and one priority-assignment
policy (each request's class at submit time) from the registries in
:mod:`repro.serve.policy`.  The default spec reproduces the historical
hard-coded scheduler bit-identically (pinned in tier-1): FIFO admission,
Orca-continuous batching, trace-assigned priorities.

A step is described by its *step signature*: the token-batch size plus the
multiset of per-request KV lengths, quantized up to ``kv_tile_rows`` (the
granularity at which the simulator tiles KV anyway).  Its cost is
``(qkv + attention + moe) * num_layers``, and the memo keeps each sub-layer's
cycles under exactly the inputs that sub-layer reads: QKV the token count,
attention the KV multiset and the parallelization, MoE the token count, the
routing seed and the MoE tiling (see :func:`_step_cycles`).  Decode steps
change signature only every ``kv_tile_rows`` generated tokens, and new
pairings of token counts with KV multisets reuse the sub-layers already
seen, so a serving run simulates a handful of sub-layers while replaying
hundreds of steps.  The memoization is invisible in the results: the report
is a pure function of ``(config, trace, schedule, hardware)``, bit-identical
across runs.  The memo is **bounded** (:class:`StepMemo`): fleet sweeps over
replicas × rates × policies touch many distinct contexts, so the
process-wide cache caps its entry count and evicts least-recently-used
entries deterministically; :func:`step_cache_stats` exposes
hit/miss/eviction counters of the sub-layer lookups for debugging; reports
never embed them, so a report depends only on its run.

**Two-tier costing.**  ``ServeConfig.cost_model`` is the one costing axis.
``"exact"`` (the default) simulates every distinct step through the event
engine; ``"calibrated"`` / ``"table"`` calibrate a surrogate per run
(the first ``calibration_budget`` distinct signatures are simulated, the
rest predicted); a fitted :class:`~repro.costmodel.models.CostModel` (or
its ``to_dict()`` payload) predicts every step.  Scheduling is untouched:
admission, batching, memory pressure and preemption all run identically,
only the latency each step charges comes from the model, within the
documented error bound (:data:`repro.costmodel.SURROGATE_TOLERANCE`,
pinned in tier-1).

**Memory pressure.**  When the resolved platform sets a finite
``hbm_capacity_bytes``, the engine owns a :class:`~repro.serve.memory.
KVPagePool` and KV pages become a second admission constraint next to
``batch_cap``:

* a queued request is admitted only when its KV fits *now* (its prompt —
  plus any evicted-and-recomputed tokens — plus one row for the token the
  step will emit; the contiguous mode reserves the lifetime maximum
  instead).  A selected request that does not fit stalls admission (counted
  as an ``admission_stall``) rather than being overtaken,
* before each step is costed, every *plan participant* secures room for the
  rows it is about to write.  A paged growth that finds the pool full
  triggers **preemption**: the configured eviction policy
  (:data:`~repro.serve.memory.EVICTION_POLICIES` — ``evict-lru`` /
  ``evict-largest-kv`` / ``evict-youngest``) picks a victim among the
  not-yet-secured runners, whose pages are freed and who returns to the
  *front* of the queue.  On re-admission its prefill re-processes prompt
  **and** previously generated tokens (vLLM-style recompute), which is the
  modeled cost of eviction,
* ``submit`` rejects a request whose lifetime KV could never fit the pool
  (that plus first-secured-wins growth guarantees every step keeps at
  least one participant, so ``drain`` always terminates).

With ``hbm_capacity_bytes=None`` (every platform predating the memory
subsystem) no pool exists and the engine is bit-identical to the pre-memory
scheduler.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, ClassVar, Deque, Dict, List, Optional, Tuple

from ..api.workload import WorkloadBase, register_workload
from ..core.errors import ConfigError
from ..platforms import PlatformLike, resolve_platform
from ..schedules import Schedule
from ..sim.executors.common import HardwareConfig
from ..sweep.cache import stable_hash
from ..workloads.configs import ModelConfig
from .arrivals import ArrivalTrace, Request, quantize_up
from .memory import (EVICTION_POLICIES, KV_MODES, EvictionPolicy, KVPagePool,
                     MemoryStats, eviction_policy_names, get_eviction_policy,
                     kv_bytes_per_row)
from .policy import (DEFAULT_POLICY, AdmissionPolicy, BatchingPolicy,
                     PriorityPolicy, ServePolicy, resolve_serve_policy)
from .registry import resolve_registered
from .report import RequestRecord, ServingReport, StepSample
from .streaming import (DEFAULT_SKETCH_ACCURACY, DEFAULT_WINDOW_CYCLES,
                        StreamingStats, make_streaming_stats,
                        resolve_report_mode)
from .workload import ServeStepWorkload, moe_tile_rows

#: entry cap of the process-wide step-cost memo.  Each entry is one simulated
#: sub-layer cost (a float keyed by that sub-layer's inputs); the cap bounds a
#: fleet sweep's footprint while staying far above what any single run touches.
STEP_MEMO_MAXSIZE = 8192


class StepMemo:
    """A bounded step-cost memo with deterministic LRU eviction.

    ``get``/``put`` maintain least-recently-used order, so the eviction
    sequence is a pure function of the access sequence — two processes
    replaying the same runs evict identically.  Eviction only ever costs a
    re-simulation (results are memo-independent), never correctness; the
    hit/miss/eviction counters exist to make that trade-off observable.
    """

    def __init__(self, maxsize: int = STEP_MEMO_MAXSIZE) -> None:
        if maxsize < 1:
            raise ConfigError(f"StepMemo maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple) -> Optional[float]:
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Tuple, value: float) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> int:
        """Drop every entry (counters included); returns the entry count."""
        count = len(self._entries)
        self._entries.clear()
        self.hits = self.misses = self.evictions = 0
        return count

    def stats(self) -> Dict[str, int]:
        return {"size": len(self._entries), "maxsize": self.maxsize,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


#: sub-layer key -> sub-layer cycles, shared within the process so sweep
#: points over the same model and hardware reuse each other's sub-layers
_STEP_MEMO = StepMemo()


def clear_step_cache() -> int:
    """Drop the in-process step-cost memo (returns the number of entries)."""
    return _STEP_MEMO.clear()


def step_cache_stats() -> Dict[str, int]:
    """Size/hit/miss/eviction counters of the process-wide step memo."""
    return _STEP_MEMO.stats()


@dataclass(frozen=True)
class ServeConfig:
    """Server-side configuration of a serving run (the trace is separate).

    This is the one declaration of every serving knob.  The fleet config,
    the ``ServeWorkload``/``FleetWorkload`` scenario adapters, the
    ``"serve"``/``"fleet"`` sweep tasks and the ``repro.api`` facades all
    inherit or forward these fields rather than restating them.
    """

    model: ModelConfig
    #: maximum concurrently running requests per step (continuous batch size)
    batch_cap: int = 8
    #: decoder layers each step executes (latency multiplier, cf. Figure 17)
    num_layers: int = 2
    kv_tile_rows: int = 64
    moe_compute_bw: int = 8192
    attention_compute_bw: int = 256
    #: seeds the per-step MoE routing
    seed: int = 0
    #: KV allocation discipline under a finite platform ("paged"/"contiguous");
    #: inert when the platform's hbm_capacity_bytes is None
    kv_mode: str = "paged"
    #: registered eviction policy deciding whom to preempt under pressure
    eviction_policy: str = "evict-lru"
    #: the scheduling discipline (admission × batching × priority): a
    #: :class:`ServePolicy`, a preset name or a spec dict, resolved at
    #: construction; ``None`` is the default policy, the historical scheduler
    policy: ServePolicy = DEFAULT_POLICY
    #: ``"full"`` keeps every request record and step sample (the historical
    #: behavior, bit-identical); ``"streaming"`` folds them into O(1)-memory
    #: sketches and windows (:mod:`repro.serve.streaming`) as the run goes
    report_mode: str = "full"
    #: width of the streaming timeline's aggregation windows, in cycles
    window_cycles: float = DEFAULT_WINDOW_CYCLES
    #: relative error bound of the streaming percentile sketches
    sketch_accuracy: float = DEFAULT_SKETCH_ACCURACY
    #: where step latencies come from: ``"exact"`` simulates every distinct
    #: step through the event engine; ``"calibrated"`` / ``"table"`` fit a
    #: surrogate per run after ``calibration_budget`` exact probes; a fitted
    #: :class:`~repro.costmodel.models.CostModel` or its ``to_dict()``
    #: payload predicts every step (see :mod:`repro.costmodel`)
    cost_model: Any = "exact"
    #: distinct step signatures a per-run surrogate probes through the
    #: exact engine (per replica run) before fitting itself
    calibration_budget: int = 64

    def __post_init__(self) -> None:
        # deferred import: repro.costmodel builds on the serve package
        from ..costmodel.models import resolve_cost_model

        if self.batch_cap < 1:
            raise ConfigError(f"batch_cap must be >= 1, got {self.batch_cap}")
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        resolve_report_mode(self.report_mode)
        if self.window_cycles <= 0:
            raise ConfigError(f"window_cycles must be > 0, "
                              f"got {self.window_cycles}")
        if not 0.0 < self.sketch_accuracy < 1.0:
            raise ConfigError(f"sketch_accuracy must be in (0, 1), "
                              f"got {self.sketch_accuracy}")
        if self.kv_mode not in KV_MODES:
            raise ConfigError(f"unknown kv_mode {self.kv_mode!r}; "
                              f"expected one of {list(KV_MODES)}")
        if self.eviction_policy not in EVICTION_POLICIES:
            raise ConfigError(f"unknown eviction policy {self.eviction_policy!r}; "
                              f"registered: {eviction_policy_names()}")
        if self.calibration_budget < 1:
            raise ConfigError(f"calibration_budget must be >= 1 (an empty "
                              f"probe budget cannot calibrate a surrogate), "
                              f"got {self.calibration_budget}")
        object.__setattr__(self, "policy", resolve_serve_policy(self.policy))
        object.__setattr__(self, "cost_model",
                           resolve_cost_model(self.cost_model))


@dataclass
class _Active:
    """A request in the running batch (or re-queued after preemption)."""

    request: Request
    #: output tokens produced so far (0 = the prefill phase is still ahead)
    generated: int = 0
    first_token: float = 0.0
    #: the engine must (re-)process the full context before decoding: true
    #: for fresh requests and again after a preemption evicted the KV
    needs_prefill: bool = True
    #: clock of the latest (re-)admission — the eviction policies' age signal
    admitted_at: float = 0.0
    #: priority class assigned at submit (0 = most urgent)
    priority: int = 0
    #: context tokens already prefilled since the last (re-)admission —
    #: only chunked batching leaves this mid-way between steps
    context_done: int = 0

    @property
    def kv_length(self) -> int:
        """Current KV-cache length: the prompt plus every generated token."""
        return self.request.prompt_tokens + self.generated


@dataclass(frozen=True)
class StepContext:
    """What a serving run's step costs depend on, hashed once per replica.

    ``digest`` hashes every input that determines a step's cost; fitted cost
    models carry it.  It deliberately excludes ``batch_cap``, ``kv_mode``,
    ``eviction_policy``, the whole ``policy`` spec and the platform's HBM
    capacity: they shape *which* steps occur, never what one costs.
    ``model_hardware`` hashes only the model and hardware, which every
    sub-layer reads; the step memo keys each sub-layer on it plus that
    sub-layer's own inputs (see :func:`_step_cycles`).
    """

    digest: str
    model_hardware: str


def _context_key(config: ServeConfig, schedule: Schedule,
                 hardware: HardwareConfig) -> StepContext:
    """The :class:`StepContext` of one (config, schedule, hardware)."""
    return StepContext(
        digest=stable_hash({
            "model": config.model,
            "num_layers": config.num_layers,
            "kv_tile_rows": config.kv_tile_rows,
            "moe_compute_bw": config.moe_compute_bw,
            "attention_compute_bw": config.attention_compute_bw,
            "seed": config.seed,
            "schedule": schedule,
            "hardware": hardware,
        }),
        model_hardware=stable_hash({"model": config.model, "hardware": hardware}))


def _step_cycles(config: ServeConfig, schedule: Schedule, hardware: HardwareConfig,
                 context: StepContext, num_tokens: int, kv_lengths: Tuple[int, ...],
                 fresh: Dict[Tuple, float]) -> float:
    """One step's cycles, composed from separately memoized sub-layer costs.

    Each sub-layer is memoized under exactly the inputs its simulation reads
    (:meth:`ServeStepWorkload.simulate_qkv` and its siblings).  QKV names no
    schedule and no seed, so static and dynamic runs share it; attention
    names the KV multiset and the parallelization; MoE names the token count,
    the routing seed and the MoE tiling.  No key names ``num_layers``, which
    multiplies the layer sum afterwards.  A new pairing of a token count with
    a KV multiset then simulates only the sub-layers not seen before.
    """
    par = schedule.parallelization
    # routing depends only on the token count (plus the run seed)
    routing_seed = (config.seed * 1_000_003 + num_tokens) & 0x7FFFFFFF
    keys = (("qkv", context.model_hardware, num_tokens, config.moe_compute_bw),
            ("attention", context.model_hardware, kv_lengths, par.strategy,
             par.num_regions, par.coarse_chunk, config.kv_tile_rows,
             config.attention_compute_bw),
            ("moe", context.model_hardware, num_tokens, routing_seed,
             moe_tile_rows(schedule, num_tokens), schedule.moe_num_regions,
             config.moe_compute_bw))
    parts = [_STEP_MEMO.get(key) for key in keys]
    if None in parts:
        step = ServeStepWorkload(
            model=config.model, num_tokens=num_tokens, kv_lengths=kv_lengths,
            routing_seed=routing_seed, kv_tile_rows=config.kv_tile_rows,
            moe_compute_bw=config.moe_compute_bw,
            attention_compute_bw=config.attention_compute_bw)
        simulations = (step.simulate_qkv, step.simulate_attention, step.simulate_moe)
        for index, (key, simulate) in enumerate(zip(keys, simulations)):
            if parts[index] is None:
                parts[index] = simulate(schedule, hardware).cycles
                _STEP_MEMO.put(key, parts[index])
    cycles = fresh[(num_tokens, kv_lengths)] = ServeStepWorkload.compose(
        *parts, config.num_layers)
    return cycles


#: one step's plan: (runner, tokens-it-contributes) per participant
StepPlan = List[Tuple[_Active, int]]


class ReplicaEngine:
    """One continuous-batching server, steppable from the outside.

    The engine owns a clock (``now``, in cycles), a waiting queue, the
    running batch and the records/steps it has produced.  A driver — the
    single-engine :func:`simulate_serving` loop or the fleet dispatcher in
    :mod:`repro.serve.fleet` — feeds it requests with :meth:`submit` and moves
    time with :meth:`advance_to` / :meth:`step` / :meth:`drain`.

    The contract with the driver: a request must be submitted before the
    engine is stepped past its arrival (submit at arrival time, after
    ``advance_to(arrival)``).  Under that contract the engine reproduces the
    classic single-loop scheduler exactly: a request joins the first step
    whose start is at or after its arrival, and an idle engine's clock jumps
    to the earliest queued arrival instead of spinning.

    Each step runs three policy hooks from ``config.policy``: admission
    (:meth:`_admit` — possibly preempting runners for urgent arrivals),
    batching (the step plan) and, at :meth:`submit`, priority assignment.

    ``warmup_cycles`` models cold-start cost: the engine's first step ever is
    preceded by a one-time clock penalty (weights loading, compilation —
    whatever makes a freshly spawned replica slow).  Zero keeps the engine
    bit-identical to the pre-fleet scheduler.
    """

    def __init__(self, config: ServeConfig, schedule: Optional[Schedule] = None,
                 hardware: PlatformLike = None, *, warmup_cycles: float = 0.0,
                 start_cycle: float = 0.0, replica_id: int = 0) -> None:
        if warmup_cycles < 0:
            raise ConfigError(f"warmup_cycles must be >= 0, got {warmup_cycles}")
        self.config = config
        self.schedule = schedule or Schedule.dynamic()
        self.platform = resolve_platform(hardware)
        self.hardware = self.platform.hardware
        self.warmup_cycles = float(warmup_cycles)
        self.replica_id = replica_id
        self.spawned_at = float(start_cycle)
        self.now = float(start_cycle)
        self._context = _context_key(config, self.schedule, self.hardware)
        # deferred import: repro.costmodel builds on the serve package
        from ..costmodel.runtime import bind_cost_model
        self._cost_fn = bind_cost_model(config, self.schedule, self.hardware,
                                        self._context)
        policy = config.policy
        self._admission: AdmissionPolicy = \
            resolve_registered("admission", policy.admission)(policy)
        self._batching: BatchingPolicy = \
            resolve_registered("batching", policy.batching)(policy)
        self._priority: PriorityPolicy = \
            resolve_registered("priority", policy.priority)(policy)
        self._waiting: Deque[_Active] = deque()
        self._running: List[_Active] = []
        self._records: List[RequestRecord] = []
        self._steps: List[StepSample] = []
        self._signatures: Dict[Tuple, float] = {}
        self._busy_cycles = 0.0
        # streaming mode folds records/steps into sketches instead of lists
        self._stream: Optional[StreamingStats] = (
            make_streaming_stats(config.sketch_accuracy, config.window_cycles)
            if config.report_mode == "streaming" else None)
        self._warmed = self.warmup_cycles == 0.0
        # -- finite KV memory (None capacity = unbounded, the legacy path) -----------
        self._pool: Optional[KVPagePool] = None
        self._evictor: Optional[EvictionPolicy] = None
        self._row_bytes = kv_bytes_per_row(config.model, config.num_layers)
        if self.platform.hbm_capacity_bytes is not None:
            self._pool = KVPagePool.from_bytes(
                self.platform.hbm_capacity_bytes, config.kv_tile_rows,
                self._row_bytes, mode=config.kv_mode)
            self._evictor = get_eviction_policy(config.eviction_policy)
        self._preemptions = 0
        self._recompute_tokens = 0
        self._admission_stalls = 0
        # running accumulators (sum in observation order == summing the old
        # per-step lists, so the MemoryStats means stay bit-identical)
        self._occ_samples = 0
        self._occ_sum = 0.0
        self._occ_max = 0.0
        self._frag_sum = 0.0
        self._frag_max = 0.0

    # -- dispatcher-visible state ----------------------------------------------------
    @property
    def has_work(self) -> bool:
        return bool(self._waiting or self._running)

    @property
    def queue_depth(self) -> int:
        """Requests on this replica (waiting + running) — the load signal."""
        return len(self._waiting) + len(self._running)

    @property
    def queued(self) -> int:
        return len(self._waiting)

    @property
    def kv_load(self) -> int:
        """Aggregate KV footprint in rows, quantized up to ``kv_tile_rows``.

        Running requests contribute their current KV length, waiting ones the
        context their next (pre)fill step will materialize; each is rounded up
        to the tile granularity the simulator allocates at — this is the exact
        signal the ``least-kv`` fleet routing policy compares.
        """
        tile = self.config.kv_tile_rows
        return (sum(quantize_up(a.kv_length, tile) for a in self._running)
                + sum(quantize_up(w.kv_length, tile) for w in self._waiting))

    @property
    def free_kv_pages(self) -> float:
        """Unreserved KV pages; ``inf`` when the platform's HBM is unbounded.

        The ``most-free-kv`` fleet routing policy ranks replicas on this, so
        an unbounded replica (never under pressure) sorts ahead of any
        capacity-bounded one.
        """
        if self._pool is None:
            return float("inf")
        return float(self._pool.free_pages)

    @property
    def steps(self) -> Tuple[StepSample, ...]:
        return tuple(self._steps)

    @property
    def busy_cycles(self) -> float:
        return self._busy_cycles

    # -- driving ---------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Queue a request.  Call at arrival time — see the contract.

        The priority policy assigns the request's class here (the trace's
        own class under the default policy).  Under a finite platform a
        request whose *lifetime* KV (prompt plus every output token) exceeds
        the whole pool is rejected up front: it could never be scheduled,
        and admitting it would livelock the queue.
        """
        if self._pool is not None:
            max_rows = request.prompt_tokens + request.output_tokens
            if not self._pool.fits_lifetime(max_rows):
                raise ConfigError(
                    f"request {request.request_id} needs "
                    f"{self._pool.pages_for(max_rows)} KV pages for its "
                    f"lifetime but the pool holds {self._pool.capacity_pages} "
                    f"(hbm_capacity_bytes is too small for this trace)")
        self._waiting.append(
            _Active(request, priority=self._priority.assign(request)))

    # -- memory pressure -------------------------------------------------------------
    def _preempt(self, active: _Active) -> None:
        """Evict a running request: free its KV, re-queue it at the front.

        The request keeps its ``generated`` count (and its first-token time
        if already delivered); what it loses is its KV and any partial
        prefill progress — on re-admission the prefill re-processes prompt +
        generated tokens, which is where the recompute cost lands.  Used both
        by KV pressure (:meth:`_secure_kv`) and by preemptive admission
        policies, so it tolerates a pool-less engine.
        """
        if self._pool is not None:
            self._pool.release(active.request.request_id)
        self._preemptions += 1
        active.needs_prefill = True
        active.context_done = 0
        self._waiting.appendleft(active)

    def _try_admit_at(self, idx: int) -> bool:
        """Admit the waiting request at ``idx``; False = it stalled on KV."""
        head = self._waiting[idx]
        if self._pool is not None:
            # the steps a request joins must hold its current context plus
            # the one token it emits; contiguous mode books the lifetime
            max_rows = head.request.prompt_tokens + head.request.output_tokens
            if not self._pool.try_admit(head.request.request_id,
                                        head.kv_length + 1, max_rows):
                self._admission_stalls += 1
                return False
        if head.generated:
            # re-admission after preemption: the evicted tokens are
            # recomputed by the upcoming (re-)prefill
            self._recompute_tokens += head.generated
        head.admitted_at = self.now
        del self._waiting[idx]
        self._running.append(head)
        return True

    def _admit(self) -> None:
        """Move queued requests into the running batch (admission policy).

        The policy picks who joins next (strict FIFO by default — no
        overtaking, so a blocked head stalls the whole queue rather than
        starving large requests forever); a pick that does not fit in KV
        stalls admission, counted once per step.  A *preemptive* policy then
        gets to evict later-deadline runners for more urgent arrivals; each
        swap strictly tightens the running batch, so the loop terminates.
        """
        while len(self._running) < self.config.batch_cap:
            idx = self._admission.select(self._waiting, self.now)
            if idx is None or not self._try_admit_at(idx):
                break
        if not (self._admission.preemptive and self._waiting
                and len(self._running) >= self.config.batch_cap):
            return
        while True:
            idx = self._admission.select(self._waiting, self.now)
            if idx is None:
                break
            victim = self._admission.preempt_victim(self._running,
                                                    self._waiting[idx])
            if victim is None:
                break
            self._preempt(victim)  # appendleft shifts queue indices:
            self._running.remove(victim)  # re-select before admitting
            idx = self._admission.select(self._waiting, self.now)
            if idx is None or not self._try_admit_at(idx):
                break
            if len(self._running) < self.config.batch_cap or not self._waiting:
                break

    def _secure_kv(self, plan: StepPlan) -> StepPlan:
        """Guarantee every plan participant room for the rows it will write.

        Participants are processed in plan order; a paged growth that finds
        the pool full preempts a victim — chosen by the eviction policy among
        the not-yet-secured runners (participants or not) — until it fits.
        The first participant can always succeed (worst case it empties the
        pool down to itself, and ``submit`` guaranteed its lifetime fits), so
        a step never loses all its participants and ``drain`` terminates.
        Victims are dropped from the plan as-is: the step's budget is not
        redistributed mid-flight.
        """
        required: Dict[int, int] = {}
        for active, chunk in plan:
            if active.needs_prefill:
                done = active.context_done + chunk
                rows = done + (1 if done >= active.kv_length else 0)
            else:
                rows = active.kv_length + 1
            required[active.request.request_id] = rows
        secured: set = set()
        survivors = self._running
        for active, _ in plan:
            if active not in survivors:
                continue  # already evicted for an earlier participant
            grew = True
            while not self._pool.try_grow(active.request.request_id,
                                          required[active.request.request_id]):
                candidates = [a for a in survivors if a is not active
                              and a.request.request_id not in secured]
                victim = self._evictor.select(candidates) if candidates else active
                self._preempt(victim)
                survivors.remove(victim)
                if victim is active:
                    grew = False
                    break
            if grew:
                secured.add(active.request.request_id)
        return [(a, c) for a, c in plan if a in survivors]

    def step(self) -> StepSample:
        """Run one scheduler iteration: admit, plan, simulate, advance."""
        if not self.has_work:
            raise ConfigError(f"replica {self.replica_id}: step() with no work")
        if not self._running:
            # idle engine: the step begins when the earliest queued request
            # arrived, not at the engine's stale clock (no idle spinning)
            self.now = max(self.now,
                           min(w.request.arrival for w in self._waiting))
        if not self._warmed:
            # one-time cold-start penalty before the first step ever runs
            self.now += self.warmup_cycles
            self._warmed = True
        preemptions_before = self._preemptions
        self._admit()
        plan = self._batching.plan(self._running)
        self._check_plan(plan)
        if self._pool is not None and self._running:
            # evicted requests re-queue at the *front* and compete for
            # admission again at the next step's _admit
            plan = self._secure_kv(plan)

        running = self._running
        prefill_tokens = sum(c for a, c in plan if a.needs_prefill)
        num_tokens = prefill_tokens + sum(1 for a, _ in plan
                                          if not a.needs_prefill)
        kv_lengths = tuple(sorted(
            quantize_up(a.context_done + c if a.needs_prefill else a.kv_length,
                        self.config.kv_tile_rows) for a, c in plan))
        cycles = self._cost_fn(num_tokens, kv_lengths, self._signatures)
        if self._pool is not None:
            self._occ_samples += 1
            self._occ_sum += self._pool.occupancy
            self._occ_max = max(self._occ_max, self._pool.occupancy)
            self._frag_sum += self._pool.fragmentation
            self._frag_max = max(self._frag_max, self._pool.fragmentation)
        sample = StepSample(
            start=self.now, cycles=cycles, running=len(running),
            queued=len(self._waiting), tokens=num_tokens,
            prefills=sum(1 for a, _ in plan if a.needs_prefill),
            kv_rows=sum(a.kv_length for a in running),
            kv_pages=self._pool.used_pages if self._pool is not None else 0,
            kv_capacity_pages=(self._pool.capacity_pages
                               if self._pool is not None else 0),
            preemptions=self._preemptions - preemptions_before)
        if self._stream is not None:
            self._stream.observe_step(sample)
        else:
            self._steps.append(sample)
        self._busy_cycles += cycles
        self.now += cycles

        chunk_of = {id(a): c for a, c in plan}
        still: List[_Active] = []
        for active in running:
            chunk = chunk_of.get(id(active))
            if chunk is None:
                still.append(active)  # sat this step out (kept its KV)
                continue
            if active.needs_prefill:
                active.context_done += chunk
                if active.context_done < active.kv_length:
                    still.append(active)  # prefill continues next step
                    continue
                # prefill complete: this step emits the (re-)first token
                if active.generated == 0:
                    active.first_token = self.now
                active.needs_prefill = False
            active.generated += 1
            if active.generated >= active.request.output_tokens:
                if self._pool is not None:
                    self._pool.release(active.request.request_id)
                record = RequestRecord(
                    request_id=active.request.request_id,
                    arrival=active.request.arrival,
                    first_token=active.first_token,
                    completion=self.now,
                    prompt_tokens=active.request.prompt_tokens,
                    output_tokens=active.request.output_tokens,
                    priority=active.priority)
                if self._stream is not None:
                    self._stream.observe_request(record)
                else:
                    self._records.append(record)
            else:
                still.append(active)
        self._running = still
        return sample

    def _check_plan(self, plan: StepPlan) -> None:
        """Reject malformed plans early (guards custom batching policies)."""
        if self._running and not plan:
            raise ConfigError(
                f"batching policy {self.config.policy.batching!r} planned an "
                f"empty step for a non-empty batch")
        for active, chunk in plan:
            remaining = active.kv_length - active.context_done
            limit = remaining if active.needs_prefill else 1
            if not 1 <= chunk <= limit:
                raise ConfigError(
                    f"batching policy {self.config.policy.batching!r} planned "
                    f"{chunk} tokens for request "
                    f"{active.request.request_id} (valid: 1..{limit})")

    def advance_to(self, cycle: float) -> None:
        """Step until the clock reaches ``cycle`` (or the engine runs dry).

        The loop condition is strict (``now < cycle``): a step starting
        exactly at ``cycle`` must see anything submitted at that instant, so
        the driver submits first and steps after.
        """
        while self.has_work and self.now < cycle:
            self.step()

    def drain(self) -> None:
        """Step until every queued and running request has completed."""
        while self.has_work:
            self.step()

    def _memory_stats(self) -> Optional[MemoryStats]:
        """The run's memory summary; ``None`` on an unbounded platform."""
        if self._pool is None:
            return None
        samples = self._occ_samples or 1
        return MemoryStats(
            mode=self._pool.mode, page_rows=self._pool.page_rows,
            capacity_pages=self._pool.capacity_pages,
            row_bytes=self._row_bytes, peak_pages=self._pool.peak_pages,
            preemptions=self._preemptions,
            recompute_tokens=self._recompute_tokens,
            admission_stalls=self._admission_stalls,
            occupancy_mean=float(self._occ_sum / samples),
            occupancy_max=float(self._occ_max),
            fragmentation_mean=float(self._frag_sum / samples),
            fragmentation_max=float(self._frag_max))

    def report(self, trace_name: str) -> ServingReport:
        """The engine's history as a :class:`ServingReport` (sorted records)."""
        records = sorted(self._records, key=lambda r: r.request_id)
        return ServingReport(trace=trace_name, schedule=self.schedule.name,
                             batch_cap=self.config.batch_cap,
                             requests=tuple(records), steps=tuple(self._steps),
                             total_cycles=self.now,
                             distinct_steps=len(self._signatures),
                             memory=self._memory_stats(),
                             policy=self.config.policy.describe(),
                             streaming=self._stream)


def simulate_serving(config: ServeConfig, trace: ArrivalTrace,
                     schedule: Optional[Schedule] = None,
                     hardware: PlatformLike = None) -> ServingReport:
    """Serve ``trace`` under ``schedule`` and collect the full report.

    ``hardware`` resolves through the one platform path
    (:func:`repro.platforms.resolve_platform`): ``None`` is the default
    ``"sda"`` platform, and a registered platform name, a
    :class:`~repro.platforms.Platform` or a raw
    :class:`~repro.sim.executors.common.HardwareConfig` all work.

    Deterministic: the report (requests, steps, every latency) is a pure
    function of the arguments — rerunning with the same seed reproduces it
    bit-for-bit, memoization or not.  This is exactly a one-replica,
    zero-warm-up fleet: the loop drives a single :class:`ReplicaEngine` the
    same way the fleet dispatcher drives each of its replicas.
    """
    engine = ReplicaEngine(config, schedule, hardware)
    for request in trace.requests:
        engine.advance_to(request.arrival)
        engine.submit(request)
    engine.drain()
    return engine.report(trace.name)


@register_workload
@dataclass(frozen=True)
class ServeWorkload(ServeConfig, WorkloadBase):
    """A whole open-loop serving run: the server config plus its trace.

    The server knobs are the inherited :class:`ServeConfig` fields, so the
    workload *is* its run's config.  ``run`` executes the continuous-batching
    scheduler against ``trace`` under the given unified schedule and returns
    the flat serving metrics (TTFT / TPOT / e2e percentiles, goodput, queue
    depths — see :meth:`~repro.serve.report.ServingReport.metrics`).  Because
    it is a registered workload, serving runs drop into scenarios, sweep
    grids, the result cache and the benchmark suite like any layer workload.
    Use :meth:`report` (or :func:`repro.api.serve`) when the full
    :class:`~repro.serve.report.ServingReport` is needed.
    """

    kind: ClassVar[str] = "serve"

    trace: ArrivalTrace = field(kw_only=True)

    def build(self, schedule: Schedule, hardware: PlatformLike = None):
        raise ConfigError("ServeWorkload simulates a request-level serving run; "
                          "use run() — there is no single Program to build")

    def report(self, schedule: Schedule,
               hardware: PlatformLike = None) -> ServingReport:
        """The full :class:`~repro.serve.report.ServingReport` of this run."""
        return simulate_serving(self, self.trace, schedule, hardware=hardware)

    def run(self, schedule: Schedule,
            hardware: PlatformLike = None) -> Dict[str, float]:
        return self.report(schedule, hardware).metrics()

    def label(self) -> str:
        base = f"serve:{self.trace.name}:cap{self.batch_cap}"
        if self.policy == DEFAULT_POLICY:
            return base
        return f"{base}:{self.policy.label}"
