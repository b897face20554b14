"""Binding cost models into :class:`~repro.serve.scheduler.ReplicaEngine`.

:func:`bind_cost_model` turns a :class:`~repro.serve.scheduler.ServeConfig`'s
``cost_model`` into the engine's step-cost callable,
``(num_tokens, kv_lengths, signatures) -> cycles``, recording every
signature in the engine's per-run signature dict so ``distinct_steps``
stays meaningful.  Every engine binds through it; there are three cases:

* ``cost_model="exact"`` (the default) — the memoized exact path itself,
* a fitted artifact (:class:`~repro.costmodel.models.TableCostModel` /
  :class:`~repro.costmodel.models.CalibratedCostModel`) — pure prediction
  after a context-hash check; the process-wide step memo is bypassed
  entirely (predictions are cheaper than the memo lookup's bookkeeping and
  must never leak into exact runs),
* ``cost_model="table"`` / ``"calibrated"`` — **per-run adaptive
  calibration** (:class:`AdaptiveSurrogate`): the first
  ``calibration_budget`` distinct signatures are costed exactly (through
  the shared memo) and recorded as probes; reaching the budget fits the
  surrogate, after which probed signatures keep replaying their exact
  cycles and only unprobed ones are predicted.  The probe set is a pure
  function of the run's own step sequence, so surrogate results stay a
  deterministic function of ``(config, trace, schedule, platform)`` —
  nothing leaks between runs, replicas or sweep points.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Optional, Tuple

from ..core.errors import ConfigError
from .models import CostModel, check_context, fit_from_probes

#: the scheduler's step-cost contract: (num_tokens, kv_lengths, signatures)
StepCostFn = Callable[[int, Tuple[int, ...], Dict[Tuple, float]], float]


class AdaptiveSurrogate:
    """Probe the first ``budget`` distinct signatures exactly, then predict.

    The probe phase delegates to the scheduler's exact path (sharing the
    process-wide memo); once ``budget`` distinct signatures have been
    probed the surrogate fits itself (:func:`~repro.costmodel.models.
    fit_from_probes` — falling back to a table when the run never produced
    enough distinct signatures for the affine fit, e.g. single-signature
    workloads, which therefore stay *exact*).  Probed signatures keep
    replaying their exact cycles after the fit.
    """

    def __init__(self, config, schedule, hardware, context, *,
                 kind: str, budget: int) -> None:
        self._config = config
        self._schedule = schedule
        self._hardware = hardware
        self._context = context
        self._kind = kind
        self._budget = budget
        self._probes: Dict[Tuple[int, Tuple[int, ...]], float] = {}
        self._model: Optional[CostModel] = None

    @property
    def fitted(self) -> Optional[CostModel]:
        """The fitted artifact, or ``None`` while still probing."""
        return self._model

    def _fit(self) -> None:
        probes = [(t, k, c) for (t, k), c in sorted(self._probes.items())]
        self._model = fit_from_probes(probes, kind=self._kind,
                                      context_hash=self._context.digest,
                                      kv_tile_rows=self._config.kv_tile_rows)

    def cycles(self, num_tokens: int, kv_lengths: Tuple[int, ...],
               signatures: Dict[Tuple, float]) -> float:
        from ..serve import scheduler

        signature = (num_tokens, kv_lengths)
        if self._model is None:
            cycles = scheduler._step_cycles(
                self._config, self._schedule, self._hardware, self._context,
                num_tokens, kv_lengths, signatures)
            if signature not in self._probes:
                self._probes[signature] = cycles
                if len(self._probes) >= self._budget:
                    self._fit()
            return cycles
        cached = self._probes.get(signature)
        if cached is None:
            cached = self._model.predict(num_tokens, kv_lengths)
        signatures[signature] = cached
        return cached


def bind_cost_model(config, schedule, hardware, context) -> StepCostFn:
    """The step-cost callable of one replica run.

    ``context`` is the run's :class:`~repro.serve.scheduler.StepContext`.
    """
    from ..serve.scheduler import _step_cycles

    model = config.cost_model
    if isinstance(model, str):
        if model == "exact":
            return functools.partial(_step_cycles, config, schedule, hardware,
                                     context)
        return AdaptiveSurrogate(config, schedule, hardware, context,
                                 kind=model,
                                 budget=config.calibration_budget).cycles
    if not isinstance(model, CostModel):
        raise ConfigError(f"cost_model must resolve to a registered name or "
                          f"a CostModel, got {type(model).__name__!r}")
    check_context(model, context.digest)

    def predicted_cycles(num_tokens: int, kv_lengths: Tuple[int, ...],
                         signatures: Dict[Tuple, float]) -> float:
        cycles = model.predict(num_tokens, kv_lengths)
        signatures[(num_tokens, kv_lengths)] = cycles
        return cycles

    return predicted_cycles
