"""Two-tier serving engine: calibrated cost-model surrogates.

The exact event engine costs every serving step by simulating it
(~0.8–1.6M simulated cycles/sec — fine for figures, the wall-clock
bottleneck of fleet-scale sweeps).  This package adds the fast tier: cost
models that predict a step's cycles from its signature, behind the shared
serve registry (kind ``"costmodel"``), selected by
``ServeConfig(cost_model=...)``: ``"exact"`` (the default) is the event
engine, ``"calibrated"`` / ``"table"`` calibrate a surrogate per run, and a
fitted artifact predicts every step.

* :mod:`repro.costmodel.models` — the artifacts: ``exact`` (delegates to
  the event engine), ``table`` (interpolated signature lookup),
  ``calibrated`` (least-squares affine fit with residual metadata), all
  JSON round-trippable with guarded extrapolation,
* :mod:`repro.costmodel.calibrate` — the offline harness: sample the
  signature space, probe the exact engine, fit, validate residuals
  (``python -m repro.costmodel calibrate``),
* :mod:`repro.costmodel.runtime` — the engine binding, including per-run
  adaptive calibration (probe the first ``calibration_budget`` distinct
  signatures exactly, then predict).

Scheduling (admission, batching, memory, preemption) is untouched by the
surrogate — only the per-step latency source changes, which is what makes
the error-bound test (:data:`~repro.costmodel.models.SURROGATE_TOLERANCE`)
meaningful.
"""

from .calibrate import (DEFAULT_PROBE_BUDGET, calibrate_model,
                        probe_signatures, run_probes)
from .models import (COST_MODELS, FEATURE_NAMES, SURROGATE_TOLERANCE,
                     CalibratedCostModel, CostModel,
                     CostModelExtrapolationWarning, ExactCostModel,
                     TableCostModel, check_context, cost_model_from_dict,
                     cost_model_names, fit_calibrated_model, fit_from_probes,
                     get_cost_model_class, load_cost_model,
                     register_cost_model, resolve_cost_model,
                     save_cost_model, signature_features)
from .runtime import AdaptiveSurrogate, bind_cost_model

__all__ = [
    "AdaptiveSurrogate",
    "COST_MODELS",
    "CalibratedCostModel",
    "CostModel",
    "CostModelExtrapolationWarning",
    "DEFAULT_PROBE_BUDGET",
    "ExactCostModel",
    "FEATURE_NAMES",
    "SURROGATE_TOLERANCE",
    "TableCostModel",
    "bind_cost_model",
    "calibrate_model",
    "check_context",
    "cost_model_from_dict",
    "cost_model_names",
    "fit_calibrated_model",
    "fit_from_probes",
    "get_cost_model_class",
    "load_cost_model",
    "probe_signatures",
    "register_cost_model",
    "resolve_cost_model",
    "run_probes",
    "save_cost_model",
    "signature_features",
]
