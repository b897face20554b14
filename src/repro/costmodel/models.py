"""Cost-model artifacts behind a registry: exact, table and calibrated.

A *cost model* answers one question — how many cycles does a serving step
with a given **step signature** (token-batch size plus the multiset of
``kv_tile_rows``-quantized per-request KV lengths) take — without running
the dataflow event engine.  Three builtin kinds, behind the shared registry
index of :mod:`repro.serve.registry` (kind ``"costmodel"``):

* ``"exact"`` — delegates every signature to the event engine through the
  process-wide step memo; the default ``cost_model`` and the anchor every
  surrogate is validated against,
* ``"table"`` — interpolated lookup over probed step signatures: exact
  matches replay the probed cycles, unseen signatures interpolate over the
  nearest probes in feature space,
* ``"calibrated"`` — an affine model over the signature features
  ``(1, tokens, requests, kv_rows)`` fit by least squares from a budgeted
  set of exact-engine probes per platform × schedule, serializable to/from
  JSON with its fit metadata (probe count, coefficients, residuals).

**Documented error bound.** A step's exact cost is the sum of the QKV, MoE
(both driven by the token count) and attention (driven by the quantized KV
multiset) sub-simulations — close to affine in the signature features, but
with tiling steps and routing noise the fit cannot express.  The residual
metadata on every fitted model records the observed probe error;
:data:`SURROGATE_TOLERANCE` is the bound the tier-1 error-bound test pins
surrogate TTFT/TPOT/e2e percentiles to, across platforms and policies
(``tests/costmodel/test_surrogate_engine.py``).

**Extrapolation is never silent** (the probed ranges are part of every
artifact): a signature outside the probed feature ranges either raises a
:class:`~repro.core.errors.ConfigError` (``extrapolation="raise"``) or is
clamped to the probed range with a :class:`CostModelExtrapolationWarning`
(``extrapolation="clamp"``, the default).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigError
from ..serve.registry import attach_registry, resolve_registered, seal_builtins

#: relative tolerance on serving percentiles (TTFT/TPOT/e2e) that the
#: surrogate engine is pinned to reproduce the exact engine within, across
#: platforms and scheduling policies.  Adaptive calibration keeps probed
#: signatures exact and only predicts unprobed ones, so observed errors are
#: far smaller in practice; this is the documented, tier-1-enforced bound.
SURROGATE_TOLERANCE = 0.20

#: the affine feature basis of a step signature ``(num_tokens, kv_lengths)``
FEATURE_NAMES: Tuple[str, ...] = ("intercept", "tokens", "requests", "kv_rows")

EXTRAPOLATION_MODES: Tuple[str, ...] = ("clamp", "raise")

#: one exact-engine probe: (num_tokens, quantized kv_lengths, cycles)
Probe = Tuple[int, Tuple[int, ...], float]


class CostModelExtrapolationWarning(UserWarning):
    """A signature fell outside the probed range and was clamped to it."""


def signature_features(num_tokens: int,
                       kv_lengths: Sequence[int]) -> Tuple[float, ...]:
    """The affine feature vector of one step signature.

    ``tokens`` drives the QKV/MoE cost, ``requests`` the attention batch
    width and ``kv_rows`` (the summed quantized KV lengths) the attention
    context volume — the three axes the step-cost composition is nearly
    linear in.
    """
    return (1.0, float(num_tokens), float(len(kv_lengths)),
            float(sum(kv_lengths)))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: kind name -> cost-model class (the shared serve registry index, so the
#: "unknown costmodel" error path lists names exactly like every policy kind)
COST_MODELS: Dict[str, type] = attach_registry("costmodel", {})


def register_cost_model(name: str):
    """Decorator registering a cost-model class under ``name``."""

    def wrap(cls):
        if name in COST_MODELS:
            raise ConfigError(f"cost model {name!r} is already registered")
        cls.kind = name
        COST_MODELS[name] = cls
        return cls

    return wrap


def get_cost_model_class(name: str) -> type:
    """The registered cost-model class, or a listing :class:`ConfigError`."""
    return resolve_registered("costmodel", name)


def cost_model_names() -> List[str]:
    """The registered cost-model names, sorted."""
    return sorted(COST_MODELS)


# ---------------------------------------------------------------------------
# Base + shared range guard
# ---------------------------------------------------------------------------

class CostModel:
    """Predicts one step's cycles from its signature.

    Fitted artifacts carry the ``context_hash`` of the (model, schedule,
    platform, seed) they were calibrated for — :func:`check_context` refuses
    to apply a model to a different context — plus the probed feature ranges
    that gate extrapolation.
    """

    kind: ClassVar[str] = ""

    def predict(self, num_tokens: int, kv_lengths: Sequence[int]) -> float:
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CostModel":
        raise NotImplementedError


def check_context(model: CostModel, context: str) -> None:
    """Refuse to apply a fitted model to a context it was not calibrated for."""
    calibrated_for = getattr(model, "context_hash", "")
    if calibrated_for and calibrated_for != context:
        raise ConfigError(
            f"cost model ({model.kind!r}) was calibrated for context "
            f"{calibrated_for!r} but this run's context is {context!r} "
            f"(model/schedule/platform/seed changed; recalibrate, or use "
            f"cost_model=None for per-run adaptive calibration)")


def _validate_extrapolation(mode: str) -> None:
    if mode not in EXTRAPOLATION_MODES:
        raise ConfigError(f"unknown extrapolation mode {mode!r}; "
                          f"expected one of {list(EXTRAPOLATION_MODES)}")


def _guard_features(features: Tuple[float, ...], lo: Tuple[float, ...],
                    hi: Tuple[float, ...], mode: str,
                    kind: str) -> Tuple[float, ...]:
    """Clamp-with-warning or raise when ``features`` leave the probed range."""
    if all(l <= f <= h for f, l, h in zip(features, lo, hi)):
        return features
    if mode == "raise":
        raise ConfigError(
            f"{kind} cost model: signature features {features} fall outside "
            f"the probed ranges (min {lo}, max {hi}) and "
            f"extrapolation='raise' forbids extrapolating; recalibrate with "
            f"a wider probe grid or use extrapolation='clamp'")
    warnings.warn(
        f"{kind} cost model: signature features {features} fall outside the "
        f"probed ranges (min {lo}, max {hi}); clamping to the probed range",
        CostModelExtrapolationWarning, stacklevel=3)
    return tuple(min(max(f, l), h) for f, l, h in zip(features, lo, hi))


def _probe_tuples(probes: Sequence[Sequence[Any]]) -> Tuple[Probe, ...]:
    """Normalize probes to hashable ``(tokens, kv_lengths, cycles)`` tuples."""
    normalized: List[Probe] = []
    for probe in probes:
        num_tokens, kv_lengths, cycles = probe
        normalized.append((int(num_tokens), tuple(int(k) for k in kv_lengths),
                           float(cycles)))
    return tuple(normalized)


# ---------------------------------------------------------------------------
# Exact: the event engine itself
# ---------------------------------------------------------------------------

@register_cost_model("exact")
@dataclass(frozen=True)
class ExactCostModel(CostModel):
    """Delegates every signature to the event engine (via the step memo).

    The engine binds this kind straight to the memoized exact step-cost
    path: ``cost_model="exact"`` (the default) is the event engine, the
    equivalence anchor.  It has no standalone :meth:`predict`: a signature's
    exact cost *is* the simulation, so :func:`resolve_cost_model` turns an
    instance or a ``{"kind": "exact"}`` payload back into the name.
    """

    def predict(self, num_tokens: int, kv_lengths: Sequence[int]) -> float:
        raise ConfigError("the exact cost model delegates to the event "
                          "engine; it has no standalone predict() — bind it "
                          "through ServeConfig(cost_model='exact')")

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "exact"}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExactCostModel":
        return cls()


# ---------------------------------------------------------------------------
# Table: interpolated lookup over probed signatures
# ---------------------------------------------------------------------------

@register_cost_model("table")
@dataclass(frozen=True)
class TableCostModel(CostModel):
    """Interpolated lookup over exact-engine probes.

    A probed signature replays its exact cycles; an unseen one interpolates
    by inverse-squared-distance over its nearest probes in the normalized
    feature space (deterministic: ties break on probe order).  Signatures
    outside the probed feature ranges follow ``extrapolation``.
    """

    probes: Tuple[Probe, ...]
    context_hash: str = ""
    kv_tile_rows: int = 64
    extrapolation: str = "clamp"
    #: probes consulted per interpolated prediction
    neighbors: int = 4

    def __post_init__(self) -> None:
        if not self.probes:
            raise ConfigError("TableCostModel needs at least one probe "
                              "(the probe budget cannot be empty)")
        _validate_extrapolation(self.extrapolation)
        if self.neighbors < 1:
            raise ConfigError(f"neighbors must be >= 1, got {self.neighbors}")
        object.__setattr__(self, "probes", _probe_tuples(self.probes))
        lookup = {(t, k): c for t, k, c in self.probes}
        feats = np.array([signature_features(t, k) for t, k, _ in self.probes])
        lo = feats.min(axis=0)
        hi = feats.max(axis=0)
        scale = np.where(hi > lo, hi - lo, 1.0)
        # derived lookup caches; not dataclass fields, so equality and
        # canonicalization see only the probes themselves
        object.__setattr__(self, "_lookup", lookup)
        object.__setattr__(self, "_features", feats)
        object.__setattr__(self, "_cycles",
                           np.array([c for *_, c in self.probes]))
        object.__setattr__(self, "_lo", tuple(float(v) for v in lo))
        object.__setattr__(self, "_hi", tuple(float(v) for v in hi))
        object.__setattr__(self, "_scale", scale)

    def predict(self, num_tokens: int, kv_lengths: Sequence[int]) -> float:
        exact = self._lookup.get((num_tokens, tuple(kv_lengths)))
        if exact is not None:
            return exact
        features = _guard_features(signature_features(num_tokens, kv_lengths),
                                   self._lo, self._hi, self.extrapolation,
                                   self.kind)
        deltas = (self._features - np.array(features)) / self._scale
        distances = np.einsum("ij,ij->i", deltas, deltas)
        order = np.argsort(distances, kind="stable")[:self.neighbors]
        nearest = distances[order]
        if nearest[0] == 0.0:
            return float(self._cycles[order[0]])
        weights = 1.0 / nearest
        return float(np.dot(weights, self._cycles[order]) / weights.sum())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "table",
            "probes": [[t, list(k), c] for t, k, c in self.probes],
            "context_hash": self.context_hash,
            "kv_tile_rows": self.kv_tile_rows,
            "extrapolation": self.extrapolation,
            "neighbors": self.neighbors,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TableCostModel":
        return cls(probes=_probe_tuples(payload["probes"]),
                   context_hash=payload.get("context_hash", ""),
                   kv_tile_rows=int(payload.get("kv_tile_rows", 64)),
                   extrapolation=payload.get("extrapolation", "clamp"),
                   neighbors=int(payload.get("neighbors", 4)))


# ---------------------------------------------------------------------------
# Calibrated: least-squares affine fit with residual metadata
# ---------------------------------------------------------------------------

@register_cost_model("calibrated")
@dataclass(frozen=True)
class CalibratedCostModel(CostModel):
    """An affine step-cost model fit from exact-engine probes.

    ``cycles ≈ coefficients · (1, tokens, requests, kv_rows)``, clamped
    below at one cycle.  The fit metadata — probe count, coefficients and
    the relative residuals observed on the probe set — travels with the
    artifact so a loaded model's error bound is inspectable
    (:meth:`fit_metadata`).
    """

    coefficients: Tuple[float, ...]
    feature_min: Tuple[float, ...]
    feature_max: Tuple[float, ...]
    num_probes: int
    residual_mean_rel: float
    residual_max_rel: float
    cycles_min: float
    cycles_max: float
    context_hash: str = ""
    kv_tile_rows: int = 64
    extrapolation: str = "clamp"
    feature_names: Tuple[str, ...] = FEATURE_NAMES

    def __post_init__(self) -> None:
        _validate_extrapolation(self.extrapolation)
        for name in ("coefficients", "feature_min", "feature_max",
                     "feature_names"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not (len(self.coefficients) == len(self.feature_min)
                == len(self.feature_max) == len(self.feature_names)):
            raise ConfigError("calibrated cost model: coefficients, feature "
                              "ranges and feature names must align")
        if self.num_probes < 1:
            raise ConfigError("calibrated cost model: num_probes must be "
                              ">= 1 (the probe budget cannot be empty)")

    def predict(self, num_tokens: int, kv_lengths: Sequence[int]) -> float:
        features = _guard_features(signature_features(num_tokens, kv_lengths),
                                   self.feature_min, self.feature_max,
                                   self.extrapolation, self.kind)
        cycles = sum(c * f for c, f in zip(self.coefficients, features))
        # a step always costs at least one cycle; an affine fit could dip
        # below on tiny signatures far from the probe mass
        return float(max(cycles, 1.0))

    def fit_metadata(self) -> Dict[str, Any]:
        """The fit provenance: probe count, coefficients and residuals."""
        return {
            "num_probes": self.num_probes,
            "feature_names": list(self.feature_names),
            "coefficients": list(self.coefficients),
            "residual_mean_rel": self.residual_mean_rel,
            "residual_max_rel": self.residual_max_rel,
            "cycles_range": [self.cycles_min, self.cycles_max],
            "context_hash": self.context_hash,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "calibrated",
            "coefficients": list(self.coefficients),
            "feature_names": list(self.feature_names),
            "feature_min": list(self.feature_min),
            "feature_max": list(self.feature_max),
            "num_probes": self.num_probes,
            "residual_mean_rel": self.residual_mean_rel,
            "residual_max_rel": self.residual_max_rel,
            "cycles_min": self.cycles_min,
            "cycles_max": self.cycles_max,
            "context_hash": self.context_hash,
            "kv_tile_rows": self.kv_tile_rows,
            "extrapolation": self.extrapolation,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CalibratedCostModel":
        return cls(
            coefficients=tuple(payload["coefficients"]),
            feature_names=tuple(payload.get("feature_names", FEATURE_NAMES)),
            feature_min=tuple(payload["feature_min"]),
            feature_max=tuple(payload["feature_max"]),
            num_probes=int(payload["num_probes"]),
            residual_mean_rel=float(payload["residual_mean_rel"]),
            residual_max_rel=float(payload["residual_max_rel"]),
            cycles_min=float(payload["cycles_min"]),
            cycles_max=float(payload["cycles_max"]),
            context_hash=payload.get("context_hash", ""),
            kv_tile_rows=int(payload.get("kv_tile_rows", 64)),
            extrapolation=payload.get("extrapolation", "clamp"))


seal_builtins("costmodel")


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def fit_calibrated_model(probes: Sequence[Sequence[Any]], *,
                         context_hash: str = "", kv_tile_rows: int = 64,
                         extrapolation: str = "clamp") -> CalibratedCostModel:
    """Least-squares fit of a :class:`CalibratedCostModel` from probes.

    Needs at least ``len(FEATURE_NAMES)`` probes — an underdetermined fit
    would extrapolate silently, exactly what the subsystem forbids.  The
    returned model records the relative residuals observed on ``probes``.
    """
    normalized = _probe_tuples(probes)
    if not normalized:
        raise ConfigError("cannot fit a calibrated cost model from zero "
                          "probes (the probe budget is empty)")
    if len(normalized) < len(FEATURE_NAMES):
        raise ConfigError(
            f"cannot fit a calibrated cost model from {len(normalized)} "
            f"probe(s): at least {len(FEATURE_NAMES)} are needed to "
            f"determine {FEATURE_NAMES}; use a table cost model (or a "
            f"larger probe budget) instead")
    design = np.array([signature_features(t, k) for t, k, _ in normalized])
    cycles = np.array([c for *_, c in normalized])
    coefficients, *_ = np.linalg.lstsq(design, cycles, rcond=None)
    predicted = np.maximum(design @ coefficients, 1.0)
    relative = np.abs(predicted - cycles) / np.maximum(cycles, 1.0)
    return CalibratedCostModel(
        coefficients=tuple(float(c) for c in coefficients),
        feature_min=tuple(float(v) for v in design.min(axis=0)),
        feature_max=tuple(float(v) for v in design.max(axis=0)),
        num_probes=len(normalized),
        residual_mean_rel=float(relative.mean()),
        residual_max_rel=float(relative.max()),
        cycles_min=float(cycles.min()),
        cycles_max=float(cycles.max()),
        context_hash=context_hash,
        kv_tile_rows=kv_tile_rows,
        extrapolation=extrapolation)


def fit_from_probes(probes: Sequence[Sequence[Any]], *,
                    kind: str = "calibrated", context_hash: str = "",
                    kv_tile_rows: int = 64,
                    extrapolation: str = "clamp") -> CostModel:
    """Fit the requested surrogate kind, degrading gracefully.

    ``"calibrated"`` falls back to a table model when the probe set is too
    small to determine the affine fit (single-signature workloads stay
    exact either way — a table replays its probes verbatim).
    """
    if kind not in ("table", "calibrated"):
        raise ConfigError(f"cannot fit cost model kind {kind!r}; "
                          f"fit-able kinds: ['calibrated', 'table']")
    normalized = _probe_tuples(probes)
    if not normalized:
        raise ConfigError("cannot fit a cost model from zero probes "
                          "(the probe budget is empty)")
    if kind == "table" or len(normalized) < len(FEATURE_NAMES):
        return TableCostModel(probes=normalized, context_hash=context_hash,
                              kv_tile_rows=kv_tile_rows,
                              extrapolation=extrapolation)
    return fit_calibrated_model(normalized, context_hash=context_hash,
                                kv_tile_rows=kv_tile_rows,
                                extrapolation=extrapolation)


# ---------------------------------------------------------------------------
# Resolution + (de)serialization
# ---------------------------------------------------------------------------

def resolve_cost_model(value: Any) -> Any:
    """Normalize a ``cost_model=`` knob to a registered name or an artifact.

    A string must be a registered kind (``"exact"`` is the event engine,
    ``"calibrated"`` / ``"table"`` per-run adaptive calibration); a mapping
    is a serialized artifact; a :class:`CostModel` instance passes through,
    except the exact model, which resolves to ``"exact"``.  Anything else is
    a :class:`ConfigError` — notably file *paths* are rejected here (load
    them with :func:`load_cost_model` first) so sweep cache keys always hash
    the model's content, never a mutable path.
    """
    if isinstance(value, str):
        resolve_registered("costmodel", value)
        return value
    if isinstance(value, Mapping):
        value = cost_model_from_dict(value)
    if isinstance(value, ExactCostModel):
        return "exact"
    if isinstance(value, CostModel):
        return value
    raise ConfigError(
        f"cost_model must be a registered name ({cost_model_names()}), a "
        f"CostModel, or a to_dict() payload; got {type(value).__name__!r}")


def cost_model_from_dict(payload: Mapping[str, Any]) -> CostModel:
    """Reconstruct a cost model from its ``to_dict`` payload."""
    kind = payload.get("kind")
    if not isinstance(kind, str):
        raise ConfigError("cost-model payload needs a 'kind' key naming a "
                          f"registered cost model ({cost_model_names()})")
    cls = resolve_registered("costmodel", kind)
    return cls.from_dict(payload)


def save_cost_model(model: CostModel, path: str) -> None:
    """Write ``model`` as JSON (the ``calibrate`` CLI's output format)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_cost_model(path: str) -> CostModel:
    """Load a cost model saved by :func:`save_cost_model`."""
    with open(path, "r", encoding="utf-8") as handle:
        return cost_model_from_dict(json.load(handle))
