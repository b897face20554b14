"""Serving statistics: one mergeable accumulator with exact and sketch backends.

Every serving aggregate — request/token/step counts, TTFT / TPOT / e2e
summaries, per-priority breakdowns, SLO attainment, busy cycles and the
queue-depth timeline — is computed here, by :class:`StreamingStats`, whatever
the report mode.  Its latency samples come from one of two backends behind
the same small protocol (``observe``, ``merge``, ``count``, ``count_le``,
``summarize``):

* :class:`ExactSample` — a list-backed sample whose summaries are the exact
  nearest-rank :func:`summarize`.  A ``"full"``-mode
  :class:`~repro.serve.report.ServingReport` folds its request records and
  step samples into exact samples once (:meth:`StreamingStats.of_records`),
* :class:`QuantileSketch` — an online nearest-rank percentile estimator over
  log-spaced buckets (the DDSketch discipline): a value ``v`` lands in bucket
  ``ceil(log_gamma(v))`` with ``gamma = (1 + a) / (1 - a)``, so every bucket
  spans a fixed *relative* width and the bucket midpoint is within relative
  error ``a`` (``rel_accuracy``) of any value it holds.  Bucket **counts are
  exact**, therefore the sketch's ``quantile(q)`` answer is guaranteed within
  relative error ``a`` of the exact nearest-rank percentile of the observed
  sample (pinned by ``tests/serve/test_streaming.py`` under constant, bimodal
  and heavy-tailed adversarial inputs).  Deterministic (no randomization,
  no compaction), mergeable (fleet aggregation sums bucket counts) and
  serializable.  The ``"streaming"`` report mode feeds sketches as the run
  goes and keeps no records at all.

The timeline is a :class:`WindowedTimeline` in both modes: fixed cycle-width
windows aggregating steps, step cycles, tokens, prefills, queued/running sums
and maxima, KV-page peaks and preemptions.  Integer sums are exact, so
``queue_depth()`` is bit-identical across the two modes over the same steps.
A streaming run's report memory is O(windows + sketch buckets), independent of
the request count.

Everything here is duck-typed against the record/step objects (attribute
access only) so the module imports nothing from :mod:`repro.serve.report` —
``report`` imports *us*.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

from ..core.errors import ConfigError
from ..core.summation import left_sum

#: the report modes a ServeConfig may request
REPORT_MODES = ("full", "streaming")

#: default relative accuracy of the latency sketches (1% of the exact value)
DEFAULT_SKETCH_ACCURACY = 0.01

#: default streaming-timeline window width in cycles
DEFAULT_WINDOW_CYCLES = 100_000.0

#: the percentile points every latency summary reports
PERCENTILE_POINTS = (50, 90, 95, 99)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q/100 * n)``-th smallest sample.

    Deterministic, interpolation-free and always an observed value; ``q=0``
    returns the minimum, ``q=100`` the maximum.  Raises on an empty sample.
    """
    if not values:
        raise ConfigError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ConfigError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def _empty_summary() -> Dict[str, float]:
    return {"mean": 0.0, "max": 0.0, **{f"p{q}": 0.0 for q in PERCENTILE_POINTS},
            "count": 0.0}


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean / max / nearest-rank percentiles of a latency sample.

    The sample is sorted **once** and every percentile point indexes into the
    sorted copy.  ``count`` distinguishes an empty sample from genuinely zero
    latencies: a replica that completed nothing reports ``count`` 0 with
    zeroed statistics, not a perfect p99 of 0.0.
    """
    if not values:
        return _empty_summary()
    ordered = sorted(values)
    n = len(ordered)
    # the mean accumulates in observation order (not sorted order): float
    # addition is order-sensitive and the pre-fix values are pinned
    summary = {"mean": float(left_sum(values) / n), "max": float(ordered[-1])}
    for q in PERCENTILE_POINTS:
        rank = max(1, math.ceil(q / 100.0 * n))
        summary[f"p{q}"] = float(ordered[rank - 1])
    summary["count"] = float(n)
    return summary


def _check_threshold(threshold: float) -> None:
    if math.isnan(threshold):
        raise ConfigError("an SLO threshold must be a number, got NaN")


class ExactSample:
    """A list-backed latency sample with exact nearest-rank summaries.

    The ``"full"``-mode backend.  It keeps every ``(order, value)`` pair:
    :meth:`summarize` sums in observation order, and :meth:`merge` interleaves
    two samples by ``order`` (the request id) with a stable merge.  A fleet's
    merged sample therefore sums in request-id order, exactly like the
    id-sorted request records it was built from — concatenating replica
    samples instead would change the fleet means in the last bits.
    """

    def __init__(self) -> None:
        self._pairs: List[Tuple[int, float]] = []

    @property
    def count(self) -> int:
        return len(self._pairs)

    def observe(self, value: float, order: int = 0) -> None:
        self._pairs.append((order, value))

    def merge(self, other: "ExactSample") -> None:
        # a stable sort keeps this sample's pairs first among equal orders
        self._pairs = sorted(self._pairs + other._pairs, key=itemgetter(0))

    def count_le(self, threshold: float) -> int:
        """Observations at or below ``threshold`` (``inf`` counts them all)."""
        _check_threshold(threshold)
        return sum(1 for _, value in self._pairs if value <= threshold)

    def summarize(self) -> Dict[str, float]:
        return summarize([value for _, value in self._pairs])


class QuantileSketch:
    """An online nearest-rank percentile sketch with bounded relative error.

    Observations must be non-negative (latencies).  Zero values keep their own
    exact counter; positive values land in log-spaced buckets of relative
    width ``rel_accuracy``.  ``count`` / ``min`` / ``max`` / ``sum`` are exact,
    so ``mean`` and the summary extremes carry no sketch error at all — only
    the interior percentiles are approximate, within ``rel_accuracy``.
    """

    def __init__(self, rel_accuracy: float = DEFAULT_SKETCH_ACCURACY) -> None:
        if not 0.0 < rel_accuracy < 1.0:
            raise ConfigError(f"sketch rel_accuracy must be in (0, 1), "
                              f"got {rel_accuracy}")
        self.rel_accuracy = float(rel_accuracy)
        self._gamma = (1.0 + self.rel_accuracy) / (1.0 - self.rel_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._buckets: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self.sum = 0.0

    def _bucket_index(self, value: float) -> int:
        return int(math.ceil(math.log(value) / self._log_gamma))

    def _bucket_value(self, index: int) -> float:
        # the midpoint of (gamma^(i-1), gamma^i] in relative terms: within
        # rel_accuracy of every value the bucket holds
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def observe(self, value: float, order: int = 0) -> None:
        """Fold one observation into the sketch (``order`` is not kept)."""
        value = float(value)
        if value < 0.0:
            raise ConfigError(f"QuantileSketch observes latencies (>= 0), "
                              f"got {value}")
        if value == 0.0:
            self.zero_count += 1
        else:
            index = self._bucket_index(value)
            self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.sum += value

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.sum / self.count

    def quantile(self, q: float) -> float:
        """Nearest-rank percentile estimate, within ``rel_accuracy`` relative
        error of the exact nearest-rank value over the observed sample."""
        if self.count == 0:
            raise ConfigError("quantile of an empty sketch")
        if not 0 <= q <= 100:
            raise ConfigError(f"quantile q must be in [0, 100], got {q}")
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = self.zero_count
        if rank <= seen:
            return 0.0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank <= seen:
                # clamping to the exact extremes keeps the estimate inside
                # the observed range without breaking the error bound
                return min(max(self._bucket_value(index), self.min), self.max)
        return self.max  # unreachable unless float drift; max is exact

    def count_le(self, threshold: float) -> int:
        """Observations at or below ``threshold`` (e.g. an SLO budget).

        Exact except for values within ``rel_accuracy`` of the threshold
        itself: the bucket containing the threshold is counted whole, so the
        answer may include values up to ``threshold * (1 + rel_accuracy)``.
        ``inf`` counts every observation; NaN is a :class:`ConfigError`.
        """
        _check_threshold(threshold)
        if threshold < 0.0:
            return 0
        if threshold == math.inf:
            return self.count
        total = self.zero_count
        if threshold == 0.0:
            return total
        limit = self._bucket_index(threshold)
        for index, count in self._buckets.items():
            if index <= limit:
                total += count
        return total

    def summarize(self) -> Dict[str, float]:
        """The same summary shape as :func:`summarize`."""
        if self.count == 0:
            return _empty_summary()
        return {"mean": float(self.mean), "max": float(self.max),
                **{f"p{q}": float(self.quantile(q))
                   for q in PERCENTILE_POINTS},
                "count": float(self.count)}

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` in (fleet aggregation).  Accuracies must match."""
        if other.rel_accuracy != self.rel_accuracy:
            raise ConfigError(
                f"cannot merge sketches with different accuracies "
                f"({self.rel_accuracy} vs {other.rel_accuracy})")
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self.zero_count += other.zero_count
        self.count += other.count
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.sum += other.sum

    @property
    def num_buckets(self) -> int:
        return len(self._buckets)

    def to_dict(self) -> Dict[str, Any]:
        return {"rel_accuracy": self.rel_accuracy,
                "count": self.count, "zero_count": self.zero_count,
                "min": None if self.count == 0 else self.min,
                "max": None if self.count == 0 else self.max,
                "sum": self.sum,
                "buckets": {str(i): c for i, c in sorted(self._buckets.items())}}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "QuantileSketch":
        sketch = cls(rel_accuracy=float(payload["rel_accuracy"]))
        sketch.count = int(payload["count"])
        sketch.zero_count = int(payload["zero_count"])
        sketch.min = math.inf if payload["min"] is None else float(payload["min"])
        sketch.max = -math.inf if payload["max"] is None else float(payload["max"])
        sketch.sum = float(payload["sum"])
        sketch._buckets = {int(i): int(c)
                           for i, c in payload["buckets"].items()}
        return sketch


class _Window:
    """One fixed-width timeline window's aggregates (all counters exact)."""

    __slots__ = ("steps", "cycles", "tokens", "prefills", "queued_sum",
                 "queued_max", "running_sum", "running_max", "kv_rows_sum",
                 "kv_rows_max", "kv_pages_sum", "kv_pages_max",
                 "kv_capacity_pages", "preemptions")

    def __init__(self) -> None:
        self.steps = 0
        self.cycles = 0.0
        self.tokens = 0
        self.prefills = 0
        self.queued_sum = 0
        self.queued_max = 0
        self.running_sum = 0
        self.running_max = 0
        self.kv_rows_sum = 0
        self.kv_rows_max = 0
        self.kv_pages_sum = 0
        self.kv_pages_max = 0
        #: pool size seen by the window's steps (0 = unbounded platform)
        self.kv_capacity_pages = 0
        self.preemptions = 0

    def observe(self, sample) -> None:
        self.steps += 1
        self.cycles += sample.cycles
        self.tokens += sample.tokens
        self.prefills += sample.prefills
        self.queued_sum += sample.queued
        self.queued_max = max(self.queued_max, sample.queued)
        self.running_sum += sample.running
        self.running_max = max(self.running_max, sample.running)
        self.kv_rows_sum += sample.kv_rows
        self.kv_rows_max = max(self.kv_rows_max, sample.kv_rows)
        self.kv_pages_sum += sample.kv_pages
        self.kv_pages_max = max(self.kv_pages_max, sample.kv_pages)
        self.kv_capacity_pages = max(self.kv_capacity_pages,
                                     sample.kv_capacity_pages)
        self.preemptions += sample.preemptions

    def merge(self, other: "_Window") -> None:
        self.steps += other.steps
        self.cycles += other.cycles
        self.tokens += other.tokens
        self.prefills += other.prefills
        self.queued_sum += other.queued_sum
        self.queued_max = max(self.queued_max, other.queued_max)
        self.running_sum += other.running_sum
        self.running_max = max(self.running_max, other.running_max)
        self.kv_rows_sum += other.kv_rows_sum
        self.kv_rows_max = max(self.kv_rows_max, other.kv_rows_max)
        self.kv_pages_sum += other.kv_pages_sum
        self.kv_pages_max = max(self.kv_pages_max, other.kv_pages_max)
        self.kv_capacity_pages = max(self.kv_capacity_pages,
                                     other.kv_capacity_pages)
        self.preemptions += other.preemptions

    def to_dict(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "_Window":
        window = cls()
        for slot in cls.__slots__:
            # .get keeps payloads serialized before a slot existed loading
            # (the utilization-heatmap slots arrived after the format shipped)
            setattr(window, slot, payload.get(slot, 0))
        window.cycles = float(window.cycles)
        return window


class WindowedTimeline:
    """The queue-depth timeline in fixed cycle-width windows.

    A step whose start cycle is ``t`` lands in window ``floor(t /
    window_cycles)``.  Memory is O(occupied windows) — for a run of makespan
    ``T`` that is at most ``T / window_cycles`` entries, however many steps
    (or requests) the run processed.
    """

    def __init__(self, window_cycles: float = DEFAULT_WINDOW_CYCLES) -> None:
        if window_cycles <= 0:
            raise ConfigError(f"window_cycles must be > 0, got {window_cycles}")
        self.window_cycles = float(window_cycles)
        self._windows: Dict[int, _Window] = {}

    def observe(self, sample) -> None:
        index = int(sample.start // self.window_cycles)
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = _Window()
        window.observe(sample)

    @property
    def num_windows(self) -> int:
        return len(self._windows)

    @property
    def num_steps(self) -> int:
        return sum(w.steps for w in self._windows.values())

    def windows(self) -> Iterator[Tuple[int, _Window]]:
        """The occupied windows in time order."""
        for index in sorted(self._windows):
            yield index, self._windows[index]

    def rows(self) -> List[Dict[str, Any]]:
        """The timeline as flat JSON-able rows (one per occupied window)."""
        return [{"window": index,
                 "start": index * self.window_cycles,
                 **window.to_dict()}
                for index, window in self.windows()]

    def queue_depth(self) -> Dict[str, float]:
        """Mean / max queued and running over every step, windows collapsed.

        The sums are integer-exact, so these equal the full-mode
        :meth:`~repro.serve.report.ServingReport.queue_depth` values over the
        same steps bit-for-bit.
        """
        steps = self.num_steps
        if steps == 0:
            return {"queued_mean": 0.0, "queued_max": 0.0,
                    "running_mean": 0.0, "running_max": 0.0}
        windows = self._windows.values()
        return {
            "queued_mean": float(sum(w.queued_sum for w in windows) / steps),
            "queued_max": float(max(w.queued_max for w in windows)),
            "running_mean": float(sum(w.running_sum for w in windows) / steps),
            "running_max": float(max(w.running_max for w in windows)),
        }

    def utilization_heatmap(self, batch_cap: int) -> List[Dict[str, float]]:
        """Per-window utilization aggregates: batch fill and KV occupancy.

        One row per occupied window, time-ordered — the columns of a
        utilization heatmap over the run:

        * ``batch_fill_mean`` / ``batch_fill_max`` — running requests as a
          fraction of ``batch_cap`` (1.0 = the continuous batch is full),
        * ``kv_occupancy_mean`` / ``kv_occupancy_max`` — KV pages in use as
          a fraction of the pool (0.0 throughout on unbounded platforms,
          where no pool exists),
        * ``kv_rows_mean`` — mean resident KV rows per step (meaningful on
          unbounded platforms too),
        * ``steps``, ``tokens``, ``preemptions`` — the window's raw volume.

        The means divide integer-exact sums, so full-mode and streaming
        reports of the same run produce identical heatmaps.
        """
        if batch_cap < 1:
            raise ConfigError(f"batch_cap must be >= 1, got {batch_cap}")
        rows: List[Dict[str, float]] = []
        for index, window in self.windows():
            steps = window.steps
            capacity = window.kv_capacity_pages
            rows.append({
                "window": float(index),
                "start": float(index * self.window_cycles),
                "steps": float(steps),
                "tokens": float(window.tokens),
                "batch_fill_mean": window.running_sum / (steps * batch_cap),
                "batch_fill_max": window.running_max / batch_cap,
                "kv_occupancy_mean": (window.kv_pages_sum / (steps * capacity)
                                      if capacity else 0.0),
                "kv_occupancy_max": (window.kv_pages_max / capacity
                                     if capacity else 0.0),
                "kv_rows_mean": window.kv_rows_sum / steps,
                "preemptions": float(window.preemptions),
            })
        return rows

    def merge(self, other: "WindowedTimeline") -> None:
        if other.window_cycles != self.window_cycles:
            raise ConfigError(
                f"cannot merge timelines with different window widths "
                f"({self.window_cycles} vs {other.window_cycles})")
        for index, window in other._windows.items():
            mine = self._windows.get(index)
            if mine is None:
                mine = self._windows[index] = _Window()
            mine.merge(window)

    def to_dict(self) -> Dict[str, Any]:
        return {"window_cycles": self.window_cycles,
                "windows": {str(i): w.to_dict()
                            for i, w in sorted(self._windows.items())}}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "WindowedTimeline":
        timeline = cls(window_cycles=float(payload["window_cycles"]))
        timeline._windows = {int(i): _Window.from_dict(w)
                             for i, w in payload["windows"].items()}
        return timeline


class StreamingStats:
    """Every aggregate a serving report carries, over one sample backend.

    The engine feeds :meth:`observe_step` once per scheduler step and
    :meth:`observe_request` once per completion.  ``exact=False`` (the
    ``"streaming"`` report mode) folds latencies into :class:`QuantileSketch`
    backends as the run goes, in O(1) memory; ``exact=True`` keeps
    :class:`ExactSample` backends, which is what a ``"full"``-mode report
    builds from its records (:meth:`of_records`).
    :class:`~repro.serve.report.ServingReport` and
    :class:`~repro.serve.report.FleetReport` read every aggregate from here.
    """

    def __init__(self, rel_accuracy: float = DEFAULT_SKETCH_ACCURACY,
                 window_cycles: float = DEFAULT_WINDOW_CYCLES,
                 exact: bool = False) -> None:
        self.rel_accuracy = float(rel_accuracy)
        self.exact = exact
        self.ttft = self._sample()
        self.tpot = self._sample()
        self.e2e = self._sample()
        self.timeline = WindowedTimeline(window_cycles)
        #: priority class -> {"ttft": sample, "tpot": sample, "e2e": sample}
        self._classes: Dict[int, Dict[str, Any]] = {}
        self.num_requests = 0
        self.total_output_tokens = 0
        self.num_steps = 0
        self.busy_cycles = 0.0

    def _sample(self):
        return ExactSample() if self.exact else QuantileSketch(self.rel_accuracy)

    @classmethod
    def of_records(cls, requests: Iterable, steps: Sequence) -> "StreamingStats":
        """A full-mode run's records and steps folded into exact samples."""
        stats = cls(exact=True)
        for record in requests:
            stats.observe_request(record)
        for sample in steps:
            stats.observe_step(sample)
        return stats

    @classmethod
    def merged(cls, parts: Sequence["StreamingStats"]) -> "StreamingStats":
        """A fresh accumulator holding every one of ``parts``, in order (the
        fleet aggregation); no parts is an empty exact accumulator."""
        first = parts[0] if parts else cls(exact=True)
        total = cls(first.rel_accuracy, first.timeline.window_cycles,
                    exact=first.exact)
        for part in parts:
            total.merge(part)
        return total

    def _class_samples(self, priority: int) -> Dict[str, Any]:
        trio = self._classes.get(priority)
        if trio is None:
            trio = self._classes[priority] = {
                "ttft": self._sample(), "tpot": self._sample(),
                "e2e": self._sample()}
        return trio

    def observe_request(self, record) -> None:
        """Fold one completed request (anything with the record attributes)."""
        order = record.request_id
        self.num_requests += 1
        self.total_output_tokens += record.output_tokens
        trio = self._class_samples(record.priority)
        self.ttft.observe(record.ttft, order)
        trio["ttft"].observe(record.ttft, order)
        self.e2e.observe(record.e2e, order)
        trio["e2e"].observe(record.e2e, order)
        if record.output_tokens > 1:
            self.tpot.observe(record.tpot, order)
            trio["tpot"].observe(record.tpot, order)

    def observe_step(self, sample) -> None:
        """Fold one scheduler step (anything with the StepSample attributes)."""
        self.num_steps += 1
        self.busy_cycles += sample.cycles
        self.timeline.observe(sample)

    # -- the report-facing aggregates ------------------------------------------------
    def priority_classes(self) -> Tuple[int, ...]:
        return tuple(sorted(self._classes))

    def per_priority(self) -> Dict[int, Dict[str, Any]]:
        """Per-priority-class request counts and TTFT / TPOT / e2e summaries.

        The signal a priority or SLO-deadline policy is supposed to move:
        class 0 should hold its tail while lower classes absorb the queueing.
        """
        return {cls: {"requests": trio["ttft"].count,
                      "ttft": trio["ttft"].summarize(),
                      "tpot": trio["tpot"].summarize(),
                      "e2e": trio["e2e"].summarize()}
                for cls, trio in sorted(self._classes.items())}

    def slo_attainment(self, ttft_slo: float) -> float:
        """Fraction of requests whose TTFT met the SLO (sketch-resolution)."""
        met = self.ttft.count_le(ttft_slo)
        return met / self.num_requests if self.num_requests else 0.0

    def slo_attainment_by_priority(self, ttft_slo: float) -> Dict[int, float]:
        return {cls: trio["ttft"].count_le(ttft_slo) / trio["ttft"].count
                for cls, trio in sorted(self._classes.items())
                if trio["ttft"].count}

    def merge(self, other: "StreamingStats") -> None:
        """Fold another run's stats in (the fleet aggregation path)."""
        if other.exact != self.exact:
            raise ConfigError(
                "cannot merge exact (report_mode='full') and sketch "
                "(report_mode='streaming') serving stats")
        self.ttft.merge(other.ttft)
        self.tpot.merge(other.tpot)
        self.e2e.merge(other.e2e)
        self.timeline.merge(other.timeline)
        for cls, trio in other._classes.items():
            mine = self._class_samples(cls)
            for key in ("ttft", "tpot", "e2e"):
                mine[key].merge(trio[key])
        self.num_requests += other.num_requests
        self.total_output_tokens += other.total_output_tokens
        self.num_steps += other.num_steps
        self.busy_cycles += other.busy_cycles

    def to_dict(self) -> Dict[str, Any]:
        """The sketch backend's payload (exact stats are rebuilt from records)."""
        return {
            "rel_accuracy": self.rel_accuracy,
            "num_requests": self.num_requests,
            "total_output_tokens": self.total_output_tokens,
            "num_steps": self.num_steps,
            "busy_cycles": self.busy_cycles,
            "ttft": self.ttft.to_dict(),
            "tpot": self.tpot.to_dict(),
            "e2e": self.e2e.to_dict(),
            "timeline": self.timeline.to_dict(),
            "classes": {str(cls): {key: sketch.to_dict()
                                   for key, sketch in trio.items()}
                        for cls, trio in sorted(self._classes.items())},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StreamingStats":
        stats = cls(rel_accuracy=float(payload["rel_accuracy"]),
                    window_cycles=float(payload["timeline"]["window_cycles"]))
        stats.num_requests = int(payload["num_requests"])
        stats.total_output_tokens = int(payload["total_output_tokens"])
        stats.num_steps = int(payload["num_steps"])
        stats.busy_cycles = float(payload["busy_cycles"])
        stats.ttft = QuantileSketch.from_dict(payload["ttft"])
        stats.tpot = QuantileSketch.from_dict(payload["tpot"])
        stats.e2e = QuantileSketch.from_dict(payload["e2e"])
        stats.timeline = WindowedTimeline.from_dict(payload["timeline"])
        stats._classes = {
            int(key): {name: QuantileSketch.from_dict(sk)
                       for name, sk in trio.items()}
            for key, trio in payload["classes"].items()}
        return stats
