"""``left_sum``: the one float-summation semantics, and the sites routed through it.

The helper is a plain left fold, what the built-in ``sum()`` computes up to
CPython 3.11.  The site tests feed each routed reduction floats on which a
left fold and a compensated fold disagree, and run under both built-ins
(the ``builtin_sum`` fixture): the result must be the left fold's either way.
"""

import functools
import operator

from hypothesis import given, settings, strategies as st

from repro.core.summation import left_sum

#: ten tenths: a left fold gives 0.9999999999999999, a compensated fold 1.0
TENTHS = [0.1] * 10
#: the middle term is lost to rounding in a left fold, kept by compensation
CANCELLING = [1e16, 1.0, -1e16]


def fold(values):
    return functools.reduce(operator.add, values, 0)


class TestLeftSum:
    def test_empty_is_int_zero(self):
        assert left_sum([]) == 0 and type(left_sum([])) is int

    def test_ints_stay_exact_ints(self):
        values = [2**70, -3, 2**70, 1]
        assert left_sum(values) == 2**71 - 2
        assert type(left_sum(values)) is int

    def test_floats_are_not_compensated(self):
        assert left_sum(TENTHS) == 0.9999999999999999
        assert left_sum(CANCELLING) == 0.0

    def test_order_is_left_to_right(self):
        assert left_sum([1e16, -1e16, 1.0]) == 1.0
        assert left_sum([1.0, 1e16, -1e16]) == 0.0

    def test_consumes_a_generator_once(self):
        assert left_sum(x / 10 for x in [1] * 10) == left_sum(TENTHS)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=64), max_size=30))
    def test_equals_an_explicit_running_total(self, values):
        total = 0
        for value in values:
            total += value
        assert left_sum(values) == total

    def test_does_not_depend_on_the_builtin(self, builtin_sum):
        assert left_sum(TENTHS) == 0.9999999999999999
        assert left_sum(CANCELLING) == 0.0


class TestRoutedSites:
    """Every routed reduction gives the left fold under either built-in."""

    def test_latency_summary_mean(self, builtin_sum):
        from repro.serve.streaming import summarize

        assert summarize(TENTHS)["mean"] == fold(TENTHS) / len(TENTHS)

    def test_layer_cycles(self, builtin_sum):
        from repro.workloads.model import LayerBreakdown

        cycles = dict(zip(("qkv", "attention", "moe"), CANCELLING))
        assert LayerBreakdown(cycles=cycles).layer_cycles == 0.0

    def test_calibrated_prediction(self, builtin_sum):
        from repro.costmodel.models import (CalibratedCostModel,
                                            signature_features)

        features = signature_features(3, [64])
        coefficients = (1e16, 1.0, -1e16, 0.0)
        products = list(map(operator.mul, coefficients, features))
        expected = max(fold(products), 1.0)
        model = CalibratedCostModel(
            coefficients=coefficients, feature_min=features,
            feature_max=features, num_probes=1, residual_mean_rel=0.0,
            residual_max_rel=0.0, cycles_min=1.0, cycles_max=1.0,
            extrapolation="raise")
        assert model.predict(3, [64]) == expected
        assert model.predict_clamped(3, [64]) == expected

    def test_fleet_means_and_imbalance(self, builtin_sum):
        from types import SimpleNamespace

        from repro.serve.report import FleetReport

        replicas = [SimpleNamespace(busy_cycles=0.1,
                                    utilization=lambda total: 0.1,
                                    serving=SimpleNamespace(memory=SimpleNamespace(
                                        occupancy_mean=0.1, occupancy_max=0.2)))
                    for _ in TENTHS]
        fleet = FleetReport(trace="t", schedule="s", routing="round-robin",
                            initial_replicas=len(replicas), replicas=replicas,
                            total_cycles=1.0)
        mean = fold(TENTHS) / len(TENTHS)
        assert fleet.utilization()["mean"] == mean
        assert fleet.kv_occupancy()["mean"] == mean
        assert fleet.imbalance == 0.1 / mean
