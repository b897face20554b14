"""The factored step memo: sub-layer costs under their own minimal keys.

A serving step costs ``(qkv + attention + moe) * num_layers``.  The memo keeps
each sub-layer's cycles under exactly the inputs that sub-layer reads, so the
composed cost must equal an unmemoized :meth:`ServeStepWorkload.run`, and
steps, schedules, seeds and layer counts share whatever sub-layers they have
in common.
"""

from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel.calibrate import run_probes
from repro.platforms import resolve_platform
from repro.schedules import Schedule
from repro.serve import ServeConfig, StepMemo, scheduler
from repro.serve import workload as serve_workload
from repro.serve.workload import ServeStepWorkload
from repro.workloads.configs import QWEN3_30B_A3B, scaled_config

MODEL = replace(scaled_config(QWEN3_30B_A3B, scale=64), name="memo-2e",
                num_experts=2, experts_per_token=1)
SCHEDULES = (Schedule.dynamic(),
             Schedule.static("static", tile_rows=4),
             Schedule.static("coarse", tile_rows=16, attention="coarse"))
SIGNATURES = [(8, (64,)), (24, (64, 128)), (40, (128, 192, 256))]

#: shared by every example of the randomized test, so later examples hit
#: sub-layers that earlier ones simulated under other steps and schedules
_SHARED_MEMO = StepMemo()


def _routing_seed(seed: int, num_tokens: int) -> int:
    """The scheduler's per-step MoE routing seed."""
    return (seed * 1_000_003 + num_tokens) & 0x7FFFFFFF


@settings(max_examples=40, deadline=None)
@given(kv_rows=st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                        max_size=3),
       extra_tokens=st.integers(min_value=0, max_value=40),
       schedule=st.sampled_from(SCHEDULES),
       num_layers=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2))
def test_factored_cost_equals_unmemoized_run(kv_rows, extra_tokens, schedule,
                                             num_layers, seed):
    kv_lengths = tuple(sorted(64 * rows for rows in kv_rows))
    num_tokens = len(kv_lengths) + extra_tokens
    config = ServeConfig(model=MODEL, num_layers=num_layers, seed=seed)
    hardware = resolve_platform(None).hardware
    context = scheduler._context_key(config, schedule, hardware)
    fresh = {}
    with mock.patch.object(scheduler, "_STEP_MEMO", _SHARED_MEMO):
        cycles = scheduler._step_cycles(config, schedule, hardware, context,
                                        num_tokens, kv_lengths, fresh)
    reference = ServeStepWorkload(
        model=MODEL, num_tokens=num_tokens, kv_lengths=kv_lengths,
        routing_seed=_routing_seed(seed, num_tokens), num_layers=num_layers,
    ).run(schedule, hardware)["cycles"]
    assert cycles == reference
    assert fresh == {(num_tokens, kv_lengths): cycles}


@pytest.fixture
def builds(monkeypatch):
    """Sub-layer builds (one per simulation) against a fresh, private memo."""
    counts = Counter()
    for name in ("qkv", "attention", "moe"):
        builder = getattr(serve_workload, f"build_{name}_layer")

        def counted(*args, _name=name, _builder=builder, **kwargs):
            counts[_name] += 1
            return _builder(*args, **kwargs)
        monkeypatch.setattr(serve_workload, f"build_{name}_layer", counted)
    monkeypatch.setattr(scheduler, "_STEP_MEMO", StepMemo())
    return counts


def _probe(schedule, **config):
    probes, _ = run_probes(SIGNATURES, model=MODEL, schedule=schedule, **config)
    return [cycles for _, _, cycles in probes]


class TestSharing:
    def test_static_then_dynamic_adds_no_qkv_simulations(self, builds):
        _probe(Schedule.static("static", tile_rows=4))
        assert builds == {"qkv": 3, "attention": 3, "moe": 3}
        _probe(Schedule.dynamic())
        # QKV reads no schedule; attention and MoE read the parts that differ
        assert builds == {"qkv": 3, "attention": 6, "moe": 6}

    def test_num_layers_change_adds_no_simulations(self, builds):
        one = _probe(Schedule.dynamic(), num_layers=1)
        before = Counter(builds)
        three = _probe(Schedule.dynamic(), num_layers=3)
        assert builds == before
        assert three == [cycles * 3 for cycles in one]

    def test_seed_change_resimulates_only_moe(self, builds):
        _probe(Schedule.dynamic(), seed=0)
        _probe(Schedule.dynamic(), seed=1)
        assert builds == {"qkv": 3, "attention": 3, "moe": 6}

    def test_memo_holds_one_entry_per_sub_layer_miss(self, builds):
        _probe(Schedule.dynamic())
        stats = scheduler.step_cache_stats()
        assert stats["size"] == stats["misses"] == sum(builds.values()) == 9
        _probe(Schedule.dynamic())
        again = scheduler.step_cache_stats()
        assert again["misses"] == stats["misses"]
        assert again["hits"] == stats["hits"] + 3 * len(SIGNATURES)
