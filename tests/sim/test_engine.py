"""Tests for the simulation engine, channels and memory models."""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.core.errors import DeadlockError
from repro.core.stream import DONE, Data, Done
from repro.sim.channel import Channel
from repro.sim.engine import Engine
from repro.sim.hbm import BandwidthLedger, BankedHBM, HBMModel
from repro.workloads.configs import QWEN3_30B_A3B, scaled_config
from repro.workloads.qkv import QKVConfig, build_qkv_layer


class TestChannel:
    def test_push_pop_fifo(self):
        ch = Channel("c", latency=2.0)
        ch.push(Data(1), time=0.0)
        ch.push(Data(2), time=5.0)
        ready, token = ch.pop(time=0.0)
        assert token.value == 1 and ready == 2.0
        ready, token = ch.pop(time=10.0)
        assert token.value == 2 and ch.last_pop_time == 10.0

    def test_capacity(self):
        ch = Channel("c", capacity=1)
        ch.push(Data(1), 0.0)
        assert ch.full
        ch.pop(0.0)
        assert ch.empty and not ch.full


class TestEngineRelease:
    """A finished engine holds no reference cycle: it dies by refcount alone."""

    def test_parked_processes_do_not_keep_the_engine_alive(self):
        engine = Engine(timed=True)
        ch = engine.add_channel("ch", capacity=1, latency=0.0)

        def producer():  # still parked on a full channel when the sink ends
            for i in range(8):
                yield ("push", ch, Data(i))

        def consumer():
            for _ in range(2):
                yield ("pop", ch)
        engine.add_process("producer", producer())
        engine.add_process("consumer", consumer(), is_sink=True)
        ref = weakref.ref(engine)
        gc.collect()
        gc.disable()
        try:
            engine.run()
            del engine
            assert ref() is None
        finally:
            gc.enable()

    def test_simulate_frees_its_engine_and_keeps_outputs(self, monkeypatch):
        from repro.sim import runner

        engines = []
        lower = runner.lower

        def spy(*args, **kwargs):
            lowered = lower(*args, **kwargs)
            engines.append(weakref.ref(lowered.engine))
            return lowered
        monkeypatch.setattr(runner, "lower", spy)
        model = replace(scaled_config(QWEN3_30B_A3B, scale=64),
                        num_experts=2, experts_per_token=1)
        built = build_qkv_layer(QKVConfig(model=model, batch=8))
        gc.collect()
        gc.disable()
        try:
            report = runner.simulate(built.program, built.inputs())
            assert engines and all(ref() is None for ref in engines)
        finally:
            gc.enable()
        assert report.cycles > 0
        assert report.outputs and all(report.outputs.values())


class TestEngineBasics:
    def _producer(self, channel, items):
        def gen():
            for item in items:
                yield ("push", channel, Data(item))
                yield ("tick", 10)
            yield ("push", channel, DONE)
        return gen()

    def _consumer(self, channel, sink, per_item=5):
        def gen():
            while True:
                token = yield ("pop", channel)
                if isinstance(token, Done):
                    return
                sink.append(token.value)
                yield ("tick", per_item)
        return gen()

    def test_pipeline_timing(self):
        engine = Engine(timed=True)
        ch = engine.add_channel("ch", latency=1.0)
        seen = []
        engine.add_process("producer", self._producer(ch, [1, 2, 3]))
        engine.add_process("consumer", self._consumer(ch, seen), is_sink=True)
        metrics = engine.run()
        assert seen == [1, 2, 3]
        # producer: 3 items * 10 cycles; consumer finishes a little later
        assert metrics.cycles >= 30

    def test_untimed_mode_counts_no_cycles(self):
        engine = Engine(timed=False)
        ch = engine.add_channel("ch")
        seen = []
        engine.add_process("producer", self._producer(ch, [1, 2]))
        engine.add_process("consumer", self._consumer(ch, seen), is_sink=True)
        metrics = engine.run()
        assert seen == [1, 2]
        assert metrics.cycles == 0

    def test_backpressure_stalls_producer(self):
        engine = Engine(timed=True)
        ch = engine.add_channel("ch", capacity=1, latency=0.0)

        def producer():
            for i in range(4):
                yield ("push", ch, Data(i))
        producer_proc = engine.add_process("producer", producer())

        def consumer():
            for _ in range(4):
                yield ("pop", ch)
                yield ("tick", 100)
        engine.add_process("consumer", consumer(), is_sink=True)
        engine.run()
        # the producer's clock was dragged forward by the consumer's pops
        assert producer_proc.local_time >= 200

    def test_deadlock_detected(self):
        engine = Engine(timed=True)
        ch = engine.add_channel("ch")

        def consumer():
            yield ("pop", ch)  # nobody ever pushes
        engine.add_process("consumer", consumer(), is_sink=True)
        with pytest.raises(DeadlockError) as excinfo:
            engine.run()
        assert any("consumer" in entry for entry in excinfo.value.blocked)

    def test_pop_any_prefers_earliest(self):
        engine = Engine(timed=True)
        a = engine.add_channel("a", latency=0.0)
        b = engine.add_channel("b", latency=0.0)
        order = []

        def producer_a():
            yield ("tick", 50)
            yield ("push", a, Data("late"))

        def producer_b():
            yield ("tick", 5)
            yield ("push", b, Data("early"))

        def merger():
            for _ in range(2):
                index, token = yield ("pop_any", [a, b])
                order.append(token.value)
        engine.add_process("pa", producer_a())
        engine.add_process("pb", producer_b())
        engine.add_process("m", merger(), is_sink=True)
        engine.run()
        assert order[0] == "early"

    def test_hbm_effect_records_traffic(self):
        engine = Engine(timed=True, hbm=HBMModel(bandwidth=64.0, latency=10.0))
        def loader():
            completion = yield ("hbm", 640, False, 0)
            assert completion >= 10.0
        engine.add_process("loader", loader(), is_sink=True)
        metrics = engine.run()
        assert metrics.offchip_traffic == 640


class TestHBMModels:
    def test_bandwidth_ledger_serializes_overlap(self):
        ledger = BandwidthLedger(bandwidth=10.0, window=10.0)
        first = ledger.reserve(0.0, 100)   # occupies 10 windows worth
        second = ledger.reserve(0.0, 100)
        assert second > first

    def test_ledger_out_of_order_requests_not_penalized(self):
        ledger = BandwidthLedger(bandwidth=10.0, window=10.0)
        ledger.reserve(1000.0, 50)          # a "late" request processed first
        early = ledger.reserve(0.0, 50)     # an earlier request arrives afterwards
        assert early <= 20.0

    def test_hbm_model_accounting(self):
        hbm = HBMModel(bandwidth=1024.0, latency=100.0)
        completion = hbm.access(0.0, 2048, is_write=False)
        assert completion == pytest.approx(102.0)
        assert hbm.issue_done(completion) == pytest.approx(2.0)
        hbm.access(0.0, 1024, is_write=True)
        assert hbm.total_bytes_read == 2048 and hbm.total_bytes_written == 1024
        assert 0 < hbm.utilization(100.0) <= 1.0

    def test_banked_hbm_row_hits(self):
        hbm = BankedHBM(num_banks=4, burst_bytes=64, row_bytes=256)
        hbm.access(0.0, 256, address=0)
        hits_before = hbm.row_hits
        hbm.access(10.0, 256, address=0)      # same rows again -> hits
        assert hbm.row_hits > hits_before
        assert hbm.total_bytes == 512
