"""Tests for simulator primitives: config, packets, buffers, channel
pipes, greedy vs. sequential allocation, and injection processes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DimensionOrder
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.network import Simulator
from repro.network.buffers import CHANNEL_PORT, EJECTION_PORT, InputVC, OutPort
from repro.network.channel import ChannelPipe
from repro.network.config import SimulationConfig
from repro.network.injection import BatchInjection, BernoulliInjection
from repro.network.packet import Flit, Packet, make_flits
from repro.traffic import UniformRandom


class TestSimulationConfig:
    def test_defaults_match_paper(self):
        config = SimulationConfig()
        assert config.buffer_per_port == 32  # Section 3.2
        assert config.packet_size == 1

    def test_vc_depth_division(self):
        config = SimulationConfig(buffer_per_port=32)
        assert config.vc_depth(1) == 32
        assert config.vc_depth(2) == 16
        assert config.vc_depth(5) == 6

    def test_vc_depth_must_fit_packet(self):
        config = SimulationConfig(buffer_per_port=8, packet_size=5)
        assert config.vc_depth(1) == 8
        with pytest.raises(ValueError):
            config.vc_depth(2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"buffer_per_port": 0},
            {"packet_size": 0},
            {"channel_latency": 0},
            {"credit_latency": 0},
            {"injection_queue_capacity": 0},
            {"speedup": 0},
            {"staging_depth": 0},
            {"channel_period": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)


class TestPacket:
    def test_latencies(self):
        packet = Packet(0, src=1, dst=2, dst_router=0, size=1, time_created=10)
        packet.time_injected = 12
        packet.time_ejected = 20
        assert packet.total_latency == 10
        assert packet.network_latency == 8

    def test_undelivered_raises(self):
        packet = Packet(0, 1, 2, 0, 1, 0)
        with pytest.raises(ValueError):
            _ = packet.total_latency

    def test_make_flits_single(self):
        packet = Packet(0, 1, 2, 0, 1, 0)
        flits = make_flits(packet)
        assert len(flits) == 1
        assert flits[0].is_head and flits[0].is_tail

    def test_make_flits_multi(self):
        packet = Packet(0, 1, 2, 0, 4, 0)
        flits = make_flits(packet)
        assert [f.is_head for f in flits] == [True, False, False, False]
        assert [f.is_tail for f in flits] == [False, False, False, True]


class TestBuffers:
    def test_input_vc_space(self):
        invc = InputVC(0, 0, depth=2, order=0)
        assert invc.has_space()
        packet = Packet(0, 0, 1, 0, 1, 0)
        invc.fifo.append(Flit(packet, True, True))
        invc.fifo.append(Flit(packet, True, True))
        assert not invc.has_space()
        assert invc.occupancy() == 2

    def test_out_port_occupancy_tracks_credits_pending_staging(self):
        out = OutPort(0, CHANNEL_PORT, num_vcs=2, vc_depth=8, staging_depth=4)
        assert out.occupancy() == 0
        out.credits[0] -= 3
        out.pending[1] += 2
        packet = Packet(0, 0, 1, 0, 1, 0)
        out.staging[0].append(Flit(packet, True, True))
        assert out.occupancy() == 6
        assert out.occupancy_vc(0) == 4
        assert out.occupancy_vc(1) == 2

    def test_ejection_port_reads_empty(self):
        out = OutPort(0, EJECTION_PORT, num_vcs=1, vc_depth=0, staging_depth=4)
        assert out.occupancy() == 0
        assert out.credits[0] > 10**6  # effectively infinite


class TestChannelPipe:
    def test_ordered_delivery(self):
        """Items go on the pipe's deques the way the router engine puts
        them there (wire phase: flits, switch moves: credits) and come
        off in arrival order."""
        pipe = ChannelPipe(0, 0, 1, 0, 0)
        assert not pipe.busy()
        packet = Packet(0, 0, 1, 0, 2, 0)
        head, tail = Flit(packet, True, False), Flit(packet, False, True)
        pipe.flits.append((5, head, 0))
        pipe.flits.append((6, tail, 0))
        pipe.credits.append((6, 1))
        assert pipe.busy()
        assert pipe.flits.popleft() == (5, head, 0)
        assert pipe.flits.popleft() == (6, tail, 0)
        assert pipe.busy()
        assert pipe.credits.popleft() == (6, 1)
        assert not pipe.busy()


class _ObservingDOR(DimensionOrder):
    """DOR that records, per decision, the pending debit already on
    the output VC it picks."""

    def __init__(self, sequential):
        super().__init__()
        self.sequential = sequential
        self.seen = []

    def route(self, engine, packet):
        port, vc = super().route(engine, packet)
        self.seen.append(engine.out_ports[port].pending[vc])
        return port, vc


class TestAllocators:
    """Section 3.1's greedy vs. sequential allocation, as
    ``RouterEngine.route_switch`` applies it: two heads at one router,
    routed in the same cycle to the same output VC."""

    def _second_decision_sees(self, sequential):
        algorithm = _ObservingDOR(sequential)
        sim = Simulator(FlattenedButterfly(4, 2), algorithm, UniformRandom())
        engine = sim.engines[0]
        dst = sim.topology.num_terminals - 1  # a terminal on another router
        assert sim.topology.ejection_router(dst) != 0
        for terminal in sim.topology.injecting_terminals(0)[:2]:
            packet = Packet(terminal, terminal, dst,
                            sim.topology.ejection_router(dst), 3, 0)
            invc = sim._injection_invc[terminal]
            invc.fifo.append(Flit(packet, True, False))
            engine._unrouted[invc] = None
            engine.active[invc] = None
        sim._busy_engines[0] = engine
        engine.route_switch(0)
        assert len(algorithm.seen) == 2
        assert algorithm.seen[0] == 0
        return algorithm.seen[1]

    def test_sequential_applies_immediately(self):
        # The first decision's 3-flit debit is visible to the second.
        assert self._second_decision_sees(sequential=True) == 3

    def test_greedy_defers_to_end_of_cycle(self):
        # Every input decides on the same stale state ("en masse").
        assert self._second_decision_sees(sequential=False) == 0


class TestBernoulliInjection:
    def test_rate_statistics(self):
        process = BernoulliInjection(0.25)
        process.start(num_terminals=8, packet_size=1, rng=random.Random(0))
        injections = 0
        cycles = 4000
        for now in range(cycles):
            injections += sum(count for _, count in process.injections(now))
        rate = injections / (cycles * 8)
        assert 0.22 < rate < 0.28

    def test_full_load_injects_every_cycle(self):
        process = BernoulliInjection(1.0)
        process.start(num_terminals=4, packet_size=1, rng=random.Random(0))
        for now in range(10):
            assert len(process.injections(now)) == 4

    def test_at_most_one_packet_per_terminal_per_cycle(self):
        process = BernoulliInjection(0.9)
        process.start(num_terminals=4, packet_size=1, rng=random.Random(1))
        for now in range(500):
            terminals = [t for t, _ in process.injections(now)]
            assert len(terminals) == len(set(terminals))

    def test_packet_size_scales_rate(self):
        process = BernoulliInjection(0.5)
        process.start(num_terminals=8, packet_size=2, rng=random.Random(0))
        injections = 0
        for now in range(4000):
            injections += sum(count for _, count in process.injections(now))
        # 0.25 packets per terminal per cycle.
        assert 0.22 < injections / (4000 * 8) < 0.28

    def test_rejects_bad_load(self):
        with pytest.raises(ValueError):
            BernoulliInjection(0.0)
        with pytest.raises(ValueError):
            BernoulliInjection(1.5)

    def test_stop(self):
        process = BernoulliInjection(1.0)
        process.start(num_terminals=2, packet_size=1, rng=random.Random(0))
        process.stop()
        assert process.injections(0) == []
        assert process.exhausted()


class TestBatchInjection:
    def test_all_at_cycle_zero(self):
        process = BatchInjection(5)
        process.start(num_terminals=3, packet_size=1, rng=random.Random(0))
        assert process.injections(0) == [(0, 5), (1, 5), (2, 5)]
        assert process.injections(1) == []
        assert process.exhausted()

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            BatchInjection(0)


@settings(max_examples=20, deadline=None)
@given(load=st.floats(min_value=0.05, max_value=1.0), seed=st.integers(0, 99))
def test_bernoulli_rate_property(load, seed):
    process = BernoulliInjection(load)
    process.start(num_terminals=16, packet_size=1, rng=random.Random(seed))
    injections = 0
    cycles = 1500
    for now in range(cycles):
        injections += len(process.injections(now))
    rate = injections / (cycles * 16)
    assert abs(rate - load) < 0.08
