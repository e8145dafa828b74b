"""End-to-end tests of the cycle-accurate simulator: delivery,
conservation, determinism, and flow-control invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ClosAD,
    DimensionOrder,
    MinimalAdaptive,
    UGAL,
    UGALSequential,
    Valiant,
)
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.network import BatchInjection, SimulationConfig, Simulator
from repro.topologies import (
    Butterfly,
    DestinationTag,
    ECube,
    FoldedClos,
    FoldedClosAdaptive,
    Hypercube,
)
from repro.traffic import RandomPermutation, UniformRandom, adversarial

ALL_FB_ALGORITHMS = [
    MinimalAdaptive,
    DimensionOrder,
    Valiant,
    UGAL,
    UGALSequential,
    ClosAD,
]


def small_sim(algorithm_cls, pattern=None, **config_kwargs):
    return Simulator(
        FlattenedButterfly(4, 2),
        algorithm_cls(),
        pattern or UniformRandom(),
        SimulationConfig(**config_kwargs),
    )


class TestDelivery:
    @pytest.mark.parametrize("algorithm_cls", ALL_FB_ALGORITHMS)
    def test_batch_fully_delivered(self, algorithm_cls):
        sim = small_sim(algorithm_cls)
        result = sim.run_batch(8)
        assert result.packets == 16 * 8
        assert sim.packets_delivered == result.packets
        assert sim.quiescent()
        assert sim.flits_accounted() == 0

    @pytest.mark.parametrize("algorithm_cls", ALL_FB_ALGORITHMS)
    def test_every_packet_reaches_its_destination(self, algorithm_cls):
        """Track destinations via a permutation and verify latency
        accounting for every packet."""
        sim = small_sim(algorithm_cls, pattern=RandomPermutation(seed=5))
        sim.run_batch(4)
        # All created packets were delivered with sane timestamps.
        assert sim.packets_created == sim.packets_delivered == 64
        assert sim.flits_ejected == 64

    def test_batch_cut_off_raises(self):
        # A batch still in flight at max_cycles is an error, not a
        # completion time.
        with pytest.raises(RuntimeError, match="not drained within 5 cycles"):
            small_sim(MinimalAdaptive).run_batch(8, max_cycles=5)

    def test_open_loop_conservation(self):
        sim = small_sim(MinimalAdaptive)
        result = sim.run_open_loop(0.3, warmup=200, measure=200, drain_max=5000)
        assert not result.saturated
        assert result.packets_labeled > 0
        # Everything injected is either delivered or still in flight.
        in_network = sim.flits_accounted()
        queued = sim.in_flight - (in_network // sim.config.packet_size)
        assert sim.packets_created == sim.packets_delivered + sim.in_flight
        assert queued >= 0


class TestDeterminism:
    @pytest.mark.parametrize("algorithm_cls", [MinimalAdaptive, ClosAD, UGAL])
    def test_same_seed_same_result(self, algorithm_cls):
        results = [
            small_sim(algorithm_cls, seed=7).run_open_loop(
                0.4, warmup=200, measure=200, drain_max=5000
            )
            for _ in range(2)
        ]
        assert results[0].latency.mean == results[1].latency.mean
        assert results[0].accepted_throughput == results[1].accepted_throughput
        assert results[0].cycles == results[1].cycles

    def test_different_seed_different_result(self):
        a = small_sim(MinimalAdaptive, seed=1).run_open_loop(
            0.4, warmup=200, measure=200, drain_max=5000
        )
        b = small_sim(MinimalAdaptive, seed=2).run_open_loop(
            0.4, warmup=200, measure=200, drain_max=5000
        )
        assert a.latency.mean != b.latency.mean


class TestMultiFlitPackets:
    @pytest.mark.parametrize("algorithm_cls", [MinimalAdaptive, ClosAD, Valiant])
    def test_wormhole_delivery(self, algorithm_cls):
        sim = small_sim(algorithm_cls, packet_size=4)
        result = sim.run_batch(4)
        assert sim.packets_delivered == 64
        assert sim.flits_ejected == 64 * 4
        assert sim.quiescent()

    def test_multi_flit_latency_exceeds_single(self):
        single = small_sim(MinimalAdaptive, packet_size=1).run_open_loop(
            0.2, warmup=200, measure=200, drain_max=5000
        )
        multi = small_sim(MinimalAdaptive, packet_size=4).run_open_loop(
            0.2, warmup=200, measure=200, drain_max=5000
        )
        assert multi.latency.mean > single.latency.mean


class TestFlitPool:
    def test_ejected_flits_are_reused(self):
        """Ejected flits go back to a free list and are re-initialized
        for later injections; every flit ever injected was either
        freshly allocated or reused."""
        sim = small_sim(MinimalAdaptive, packet_size=2)
        result = sim.run_open_loop(0.4, warmup=50, measure=80, drain_max=1500)
        stats = result.kernel
        assert stats.flits_reused > 0
        assert stats.flits_reused > stats.flits_allocated
        assert (
            stats.flits_allocated + stats.flits_reused
            == sim.flits_ejected + sim.flits_accounted()
        )


class TestLatencyAccounting:
    def test_latency_grows_with_load(self):
        lat = []
        for load in (0.1, 0.5, 0.9):
            sim = small_sim(MinimalAdaptive)
            lat.append(
                sim.run_open_loop(load, warmup=300, measure=300, drain_max=8000)
                .latency.mean
            )
        assert lat[0] < lat[1] < lat[2]

    def test_network_latency_below_total(self):
        sim = small_sim(MinimalAdaptive)
        result = sim.run_open_loop(0.5, warmup=300, measure=300, drain_max=8000)
        assert result.network_latency.mean <= result.latency.mean

    def test_hops_counted(self):
        sim = small_sim(DimensionOrder)
        result = sim.run_open_loop(0.2, warmup=300, measure=300, drain_max=8000)
        # UR on a 4-ary 2-flat: 3/4 of pairs are remote = 1 hop.
        assert 0.5 < result.mean_hops < 1.0


class TestSaturationDetection:
    def test_oversaturated_run_flagged(self):
        # MIN on WC saturates at 1/4; offered 0.9 cannot drain.
        sim = small_sim(DimensionOrder, pattern=adversarial())
        result = sim.run_open_loop(0.9, warmup=300, measure=300, drain_max=2000)
        assert result.saturated
        assert result.avg_latency == float("inf")

    def test_undersaturated_run_not_flagged(self):
        sim = small_sim(DimensionOrder, pattern=adversarial())
        result = sim.run_open_loop(0.15, warmup=300, measure=300, drain_max=8000)
        assert not result.saturated


class TestChannelPeriod:
    def test_half_bandwidth_halves_throughput(self):
        full = small_sim(DimensionOrder, pattern=adversarial(), channel_period=1)
        half = small_sim(DimensionOrder, pattern=adversarial(), channel_period=2)
        t_full = full.measure_saturation_throughput(400, 400)
        t_half = half.measure_saturation_throughput(400, 400)
        assert t_half == pytest.approx(t_full / 2, rel=0.15)


class TestBaselineTopologySimulation:
    def test_butterfly_delivery(self):
        sim = Simulator(
            Butterfly(4, 2), DestinationTag(), UniformRandom(), SimulationConfig()
        )
        sim.run_batch(4)
        assert sim.packets_delivered == 64
        assert sim.quiescent()

    def test_folded_clos_delivery(self):
        sim = Simulator(
            FoldedClos(16, 4), FoldedClosAdaptive(), UniformRandom(),
            SimulationConfig(),
        )
        sim.run_batch(4)
        assert sim.packets_delivered == 64
        assert sim.quiescent()

    def test_hypercube_delivery(self):
        sim = Simulator(
            Hypercube(4), ECube(), UniformRandom(), SimulationConfig()
        )
        sim.run_batch(4)
        assert sim.packets_delivered == 64
        assert sim.quiescent()

    def test_algorithm_topology_mismatch_rejected(self):
        with pytest.raises(TypeError):
            Simulator(
                Butterfly(4, 2), MinimalAdaptive(), UniformRandom(),
                SimulationConfig(),
            )
        with pytest.raises(TypeError):
            Simulator(
                FlattenedButterfly(4, 2), ECube(), UniformRandom(),
                SimulationConfig(),
            )


class TestSelfTraffic:
    def test_same_router_traffic_delivered_without_hops(self):
        """A permutation that keeps traffic router-local never uses an
        inter-router channel under minimal routing."""

        class Rotate:
            name = "rotate-local"

            def bind(self, topology):
                self.c = topology.concentration

            def destination(self, src, rng):
                base = src - src % self.c
                return base + (src + 1 - base) % self.c

        sim = Simulator(
            FlattenedButterfly(4, 2), MinimalAdaptive(), Rotate(),
            SimulationConfig(),
        )
        sim.run_batch(8)
        assert sim.packets_delivered == 16 * 8
        assert all(pipe.index is not None and not pipe.busy() for pipe in sim.pipes)
        assert all(not pipe.flits for pipe in sim.pipes)


@settings(max_examples=10, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=4),
    n=st.integers(min_value=2, max_value=3),
    batch=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=50),
)
def test_batch_conservation_property(k, n, batch, seed):
    """Every injected flit is eventually ejected, for random network
    shapes, batch sizes, and seeds, under adaptive routing."""
    sim = Simulator(
        FlattenedButterfly(k, n),
        MinimalAdaptive(),
        UniformRandom(),
        SimulationConfig(seed=seed),
    )
    result = sim.run_batch(batch)
    expected = sim.topology.num_terminals * batch
    assert result.packets == expected
    assert sim.packets_delivered == expected
    assert sim.flits_accounted() == 0
    assert sim.quiescent()
