"""The exact kernel's bit-exactness guarantees and its selection knobs.

The event kernel used to be cross-checked, cell by cell, against a
polling reference kernel.  That kernel is gone; its output lives on as
the committed fingerprints of ``tests/test_kernel_fingerprint.py``,
which were generated only where both kernels agreed.  The test ids of
the former cross-kernel matrix (random flattened-butterfly points,
tori and HyperX, faulted and transient runs, route-table consumers,
idle skipping, RNG-stream modes) now check that the event kernel still
reproduces those pins bit for bit.

Also covered here: kernel selection (argument / environment), kernel
statistics, the ``rng_streams`` seed-derivation modes, the
``drain_max`` validation, the credit-starved wire port, and the route
table itself — shared per topology, and equal entry for entry to the
routing functions it memoizes.
"""

import random

import pytest

from repro.core import UGAL, MinimalAdaptive, Valiant
from repro.core.flattened_butterfly import FlattenedButterfly
from repro.core.routing.dor import first_differing_dim
from repro.core.routing.table import shared_route_table
from repro.network import (
    KERNEL_ENV,
    KERNELS,
    QueueTrace,
    SimulationConfig,
    Simulator,
    resolve_kernel,
)
from repro.network.buffers import CHANNEL_PORT
from repro.network.config import derive_seed
from repro.traffic import UniformRandom

from tests.test_kernel_fingerprint import (
    CELLS,
    FAULTED,
    ROUTE_TABLE,
    assert_pinned,
)


#: Kernels that step cycle by cycle (the batch kernel has no per-cycle
#: wire phase).
EXACT_KERNELS = ("event",)


def _cells(prefix):
    """Ids (without ``prefix``) of the fingerprint cells under it."""
    return [c[len(prefix):] for c in sorted(CELLS) if c.startswith(prefix)]


class TestKernelSelection:
    def test_default_is_event(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert resolve_kernel() == "event"
        sim = Simulator(
            FlattenedButterfly(2, 2), MinimalAdaptive(), UniformRandom()
        )
        assert sim.kernel == "event"

    def test_environment_selects_batch(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "batch")
        assert resolve_kernel() == "batch"
        sim = Simulator(
            FlattenedButterfly(2, 2), MinimalAdaptive(), UniformRandom()
        )
        assert sim.kernel == "batch"

    def test_argument_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "batch")
        assert resolve_kernel("event") == "event"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("quantum")
        with pytest.raises(ValueError, match="unknown kernel"):
            Simulator(
                FlattenedButterfly(2, 2),
                MinimalAdaptive(),
                UniformRandom(),
                kernel="quantum",
            )

    def test_polling_refused(self, monkeypatch):
        """The removed polling kernel is refused by name, from the
        argument and from the environment, and the message names the
        kernels that exist."""
        with pytest.raises(ValueError, match="'polling'.*event, batch"):
            Simulator(
                FlattenedButterfly(2, 2),
                MinimalAdaptive(),
                UniformRandom(),
                kernel="polling",
            )
        monkeypatch.setenv(KERNEL_ENV, "polling")
        with pytest.raises(ValueError, match="'polling'.*event, batch"):
            Simulator(
                FlattenedButterfly(2, 2), MinimalAdaptive(), UniformRandom()
            )

    def test_kernel_names_exported(self):
        assert KERNELS == ("event", "batch")


class TestBitIdenticalResults:
    """The event kernel reproduces the polling kernel's frozen output."""

    @pytest.mark.parametrize("cell", _cells("matrix/"))
    def test_matrix_point(self, cell):
        assert_pinned("matrix/" + cell)

    @pytest.mark.parametrize("cell", _cells("topology/"))
    def test_topology_matrix_point(self, cell):
        """Torus and HyperX configurations."""
        assert_pinned("topology/" + cell)

    def test_batch_runs_identical(self):
        assert_pinned("run-batch/min_ad-p2")

    def test_event_does_less_phase_work(self):
        """The point of the active-set kernel: far fewer router-phase
        invocations than a loop visiting every router in every phase,
        which needs at least three visits (routing, switch, wire) per
        router per cycle."""
        _, result, *_ = assert_pinned("phase-work/min_ad-ur-k8-l0.1")
        routers = FlattenedButterfly(8, 2).num_routers
        assert result.kernel.router_phase_calls < 2 * routers * result.cycles


class TestIdleSkip:
    def test_low_load_skips_idle_cycles(self):
        sim = Simulator(
            FlattenedButterfly(4, 2),
            MinimalAdaptive(),
            UniformRandom(),
            SimulationConfig(seed=2),
            kernel="event",
        )
        result = sim.run_open_loop(0.005, warmup=200, measure=300, drain_max=5000)
        assert result.kernel.idle_cycles_skipped > 0
        assert result.kernel.cycles == result.cycles

    def test_skip_does_not_change_results(self):
        """Idle-skipped runs reproduce the frozen output of the polling
        kernel, which never skipped anything."""
        _, result, *_ = assert_pinned("idle-skip/s2-interval1")
        assert result.kernel.idle_cycles_skipped > 0

    def test_skip_preserves_throughput_trace(self):
        """A coarser trace interval summarizes skipped gaps exactly."""
        _, result, *_ = assert_pinned("idle-skip/s9-interval10")
        assert result.kernel.idle_cycles_skipped > 0

    def test_non_skippable_tracer_disables_skip(self):
        sim = Simulator(
            FlattenedButterfly(4, 2),
            MinimalAdaptive(),
            UniformRandom(),
            SimulationConfig(seed=2),
            kernel="event",
        )
        sim.attach_tracer(QueueTrace([sim.topology.channels[0]]))
        result = sim.run_open_loop(0.005, warmup=100, measure=150, drain_max=3000)
        assert result.kernel.idle_cycles_skipped == 0


def _open_loop(seed):
    sim = Simulator(
        FlattenedButterfly(4, 2),
        MinimalAdaptive(),
        UniformRandom(),
        SimulationConfig(seed=seed),
        kernel="event",
    )
    return sim, sim.run_open_loop(0.2, warmup=100, measure=100, drain_max=2000)


class TestKernelStats:
    def test_stats_attached_and_consistent(self):
        sim, result = _open_loop(1)
        stats = result.kernel
        assert stats is not None
        assert stats.kernel == "event"
        assert stats.cycles == result.cycles
        assert stats.router_phase_calls > 0
        assert stats.events_dispatched > 0
        assert stats.wall_seconds > 0
        assert stats.cycles_per_second > 0
        assert sim.kernel_stats is stats

    def test_stats_do_not_break_result_equality(self):
        """KernelStats is excluded from result comparison, so two runs
        of one configuration (different wall times) still compare equal
        field-for-field."""
        _, first = _open_loop(4)
        _, second = _open_loop(4)
        assert first == second
        assert first.kernel.wall_seconds != 0


class TestRngStreams:
    def test_legacy_is_default(self):
        assert SimulationConfig().rng_streams == "legacy"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="rng_streams"):
            SimulationConfig(rng_streams="bogus")

    def test_legacy_seed_zero_degenerates(self):
        """Under the legacy derivation, ``seed * 2654435761 % 2**31``
        is 0 for seed 0, so the streams collapse to Random(1..3)."""
        sim = Simulator(
            FlattenedButterfly(2, 2),
            MinimalAdaptive(),
            UniformRandom(),
            SimulationConfig(seed=0, rng_streams="legacy"),
        )
        assert sim.traffic_rng.getstate() == random.Random(1).getstate()
        assert sim.route_rng.getstate() == random.Random(2).getstate()
        assert sim.injection_rng.getstate() == random.Random(3).getstate()

    def test_legacy_seeds_collide_mod_2_31(self):
        """Seeds 2**31 apart produce identical legacy streams — the
        defect the mixed mode fixes."""
        seeds = (5, 5 + 2**31)
        states = []
        for seed in seeds:
            sim = Simulator(
                FlattenedButterfly(2, 2),
                MinimalAdaptive(),
                UniformRandom(),
                SimulationConfig(seed=seed, rng_streams="legacy"),
            )
            states.append(sim.traffic_rng.getstate())
        assert states[0] == states[1]

    def test_mixed_separates_colliding_seeds(self):
        seeds = (5, 5 + 2**31)
        states = []
        for seed in seeds:
            sim = Simulator(
                FlattenedButterfly(2, 2),
                MinimalAdaptive(),
                UniformRandom(),
                SimulationConfig(seed=seed, rng_streams="mixed"),
            )
            states.append(sim.traffic_rng.getstate())
        assert states[0] != states[1]

    def test_mixed_streams_distinct_at_seed_zero(self):
        sim = Simulator(
            FlattenedButterfly(2, 2),
            MinimalAdaptive(),
            UniformRandom(),
            SimulationConfig(seed=0, rng_streams="mixed"),
        )
        states = {
            sim.traffic_rng.getstate()[1],
            sim.route_rng.getstate()[1],
            sim.injection_rng.getstate()[1],
        }
        assert len(states) == 3

    def test_mixed_uses_derive_seed(self):
        sim = Simulator(
            FlattenedButterfly(2, 2),
            MinimalAdaptive(),
            UniformRandom(),
            SimulationConfig(seed=7, rng_streams="mixed"),
        )
        assert (
            sim.route_rng.getstate()
            == random.Random(derive_seed(7, "route")).getstate()
        )

    def test_mixed_changes_results_but_not_equivalence(self):
        """Mixed streams give different trajectories than legacy, and
        both modes reproduce their frozen output."""
        legacy_series = assert_pinned("streams/legacy")[0]
        mixed_series = assert_pinned("streams/mixed")[0]
        assert legacy_series != mixed_series


class TestDrainMaxValidation:
    def test_equal_budget_rejected(self):
        sim = Simulator(
            FlattenedButterfly(2, 2), MinimalAdaptive(), UniformRandom()
        )
        with pytest.raises(ValueError, match="drain_max=300 must exceed"):
            sim.run_open_loop(0.1, warmup=100, measure=200, drain_max=300)

    def test_smaller_budget_rejected(self):
        sim = Simulator(
            FlattenedButterfly(2, 2), MinimalAdaptive(), UniformRandom()
        )
        with pytest.raises(ValueError, match="must exceed warmup\\+measure"):
            sim.run_open_loop(0.1, warmup=100, measure=200, drain_max=50)

    def test_rejected_run_does_not_consume_simulator(self):
        sim = Simulator(
            FlattenedButterfly(2, 2), MinimalAdaptive(), UniformRandom()
        )
        with pytest.raises(ValueError):
            sim.run_open_loop(0.1, warmup=100, measure=200, drain_max=100)
        # The guard fired before _consume, so the instance is reusable.
        result = sim.run_open_loop(0.1, warmup=20, measure=20, drain_max=500)
        assert result.cycles > 0


class TestFaultedBitIdentical:
    """Permanent link and router failures, sampled and explicit
    transient outages, and their combination, across all three
    compared topology families, reproduce their frozen output."""

    @pytest.mark.parametrize("name", [c[0] for c in FAULTED])
    def test_faulted_point(self, name):
        assert_pinned("faulted/" + name)

    def test_faulted_run_terminates_drain(self):
        """Undeliverable pairs never enter the network, so the drain
        phase completes even when the fault set severs many pairs."""
        _, result, *_ = assert_pinned("faulted/butterfly-links10-drain")
        # The labeled window drained well before drain_max (the run
        # would report saturated had undeliverable packets been allowed
        # to enter and wedge the drain).
        assert not result.saturated
        assert result.packets_undeliverable > 0


def _table_entries_match(sim):
    """Assert every route-table entry the simulator's algorithm can
    consult equals the routing function it memoizes, recomputed from
    the topology (and, under faults, from the fault set)."""
    algorithm = sim.algorithm
    topo = sim.topology
    table = shared_route_table(topo)
    assert algorithm._route_table is table

    def port(channel):
        return sim.engines[channel.src].port_for_channel(channel)

    routers = range(topo.num_routers)
    if hasattr(topo, "differing_dims"):
        for a in routers:
            for b in routers:
                if a == b:
                    continue
                candidates = [
                    channel
                    for d in topo.differing_dims(a, b)
                    for channel in topo.channels_between(
                        a, topo.neighbor(a, d, topo.coord_digit(b, d))
                    )
                ]
                vc, pairs = table.minimal(a, b)
                assert vc == topo.min_router_hops(a, b) - 1
                assert pairs == tuple((port(ch), ch) for ch in candidates)
                d = first_differing_dim(topo, a, b)
                dor = topo.channel_to(a, d, topo.coord_digit(b, d))
                assert table.dor_next(a, b) == (
                    port(dor), dor, topo.min_router_hops(a, b)
                )
                assert table.hops(a, b) == topo.min_router_hops(a, b)
    if hasattr(topo, "destination_tag_next"):
        for r in routers:
            if topo.stage_of(r) == topo.n - 1:
                continue
            for dst in range(topo.num_terminals):
                assert table.destination_tag_next(r, dst) == port(
                    topo.destination_tag_next(r, dst)
                )
    faults = sim.fault_set
    if faults is None or not hasattr(topo, "differing_dims"):
        return
    failed = faults.failed_channels
    minimal = getattr(algorithm, "_minimal", algorithm)
    for a in routers:
        for b in routers:
            if a == b:
                continue
            if hasattr(minimal, "_masked_minimal"):
                vc, pairs = table.minimal(a, b)
                assert minimal._masked_minimal(a, b) == (
                    vc,
                    tuple(
                        (p, ch) for p, ch in pairs
                        if ch.index not in failed
                        and minimal.minimally_reachable(ch.dst, b)
                    ),
                )
            if hasattr(algorithm, "_dor_hop"):
                d = first_differing_dim(topo, a, b)
                alive = [
                    ch
                    for ch in topo.channels_between(
                        a, topo.neighbor(a, d, topo.coord_digit(b, d))
                    )
                    if ch.index not in failed
                ]
                assert algorithm._dor_hop(a, b) == (
                    alive[0] if alive else None, topo.min_router_hops(a, b)
                )


class TestRouteTableParity:
    """The shared precomputed route table is a pure lookup cache."""

    @pytest.mark.parametrize(
        "topo_factory,algo_cls,faults",
        [c[1:] for c in ROUTE_TABLE],
        ids=[c[0] for c in ROUTE_TABLE],
    )
    def test_table_on_off_identical(self, topo_factory, algo_cls, faults):
        """Each table lookup (and each fault mask over it) equals the
        uncached computation from the topology, for every router pair."""
        sim = Simulator(
            topo_factory(),
            algo_cls(),
            UniformRandom(),
            SimulationConfig(seed=23, faults=faults),
            kernel="event",
        )
        _table_entries_match(sim)

    @pytest.mark.parametrize("name", [c[0] for c in ROUTE_TABLE])
    def test_table_matches_polling_kernel(self, name):
        """With tables on, the event kernel reproduces the frozen
        output of the polling kernel, which routed through un-tabled
        code."""
        assert_pinned("route-table/" + name)

    def test_table_shared_across_simulators(self):
        """One topology object yields one table, reused by every
        simulator (and algorithm instance) built on it."""
        topo = FlattenedButterfly(4, 2)
        algorithms = [MinimalAdaptive(), UGAL(), Valiant()]
        tables = set()
        for algorithm in algorithms:
            Simulator(topo, algorithm, UniformRandom(), SimulationConfig(seed=1))
            tables.add(id(algorithm._route_table))
        assert len(tables) == 1
        assert shared_route_table(topo) is algorithms[0]._route_table


class TestCreditStarvedWirePort:
    """The wire phase's handling of a staged output port whose every
    VC is credit-starved: it stays in the staged set and sends nothing
    until a credit returns."""

    def _starved_engine(self, kernel):
        sim = Simulator(
            FlattenedButterfly(4, 2),
            MinimalAdaptive(),
            UniformRandom(),
            SimulationConfig(seed=1),
            kernel=kernel,
        )
        engine = sim.engines[0]
        out = next(o for o in engine.out_ports if o.kind == CHANNEL_PORT)
        from repro.network.packet import Flit, Packet

        packet = Packet(0, 0, 9, sim.topology.ejection_router(9), 1, 0)
        flit = Flit(packet, True, True)
        out.staging[0].append(flit)
        engine._staged_ports[out] = None
        sim._wire_engines[engine.router_id] = engine
        saved_credits = list(out.credits)
        for vc in range(out.num_vcs):
            out.credits[vc] = 0
        return sim, engine, out, flit, saved_credits

    @pytest.mark.parametrize("kernel", EXACT_KERNELS)
    def test_starved_port_stays_staged(self, kernel):
        sim, engine, out, flit, saved = self._starved_engine(kernel)
        engine.wire_event(0)
        assert list(out.staging[0]) == [flit]
        assert out in engine._staged_ports
        assert engine.router_id in sim._wire_engines
        assert not sim.pipes[out.channel_index].flits

    @pytest.mark.parametrize("kernel", EXACT_KERNELS)
    def test_credit_return_releases_port(self, kernel):
        sim, engine, out, flit, saved = self._starved_engine(kernel)
        engine.wire_event(0)
        out.credits[0] = saved[0]
        engine.wire_event(1)
        pipe = sim.pipes[out.channel_index]
        assert not out.staging[0]
        assert len(pipe.flits) == 1
        arrival, sent, vc = pipe.flits[0]
        assert sent is flit
        assert vc == 0
        assert arrival == 1 + sim.config.channel_latency
        assert out.credits[0] == saved[0] - 1
        assert out not in engine._staged_ports
        assert engine.router_id not in sim._wire_engines
