"""UGAL and UGAL-S on the flattened butterfly.

"UGAL chooses between MIN AD and VAL on a packet-by-packet basis to
minimize the estimated delay for each packet.  The product of queue
length and hop count is used as an estimate of delay." (Section 3.1)

The choice is made once, at the packet's source router.  Minimal
packets are thereafter routed exactly like MIN AD (adaptive, VC =
hops-remaining - 1); non-minimal packets are routed exactly like VAL
(dimension order to a random intermediate router on a dedicated
top-priority VC, then dimension order to the destination on the
hops-remaining VCs).  ``n' + 1`` virtual channels suffice: VC priority
strictly decreases along every route, so the channel-dependency graph
is acyclic.  For the paper's one-dimensional evaluation network this is
the familiar two-VC configuration.

UGAL uses a greedy allocator; UGAL-S is identical but with a
sequential allocator, which removes the transient load imbalance of
greedy allocation (Figure 5).
"""

from __future__ import annotations

from typing import Tuple

from ...topologies.hyperx import HyperX
from .base import RoutingAlgorithm
from .min_adaptive import MinimalAdaptive
from .table import shared_route_table

PHASE_TO_INTERMEDIATE = 0
PHASE_TO_DESTINATION = 1


class UGAL(RoutingAlgorithm):
    """UGAL with a greedy allocator.

    Args:
        threshold: minimal-path bias in flits.  The packet routes
            minimally unless the Valiant estimate undercuts the minimal
            estimate by more than this margin, preventing misroutes on
            marginal (single-flit) queue differences at low load.
    """

    name = "UGAL"
    sequential = False
    # Packets sent the Valiant way may pass through their destination
    # router en route to the intermediate (see Valiant.inline_eject).
    inline_eject = False

    def __init__(self, threshold: int = 1) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self.threshold = threshold

    def attach(self, simulator) -> None:
        super().attach(simulator)
        if not isinstance(self.topology, HyperX):
            raise TypeError(f"{self.name} requires a HyperX-family topology")
        # One VC per remaining-hop level plus a dedicated VC for the
        # Valiant to-intermediate phase.
        self.num_vcs = self.topology.num_dims + 1
        self._minimal = MinimalAdaptive()
        self._minimal.attach(simulator)
        self._route_table = shared_route_table(self.topology)

    def on_packet_created(self, packet) -> None:
        packet.minimal = None
        packet.phase = PHASE_TO_INTERMEDIATE

    # ------------------------------------------------------------------
    def _decide(self, engine, packet) -> None:
        """Source-router choice between minimal and Valiant routing.

        The minimal estimate is MIN AD's candidate choice; the Valiant
        estimate uses one uniformly random intermediate router.  Route
        RNG draws, in order: the reservoir tie-breaks of the minimal
        choice, then the intermediate.
        """
        current = engine.router_id
        dst = packet.dst_router
        rng = self.rng
        table = self._route_table
        vc_min, candidates = table.minimal(current, dst)
        h_min = vc_min + 1
        # Inline pick_min_cost over (occ, 0, port): constant secondary
        # key, so identical comparisons and one reservoir draw per tie;
        # only the chosen candidate's cost (the best cost) is needed.
        out_ports = engine.out_ports
        q_min = None
        for p, _ch in candidates:
            cost = out_ports[p].occ
            if q_min is None or cost < q_min:
                q_min = cost
            elif cost == q_min:
                rng.random()
        intermediate = rng.randrange(self.topology.num_routers)
        if intermediate in (current, dst):
            # Degenerate intermediate: the non-minimal path collapses
            # onto the minimal one, so route minimally.
            packet.minimal = True
            return
        h_val = table.hops(current, intermediate) + table.hops(intermediate, dst)
        q_val = out_ports[table.dor_next(current, intermediate)[0]].occ
        if q_min * h_min <= q_val * h_val + self.threshold:
            packet.minimal = True
        else:
            packet.minimal = False
            packet.intermediate = intermediate

    def route(self, engine, packet) -> Tuple[int, int]:
        """Decide at the source router, then route minimal packets like
        MIN AD and Valiant packets by dimension order (to-intermediate
        phase on the top VC, then hops-remaining VCs)."""
        table = self._route_table
        current = engine.router_id
        if packet.minimal is None:
            if current == packet.dst_router:
                return engine.ejection_port(packet.dst), 0
            self._decide(engine, packet)
        if packet.minimal:
            return self._minimal.route(engine, packet)
        if packet.phase == PHASE_TO_INTERMEDIATE and current == packet.intermediate:
            packet.phase = PHASE_TO_DESTINATION
        if packet.phase == PHASE_TO_DESTINATION and current == packet.dst_router:
            return engine.ejection_port(packet.dst), 0
        if packet.phase == PHASE_TO_INTERMEDIATE:
            return (
                table.dor_next(current, packet.intermediate)[0],
                self.topology.num_dims,
            )
        port, _channel, remaining = table.dor_next(current, packet.dst_router)
        return port, remaining - 1


class UGALSequential(UGAL):
    """UGAL-S: UGAL with a sequential allocator (Section 3.1)."""

    name = "UGAL-S"
    sequential = True
