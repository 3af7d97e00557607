"""Network layer: message delivery, traffic accounting, broadcast.

Every coherence message the protocols exchange goes through
:class:`Network`, which

* computes the delivery latency from the mesh constants (plus optional
  link contention),
* accumulates traffic statistics for the power model: flit·link
  traversals (link energy) and router traversals (routing energy),
* supports tree broadcasts, used by DiCo-Arin's three-phase
  invalidation.

The default mode matches the paper's "in absence of contention"
latency.  When ``NocConfig.model_contention`` is set, a per-link
next-free-time table adds queueing delay: each packet occupies every
link of its path for ``flits`` cycles.  This is a deliberately simple
wormhole approximation used only for the contention ablation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from .topology import Mesh

__all__ = ["Delivery", "NetworkStats", "Network"]


@dataclass(frozen=True)
class Delivery:
    """Outcome of injecting a packet."""

    latency: int  # cycles from injection to full reception
    hops: int
    flits: int


class NetworkStats:
    """Traffic counters feeding the dynamic power model.

    ``messages`` counts packets that actually enter the NoC;
    intra-tile requests (``src == dst``) are tallied separately in
    ``local_messages`` and contribute nothing to ``by_type`` /
    ``flits_by_type``, so the per-type flit totals match real NoC
    injections.
    """

    __slots__ = (
        "messages",
        "local_messages",
        "flit_link_traversals",
        "router_traversals",
        "routing_events",
        "broadcasts",
        "bus_transactions",
        "bus_flit_traversals",
        "bus_busy_cycles",
        "bus_wait_cycles",
        "by_type",
        "flits_by_type",
        "link_load",
    )

    def __init__(self) -> None:
        self.messages = 0
        #: self-sends: delivered at zero cost without entering the NoC
        self.local_messages = 0
        self.flit_link_traversals = 0
        self.router_traversals = 0
        #: message-routing events: one per unicast packet that enters
        #: the NoC, one per tree link on broadcasts (the Barrow-Williams
        #: model charges "routing a message" at this granularity)
        self.routing_events = 0
        self.broadcasts = 0
        #: snoop-bus transport (see :class:`repro.noc.bus.Bus`): granted
        #: transactions, flit·segment traversals (each flit is seen by
        #: every snooper), cycles the bus was held, cycles requesters
        #: spent queued behind the FCFS arbiter
        self.bus_transactions = 0
        self.bus_flit_traversals = 0
        self.bus_busy_cycles = 0
        self.bus_wait_cycles = 0
        self.by_type: Dict[str, int] = defaultdict(int)
        self.flits_by_type: Dict[str, int] = defaultdict(int)
        self.link_load: Dict[Tuple[int, int], int] = defaultdict(int)

    def merge(self, other: "NetworkStats") -> None:
        self.messages += other.messages
        self.local_messages += other.local_messages
        self.flit_link_traversals += other.flit_link_traversals
        self.router_traversals += other.router_traversals
        self.routing_events += other.routing_events
        self.broadcasts += other.broadcasts
        self.bus_transactions += other.bus_transactions
        self.bus_flit_traversals += other.bus_flit_traversals
        self.bus_busy_cycles += other.bus_busy_cycles
        self.bus_wait_cycles += other.bus_wait_cycles
        for k, v in other.by_type.items():
            self.by_type[k] += v
        for k, v in other.flits_by_type.items():
            self.flits_by_type[k] += v
        for k, v in other.link_load.items():
            self.link_load[k] += v

    def snapshot(self) -> Dict[str, int]:
        return {
            "messages": self.messages,
            "local_messages": self.local_messages,
            "flit_link_traversals": self.flit_link_traversals,
            "router_traversals": self.router_traversals,
            "routing_events": self.routing_events,
            "broadcasts": self.broadcasts,
            "bus_transactions": self.bus_transactions,
            "bus_flit_traversals": self.bus_flit_traversals,
            "bus_busy_cycles": self.bus_busy_cycles,
            "bus_wait_cycles": self.bus_wait_cycles,
        }


class Network:
    """Message transport over a :class:`Mesh` with traffic accounting."""

    def __init__(self, mesh: Mesh, track_link_load: bool = False) -> None:
        self.mesh = mesh
        self.stats = NetworkStats()
        self.track_link_load = track_link_load
        self._link_free: Dict[Tuple[int, int], int] = {}
        # without contention a packet's Delivery depends only on (hops,
        # flits): intern the (few dozen) distinct outcomes so the hot
        # path never constructs dataclass instances
        self._delivery_cache: Dict[Tuple[int, int], Delivery] = {}
        # hot-path constants: the geometry is frozen, so hop counts come
        # straight from the mesh's flat table and the detailed path
        # (route materialization) collapses to one precomputed flag
        self._hops_flat = mesh._build_hops_table()
        self._n_tiles = mesh.n_tiles
        self._hop_cycles = mesh._hop_cycles
        self._detailed = track_link_load or mesh.noc.model_contention
        #: observability hook (:class:`repro.trace.Tracer`); ``None``
        #: keeps send/broadcast at one ``is not None`` test each
        self._trace = None

    @property
    def contention(self) -> bool:
        return self.mesh.noc.model_contention

    def control_flits(self) -> int:
        return self.mesh.noc.control_flits

    def data_flits(self) -> int:
        return self.mesh.noc.data_flits

    # ------------------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        flits: int,
        msg_type: str = "msg",
        now: int = 0,
    ) -> Delivery:
        """Deliver one unicast packet; returns latency and accounting.

        A self-send (``src == dst``) costs zero network cycles and no
        traffic — intra-tile requests never enter the NoC.  It counts
        in ``local_messages`` only, so ``messages``/``by_type``/
        ``flits_by_type`` reflect actual NoC injections.
        """
        hops = self._hops_flat[src * self._n_tiles + dst]
        st = self.stats
        if hops == 0:
            st.local_messages += 1
            if self._trace is not None:
                self._trace.noc_local(src, msg_type, flits)
            cache = self._delivery_cache
            d = cache.get((0, flits))
            if d is None:
                d = cache[(0, flits)] = Delivery(latency=0, hops=0, flits=flits)
            return d
        st.messages += 1
        st.by_type[msg_type] += 1
        st.flits_by_type[msg_type] += flits
        st.flit_link_traversals += flits * hops
        st.router_traversals += hops
        st.routing_events += 1
        if self._detailed:
            mesh = self.mesh
            latency = hops * self._hop_cycles + flits - 1
            route = mesh.route(src, dst)
            if self.track_link_load:
                for link in route:
                    st.link_load[link] += flits
            if mesh.noc.model_contention:
                latency += self._contention_delay(route, flits, now)
            d = Delivery(latency=latency, hops=hops, flits=flits)
        else:
            cache = self._delivery_cache
            d = cache.get((hops, flits))
            if d is None:
                d = cache[(hops, flits)] = Delivery(
                    latency=hops * self._hop_cycles + flits - 1,
                    hops=hops,
                    flits=flits,
                )
        if self._trace is not None:
            self._trace.noc_send(src, dst, msg_type, flits, hops, d.latency)
        return d

    def _contention_delay(
        self, route: Sequence[Tuple[int, int]], flits: int, now: int
    ) -> int:
        """Queueing delay of a packet that occupies each link for
        ``flits`` cycles, walking the path link by link."""
        delay = 0
        t = now
        hop_cycles = self.mesh.hop_cycles
        link_free = self._link_free
        for link in route:
            free = link_free.get(link, 0)
            wait = max(0, free - t)
            delay += wait
            t += wait + hop_cycles
            link_free[link] = t - hop_cycles + flits
        return delay

    # ------------------------------------------------------------------

    def broadcast(
        self,
        src: int,
        flits: int,
        msg_type: str = "bcast",
        now: int = 0,
    ) -> Delivery:
        """Tree broadcast from ``src`` to every tile of the chip.

        Traffic cost: ``flits`` on each of the ``n_tiles - 1`` tree
        links and one router traversal per tile reached.  Latency is the
        depth of the tree (the farthest tile).
        """
        links, depth = self.mesh.broadcast_tree(src)
        st = self.stats
        st.messages += 1
        st.broadcasts += 1
        st.by_type[msg_type] += 1
        st.flits_by_type[msg_type] += flits * max(1, len(links))
        st.flit_link_traversals += flits * len(links)
        st.router_traversals += len(links)
        st.routing_events += len(links)
        if self.track_link_load:
            for link in links:
                st.link_load[link] += flits
        latency = self.mesh.broadcast_latency(src, flits)
        if self._trace is not None:
            self._trace.noc_broadcast(
                src, msg_type, flits, len(links), depth, latency
            )
        return Delivery(latency=latency, hops=depth, flits=flits)

    def multicast(
        self,
        src: int,
        dsts: Iterable[int],
        flits: int,
        msg_type: str = "mcast",
        now: int = 0,
    ) -> Delivery:
        """Send the same packet to several destinations as unicasts.

        Coherence invalidations to a sharer list are independent
        unicast packets in the baseline protocols.  Latency is the
        maximum of the individual deliveries (they travel in parallel).
        """
        worst = Delivery(latency=0, hops=0, flits=flits)
        for dst in dsts:
            d = self.send(src, dst, flits, msg_type=msg_type, now=now)
            if d.latency > worst.latency:
                worst = d
        return worst

    def reset_stats(self) -> None:
        self.stats = NetworkStats()
        self._link_free.clear()
