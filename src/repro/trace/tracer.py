"""The :class:`Tracer` — the one object instrumented code talks to.

Instrumented classes (``CoherenceProtocolBase``, ``Network``,
``SetAssocCache``) each carry a ``_trace`` attribute that is ``None``
by default; :func:`repro.api.attach_tracer` points them all at one
shared ``Tracer``.  Hot paths therefore pay a single ``is not None``
test when tracing is off, and nothing at all on the L1 read-hit path
(which never consults ``_trace``).

Timing note: protocol helpers sometimes pass ``now=0`` into the
network (e.g. ``mem_fetch`` scheduling), so the tracer never trusts a
caller-supplied ``now`` — it stamps every event from a *clock
callable* that reads the simulator's current cycle.

Address attribution: ``Network.send`` has no address parameter, so the
protocol sets ``tracer.ctx = (tile, block)`` when it starts servicing
a miss (and temporarily switches it to the victim block around
eviction hooks).  NoC and cache events inherit the block from that
context.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from .events import TraceEvent
from .sink import TraceSink

__all__ = ["Tracer"]


class Tracer:
    """Stamps, contextualises and forwards trace events to a sink."""

    __slots__ = ("sink", "clock", "ctx")

    def __init__(self, sink: TraceSink, clock: Callable[[], int]) -> None:
        self.sink = sink
        self.clock = clock
        #: ``(tile, block)`` of the miss currently being serviced, or None
        self.ctx: Optional[Tuple[int, int]] = None

    # -- protocol layer -------------------------------------------------

    def transition(
        self,
        tile: int,
        addr: int,
        state_from: str,
        state_to: str,
        cause: str,
    ) -> None:
        """An L1 line at ``tile`` moved ``state_from`` -> ``state_to``."""
        self.sink.emit(
            TraceEvent(
                self.clock(),
                "protocol",
                "transition",
                tile,
                addr,
                {"from": state_from, "to": state_to, "cause": cause},
            )
        )

    # -- noc layer ------------------------------------------------------

    def noc_send(
        self,
        src: int,
        dst: int,
        msg_type: str,
        flits: int,
        hops: int,
        latency: int,
    ) -> None:
        """A unicast entered the mesh; a matching ``deliver`` follows."""
        tile, addr = self.ctx or (None, None)
        cycle = self.clock()
        self.sink.emit(
            TraceEvent(
                cycle,
                "noc",
                "send",
                tile,
                addr,
                {
                    "src": src,
                    "dst": dst,
                    "msg_type": msg_type,
                    "flits": flits,
                    "hops": hops,
                    "latency": latency,
                },
            )
        )
        self.sink.emit(
            TraceEvent(
                cycle + latency,
                "noc",
                "deliver",
                tile,
                addr,
                {"src": src, "dst": dst, "msg_type": msg_type},
            )
        )

    def noc_local(self, src: int, msg_type: str, flits: int) -> None:
        """A tile messaged itself; the message never enters the mesh."""
        tile, addr = self.ctx or (None, None)
        self.sink.emit(
            TraceEvent(
                self.clock(),
                "noc",
                "local",
                tile,
                addr,
                {"src": src, "msg_type": msg_type, "flits": flits},
            )
        )

    def noc_broadcast(
        self,
        src: int,
        msg_type: str,
        flits: int,
        links: int,
        depth: int,
        latency: int,
    ) -> None:
        """A tree broadcast crossed ``links`` mesh links."""
        tile, addr = self.ctx or (None, None)
        self.sink.emit(
            TraceEvent(
                self.clock(),
                "noc",
                "broadcast",
                tile,
                addr,
                {
                    "src": src,
                    "msg_type": msg_type,
                    "flits": flits,
                    "links": links,
                    "depth": depth,
                    "latency": latency,
                },
            )
        )

    # -- cache layer ----------------------------------------------------

    def cache_event(self, structure: str, event: str, block: int) -> None:
        """A ``fill`` / ``evict`` / ``invalidate`` on one array."""
        self.sink.emit(
            TraceEvent(
                self.clock(),
                "cache",
                event,
                None,
                block,
                {"structure": structure},
            )
        )

    # -- consolidation layer --------------------------------------------

    def consolidation(
        self,
        kind: str,
        vm: int,
        tiles: Tuple[int, ...] = (),
        pages: int = 0,
        moved: int = 0,
        flushed: int = 0,
    ) -> None:
        """A dynamic-consolidation event fired (``vm_migrate``,
        ``vm_depart``, ``vm_arrive``, ``dedup_break``, ``dedup_merge``)
        with its effect counters — blocks moved/flushed, pages churned.
        """
        self.sink.emit(
            TraceEvent(
                self.clock(),
                "consolidation",
                kind,
                None,
                None,
                {
                    "vm": vm,
                    "tiles": list(tiles),
                    "pages": pages,
                    "moved": moved,
                    "flushed": flushed,
                },
            )
        )

    # -- run layer ------------------------------------------------------

    def marker(self, name: str) -> None:
        """A run-lifecycle marker (e.g. ``reset_stats`` after warmup)."""
        self.sink.emit(TraceEvent(self.clock(), "run", "marker", None, None, {"name": name}))

    def close(self) -> None:
        self.sink.close()
