"""Snooping protocols over the atomic bus: MESI and MOESI.

The classic SMP alternative to the paper's directory family: no
directory state anywhere — every miss arbitrates for the shared
:class:`~repro.noc.bus.Bus` and broadcasts its request, every L1
snoops every transaction (each request costs one tag probe in every
other tile, which is exactly the energy cliff that motivated
directories), and the bus's FCFS grant order is the global ordering
point.

The simulator keeps a per-block record of what the snoopers would
observe on the bus (the exclusive owner and the precise sharer mask);
this is bookkeeping, not protocol storage — the audit cross-checks it
against the actual L1 contents every round.

``mesi-snoop`` transitions:

* read miss — the owner (E/M) supplies cache-to-cache and downgrades
  to S; a dirty owner's data is snarfed by memory on the way past
  (MESI has no O state, so memory must be current while only S copies
  exist); with S copies only, *memory* supplies (S cannot forward);
  with no copies the requester fills E.
* write miss / upgrade — the GETX broadcast invalidates every snooped
  copy; the owner (else memory) supplies unless the requester already
  held an S copy.

``moesi-snoop`` adds the O state: a dirty owner answering a read keeps
its data, moving M -> O (no memory write-back — the paper's DiCo
family inherits exactly this trick), supplies every later read while
staying O, and only writes memory back when the O line is evicted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ...noc.bus import Bus
from ..messages import MessageType
from ..states import L1State
from .base import CoherenceProtocol, L1Line, L2Line, iter_bits
from .registry import register_protocol

__all__ = ["MesiSnoopProtocol", "MoesiSnoopProtocol"]


@dataclass(slots=True)
class _SnoopState:
    """What the snoopers collectively know about one block."""

    owner: Optional[int] = None  #: tile holding the block in E/M (or O)
    sharers: int = 0  #: precise bitmask of S-state holders


class _SnoopProtocolBase(CoherenceProtocol):
    """Shared machinery of the two bus protocols."""

    def __init__(self, config, seed: int = 0, checker=None) -> None:
        super().__init__(config, seed=seed, checker=checker)
        self.bus = Bus(config.n_tiles, config.noc)
        #: per-block snoop outcome record (owner + precise sharer mask)
        self._snoop: Dict[int, _SnoopState] = {}

    # -- bus helpers ---------------------------------------------------

    def _snoop_probe(self, tile: int) -> None:
        """Every other tile's L1 tag array snoops the request."""
        for t, l1 in enumerate(self.l1s):
            if t != tile:
                l1.stats.tag_reads += 1

    def _state(self, block: int) -> _SnoopState:
        d = self._snoop.get(block)
        if d is None:
            d = self._snoop[block] = _SnoopState()
        return d

    def _memory_snarf(self, block: int, version: int) -> None:
        """Memory picks the dirty data off the bus (no extra packet)."""
        self.stats.writebacks += 1
        self._mem_version[block] = version

    def _mem_service(self, tile: int, block: int) -> int:
        """Memory answers the bus request; returns the access latency."""
        self.stats.memory_fetches += 1
        return self.memctl.access_latency(tile)

    # -- read misses ---------------------------------------------------

    def _handle_read_miss(self, tile: int, block: int, now: int) -> Tuple[int, int, str]:
        t = self.config.l1.tag_latency
        d = self._state(block)
        self._snoop_probe(tile)
        if d.owner is not None:
            owner_line = self.l1s[d.owner].peek(block)
            assert owner_line is not None, "snoop owner without an L1 line"
            service = self.config.l1.access_latency
            self.l1s[d.owner].charge_data_read()
            version = owner_line.version
            self._owner_snoop_read(tile, block, d, owner_line)
            category = "unpredicted_fwd"
        else:
            # S copies cannot forward (no F state); memory is current
            # whenever the chip holds no owner, and supplies
            service = self._mem_service(tile, block)
            version = self.mem_version(block)
            category = "memory"
        grant = self.bus.transaction(
            (MessageType.GETS, MessageType.DATA), now,
            service_cycles=service, src=tile,
        )
        t += grant.latency
        if d.owner is None and not d.sharers:
            # sole copy on chip: fill exclusive
            d.owner = tile
            self.fill_l1(
                tile, block, L1Line(state=L1State.E, version=version), now
            )
        else:
            d.sharers |= 1 << tile
            self.fill_l1(
                tile, block, L1Line(state=L1State.S, version=version), now
            )
        self.checker.check_read(
            block, version, where=self._l1_names[tile], now=now, tile=tile
        )
        self.set_busy(block, now + t)
        # two packets crossed the single shared medium
        return t, 2, category

    def _owner_snoop_read(
        self, tile: int, block: int, d: _SnoopState, owner_line: L1Line
    ) -> None:
        """Downgrade the owner after it supplied a snooped GetS."""
        raise NotImplementedError

    # -- write misses --------------------------------------------------

    def _handle_write_miss(
        self, tile: int, block: int, now: int, had_copy: bool
    ) -> Tuple[int, int, str]:
        t = self.config.l1.tag_latency
        d = self._state(block)
        self._snoop_probe(tile)
        service = 0
        links = 1
        version: Optional[int] = None
        category = "unpredicted_home"
        invalidated = 0

        if d.owner is not None and d.owner != tile:
            owner = d.owner
            owner_line = self.drop_l1(owner, block)
            assert owner_line is not None, "snoop owner without an L1 line"
            version = owner_line.version
            invalidated += 1
            if not had_copy:
                service = self.config.l1.access_latency
                self.l1s[owner].charge_data_read()
                category = "unpredicted_fwd"
        for sharer in iter_bits(d.sharers):
            if sharer == tile:
                continue
            self.drop_l1(sharer, block)
            invalidated += 1
        if invalidated:
            self.stats.broadcast_invalidations += 1

        msg_types = [MessageType.GETX]
        if not had_copy and category != "unpredicted_fwd":
            # no owner to supply: memory answers on the bus
            service = self._mem_service(tile, block)
            version = self.mem_version(block)
            category = "memory"
        if not had_copy:
            msg_types.append(MessageType.DATA)
            links = 2

        grant = self.bus.transaction(
            tuple(msg_types), now, service_cycles=service, src=tile
        )
        t += grant.latency

        new_version = self.checker.commit_write(block)
        d.owner = tile
        d.sharers = 0
        self._write_line(tile, block, new_version, now)
        self.set_busy(block, now + t)
        return t, links, category

    # -- evictions -----------------------------------------------------

    def _evict_l1_line(self, tile: int, block: int, line: L1Line, now: int) -> None:
        d = self._snoop.get(block)
        if line.state is L1State.S:
            if d is not None:
                d.sharers &= ~(1 << tile)
            return
        # owner states: the snoop record must agree
        assert d is not None and d.owner == tile, "owner eviction unseen by snoopers"
        d.owner = None
        if line.dirty:
            self.bus.transaction((MessageType.WRITEBACK,), now, src=tile)
            self._memory_snarf(block, line.version)
        # clean E (or clean O after a snarfed downgrade): memory already
        # holds this version; the line dies silently

    def _evict_l2_entry(self, home: int, block: int, entry: L2Line, now: int) -> None:
        raise AssertionError("snoop protocols never fill the L2 banks")

    # -- statistics ----------------------------------------------------

    def reset_stats(self) -> None:
        super().reset_stats()
        self.bus.reset_stats()

    def finalize_stats(self, cycles: int):
        st = super().finalize_stats(cycles)
        st.network.merge(self.bus.stats)
        return st

    # -- audit ---------------------------------------------------------

    def _audit_owner_states(self) -> frozenset:
        raise NotImplementedError

    def _directory_audit(
        self,
        block: int,
        holders: Sequence[Tuple[int, L1Line]],
        now: Optional[int] = None,
    ) -> None:
        d = self._snoop.get(block)
        owner_states = self._audit_owner_states()
        owners = [(t, l) for t, l in holders if l.state in owner_states]
        sharer_mask = 0
        for t, line in holders:
            if line.state is L1State.S:
                sharer_mask |= 1 << t
            elif line.state not in owner_states:
                self._audit_fail(
                    block, f"L1[{t}] holds illegal snoop state {line.state.name}", now
                )
        if len(owners) > 1:
            self._audit_fail(
                block,
                f"multiple bus owners: {[t for t, _ in owners]}",
                now,
            )
        owner_tile = owners[0][0] if owners else None
        rec_owner = d.owner if d is not None else None
        rec_sharers = d.sharers if d is not None else 0
        if rec_owner is not None and rec_owner in self._inactive_tiles:
            self._audit_fail(
                block,
                f"snoop record owner names inactive tile {rec_owner} "
                "(stale after consolidation)",
                now,
            )
        if rec_owner != owner_tile:
            self._audit_fail(
                block,
                f"snoop record owner {rec_owner} != actual owner {owner_tile}",
                now,
            )
        if rec_sharers != sharer_mask:
            self._audit_fail(
                block,
                f"snoop record sharers {rec_sharers:#x} != actual {sharer_mask:#x}",
                now,
            )
        if owners and owners[0][1].state in (L1State.E, L1State.M) and len(holders) > 1:
            self._audit_fail(
                block, "exclusive owner coexists with other copies", now
            )
        if holders and owner_tile is None:
            # bus serialization: with no owner on chip, memory is the
            # ordering point and must hold the copies' version
            if self.mem_version(block) != holders[0][1].version:
                self._audit_fail(
                    block,
                    f"unowned copies at version {holders[0][1].version} but "
                    f"memory holds {self.mem_version(block)}",
                    now,
                )
        home = block & self._home_mask
        if self.l2s[home].peek(block) is not None:
            self._audit_fail(block, "snoop protocol filled an L2 bank", now)


@register_protocol(
    "mesi-snoop",
    family="snoop",
    transport="bus",
    aliases=("mesi",),
    description="MESI over the arbitrated atomic snooping bus",
)
class MesiSnoopProtocol(_SnoopProtocolBase):
    name = "mesi-snoop"

    def _audit_owner_states(self) -> frozenset:
        return frozenset((L1State.E, L1State.M))

    def _owner_snoop_read(
        self, tile: int, block: int, d: _SnoopState, owner_line: L1Line
    ) -> None:
        owner = d.owner
        assert owner is not None
        if owner_line.dirty:
            # MESI: no O state — memory snarfs the dirty data so it is
            # current while only S copies remain
            self._memory_snarf(block, owner_line.version)
        self.trace_transition(
            owner, block, owner_line.state.name, "S", "snoop_downgrade"
        )
        owner_line.state = L1State.S
        owner_line.dirty = False
        d.sharers |= 1 << owner
        d.owner = None


@register_protocol(
    "moesi-snoop",
    family="snoop",
    transport="bus",
    aliases=("moesi",),
    description="MOESI snooping: dirty owners supply without memory write-backs",
)
class MoesiSnoopProtocol(_SnoopProtocolBase):
    name = "moesi-snoop"

    def _audit_owner_states(self) -> frozenset:
        return frozenset((L1State.E, L1State.M, L1State.O))

    def _owner_upgrade_is_local(self, block: int, line: L1Line) -> bool:
        # O lines keep line.sharers == 0; the snoop record is the truth
        d = self._snoop.get(block)
        return d is None or d.sharers == 0

    def _owner_snoop_read(
        self, tile: int, block: int, d: _SnoopState, owner_line: L1Line
    ) -> None:
        owner = d.owner
        assert owner is not None
        if owner_line.state is L1State.M:
            # keep the dirty data on chip: M -> O, no memory write-back
            self.trace_transition(owner, block, "M", "O", "snoop_gets")
            owner_line.state = L1State.O
        elif owner_line.state is L1State.E:
            # clean: memory is current, no owner needed
            self.trace_transition(owner, block, "E", "S", "snoop_downgrade")
            owner_line.state = L1State.S
            d.sharers |= 1 << owner
            d.owner = None
        # O owners stay O and keep supplying

    def _evict_l1_line(self, tile: int, block: int, line: L1Line, now: int) -> None:
        if line.state is L1State.O:
            # the O line carried the only current data; write it back so
            # the surviving (ownerless) S copies match memory
            d = self._snoop.get(block)
            assert d is not None and d.owner == tile
            d.owner = None
            self.bus.transaction((MessageType.WRITEBACK,), now, src=tile)
            self._memory_snarf(block, line.version)
            return
        super()._evict_l1_line(tile, block, line, now)
