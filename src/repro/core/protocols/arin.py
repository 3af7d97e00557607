"""DiCo-Arin (Sec. III-B / IV-B of the paper).

The simplified area protocol.  Per-block behaviour splits into two
regimes:

* **intra-area** — while all copies of a block live in one area the
  protocol behaves exactly like DiCo: an owner L1 (or the home L2)
  orders accesses and tracks the sharers of the area with an
  area-local bit vector.
* **inter-area** — the first read from a remote area dissolves the
  ownership: the former owner becomes a *provider*, sends the data to
  the home L2 (which becomes a provider itself and the ordering point),
  and from then on the block is always present in the home L2.  The
  home keeps one ProPo per area; every L1 that receives a copy becomes
  a provider (the Sec. IV-B optimization, toggleable via
  ``provider_on_read``).  No precise sharer information exists, so
  invalidations use the **three-phase broadcast**: block → ack →
  unblock (Sec. IV-B1).

Provider evictions are silent; stale home ProPos self-heal when a
forwarded request reaches the home ("if the provider stored for the
area matches the forwarder, the requestor replaces it").
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ...sim.config import ChipConfig
from ..checker import CoherenceChecker
from ..messages import MessageType
from ..states import L1State
from .base import L1Line, L2Line
from .dico import DiCoProtocol

__all__ = ["DiCoArinProtocol"]


class DiCoArinProtocol(DiCoProtocol):
    name = "dico-arin"

    def __init__(
        self,
        config: ChipConfig,
        seed: int = 0,
        checker: Optional[CoherenceChecker] = None,
        provider_on_read: bool = True,
    ) -> None:
        super().__init__(config, seed=seed, checker=checker)
        #: Sec. IV-B optimization: every copy of an inter-area block is
        #: handed out as a provider, not a plain sharer
        self.provider_on_read = provider_on_read

    # ------------------------------------------------------------------
    # reads at an L1 (owner or provider)

    def _read_at_l1(
        self, holder: int, requestor: int, block: int, now: int
    ) -> Optional[Tuple[int, int, str]]:
        line = self.l1s[holder].lookup(block)
        if line is None:
            return None

        if line.state is L1State.P:
            # inter-area provider: serves any read
            t = self.config.l1.access_latency
            self.l1s[holder].charge_data_read()
            data = self.msg(holder, requestor, MessageType.DATA, now)
            self.checker.check_read(block, line.version, where=self._l1_names[requestor])
            state = L1State.P if self.provider_on_read else L1State.S
            # the supplier identity is retained even though the copy
            # itself can provide: once this copy is evicted, the L1C$
            # still knows a likely provider (Fig. 5)
            self.fill_l1(
                requestor,
                block,
                L1Line(state=state, version=line.version),
                now,
                supplier=holder,
            )
            return t + data.latency, data.hops, "pred_provider_hit"

        if line.state not in (L1State.E, L1State.M, L1State.O):
            return None

        if self.areas.same_area(holder, requestor):
            # intra-area: plain DiCo owner service
            return self._supply_copy(holder, requestor, block, line, now)

        # remote-area read: the ownership dissolves (Sec. III-B)
        return self._dissolve_ownership(holder, requestor, block, line, now)

    def _dissolve_ownership(
        self, owner: int, requestor: int, block: int, line: L1Line, now: int
    ) -> Tuple[int, int, str]:
        """First remote-area read: owner → provider, data → home L2."""
        home = (block & self._home_mask)
        t = self.config.l1.access_latency
        self.l1s[owner].charge_data_read()
        data = self.msg(owner, requestor, MessageType.DATA, now)
        self.checker.check_read(block, line.version, where=self._l1_names[requestor])
        # ship the data to the home unless the home already has it
        entry = self.l2s[home].peek(block)
        if entry is None or not entry.has_data:
            self.msg(owner, home, MessageType.DATA, now)
        propos = {
            self.areas.area_of(owner): owner,
            self.areas.area_of(requestor): requestor,
        }
        new_entry = L2Line(
            has_data=True,
            dirty=line.dirty,
            version=line.version,
            is_owner=False,
            inter_area=True,
            propos=propos,
        )
        self.trace_transition(
            owner, block, line.state.name, "P", "ownership_dissolve"
        )
        line.state = L1State.P
        line.dirty = False
        line.sharers = 0
        self._clear_l1_owner(block)
        self.fill_l2(home, block, new_entry, now)
        state = L1State.P if self.provider_on_read else L1State.S
        self.fill_l1(
            requestor,
            block,
            L1Line(state=state, version=new_entry.version),
            now,
            supplier=owner,  # the former owner is now a provider
        )
        return t + data.latency, data.hops, "pred_owner_hit"

    # ------------------------------------------------------------------
    # reads at the home

    def _read_at_home(
        self, tile: int, block: int, now: int, forwarder: Optional[int]
    ) -> Tuple[int, int, str]:
        home = (block & self._home_mask)
        t = self._l2_tag_lat
        links = 0
        owner = self._owner_tile(block)
        if owner is not None:
            fwd = self.msg(home, owner, MessageType.FWD_GETS, now)
            t += fwd.latency
            links += fwd.hops
            served = self._read_at_l1(owner, tile, block, now)
            assert served is not None, "L2C$ pointed at a non-owner"
            lat, hops, _ = served
            return t + lat, links + hops, "unpredicted_fwd"

        entry = self.l2s[home].lookup(block)
        if entry is not None and entry.inter_area:
            lat, hops, cat = self._serve_inter_area(
                home, tile, block, entry, forwarder, now
            )
        elif entry is not None and entry.is_owner:
            lat, hops, cat = self._serve_home_owned(home, tile, block, entry, now)
        else:
            return self._read_from_memory(home, tile, block, now)
        return t + lat, links + hops, cat

    def _serve_inter_area(
        self,
        home: int,
        tile: int,
        block: int,
        entry: L2Line,
        forwarder: Optional[int],
        now: int,
    ) -> Tuple[int, int, str]:
        """Inter-area blocks are always served by the home L2."""
        assert entry.has_data, "inter-area blocks always hold data at the home"
        t = self._l2_data_read(home)
        data = self.msg(home, tile, MessageType.DATA, now)
        t += data.latency
        self.checker.check_read(block, entry.version, where=self._l1_names[tile])
        area_r = self.areas.area_of(tile)
        # stale-provider healing: the forwarder is evidently no longer a
        # provider, so the requestor replaces it (Sec. IV-B)
        if forwarder is not None:
            area_f = self.areas.area_of(forwarder)
            if entry.propos.get(area_f) == forwarder:
                del entry.propos[area_f]
        known_provider = entry.propos.get(area_r)
        if known_provider is None:
            entry.propos[area_r] = tile
        # the home sends the provider identity of the requestor's area
        # along with the data so the L1C$ can be primed (Sec. IV-B)
        supplier = known_provider
        if self.provider_on_read or known_provider is None:
            state = L1State.P
        else:
            state = L1State.S
        self.fill_l1(
            tile,
            block,
            L1Line(state=state, version=entry.version),
            now,
            supplier=supplier,
        )
        return t, data.hops, "unpredicted_home"

    def _serve_home_owned(
        self, home: int, tile: int, block: int, entry: L2Line, now: int
    ) -> Tuple[int, int, str]:
        """Home-owned intra-area blocks (DiCo-like behaviour)."""
        t = 0
        links = 0
        if entry.sharers == 0 and entry.owner_area is None:
            # no copies anywhere: move ownership to the requestor,
            # recovering the DiCo two-hop fast path for private data
            lat, hops = self._grant_home_ownership(home, tile, block, entry, now)
            return lat, hops, "unpredicted_home"

        if entry.owner_area is None or self.areas.area_of(tile) == entry.owner_area:
            # same-area read: home keeps the ownership, tracks the sharer
            t += self._home_data(home, block, entry)
            data = self.msg(home, tile, MessageType.DATA, now)
            t += data.latency
            links += data.hops
            self.checker.check_read(block, entry.version, where=self._l1_names[tile])
            entry.sharers |= 1 << tile
            entry.owner_area = self.areas.area_of(tile)
            self.fill_l1(
                tile,
                block,
                L1Line(state=L1State.S, version=entry.version),
                now,
                supplier=None,
            )
            return t, links, "unpredicted_home"

        # remote-area read of a home-owned block with sharers: the block
        # becomes inter-area; the existing sharers keep plain copies
        if not entry.has_data:
            t += self.mem_fetch(home, block)
            entry.version = self.mem_version(block)
            entry.has_data = True
        entry.inter_area = True
        entry.is_owner = False
        entry.owner_area = None
        entry.sharers = 0
        entry.propos = {self.areas.area_of(tile): tile}
        t += self._l2_data_read(home)
        data = self.msg(home, tile, MessageType.DATA, now)
        t += data.latency
        links += data.hops
        self.checker.check_read(block, entry.version, where=self._l1_names[tile])
        self.fill_l1(
            tile,
            block,
            L1Line(state=L1State.P, version=entry.version),
            now,
            supplier=None,
        )
        return t, links, "unpredicted_home"

    # ------------------------------------------------------------------
    # writes

    def _write_at_home(
        self, tile: int, block: int, now: int, had_copy: bool
    ) -> Tuple[int, int, str]:
        home = (block & self._home_mask)
        entry = self.l2s[home].peek(block)
        if entry is not None and entry.inter_area:
            lat, links = self._broadcast_write(home, tile, block, entry, had_copy, now)
            return self._l2_tag_lat + lat, links, "unpredicted_home"
        if entry is not None and entry.is_owner:
            # home-owned: precise area-local invalidation
            lat, links = self._write_home_owned(home, tile, block, entry, had_copy, now)
            return self._l2_tag_lat + lat, links, "unpredicted_home"
        return super()._write_at_home(tile, block, now, had_copy)

    def _broadcast_write(
        self, home: int, tile: int, block: int, entry: L2Line, had_copy: bool, now: int
    ) -> Tuple[int, int]:
        """Three-phase broadcast invalidation ordered by the home."""
        self.stats.broadcast_invalidations += 1
        # phase 1: the home broadcasts the invalidation; every L1 blocks
        # the block and looks it up
        phase1 = self.bcast(home, MessageType.INV_BCAST, now)
        # phase 2: every L1 acknowledges to the requestor
        ack_worst = 0
        for t_id in range(self.config.n_tiles):
            self.l1s[t_id].lookup(block, touch=False)  # tag probe energy
            if t_id != tile:
                line = self.drop_l1(t_id, block)
                if line is not None:
                    self.l1cs[t_id].update(block, tile)
            ack = self.msg(t_id, tile, MessageType.INV_ACK, now)
            ack_worst = max(ack_worst, ack.latency)
        # data from the home (inter-area blocks always have it there)
        if had_copy:
            grant = self.msg(home, tile, MessageType.CHANGE_OWNER_ACK, now)
            data_lat, data_hops = grant.latency, grant.hops
        else:
            data_lat = self._l2_data_read(home)
            data = self.msg(home, tile, MessageType.DATA_OWNER, now)
            data_lat += data.latency
            data_hops = data.hops
        latency = max(phase1.latency + ack_worst, data_lat)
        # phase 3: the requestor broadcasts the unblock; it is off the
        # write's critical path but keeps the block busy until delivered
        phase3 = self.bcast(tile, MessageType.UNBLOCK_BCAST, now)
        self._demote_to_copy(home, block)
        self._set_l1_owner(block, tile, now)
        self._commit_write(tile, block, now)
        self.set_busy(block, now + latency + phase3.latency)
        return latency, data_hops

    # ------------------------------------------------------------------
    # replacements

    def _evict_l1_line(self, tile: int, block: int, line: L1Line, now: int) -> None:
        if line.state in (L1State.S, L1State.P):
            return  # both silent in DiCo-Arin
        if line.state in (L1State.E, L1State.M, L1State.O):
            self._evict_owner(tile, block, line, now)

    def _return_ownership_home(
        self, tile: int, block: int, line: L1Line, now: int
    ) -> None:
        """The ownership always travels home with the data (PUT), never
        as a control message over a plain copy."""
        home = (block & self._home_mask)
        self.msg(tile, home, MessageType.PUT, now)
        self._clear_l1_owner(block)
        self.fill_l2(
            home,
            block,
            L2Line(
                has_data=True,
                dirty=line.dirty,
                version=line.version,
                is_owner=True,
                sharers=0,
                owner_area=None,
            ),
            now,
        )

    def _relinquish_to_home(
        self, owner: int, block: int, line: L1Line, now: int
    ) -> L2Line:
        """L2C$ eviction: the home becomes owner and records the area's
        sharers in its area-local bit vector (plus the area number)."""
        entry = super()._relinquish_to_home(owner, block, line, now)
        entry.owner_area = self.areas.area_of(owner)
        return entry

    def _evict_l2_entry(self, home: int, block: int, entry: L2Line, now: int) -> None:
        if entry.inter_area:
            # three-phase broadcast, acks converge on the home
            self.stats.broadcast_invalidations += 1
            phase1 = self.bcast(home, MessageType.INV_BCAST, now)
            ack_worst = 0
            for t_id in range(self.config.n_tiles):
                self.l1s[t_id].lookup(block, touch=False)
                self.drop_l1(t_id, block)
                ack = self.msg(t_id, home, MessageType.INV_ACK, now)
                ack_worst = max(ack_worst, ack.latency)
            phase3 = self.bcast(home, MessageType.UNBLOCK_BCAST, now)
            if entry.dirty:
                self.mem_writeback(home, block, entry.version)
            else:
                self._mem_version.setdefault(block, entry.version)
            self.set_busy(
                block, now + phase1.latency + ack_worst + phase3.latency
            )
            return
        super()._evict_l2_entry(home, block, entry, now)

    # ------------------------------------------------------------------
    # dynamic consolidation

    def _migrate_block_state(
        self, block: int, src: int, dst: int, now: int
    ) -> bool:
        """No handoff: both Arin regimes are area-keyed — intra-area
        blocks must keep every copy inside the owning area, and the
        per-area ProPos of inter-area blocks cannot follow a line to a
        different region — so migrated tiles flush."""
        return False

    # ------------------------------------------------------------------
    # verification

    def _directory_audit(
        self,
        block: int,
        holders: Sequence[Tuple[int, L1Line]],
        now: Optional[int] = None,
    ) -> None:
        """Arin consistency, per regime.  Inter-area blocks keep data at
        the home, have no owner anywhere, and their ProPos — which may
        be stale by design (provider evictions are silent) — stay
        inside their areas and never name an owner-state line.
        Intra-area blocks obey the DiCo invariants plus area
        containment: every copy lives in the owning area."""
        home = (block & self._home_mask)
        entry = self.l2s[home].peek(block)
        if entry is not None and entry.inter_area:
            self._audit_inter_area(home, block, entry, holders, now)
            return
        super()._directory_audit(block, holders, now)
        owners = [
            (t, l)
            for t, l in holders
            if l.state in (L1State.E, L1State.M, L1State.O)
        ]
        if owners:
            area = self.areas.area_of(owners[0][0])
        elif (
            entry is not None
            and entry.is_owner
            and not entry.plain_copy
            and entry.owner_area is not None
        ):
            area = entry.owner_area
        else:
            area = None
        for t, l in holders:
            if l.state is L1State.P:
                self._audit_fail(
                    block,
                    f"L1[{t}] holds a provider copy outside the "
                    "inter-area regime",
                    now,
                )
            if area is not None and self.areas.area_of(t) != area:
                self._audit_fail(
                    block,
                    f"L1[{t}] (area {self.areas.area_of(t)}) holds "
                    f"{l.state.name} outside the owning area {area} "
                    "in the intra-area regime",
                    now,
                )

    def _audit_inter_area(
        self,
        home: int,
        block: int,
        entry: L2Line,
        holders: Sequence[Tuple[int, L1Line]],
        now: Optional[int],
    ) -> None:
        if not entry.has_data:
            self._audit_fail(
                block, "inter-area entry without data at the home", now
            )
        pointer = self.l2cs[home].peek_owner(block)
        if pointer is not None:
            self._audit_fail(
                block,
                f"L2C$ owner pointer (L1[{pointer}]) set for an "
                "inter-area block",
                now,
            )
        for t, l in holders:
            if l.state in (L1State.E, L1State.M, L1State.O):
                self._audit_fail(
                    block,
                    f"L1[{t}] holds {l.state.name} in the inter-area "
                    "regime (home must be the ordering point)",
                    now,
                )
        for area, provider in entry.propos.items():
            if self.areas.area_of(provider) != area:
                self._audit_fail(
                    block,
                    f"inter-area ProPo for area {area} points at "
                    f"L1[{provider}] in area {self.areas.area_of(provider)}",
                    now,
                )
            pline = self.l1s[provider].peek(block)
            if pline is not None and pline.state in (
                L1State.E, L1State.M, L1State.O
            ):
                self._audit_fail(
                    block,
                    f"inter-area ProPo for area {area} points at an "
                    f"owner-state line at L1[{provider}]",
                    now,
                )
