"""Original Direct Coherence (DiCo) protocol.

Ros et al., "A Direct Coherence Protocol for Many-Core Chip
Multiprocessors" (TPDS 2010), as summarized in Sec. II-B of the paper:

* the *owner* L1 stores the full-map sharing code along with the data
  and is the ordering point — it adds sharers on reads and sends the
  invalidations on writes, so most misses resolve in **two hops**;
* the home L2 keeps the precise identity of the L1 owner in the L2C$;
* every L1 predicts the supplier of a missing block with its L1C$ and
  sends the request straight there; a misprediction forwards the
  request to the home, which bounces it to the real owner;
* ownership transfers go through a ``Change_Owner`` message to the home
  and are locked until the home acknowledges.

This class is also the base for DiCo-Providers and DiCo-Arin, which
override the supplier-location and invalidation logic.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ...noc.network import Delivery
from ..messages import MessageType
from ..states import L1State
from .base import CoherenceProtocol, L1Line, L2Line, iter_bits

__all__ = ["DiCoProtocol"]


class DiCoProtocol(CoherenceProtocol):
    name = "dico"

    # ------------------------------------------------------------------
    # small helpers shared by the DiCo family

    def _live_sharers(self, block: int, mask: int, exclude: int = -1) -> List[int]:
        """Tiles from ``mask`` that actually still hold the block.

        Silent shared-state evictions leave stale bits behind; the real
        protocols clean them when a transfer target refuses, we clean
        them when choosing transfer targets.
        """
        return [
            t
            for t in iter_bits(mask)
            if t != exclude and self.l1s[t].peek(block) is not None
        ]

    def _send_hints(self, block: int, sharers: List[int], new_supplier: int, now: int) -> None:
        """Fig. 5: hint messages tell sharers where the supplier moved."""
        for s in sharers:
            if s == new_supplier:
                continue
            self.msg(new_supplier, s, MessageType.HINT, now)
            self.l1cs[s].update(block, new_supplier)

    def _owner_tile(self, block: int) -> Optional[int]:
        """Precise L1 owner from the home's L2C$ (None if L2/memory)."""
        home = (block & self._home_mask)
        return self.l2cs[home].owner_of(block)

    def _set_l1_owner(self, block: int, tile: int, now: int) -> None:
        """Record ``tile`` in the L2C$, relinquishing a victim pointer."""
        home = (block & self._home_mask)
        victim = self.l2cs[home].set_owner(block, tile)
        if victim is not None:
            vblock, vowner = victim
            self._forced_relinquish(vblock, vowner, now)

    def _clear_l1_owner(self, block: int) -> None:
        self.l2cs[(block & self._home_mask)].clear(block)

    # ------------------------------------------------------------------
    # home-copy management (stale-safe L2 data under an L1 owner)

    def _fill_plain_copy(self, home: int, block: int, version: int, now: int) -> None:
        """Cache fetched data at the home while an L1 takes ownership."""
        entry = self.l2s[home].peek(block)
        if entry is not None:
            entry.has_data = True
            entry.version = version
            entry.dirty = False
            entry.is_owner = False
            entry.plain_copy = True
            self.l2s[home].charge_data_write()
        else:
            self.fill_l2(
                home,
                block,
                L2Line(has_data=True, version=version, plain_copy=True),
                now,
            )

    def _demote_to_copy(self, home: int, block: int) -> None:
        """Ownership moved to an L1: keep the entry as a plain copy."""
        entry = self.l2s[home].peek(block)
        if entry is None:
            return
        entry.is_owner = False
        entry.inter_area = False
        entry.owner_area = None
        entry.sharers = 0
        entry.propos = {}
        entry.plain_copy = True

    def _put_ownership_home(
        self, tile: int, block: int, line: L1Line, now: int
    ) -> L2Line:
        """Owner returns the ownership to the home (Table II last row).

        When the home still holds a plain copy of the same version only
        a control message travels; otherwise the PUT carries the data.
        Returns the (re-)promoted home entry for the caller to attach
        protocol-specific sharing state.
        """
        home = (block & self._home_mask)
        entry = self.l2s[home].peek(block)
        if (
            entry is not None
            and entry.has_data
            and entry.version == line.version
        ):
            self.msg(tile, home, MessageType.PUT_CLEAN, now)
            entry.is_owner = True
            entry.plain_copy = False
            entry.dirty = entry.dirty or line.dirty
            entry.sharers = 0
            entry.propos = {}
            entry.owner_area = None
            self.l2s[home].charge_tag_write()
        else:
            self.msg(tile, home, MessageType.PUT, now)
            entry = L2Line(
                has_data=True,
                dirty=line.dirty,
                version=line.version,
                is_owner=True,
            )
            self.fill_l2(home, block, entry, now)
        self._clear_l1_owner(block)
        return entry

    # ------------------------------------------------------------------
    # forced relinquish (L2C$ entry eviction, Sec. IV-A1)

    def _forced_relinquish(self, block: int, owner: int, now: int) -> None:
        """The home evicted the owner pointer: the owner must hand the
        ownership (plus data if dirty) back to the home L2."""
        home = (block & self._home_mask)
        self.msg(home, owner, MessageType.OWNER_RELINQUISH, now)
        line = self.l1s[owner].peek(block)
        if line is None or line.state not in (L1State.E, L1State.M, L1State.O):
            return  # pointer was stale (should not happen; be safe)
        self._relinquish_to_home(owner, block, line, now)

    def _relinquish_to_home(
        self, owner: int, block: int, line: L1Line, now: int
    ) -> L2Line:
        """Home becomes owner and takes the sharing code; the former
        owner keeps a demoted copy.  Returns the home entry."""
        entry = self._put_ownership_home(owner, block, line, now)
        entry.sharers = line.sharers | (1 << owner)
        self.trace_transition(
            owner, block, line.state.name, "S", "forced_relinquish"
        )
        line.state = L1State.S
        line.dirty = False
        line.sharers = 0
        line.propos = {}
        return entry

    # ------------------------------------------------------------------
    # read misses

    def _handle_read_miss(self, tile: int, block: int, now: int) -> Tuple[int, int, str]:
        t = self.config.l1.tag_latency + self._l1c_lat
        links = 0
        predicted = self.l1cs[tile].predict(block)
        category: Optional[str] = None

        if predicted is not None:
            leg = self.msg(tile, predicted, MessageType.GETS, now)
            t += leg.latency
            links += leg.hops
            served = self._read_at_l1(predicted, tile, block, now)
            if served is not None:
                lat, hops, cat = served
                return t + lat, links + hops, cat
            # misprediction: forward to the home
            category = "pred_miss"
            home = (block & self._home_mask)
            fwd = self.msg(predicted, home, MessageType.FWD_GETS, now)
            t += fwd.latency
            links += fwd.hops
        else:
            home = (block & self._home_mask)
            leg = self.msg(tile, home, MessageType.GETS, now)
            t += leg.latency
            links += leg.hops

        lat, hops, cat = self._read_at_home(tile, block, now, forwarder=predicted)
        return t + lat, links + hops, (category or cat)

    def _read_at_l1(
        self, holder: int, requestor: int, block: int, now: int
    ) -> Optional[Tuple[int, int, str]]:
        """Try to resolve a read at a predicted L1.  None = cannot serve."""
        line = self.l1s[holder].lookup(block)
        if line is None or line.state not in (L1State.E, L1State.M, L1State.O):
            return None
        return self._supply_copy(holder, requestor, block, line, now)

    def _supply_copy(
        self,
        supplier: int,
        requestor: int,
        block: int,
        line: L1Line,
        now: int,
        category: str = "pred_owner_hit",
    ) -> Tuple[int, int, str]:
        """An L1 that orders its copies (an owner, or a Providers
        provider) serves a read: the requestor joins its sharing code
        and fills S, and an E/M owner becomes O."""
        self.l1s[supplier].charge_data_read()
        line.sharers |= 1 << requestor
        if line.state in (L1State.E, L1State.M):
            self.trace_transition(
                supplier, block, line.state.name, "O", "read_share"
            )
            line.state = L1State.O
        data = self.msg(supplier, requestor, MessageType.DATA, now)
        self.checker.check_read(block, line.version, where=self._l1_names[requestor])
        self.fill_l1(
            requestor,
            block,
            L1Line(state=L1State.S, version=line.version),
            now,
            supplier=supplier,
        )
        return self.config.l1.access_latency + data.latency, data.hops, category

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
        if entry is not None and entry.is_owner:
            lat, hops = self._grant_home_ownership(home, tile, block, entry, now)
            return t + lat, links + hops, "unpredicted_home"
        return self._read_from_memory(home, tile, block, now)

    def _home_data(self, home: int, block: int, entry: L2Line) -> int:
        """The home's data for an ownership grant: a memory fetch when
        the entry holds none, else an L2 data read.  Returns its
        latency."""
        if entry.has_data:
            return self._l2_data_read(home)
        latency = self.mem_fetch(home, block)
        entry.version = self.mem_version(block)
        entry.has_data = True
        return latency

    def _grant_home_ownership(
        self, home: int, tile: int, block: int, entry: L2Line, now: int
    ) -> Tuple[int, int]:
        """A read at the home-owned ``entry``: ownership, data and the
        sharing code move to the reader, and the home keeps a plain
        copy.  Returns (latency, hops)."""
        t = self._home_data(home, block, entry)
        data = self.msg(home, tile, MessageType.DATA_OWNER, now)
        sharers = entry.sharers & ~(1 << tile)
        state = L1State.O if sharers else (
            L1State.M if entry.dirty else L1State.E
        )
        self.checker.check_read(block, entry.version, where=self._l1_names[tile])
        version, dirty = entry.version, entry.dirty
        self._demote_to_copy(home, block)
        self.fill_l1(
            tile,
            block,
            L1Line(state=state, version=version, dirty=dirty, sharers=sharers),
            now,
            supplier=None,
        )
        self._set_l1_owner(block, tile, now)
        self._send_hints(block, self._live_sharers(block, sharers), tile, now)
        return t + data.latency, data.hops

    def _read_from_memory(
        self, home: int, tile: int, block: int, now: int
    ) -> Tuple[int, int, str]:
        """A read of a block no cache holds: the reader fills E and owns
        it, and the home keeps a plain copy alongside the grant."""
        t = self._l2_tag_lat + self.mem_fetch(home, block)
        version = self.mem_version(block)
        data = self.msg(home, tile, MessageType.DATA_OWNER, now)
        t += data.latency
        self.checker.check_read(block, version, where=self._l1_names[tile])
        self._fill_plain_copy(home, block, version, now)
        self.fill_l1(
            tile,
            block,
            L1Line(state=L1State.E, version=version),
            now,
            supplier=None,
        )
        self._set_l1_owner(block, tile, now)
        self.set_busy(block, now + t)
        return t, data.hops, "memory"

    # ------------------------------------------------------------------
    # write misses

    def _handle_write_miss(
        self, tile: int, block: int, now: int, had_copy: bool
    ) -> Tuple[int, int, str]:
        t = self.config.l1.tag_latency + self._l1c_lat
        links = 0

        own = self.l1s[tile].peek(block)
        if own is not None and own.state in (L1State.E, L1State.M, L1State.O):
            # we are the owner: invalidate our sharers directly
            lat, hops = self._write_at_owner(tile, tile, block, now, had_copy=True)
            t += lat
            links += hops
            self.set_busy(block, now + t)
            return t, links, "pred_owner_hit"

        predicted = self.l1cs[tile].predict(block)
        category: Optional[str] = None

        if predicted is not None:
            leg = self.msg(tile, predicted, MessageType.GETX, now)
            t += leg.latency
            links += leg.hops
            line = self.l1s[predicted].lookup(block)
            if line is not None and line.state in (
                L1State.E,
                L1State.M,
                L1State.O,
            ):
                lat, hops = self._write_at_owner(
                    predicted, tile, block, now, had_copy
                )
                t += lat
                links += hops
                self.set_busy(block, now + t)
                return t, links, "pred_owner_hit"
            category = "pred_miss"
            home = (block & self._home_mask)
            fwd = self.msg(predicted, home, MessageType.FWD_GETX, now)
            t += fwd.latency
            links += fwd.hops
        else:
            home = (block & self._home_mask)
            leg = self.msg(tile, home, MessageType.GETX, now)
            t += leg.latency
            links += leg.hops

        lat, hops, cat = self._write_at_home(tile, block, now, had_copy)
        t += lat
        links += hops
        self.set_busy(block, now + t)
        return t, links, (category or cat)

    def _write_at_owner(
        self, owner: int, tile: int, block: int, now: int, had_copy: bool
    ) -> Tuple[int, int]:
        """The owner L1 orders the write: invalidation + ownership move."""
        line = self.l1s[owner].peek(block)
        assert line is not None
        t = self.config.l1.access_latency
        inv_worst = self._invalidate_sharers(
            owner, tile, block, line.sharers, now, skip=tile
        )
        if owner == tile:
            # upgrade at the owner itself: no data or ownership movement
            self._commit_write(tile, block, now)
            return t + inv_worst, 0
        data, handoff = self._hand_over_ownership(owner, tile, block, had_copy, now)
        self._commit_write(tile, block, now)
        return t + max(inv_worst, data.latency, handoff), data.hops

    def _hand_over_ownership(
        self, owner: int, tile: int, block: int, had_copy: bool, now: int
    ) -> Tuple[Delivery, int]:
        """The owner L1 passes the ownership to the writer and drops its
        copy, and the home repoints its L2C$ entry (``Change_Owner``).
        Returns the data (or grant) leg and the Change_Owner round
        trip's latency."""
        home = (block & self._home_mask)
        # data (or ownership grant when the writer already has a copy)
        msg_type = (
            MessageType.CHANGE_OWNER_ACK if had_copy else MessageType.DATA_OWNER
        )
        data = self.msg(owner, tile, msg_type, now)
        self.l1s[owner].charge_data_read()
        self.l1cs[owner].update(block, tile)  # Fig. 5: writer becomes supplier
        self.drop_l1(owner, block)
        co = self.msg(owner, home, MessageType.CHANGE_OWNER, now)
        ack = self.msg(home, tile, MessageType.CHANGE_OWNER_ACK, now)
        self._set_l1_owner(block, tile, now)
        return data, co.latency + ack.latency

    def _write_at_home(
        self, tile: int, block: int, now: int, had_copy: bool
    ) -> Tuple[int, int, str]:
        home = (block & self._home_mask)
        t = self._l2_tag_lat
        links = 0
        owner = self._owner_tile(block)
        if owner is not None:
            fwd = self.msg(home, owner, MessageType.FWD_GETX, now)
            t += fwd.latency
            links += fwd.hops
            lat, hops = self._write_at_owner(owner, tile, block, now, had_copy)
            return t + lat, links + hops, "unpredicted_fwd"

        entry = self.l2s[home].lookup(block)
        if entry is not None and entry.is_owner:
            lat, hops = self._write_home_owned(home, tile, block, entry, had_copy, now)
            return t + lat, links + hops, "unpredicted_home"

        # not on chip
        t += self.mem_fetch(home, block)
        data = self.msg(home, tile, MessageType.DATA_OWNER, now)
        t += data.latency
        links += data.hops
        self._set_l1_owner(block, tile, now)
        self._commit_write(tile, block, now)
        return t, links, "memory"

    def _write_home_owned(
        self,
        home: int,
        tile: int,
        block: int,
        entry: L2Line,
        had_copy: bool,
        now: int,
    ) -> Tuple[int, int]:
        """A write at the home-owned ``entry``: the home invalidates the
        sharers and grants the ownership, keeping a plain copy.
        Returns (latency, hops)."""
        inv_worst = self._invalidate_sharers(
            home, tile, block, entry.sharers, now, skip=tile
        )
        data_lat, data_hops = self._write_grant(home, tile, block, entry, had_copy, now)
        self._demote_to_copy(home, block)
        self._set_l1_owner(block, tile, now)
        self._commit_write(tile, block, now)
        return max(inv_worst, data_lat), data_hops

    def _write_grant(
        self,
        home: int,
        tile: int,
        block: int,
        entry: L2Line,
        had_copy: bool,
        now: int,
    ) -> Tuple[int, int]:
        """A home-owned entry's write grant: the ownership ack when the
        writer holds a copy, else the data.  Returns (latency, hops)."""
        if had_copy:
            grant = self.msg(home, tile, MessageType.CHANGE_OWNER_ACK, now)
            return grant.latency, grant.hops
        if entry.has_data:
            latency = self._l2_data_read(home)
        else:
            latency = self.mem_fetch(home, block)
        data = self.msg(home, tile, MessageType.DATA_OWNER, now)
        return latency + data.latency, data.hops

    def _invalidate_sharers(
        self,
        orderer: int,
        ack_to: int,
        block: int,
        mask: int,
        now: int,
        skip: Optional[int] = None,
    ) -> int:
        """Unicast invalidations from the ordering point; acks converge
        on ``ack_to`` (the requestor, or the home on L2 replacements).
        ``skip`` exempts the requestor's own copy.  Returns the
        worst-case leg latency."""
        worst = 0
        for sharer in iter_bits(mask):
            if sharer == skip:
                continue
            inv = self.msg(orderer, sharer, MessageType.INV, now)
            self.drop_l1(sharer, block)
            self.l1cs[sharer].update(block, ack_to)  # Fig. 5 transition
            ack = self.msg(sharer, ack_to, MessageType.INV_ACK, now)
            worst = max(worst, inv.latency + ack.latency)
            self.stats.unicast_invalidations += 1
        return worst

    def _commit_write(self, tile: int, block: int, now: int) -> None:
        self._write_line(tile, block, self.checker.commit_write(block), now)

    def _write_line(
        self, tile: int, block: int, version: int, now: int
    ) -> Optional[L1Line]:
        """The written line is the block's only copy: its sharing code
        and ProPos empty, and its L1C$ entry names no supplier."""
        line = super()._write_line(tile, block, version, now)
        if line is not None:
            line.sharers = 0
            line.propos = {}
            self.l1cs[tile].block_cached(block, None)
        return line

    # ------------------------------------------------------------------
    # replacements (Table II, DiCo rows)

    def _evict_l1_line(self, tile: int, block: int, line: L1Line, now: int) -> None:
        if line.state is L1State.S:
            return  # silent eviction
        if line.state in (L1State.E, L1State.M, L1State.O):
            self._evict_owner(tile, block, line, now)

    def _evict_owner(self, tile: int, block: int, line: L1Line, now: int) -> None:
        home = (block & self._home_mask)
        live = self._live_sharers(block, line.sharers, exclude=tile)
        if live:
            target = live[0]
            # ownership + sharing code (and ProPos) to a sharer; data
            # travels only if dirty (the sharers hold the current
            # version already)
            self.msg(tile, target, MessageType.CHANGE_OWNER, now)
            tline = self.l1s[target].peek(block)
            assert tline is not None
            self.trace_transition(
                target, block, tline.state.name, "O", "ownership_transfer"
            )
            tline.state = L1State.O
            tline.dirty = line.dirty
            tline.sharers = line.sharers & ~(1 << target) & ~(1 << tile)
            tline.propos = dict(line.propos)
            # new owner notifies the home; home acks
            self.msg(target, home, MessageType.CHANGE_OWNER, now)
            self.msg(home, target, MessageType.CHANGE_OWNER_ACK, now)
            self._set_l1_owner(block, target, now)
            self._send_hints(block, live[1:], target, now)
        else:
            self._return_ownership_home(tile, block, line, now)

    def _return_ownership_home(
        self, tile: int, block: int, line: L1Line, now: int
    ) -> None:
        """An evicted owner with no live sharer returns the ownership to
        the home (Table II last row)."""
        self._put_ownership_home(tile, block, line, now)

    # ------------------------------------------------------------------
    # dynamic consolidation

    def _migrate_block_state(
        self, block: int, src: int, dst: int, now: int
    ) -> bool:
        """DiCo handoff: move the line and keep the metadata precise.

        Owner lines (E/M/O) travel with their sharing code; the move is
        an ownership change (``Change_Owner`` to the home, re-pointing
        the L2C$) plus hints so the sharers' L1C$ predictions follow.
        Shared lines move when the ordering point is known — its
        sharing code swaps the src bit for the dst bit.
        """
        line = self.l1s[src].peek(block)
        if line is None or line.state is L1State.I:
            return False
        dline = self.l1s[dst].peek(block)
        if dline is not None and dline.state is not L1State.I:
            return False  # destination already holds its own copy
        home = (block & self._home_mask)
        pointer = self.l2cs[home].peek_owner(block)
        if line.state in (L1State.E, L1State.M, L1State.O):
            if pointer != src:
                return False  # pointer out of step; take the flush path
            taken = self.l1s[src].invalidate(block)
            assert taken is line
            self.l1cs[src].block_evicted(block)
            self.trace_transition(
                src, block, line.state.name, "I", "migrated_out"
            )
            self.msg(src, dst, MessageType.DATA_OWNER, now)
            self.msg(dst, home, MessageType.CHANGE_OWNER, now)
            self.msg(home, dst, MessageType.CHANGE_OWNER_ACK, now)
            line.sharers &= ~(1 << dst)
            self.fill_l1(dst, block, line, now, supplier=None)
            self._set_l1_owner(block, dst, now)
            self._send_hints(
                block,
                self._live_sharers(block, line.sharers, exclude=dst),
                dst,
                now,
            )
            return True
        # shared line: the ordering point's sharing code must follow
        if pointer is not None:
            oline = self.l1s[pointer].peek(block)
            if oline is None:
                return False
            code_holder = oline
        else:
            entry = self.l2s[home].peek(block)
            if entry is None or not entry.is_owner or entry.plain_copy:
                return False
            code_holder = entry
        taken = self.l1s[src].invalidate(block)
        assert taken is line
        self.l1cs[src].block_evicted(block)
        self.trace_transition(src, block, line.state.name, "I", "migrated_out")
        self.msg(src, dst, MessageType.DATA, now)
        code_holder.sharers = (code_holder.sharers & ~(1 << src)) | (1 << dst)
        self.fill_l1(dst, block, line, now, supplier=pointer)
        return True

    def _evict_l2_entry(self, home: int, block: int, entry: L2Line, now: int) -> None:
        """Home-owned entry eviction: invalidate chip-wide, then drop."""
        if entry.plain_copy:
            # a redundant copy under a live L1 owner: silent drop
            return
        worst = 0
        for sharer in iter_bits(entry.sharers):
            inv = self.msg(home, sharer, MessageType.INV, now)
            self.drop_l1(sharer, block)
            ack = self.msg(sharer, home, MessageType.INV_ACK, now)
            worst = max(worst, inv.latency + ack.latency)
            self.stats.unicast_invalidations += 1
        if entry.dirty:
            self.mem_writeback(home, block, entry.version)
        else:
            self._mem_version.setdefault(block, entry.version)
        self.set_busy(block, now + worst)

    # ------------------------------------------------------------------
    # verification

    def _directory_audit(
        self,
        block: int,
        holders: Sequence[Tuple[int, L1Line]],
        now: Optional[int] = None,
    ) -> None:
        """DiCo consistency: the home's L2C$ pointer is precise (names
        the one L1 owner, or nothing), ownership lives in exactly one
        place, and the ordering point's sharing code covers every live
        copy (stale *extra* bits are fine — S evictions are silent)."""
        home = (block & self._home_mask)
        pointer = self.l2cs[home].peek_owner(block)
        entry = self.l2s[home].peek(block)
        home_owned = entry is not None and entry.is_owner and not entry.plain_copy
        owners = [
            (t, l)
            for t, l in holders
            if l.state in (L1State.E, L1State.M, L1State.O)
        ]
        if pointer is not None:
            if pointer in self._inactive_tiles:
                self._audit_fail(
                    block,
                    f"L2C$ pointer names inactive tile {pointer} "
                    "(stale after consolidation)",
                    now,
                )
            if home_owned:
                self._audit_fail(
                    block,
                    f"the home entry and the L2C$ pointer (L1[{pointer}]) "
                    "both claim ownership",
                    now,
                )
            pline = self.l1s[pointer].peek(block)
            if pline is None or pline.state not in (
                L1State.E, L1State.M, L1State.O
            ):
                self._audit_fail(
                    block,
                    f"L2C$ points at L1[{pointer}] which holds "
                    f"{pline.state.name if pline else 'no copy'}",
                    now,
                )
        for t, l in owners:
            if pointer != t:
                self._audit_fail(
                    block,
                    f"L1[{t}] owns in {l.state.name} but the home L2C$ "
                    + (f"points at L1[{pointer}]" if pointer is not None
                       else "records no owner"),
                    now,
                )
        if owners:
            t0, oline = owners[0]
            covered: Optional[int] = oline.sharers | (1 << t0)
        elif home_owned:
            covered = entry.sharers
        else:
            covered = None
        covered = self._audit_extend_cover(block, covered, now)
        if covered is None:
            if holders:
                self._audit_fail(
                    block,
                    f"live copies at {[t for t, _ in holders]} but no "
                    "ownership recorded anywhere",
                    now,
                )
            return
        for t, l in holders:
            if not covered & (1 << t):
                self._audit_fail(
                    block,
                    f"L1[{t}] holds {l.state.name} outside the sharing "
                    f"tree (covered mask {covered:#x})",
                    now,
                )

    def _audit_extend_cover(
        self, block: int, covered: Optional[int], now: Optional[int] = None
    ) -> Optional[int]:
        """Hook for subclasses with extra supplier structures (ProPos)
        to validate them and widen the covered-tiles mask."""
        return covered
