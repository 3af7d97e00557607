"""DiCo-Providers (Sec. III-A / IV-A of the paper).

The chip is statically divided into areas.  On top of DiCo:

* up to one L1 per area is the block's **provider**; it tracks the
  sharers of its own area with an area-local bit vector and answers
  read requests from its area in two hops without leaving the area;
* the **owner** (one per chip — an L1 or the home L2) remains the single
  ordering point; it tracks the providers with one ProPo per area and
  acts as the provider for its own area;
* writes invalidate through the tree: the owner invalidates its own
  area's sharers and the providers; each provider invalidates its
  area's sharers; all acknowledgements converge on the requestor, which
  counts provider acks and sharer acks separately (dual MSHR counters);
* ownership and providership transfers on replacement follow Table II,
  with ``Change_Owner`` / ``Change_Provider`` / ``No_Provider``
  messages and home acknowledgements.

The request-reception semantics implement Table I case by case.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..messages import MessageType
from ..states import L1State
from .base import L1Line, L2Line
from .dico import DiCoProtocol

__all__ = ["DiCoProvidersProtocol"]


class DiCoProvidersProtocol(DiCoProtocol):
    name = "dico-providers"

    # ------------------------------------------------------------------
    # Table I: reads received by an L1

    def _read_at_l1(
        self, holder: int, requestor: int, block: int, now: int
    ) -> Optional[Tuple[int, int, str]]:
        line = self.l1s[holder].lookup(block)
        if line is None:
            return None
        local = self.areas.same_area(holder, requestor)

        if line.state in (L1State.E, L1State.M, L1State.O):
            t = self.config.l1.access_latency
            if local:
                # owner serves its own area: requestor becomes sharer
                return self._supply_copy(holder, requestor, block, line, now)
            area_r = self.areas.area_of(requestor)
            provider = line.propos.get(area_r)
            if provider is not None:
                # forward into the requestor's area
                lat, hops = self._provider_serves(
                    holder, provider, requestor, block, now
                )
                return t + lat, hops, "unpredicted_provider"
            # no supplier in the requestor's area: it becomes the provider
            line.propos[area_r] = requestor
            self.l1s[holder].charge_data_read()
            if line.state in (L1State.E, L1State.M):
                self.trace_transition(
                    holder, block, line.state.name, "O", "read_share"
                )
                line.state = L1State.O
            data = self.msg(holder, requestor, MessageType.DATA, now)
            self.checker.check_read(block, line.version, where=self._l1_names[requestor])
            # the supplier identity is retained even when the requestor
            # becomes a provider itself: after this copy is evicted the
            # L1C$ still points at a live supplier (Fig. 5)
            self.fill_l1(
                requestor,
                block,
                L1Line(state=L1State.P, version=line.version),
                now,
                supplier=holder,
            )
            return t + data.latency, data.hops, "pred_owner_hit"

        if line.state is L1State.P:
            if local:
                return self._supply_copy(
                    holder, requestor, block, line, now, "pred_provider_hit"
                )
            return None  # Table I: provider forwards remote reads to home

        return None

    def _provider_serves(
        self, sender: int, provider: int, requestor: int, block: int, now: int
    ) -> Tuple[int, int]:
        """The ordering point forwards a read to the requestor's area
        provider, which supplies it.  Returns (latency, hops)."""
        fwd = self.msg(sender, provider, MessageType.FWD_GETS, now)
        pline = self.l1s[provider].lookup(block)
        assert pline is not None and pline.state is L1State.P, (
            "ProPo must point at a live provider"
        )
        lat, hops, _ = self._supply_copy(provider, requestor, block, pline, now)
        return fwd.latency + lat, fwd.hops + hops

    # ------------------------------------------------------------------
    # Table I: reads received by the home L2

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
            lat, hops, cat = served
            if cat == "unpredicted_provider":
                return t + lat, links + hops, cat
            return t + lat, links + hops, "unpredicted_fwd"

        entry = self.l2s[home].lookup(block)
        if entry is not None and entry.is_owner:
            area_r = self.areas.area_of(tile)
            provider = entry.propos.get(area_r)
            if provider is not None:
                lat, hops = self._provider_serves(home, provider, tile, block, now)
                return t + lat, links + hops, "unpredicted_provider"
            # Table I: no provider in the area -> requestor becomes owner
            t += self._home_data(home, block, entry)
            data = self.msg(home, tile, MessageType.DATA_OWNER, now)
            t += data.latency
            links += data.hops
            self.checker.check_read(block, entry.version, where=self._l1_names[tile])
            propos = dict(entry.propos)
            propos.pop(area_r, None)
            state = L1State.O if propos else (
                L1State.M if entry.dirty else L1State.E
            )
            version, dirty = entry.version, entry.dirty
            self._demote_to_copy(home, block)
            self.fill_l1(
                tile,
                block,
                L1Line(state=state, version=version, dirty=dirty, propos=propos),
                now,
                supplier=None,
            )
            self._set_l1_owner(block, tile, now)
            return t, links, "unpredicted_home"
        return self._read_from_memory(home, tile, block, now)

    # ------------------------------------------------------------------
    # writes: tree invalidation through owner + providers

    def _write_at_owner(
        self, owner: int, tile: int, block: int, now: int, had_copy: bool
    ) -> Tuple[int, int]:
        line = self.l1s[owner].peek(block)
        assert line is not None
        t = self.config.l1.access_latency
        inv_worst, self_inval_needed = self._invalidate_tree(
            owner, tile, block, line.sharers, line.propos, now, skip=tile
        )
        if owner == tile:
            self._commit_write(tile, block, now)
            return t + inv_worst, 0
        data, handoff = self._hand_over_ownership(owner, tile, block, had_copy, now)
        extra = 0
        if self_inval_needed:
            # Sec. IV-A special case: the requestor is a provider and
            # must invalidate its own area's sharers, but only after it
            # receives the ownership (the data/grant message)
            extra = data.latency + self._invalidate_own_area(tile, block, now)
        self._commit_write(tile, block, now)
        return t + max(inv_worst, data.latency, handoff, extra), data.hops

    def _invalidate_tree(
        self,
        orderer: int,
        requestor: int,
        block: int,
        sharer_mask: int,
        propos: Dict[int, int],
        now: int,
        ack_to: Optional[int] = None,
        skip: Optional[int] = None,
    ) -> Tuple[int, bool]:
        """Owner-rooted invalidation of sharers and provider subtrees.

        Returns ``(worst leg latency, requestor_is_provider)``; in the
        latter case the requestor's own area is left for it to clean up
        once it holds the ownership.
        """
        if ack_to is None:
            ack_to = requestor
        worst = self._invalidate_sharers(
            orderer, ack_to, block, sharer_mask, now, skip=skip
        )
        requestor_is_provider = False
        for area, provider in list(propos.items()):
            if provider == skip:
                # the requestor itself is a provider: it cleans its own
                # area after it receives the ownership (Sec. IV-A)
                requestor_is_provider = True
                continue
            inv = self.msg(orderer, provider, MessageType.INV, now)
            pline = self.l1s[provider].peek(block)
            sub = 0
            if pline is not None:
                sub = self._invalidate_sharers(
                    provider, ack_to, block, pline.sharers, now, skip=skip
                )
            self.drop_l1(provider, block)
            self.l1cs[provider].update(block, ack_to)
            pack = self.msg(provider, ack_to, MessageType.INV_ACK, now)
            sub = max(sub, pack.latency)
            worst = max(worst, inv.latency + sub)
            self.stats.unicast_invalidations += 1
        return worst, requestor_is_provider

    def _invalidate_own_area(self, tile: int, block: int, now: int) -> int:
        line = self.l1s[tile].peek(block)
        if line is None:
            return 0
        return self._invalidate_sharers(
            tile, tile, block, line.sharers, now, skip=tile
        )

    def _write_home_owned(
        self,
        home: int,
        tile: int,
        block: int,
        entry: L2Line,
        had_copy: bool,
        now: int,
    ) -> Tuple[int, int]:
        inv_worst, self_inval = self._invalidate_tree(
            home, tile, block, entry.sharers, entry.propos, now, skip=tile
        )
        data_lat, data_hops = self._write_grant(home, tile, block, entry, had_copy, now)
        extra = 0
        if self_inval:
            extra = data_lat + self._invalidate_own_area(tile, block, now)
        self._demote_to_copy(home, block)
        self._set_l1_owner(block, tile, now)
        self._commit_write(tile, block, now)
        return max(inv_worst, data_lat, extra), data_hops

    # ------------------------------------------------------------------
    # Table II replacements

    def _evict_l1_line(self, tile: int, block: int, line: L1Line, now: int) -> None:
        if line.state is L1State.S:
            return  # silent eviction
        if line.state is L1State.P:
            self._evict_provider(tile, block, line, now)
            return
        if line.state in (L1State.E, L1State.M, L1State.O):
            self._evict_owner(tile, block, line, now)

    def _locate_owner(self, block: int) -> Tuple[int, bool]:
        """Returns ``(tile, owner_is_l1)``; the home when the L2 owns."""
        owner = self._owner_tile(block)
        if owner is not None:
            return owner, True
        return (block & self._home_mask), False

    def _evict_provider(self, tile: int, block: int, line: L1Line, now: int) -> None:
        area = self.areas.area_of(tile)
        owner_loc, owner_is_l1 = self._locate_owner(block)
        live = self._live_sharers(block, line.sharers, exclude=tile)
        if live:
            # providership + sharing code to a sharer of the area
            target = live[0]
            self.msg(tile, target, MessageType.PROVIDERSHIP, now)
            tline = self.l1s[target].peek(block)
            assert tline is not None
            self.trace_transition(
                target, block, tline.state.name, "P", "providership_transfer"
            )
            tline.state = L1State.P
            tline.sharers = line.sharers & ~(1 << target) & ~(1 << tile)
            self.msg(target, owner_loc, MessageType.CHANGE_PROVIDER, now)
            self.msg(owner_loc, target, MessageType.CHANGE_PROVIDER_ACK, now)
            self._update_propo(block, owner_loc, owner_is_l1, area, target)
            self._send_hints(block, live[1:], target, now)
        else:
            self.msg(tile, owner_loc, MessageType.NO_PROVIDER, now)
            self._update_propo(block, owner_loc, owner_is_l1, area, None)

    def _update_propo(
        self,
        block: int,
        owner_loc: int,
        owner_is_l1: bool,
        area: int,
        provider: Optional[int],
    ) -> None:
        if owner_is_l1:
            oline = self.l1s[owner_loc].peek(block)
            if oline is None:
                return
            propos = oline.propos
        else:
            entry = self.l2s[owner_loc].peek(block)
            if entry is None:
                return
            propos = entry.propos
        if provider is None:
            propos.pop(area, None)
        else:
            propos[area] = provider

    def _return_ownership_home(
        self, tile: int, block: int, line: L1Line, now: int
    ) -> None:
        # no sharers in the area: ownership goes to the home L2, which
        # keeps only the ProPos (Table V: no sharer info in L2)
        entry = self._put_ownership_home(tile, block, line, now)
        entry.propos = dict(line.propos)

    # ------------------------------------------------------------------
    # forced relinquish: former owner stays as its area's provider

    def _relinquish_to_home(
        self, owner: int, block: int, line: L1Line, now: int
    ) -> L2Line:
        propos = dict(line.propos)
        propos[self.areas.area_of(owner)] = owner
        entry = self._put_ownership_home(owner, block, line, now)
        entry.propos = propos
        # the former owner becomes the provider for its area (Sec. IV-A1)
        self.trace_transition(
            owner, block, line.state.name, "P", "forced_relinquish"
        )
        line.state = L1State.P
        line.dirty = False
        line.propos = {}
        return entry

    # ------------------------------------------------------------------

    def _evict_l2_entry(self, home: int, block: int, entry: L2Line, now: int) -> None:
        """Home-owned entry eviction: invalidate the provider tree."""
        if entry.plain_copy:
            return  # redundant copy under a live L1 owner: silent drop
        worst, _ = self._invalidate_tree(
            home, home, block, entry.sharers, entry.propos, now, ack_to=home
        )
        if entry.dirty:
            self.mem_writeback(home, block, entry.version)
        else:
            self._mem_version.setdefault(block, entry.version)
        self.set_busy(block, now + worst)

    # ------------------------------------------------------------------
    # dynamic consolidation

    def _migrate_block_state(
        self, block: int, src: int, dst: int, now: int
    ) -> bool:
        """No handoff: the ProPo maps and area-local sharing codes are
        keyed by static areas and cannot follow a line across a region
        change — everything flushes (the brittleness under migration
        the dynamic experiments measure)."""
        return False

    # ------------------------------------------------------------------
    # verification

    def _audit_propos(self, block: int) -> Dict[int, int]:
        """The ProPo map of the current ordering point (peek only)."""
        home = (block & self._home_mask)
        pointer = self.l2cs[home].peek_owner(block)
        if pointer is not None:
            oline = self.l1s[pointer].peek(block)
            if oline is not None:
                return oline.propos
            return {}
        entry = self.l2s[home].peek(block)
        if entry is not None and entry.is_owner and not entry.plain_copy:
            return entry.propos
        return {}

    def _audit_extend_cover(
        self, block: int, covered: Optional[int], now: Optional[int] = None
    ) -> Optional[int]:
        """Validate the provider tree: every ProPo names a live L1 in
        state P inside its own area; each provider's area-local sharing
        code widens the covered mask (an uncovered live copy — e.g. an
        orphaned provider no ProPo references — then fails the base
        coverage check)."""
        for area, provider in self._audit_propos(block).items():
            if provider in self._inactive_tiles:
                self._audit_fail(
                    block,
                    f"ProPo for area {area} names inactive tile "
                    f"{provider} (stale after consolidation)",
                    now,
                )
            pline = self.l1s[provider].peek(block)
            if pline is None or pline.state is not L1State.P:
                self._audit_fail(
                    block,
                    f"ProPo for area {area} points at L1[{provider}] which "
                    f"holds {pline.state.name if pline else 'no copy'}",
                    now,
                )
            if self.areas.area_of(provider) != area:
                self._audit_fail(
                    block,
                    f"ProPo for area {area} points at L1[{provider}] in "
                    f"area {self.areas.area_of(provider)}",
                    now,
                )
            if covered is None:
                covered = 0
            covered |= (1 << provider) | pline.sharers
        return covered
