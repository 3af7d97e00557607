"""DLS-style directoryless coherence over the shared LLC.

Following the directoryless-LLC idea (Liu et al., PAPERS.md): there is
no directory state and no snooping — the home L2 bank is the *only*
ordering point.  Blocks are classified on first touch:

* **private** — one tile has ever touched the block; it caches it in
  its L1 (E/M) with zero coherence traffic, and the home LLC keeps an
  inclusive tracking entry naming the one possible copy;
* **shared** — the moment a second tile touches the block it is
  demoted: the private owner's L1 copy is folded back into the LLC and
  invalidated, and from then on *every* access is a remote round trip
  to the home bank — no tile ever caches a shared block in its L1, so
  single-writer/multi-reader holds trivially at the LLC.

That trades L1 locality on shared data for the complete absence of
directory storage, invalidation traffic and indirection — the exact
trade the paper's Table V storage arithmetic prices for the directory
family.

The audit enforces LLC-inclusive ownership: shared blocks have zero L1
copies anywhere; a private block's L1 copy exists only at its owner
and implies a live LLC tracking entry; evicting the LLC entry
invalidates the L1 copy.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..messages import MessageType
from ..states import L1State
from .base import CoherenceProtocol, L1Line, L2Line
from .registry import register_protocol

__all__ = ["DLSProtocol"]

#: classification sentinel: demoted, served only by the home LLC
SHARED = -1


@register_protocol(
    "dls",
    family="dls",
    transport="mesh",
    aliases=("directoryless",),
    description="directoryless shared-LLC: first-touch private, demote-on-share",
)
class DLSProtocol(CoherenceProtocol):
    name = "dls"

    def __init__(self, config, seed: int = 0, checker=None) -> None:
        super().__init__(config, seed=seed, checker=checker)
        #: block -> owning tile (private) or SHARED
        self._class: Dict[int, int] = {}

    # -- classification ------------------------------------------------

    def _demote(self, home: int, block: int, owner: int, now: int) -> int:
        """Second tile touched a private block: fold the owner's L1
        copy into the LLC and serve everyone remotely from now on.
        Returns the demotion's critical-path latency."""
        t = 0
        line = self.drop_l1(owner, block)
        entry = self.l2s[home].peek(block)
        if line is not None:
            assert entry is not None, "private L1 copy without its LLC entry"
            inv = self.msg(home, owner, MessageType.INV, now)
            ack = self.msg(owner, home, MessageType.INV_ACK, now)
            t += inv.latency + ack.latency
            self.stats.unicast_invalidations += 1
            entry.version = line.version
            entry.dirty = entry.dirty or line.dirty
            self.l2s[home].charge_data_write()
        if entry is not None:
            entry.owner_tile = None
            entry.is_owner = True
        self._class[block] = SHARED
        return t

    # -- read misses ---------------------------------------------------

    def _handle_read_miss(self, tile: int, block: int, now: int) -> Tuple[int, int, str]:
        home = block & self._home_mask
        t = self.config.l1.tag_latency
        links = 0
        leg = self.msg(tile, home, MessageType.GETS, now)
        t += leg.latency + self._l2_tag_lat
        links += leg.hops

        cls = self._class.get(block)
        if cls is not None and cls != SHARED and cls != tile:
            t += self._demote(home, block, cls, now)
            cls = SHARED

        entry = self.l2s[home].lookup(block)
        category = "unpredicted_home"
        if entry is None:
            t += self.mem_fetch(home, block)
            version = self.mem_version(block)
            category = "memory"
        else:
            t += self._l2_data_read(home)
            version = entry.version

        data = self.msg(home, tile, MessageType.DATA, now)
        t += data.latency
        links += data.hops

        if cls == SHARED:
            # remote access: no L1 fill, the LLC is the only copy
            if entry is None:
                self.fill_l2(
                    home,
                    block,
                    L2Line(has_data=True, version=version, is_owner=True),
                    now,
                )
        else:
            # first touch (or the private owner refilling its L1)
            self._class[block] = tile
            if entry is None:
                self.fill_l2(
                    home,
                    block,
                    L2Line(has_data=True, version=version, owner_tile=tile),
                    now,
                )
            else:
                entry.owner_tile = tile
                entry.is_owner = False
            self.fill_l1(
                tile, block, L1Line(state=L1State.E, version=version), now
            )
        self.checker.check_read(
            block, version, where=self._l1_names[tile], now=now, tile=tile
        )
        self.set_busy(block, now + t)
        return t, links, category

    # -- write misses --------------------------------------------------

    def _handle_write_miss(
        self, tile: int, block: int, now: int, had_copy: bool
    ) -> Tuple[int, int, str]:
        # had_copy is unreachable: DLS L1 lines are only ever E/M, which
        # the base class upgrades silently — handled uniformly anyway
        home = block & self._home_mask
        t = self.config.l1.tag_latency
        links = 0
        leg = self.msg(tile, home, MessageType.GETX, now)
        t += leg.latency + self._l2_tag_lat
        links += leg.hops

        cls = self._class.get(block)
        if cls is not None and cls != SHARED and cls != tile:
            t += self._demote(home, block, cls, now)
            cls = SHARED

        entry = self.l2s[home].lookup(block)
        category = "unpredicted_home"
        if entry is None:
            t += self.mem_fetch(home, block)
            category = "memory"
        else:
            t += self.config.l2.data_latency

        new_version = self.checker.commit_write(block)
        if cls == SHARED:
            # the write commits at the LLC; the tile keeps no copy
            if entry is None:
                self.fill_l2(
                    home,
                    block,
                    L2Line(
                        has_data=True, dirty=True, version=new_version,
                        is_owner=True,
                    ),
                    now,
                )
            else:
                entry.version = new_version
                entry.dirty = True
                entry.is_owner = True
                entry.owner_tile = None
                self.l2s[home].charge_data_write()
            ack = self.msg(home, tile, MessageType.DATA, now)
            t += ack.latency
            links += ack.hops
        else:
            self._class[block] = tile
            if entry is None:
                self.fill_l2(
                    home,
                    block,
                    L2Line(has_data=True, version=new_version, owner_tile=tile),
                    now,
                )
            else:
                entry.owner_tile = tile
                entry.is_owner = False
                self.l2s[home].charge_data_read()
            data = self.msg(home, tile, MessageType.DATA, now)
            t += data.latency
            links += data.hops
            self._write_line(tile, block, new_version, now)
        self.set_busy(block, now + t)
        return t, links, category

    # -- evictions -----------------------------------------------------

    def _evict_l1_line(self, tile: int, block: int, line: L1Line, now: int) -> None:
        # private L1 copy dies: fold it back into the inclusive LLC entry
        home = block & self._home_mask
        entry = self.l2s[home].peek(block)
        if entry is None:
            # inclusion should make this unreachable; stay safe
            if line.dirty:
                self.mem_writeback(home, block, line.version)
            return
        self.msg(
            tile,
            home,
            MessageType.PUT if line.dirty else MessageType.PUT_CLEAN,
            now,
        )
        entry.version = line.version
        entry.dirty = entry.dirty or line.dirty
        entry.owner_tile = None
        if line.dirty:
            self.l2s[home].charge_data_write()

    def _evict_l2_entry(self, home: int, block: int, entry: L2Line, now: int) -> None:
        cls = self._class.get(block)
        version = entry.version
        dirty = entry.dirty
        if cls is not None and cls != SHARED:
            # inclusion: the private owner's L1 copy cannot outlive the
            # LLC tracking entry
            line = self.drop_l1(cls, block)
            if line is not None:
                self.msg(home, cls, MessageType.INV, now)
                self.msg(cls, home, MessageType.INV_ACK, now)
                self.stats.unicast_invalidations += 1
                version = line.version
                dirty = dirty or line.dirty
        if dirty:
            self.mem_writeback(home, block, version)
        # classification survives the eviction: a demoted block stays
        # shared, a private block stays bound to its tile

    # -- audit ---------------------------------------------------------

    def _directory_audit(
        self,
        block: int,
        holders: Sequence[Tuple[int, L1Line]],
        now: Optional[int] = None,
    ) -> None:
        cls = self._class.get(block)
        home = block & self._home_mask
        entry = self.l2s[home].peek(block)
        if cls is None:
            if holders:
                self._audit_fail(block, "unclassified block has L1 copies", now)
            if entry is not None:
                self._audit_fail(block, "unclassified block has an LLC entry", now)
            return
        if cls == SHARED:
            if holders:
                self._audit_fail(
                    block,
                    f"shared block cached in L1 at {[t for t, _ in holders]}",
                    now,
                )
            if entry is not None and (
                not entry.is_owner or entry.owner_tile is not None
                or not entry.has_data
            ):
                self._audit_fail(
                    block, "shared block's LLC entry is not the ordering point", now
                )
            return
        # private
        for t, line in holders:
            if t != cls:
                self._audit_fail(
                    block, f"private block of tile {cls} cached at L1[{t}]", now
                )
            if line.state not in (L1State.E, L1State.M):
                self._audit_fail(
                    block, f"private copy in non-exclusive state {line.state.name}", now
                )
        if (
            entry is not None
            and entry.owner_tile is not None
            and entry.owner_tile in self._inactive_tiles
        ):
            self._audit_fail(
                block,
                f"LLC tracking entry names inactive tile {entry.owner_tile} "
                "(stale after consolidation)",
                now,
            )
        if holders:
            if entry is None:
                self._audit_fail(
                    block, "L1 copy without a live LLC tracking entry (inclusion)", now
                )
            elif entry.owner_tile != cls:
                self._audit_fail(
                    block,
                    f"LLC tracking entry names {entry.owner_tile}, owner is {cls}",
                    now,
                )
        elif entry is not None and entry.owner_tile is not None:
            self._audit_fail(
                block, "LLC tracking entry names an owner with no L1 copy", now
            )
