"""Flat full-map directory protocol (the paper's optimized baseline).

Sec. II-A: a MESI directory at the home L2 bank with a full-map bit
vector, non-inclusive L1/L2, and an NCID-style *directory cache* (extra
L2 tags) holding directory information for blocks whose data is not in
the L2.  When a directory-cache entry is evicted every L1 copy of the
block is invalidated; when only the L2 *data* is evicted the directory
information migrates into the directory cache so the L1 copies survive.

Read misses take three hops when an exclusive L1 owner must be reached
(requestor → home → owner → requestor), two hops when the home L2 can
supply.  Shared-state L1 evictions are silent (the optimized variant);
exclusive evictions write back through the home.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ...cache.cache import SetAssocCache
from ...sim.config import ChipConfig
from ..checker import CoherenceChecker
from ..messages import MessageType
from ..states import L1State
from .base import CoherenceProtocol, L1Line, L2Line, iter_bits

__all__ = ["DirectoryProtocol"]


class DirectoryProtocol(CoherenceProtocol):
    name = "directory"

    def __init__(
        self,
        config: ChipConfig,
        seed: int = 0,
        checker: Optional[CoherenceChecker] = None,
    ) -> None:
        super().__init__(config, seed=seed, checker=checker)
        bank_bits = (config.n_tiles - 1).bit_length()
        self.dircaches: List[SetAssocCache[L2Line]] = [
            SetAssocCache(
                max(1, config.dir_cache_entries // 8),
                8,
                name=f"dir[{t}]",
                index_shift=bank_bits,
            )
            for t in range(config.n_tiles)
        ]

    # ------------------------------------------------------------------
    # directory-information location (L2 entry or directory cache)

    def _dir_lookup(self, home: int, block: int) -> Optional[L2Line]:
        entry = self.l2s[home].lookup(block)
        if entry is not None:
            return entry
        return self.dircaches[home].lookup(block)

    def _dir_drop(self, home: int, block: int) -> None:
        self.l2s[home].invalidate(block)
        self.dircaches[home].invalidate(block)

    def _dircache_insert(self, home: int, block: int, info: L2Line, now: int) -> None:
        info.has_data = False
        victim = self.dircaches[home].victim_for(block)
        if victim is not None:
            vblock, ventry = victim
            self.dircaches[home].invalidate(vblock)
            self._invalidate_all_copies(home, vblock, ventry, now)
        self.dircaches[home].insert(block, info)

    # ------------------------------------------------------------------
    # read misses

    def _handle_read_miss(self, tile: int, block: int, now: int) -> Tuple[int, int, str]:
        home = (block & self._home_mask)
        t = self.config.l1.tag_latency
        links = 0
        leg = self.msg(tile, home, MessageType.GETS, now)
        t += leg.latency
        links += leg.hops
        t += self._l2_tag_lat

        info = self._dir_lookup(home, block)
        l2_entry = self.l2s[home].peek(block)
        has_data = l2_entry is not None and l2_entry.has_data

        if info is not None and info.owner_tile is not None:
            # three-hop: forward to the exclusive L1 owner, which
            # supplies the requestor and writes back to the home
            owner = info.owner_tile
            fwd = self.msg(home, owner, MessageType.FWD_GETS, now)
            t += fwd.latency
            links += fwd.hops
            oline = self.l1s[owner].lookup(block)
            assert oline is not None and oline.state in (L1State.E, L1State.M)
            t += self.config.l1.access_latency
            self.l1s[owner].charge_data_read()
            data = self.msg(owner, tile, MessageType.DATA, now)
            self.msg(owner, home, MessageType.WRITEBACK, now)  # downgrade copy
            t += data.latency
            links += data.hops
            version = oline.version
            dirty = oline.dirty
            self.trace_transition(
                owner, block, oline.state.name, "S", "owner_downgrade"
            )
            oline.state = L1State.S
            oline.dirty = False
            # home gains the data and tracks both sharers
            self.dircaches[home].invalidate(block)
            existing = self.l2s[home].peek(block)
            if existing is not None:
                existing.has_data = True
                existing.dirty = dirty
                existing.version = version
                existing.sharers = (1 << owner) | (1 << tile)
                existing.owner_tile = None
                self.l2s[home].charge_data_write()
            else:
                self.fill_l2(
                    home,
                    block,
                    L2Line(
                        has_data=True,
                        dirty=dirty,
                        version=version,
                        sharers=(1 << owner) | (1 << tile),
                        owner_tile=None,
                    ),
                    now,
                )
            self._fill_shared(tile, block, version, now)
            self.checker.check_read(block, version, where=self._l1_names[tile])
            return t, links, "unpredicted_fwd"

        if has_data:
            assert l2_entry is not None
            t += self._l2_data_read(home)
            data = self.msg(home, tile, MessageType.DATA, now)
            t += data.latency
            links += data.hops
            l2_entry.sharers |= 1 << tile
            self._fill_shared(tile, block, l2_entry.version, now)
            self.checker.check_read(block, l2_entry.version, where=self._l1_names[tile])
            return t, links, "unpredicted_home"

        # no data on chip: fetch from memory at the home
        t += self.mem_fetch(home, block)
        version = self.mem_version(block)
        data = self.msg(home, tile, MessageType.DATA, now)
        t += data.latency
        links += data.hops
        if info is not None and info.sharers:
            # other S copies exist: the new copy is shared; cache the
            # fetched data in the L2 as well
            info.sharers |= 1 << tile
            self.dircaches[home].invalidate(block)
            self.fill_l2(
                home,
                block,
                L2Line(has_data=True, version=version, sharers=info.sharers),
                now,
            )
            self._fill_shared(tile, block, version, now)
        else:
            # sole copy: grant Exclusive; the home L2 keeps the data and
            # the owner pointer in its entry (NCID: directory state lives
            # in the L2 tags while an entry exists).  The L2 copy is
            # architecturally stale once the owner upgrades silently and
            # is never served while an owner is recorded.
            self._dir_drop(home, block)
            self.fill_l2(
                home,
                block,
                L2Line(has_data=True, version=version, owner_tile=tile),
                now,
            )
            self.fill_l1(
                tile,
                block,
                L1Line(state=L1State.E, version=version),
                now,
                supplier=None,
            )
        self.checker.check_read(block, version, where=self._l1_names[tile])
        self.set_busy(block, now + t)
        return t, links, "memory"

    def _fill_shared(self, tile: int, block: int, version: int, now: int) -> None:
        self.fill_l1(
            tile, block, L1Line(state=L1State.S, version=version), now, supplier=None
        )

    # ------------------------------------------------------------------
    # write misses

    def _handle_write_miss(
        self, tile: int, block: int, now: int, had_copy: bool
    ) -> Tuple[int, int, str]:
        home = (block & self._home_mask)
        t = self.config.l1.tag_latency
        links = 0
        leg = self.msg(tile, home, MessageType.GETX, now)
        t += leg.latency
        links += leg.hops
        t += self._l2_tag_lat

        info = self._dir_lookup(home, block)
        l2_entry = self.l2s[home].peek(block)
        category = "unpredicted_home"
        version = None

        if info is not None and info.owner_tile is not None:
            owner = info.owner_tile
            fwd = self.msg(home, owner, MessageType.FWD_GETX, now)
            oline = self.drop_l1(owner, block)
            assert oline is not None
            self.l1s[owner].charge_data_read()
            data = self.msg(owner, tile, MessageType.DATA, now)
            t += fwd.latency + self.config.l1.access_latency + data.latency
            links += fwd.hops + data.hops
            version = oline.version
            self.stats.unicast_invalidations += 1
            category = "unpredicted_fwd"
            self._dir_drop(home, block)
        elif info is not None and info.sharers:
            # invalidate every (possibly stale) sharer; acks go to the
            # requestor; the home supplies data in parallel
            inv_worst = 0
            for sharer in iter_bits(info.sharers):
                if sharer == tile:
                    continue
                inv = self.msg(home, sharer, MessageType.INV, now)
                self.drop_l1(sharer, block)
                ack = self.msg(sharer, tile, MessageType.INV_ACK, now)
                inv_worst = max(inv_worst, inv.latency + ack.latency)
                self.stats.unicast_invalidations += 1
            data_lat = 0
            if not had_copy:
                if l2_entry is not None and l2_entry.has_data:
                    self.l2s[home].charge_data_read()
                    data_lat = self.config.l2.data_latency
                    data = self.msg(home, tile, MessageType.DATA, now)
                    data_lat += data.latency
                    links += data.hops
                    version = l2_entry.version
                else:
                    data_lat = self.mem_fetch(home, block)
                    data = self.msg(home, tile, MessageType.DATA, now)
                    data_lat += data.latency
                    links += data.hops
                    version = self.mem_version(block)
            else:
                grant = self.msg(home, tile, MessageType.INV_ACK, now)
                data_lat = grant.latency
                links += grant.hops
                own = self.l1s[tile].peek(block)
                version = own.version if own else None
            t += max(inv_worst, data_lat)
            self._dir_drop(home, block)
        elif l2_entry is not None and l2_entry.has_data:
            # no copies in any L1, but the home L2 holds the data
            t += self._l2_data_read(home)
            data = self.msg(home, tile, MessageType.DATA, now)
            t += data.latency
            links += data.hops
            version = l2_entry.version
            self._dir_drop(home, block)
        else:
            # not on chip
            t += self.mem_fetch(home, block)
            data = self.msg(home, tile, MessageType.DATA, now)
            t += data.latency
            links += data.hops
            version = self.mem_version(block)
            category = "memory"
            self._dir_drop(home, block)

        new_version = self.checker.commit_write(block)
        entry = self.l2s[home].peek(block)
        if entry is not None:
            # NCID: the entry's tag keeps tracking the block; its data
            # is invalid until the owner writes back
            entry.has_data = False
            entry.dirty = False
            entry.sharers = 0
            entry.owner_tile = tile
            entry.version = new_version
            self.l2s[home].charge_tag_write()
            self.dircaches[home].invalidate(block)
        else:
            self._dircache_insert(
                home, block, L2Line(version=new_version, owner_tile=tile), now
            )
        self._write_line(tile, block, new_version, now)
        self.set_busy(block, now + t)
        return t, links, category

    # ------------------------------------------------------------------
    # replacements

    def _evict_l1_line(self, tile: int, block: int, line: L1Line, now: int) -> None:
        home = (block & self._home_mask)
        if line.state is L1State.S:
            return  # silent
        if line.state in (L1State.E, L1State.M):
            entry = self.l2s[home].peek(block)
            if not line.dirty and entry is not None and entry.has_data:
                # clean exclusive copy: the home L2 already holds the
                # current data, so only a pointer-clearing control
                # message travels (the "highly optimized" baseline)
                self.msg(tile, home, MessageType.PUT_CLEAN, now)
                entry.owner_tile = None
                entry.sharers = 0
                entry.version = line.version
                self.l2s[home].charge_tag_write()
                self.dircaches[home].invalidate(block)
                return
            msg_type = MessageType.WRITEBACK if line.dirty else MessageType.PUT
            self.msg(tile, home, msg_type, now)
            self.dircaches[home].invalidate(block)
            if entry is not None:
                entry.has_data = True
                entry.dirty = line.dirty
                entry.version = line.version
                entry.sharers = 0
                entry.owner_tile = None
                self.l2s[home].charge_data_write()
            else:
                self.fill_l2(
                    home,
                    block,
                    L2Line(has_data=True, dirty=line.dirty, version=line.version),
                    now,
                )

    # ------------------------------------------------------------------
    # dynamic consolidation

    def _migrate_block_state(
        self, block: int, src: int, dst: int, now: int
    ) -> bool:
        """Flat-directory handoff: move the L1 copy and re-point the
        home's full-map metadata — the directory has no area-keyed
        state, so every line survives a migration."""
        line = self.l1s[src].peek(block)
        if line is None or line.state is L1State.I:
            return False
        dline = self.l1s[dst].peek(block)
        if dline is not None and dline.state is not L1State.I:
            return False  # destination already holds its own copy
        home = (block & self._home_mask)
        info = self._dir_lookup(home, block)
        if info is None:
            return False
        if line.state in (L1State.E, L1State.M) and info.owner_tile != src:
            return False  # metadata out of step; take the flush path
        taken = self.l1s[src].invalidate(block)
        assert taken is line
        self.l1cs[src].block_evicted(block)
        self.trace_transition(src, block, line.state.name, "I", "migrated_out")
        # data travels core-to-core; a control message re-points the home
        self.msg(src, dst, MessageType.DATA, now)
        self.msg(src, home, MessageType.CHANGE_OWNER, now)
        if info.owner_tile == src:
            info.owner_tile = dst
        if info.sharers & (1 << src):
            info.sharers = (info.sharers & ~(1 << src)) | (1 << dst)
        elif line.state is L1State.S:
            info.sharers |= 1 << dst
        self.fill_l1(dst, block, line, now, supplier=src)
        return True

    def _evict_l2_entry(self, home: int, block: int, entry: L2Line, now: int) -> None:
        """L2 *data* eviction: keep the directory info alive (NCID)."""
        live = [
            tile
            for tile in iter_bits(entry.sharers)
            if self.l1s[tile].peek(block) is not None
        ]
        if entry.owner_tile is not None or live:
            mask = entry.sharers
            self._dircache_insert(
                home,
                block,
                L2Line(
                    version=entry.version,
                    sharers=mask,
                    owner_tile=entry.owner_tile,
                ),
                now,
            )
            if entry.dirty:
                # home loses the only dirty data copy; push it to memory
                self.mem_writeback(home, block, entry.version)
        else:
            if entry.dirty:
                self.mem_writeback(home, block, entry.version)
            else:
                self._mem_version.setdefault(block, entry.version)

    def _invalidate_all_copies(
        self, home: int, block: int, info: L2Line, now: int
    ) -> None:
        """Directory-cache entry eviction: evict the block chip-wide."""
        worst = 0
        if info.owner_tile is not None:
            line = self.drop_l1(info.owner_tile, block)
            inv = self.msg(home, info.owner_tile, MessageType.INV, now)
            if line is not None and line.dirty:
                wb = self.msg(info.owner_tile, home, MessageType.WRITEBACK, now)
                self.mem_writeback(home, block, line.version)
                worst = inv.latency + wb.latency
            else:
                ack = self.msg(info.owner_tile, home, MessageType.INV_ACK, now)
                worst = inv.latency + ack.latency
            self.stats.unicast_invalidations += 1
        for sharer in iter_bits(info.sharers):
            inv = self.msg(home, sharer, MessageType.INV, now)
            self.drop_l1(sharer, block)
            ack = self.msg(sharer, home, MessageType.INV_ACK, now)
            worst = max(worst, inv.latency + ack.latency)
            self.stats.unicast_invalidations += 1
        l2_entry = self.l2s[home].invalidate(block)
        if l2_entry is not None and l2_entry.dirty:
            self.mem_writeback(home, block, l2_entry.version)
        self.set_busy(block, now + worst)

    def reset_stats(self) -> None:
        super().reset_stats()
        from ...cache.cache import CacheAccessStats

        for cache in self.dircaches:
            cache.stats = CacheAccessStats()

    def finalize_stats(self, cycles: int):
        stats = super().finalize_stats(cycles)
        agg = stats.structure("dir")
        for cache in self.dircaches:
            agg.merge(cache.stats)
        return stats

    # ------------------------------------------------------------------
    # verification

    def _directory_audit(
        self,
        block: int,
        holders: Sequence[Tuple[int, L1Line]],
        now: Optional[int] = None,
    ) -> None:
        """Full-map consistency: the home's sharing code must cover
        every live L1 copy (stale *extra* bits are fine — S evictions
        are silent) and an owner pointer must name a live E/M line."""
        home = (block & self._home_mask)
        info = self.l2s[home].peek(block)
        via = "L2"
        if info is None:
            info = self.dircaches[home].peek(block)
            via = "dircache"
        if info is None:
            if holders:
                self._audit_fail(
                    block,
                    "no directory information at home "
                    f"{home} but live L1 copies at "
                    f"{[t for t, _ in holders]}",
                    now,
                )
            return
        covered = info.sharers
        if info.owner_tile is not None:
            covered |= 1 << info.owner_tile
            if info.owner_tile in self._inactive_tiles:
                self._audit_fail(
                    block,
                    f"{via} owner pointer names inactive tile "
                    f"{info.owner_tile} (stale after consolidation)",
                    now,
                )
            oline = self.l1s[info.owner_tile].peek(block)
            if oline is None or oline.state not in (L1State.E, L1State.M):
                self._audit_fail(
                    block,
                    f"{via} names L1[{info.owner_tile}] exclusive owner but it "
                    f"holds {oline.state.name if oline else 'no copy'}",
                    now,
                )
        for tile, line in holders:
            if not covered & (1 << tile):
                self._audit_fail(
                    block,
                    f"L1[{tile}] holds {line.state.name} outside the {via} "
                    f"sharing code {covered:#x}",
                    now,
                )
