"""Virtual Hierarchies (Marty & Hill, ISCA 2007) — the related-work
comparator the paper argues against (Sec. II).

A simplified two-level directory protocol for server consolidation:

* the chip is divided into *domains* (one per VM; we use the static
  areas as domains, matching the paper's default VM placement);
* **level 1**: each block has a *dynamic home* inside every domain
  that uses it (interleaved over the domain's tiles).  The dynamic
  home's L2 bank caches a **domain copy** of the block and a level-1
  directory (sharer bit-vector over the domain's tiles).  Intra-domain
  misses resolve inside the domain in two hops — VH's selling point;
* **level 2**: the block's static global home tracks which domains hold
  copies (domain bit-vector + owner domain) and orders cross-domain
  transactions.

The two properties the paper criticizes fall out by construction:

1. **extra storage** — a level-1 directory per L2 entry *plus* a
   level-2 directory (see :func:`vh_storage_breakdown`);
2. **reduplication of deduplicated data** — a page deduplicated across
   4 VMs gets a *separate domain copy in each domain's dynamic home*,
   quadrupling its L2 footprint and raising the L2 miss rate
   (the paper cites [6]: flat directories gain 6.6% from keeping a
   single copy).

The implementation reuses the transaction-level framework; writes are
ordered at the dynamic home when the domain is exclusive and at the
global home otherwise.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ...cache.cache import SetAssocCache
from ...sim.config import ChipConfig
from ..checker import CoherenceChecker
from ..messages import MessageType
from ..states import L1State
from ..storage import StorageBreakdown, StructureSize, storage_breakdown, tag_bits
from .base import CoherenceProtocol, L1Line, L2Line, iter_bits

__all__ = ["VirtualHierarchyProtocol", "vh_storage_breakdown"]


class VirtualHierarchyProtocol(CoherenceProtocol):
    name = "vh"

    def __init__(
        self,
        config: ChipConfig,
        seed: int = 0,
        checker: Optional[CoherenceChecker] = None,
    ) -> None:
        super().__init__(config, seed=seed, checker=checker)
        # level-2 directory caches at the global homes: domain mask +
        # owning domain (dir-only entries, like NCID extra tags)
        bank_bits = (config.n_tiles - 1).bit_length()
        self.l2dirs: List[SetAssocCache[L2Line]] = [
            SetAssocCache(
                max(1, config.dir_cache_entries // 8),
                8,
                name=f"vh2[{t}]",
                index_shift=bank_bits,
            )
            for t in range(config.n_tiles)
        ]

    # ------------------------------------------------------------------
    # geometry

    def domain_of(self, tile: int) -> int:
        return self.areas.area_of(tile)

    def dynamic_home(self, block: int, domain: int) -> int:
        """The block's level-1 home inside ``domain``."""
        tiles = self.areas.tiles_of(domain)
        return tiles[block % len(tiles)]

    # ------------------------------------------------------------------
    # level-2 directory helpers

    def _l2dir(self, block: int) -> Optional[L2Line]:
        return self.l2dirs[(block & self._home_mask)].lookup(block)

    def _l2dir_set(self, block: int, domains_mask: int, owner_domain: Optional[int], now: int) -> None:
        home = (block & self._home_mask)
        entry = self.l2dirs[home].peek(block)
        if entry is not None:
            entry.sharers = domains_mask
            entry.owner_area = owner_domain
            return
        victim = self.l2dirs[home].victim_for(block)
        if victim is not None:
            vblock, ventry = victim
            self.l2dirs[home].invalidate(vblock)
            self._global_invalidate(vblock, ventry, now)
        self.l2dirs[home].insert(
            block,
            L2Line(has_data=False, sharers=domains_mask, owner_area=owner_domain),
        )

    def _l2dir_drop(self, block: int) -> None:
        self.l2dirs[(block & self._home_mask)].invalidate(block)

    # ------------------------------------------------------------------
    # domain-copy (level-1) helpers

    def _domain_entry(self, block: int, domain: int) -> Optional[L2Line]:
        return self.l2s[self.dynamic_home(block, domain)].lookup(block)

    def _install_domain_copy(
        self, block: int, domain: int, version: int, dirty: bool, now: int
    ) -> L2Line:
        h1 = self.dynamic_home(block, domain)
        entry = L2Line(
            has_data=True,
            dirty=dirty,
            version=version,
            owner_area=domain,
            sharers=0,
        )
        self.fill_l2(h1, block, entry, now)
        return entry

    def _drop_domain(self, block: int, domain: int, requestor: int, now: int, skip: Optional[int]) -> int:
        """Invalidate a whole domain's copies; acks to the requestor.
        Returns the worst leg latency."""
        h1 = self.dynamic_home(block, domain)
        entry = self.l2s[h1].peek(block)
        worst = 0
        if entry is not None:
            for sharer in iter_bits(entry.sharers):
                if sharer == skip:
                    continue
                inv = self.msg(h1, sharer, MessageType.INV, now)
                self.drop_l1(sharer, block)
                ack = self.msg(sharer, requestor, MessageType.INV_ACK, now)
                worst = max(worst, inv.latency + ack.latency)
                self.stats.unicast_invalidations += 1
            if entry.dirty:
                self.mem_writeback(h1, block, entry.version)
            self.l2s[h1].invalidate(block)
        return worst

    # ------------------------------------------------------------------
    # reads

    def _handle_read_miss(self, tile: int, block: int, now: int) -> Tuple[int, int, str]:
        domain = self.domain_of(tile)
        h1 = self.dynamic_home(block, domain)
        t = self.config.l1.tag_latency
        links = 0
        leg = self.msg(tile, h1, MessageType.GETS, now)
        t += leg.latency
        links += leg.hops
        t += self._l2_tag_lat

        entry = self._domain_entry(block, domain)
        if entry is not None and not entry.has_data and entry.owner_tile is not None:
            # the domain's copy is exclusively owned by an L1: forward,
            # the owner downgrades and refreshes the domain copy
            owner = entry.owner_tile
            fwd = self.msg(h1, owner, MessageType.FWD_GETS, now)
            oline = self.l1s[owner].lookup(block)
            assert oline is not None and oline.state in (
                L1State.E, L1State.M
            ), "VH level-1 directory pointed at a non-owner"
            self.l1s[owner].charge_data_read()
            data = self.msg(owner, tile, MessageType.DATA, now)
            self.msg(owner, h1, MessageType.WRITEBACK, now)
            t += fwd.latency + self.config.l1.access_latency + data.latency
            links += fwd.hops + data.hops
            entry.has_data = True
            entry.dirty = oline.dirty
            entry.version = oline.version
            entry.sharers = (1 << owner) | (1 << tile)
            entry.owner_tile = None
            entry.plain_copy = False
            self.l2s[h1].charge_data_write()
            self.trace_transition(
                owner, block, oline.state.name, "S", "owner_downgrade"
            )
            oline.state = L1State.S
            oline.dirty = False
            self.checker.check_read(block, entry.version, where=self._l1_names[tile])
            self.fill_l1(
                tile, block, L1Line(state=L1State.S, version=entry.version),
                now, supplier=None,
            )
            return t, links, "unpredicted_fwd"

        if entry is not None and entry.has_data:
            # the VH fast path: an intra-domain two-hop miss
            t += self._l2_data_read(h1)
            data = self.msg(h1, tile, MessageType.DATA, now)
            t += data.latency
            links += data.hops
            entry.sharers |= 1 << tile
            self.checker.check_read(block, entry.version, where=self._l1_names[tile])
            self.fill_l1(
                tile, block, L1Line(state=L1State.S, version=entry.version),
                now, supplier=None,
            )
            return t, links, "unpredicted_home"

        # level-1 miss: go to the global (level-2) home
        lat, hops, cat = self._read_at_global(tile, domain, block, now, h1)
        return t + lat, links + hops, cat

    def _read_at_global(
        self, tile: int, domain: int, block: int, now: int, h1: int
    ) -> Tuple[int, int, str]:
        home = (block & self._home_mask)
        leg = self.msg(h1, home, MessageType.FWD_GETS, now)
        t = leg.latency + self._l2_tag_lat
        links = leg.hops
        info = self._l2dir(block)

        src_domain = None
        src_entry = None
        if info is not None:
            for d in list(iter_bits(info.sharers)):
                if d == domain:
                    continue
                candidate = self.l2s[self.dynamic_home(block, d)].peek(block)
                if candidate is None:
                    info.sharers &= ~(1 << d)  # heal a stale bit
                    continue
                src_domain, src_entry = d, candidate
                break
        if src_entry is not None:
            # another domain holds the block: fetch from its dynamic home
            src_h1 = self.dynamic_home(block, src_domain)
            fwd = self.msg(home, src_h1, MessageType.FWD_GETS, now)
            self.l2s[src_h1].charge_tag_write()
            if not src_entry.has_data:
                # that domain's copy lives in an L1 owner: pull it down
                owner = src_entry.owner_tile
                assert owner is not None
                oline = self.l1s[owner].peek(block)
                assert oline is not None
                pull = self.msg(src_h1, owner, MessageType.FWD_GETS, now)
                back = self.msg(owner, src_h1, MessageType.WRITEBACK, now)
                t += pull.latency + self.config.l1.access_latency + back.latency
                links += pull.hops + back.hops
                src_entry.has_data = True
                src_entry.dirty = oline.dirty
                src_entry.version = oline.version
                src_entry.sharers |= 1 << owner
                src_entry.owner_tile = None
                src_entry.plain_copy = False
                self.trace_transition(
                    owner, block, oline.state.name, "S", "owner_downgrade"
                )
                oline.state = L1State.S
                oline.dirty = False
            self.l2s[src_h1].charge_data_read()
            data = self.msg(src_h1, h1, MessageType.DATA, now)
            out = self.msg(h1, tile, MessageType.DATA, now)
            t += fwd.latency + self.config.l2.data_latency + data.latency
            t += out.latency
            links += fwd.hops + data.hops + out.hops
            version = src_entry.version
            # the domain copy is REduplicated into this domain's H1
            new_entry = self._install_domain_copy(block, domain, version, False, now)
            new_entry.sharers = 1 << tile
            info = self._l2dir(block)  # the install may have evicted it
            mask = (info.sharers if info else 0) | (1 << src_domain) | (1 << domain)
            self._l2dir_set(block, mask, None, now)
            self.checker.check_read(block, version, where=self._l1_names[tile])
            self.fill_l1(
                tile, block, L1Line(state=L1State.S, version=version),
                now, supplier=None,
            )
            return t, links, "unpredicted_fwd"

        # not on chip: memory fetch at the global home, install in-domain
        t += self.mem_fetch(home, block)
        version = self.mem_version(block)
        data = self.msg(home, h1, MessageType.DATA, now)
        out = self.msg(h1, tile, MessageType.DATA, now)
        t += data.latency + out.latency
        links += data.hops + out.hops
        entry = self._install_domain_copy(block, domain, version, False, now)
        entry.sharers = 1 << tile
        self._l2dir_set(block, 1 << domain, None, now)
        self.checker.check_read(block, version, where=self._l1_names[tile])
        self.fill_l1(
            tile, block, L1Line(state=L1State.S, version=version),
            now, supplier=None,
        )
        self.set_busy(block, now + t)
        return t, links, "memory"

    # ------------------------------------------------------------------
    # writes

    def _handle_write_miss(
        self, tile: int, block: int, now: int, had_copy: bool
    ) -> Tuple[int, int, str]:
        domain = self.domain_of(tile)
        h1 = self.dynamic_home(block, domain)
        home = (block & self._home_mask)
        t = self.config.l1.tag_latency
        links = 0
        leg = self.msg(tile, h1, MessageType.GETX, now)
        t += leg.latency
        links += leg.hops
        t += self._l2_tag_lat

        info = self._l2dir(block)
        other_domains = 0
        if info is not None:
            other_domains = info.sharers & ~(1 << domain)

        inv_worst = 0
        category = "unpredicted_home"
        if other_domains:
            # escalate to level 2: invalidate every other domain
            up = self.msg(h1, home, MessageType.FWD_GETX, now)
            t += up.latency + self._l2_tag_lat
            links += up.hops
            for d in iter_bits(other_domains):
                dn = self.msg(home, self.dynamic_home(block, d), MessageType.INV, now)
                w = self._drop_domain(block, d, tile, now, skip=None)
                inv_worst = max(inv_worst, up.latency + dn.latency + w)
            category = "unpredicted_fwd"

        entry = self._domain_entry(block, domain)
        version = None
        if (
            entry is not None
            and not entry.has_data
            and entry.owner_tile is not None
            and entry.owner_tile != tile
        ):
            # the domain's copy is exclusively owned by another L1:
            # invalidate it and take the data directly
            owner = entry.owner_tile
            inv = self.msg(h1, owner, MessageType.INV, now)
            oline = self.drop_l1(owner, block)
            assert oline is not None
            data = self.msg(owner, tile, MessageType.DATA, now)
            inv_worst = max(inv_worst, inv.latency + data.latency)
            links += data.hops
            version = oline.version
            entry.owner_tile = None
            entry.sharers = 0
            self.stats.unicast_invalidations += 1
        elif entry is not None and entry.has_data:
            inv_worst = max(
                inv_worst, self._drop_domain_sharers(block, domain, tile, now)
            )
            if not had_copy:
                self.l2s[h1].charge_data_read()
                data = self.msg(h1, tile, MessageType.DATA, now)
                t += self.config.l2.data_latency + data.latency
                links += data.hops
            version = entry.version
        else:
            # the domain has no copy: fetch through level 2
            if info is None or not info.sharers:
                t += self.mem_fetch(home, block)
                version = self.mem_version(block)
                category = "memory"
            else:
                src_domain = next(iter_bits(info.sharers & ~(1 << domain)), None)
                if src_domain is None:
                    t += self.mem_fetch(home, block)
                    version = self.mem_version(block)
                else:
                    src_h1 = self.dynamic_home(block, src_domain)
                    src = self.l2s[src_h1].peek(block)
                    version = src.version if src else self.mem_version(block)
                    w = self._drop_domain(block, src_domain, tile, now, skip=None)
                    inv_worst = max(inv_worst, w)
            data = self.msg(home, tile, MessageType.DATA, now)
            t += data.latency
            links += data.hops

        t += inv_worst
        new_version = self.checker.commit_write(block)
        # the writing domain's H1 keeps the (now stale-safe) entry as the
        # level-1 directory; data refreshes on the owner's writeback
        h1_entry = self._domain_entry(block, domain)
        if h1_entry is None:
            h1_entry = self._install_domain_copy(block, domain, new_version, False, now)
        h1_entry.has_data = False
        h1_entry.dirty = False
        h1_entry.version = new_version
        h1_entry.sharers = 1 << tile
        h1_entry.owner_tile = tile
        h1_entry.plain_copy = True  # never served while the L1 owner holds it
        self._l2dir_set(block, 1 << domain, domain, now)
        self._write_line(tile, block, new_version, now)
        self.set_busy(block, now + t)
        return t, links, category

    def _drop_domain_sharers(
        self, block: int, domain: int, requestor: int, now: int
    ) -> int:
        """Invalidate the domain's L1 sharers but keep the H1 entry."""
        h1 = self.dynamic_home(block, domain)
        entry = self.l2s[h1].peek(block)
        worst = 0
        if entry is None:
            return 0
        for sharer in iter_bits(entry.sharers):
            if sharer == requestor:
                continue
            inv = self.msg(h1, sharer, MessageType.INV, now)
            self.drop_l1(sharer, block)
            ack = self.msg(sharer, requestor, MessageType.INV_ACK, now)
            worst = max(worst, inv.latency + ack.latency)
            self.stats.unicast_invalidations += 1
        entry.sharers = 0
        return worst

    # ------------------------------------------------------------------
    # replacements

    def _evict_l1_line(self, tile: int, block: int, line: L1Line, now: int) -> None:
        if line.state is L1State.S:
            return  # silent; the H1 mask goes stale harmlessly
        if line.state in (L1State.E, L1State.M, L1State.O):
            domain = self.domain_of(tile)
            h1 = self.dynamic_home(block, domain)
            msg_type = MessageType.WRITEBACK if line.dirty else MessageType.PUT
            self.msg(tile, h1, msg_type, now)
            entry = self.l2s[h1].peek(block)
            if entry is not None:
                entry.has_data = True
                entry.dirty = line.dirty
                entry.version = line.version
                entry.sharers = 0
                entry.owner_tile = None
                entry.plain_copy = False
                self.l2s[h1].charge_data_write()
            else:
                self._install_domain_copy(block, domain, line.version, line.dirty, now)

    def _evict_l2_entry(self, home: int, block: int, entry: L2Line, now: int) -> None:
        """A domain copy leaves its dynamic home: invalidate the
        domain's sharers/owner and update the level-2 directory."""
        worst = 0
        targets = set(iter_bits(entry.sharers))
        if entry.owner_tile is not None:
            targets.add(entry.owner_tile)
        for sharer in targets:
            inv = self.msg(home, sharer, MessageType.INV, now)
            line = self.drop_l1(sharer, block)
            if line is not None and line.dirty:
                wb = self.msg(sharer, home, MessageType.WRITEBACK, now)
                self.mem_writeback(home, block, line.version)
                worst = max(worst, inv.latency + wb.latency)
            else:
                ack = self.msg(sharer, home, MessageType.INV_ACK, now)
                worst = max(worst, inv.latency + ack.latency)
            self.stats.unicast_invalidations += 1
        if entry.dirty and entry.has_data:
            self.mem_writeback(home, block, entry.version)
        # clear this domain's bit at the level 2 directory
        info = self._l2dir(block)
        if info is not None and entry.owner_area is not None:
            info.sharers &= ~(1 << entry.owner_area)
            if not info.sharers:
                self._l2dir_drop(block)
        self.set_busy(block, now + worst)

    def _global_invalidate(self, block: int, info: L2Line, now: int) -> None:
        """A level-2 directory entry was evicted: evict the block from
        every domain that holds it."""
        for d in list(iter_bits(info.sharers)):
            h1 = self.dynamic_home(block, d)
            entry = self.l2s[h1].peek(block)
            if entry is not None:
                self.l2s[h1].invalidate(block)
                self._evict_l2_entry(h1, block, entry, now)

    def finalize_stats(self, cycles: int):
        stats = super().finalize_stats(cycles)
        agg = stats.structure("dir")
        for cache in self.l2dirs:
            agg.merge(cache.stats)
        return stats

    def reset_stats(self) -> None:
        super().reset_stats()
        from ...cache.cache import CacheAccessStats

        for cache in self.l2dirs:
            cache.stats = CacheAccessStats()

    # ------------------------------------------------------------------
    # verification

    def _directory_audit(
        self,
        block: int,
        holders: Sequence[Tuple[int, L1Line]],
        now: Optional[int] = None,
    ) -> None:
        """Two-level consistency.  Level 1: each domain entry covers
        every live L1 copy of its domain, and an exclusive owner
        pointer names a live E/M line (with the entry's data invalid).
        Level 2: every domain holding an entry has its bit set at the
        global home.  Stale level-2 bits and stale level-1 sharer bits
        are fine (they heal lazily); *missing* ones are not."""
        info = self.l2dirs[(block & self._home_mask)].peek(block)
        live_domains = 0
        for d in range(self.config.n_areas):
            h1 = self.dynamic_home(block, d)
            entry = self.l2s[h1].peek(block)
            if entry is None:
                continue
            live_domains |= 1 << d
            if entry.owner_area != d:
                self._audit_fail(
                    block,
                    f"domain entry at L2[{h1}] tagged for domain "
                    f"{entry.owner_area} instead of {d}",
                    now,
                )
            if entry.owner_tile is not None:
                if entry.owner_tile in self._inactive_tiles:
                    self._audit_fail(
                        block,
                        f"domain {d} level-1 directory names inactive "
                        f"tile {entry.owner_tile} (stale after "
                        "consolidation)",
                        now,
                    )
                if entry.has_data:
                    self._audit_fail(
                        block,
                        f"domain {d} entry serves data while "
                        f"L1[{entry.owner_tile}] owns exclusively",
                        now,
                    )
                oline = self.l1s[entry.owner_tile].peek(block)
                if oline is None or oline.state not in (
                    L1State.E, L1State.M
                ):
                    self._audit_fail(
                        block,
                        f"domain {d} level-1 directory points at "
                        f"L1[{entry.owner_tile}] which holds "
                        f"{oline.state.name if oline else 'no copy'}",
                        now,
                    )
        for tile, line in holders:
            d = self.domain_of(tile)
            entry = self.l2s[self.dynamic_home(block, d)].peek(block)
            if entry is None:
                self._audit_fail(
                    block,
                    f"L1[{tile}] holds {line.state.name} but domain {d} "
                    "has no level-1 entry",
                    now,
                )
            if line.state in (L1State.E, L1State.M):
                if entry.owner_tile != tile:
                    self._audit_fail(
                        block,
                        f"L1[{tile}] holds {line.state.name} but domain "
                        f"{d}'s entry records owner "
                        f"{entry.owner_tile}",
                        now,
                    )
            elif not (
                entry.sharers & (1 << tile) or entry.owner_tile == tile
            ):
                self._audit_fail(
                    block,
                    f"L1[{tile}] holds {line.state.name} outside domain "
                    f"{d}'s sharer mask {entry.sharers:#x}",
                    now,
                )
        if live_domains:
            if info is None:
                self._audit_fail(
                    block,
                    "domains hold level-1 entries but the global home "
                    "has no level-2 entry",
                    now,
                )
            missing = live_domains & ~info.sharers
            if missing:
                self._audit_fail(
                    block,
                    f"level-2 directory misses domain bits {missing:#x} "
                    f"(tracks {info.sharers:#x}, live {live_domains:#x})",
                    now,
                )


def vh_storage_breakdown(config: ChipConfig) -> StorageBreakdown:
    """Per-tile coherence storage of the two-level VH directory.

    VH's headline feature over the paper's static areas is *dynamic*
    domain allocation ("VHs ... additionally allow for the dynamic
    allocation of resources to VMs", Sec. II).  Because a domain can be
    any subset of tiles, the level-1 directory cannot use narrow
    area-local fields: every level-1 entry needs a full ``ntc``-bit
    sharer map plus an owner GenPo, and the level-2 directory cache
    needs a full map of the dynamic homes as well.  That is exactly why
    the paper says "VHs increase the overhead and power consumption of
    the cache coherence protocol due to the second level of coherence
    information that is needed."
    """
    base = storage_breakdown("directory", config)
    ntc = config.n_tiles
    genpo = config.genpo_bits
    l1_level = StructureSize("l2_dir", ntc + genpo, config.l2.n_blocks)
    l2_level = StructureSize(
        "dir_cache",
        tag_bits(config, "dir") + ntc + genpo,
        config.dir_cache_entries,
    )
    return StorageBreakdown(
        protocol="vh", data=base.data, coherence=(l1_level, l2_level)
    )
