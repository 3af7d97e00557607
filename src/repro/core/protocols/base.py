"""Shared machinery for the four coherence protocols.

The protocols are implemented as *transaction-level* state machines:
when a core issues a request, the full coherence transaction (every
message hop, every structure access) is computed and committed
atomically, and only its *timing* unfolds over simulated cycles.
Conflicting transactions are serialized through a per-block busy table
(write transactions and invalidation chains hold the block busy for
their full duration; racing requests are retried when the block frees
up).  See DESIGN.md for why this substitution preserves the paper's
metrics.

Subclasses implement the four hooks:

* ``_handle_read_miss``  — everything after an L1 read miss
* ``_handle_write_miss`` — write misses and upgrade misses
* ``_evict_l1_line``     — Table II replacement actions
* ``_evict_l2_entry``    — home-bank eviction (full invalidation)

and use the helpers here for network legs, L1 fills, busy marking and
statistics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ...cache.cache import CacheAccessStats, SetAssocCache
from ...mem.address import AddressMap
from ...mem.controller import MemoryControllers
from ...noc.network import Delivery, Network
from ...noc.topology import Mesh
from ...sim.config import ChipConfig
from ...stats.counters import RunStats
from ..area import AreaMap
from ..checker import CoherenceChecker
from ..messages import MessageType, flits_for
from ..ownercache import OwnerCache
from ..predcache import PredictionCache
from ..states import L1State

__all__ = ["L1Line", "L2Line", "AccessResult", "Leg", "CoherenceProtocol"]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` (ascending)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(slots=True)
class L1Line:
    """One L1 cache line's coherence metadata."""

    state: L1State
    version: int = 0
    dirty: bool = False
    #: sharer bitmask over global tile ids (owners/providers only);
    #: DiCo uses the full chip, the area protocols only set bits of the
    #: holder's own area — the storage model accounts the narrower field
    sharers: int = 0
    #: DiCo-Providers owners: area id -> provider tile
    propos: Dict[int, int] = field(default_factory=dict)


@dataclass(slots=True)
class L2Line:
    """One home-bank entry (data and/or directory information)."""

    has_data: bool = True
    dirty: bool = False
    version: int = 0
    #: the home L2 holds the block's ownership (DiCo family)
    is_owner: bool = False
    #: sharer bitmask (full map for Directory/DiCo; area-local for Arin)
    sharers: int = 0
    #: Directory: L1 holding the block exclusively
    owner_tile: Optional[int] = None
    #: Arin: area of a home-owned intra-area block
    owner_area: Optional[int] = None
    #: area id -> provider tile (Providers L2-owner / Arin inter-area)
    propos: Dict[int, int] = field(default_factory=dict)
    #: Arin: block is in the inter-area regime (no owner, broadcast inv.)
    inter_area: bool = False
    #: DiCo family: a stale-safe data copy kept at the home while an L1
    #: holds the ownership; never served directly (requests route
    #: through the owner), refreshed or re-promoted on owner evictions
    plain_copy: bool = False


@dataclass(slots=True)
class AccessResult:
    """Outcome of one core memory access."""

    latency: int = 0
    retry_at: Optional[int] = None
    l1_hit: bool = False
    category: Optional[str] = None

    @property
    def needs_retry(self) -> bool:
        return self.retry_at is not None


@dataclass(slots=True)
class Leg:
    """A network leg on a transaction's critical path."""

    latency: int
    hops: int


class CoherenceProtocol(ABC):
    """Base class: owns the chip structures and the access entry point."""

    name = "base"

    def __init__(
        self,
        config: ChipConfig,
        seed: int = 0,
        checker: Optional[CoherenceChecker] = None,
    ) -> None:
        self.config = config
        self.mesh = Mesh(config.mesh_width, config.mesh_height, config.noc)
        self.network = Network(
            self.mesh, track_link_load=config.noc.track_link_load
        )
        self.areas = AreaMap(config.mesh_width, config.mesh_height, config.n_areas)
        self.addr = AddressMap(
            phys_addr_bits=config.phys_addr_bits,
            block_bytes=config.block_bytes,
            page_bytes=config.memory.page_bytes,
            n_tiles=config.n_tiles,
        )
        self.memctl = MemoryControllers(
            self.mesh,
            n_controllers=config.memory.n_controllers,
            latency_cycles=config.memory.latency_cycles,
            jitter_cycles=config.memory.jitter_cycles,
            seed=seed,
        )
        self.checker = checker if checker is not None else CoherenceChecker()
        # violations raised through this checker name the protocol and
        # capture the offending block's copy set (live_copies only peeks)
        self.checker.bind(self.name, self.live_copies)
        self.stats = RunStats(protocol=self.name)

        n = config.n_tiles
        bank_bits = (n - 1).bit_length()
        self.l1s: List[SetAssocCache[L1Line]] = [
            SetAssocCache(config.l1.n_sets, config.l1.assoc, name=f"l1[{t}]")
            for t in range(n)
        ]
        # home-bank structures see only blocks with the same low bits
        # (the bank-select bits), so their set index starts above them
        self.l2s: List[SetAssocCache[L2Line]] = [
            SetAssocCache(
                config.l2.n_sets, config.l2.assoc,
                name=f"l2[{t}]", index_shift=bank_bits,
            )
            for t in range(n)
        ]
        self.l1cs: List[PredictionCache] = [
            PredictionCache(t, config.l1c_entries) for t in range(n)
        ]
        self.l2cs: List[OwnerCache] = [
            OwnerCache(t, config.l2c_entries, index_shift=bank_bits)
            for t in range(n)
        ]
        #: per-block busy-until time (transaction serialization)
        self._busy: Dict[int, int] = {}
        #: memory's version of each block (checker bookkeeping)
        self._mem_version: Dict[int, int] = {}
        # hot-path constants: the L1 hit latency, the per-tile checker
        # labels, the per-type packet sizes and the (immutable by
        # convention) L1-hit result would otherwise be recomputed on
        # every access / message
        self._l1_hit_latency = config.l1.access_latency
        self._block_shift = self.addr.block_offset_bits
        self._max_addr = self.addr.max_address
        # n_tiles is a validated power of two (AddressMap.__post_init__),
        # so the block-interleaved home is a mask; the latency getters
        # below stay as the public API, the miss handlers read these
        self._home_mask = n - 1
        self._l2_tag_lat = config.l2.tag_latency
        self._l2_access_lat = config.l2.access_latency
        self._l1c_lat = 1
        self._l1_names = [f"L1[{t}]" for t in range(n)]
        self._flits_by_type: Dict[str, int] = {}
        self._hit_result = AccessResult(
            latency=self._l1_hit_latency, l1_hit=True
        )
        #: observability hook (:class:`repro.trace.Tracer`); ``None``
        #: keeps every instrumented path at one ``is not None`` test
        self._trace = None
        #: tiles whose cores are quiesced (drained or migrated-from);
        #: audits reject precise protocol pointers at these tiles
        self._inactive_tiles: set = set()
        self._rebuild_l1_hot()

    def _rebuild_l1_hot(self) -> None:
        """Refresh the per-tile L1 internals hoisted for the inlined
        lookup in :meth:`access` (stats, set mask, block index, LRU
        stacks, way frames — one tuple load instead of five attribute
        chains), plus the per-structure eviction counters the fill
        paths bump.  Must rerun whenever the stats objects are
        replaced (``reset_stats``)."""
        self._l1_hot = [
            (l1.stats, l1._set_mask, l1._index, l1._lru, l1._ways)
            for l1 in self.l1s
        ]
        self._l1_evictions = self.stats.structure("l1")
        self._l2_evictions = self.stats.structure("l2")

    # ------------------------------------------------------------------
    # public API

    def access(self, tile: int, addr: int, is_write: bool, now: int) -> AccessResult:
        """Perform one memory access from the core at ``tile``.

        Returns either a completed access with its latency or a retry
        time when the block is busy with a conflicting transaction.
        """
        # inlined self.addr.block_of(addr): same range check, with the
        # out-of-range path deferring to it for the usual ValueError
        if 0 <= addr <= self._max_addr:
            block = addr >> self._block_shift
        else:
            block = self.addr.block_of(addr)
        busy_until = self._busy.get(block, 0)
        if busy_until > now:
            self.stats.retries += 1
            return AccessResult(retry_at=busy_until)

        st = self.stats
        st.operations += 1
        if is_write:
            st.writes += 1
        else:
            st.reads += 1

        # inlined l1.lookup(block): this is the hottest call site in a
        # run, and the L1s are built above with the default
        # index_shift=0 (set index is just a mask).  Counter and LRU
        # updates mirror SetAssocCache.lookup exactly.
        l1 = self.l1s[tile]
        l1stats, set_mask, l1_index, l1_lru, l1_ways = self._l1_hot[tile]
        l1stats.tag_reads += 1
        way = l1_index.get(block)
        if way is None:
            l1stats.misses += 1
            line = None
        else:
            l1stats.hits += 1
            s = block & set_mask
            stack = l1_lru[s]
            if stack[0] != way:
                stack.remove(way)
                stack.insert(0, way)
            line = l1_ways[s][way][1]
        hit_latency = self._l1_hit_latency

        if line is not None and line.state is not L1State.I:
            if not is_write:
                l1stats.data_reads += 1
                st.l1_hits += 1
                # inlined checker.check_read: identical bookkeeping and
                # defaultdict touch; the mismatch path re-enters
                # check_read so the violation carries its usual message
                checker = self.checker
                checker.reads_checked += 1
                if line.version != checker._version[block]:
                    checker.check_read(
                        block, line.version, where=self._l1_names[tile],
                        now=now, tile=tile,
                    )
                return self._hit_result
            if line.state in (L1State.E, L1State.M) or (
                line.state is L1State.O
                and line.sharers == 0
                and not line.propos
                and self._owner_upgrade_is_local(block, line)
            ):
                # silent upgrade: we are the only copy on chip
                l1.charge_data_write()
                st.l1_hits += 1
                st.upgrades += 1
                if self._trace is not None:
                    self._trace.transition(
                        tile, block, line.state.name, "M", "silent_upgrade"
                    )
                line.state = L1State.M
                line.dirty = True
                line.version = self.checker.commit_write(block)
                return self._hit_result
            # upgrade miss: we hold a copy but must gain ownership
            st.l1_misses += 1
            if self._trace is not None:
                self._trace.ctx = (tile, block)
            latency, links, category = self._handle_write_miss(
                tile, block, now, had_copy=True
            )
        elif is_write:
            st.l1_misses += 1
            if self._trace is not None:
                self._trace.ctx = (tile, block)
            latency, links, category = self._handle_write_miss(
                tile, block, now, had_copy=False
            )
        else:
            st.l1_misses += 1
            if self._trace is not None:
                self._trace.ctx = (tile, block)
            latency, links, category = self._handle_read_miss(tile, block, now)
        # inlined st.miss_latency.add / st.miss_links.add — two frames
        # per miss otherwise; same count/total/min/max bookkeeping
        acc = st.miss_latency
        if acc.count == 0:
            acc.minimum = acc.maximum = latency
        elif latency < acc.minimum:
            acc.minimum = latency
        elif latency > acc.maximum:
            acc.maximum = latency
        acc.count += 1
        acc.total += latency
        acc = st.miss_links
        if acc.count == 0:
            acc.minimum = acc.maximum = links
        elif links < acc.minimum:
            acc.minimum = links
        elif links > acc.maximum:
            acc.maximum = links
        acc.count += 1
        acc.total += links
        if category:
            st.miss_categories[category] += 1
        return AccessResult(latency=latency, category=category)

    def trace_transition(
        self, tile: int, block: int, frm: str, to: str, cause: str
    ) -> None:
        """Emit a protocol-layer state transition when tracing is on.

        Concrete protocols call this at every in-place L1 state
        mutation (the fill/invalidate/eviction transitions are emitted
        by the shared helpers).
        """
        tr = self._trace
        if tr is not None:
            tr.transition(tile, block, frm, to, cause)

    def _owner_upgrade_is_local(self, block: int, line: L1Line) -> bool:
        """May an owner with empty sharing code upgrade silently?

        DiCo-Arin home-owned or inter-area blocks must not (the home is
        the ordering point); subclasses override as needed.
        """
        return True

    # ------------------------------------------------------------------
    # hooks

    @abstractmethod
    def _handle_read_miss(
        self, tile: int, block: int, now: int
    ) -> Tuple[int, int, str]:
        """Resolve an L1 read miss.  Returns (latency, links, category)."""

    @abstractmethod
    def _handle_write_miss(
        self, tile: int, block: int, now: int, had_copy: bool
    ) -> Tuple[int, int, str]:
        """Resolve a write/upgrade miss.  Returns (latency, links, category)."""

    @abstractmethod
    def _evict_l1_line(
        self, tile: int, block: int, line: L1Line, now: int
    ) -> None:
        """Run the Table II replacement actions for an evicted L1 line."""

    @abstractmethod
    def _evict_l2_entry(
        self, home: int, block: int, entry: L2Line, now: int
    ) -> None:
        """Evict a home-bank entry: invalidate every copy on the chip."""

    # ------------------------------------------------------------------
    # shared helpers

    def home_of(self, block: int) -> int:
        return self.addr.home_tile(block)

    def _flits(self, msg_type: str) -> int:
        """Packet size for a message type, memoized per protocol."""
        flits = self._flits_by_type.get(msg_type)
        if flits is None:
            flits = self._flits_by_type[msg_type] = flits_for(
                msg_type,
                self.config.noc.control_flits,
                self.config.noc.data_flits,
            )
        return flits

    def msg(self, src: int, dst: int, msg_type: str, now: int) -> Delivery:
        """Send one protocol message; returns its critical-path leg.

        The returned :class:`~repro.noc.network.Delivery` (often an
        interned instance) exposes the same ``latency``/``hops`` fields
        as :class:`Leg`, without a per-message allocation.
        """
        # the memo get is inline (not via _flits) — this runs a handful
        # of times per miss and the extra frame is measurable
        flits = self._flits_by_type.get(msg_type)
        if flits is None:
            flits = self._flits(msg_type)
        return self.network.send(src, dst, flits, msg_type, now)

    def bcast(self, src: int, msg_type: str, now: int) -> Delivery:
        return self.network.broadcast(
            src, self._flits(msg_type), msg_type=msg_type, now=now
        )

    def set_busy(self, block: int, until: int) -> None:
        current = self._busy.get(block, 0)
        if until > current:
            self._busy[block] = until

    # -- memory ---------------------------------------------------------

    def mem_fetch(self, home: int, block: int) -> int:
        """Fetch a block from memory; returns the latency."""
        self.stats.memory_fetches += 1
        self.stats.l2_misses += 1
        # request to the controller and the data response are part of the
        # controller's latency model; count the two messages for traffic
        ctrl = self.memctl.controller_for(home)
        self.msg(home, ctrl, MessageType.MEM_FETCH, 0)
        self.msg(ctrl, home, MessageType.MEM_DATA, 0)
        return self.memctl.access_latency(home)

    def mem_version(self, block: int) -> int:
        return self._mem_version.get(block, 0)

    def mem_writeback(self, home: int, block: int, version: int) -> None:
        """Write dirty data back to memory (block leaves the chip dirty)."""
        self.stats.writebacks += 1
        ctrl = self.memctl.controller_for(home)
        self.msg(home, ctrl, MessageType.WRITEBACK, 0)
        self._mem_version[block] = version

    # -- L1 fills and evictions -----------------------------------------

    def fill_l1(
        self,
        tile: int,
        block: int,
        line: L1Line,
        now: int,
        supplier: Optional[int] = None,
    ) -> None:
        """Insert ``line`` into the L1 at ``tile``, evicting as needed.

        The eviction's coherence actions run via the subclass hook;
        their messages are counted but happen off the fill's critical
        path (writebacks are not blocking).
        """
        l1 = self.l1s[tile]
        victim = l1.displace(block)
        if victim is not None:
            vblock, vline = victim
            self.l1cs[tile].block_evicted(vblock)
            self._l1_evictions.evictions += 1
            tr = self._trace
            if tr is None:
                self._evict_l1_line(tile, vblock, vline, now)
            else:
                # the eviction's messages belong to the victim block
                tr.transition(tile, vblock, vline.state.name, "I", "l1_eviction")
                saved = tr.ctx
                tr.ctx = (tile, vblock)
                self._evict_l1_line(tile, vblock, vline, now)
                tr.ctx = saved
        l1.insert(block, line)
        l1.charge_data_write()
        self.l1cs[tile].block_cached(block, supplier)
        if self._trace is not None:
            self._trace.transition(tile, block, "I", line.state.name, "fill")

    def drop_l1(self, tile: int, block: int) -> Optional[L1Line]:
        """Invalidate an L1 copy (external invalidation, no actions)."""
        line = self.l1s[tile].invalidate(block)
        if line is not None:
            self.l1cs[tile].block_evicted(block)
            if self._trace is not None:
                self._trace.transition(
                    tile, block, line.state.name, "I", "invalidated"
                )
        return line

    # -- dynamic consolidation (VM migration / departure / dedup churn) --

    def set_active_tiles(self, tiles) -> None:
        """Record which tiles still run cores; the rest are *inactive*.

        Inactive tiles may keep stale L1 lines only transiently: the
        consolidation paths flush them, and :meth:`audit_block` treats
        a live copy — or a precise protocol pointer — at an inactive
        tile as a directory inconsistency.
        """
        self._inactive_tiles = set(range(self.config.n_tiles)) - set(tiles)

    def flush_l1_block(self, tile: int, block: int, now: int) -> bool:
        """Force-evict one L1 line, running the protocol's replacement
        actions (Table II) — exactly like a capacity eviction, so dirty
        owners write back and directory state is updated.  Returns
        whether a live line was flushed.
        """
        line = self.l1s[tile].invalidate(block)
        if line is None or line.state is L1State.I:
            return False
        self.l1cs[tile].block_evicted(block)
        self._l1_evictions.evictions += 1
        tr = self._trace
        if tr is None:
            self._evict_l1_line(tile, block, line, now)
        else:
            tr.transition(
                tile, block, line.state.name, "I", "consolidation_flush"
            )
            saved = tr.ctx
            tr.ctx = (tile, block)
            self._evict_l1_line(tile, block, line, now)
            tr.ctx = saved
        return True

    def drain_tile(self, tile: int, now: int, deactivate: bool = False) -> int:
        """Flush every live L1 line of ``tile`` (VM departure / quiesce).

        Returns the number of lines flushed.  With ``deactivate`` the
        tile is also marked inactive for the audits.
        """
        flushed = 0
        for block in sorted(b for b, _ in self.l1s[tile]):
            if self.flush_l1_block(tile, block, now):
                flushed += 1
        if deactivate:
            self._inactive_tiles.add(tile)
        return flushed

    def migrate_tile_state(
        self, src: int, dst: int, now: int
    ) -> Tuple[int, int]:
        """Hand the coherence state of ``src``'s L1 over to ``dst``.

        Per block the protocol-specific :meth:`_migrate_block_state`
        hook may *transfer* the line (move the copy and re-home its
        metadata); blocks it declines — and blocks busy with an
        in-flight transaction — are flushed instead, writing dirty
        owners back through the normal eviction actions.  Returns
        ``(moved, flushed)``.
        """
        moved = flushed = 0
        busy = self._busy
        for block in sorted(b for b, _ in self.l1s[src]):
            if busy.get(block, 0) <= now and self._migrate_block_state(
                block, src, dst, now
            ):
                moved += 1
            elif self.flush_l1_block(src, block, now):
                flushed += 1
        self._inactive_tiles.add(src)
        self._inactive_tiles.discard(dst)
        return moved, flushed

    def _migrate_block_state(
        self, block: int, src: int, dst: int, now: int
    ) -> bool:
        """Try to transfer one L1 line from ``src`` to ``dst``.

        The base protocol has no transfer path — everything is flushed.
        Directory and plain DiCo override this with a real handoff
        (move the line, re-point owner metadata); the area-keyed
        families (Providers, Arin) deliberately do *not*: their sharing
        codes are keyed by area and cannot survive a region change —
        the brittleness the dynamic experiments measure.
        """
        return False

    def shootdown_block(self, block: int, now: int) -> int:
        """Invalidate every L1 copy of ``block`` chip-wide (the
        TLB-shootdown analogue after a dedup re-merge retires a frame).

        Flushes run the normal eviction actions, so ownership may hop
        between copies (DiCo transfers to a sharer); the loop re-scans
        until no live copy remains.  Returns the number flushed.
        """
        flushed = 0
        for _ in range(4 * self.config.n_tiles):
            copies = self._l1_copies(block)
            if not copies:
                break
            tile, _line = copies[0]
            if self.flush_l1_block(tile, block, now):
                flushed += 1
        return flushed

    # -- L2 fills --------------------------------------------------------

    def fill_l2(self, home: int, block: int, entry: L2Line, now: int) -> None:
        """Insert a home-bank entry, running eviction actions as needed."""
        l2 = self.l2s[home]
        victim = l2.displace(block)
        if victim is not None:
            vblock, ventry = victim
            self._l2_evictions.evictions += 1
            tr = self._trace
            if tr is None:
                self._evict_l2_entry(home, vblock, ventry, now)
            else:
                # the home eviction's invalidations belong to the victim
                saved = tr.ctx
                tr.ctx = (home, vblock)
                self._evict_l2_entry(home, vblock, ventry, now)
                tr.ctx = saved
        l2.insert(block, entry)
        if entry.has_data:
            l2.charge_data_write()

    # -- statistics -------------------------------------------------------

    def live_copies(self, block: int) -> List[Tuple[str, str, int]]:
        """All live copies of a block, for the coherence checker."""
        copies: List[Tuple[str, str, int]] = []
        for tile, l1 in enumerate(self.l1s):
            line = l1.peek(block)
            if line is not None and line.state is not L1State.I:
                copies.append((f"L1[{tile}]", line.state.name, line.version))
        home = (block & self._home_mask)
        entry = self.l2s[home].peek(block)
        if (
            entry is not None
            and entry.has_data
            and entry.owner_tile is None
            and not entry.plain_copy
        ):
            # plain copies and entries under an exclusive L1 owner are
            # architecturally stale and never served directly
            kind = "L2_OWNER" if entry.is_owner else "L2"
            copies.append((f"L2[{home}]", kind, entry.version))
        return copies

    def check_block(self, block: int) -> None:
        """Assert the coherence invariants for one block."""
        self.checker.check_copy_set(block, self.live_copies(block))

    def audit_block(self, block: int, now: Optional[int] = None) -> None:
        """Full per-block audit: copy-set invariants plus the
        protocol-specific directory-consistency check."""
        self.checker.check_copy_set(block, self.live_copies(block), now=now)
        if self._inactive_tiles:
            for tile, line in self._l1_copies(block):
                if tile in self._inactive_tiles:
                    self._audit_fail(
                        block,
                        f"live {line.state.name} copy on inactive tile "
                        f"{tile} (not drained on departure/migration)",
                        now,
                    )
        self._directory_audit(block, now)

    def _directory_audit(self, block: int, now: Optional[int] = None) -> None:
        """Assert that this protocol's sharing metadata is consistent
        with the actual copies of ``block`` on the chip.

        Subclasses override with their structure-specific invariants
        (directory coverage, owner-pointer precision, provider
        liveness, ...).  Implementations must only *peek* at caches —
        an audit must never perturb LRU state or statistics.
        """

    def _l1_copies(self, block: int) -> List[Tuple[int, L1Line]]:
        """``(tile, line)`` for every live L1 copy of ``block`` (peek only)."""
        out: List[Tuple[int, L1Line]] = []
        for tile, l1 in enumerate(self.l1s):
            line = l1.peek(block)
            if line is not None and line.state is not L1State.I:
                out.append((tile, line))
        return out

    def _audit_fail(
        self, block: int, message: str, now: Optional[int] = None
    ) -> None:
        """Raise a directory-consistency violation with full context."""
        self.checker.fail(
            f"{self.name}: directory inconsistency on block {block:#x}: {message}",
            block=block,
            cycle=now,
        )

    def reset_stats(self) -> None:
        """Discard all counters (cache contents survive).

        Used to exclude the cold-start warmup from measurements, like
        the paper's checkpoint-based sampling does.
        """
        self.stats = RunStats(protocol=self.name)
        self.network.reset_stats()
        for cache in (*self.l1s, *self.l2s):
            cache.stats = CacheAccessStats()
        self._rebuild_l1_hot()
        for pred in self.l1cs:
            pred.array.stats = CacheAccessStats()
            pred.stats.lookups = pred.stats.hits = pred.stats.updates = 0
        for oc in self.l2cs:
            oc.array.stats = CacheAccessStats()
            oc.forced_relinquishes = 0
        if self._trace is not None:
            # reconciliation only counts events after this marker — the
            # aggregate counters were just zeroed
            self._trace.marker("reset_stats")

    def finalize_stats(self, cycles: int) -> RunStats:
        """Aggregate per-structure counters into the run statistics."""
        st = self.stats
        st.cycles = cycles
        for group, caches in (
            ("l1", self.l1s),
            ("l2", self.l2s),
            ("l1c", [p.array for p in self.l1cs]),
            ("l2c", [c.array for c in self.l2cs]),
        ):
            agg = st.structure(group)
            for cache in caches:
                agg.merge(cache.stats)
        st.network.merge(self.network.stats)
        lookups = hits = updates = 0
        for pred in self.l1cs:
            lookups += pred.stats.lookups
            hits += pred.stats.hits
            updates += pred.stats.updates
        st.prediction = {
            "l1c_lookups": lookups,
            "l1c_hits": hits,
            "l1c_updates": updates,
            "l2c_forced_relinquishes": sum(
                oc.forced_relinquishes for oc in self.l2cs
            ),
        }
        return st
