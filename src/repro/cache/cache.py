"""Generic set-associative cache array.

The cache stores opaque protocol entries keyed by *block number* (the
physical address shifted right by the block-offset bits).  It does not
know about coherence states; the protocols attach whatever entry object
they need.  Victim selection returns the evicted ``(block, entry)``
pair so the protocol can run its replacement actions (Table II of the
paper).

Replacement is true LRU (GEMS' L1/L2 default, and the policy of every
table and figure reproduced here).  Each set keeps an age stack of way
indices, most recently used first, plus a list of free ways.  A freed
(invalidated or displaced) way keeps its slot in the stack: fills take
free ways first and move them to the front, so by the time the set is
full again — the only time a victim is picked — the stack orders the
valid ways by recency.

A set's frame list, age stack and free list are built on its first
fill, and one ``block -> way`` dict serves the whole cache: a 64-tile
chip holds hundreds of caches and tens of thousands of sets, and a
short run touches only a fraction of them.

Access counting happens here so that the dynamic power model can charge
tag and data array energies per structure (Fig. 8a categories).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

__all__ = ["CacheAccessStats", "SetAssocCache"]

E = TypeVar("E")


@dataclass(slots=True)
class CacheAccessStats:
    """Per-structure access counters (inputs to the power model)."""

    tag_reads: int = 0
    tag_writes: int = 0
    data_reads: int = 0
    data_writes: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def merge(self, other: "CacheAccessStats") -> None:
        self.tag_reads += other.tag_reads
        self.tag_writes += other.tag_writes
        self.data_reads += other.data_reads
        self.data_writes += other.data_writes
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions


class SetAssocCache(Generic[E]):
    """A set-associative array of protocol entries with LRU replacement.

    ``n_sets`` must be a power of two; the set index is the low-order
    bits of the block number (the block offset is already stripped).
    """

    def __init__(
        self,
        n_sets: int,
        n_ways: int,
        name: str = "cache",
        index_shift: int = 0,
    ) -> None:
        """``index_shift`` drops low block bits before set selection —
        home-bank structures must shift out the bank-interleaving bits,
        which are constant within one bank."""
        if n_sets < 1 or n_sets & (n_sets - 1):
            raise ValueError(f"n_sets={n_sets} must be a positive power of two")
        if n_ways < 1:
            raise ValueError("n_ways must be positive")
        if index_shift < 0:
            raise ValueError("index_shift must be non-negative")
        self.n_sets = n_sets
        self.n_ways = n_ways
        self.name = name
        self.index_shift = index_shift
        self._set_mask = n_sets - 1
        # per set: way -> (block, entry), None when invalid; the list
        # itself is None until the set's first fill
        self._ways: List[Optional[List[Optional[Tuple[int, E]]]]] = [None] * n_sets
        # block -> way for every valid frame (a block maps to one set)
        self._index: Dict[int, int] = {}
        # per set: LRU age stack of way indices, MRU first, built as
        # ``list(range(n_ways))`` on the set's first fill
        self._lru: List[Optional[List[int]]] = [None] * n_sets
        # per set: stack of free way indices (None until the first
        # fill), so fills never scan the way array.  Reversed so pops
        # hand out ways in ascending order while the set is filling.
        self._free: List[Optional[List[int]]] = [None] * n_sets
        self.stats = CacheAccessStats()
        #: observability hook (:class:`repro.trace.Tracer`); only the
        #: state-changing paths (insert/displace/invalidate) consult it
        self._trace = None

    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.n_sets * self.n_ways

    def set_of(self, block: int) -> int:
        return (block >> self.index_shift) & (self.n_sets - 1)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, block: int) -> bool:
        return block in self._index

    def __iter__(self) -> Iterator[Tuple[int, E]]:
        """Iterates ``(block, entry)`` over all valid frames, set by
        set and way by way."""
        for ways in self._ways:
            if ways is not None:
                for frame in ways:
                    if frame is not None:
                        yield frame

    # ------------------------------------------------------------------

    def lookup(self, block: int, touch: bool = True) -> Optional[E]:
        """Tag lookup; returns the entry on hit, ``None`` on miss."""
        # hot path: attribute chains hoisted into locals, no asserts
        # (``_index`` and ``_ways`` are maintained together)
        stats = self.stats
        stats.tag_reads += 1
        way = self._index.get(block)
        if way is None:
            stats.misses += 1
            return None
        stats.hits += 1
        s = (block >> self.index_shift) & self._set_mask
        if touch:
            stack = self._lru[s]
            if stack[0] != way:  # already MRU: nothing to move
                stack.remove(way)
                stack.insert(0, way)
        return self._ways[s][way][1]

    def peek(self, block: int) -> Optional[E]:
        """Lookup without touching LRU state or counting an access."""
        way = self._index.get(block)
        if way is None:
            return None
        return self._ways[(block >> self.index_shift) & self._set_mask][way][1]

    def victim_for(self, block: int) -> Optional[Tuple[int, E]]:
        """What would be evicted if ``block`` were inserted now.

        Returns ``None`` when the set has a free way or already holds
        the block.
        """
        if block in self._index:
            return None
        s = self.set_of(block)
        free = self._free[s]
        if free is None or free:
            return None
        return self._ways[s][self._lru[s][-1]]

    def displace(self, block: int) -> Optional[Tuple[int, E]]:
        """Combined :meth:`victim_for` + :meth:`invalidate` of the victim.

        When inserting ``block`` would evict (set full, block absent),
        removes the victim frame — same state-write accounting as
        :meth:`invalidate` — and returns it; the follow-up
        :meth:`insert` then reuses the freed way.  Saves the fill path
        one call and one set computation over the two-step form.
        """
        index = self._index
        if block in index:
            return None
        s = (block >> self.index_shift) & self._set_mask
        free = self._free[s]
        if free is None or free:
            return None
        way = self._lru[s][-1]
        ways = self._ways[s]
        frame = ways[way]
        del index[frame[0]]
        ways[way] = None
        free.append(way)
        self.stats.tag_writes += 1
        if self._trace is not None:
            self._trace.cache_event(self.name, "evict", frame[0])
        return frame

    def insert(self, block: int, entry: E) -> Optional[Tuple[int, E]]:
        """Insert (or overwrite) ``block``; returns the evicted frame.

        The caller must have handled the victim's coherence actions
        beforehand (use :meth:`victim_for` to inspect it).
        """
        s = (block >> self.index_shift) & self._set_mask
        self.stats.tag_writes += 1
        index = self._index
        existing = index.get(block)
        if existing is not None:
            self._ways[s][existing] = (block, entry)
            stack = self._lru[s]
            if stack[0] != existing:
                stack.remove(existing)
                stack.insert(0, existing)
            if self._trace is not None:
                self._trace.cache_event(self.name, "fill", block)
            return None
        free = self._free[s]
        if free is None:
            # first fill of this set builds its frames, age stack and
            # free list, and takes way 0, already the MRU way
            n_ways = self.n_ways
            self._ways[s] = [(block, entry)] + [None] * (n_ways - 1)
            self._lru[s] = list(range(n_ways))
            self._free[s] = list(range(n_ways - 1, 0, -1))
            index[block] = 0
            if self._trace is not None:
                self._trace.cache_event(self.name, "fill", block)
            return None
        ways = self._ways[s]
        stack = self._lru[s]
        if free:
            way = free.pop()
            ways[way] = (block, entry)
            index[block] = way
            if stack[0] != way:
                stack.remove(way)
                stack.insert(0, way)
            if self._trace is not None:
                self._trace.cache_event(self.name, "fill", block)
            return None
        # evict the LRU way and make it the MRU one
        way = stack.pop()
        stack.insert(0, way)
        victim = ways[way]
        del index[victim[0]]
        ways[way] = (block, entry)
        index[block] = way
        self.stats.evictions += 1
        if self._trace is not None:
            self._trace.cache_event(self.name, "evict", victim[0])
            self._trace.cache_event(self.name, "fill", block)
        return victim

    def invalidate(self, block: int) -> Optional[E]:
        """Drop ``block``; returns its entry if it was present."""
        way = self._index.pop(block, None)
        if way is None:
            return None
        self.stats.tag_writes += 1  # state update on invalidation
        s = (block >> self.index_shift) & self._set_mask
        ways = self._ways[s]
        frame = ways[way]
        ways[way] = None
        self._free[s].append(way)
        if self._trace is not None:
            self._trace.cache_event(self.name, "invalidate", block)
        return frame[1]

    def blocks_in_set(self, s: int) -> List[int]:
        ways = self._ways[s]
        if ways is None:
            return []
        return [frame[0] for frame in ways if frame is not None]

    # ------------------------------------------------------------------
    # power-model hooks: explicit data-array access charging

    def charge_data_read(self, n: int = 1) -> None:
        self.stats.data_reads += n

    def charge_data_write(self, n: int = 1) -> None:
        self.stats.data_writes += n

    def charge_tag_write(self, n: int = 1) -> None:
        self.stats.tag_writes += n
