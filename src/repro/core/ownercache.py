"""The L2 Coherence Cache (L2C$) — exact owner pointers.

Sec. IV: "the L2C$ is a cache at the L2 level indexed by the block
address that contains tags and GenPos.  The information in the L2C$ is
not a prediction but the precise identity of the L1 cache that holds
the ownership for the block."

Eviction of an L2C$ entry forces the pointed-to owner to relinquish the
ownership back to the home L2 (Sec. IV-A1); the protocol registers a
callback for that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..cache.cache import SetAssocCache

__all__ = ["OwnerCache"]


@dataclass
class _OwnerEntry:
    owner_tile: int


class OwnerCache:
    """Per-home-bank table of L1 ownership pointers."""

    def __init__(
        self,
        home_tile: int,
        n_entries: int,
        assoc: int = 8,
        index_shift: int = 0,
    ) -> None:
        if n_entries % assoc:
            raise ValueError("entries must divide evenly into ways")
        self.home_tile = home_tile
        self.array: SetAssocCache[_OwnerEntry] = SetAssocCache(
            n_sets=n_entries // assoc,
            n_ways=assoc,
            name=f"l2c[{home_tile}]",
            index_shift=index_shift,
        )
        self.forced_relinquishes = 0

    def owner_of(self, block: int) -> Optional[int]:
        entry = self.array.lookup(block)
        return entry.owner_tile if entry else None

    def peek_owner(self, block: int) -> Optional[int]:
        entry = self.array.peek(block)
        return entry.owner_tile if entry else None

    def set_owner(self, block: int, tile: int) -> Optional[Tuple[int, int]]:
        """Record ``tile`` as owner of ``block``.

        Returns ``(victim_block, victim_owner)`` when inserting evicted
        another pointer — the caller must then run the forced-relinquish
        transaction for the victim (Sec. IV-A1).
        """
        existing = self.array.lookup(block)
        if existing is not None:
            existing.owner_tile = tile
            return None
        victim = self.array.insert(block, _OwnerEntry(owner_tile=tile))
        if victim is not None:
            self.forced_relinquishes += 1
            return victim[0], victim[1].owner_tile
        return None

    def clear(self, block: int) -> None:
        """Ownership returned to the home L2 (or block left the chip)."""
        self.array.invalidate(block)
