"""The L1 Coherence Cache (L1C$) — supplier prediction.

Sec. IV: "The L1C$ is indexed by the block address and each entry
contains a tag and a GenPo.  The GenPo holds a prediction of where the
supplier of the block is.  Upon an L1 miss this prediction (if present)
is used as the destination for the request, otherwise the request is
sent to the home L2."

Two storage locations hold predictions (Sec. IV-A2): blocks cached in
the L1 keep their GenPo inside the L1 entry at no extra cost; blocks
not cached use the dedicated L1C$ array.  :class:`PredictionCache`
exposes one facade over both — the L1 entry pointer is registered here
by the protocol when the block is cached, and migrates into the
dedicated array when the block is evicted ("when a block is evicted
from the L1 cache, the identity of the supplier is retained in the
L1C$").

The update rules implement the three-state FSM of Fig. 5: messages sent
by a potential supplier (data, invalidations, write requests) and
explicit hint messages all update the prediction; becoming the supplier
oneself clears it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..cache.cache import SetAssocCache

__all__ = ["PredictionStats", "PredictionCache"]


@dataclass
class PredictionStats:
    lookups: int = 0
    hits: int = 0
    updates: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class PredictionCache:
    """Per-tile supplier-prediction store (dedicated array + L1-resident)."""

    def __init__(self, owner_tile: int, n_entries: int, assoc: int = 4) -> None:
        if n_entries % assoc:
            raise ValueError("entries must divide evenly into ways")
        self.owner_tile = owner_tile
        self.array: SetAssocCache[int] = SetAssocCache(
            n_sets=n_entries // assoc,
            n_ways=assoc,
            name=f"l1c[{owner_tile}]",
        )
        #: predictions stored inside resident L1 entries (block -> tile)
        self._resident: Dict[int, int] = {}
        self.stats = PredictionStats()

    # ------------------------------------------------------------------
    # prediction queries

    def predict(self, block: int) -> Optional[int]:
        """Predicted supplier tile for ``block`` or ``None``.

        Counts a lookup; a later call to :meth:`record_outcome` tells
        the stats whether it was correct.
        """
        self.stats.lookups += 1
        tile = self._resident.get(block)
        if tile is None:
            tile = self.array.lookup(block)
        if tile is not None:
            self.stats.hits += 1
        return tile

    def peek(self, block: int) -> Optional[int]:
        tile = self._resident.get(block)
        if tile is None:
            tile = self.array.peek(block)
        return tile

    # ------------------------------------------------------------------
    # updates (Fig. 5 transitions)

    def update(self, block: int, supplier: int) -> None:
        """Learn that ``supplier`` (a tile) likely supplies ``block``."""
        if supplier == self.owner_tile:
            # we are the supplier ourselves; a self-pointer is useless
            self.forget(block)
            return
        self.stats.updates += 1
        if block in self._resident:
            self._resident[block] = supplier
        else:
            self.array.insert(block, supplier)

    def forget(self, block: int) -> None:
        self._resident.pop(block, None)
        self.array.invalidate(block)

    # ------------------------------------------------------------------
    # L1 residency tracking

    def block_cached(self, block: int, supplier: Optional[int]) -> None:
        """Block was filled into the L1; its GenPo now lives there."""
        self.array.invalidate(block)
        if supplier is not None and supplier != self.owner_tile:
            self._resident[block] = supplier
        else:
            self._resident.pop(block, None)

    def block_evicted(self, block: int) -> None:
        """Block left the L1; retain the supplier in the dedicated array."""
        tile = self._resident.pop(block, None)
        if tile is not None:
            self.array.insert(block, tile)

    def resident_prediction(self, block: int) -> Optional[int]:
        return self._resident.get(block)
