"""2D-mesh topology with XY (dimension-ordered) routing.

Tiles are numbered row-major: tile ``t`` sits at ``(t % width,
t // width)``.  Links are unidirectional; the link from tile ``a`` to a
neighbouring tile ``b`` is identified by the tuple ``(a, b)``.

The mesh knows the paper's per-hop latency constants so latency
computation lives in one place:

    latency(msg) = hops * (link + switch + router) + (flits - 1)

The ``flits - 1`` term is the serialization of a multi-flit packet's
tail through the final link (wormhole switching pipelines the rest).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List, Tuple

from ..sim.config import NocConfig

__all__ = ["Mesh"]

Link = Tuple[int, int]


@lru_cache(maxsize=None)
def _shared_hops_table(width: int, height: int) -> Tuple[int, ...]:
    """Flat ``src * n_tiles + dst -> Manhattan distance`` table of a
    ``width x height`` mesh: built once per shape, and shared read-only
    by every mesh of that shape and its network."""
    n = width * height
    xs = [t % width for t in range(n)]
    ys = [t // width for t in range(n)]
    return tuple(
        abs(sx - dx) + abs(sy - dy)
        for sx, sy in zip(xs, ys)
        for dx, dy in zip(xs, ys)
    )


class Mesh:
    """An ``width x height`` mesh with XY routing and broadcast trees."""

    def __init__(self, width: int, height: int, noc: NocConfig | None = None) -> None:
        if width < 1 or height < 1:
            raise ValueError("mesh dimensions must be positive")
        self.width = width
        self.height = height
        self.noc = noc or NocConfig()
        # geometry is immutable (NocConfig is frozen), so the per-hop
        # latency and tile count are hoisted out of the hot path once
        self._n_tiles = width * height
        self._hop_cycles = self.noc.hop_cycles
        self._route_cache: Dict[Tuple[int, int], Tuple[Link, ...]] = {}
        self._bcast_cache: Dict[int, Tuple[Tuple[Link, ...], int]] = {}
        #: :func:`_shared_hops_table` of this shape, fetched on first
        #: use (analytic benches never need it)
        self._hops_table: Tuple[int, ...] | None = None

    # ------------------------------------------------------------------
    # geometry

    @property
    def n_tiles(self) -> int:
        return self._n_tiles

    @property
    def hop_cycles(self) -> int:
        return self._hop_cycles

    def coords(self, tile: int) -> Tuple[int, int]:
        self._check(tile)
        return tile % self.width, tile // self.width

    def tile_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"({x},{y}) outside {self.width}x{self.height} mesh")
        return y * self.width + x

    def _build_hops_table(self) -> Tuple[int, ...]:
        self._hops_table = _shared_hops_table(self.width, self.height)
        return self._hops_table

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance between two tiles."""
        n = self._n_tiles
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"tile outside mesh of {n}")
        table = self._hops_table
        if table is None:
            table = self._build_hops_table()
        return table[src * n + dst]

    def neighbors(self, tile: int) -> Iterator[int]:
        x, y = self.coords(tile)
        if x > 0:
            yield self.tile_at(x - 1, y)
        if x < self.width - 1:
            yield self.tile_at(x + 1, y)
        if y > 0:
            yield self.tile_at(x, y - 1)
        if y < self.height - 1:
            yield self.tile_at(x, y + 1)

    # ------------------------------------------------------------------
    # unicast

    def route(self, src: int, dst: int) -> Tuple[Link, ...]:
        """XY route as a tuple of directed links (may be empty)."""
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        self._check(src)
        self._check(dst)
        links: List[Link] = []
        x, y = self.coords(src)
        dx, dy = self.coords(dst)
        cur = src
        while x != dx:  # X first
            x += 1 if dx > x else -1
            nxt = self.tile_at(x, y)
            links.append((cur, nxt))
            cur = nxt
        while y != dy:  # then Y
            y += 1 if dy > y else -1
            nxt = self.tile_at(x, y)
            links.append((cur, nxt))
            cur = nxt
        result = tuple(links)
        self._route_cache[key] = result
        return result

    def unicast_latency(self, src: int, dst: int, flits: int) -> int:
        """End-to-end latency of one packet in absence of contention."""
        hops = self.hops(src, dst)
        if hops == 0:
            return 0
        return hops * self._hop_cycles + (flits - 1)

    # ------------------------------------------------------------------
    # broadcast (tree-based, as added to GARNET in the paper)

    def broadcast_tree(self, src: int) -> Tuple[Tuple[Link, ...], int]:
        """Links of an XY broadcast tree rooted at ``src``.

        The tree first spans the root's row, then each row tile spans
        its column — the standard dimension-ordered broadcast.  Returns
        ``(links, max_depth_hops)``; the link count is always
        ``n_tiles - 1``.
        """
        cached = self._bcast_cache.get(src)
        if cached is not None:
            return cached
        self._check(src)
        links: List[Link] = []
        sx, sy = self.coords(src)
        # span the row of the source
        for x in range(sx + 1, self.width):
            links.append((self.tile_at(x - 1, sy), self.tile_at(x, sy)))
        for x in range(sx - 1, -1, -1):
            links.append((self.tile_at(x + 1, sy), self.tile_at(x, sy)))
        # every tile of that row spans its column
        for x in range(self.width):
            for y in range(sy + 1, self.height):
                links.append((self.tile_at(x, y - 1), self.tile_at(x, y)))
            for y in range(sy - 1, -1, -1):
                links.append((self.tile_at(x, y + 1), self.tile_at(x, y)))
        depth = max(self.hops(src, t) for t in range(self.n_tiles))
        result = (tuple(links), depth)
        self._bcast_cache[src] = result
        return result

    def broadcast_latency(self, src: int, flits: int) -> int:
        """Cycles until the farthest tile has received the broadcast."""
        _, depth = self.broadcast_tree(src)
        if depth == 0:
            return 0
        return depth * self.hop_cycles + (flits - 1)

    # ------------------------------------------------------------------

    def average_distance(self) -> float:
        """Average Manhattan distance over all ordered tile pairs.

        For a square mesh of side ``s`` this approaches the paper's
        ``2/3 * sqrt(ntc)`` figure (10.6 links for two hops at 64
        tiles, i.e. 5.3 per hop... the paper quotes the two-hop round
        trip).

        Closed form instead of the O(n^2) coordinate sweep: the x and y
        components separate, and the ordered-pair distance sum along one
        dimension of length ``k`` is ``sum_{i,j} |i - j| = k(k^2-1)/3``.
        Each x-pair occurs for every of the ``height^2`` ordered y
        choices and vice versa.
        """
        n = self.n_tiles
        if n < 2:
            return 0.0
        w, h = self.width, self.height
        total = h * h * w * (w * w - 1) // 3 + w * w * h * (h * h - 1) // 3
        return total / (n * (n - 1))

    def _check(self, tile: int) -> None:
        if not 0 <= tile < self.n_tiles:
            raise ValueError(f"tile {tile} outside mesh of {self.n_tiles}")
