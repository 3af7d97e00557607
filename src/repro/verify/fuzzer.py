"""Adversarial workload generation for protocol fuzzing.

The paper's synthetic workloads are *statistically* realistic; the
fuzzer is the opposite — short, seeded op sequences built to hit the
transitions the steady-state mix rarely exercises: ownership ping-pong
between two tiles, eviction storms through one L1 set, every tile
racing to upgrade the same block, dedup'd read-mostly pages broken by
an occasional write.  Sequences are tiny (hundreds of ops) so a
failure shrinks to something a human can replay by hand.

Everything is driven by one :class:`random.Random` seeded from the
caller, so ``generate_ops(seed=s)`` is reproducible bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim.config import ConfigError, is_int

__all__ = ["Op", "SCENARIOS", "EVENT_SCENARIOS", "generate_ops"]

#: block-number pool; small enough that hot blocks collide constantly,
#: large enough (vs the tiny test chip's 16-entry L1s) to force
#: evictions along the way
DEFAULT_POOL = 64

#: stride that maps distinct blocks onto the same L1 set of the tiny
#: test chip (8 sets); eviction-storm traffic uses it to overflow one
#: set's associativity
SET_STRIDE = 8

#: the consolidation actions an :class:`Op` can carry
EVENTS = ("migrate", "drain", "shootdown")


@dataclass(frozen=True)
class Op:
    """One step of a fuzz trace: a memory operation, or — when
    ``event`` is set — a consolidation action injected between ops:

    * ``"migrate"`` — move ``tile``'s whole L1 state to tile ``arg``
      (:meth:`migrate_tile_state`; the source tile goes inactive);
    * ``"drain"`` — flush ``tile``'s L1 and deactivate it (a VM
      departure, :meth:`drain_tile`);
    * ``"shootdown"`` — invalidate every live copy of ``block``
      (:meth:`shootdown_block`; what a dedup merge does to the retired
      frame's blocks).
    """

    tile: int
    block: int
    is_write: bool
    #: consolidation action, or ``None`` for a plain memory op
    event: Optional[str] = None
    #: event operand (the migration's destination tile)
    arg: int = 0

    def to_list(self) -> List:
        if self.event is None:
            return [self.tile, self.block, int(self.is_write)]
        return [self.tile, self.block, int(self.is_write), self.event, self.arg]

    @classmethod
    def from_list(cls, doc: Any) -> "Op":
        """Inverse of :meth:`to_list`: ``[tile, block, 0|1]`` or
        ``[tile, block, 0|1, event, arg]`` with non-negative integer
        tile, block and arg; anything else is a :class:`ConfigError`.
        Whether the tiles exist is the chip's question."""
        ok = isinstance(doc, list) and len(doc) in (3, 5)
        if ok:
            tile, block, w, event, arg = doc if len(doc) == 5 else [*doc, None, 0]
            ok = (
                all(is_int(v) and v >= 0 for v in (tile, block, arg))
                and w in (0, 1)
                and (event is None or event in EVENTS)
            )
        if not ok:
            raise ConfigError(
                "",
                f"expected [tile, block, 0|1] or [tile, block, 0|1, "
                f"{'|'.join(EVENTS)}, arg], got {doc!r}",
            )
        return cls(tile, block, bool(w), event, arg)


Generator = Callable[[random.Random, int, int], List[Op]]


def _false_sharing(rng: random.Random, n_tiles: int, n_ops: int) -> List[Op]:
    """All tiles read/write a handful of hot blocks concurrently."""
    hot = rng.sample(range(DEFAULT_POOL), 4)
    return [
        Op(rng.randrange(n_tiles), rng.choice(hot), rng.random() < 0.5)
        for _ in range(n_ops)
    ]


def _ping_pong(rng: random.Random, n_tiles: int, n_ops: int) -> List[Op]:
    """Two distant tiles alternately write one block (ownership churn)."""
    a, b = 0, n_tiles - 1
    block = rng.randrange(DEFAULT_POOL)
    ops = []
    for i in range(n_ops):
        if rng.random() < 0.15:  # background noise from a third tile
            ops.append(Op(rng.randrange(n_tiles), block, False))
        else:
            ops.append(Op(a if i % 2 == 0 else b, block, True))
    return ops


def _eviction_storm(rng: random.Random, n_tiles: int, n_ops: int) -> List[Op]:
    """Overflow one L1 set so dirty owners get evicted mid-sharing."""
    base = rng.randrange(SET_STRIDE)
    conflict = [base + k * SET_STRIDE for k in range(DEFAULT_POOL // SET_STRIDE)]
    tiles = rng.sample(range(n_tiles), min(4, n_tiles))
    return [
        Op(rng.choice(tiles), rng.choice(conflict), rng.random() < 0.6)
        for _ in range(n_ops)
    ]


def _dedup_race(rng: random.Random, n_tiles: int, n_ops: int) -> List[Op]:
    """Read-mostly shared blocks with rare writes (CoW-break pattern)."""
    pages = rng.sample(range(DEFAULT_POOL), 8)
    ops = []
    for _ in range(n_ops):
        block = rng.choice(pages)
        # every tile reads; one write slices through the sharer set
        ops.append(Op(rng.randrange(n_tiles), block, rng.random() < 0.05))
    return ops


def _racing_upgrades(rng: random.Random, n_tiles: int, n_ops: int) -> List[Op]:
    """Bursts of read-then-write by many tiles on the same block."""
    ops: List[Op] = []
    while len(ops) < n_ops:
        block = rng.randrange(DEFAULT_POOL)
        racers = rng.sample(range(n_tiles), min(6, n_tiles))
        for t in racers:  # everyone takes a shared copy...
            ops.append(Op(t, block, False))
        rng.shuffle(racers)
        for t in racers:  # ...then everyone upgrades
            ops.append(Op(t, block, True))
    return ops[:n_ops]


def _mixed_random(rng: random.Random, n_tiles: int, n_ops: int) -> List[Op]:
    """Uniform background traffic; catches whatever the targeted
    scenarios miss."""
    return [
        Op(rng.randrange(n_tiles), rng.randrange(DEFAULT_POOL), rng.random() < 0.4)
        for _ in range(n_ops)
    ]


def _migrate_race(rng: random.Random, n_tiles: int, n_ops: int) -> List[Op]:
    """Hot-block traffic while one VM's L1 state ping-pongs between two
    tiles — migration racing reads, upgrades and busy blocks."""
    src, dst = 0, n_tiles - 1
    others = list(range(1, n_tiles - 1)) or [0]
    hot = rng.sample(range(DEFAULT_POOL), 4)
    ops: List[Op] = []
    at_src = True
    while len(ops) < n_ops:
        live = src if at_src else dst
        for _ in range(rng.randrange(4, 10)):
            tile = live if rng.random() < 0.5 else rng.choice(others)
            ops.append(Op(tile, rng.choice(hot), rng.random() < 0.5))
        ops.append(
            Op(live, 0, False, event="migrate", arg=dst if at_src else src)
        )
        at_src = not at_src
    return ops[:n_ops]


def _depart_dirty_owner(rng: random.Random, n_tiles: int, n_ops: int) -> List[Op]:
    """One tile dirties a working set, then departs (drain) while the
    survivors immediately re-read the blocks it owned."""
    victim = n_tiles - 1
    survivors = list(range(n_tiles - 1))
    blocks = rng.sample(range(DEFAULT_POOL), 8)
    ops: List[Op] = []
    for _ in range(max(1, n_ops // 3)):
        if rng.random() < 0.4:
            ops.append(Op(victim, rng.choice(blocks), True))
        else:
            ops.append(
                Op(rng.choice(survivors), rng.choice(blocks), rng.random() < 0.3)
            )
    ops.append(Op(victim, 0, False, event="drain"))
    while len(ops) < n_ops:
        ops.append(
            Op(rng.choice(survivors), rng.choice(blocks), rng.random() < 0.5)
        )
    return ops[:n_ops]


def _shootdown_upgrade(rng: random.Random, n_tiles: int, n_ops: int) -> List[Op]:
    """Shared blocks shot down (a dedup merge retiring their frame)
    right between the read phase and a racing wave of upgrades."""
    hot = rng.sample(range(DEFAULT_POOL), 6)
    ops: List[Op] = []
    while len(ops) < n_ops:
        block = rng.choice(hot)
        racers = rng.sample(range(n_tiles), min(4, n_tiles))
        for t in racers:
            ops.append(Op(t, block, False))
        ops.append(Op(0, block, False, event="shootdown"))
        for t in racers:
            ops.append(Op(t, block, True))
    return ops[:n_ops]


SCENARIOS: Dict[str, Generator] = {
    "false-sharing": _false_sharing,
    "ping-pong": _ping_pong,
    "eviction-storm": _eviction_storm,
    "dedup-race": _dedup_race,
    "racing-upgrades": _racing_upgrades,
    "mixed-random": _mixed_random,
}

#: consolidation-event scenarios, kept out of :data:`SCENARIOS` so the
#: default round rotation (pinned by tests and CI baselines) is
#: unchanged — select them explicitly via ``--scenario`` / the
#: ``scenarios=`` runner parameter
EVENT_SCENARIOS: Dict[str, Generator] = {
    "migrate-race": _migrate_race,
    "depart-dirty-owner": _depart_dirty_owner,
    "shootdown-upgrade": _shootdown_upgrade,
}


def generate_ops(
    seed: int,
    n_ops: int,
    n_tiles: int,
    scenario: str | None = None,
) -> Tuple[str, List[Op]]:
    """Produce a seeded adversarial op sequence.

    With ``scenario=None`` the seed also picks the scenario (from the
    classic catalogue only), so a round counter alone sweeps it.  An
    explicit ``scenario`` may name any catalogue entry, including the
    consolidation-event ones.  Returns the scenario name with the ops
    so reports and bundles can say what was fuzzed.
    """
    rng = random.Random(seed)
    if scenario is None:
        scenario = sorted(SCENARIOS)[rng.randrange(len(SCENARIOS))]
    catalogue = {**SCENARIOS, **EVENT_SCENARIOS}
    try:
        gen = catalogue[scenario]
    except KeyError:
        raise ValueError(
            f"unknown fuzz scenario {scenario!r}; options: {sorted(catalogue)}"
        ) from None
    return scenario, gen(rng, n_tiles, n_ops)
