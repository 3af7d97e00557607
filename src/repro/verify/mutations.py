"""Deliberately broken protocol variants (mutation testing).

Each mutation flips exactly one transition of one protocol — the kind
of off-by-one a refactor introduces — and exists to prove the
verification harness catches real bugs, not just to decorate CI.  Each
docstring says which detection layer is expected to fire:

* ``directory-stale-eviction`` — checker value-propagation (stale
  version reaches the home on writeback);
* ``dico-lost-commit`` — **only** the commit-count oracle (the
  checker stays self-consistent, the program order does not);
* ``providers-stale-propo`` — the Providers directory audit (a ProPo
  pointer keeps naming an evicted provider);
* ``arin-skip-broadcast`` — checker SWMR/value-propagation (one stale
  copy survives the write broadcast);
* ``vh-stale-l2dir`` — the VH directory audit (the level-2 directory
  loses a live domain's bit);
* ``mesi-snoop-lost-invalidate`` — the snoop audit / checker SWMR (a
  GETX broadcast misses one sharer, whose stale S copy survives);
* ``moesi-snoop-silent-owner`` — the snoop audit / checker SWMR (an O
  owner upgrades silently while live S copies exist);
* ``dls-stale-demotion`` — the DLS LLC-inclusion audit (a demotion
  leaves the former private owner's L1 copy alive on a shared block).

Three consolidation mutations break the dynamic paths (exercised only
by the event scenarios — ``migrate-race``, ``depart-dirty-owner``,
``shootdown-upgrade``):

* ``dico-migrate-stale-owner`` — the DiCo directory audit (an owner
  migration forgets to repoint the L2C$ entry, which keeps naming the
  now-inactive source tile);
* ``directory-flush-lost-dirty`` — checker value-propagation (a
  consolidation flush drops a dirty line's writeback, so the home
  serves a stale version);
* ``mesi-snoop-drain-ghost-owner`` — the snoop audit (a departing
  tile's drain silently drops an E/M line, leaving the snoop record's
  owner pointing at the deactivated tile).

The factories build subclasses lazily so importing this module never
pays protocol-import cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..sim.config import ConfigError

__all__ = ["MUTATIONS", "Mutation", "make_mutated_factory"]


def _directory_stale_eviction() -> type:
    from ..core.protocols.directory import DirectoryProtocol

    class StaleEvictionDirectory(DirectoryProtocol):
        """Writebacks of dirty lines carry a stale (decremented)
        version — as if the eviction raced an in-flight commit."""

        def _evict_l1_line(self, tile, block, line, now):
            if line.dirty and line.version > 0:
                line.version -= 1
            super()._evict_l1_line(tile, block, line, now)

    return StaleEvictionDirectory


def _dico_lost_commit() -> type:
    from ..core.protocols.dico import DiCoProtocol

    class LostCommitDiCo(DiCoProtocol):
        """Every third write commit is dropped from the global order:
        the writer's line takes the *current* version instead of a new
        one.  All copies stay mutually consistent, so only the
        commit-count oracle can see the missing write."""

        _mut_commits = 0

        def _commit_write(self, tile, block, now):
            self._mut_commits += 1
            if self._mut_commits % 3 != 0:
                super()._commit_write(tile, block, now)
                return
            version = self.checker.current_version(block)  # no bump
            self._write_line(tile, block, version, now)

    return LostCommitDiCo


def _providers_stale_propo() -> type:
    from ..core.protocols.providers import DiCoProvidersProtocol

    class StaleProPoProviders(DiCoProvidersProtocol):
        """ProPo pointers are never cleared, so an evicted provider
        stays referenced by the owner's sharing code."""

        def _update_propo(self, block, owner_loc, owner_is_l1, area, provider):
            if provider is None:
                return  # drop the clearing action
            super()._update_propo(block, owner_loc, owner_is_l1, area, provider)

    return StaleProPoProviders


def _arin_skip_broadcast() -> type:
    from ..core.protocols.arin import DiCoArinProtocol

    class SkipBroadcastArin(DiCoArinProtocol):
        """The write broadcast misses one live copy, leaving a stale
        reader behind the new version."""

        _mut_armed = False

        def _broadcast_write(self, home, tile, block, entry, had_copy, now):
            self._mut_armed = True
            try:
                return super()._broadcast_write(
                    home, tile, block, entry, had_copy, now
                )
            finally:
                self._mut_armed = False

        def drop_l1(self, tile, block):
            if self._mut_armed and self.l1s[tile].peek(block) is not None:
                self._mut_armed = False  # skip exactly one invalidation
                return None
            return super().drop_l1(tile, block)

    return SkipBroadcastArin


def _vh_stale_l2dir() -> type:
    from ..core.protocols.vh import VirtualHierarchyProtocol

    class StaleL2DirVH(VirtualHierarchyProtocol):
        """Level-2 directory updates lose the lowest domain bit when
        more than one domain holds the block."""

        def _l2dir_set(self, block, domains_mask, owner_domain, now):
            if domains_mask & (domains_mask - 1):
                domains_mask &= domains_mask - 1
            super()._l2dir_set(block, domains_mask, owner_domain, now)

    return StaleL2DirVH


def _mesi_snoop_lost_invalidate() -> type:
    from ..core.protocols.snoop import MesiSnoopProtocol

    class LostInvalidateMesiSnoop(MesiSnoopProtocol):
        """The GETX broadcast misses exactly one snooping sharer, which
        keeps its (now stale) S copy."""

        _mut_armed = False

        def _handle_write_miss(self, tile, block, now, had_copy):
            self._mut_armed = True
            try:
                return super()._handle_write_miss(tile, block, now, had_copy)
            finally:
                self._mut_armed = False

        def drop_l1(self, tile, block):
            line = self.l1s[tile].peek(block)
            if self._mut_armed and line is not None and line.state.name == "S":
                self._mut_armed = False  # skip exactly one invalidation
                return None
            return super().drop_l1(tile, block)

    return LostInvalidateMesiSnoop


def _moesi_snoop_silent_owner() -> type:
    from ..core.protocols.snoop import MoesiSnoopProtocol

    class SilentOwnerMoesiSnoop(MoesiSnoopProtocol):
        """An O owner upgrades to M silently even while the snoopers
        hold live S copies — the write never reaches the bus."""

        def _owner_upgrade_is_local(self, block, line):
            return True

    return SilentOwnerMoesiSnoop


def _dls_stale_demotion() -> type:
    from ..core.protocols.dls import DLSProtocol

    class StaleDemotionDLS(DLSProtocol):
        """Demotion marks the block shared without invalidating the
        former private owner's L1 copy (inclusion broken)."""

        _mut_armed = False

        def _demote(self, home, block, owner, now):
            self._mut_armed = True
            try:
                return super()._demote(home, block, owner, now)
            finally:
                self._mut_armed = False

        def drop_l1(self, tile, block):
            if self._mut_armed:
                self._mut_armed = False  # leave the stale copy alive
                return None
            return super().drop_l1(tile, block)

    return StaleDemotionDLS


def _dico_migrate_stale_owner() -> type:
    from ..core.protocols.dico import DiCoProtocol

    class StaleMigrateOwnerDiCo(DiCoProtocol):
        """An owner migration moves the line but skips repointing the
        L2C$ entry, which keeps naming the now-inactive source tile."""

        _mut_armed = False

        def _migrate_block_state(self, block, src, dst, now):
            self._mut_armed = True
            try:
                return super()._migrate_block_state(block, src, dst, now)
            finally:
                self._mut_armed = False

        def _set_l1_owner(self, block, tile, now):
            if self._mut_armed:
                self._mut_armed = False  # forget exactly one repoint
                return
            super()._set_l1_owner(block, tile, now)

    return StaleMigrateOwnerDiCo


def _directory_flush_lost_dirty() -> type:
    from ..core.protocols.directory import DirectoryProtocol

    class LostDirtyFlushDirectory(DirectoryProtocol):
        """A consolidation flush drops a dirty line without its
        writeback, so the home keeps serving the stale version."""

        _mut_armed = False

        def flush_l1_block(self, tile, block, now):
            self._mut_armed = True
            try:
                return super().flush_l1_block(tile, block, now)
            finally:
                self._mut_armed = False

        def _evict_l1_line(self, tile, block, line, now):
            if self._mut_armed and line.dirty:
                self._mut_armed = False  # lose exactly one writeback
                return
            super()._evict_l1_line(tile, block, line, now)

    return LostDirtyFlushDirectory


def _mesi_snoop_drain_ghost_owner() -> type:
    from ..core.protocols.snoop import MesiSnoopProtocol

    class DrainGhostOwnerMesiSnoop(MesiSnoopProtocol):
        """A departing tile's drain silently drops one E/M line, so the
        snoop record's owner keeps naming the deactivated tile."""

        _mut_armed = False

        def drain_tile(self, tile, now, deactivate=False):
            self._mut_armed = True
            try:
                return super().drain_tile(tile, now, deactivate=deactivate)
            finally:
                self._mut_armed = False

        def flush_l1_block(self, tile, block, now):
            if self._mut_armed:
                line = self.l1s[tile].peek(block)
                if line is not None and line.state.name in ("E", "M"):
                    self._mut_armed = False  # ghost exactly one owner
                    self.l1s[tile].invalidate(block)
                    return True
            return super().flush_l1_block(tile, block, now)

    return DrainGhostOwnerMesiSnoop


@dataclass(frozen=True)
class Mutation:
    """One seeded protocol bug."""

    name: str
    protocol: str  #: the protocol this mutation applies to
    expected_detector: str  #: which layer should catch it (documentation)
    build: Callable[[], type]
    #: fuzz scenario required to reach the mutated path (None: any
    #: round of the default rotation fires it); the consolidation
    #: mutations only arm on event ops, which the default rotation
    #: never emits
    scenario: Optional[str] = None


MUTATIONS: Dict[str, Mutation] = {
    m.name: m
    for m in (
        Mutation(
            "directory-stale-eviction",
            "directory",
            "checker value-propagation",
            _directory_stale_eviction,
        ),
        Mutation(
            "dico-lost-commit",
            "dico",
            "commit-count oracle",
            _dico_lost_commit,
        ),
        Mutation(
            "providers-stale-propo",
            "dico-providers",
            "directory audit",
            _providers_stale_propo,
        ),
        Mutation(
            "arin-skip-broadcast",
            "dico-arin",
            "checker SWMR / value-propagation",
            _arin_skip_broadcast,
        ),
        Mutation(
            "vh-stale-l2dir",
            "vh",
            "directory audit",
            _vh_stale_l2dir,
        ),
        Mutation(
            "mesi-snoop-lost-invalidate",
            "mesi-snoop",
            "snoop audit / checker SWMR",
            _mesi_snoop_lost_invalidate,
        ),
        Mutation(
            "moesi-snoop-silent-owner",
            "moesi-snoop",
            "snoop audit / checker SWMR",
            _moesi_snoop_silent_owner,
        ),
        Mutation(
            "dls-stale-demotion",
            "dls",
            "LLC-inclusion audit",
            _dls_stale_demotion,
        ),
        Mutation(
            "dico-migrate-stale-owner",
            "dico",
            "directory audit (inactive-tile pointer)",
            _dico_migrate_stale_owner,
            scenario="migrate-race",
        ),
        Mutation(
            "directory-flush-lost-dirty",
            "directory",
            "checker value-propagation",
            _directory_flush_lost_dirty,
            scenario="depart-dirty-owner",
        ),
        Mutation(
            "mesi-snoop-drain-ghost-owner",
            "mesi-snoop",
            "snoop audit (inactive-tile owner)",
            _mesi_snoop_drain_ghost_owner,
            scenario="depart-dirty-owner",
        ),
    )
}


def make_mutated_factory(name: str) -> Callable[..., Any]:
    """A ``make_protocol``-compatible factory for one mutation.

    The factory builds the mutated class when the protocol name matches
    the mutation's target and falls through to the stock protocol
    otherwise, so it can be handed to the differential runner for the
    whole protocol list.
    """
    if not isinstance(name, str) or name not in MUTATIONS:
        raise ConfigError(
            "mutation",
            f"unknown mutation {name!r}; options: {sorted(MUTATIONS)}",
        )
    mutation = MUTATIONS[name]

    def factory(protocol: str, config, seed: int = 0, checker=None, **kwargs):
        from ..sim.chip import make_protocol

        if protocol != mutation.protocol:
            return make_protocol(protocol, config, seed=seed, checker=checker, **kwargs)
        cls = mutation.build()
        return cls(config, seed=seed, checker=checker, **kwargs)

    return factory
