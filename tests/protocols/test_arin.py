"""Scenario tests for DiCo-Arin (Secs. III-B and IV-B)."""

import dataclasses

import pytest

from repro.core.messages import MessageType
from repro.core.protocols.arin import DiCoArinProtocol
from repro.core.protocols.dico import DiCoProtocol
from repro.core.states import L1State

from ..conftest import addr_homed_at, block_homed_at, tiny_chip


@pytest.fixture
def proto() -> DiCoArinProtocol:
    return DiCoArinProtocol(tiny_chip(), seed=0)


HOME = 5  # area 0 on the 4x4 test chip


def test_intra_area_behaves_like_dico(proto):
    cfg = proto.config
    block = block_homed_at(cfg, HOME)
    addr = addr_homed_at(cfg, HOME)
    proto.access(0, addr, False, 0)
    proto.access(1, addr, False, 1250)  # same area
    owner = proto.l1s[0].peek(block)
    assert owner.state is L1State.O
    assert owner.sharers & (1 << 1)
    assert proto.l2cs[HOME].peek_owner(block) == 0


def test_remote_read_dissolves_ownership(proto):
    """Sec. III-B: the first remote-area read turns the owner into a
    provider and parks the data (and ordering) at the home L2."""
    cfg = proto.config
    block = block_homed_at(cfg, HOME)
    addr = addr_homed_at(cfg, HOME)
    proto.access(0, addr, False, 0)       # area-0 owner
    proto.access(10, addr, False, 1250)     # remote area read
    former = proto.l1s[0].peek(block)
    assert former.state is L1State.P
    assert proto.l2cs[HOME].peek_owner(block) is None
    entry = proto.l2s[HOME].peek(block)
    assert entry is not None and entry.inter_area and entry.has_data
    # both areas have a provider recorded
    assert entry.propos[proto.areas.area_of(0)] == 0
    assert entry.propos[proto.areas.area_of(10)] == 10
    assert proto.l1s[10].peek(block).state is L1State.P
    proto.check_block(block)


def test_provider_on_read_optimization_toggle():
    cfg = tiny_chip()
    on = DiCoArinProtocol(cfg, seed=0, provider_on_read=True)
    off = DiCoArinProtocol(cfg, seed=0, provider_on_read=False)
    for p in (on, off):
        block = block_homed_at(cfg, HOME)
        addr = addr_homed_at(cfg, HOME)
        p.access(0, addr, False, 0)
        p.access(10, addr, False, 1250)   # dissolve
        p.access(11, addr, False, 2500)  # served by home or provider
    assert on.l1s[11].peek(block_homed_at(cfg, HOME)).state is L1State.P
    # with the optimization off, a copy whose area already has a
    # provider is handed out as a plain sharer
    assert off.l1s[11].peek(block_homed_at(cfg, HOME)).state is L1State.S


def test_inter_area_reads_always_served_by_home_or_provider(proto):
    cfg = proto.config
    block = block_homed_at(cfg, HOME)
    addr = addr_homed_at(cfg, HOME)
    proto.access(0, addr, False, 0)
    proto.access(10, addr, False, 1250)
    r = proto.access(12, addr, False, 2500)  # third area
    assert r.category in (
        "unpredicted_home",
        "pred_provider_hit",
        "pred_owner_hit",
    )
    entry = proto.l2s[HOME].peek(block)
    assert entry.propos[proto.areas.area_of(12)] == 12
    proto.check_block(block)


def test_home_reads_pay_the_l2_tag_latency():
    """A read served at the home looks up the home's L2 tags first, as
    DiCo's home reads and Arin's forwarded and memory reads do."""
    cfg = tiny_chip()
    block = block_homed_at(cfg, HOME)
    addr = addr_homed_at(cfg, HOME)

    def home_owned_read(cls):
        # a dirty owner returns the block to the home; another tile
        # then reads it there
        proto = cls(cfg, seed=0)
        proto.access(1, addr, True, 0)
        line = proto.l1s[1].invalidate(block)
        proto._evict_l1_line(1, block, line, 2500)
        assert proto.l2s[HOME].peek(block).is_owner
        r = proto.access(3, addr, False, 5000)
        assert r.category == "unpredicted_home"
        return r.latency

    assert home_owned_read(DiCoArinProtocol) == home_owned_read(DiCoProtocol)

    def inter_area_read(tag_latency):
        l2 = dataclasses.replace(cfg.l2, tag_latency=tag_latency)
        proto = DiCoArinProtocol(dataclasses.replace(cfg, l2=l2), seed=0)
        proto.access(0, addr, False, 0)
        proto.access(10, addr, False, 1250)  # dissolve: inter-area
        r = proto.access(12, addr, False, 2500)  # third area, at the home
        assert r.category == "unpredicted_home"
        assert proto.l2s[HOME].peek(block).inter_area
        return r.latency

    tag = cfg.l2.tag_latency
    assert inter_area_read(tag + 5) - inter_area_read(tag) == 5


def test_provider_serves_read_directly(proto):
    cfg = proto.config
    block = block_homed_at(cfg, HOME)
    addr = addr_homed_at(cfg, HOME)
    proto.access(0, addr, False, 0)
    proto.access(10, addr, False, 1250)   # dissolve; 10 provider (area 3)
    proto.access(11, addr, False, 2500)  # same area; learns a supplier
    proto.drop_l1(11, block)
    r = proto.access(11, addr, False, 5000)
    assert r.category == "pred_provider_hit"


def test_write_to_inter_area_block_uses_three_phase_broadcast(proto):
    """Sec. IV-B1: broadcast -> acks -> unblock broadcast."""
    cfg = proto.config
    block = block_homed_at(cfg, HOME)
    addr = addr_homed_at(cfg, HOME)
    proto.access(0, addr, False, 0)
    proto.access(10, addr, False, 1250)
    proto.access(12, addr, False, 2000)
    bcasts_before = proto.network.stats.broadcasts
    r = proto.access(3, addr, True, 5000)
    assert not r.needs_retry
    # two broadcasts: the invalidation and the unblock
    assert proto.network.stats.broadcasts == bcasts_before + 2
    assert proto.stats.broadcast_invalidations == 1
    # every tile acked: n_tiles - 1 control acks plus grant traffic
    assert proto.network.stats.by_type[MessageType.INV_ACK] >= cfg.n_tiles - 1
    for t in (0, 10, 12):
        assert proto.l1s[t].peek(block) is None
    writer = proto.l1s[3].peek(block)
    assert writer.state is L1State.M
    # the block is back in the intra-area regime, owned by the writer
    assert proto.l2cs[HOME].peek_owner(block) == 3
    proto.check_block(block)


def test_broadcast_never_used_to_locate_data(proto):
    """Sec. III-B: reads never broadcast; the home always has the data."""
    cfg = proto.config
    addr = addr_homed_at(cfg, HOME)
    proto.access(0, addr, False, 0)
    proto.access(10, addr, False, 1250)
    proto.access(11, addr, False, 2500)
    proto.access(12, addr, False, 3750)
    assert proto.network.stats.broadcasts == 0


def test_intra_area_write_uses_precise_invalidation(proto):
    cfg = proto.config
    block = block_homed_at(cfg, HOME)
    addr = addr_homed_at(cfg, HOME)
    proto.access(0, addr, False, 0)
    proto.access(1, addr, False, 1250)
    r = proto.access(4, addr, True, 2500)  # tile 4 is still area 0
    assert proto.network.stats.broadcasts == 0
    assert proto.l1s[0].peek(block) is None
    assert proto.l1s[1].peek(block) is None
    proto.check_block(block)


def test_l2_eviction_of_inter_area_block_broadcasts(proto):
    cfg = proto.config
    block = block_homed_at(cfg, HOME)
    addr = addr_homed_at(cfg, HOME)
    proto.access(0, addr, False, 0)
    proto.access(10, addr, False, 1250)
    entry = proto.l2s[HOME].peek(block)
    bcasts = proto.network.stats.broadcasts
    proto.l2s[HOME].invalidate(block)
    proto._evict_l2_entry(HOME, block, entry, 100)
    assert proto.network.stats.broadcasts == bcasts + 2
    assert proto.l1s[0].peek(block) is None
    assert proto.l1s[10].peek(block) is None


def test_provider_eviction_is_silent_and_self_heals(proto):
    """Stale home ProPos are replaced when a forwarded request arrives
    (Sec. IV-B)."""
    cfg = proto.config
    block = block_homed_at(cfg, HOME)
    addr = addr_homed_at(cfg, HOME)
    proto.access(0, addr, False, 0)
    proto.access(10, addr, False, 1250)   # provider of area 3
    proto.access(11, addr, False, 2500)  # knows provider 10
    msgs = proto.network.stats.messages
    line = proto.l1s[10].invalidate(block)
    proto._evict_l1_line(10, block, line, 3750)
    assert proto.network.stats.messages == msgs  # silent eviction
    # tile 11 re-misses, predicts the dead provider, forwarded to home
    proto.drop_l1(11, block)
    r = proto.access(11, addr, False, 5000)
    assert r.category == "pred_miss"
    entry = proto.l2s[HOME].peek(block)
    # the stale ProPo was healed: the requestor is the new provider
    assert entry.propos[proto.areas.area_of(11)] == 11


def test_owner_eviction_rows(proto):
    cfg = proto.config
    block = block_homed_at(cfg, HOME)
    addr = addr_homed_at(cfg, HOME)
    # with a live sharer: ownership moves within the area
    proto.access(0, addr, False, 0)
    proto.access(1, addr, False, 1250)
    line = proto.l1s[0].invalidate(block)
    proto._evict_owner(0, block, line, 2500)
    assert proto.l1s[1].peek(block).state is L1State.O
    assert proto.l2cs[HOME].peek_owner(block) == 1
    proto.check_block(block)


def test_home_owned_sharers_tracked_after_relinquish():
    """The nta-bit vector + area number at the home (Sec. V-B) covers
    exactly the forced-relinquish case."""
    cfg = tiny_chip()
    proto = DiCoArinProtocol(cfg, seed=0)
    home = 5
    block = block_homed_at(cfg, home, 0)
    addr = block << 6
    proto.access(0, addr, False, 0)
    proto.access(1, addr, False, 1250)  # sharer in area 0
    # force the relinquish directly
    proto._forced_relinquish(block, 0, 2500)
    proto.l2cs[home].clear(block)
    entry = proto.l2s[home].peek(block)
    assert entry.is_owner
    assert entry.owner_area == proto.areas.area_of(0)
    assert entry.sharers & (1 << 0) and entry.sharers & (1 << 1)
    # a remote read now converts the block to inter-area
    proto.access(10, addr, False, 5000)
    entry = proto.l2s[home].peek(block)
    assert entry.inter_area
    proto.check_block(block)
