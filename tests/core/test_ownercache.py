"""Unit tests for the L2C$ owner-pointer cache."""

from repro.core.ownercache import OwnerCache


def make(entries: int = 16) -> OwnerCache:
    return OwnerCache(home_tile=0, n_entries=entries, assoc=4)


def test_set_and_get_owner():
    oc = make()
    assert oc.owner_of(0x10) is None
    assert oc.set_owner(0x10, 5) is None
    assert oc.owner_of(0x10) == 5
    assert oc.peek_owner(0x10) == 5


def test_update_existing_pointer_in_place():
    oc = make()
    oc.set_owner(0x10, 5)
    assert oc.set_owner(0x10, 9) is None  # no eviction
    assert oc.owner_of(0x10) == 9


def test_clear():
    oc = make()
    oc.set_owner(0x10, 5)
    oc.clear(0x10)
    assert oc.owner_of(0x10) is None


def test_capacity_eviction_reports_victim():
    oc = OwnerCache(home_tile=0, n_entries=4, assoc=4)
    for b in range(4):
        assert oc.set_owner(b, b + 10) is None
    victim = oc.set_owner(99, 50)
    assert victim is not None
    vblock, vowner = victim
    assert vblock in range(4)
    assert vowner == vblock + 10
    assert oc.forced_relinquishes == 1
    assert oc.owner_of(vblock) is None


def test_index_shift_spreads_bank_local_blocks():
    oc = OwnerCache(home_tile=0, n_entries=16, assoc=4, index_shift=6)
    # blocks all homed at tile 0 of a 64-tile chip (≡ 0 mod 64)
    for i in range(8):
        assert oc.set_owner(i * 64, 1) is None  # no premature eviction
