"""Unit tests for the set-associative cache array."""

import pytest

from repro.cache.cache import SetAssocCache


def test_insert_and_lookup():
    c = SetAssocCache(4, 2)
    assert c.insert(0x10, "a") is None
    assert c.lookup(0x10) == "a"
    assert c.lookup(0x20) is None
    assert len(c) == 1
    assert 0x10 in c and 0x20 not in c


def test_insert_overwrites_existing():
    c = SetAssocCache(4, 2)
    c.insert(5, "old")
    assert c.insert(5, "new") is None
    assert c.lookup(5) == "new"
    assert len(c) == 1


def test_eviction_returns_lru_victim():
    c = SetAssocCache(1, 2)
    c.insert(0, "a")
    c.insert(1, "b")
    c.lookup(0)  # 0 is now MRU
    victim = c.insert(2, "c")
    assert victim == (1, "b")
    assert 0 in c and 2 in c and 1 not in c

    # 4-way: fills, hits and overwrites each make a block MRU
    c = SetAssocCache(1, 4)
    for b in range(4):
        c.insert(b, b)
    assert c.victim_for(4) == (0, 0)  # the oldest fill
    c.lookup(0)
    assert c.insert(4, 4) == (1, 1)
    c.lookup(2)
    c.insert(3, 33)  # overwrite
    assert c.insert(5, 5) == (0, 0)
    assert c.insert(6, 6) == (4, 4)
    assert c.insert(7, 7) == (2, 2)
    assert sorted(c) == [(3, 33), (5, 5), (6, 6), (7, 7)]


def test_victim_for_previews_without_evicting():
    c = SetAssocCache(1, 2)
    c.insert(0, "a")
    assert c.victim_for(1) is None  # free way available
    c.insert(1, "b")
    assert c.victim_for(0) is None  # already present
    assert c.victim_for(2) == (0, "a")
    assert 0 in c  # nothing was evicted


def test_invalidate():
    c = SetAssocCache(2, 2)
    c.insert(0, "a")
    assert c.invalidate(0) == "a"
    assert c.invalidate(0) is None
    assert len(c) == 0


def test_invalidated_way_is_preferred_for_refill():
    c = SetAssocCache(1, 2)
    c.insert(0, "a")
    c.insert(1, "b")
    c.invalidate(0)
    assert c.insert(2, "c") is None  # reuses the freed way, no eviction


def test_set_mapping_uses_low_bits():
    c = SetAssocCache(4, 1)
    assert c.set_of(0) == 0
    assert c.set_of(5) == 1
    assert c.set_of(7) == 3


def test_index_shift_for_home_banks():
    # blocks homed at one bank share their low bits; the shift must
    # spread them over the sets
    c = SetAssocCache(4, 1, index_shift=6)
    blocks = [7 + i * 64 for i in range(4)]  # all ≡ 7 (mod 64)
    sets = {c.set_of(b) for b in blocks}
    assert sets == {0, 1, 2, 3}


def test_stats_accounting():
    c = SetAssocCache(1, 1)
    c.lookup(0)  # miss
    c.insert(0, "a")  # tag write
    c.lookup(0)  # hit
    c.insert(1, "b")  # eviction
    st = c.stats
    assert st.misses == 1
    assert st.hits == 1
    assert st.tag_reads == 2
    assert st.tag_writes == 2
    assert st.evictions == 1


def test_invalidate_counts_tag_write():
    c = SetAssocCache(1, 1)
    c.insert(0, "a")
    before = c.stats.tag_writes
    c.invalidate(0)
    assert c.stats.tag_writes == before + 1


def test_peek_does_not_touch_lru_or_stats():
    c = SetAssocCache(1, 2)
    c.insert(0, "a")
    c.insert(1, "b")
    reads = c.stats.tag_reads
    assert c.peek(0) == "a"
    assert c.stats.tag_reads == reads
    # LRU untouched: 0 is still the victim
    assert c.victim_for(2) == (0, "a")


def test_iteration_yields_all_frames():
    c = SetAssocCache(4, 2)
    inserted = {(i, f"v{i}") for i in range(8)}
    for b, v in inserted:
        c.insert(b, v)
    assert set(c) == inserted


def test_validation():
    with pytest.raises(ValueError):
        SetAssocCache(3, 2)
    with pytest.raises(ValueError):
        SetAssocCache(4, 0)
    with pytest.raises(ValueError):
        SetAssocCache(4, 2, index_shift=-1)


def test_capacity_and_full_behavior():
    c = SetAssocCache(2, 2)
    assert c.capacity == 4
    for b in range(8):
        c.insert(b, b)
    assert len(c) == 4  # at capacity, evictions happened
