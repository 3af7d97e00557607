"""Property-based tests: the cache array against a reference model."""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.cache.cache import CacheAccessStats, SetAssocCache

BLOCKS = st.integers(min_value=0, max_value=255)
#: few enough blocks, and long enough op lists, that hits, overwrites
#: and evictions interleave within a set, so a wrong recency order
#: shows up as a wrong victim
HOT_BLOCKS = st.integers(min_value=0, max_value=11)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), HOT_BLOCKS, st.integers()),
        st.tuples(st.just("lookup"), HOT_BLOCKS, st.none()),
        st.tuples(st.just("invalidate"), HOT_BLOCKS, st.none()),
    ),
    min_size=10,
    max_size=200,
)


@given(ops=ops, n_sets=st.sampled_from([1, 2, 4]), n_ways=st.sampled_from([1, 2, 4]))
@settings(max_examples=100, deadline=None)
def test_cache_agrees_with_reference_dict(ops, n_sets, n_ways):
    """The cache is an exact per-set LRU: against a model holding one
    ``OrderedDict`` per set (least recently used first), every victim,
    lookup result, membership test, occupancy and access counter
    matches after every operation."""
    cache: SetAssocCache[int] = SetAssocCache(n_sets, n_ways)
    model = [OrderedDict() for _ in range(n_sets)]
    expect = CacheAccessStats()

    for op, block, value in ops:
        lru = model[block % n_sets]
        if op == "insert":
            expect.tag_writes += 1
            want = None
            if block in lru:
                lru.move_to_end(block)
            elif len(lru) == n_ways:
                want = lru.popitem(last=False)
                expect.evictions += 1
            lru[block] = value
            assert cache.insert(block, value) == want
        elif op == "lookup":
            expect.tag_reads += 1
            if block in lru:
                expect.hits += 1
                lru.move_to_end(block)
            else:
                expect.misses += 1
            assert cache.lookup(block) == lru.get(block)
        else:
            want = lru.pop(block, None)
            if want is not None:
                expect.tag_writes += 1
            assert cache.invalidate(block) == want
        assert len(cache) == sum(len(m) for m in model)
        assert (block in cache) == (block in lru)
        assert sorted(cache.blocks_in_set(block % n_sets)) == sorted(lru)

    assert dict(iter(cache)) == {b: v for m in model for b, v in m.items()}
    for s in range(n_sets):
        assert sorted(cache.blocks_in_set(s)) == sorted(model[s])
    assert cache.stats == expect


@given(
    blocks=st.lists(BLOCKS, min_size=1, max_size=100),
    n_ways=st.sampled_from([1, 2, 4, 8]),
)
@settings(max_examples=60, deadline=None)
def test_most_recent_insertions_survive(blocks, n_ways):
    """The last n_ways distinct blocks of one set are always present."""
    cache: SetAssocCache[int] = SetAssocCache(1, n_ways)
    for b in blocks:
        cache.insert(b, b)
    recent = []
    for b in reversed(blocks):
        if b not in recent:
            recent.append(b)
        if len(recent) == n_ways:
            break
    for b in recent:
        assert b in cache


@given(low_bits=st.integers(0, 63), n=st.integers(5, 64))
@settings(max_examples=50, deadline=None)
def test_index_shift_spreads_bank_aligned_blocks(low_bits, n):
    """Blocks homed at one bank share their low 6 bits.  Without the
    shift they collapse into one set; with it they spread out."""
    plain = SetAssocCache(64, 4)
    shifted = SetAssocCache(64, 4, index_shift=6)
    blocks = [(i << 6) | low_bits for i in range(n)]
    for b in blocks:
        plain.insert(b, b)
        shifted.insert(b, b)
    # the shifted cache keeps every block (unique sets)
    assert all(b in shifted for b in blocks)
    # the plain cache collapsed them into one 4-way set
    assert sum(b in plain for b in blocks) == min(n, 4)
