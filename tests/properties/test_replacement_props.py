"""Property-based tests: the LRU age stack of :class:`SetAssocCache`.

Every built set's stack must remain a permutation of ``range(n_ways)``
under *any* interleaving of insert/invalidate/lookup — a duplicate
would make a later ``list.remove`` silently strip the wrong occurrence,
and a missing way would make it raise.
"""

from hypothesis import given, settings, strategies as st

from repro.cache.cache import SetAssocCache

CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("invalidate"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("lookup"), st.integers(min_value=0, max_value=63)),
    ),
    max_size=300,
)


@given(n_ways=st.sampled_from([1, 2, 4]), ops=CACHE_OPS)
@settings(max_examples=150, deadline=None)
def test_cache_mediated_invalidate_refill_sequences(n_ways, ops):
    """Drive the age stacks through the cache array itself, so hits,
    fills, overwrites, evictions and invalidations reach them in the
    order real traffic does, and check the permutation invariant plus
    set consistency after every operation."""
    cache: SetAssocCache[int] = SetAssocCache(4, n_ways)
    for op, block in ops:
        if op == "insert":
            cache.insert(block, block * 7)
        elif op == "invalidate":
            cache.invalidate(block)
        else:
            cache.lookup(block)
        for stack in cache._lru:
            if stack is not None:
                assert sorted(stack) == list(range(n_ways))
        for s in range(cache.n_sets):
            assert len(cache.blocks_in_set(s)) <= n_ways
