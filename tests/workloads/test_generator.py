"""Unit tests for the synthetic trace generator."""

import itertools

import pytest

from repro.core.area import AreaMap
from repro.mem.address import AddressMap
from repro.workloads.generator import ConsolidatedWorkload
from repro.workloads.placement import VMPlacement


@pytest.fixture
def setup():
    areas = AreaMap(4, 4, 4)
    placement = VMPlacement.area_aligned(areas, 4)
    am = AddressMap(n_tiles=16)
    return placement, am


def make(setup, name="apache", seed=0, os_pages=10):
    placement, am = setup
    return ConsolidatedWorkload(name, placement, am, seed=seed, os_pages=os_pages)


def test_trace_is_deterministic(setup):
    a = make(setup, seed=7)
    b = make(setup, seed=7)
    ops_a = list(itertools.islice(a.trace(3), 500))
    ops_b = list(itertools.islice(b.trace(3), 500))
    assert ops_a == ops_b


def test_different_seeds_differ(setup):
    a = make(setup, seed=1)
    b = make(setup, seed=2)
    ops_a = [o.addr for o in itertools.islice(a.trace(3), 200)]
    ops_b = [o.addr for o in itertools.islice(b.trace(3), 200)]
    assert ops_a != ops_b


def test_addresses_are_valid_and_mapped(setup):
    placement, am = setup
    w = make(setup)
    for tile in (0, 5, 15):
        for op in itertools.islice(w.trace(tile), 300):
            assert 0 <= op.addr <= am.max_address
            assert op.addr % am.block_bytes == 0
            assert op.think >= 1


def test_dedup_saving_matches_spec_prediction(setup):
    # without OS pages the measured ratio equals the spec's closed form
    w = make(setup, "apache", os_pages=0)
    spec = w.spec_by_vm[0]
    expected = spec.expected_dedup_saving(threads_per_vm=4, n_vms=4)  # os_pages=0
    assert w.dedup_saving == pytest.approx(expected, abs=1e-9)


def test_os_pages_raise_dedup_savings(setup):
    without = make(setup, "apache", os_pages=0)
    with_os = make(setup, "apache", os_pages=10)
    assert with_os.dedup_saving > without.dedup_saving


def test_mixed_workloads_share_os_pages(setup):
    """The paper's heterogeneous mixes still save ~15% via the guest
    OS pages, identical across all VMs."""
    w = make(setup, "mixed-sci", os_pages=10)
    assert w.dedup_saving > 0.05


def test_vms_share_dedup_frames_but_not_private(setup):
    placement, am = setup
    w = make(setup, "lu")
    addrs_by_vm = {}
    for vm, tile in ((0, 0), (1, 2)):
        addrs = {
            am.page_of(op.addr)
            for op in itertools.islice(w.trace(tile), 4000)
        }
        addrs_by_vm[vm] = addrs
    shared_pages = addrs_by_vm[0] & addrs_by_vm[1]
    # deduplicated physical pages appear in both VMs' streams
    assert shared_pages, "expected cross-VM deduplicated pages"
    for p in shared_pages:
        assert w.table.is_deduplicated_ppage(p)


def test_writes_to_dedup_pages_trigger_cow(setup):
    placement, am = setup
    w = make(setup, "apache")  # write_dedup = 0.001
    drained = 0
    for tile in placement.tiles_used:
        for _ in itertools.islice(w.trace(tile), 3000):
            drained += 1
        if w.cow_breaks:
            break
    assert w.cow_breaks >= 1


def test_temporal_locality_present(setup):
    """The reuse window must produce a hit rate well above the
    footprint-uniform baseline."""
    w = make(setup, "apache")
    from collections import OrderedDict

    cache: OrderedDict = OrderedDict()
    hits = 0
    n = 5000
    for op in itertools.islice(w.trace(0), n):
        b = op.addr >> 6
        if b in cache:
            hits += 1
            cache.move_to_end(b)
        else:
            cache[b] = True
            if len(cache) > 256:
                cache.popitem(last=False)
    assert hits / n > 0.6


def test_mixed_workload_assigns_specs_per_vm(setup):
    w = make(setup, "mixed-com")
    assert w.spec_by_vm[0].name == "apache"
    assert w.spec_by_vm[2].name == "jbb"
    # apache VMs deduplicate among themselves only
    assert w.dedup_saving > 0


def test_single_vm_of_a_benchmark_has_no_dedup():
    areas = AreaMap(4, 4, 4)
    placement = VMPlacement({0: areas.tiles_of(0)})
    am = AddressMap(n_tiles=16)
    w = ConsolidatedWorkload("apache", placement, am, seed=0, os_pages=0)
    assert w.dedup_saving == 0.0
    # but the trace still works
    ops = list(itertools.islice(w.trace(0), 100))
    assert len(ops) == 100


def test_write_fractions_roughly_respected(setup):
    w = make(setup, "radix")
    ops = list(itertools.islice(w.trace(0), 8000))
    write_frac = sum(o.is_write for o in ops) / len(ops)
    # radix: ~0.3 private / 0.12 shared weighted -> ~0.2 overall
    assert 0.1 < write_frac < 0.35


#: tiles of the 8x8 chip whose streams are pinned: two threads of VM 0,
#: one of VM 1, one of VM 2 and one of VM 3 (area-aligned quadrants)
PINNED_TILES = (0, 9, 12, 35, 63)
#: ops per pinned tile: past the second 4,096-op batch boundary
PINNED_OPS = 9_000
#: sha256 of the pinned streams, recorded before the generator resolved
#: ops lazily; any change to the draws or their order moves them
PINNED_STREAMS = {
    ("mixed-com", 3): "58fef690852507a6135c64e9a83d4bf7531f999002d8f6e75a0887d5ed63f44a",
    ("mixed-com", 11): "59611869bbd9911ee7f38fe3d4b8c047a07399811985b2d0f11db9a16a732e3f",
    ("tomcatv", 3): "6cb8327b4b48897a52cfab10c92115d20c53c5d17abc48e3df142317c3eec02c",
    ("tomcatv", 11): "59b09e37b6488c25f2986d2be91ae759c7dc27626166b5a46afa05f207fe123e",
    ("apache", 3): "0ce77fb31797a5d646487cc72080f7100ccefbf71389da83a54c3b6fc143639b",
    ("apache", 11): "42363848b64d49cf371162183628d4801861bcd265f036c44a6f6d9b486d506e",
}


def _stream_digest(name: str, seed: int) -> str:
    """Hash ``PINNED_OPS`` ops from each pinned tile of one 8x8 chip,
    consumed round-robin so that one thread's copy-on-write breaks land
    in the middle of its siblings' streams."""
    import hashlib

    placement = VMPlacement.area_aligned(AreaMap(8, 8, 4), 4)
    w = ConsolidatedWorkload(name, placement, AddressMap(n_tiles=64), seed=seed)
    streams = [w.trace(t) for t in PINNED_TILES]
    h = hashlib.sha256()
    for _ in range(PINNED_OPS):
        for tile, stream in zip(PINNED_TILES, streams):
            op = next(stream)
            h.update(f"{tile}:{op.addr:x}:{int(op.is_write)}:{op.think};".encode())
    h.update(f"cow={w.cow_breaks}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed", (3, 11))
@pytest.mark.parametrize("name", ("mixed-com", "tomcatv", "apache"))
def test_reference_stream_pinned_past_a_batch_boundary(name, seed):
    """The 8x8 chip's streams stay the same op for op across three
    4,096-op batches: jbb's 14,080-block regions, the dedup scan,
    reuse-window picks and copy-on-write breaks all included."""
    assert _stream_digest(name, seed) == PINNED_STREAMS[(name, seed)]


def test_break_dedup_annotations_resolve():
    import typing

    hints = typing.get_type_hints(ConsolidatedWorkload.break_dedup)
    assert hints["pages"] is int
