"""Synthetic trace generation for consolidated workloads.

A :class:`ConsolidatedWorkload` sets up the physical address space of a
multi-VM run — private, VM-shared and deduplicated pages, through the
hypervisor model of :mod:`repro.mem.dedup` — and produces one memory
reference stream per tile.

Reference streams draw their random numbers in NumPy batches (one RNG
call covers thousands of accesses) and resolve them one access at a
time, as the core model consumes them.  Page popularity follows a
truncated Zipf distribution whose skew is a per-benchmark parameter;
deduplicated pages share one popularity ranking across all VMs of the
same benchmark, because they hold the *same* content (shared
libraries, binaries), which maximizes the cross-VM read sharing the
paper's protocols exploit.

Writes to a deduplicated page go through
:meth:`repro.mem.dedup.DedupPageTable.translate_write`, breaking the
sharing copy-on-write exactly like the hypervisor would.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..mem.address import AddressMap
from ..mem.dedup import CowEvent, DedupPageTable
from .placement import VMPlacement
from .spec import WorkloadSpec, workload_for_vm

__all__ = ["MemOp", "ConsolidatedWorkload"]

#: ops per batch of RNG draws; with the draw order in :meth:`trace`
#: it defines every stream, so changing it changes every result
_BATCH = 4096
#: the draws (nearly) every op reads convert from ndarray to Python
#: lists in chunks of this many ops, so a core that consumes only part
#: of a batch (short runs, high think times) never pays for the rest
_CHUNK = 512
#: a stream's first chunk, and its first span of float draws; the
#: chunks after it double up to :data:`_CHUNK`, the spans up to a whole
#: batch, so a core that consumes a few dozen ops draws and converts a
#: few dozen floats of each row
_FIRST_CHUNK = 64


def _chunk_bounds(first: int) -> List[Tuple[int, int]]:
    """``(lo, hi)`` op ranges covering one batch: ``first`` ops, then
    chunks doubling up to :data:`_CHUNK`."""
    bounds: List[Tuple[int, int]] = []
    lo, size = 0, first
    while lo < _BATCH:
        bounds.append((lo, min(lo + size, _BATCH)))
        lo += size
        size = min(2 * size, _CHUNK)
    return bounds


#: chunk bounds of a stream's first batch and of every later one
_START_BOUNDS = _chunk_bounds(_FIRST_CHUNK)
_BOUNDS = _chunk_bounds(_CHUNK)


def _skip_floats(rng: np.random.Generator, rows: int) -> Tuple[dict, int]:
    """Record where ``rows`` rows of :data:`_BATCH` doubles start in
    ``rng``'s stream, as ``(state, rows)``, and move ``rng`` past them
    without drawing them.

    A double takes exactly one 64-bit output, so ``advance`` lands
    where ``rng.random(rows * _BATCH)`` would.  But ``advance`` also
    drops PCG64's buffered 32-bit half, which ``random`` leaves alone
    and the next bounded-integer draw reads first, so it is put back.
    """
    bitgen = rng.bit_generator
    start = bitgen.state
    bitgen.advance(rows * _BATCH)
    if start["has_uint32"]:
        state = bitgen.state
        state["has_uint32"] = 1
        state["uinteger"] = start["uinteger"]
        bitgen.state = state
    return start, rows


def _draw_span(
    gen: np.random.Generator, run: Tuple[dict, int], lo: int, hi: int
) -> List[np.ndarray]:
    """Ops ``lo:hi`` of each row of a run :func:`_skip_floats`
    recorded, drawn on the scratch generator ``gen``: exactly the
    doubles one ``random(rows * _BATCH)`` call from its state puts at
    those positions."""
    start, rows = run
    bitgen = gen.bit_generator
    bitgen.state = start
    bitgen.advance(lo)
    n = hi - lo
    span = [gen.random(n)]
    for _ in range(rows - 1):
        bitgen.advance(_BATCH - n)
        span.append(gen.random(n))
    return span


class MemOp(NamedTuple):
    """One memory operation issued by a core.

    A ``NamedTuple`` rather than a frozen dataclass: construction is a
    single tuple allocation instead of three guarded ``__setattr__``
    calls, and the trace generator builds one per access."""

    addr: int
    is_write: bool
    think: int


def _zipf_weights(n: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-s)
    return w / w.sum()


class _Region(NamedTuple):
    """One class of pages (private / vm-shared / dedup) for one thread.

    ``blocks`` lists the region's virtual block numbers in popularity
    order and ``cdf`` is the cumulative Zipf distribution over them.
    Read-only, so the VM-shared and dedup regions are shared by every
    thread of a VM and equal-sized regions share one ``cdf``."""

    blocks: Sequence[int]
    cdf: List[float]


class ConsolidatedWorkload:
    """Address-space setup plus per-tile trace streams for one run."""

    def __init__(
        self,
        workload: str,
        placement: VMPlacement,
        addr_map: AddressMap,
        seed: int = 0,
        os_pages: int = 10,
        spec_by_vm: Dict[int, WorkloadSpec] | None = None,
    ) -> None:
        """``os_pages`` models the guest-OS pages (kernel text, shared
        libraries) that are identical across *all* VMs regardless of
        the benchmark they run — the reason the paper's heterogeneous
        mixes still save ~15% of memory through deduplication.

        ``spec_by_vm`` overrides the registry lookup with explicit
        per-VM specs — the sweep runner passes a snapshot so that runs
        dispatched to worker processes use the exact spec content the
        parent keyed the run by, even if the registry was patched."""
        self.name = workload
        self.placement = placement
        self.addr = addr_map
        self.seed = seed
        self.os_pages = os_pages
        self.table = DedupPageTable()
        if spec_by_vm is not None:
            self.spec_by_vm: Dict[int, WorkloadSpec] = dict(spec_by_vm)
        else:
            # iterate the placement's actual VM ids (which need not be
            # dense 0..n-1 — explicit placements and mid-run arrivals
            # use arbitrary ids); the *positional* index keys the mix
            # rotation so dense placements keep their exact traffic
            self.spec_by_vm = {
                vm: workload_for_vm(workload, i, placement.n_vms)
                for i, vm in enumerate(placement.vms)
            }
        # virtual page layout per VM: [private(t0) .. private(tN)][shared][dedup]
        self._private_base: Dict[int, int] = {}
        self._shared_base: Dict[int, int] = {}
        self._dedup_base: Dict[int, int] = {}
        # the VM-shared/dedup regions are identical for all threads of
        # a VM — build (and convert) them once, not once per core
        self._region_cache: Dict[Tuple[int, str], _Region] = {}
        self._cdf_cache: Dict[Tuple[int, float], List[float]] = {}
        # every stream draws its float spans here (see :meth:`trace`);
        # each draw sets the state first, so the seed is never read
        self._scratch = np.random.Generator(np.random.PCG64(0))
        self._build_address_space()

    # ------------------------------------------------------------------

    def _build_address_space(self) -> None:
        # group VMs by benchmark: application pages deduplicate only
        # between VMs running the same (identical-content) benchmark
        groups: Dict[str, List[int]] = {}
        for vm, spec in self.spec_by_vm.items():
            groups.setdefault(spec.name, []).append(vm)
        all_vms = sorted(self.spec_by_vm)

        for vm, spec in self.spec_by_vm.items():
            threads = self.placement.threads_per_vm(vm)
            vpage = 0
            self._private_base[vm] = vpage
            for _ in range(threads * spec.private_pages):
                self.table.map_private(vm, vpage)
                vpage += 1
            self._shared_base[vm] = vpage
            for _ in range(spec.vm_shared_pages):
                self.table.map_vm_shared(vm, vpage)
                vpage += 1
            # the dedup region: guest-OS pages first (identical in
            # every VM), then the benchmark's own deduplicable pages
            self._dedup_base[vm] = vpage
            vpage += self.os_pages + spec.dedup_pages  # mapped below

        for j in range(self.os_pages):
            if len(all_vms) >= 2:
                self.table.map_deduplicated(
                    {vm: self._dedup_base[vm] + j for vm in all_vms}
                )
            else:
                self.table.map_private(
                    all_vms[0], self._dedup_base[all_vms[0]] + j
                )
        for bench, vms in groups.items():
            spec = self.spec_by_vm[vms[0]]
            for j in range(spec.dedup_pages):
                offsets = {
                    vm: self._dedup_base[vm] + self.os_pages + j for vm in vms
                }
                if len(vms) >= 2:
                    self.table.map_deduplicated(offsets)
                else:
                    self.table.map_private(vms[0], offsets[vms[0]])

    # ------------------------------------------------------------------

    @property
    def dedup_saving(self) -> float:
        """Measured fraction of pages saved (compare with Table IV)."""
        return self.table.dedup_ratio

    @property
    def cow_breaks(self) -> int:
        return len(self.table.cow_events)

    # ------------------------------------------------------------------
    # dynamic consolidation (driven by Chip.apply_event)

    def _dedup_peers(self, vm: int, j: int) -> List[Tuple[int, int]]:
        """``(peer_vm, peer_vpage)`` holding the same content as the
        ``j``-th dedup page of ``vm`` (guest-OS pages match every VM,
        benchmark pages only VMs running the same benchmark)."""
        spec = self.spec_by_vm[vm]
        peers = []
        for other, ospec in sorted(self.spec_by_vm.items()):
            if other == vm:
                continue
            if j < self.os_pages:
                peers.append((other, self._dedup_base[other] + j))
            elif ospec.name == spec.name and (j - self.os_pages) < ospec.dedup_pages:
                peers.append((other, self._dedup_base[other] + j))
        return peers

    def break_dedup(self, vm: int, pages: int) -> List[CowEvent]:
        """Copy-on-write up to ``pages`` still-deduplicated pages of the
        VM's dedup region (lowest virtual pages first; deterministic)."""
        spec = self.spec_by_vm[vm]
        base = self._dedup_base[vm]
        events: List[CowEvent] = []
        for j in range(self.os_pages + spec.dedup_pages):
            if len(events) >= pages:
                break
            event = self.table.force_cow(vm, base + j)
            if event is not None:
                events.append(event)
        return events

    def merge_dedup(self, vm: int, pages: int) -> List[Tuple[int, int]]:
        """Re-merge up to ``pages`` previously broken pages onto their
        content group's frame.  Returns ``(retired ppage, shared
        ppage)`` per merged page; the caller is responsible for
        shooting the retired frames' blocks out of the caches."""
        spec = self.spec_by_vm[vm]
        base = self._dedup_base[vm]
        merged: List[Tuple[int, int]] = []
        for j in range(self.os_pages + spec.dedup_pages):
            if len(merged) >= pages:
                break
            vpage = base + j
            if self.table.is_deduplicated_ppage(self.table.translate(vm, vpage)):
                continue  # sharing still intact
            for peer_vm, peer_vpage in self._dedup_peers(vm, j):
                result = self.table.remap_shared(vm, vpage, peer_vm, peer_vpage)
                if result is not None:
                    merged.append(result)
                break
        return merged

    def admit_vm(self, vm: int, benchmark: str | None = None) -> None:
        """Build the address space of a VM admitted mid-run.

        The placement must already contain the VM's tiles.  The new
        VM's guest-OS and same-benchmark pages join the live dedup
        groups (via an arbitrary resident peer's mapping); everything
        else gets fresh frames.  Frame numbers are monotonic, so the
        new VM can never alias a departed VM's cached blocks.
        """
        if vm in self.spec_by_vm:
            raise ValueError(f"VM {vm} already has an address space")
        idx = list(self.placement.vms).index(vm)
        spec = workload_for_vm(
            benchmark or self.name, idx, self.placement.n_vms
        )
        threads = self.placement.threads_per_vm(vm)
        vpage = 0
        self._private_base[vm] = vpage
        for _ in range(threads * spec.private_pages):
            self.table.map_private(vm, vpage)
            vpage += 1
        self._shared_base[vm] = vpage
        for _ in range(spec.vm_shared_pages):
            self.table.map_vm_shared(vm, vpage)
            vpage += 1
        self._dedup_base[vm] = vpage
        self.spec_by_vm[vm] = spec
        for j in range(self.os_pages + spec.dedup_pages):
            peers = self._dedup_peers(vm, j)
            if peers:
                peer_vm, peer_vpage = peers[0]
                self.table.map_shared_with(vm, vpage + j, peer_vm, peer_vpage)
            else:
                self.table.map_private(vm, vpage + j)
        self._region_cache.pop((vm, "shared"), None)
        self._region_cache.pop((vm, "dedup"), None)

    def release_vm(self, vm: int) -> List[int]:
        """Tear down a departed VM's address space; returns the
        physical pages retired outright (its private frames)."""
        retired = self.table.release_vm(vm)
        self.spec_by_vm.pop(vm, None)
        self._private_base.pop(vm, None)
        self._shared_base.pop(vm, None)
        self._dedup_base.pop(vm, None)
        self._region_cache.pop((vm, "shared"), None)
        self._region_cache.pop((vm, "dedup"), None)
        return retired

    def _regions_for(self, vm: int, thread: int) -> List[_Region]:
        """Block-granular regions with Zipf popularity.

        The Zipf ranking is permuted per VM for the VM-shared region
        (one hot set per VM) and shared across VMs for the dedup region
        (the pages hold identical content, so the hot blocks coincide —
        which is what makes cross-VM providers useful).
        """
        spec = self.spec_by_vm[vm]
        bpp = self.addr.blocks_per_page

        def make_region(first_page: int, n_pages: int, permute_seed) -> _Region:
            lo, n = first_page * bpp, n_pages * bpp
            if n == 0:
                return _Region(range(0), [])
            key = (n, spec.zipf_s)
            cdf = self._cdf_cache.get(key)
            if cdf is None:
                # what ``rng.choice(n, p=w)`` inverts, computed once
                w = _zipf_weights(n, spec.zipf_s).cumsum()
                w /= w[-1]
                cdf = self._cdf_cache[key] = w.tolist()
            if permute_seed is None:
                return _Region(range(lo, lo + n), cdf)
            perm = np.random.default_rng(
                (self.seed, permute_seed & 0xFFFF)
            ).permutation(n)
            return _Region((perm + lo).tolist(), cdf)

        # private: ranking is irrelevant; the page window is per thread
        regions = [
            make_region(
                self._private_base[vm] + thread * spec.private_pages,
                spec.private_pages,
                None,
            )
        ]
        # VM-shared (one hot set per VM) and dedup (one hot set shared
        # by all VMs): identical for every thread of the VM, so cached.
        # The permutations come from dedicated generators seeded only by
        # (self.seed, vm) — caching does not change any draw.
        for kind, base, n_pages, permute_seed in (
            ("shared", self._shared_base[vm], spec.vm_shared_pages, vm),
            (
                "dedup",
                self._dedup_base[vm],
                self.os_pages + spec.dedup_pages,
                -1,
            ),
        ):
            cached = self._region_cache.get((vm, kind))
            if cached is None:
                cached = self._region_cache[(vm, kind)] = make_region(
                    base, n_pages, permute_seed
                )
            regions.append(cached)
        return regions

    def trace(self, tile: int) -> Iterator[MemOp]:
        """Infinite memory-reference stream for the core at ``tile``.

        Temporal locality comes from a per-thread *reuse window*: with
        probability ``spec.reuse_prob`` the next access re-touches one
        of the last ``spec.reuse_window`` distinct blocks; otherwise a
        fresh block is drawn from the Zipf-ranked region mix.

        Every :data:`_BATCH` ops the thread's generator takes the
        random numbers of the next batch, array by array in a fixed
        order; that size and order define the stream.  The pick and
        think integers are drawn there and then: bounded integers take
        a data-dependent number of outputs, so where the next float
        array starts is known only after them.  Each run of
        consecutive float arrays (region + reuse, write, then the fresh
        and scan draws) is only recorded by :func:`_skip_floats` and
        skipped; the floats are drawn later on the workload's scratch
        generator, a span of every row at a time, by
        :func:`_draw_span`.  A stream's first spans cover
        :data:`_FIRST_CHUNK` ops and double up to a whole row, and
        each later batch is one span, so a core draws about the
        floats it reads and a long stream draws each row in one call.
        Each op is then resolved only when the core consumes it.  The
        reuse, pick, write and think draws, which (nearly) every op
        reads, convert to Python lists a chunk at a time:
        :data:`_FIRST_CHUNK` ops first, then doubling up to
        :data:`_CHUNK`.  The region, block and scan draws are read one
        element at a time, and looked up, only for a fresh draw.  The
        virtual-to-physical translation also runs per consumed op:
        ``translate_write`` mutates the copy-on-write table all
        threads share, so it must happen in global consumption order.
        """
        vm = self.placement.vm_of(tile)
        thread = self.placement.thread_of(tile)
        spec = self.spec_by_vm[vm]
        rng = np.random.default_rng((self.seed, vm, thread))
        regions = self._regions_for(vm, thread)
        fracs = np.array(
            [spec.frac_private, spec.frac_vm_shared, spec.frac_dedup], dtype=float
        )
        for i, r in enumerate(regions):
            if not r.blocks:
                fracs[i] = 0.0
        fracs = fracs / fracs.sum()
        fracs_cdf = fracs.cumsum()
        fracs_cdf /= fracs_cdf[-1]
        # bisect_right over the cdf as a list of the same floats returns
        # exactly what ``searchsorted(side="right")`` does over the array
        fracs_cdf = fracs_cdf.tolist()
        region_blocks = [r.blocks for r in regions]
        region_cdfs = [r.cdf for r in regions]
        wprobs = (spec.write_private, spec.write_vm_shared, spec.write_dedup)
        think_lo, think_hi = spec.think
        reuse_prob = spec.reuse_prob
        reuse_window = spec.reuse_window
        window: List[Tuple[int, int]] = []  # (region, virtual block)
        wpos = 0
        # cyclic sweep over the leading dedup pages (hot shared content)
        bpp = self.addr.blocks_per_page
        scan_blocks = (
            min(spec.dedup_scan_pages, self.os_pages + spec.dedup_pages) * bpp
        )
        scan_base = self._dedup_base[vm] * bpp
        scan_frac = spec.dedup_scan_frac
        scan_pos = (
            int(
                np.random.default_rng((self.seed, vm, thread, 7)).integers(
                    0, scan_blocks
                )
            )
            if scan_blocks
            else 0
        )

        translate = self.table.translate
        translate_write = self.table.translate_write
        # read translations are memoized per virtual page; any
        # copy-on-write event anywhere (this thread's or a sibling's —
        # they share the (vm, vpage) namespace) flushes the memo,
        # detected by the length of the table's event log
        cow_events = self.table.cow_events
        cow_seen = len(cow_events)
        tcache: Dict[int, int] = {}
        tcache_get = tcache.get
        # construct ops through tuple.__new__ directly (what
        # MemOp._make does) — skips the generated __new__'s Python frame
        op_new = tuple.__new__
        op_cls = MemOp
        page_shift = self.addr.page_offset_bits - self.addr.block_offset_bits
        off_mask = bpp - 1
        block_shift = self.addr.block_offset_bits

        # the non-empty regions draw fresh numbers; an empty one's row
        # stays None (its access fraction is 0, so no op reads it)
        fresh_rows = [rid for rid, b in enumerate(region_blocks) if b]
        fresh_u: List = [None] * len(region_blocks)
        scratch = self._scratch
        span = _FIRST_CHUNK
        bounds = _START_BOUNDS
        while True:
            # one batch, in draw order: region and reuse draws, picks,
            # write draws, think times, then each non-empty region's
            # fresh draws and the scan draws.  The integers are drawn
            # now; each run of float rows is recorded and skipped, and
            # drawn a span at a time once a chunk reaches it
            region_reuse = _skip_floats(rng, 2)
            picks = rng.integers(0, reuse_window, size=_BATCH)
            write = _skip_floats(rng, 1)
            thinks = rng.integers(think_lo, think_hi + 1, size=_BATCH)
            fresh_scan = _skip_floats(rng, len(fresh_rows) + 1)
            end = 0
            for lo, hi in bounds:
                if hi > end:
                    # the next span of every float row: ``span`` ops,
                    # doubling up to a whole row; a last span shorter
                    # than its predecessor joins it
                    base = lo
                    end = lo + span if lo + 2 * span <= _BATCH else _BATCH
                    span = min(2 * span, _BATCH)
                    region_u, reuse_u = _draw_span(scratch, region_reuse, base, end)
                    (write_u,) = _draw_span(scratch, write, base, end)
                    *fresh, scan_u = _draw_span(scratch, fresh_scan, base, end)
                    for rid, u in zip(fresh_rows, fresh):
                        fresh_u[rid] = u
                # ``i`` indexes the span's float arrays
                a, b = lo - base, hi - base
                for i, reuse, pick, wu, think in zip(
                    range(a, b),
                    reuse_u[a:b].tolist(),
                    picks[lo:hi].tolist(),
                    write_u[a:b].tolist(),
                    thinks[lo:hi].tolist(),
                ):
                    if window and reuse < reuse_prob:
                        rid, vblock = window[pick % len(window)]
                    else:
                        rid = bisect_right(fracs_cdf, region_u.item(i))
                        if rid == 2 and scan_blocks and scan_u.item(i) < scan_frac:
                            # streaming sweep: no reuse-window insertion
                            vblock = scan_base + scan_pos
                            scan_pos = (scan_pos + 1) % scan_blocks
                        else:
                            vblock = region_blocks[rid][
                                bisect_right(region_cdfs[rid], fresh_u[rid].item(i))
                            ]
                            if len(window) < reuse_window:
                                window.append((rid, vblock))
                            else:
                                window[wpos] = (rid, vblock)
                                wpos = (wpos + 1) % reuse_window
                    vpage = vblock >> page_shift
                    is_write = wu < wprobs[rid]
                    if is_write:
                        ppage = translate_write(vm, vpage)[0]
                    else:
                        if len(cow_events) != cow_seen:
                            tcache.clear()
                            cow_seen = len(cow_events)
                        ppage = tcache_get(vpage)
                        if ppage is None:
                            ppage = tcache[vpage] = translate(vm, vpage)
                    yield op_new(
                        op_cls,
                        (
                            ((ppage << page_shift) | (vblock & off_mask))
                            << block_shift,
                            is_write,
                            think,
                        ),
                    )
            bounds = _BOUNDS
