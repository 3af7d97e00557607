"""Synthetic trace generation for consolidated workloads.

A :class:`ConsolidatedWorkload` sets up the physical address space of a
multi-VM run — private, VM-shared and deduplicated pages, through the
hypervisor model of :mod:`repro.mem.dedup` — and produces one memory
reference stream per tile.

Reference streams are generated in NumPy batches (the HPC guides'
vectorize-the-hot-loop rule: page/offset/write draws for thousands of
accesses cost one RNG call each) and then iterated one access at a
time by the core model.  Page popularity follows a truncated Zipf
distribution whose skew is a per-benchmark parameter; deduplicated
pages share one popularity ranking across all VMs of the same
benchmark, because they hold the *same* content (shared libraries,
binaries), which maximizes the cross-VM read sharing the paper's
protocols exploit.

Writes to a deduplicated page go through
:meth:`repro.mem.dedup.DedupPageTable.translate_write`, breaking the
sharing copy-on-write exactly like the hypervisor would.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Tuple

import numpy as np

from ..mem.address import AddressMap
from ..mem.dedup import DedupPageTable
from .placement import VMPlacement
from .spec import WorkloadSpec, workload_for_vm

__all__ = ["MemOp", "ConsolidatedWorkload"]

_BATCH = 4096
#: trace batches convert from ndarray to Python lists in chunks of this
#: many ops, so a core that consumes only part of a batch (short runs,
#: high think times) never pays for converting the rest
_CHUNK = 512


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


class _Region:
    """One class of pages (private / vm-shared / dedup) for one thread.

    Instances are read-only after construction and may be shared by
    every thread of a VM (the VM-shared and dedup regions are
    identical across a VM's threads)."""

    __slots__ = ("vpages", "weights", "cdf", "_pairs")

    def __init__(self, vpages: np.ndarray, weights: np.ndarray) -> None:
        self.vpages = vpages
        self.weights = weights
        # ``rng.choice(n, p=w)`` internally draws uniforms and inverts
        # the cumulative distribution; precomputing the cdf once lets
        # the trace loop replicate it exactly (same RNG consumption,
        # same values) without re-validating/re-accumulating ``w`` on
        # every batch
        if len(weights):
            cdf = weights.cumsum()
            cdf /= cdf[-1]
            self.cdf = cdf
        else:
            self.cdf = weights
        self._pairs: List[List[int]] | None = None

    def pairs(self) -> List[List[int]]:
        """``vpages`` as plain Python lists, converted once."""
        if self._pairs is None:
            self._pairs = self.vpages.tolist()
        return self._pairs


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
        self._zipf_cache: Dict[Tuple[int, float], np.ndarray] = {}
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

        Each region is a flat array of ``(vpage, block_in_page)`` pairs;
        the Zipf ranking is permuted per VM for the VM-shared region (one
        hot set per VM) and shared across VMs for the dedup region (the
        pages hold identical content, so the hot blocks coincide —
        which is what makes cross-VM providers useful).
        """
        spec = self.spec_by_vm[vm]
        bpp = self.addr.blocks_per_page

        def blocks_of(page_lo: int, n_pages: int) -> np.ndarray:
            pages = np.repeat(np.arange(page_lo, page_lo + n_pages), bpp)
            offs = np.tile(np.arange(bpp), n_pages)
            return np.stack([pages, offs], axis=1)

        def make_region(blocks: np.ndarray, permute_seed) -> _Region:
            n = len(blocks)
            if n == 0:
                return _Region(blocks, np.ones(0))
            key = (n, spec.zipf_s)
            w = self._zipf_cache.get(key)
            if w is None:
                w = self._zipf_cache[key] = _zipf_weights(n, spec.zipf_s)
            if permute_seed is not None:
                perm = np.random.default_rng(
                    (self.seed, permute_seed & 0xFFFF)
                ).permutation(n)
                blocks = blocks[perm]
            return _Region(blocks, w)

        # private: ranking is irrelevant; the page window is per thread
        regions = [
            make_region(
                blocks_of(
                    self._private_base[vm] + thread * spec.private_pages,
                    spec.private_pages,
                ),
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
                    blocks_of(base, n_pages), permute_seed
                )
            regions.append(cached)
        return regions

    def trace(self, tile: int) -> Iterator[MemOp]:
        """Infinite memory-reference stream for the core at ``tile``.

        Temporal locality comes from a per-thread *reuse window*: with
        probability ``spec.reuse_prob`` the next access re-touches one
        of the last ``spec.reuse_window`` distinct blocks; otherwise a
        fresh block is drawn from the Zipf-ranked region mix.

        Implemented as a thin stage-b wrapper over
        :meth:`trace_chunks`: the chunk stream resolves everything that
        draws from the per-thread RNG (stage a), and this wrapper
        performs the virtual-to-physical translation per consumed op
        (stage b).  The split matters for ordering: ``translate_write``
        mutates the shared copy-on-write table, so translations must
        happen in global *consumption* order — which a generator
        guarantees — while the RNG-driven stage can safely run a chunk
        ahead.
        """
        vm = self.placement.vm_of(tile)
        translate = self.table.translate
        translate_write = self.table.translate_write
        # read translations are memoized locally; any copy-on-write
        # event anywhere (this thread's or a sibling's — they share the
        # (vm, vpage) namespace) flushes the memo, detected by the
        # length of the table's event log
        cow_events = self.table.cow_events
        cow_seen = len(cow_events)
        tcache: Dict[int, int] = {}
        tcache_get = tcache.get
        # construct ops through tuple.__new__ directly (what
        # MemOp._make does) — skips the generated __new__'s Python frame
        op_new = tuple.__new__
        op_cls = MemOp
        page_shift = self.addr.page_offset_bits - self.addr.block_offset_bits
        block_shift = self.addr.block_offset_bits
        for vpages, offs, writes, thinks in self.trace_chunks(tile):
            for i in range(_CHUNK):
                vpage = vpages[i]
                is_write = writes[i]
                if is_write:
                    ppage, _ = translate_write(vm, vpage)
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
                        ((ppage << page_shift) | offs[i]) << block_shift,
                        is_write,
                        thinks[i],
                    ),
                )

    def trace_chunks(
        self, tile: int
    ) -> Iterator[Tuple[List[int], List[int], List[bool], List[int]]]:
        """Stage a of the reference stream: RNG-resolved op chunks.

        Yields ``(vpages, offs, is_writes, thinks)`` parallel lists of
        ``_CHUNK`` ops each — everything about an op except its
        physical translation, which consumers perform per op (stage b)
        so copy-on-write breaks land in consumption order.  All RNG
        consumption (batch draws, reuse-window picks, scan sweeps)
        happens here, in exactly the draw order the original one-op-at-
        a-time generator used.
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
            if len(r.vpages) == 0:
                fracs[i] = 0.0
        fracs = fracs / fracs.sum()
        wprobs = (spec.write_private, spec.write_vm_shared, spec.write_dedup)
        think_lo, think_hi = spec.think
        window: List[Tuple[int, int, int]] = []  # (region, vpage, block_off)
        wpos = 0
        # cyclic sweep over the leading dedup pages (hot shared content)
        bpp = self.addr.blocks_per_page
        scan_blocks = (
            min(spec.dedup_scan_pages, self.os_pages + spec.dedup_pages) * bpp
        )
        scan_base = self._dedup_base[vm]
        scan_pos = int(
            np.random.default_rng((self.seed, vm, thread, 7)).integers(
                0, max(1, scan_blocks)
            )
        )

        # inner-loop hoists: scalar indexing into ndarrays and attribute
        # chains dominate the per-op cost, so batches convert to plain
        # Python lists (one ``_CHUNK`` at a time, so a partly-consumed
        # batch never converts its unused tail) and the loop touches
        # only locals.  The ``rng.choice(n, p=w)`` draws are replicated
        # as cdf.searchsorted(rng.random(...)) — numpy's own
        # implementation with the cdf hoisted out of the loop — so the
        # RNG consumption, draw order and values are untouched and
        # traces stay bit-identical.
        reuse_prob = spec.reuse_prob
        reuse_window = spec.reuse_window
        scan_frac = spec.dedup_scan_frac
        region_pairs = [r.pairs() for r in regions]
        fracs_cdf = fracs.cumsum()
        fracs_cdf /= fracs_cdf[-1]

        while True:
            region_ids_a = fracs_cdf.searchsorted(
                rng.random(size=_BATCH), side="right"
            )
            reuse_draw_a = rng.random(size=_BATCH)
            reuse_pick_a = rng.integers(0, max(1, reuse_window), size=_BATCH)
            wdraw_a = rng.random(size=_BATCH)
            thinks_a = rng.integers(think_lo, think_hi + 1, size=_BATCH)
            fresh_a = [
                r.cdf.searchsorted(rng.random(size=_BATCH), side="right")
                if len(r.vpages)
                else None
                for r in regions
            ]
            scan_draw_a = rng.random(size=_BATCH)
            for lo in range(0, _BATCH, _CHUNK):
                hi = lo + _CHUNK
                region_ids = region_ids_a[lo:hi].tolist()
                reuse_draw = reuse_draw_a[lo:hi].tolist()
                reuse_pick = reuse_pick_a[lo:hi].tolist()
                wdraw = wdraw_a[lo:hi].tolist()
                thinks = thinks_a[lo:hi].tolist()
                fresh_draws = [
                    a[lo:hi].tolist() if a is not None else None for a in fresh_a
                ]
                scan_draw = scan_draw_a[lo:hi].tolist()
                out_vpages: List[int] = []
                out_offs: List[int] = []
                out_writes: List[bool] = []
                vpages_append = out_vpages.append
                offs_append = out_offs.append
                writes_append = out_writes.append
                for i in range(_CHUNK):
                    if window and reuse_draw[i] < reuse_prob:
                        rid, vpage, off = window[reuse_pick[i] % len(window)]
                    else:
                        rid = region_ids[i]
                        if rid == 2 and scan_blocks and scan_draw[i] < scan_frac:
                            # streaming sweep: no reuse-window insertion
                            vpage = scan_base + scan_pos // bpp
                            off = scan_pos % bpp
                            scan_pos = (scan_pos + 1) % scan_blocks
                        else:
                            vpage, off = region_pairs[rid][fresh_draws[rid][i]]
                            item = (rid, vpage, off)
                            if len(window) < reuse_window:
                                window.append(item)
                            else:
                                window[wpos] = item
                                wpos = (wpos + 1) % reuse_window
                    vpages_append(vpage)
                    offs_append(off)
                    writes_append(wdraw[i] < wprobs[rid])
                yield out_vpages, out_offs, out_writes, thinks
