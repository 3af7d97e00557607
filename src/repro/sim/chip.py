"""Full-chip simulation driver.

Assembles a coherence protocol, a consolidated workload and one
in-order core per active tile, then runs the discrete-event loop.  Two
stop conditions mirror Table IV's two performance metrics:

* ``run_cycles(n)`` — run for a fixed cycle window and count committed
  memory operations (the "transactions in 500 million cycles" metric of
  the commercial workloads, scaled);
* ``run_ops(n)`` — run until every core commits ``n`` operations and
  report the elapsed cycles (the "average execution time" metric of the
  scientific workloads).

Cores are blocking and in-order (Table III: 2-way in-order
UltraSPARC-III): a core issues its next memory operation ``think``
cycles after the previous one completes; the think time stands for the
non-memory instructions in between.
"""

from __future__ import annotations

import weakref
from heapq import heappush
from typing import Callable, Dict, Optional

from ..core.checker import CoherenceChecker
from ..core.protocols import PROTOCOLS, REGISTRY
from ..core.protocols.base import CoherenceProtocol
from ..stats.counters import RunStats
from ..workloads.dynamics import ConsolidationEvent, ConsolidationPlan
from ..workloads.generator import ConsolidatedWorkload, MemOp
from ..workloads.placement import VMPlacement
from .config import ChipConfig, ConfigError, DEFAULT_CHIP
from .engine import LivelockError, ProgressWatchdog, SimulationError, Simulator

__all__ = [
    "PROTOCOLS",
    "make_protocol",
    "Core",
    "Chip",
    "LivelockError",
    "paper_scaled_chip",
]

# PROTOCOLS (re-exported above) is the registry's read-only name->class
# view; registration happens in repro.core.protocols


def make_protocol(
    name: str,
    config: ChipConfig = DEFAULT_CHIP,
    seed: int = 0,
    checker: Optional[CoherenceChecker] = None,
    **kwargs,
) -> CoherenceProtocol:
    """Instantiate a protocol by canonical name or registered alias."""
    try:
        cls = REGISTRY.get(name).cls
    except ValueError:
        raise ValueError(
            f"unknown protocol {name!r}; options: {sorted(PROTOCOLS)}"
        ) from None
    return cls(config, seed=seed, checker=checker, **kwargs)


def paper_scaled_chip(
    mesh_width: int = 8, mesh_height: int = 8, n_areas: int = 4
) -> ChipConfig:
    """The evaluation chip with caches scaled down 8x.

    The trace-driven Python simulator cannot affordably warm 128 KB L1s
    and 1 MB L2 banks on 64 tiles; this configuration shrinks every
    cache (and the workload specs are sized against it) while keeping
    the working-set/L1/L2 capacity *ratios* of the paper's platform, so
    the L1- vs L2-power-dominated regimes of Sec. V-C are preserved.
    """
    from .config import CacheGeometry

    return ChipConfig(
        mesh_width=mesh_width,
        mesh_height=mesh_height,
        n_areas=n_areas,
        l1=CacheGeometry(size_bytes=8 << 10, assoc=4, tag_latency=1, data_latency=2),
        l2=CacheGeometry(size_bytes=32 << 10, assoc=8, tag_latency=2, data_latency=3),
        # the coherence caches scale less aggressively than the data
        # caches: prediction reach must still cover the repeat-miss
        # stack distances of the (scaled) working sets, like the paper's
        # 2048-entry L1C$/L2C$ cover its 2048-block L1s
        l1c_entries=512,
        l2c_entries=512,
        dir_cache_entries=512,
    )


class Core:
    """A blocking, in-order core issuing one memory-reference stream.

    A core holds its chip through a weak reference and stores none of
    its own bound methods: the chip owns its cores, and the chip's
    event queue keeps their issue callbacks after a run, so a strong
    back-reference would make every chip a reference cycle that only
    the cyclic garbage collector frees."""

    __slots__ = (
        "tile",
        "_chip",
        "_trace",
        "_pending",
        "_access",
        "ops_done",
        "ops_target",
        "done",
    )

    def __init__(self, tile: int, chip: "Chip") -> None:
        self.tile = tile
        self._chip = weakref.ref(chip)
        self._trace = chip.workload.trace(tile)
        self._pending: Optional[MemOp] = None
        # bound once: the protocol never changes over a chip's lifetime
        self._access = chip.protocol.access
        self.ops_done = 0
        self.ops_target: Optional[int] = None
        self.done = False

    @property
    def chip(self) -> "Chip":
        return self._chip()

    def start(self) -> None:
        self.chip.sim.schedule(0, self._issue_fast)

    def _issue_fast(self) -> None:
        """Issue the core's next memory operation: one event per op.

        The core is blocking and in-order, so it has one operation in
        flight and one queued event.  A busy block re-queues the same
        op at its ``retry_at`` (never before the next cycle); a
        completed op queues the next issue ``latency + think`` cycles
        later (at least one).  Either is pushed onto the heap directly —
        one ``heappush`` plus the seq bump, skipping ``schedule_at``'s
        validation (every push here is at an integer time after now) —
        because this runs once per op and the call overhead is
        measurable.
        """
        if self.done:
            return
        chip = self._chip()
        sim = chip.sim
        now = sim._now
        deadline = chip.deadline
        if deadline is not None and now >= deadline:
            return
        op = self._pending
        if op is None:
            op = self._pending = next(self._trace)
        result = self._access(self.tile, op[0], op[1], now)
        retry_at = result.retry_at
        if retry_at is None:
            self._pending = None
            self.ops_done += 1
            if self.ops_target is not None and self.ops_done >= self.ops_target:
                self.done = True
                chip._core_finished(now)
                return
            delay = result.latency + op[2]
            when = now + (delay if delay > 1 else 1)
        else:
            when = retry_at if retry_at > now else now + 1
        heappush(sim._queue, (when, sim._seq, self._issue_fast))
        sim._seq += 1


class Chip:
    """One protocol + one workload, ready to run."""

    #: engine label printed by the repo benchmark; there is one
    #: engine, so it is always ``"object"``
    engine = "object"

    def __init__(
        self,
        protocol: str | CoherenceProtocol,
        workload: str | ConsolidatedWorkload,
        config: ChipConfig = DEFAULT_CHIP,
        placement: Optional[VMPlacement] = None,
        n_vms: int = 4,
        seed: int = 0,
        checker: Optional[CoherenceChecker] = None,
        protocol_kwargs: Optional[dict] = None,
        workload_specs: Optional[dict] = None,
        plan: Optional[ConsolidationPlan] = None,
    ) -> None:
        """``workload_specs`` optionally pins the per-VM
        :class:`~repro.workloads.spec.WorkloadSpec` objects instead of
        resolving ``workload`` from the registry (sweep workers use it
        to reproduce exactly what the dispatching process keyed).

        ``plan`` optionally arms a
        :class:`~repro.workloads.dynamics.ConsolidationPlan` whose
        events fire mid-run through :meth:`apply_event`.  An empty plan
        is normalized to ``None`` so statistics stay bit-identical to a
        plan-less run."""
        if isinstance(protocol, CoherenceProtocol):
            self.protocol = protocol
        else:
            self.protocol = make_protocol(
                protocol, config, seed=seed, checker=checker,
                **(protocol_kwargs or {}),
            )
        config = self.protocol.config
        self.config = config
        default_placement = placement is None
        if placement is None:
            placement = VMPlacement.area_aligned(self.protocol.areas, n_vms)
        self.placement = placement
        if isinstance(workload, str):
            self.workload = ConsolidatedWorkload(
                workload, placement, self.protocol.addr, seed=seed,
                spec_by_vm=workload_specs,
            )
        else:
            # any object with .name / .trace(tile) / .cow_breaks works
            # (e.g. a recorded TraceFileWorkload)
            self.workload = workload
        core_tiles = placement.tiles_used
        if default_placement and hasattr(self.workload, "tiles"):
            core_tiles = tuple(self.workload.tiles)
        self.sim = Simulator(watchdog=self._build_watchdog())
        self.cores = [Core(t, self) for t in core_tiles]
        self.deadline: Optional[int] = None
        self._finish_time = 0
        #: set by the chip's one run (see :meth:`_begin_run`)
        self._ran = False
        if plan is not None and len(plan) == 0:
            plan = None
        self.plan = plan
        #: VM of record for cores whose VM departed mid-run (the
        #: placement no longer maps their tiles)
        self._core_vm: Dict[Core, int] = {}

    # ------------------------------------------------------------------

    def _build_watchdog(self) -> ProgressWatchdog:
        """The chip's livelock watchdog (see ``docs/SIMULATOR.md``).

        Always on, sampling every
        :data:`~repro.sim.engine.WATCHDOG_WINDOW` events.  A healthy
        run retires operations constantly, so the watchdog only ever
        fires on a genuinely wedged simulation — and purely *observes*
        otherwise (statistics do not depend on the window, pinned by
        the watchdog tests).
        """
        # the watchdog lives in this chip's simulator, so it reaches
        # the chip weakly (see :class:`Core`)
        chip = weakref.ref(self)
        return ProgressWatchdog(
            progress_fn=lambda: chip()._ops_retired(),
            diagnose_fn=lambda: chip()._livelock_diagnostic(),
        )

    def _ops_retired(self) -> int:
        return sum(core.ops_done for core in self.cores)

    def _livelock_diagnostic(self) -> dict:
        """Who is stuck: tiles with a pending op, blocks still busy."""
        tiles = [
            core.tile
            for core in self.cores
            if not core.done and core._pending is not None
        ]
        now = self.sim.now
        busy = getattr(self.protocol, "_busy", {})
        blocks = sorted(
            block for block, busy_until in busy.items() if busy_until > now
        )
        return {"tiles": tiles[:16], "blocks": blocks[:16]}

    def _core_finished(self, now: int) -> None:
        self._finish_time = max(self._finish_time, now)

    def _begin_run(self) -> None:
        """Claim the chip's one run.  A second run would report
        garbage: the deadline is absolute, and the warmup rebase would
        subtract from the op counts a second time."""
        if self._ran:
            raise SimulationError(
                "this chip has already run; build a new Chip for another run"
            )
        self._ran = True

    def _schedule_plan(self, cycles: int, warmup: int) -> None:
        """Arm the consolidation plan: validate it against the window
        and the initial placement, then schedule each event at its
        absolute cycle (``warmup + event.cycle``).  An event is one
        more entry in the event queue, ordered against the cores'
        issue events by (cycle, insertion sequence) like any other.
        """
        plan = self.plan
        assert plan is not None
        plan.validate(
            cycles,
            {vm: self.placement.tiles_of(vm) for vm in self.placement.vms},
            self.config.n_tiles,
        )
        # queued events reach the chip weakly, as the watchdog does
        chip = weakref.ref(self)
        for ev in plan.events:
            self.sim.schedule_at(
                warmup + ev.cycle, lambda ev=ev: chip().apply_event(ev)
            )

    def run_cycles(self, cycles: int, warmup: int = 0) -> RunStats:
        """Fixed time window; the metric is committed operations.

        ``warmup`` cycles run first with statistics discarded, so the
        measurement window starts with warm caches (the paper measures
        from checkpoints taken after warmup).  This is
        :meth:`run_cycles_windowed` with one window and no observer.
        """
        return self.run_cycles_windowed(cycles, warmup, max(cycles, 1))

    def run_cycles_windowed(
        self,
        cycles: int,
        warmup: int,
        window: int,
        observe: Optional[Callable[[int], None]] = None,
    ) -> RunStats:
        """:meth:`run_cycles` with a periodic observation callback.

        ``observe(measured_cycle)`` runs every ``window`` cycles of the
        measurement window (and once at its end) with the simulation
        quiescent, so it can sample live counters — the degradation
        benchmark uses it to resolve per-event recovery spikes.  A
        priming call ``observe(0)`` fires right after the warmup reset
        so samplers can baseline counters (core op counts survive the
        reset) before the first window.  Statistics do not depend on
        ``window``, which must be at least one cycle.
        """
        if window < 1:
            raise ValueError(f"window must be >= 1 cycle, got {window}")
        self._begin_run()
        self.deadline = end = warmup + cycles
        if self.plan is not None:
            self._schedule_plan(cycles, warmup)
        for core in self.cores:
            core.start()
        if warmup:
            self.sim.run(until=warmup)
            self.protocol.reset_stats()
            ops_at_warmup = [c.ops_done for c in self.cores]
        if observe is not None:
            observe(0)
        t = warmup
        while t < end:
            t = min(end, t + window)
            self.sim.run(until=t)
            if observe is not None:
                observe(t - warmup)
        if warmup:
            # cores admitted mid-run sit past the end of ops_at_warmup;
            # zip leaves them whole (they committed nothing in warmup)
            for c, base_ops in zip(self.cores, ops_at_warmup):
                c.ops_done -= base_ops
            self.protocol.stats.operations = sum(c.ops_done for c in self.cores)
        return self._finalize(cycles)

    # ------------------------------------------------------------------
    # dynamic consolidation

    def apply_event(self, ev: ConsolidationEvent) -> None:
        """Apply one consolidation event at the current cycle.

        Invoked by the scheduler (via :meth:`_schedule_plan`); callable
        directly by tests.  Updates the placement, the workload's page
        table, the protocol's coherence state and the per-event-type
        statistics, and emits a ``consolidation`` trace event when a
        tracer is attached.
        """
        now = self.sim.now
        proto = self.protocol
        st = proto.stats.consolidation
        st[ev.kind] = st.get(ev.kind, 0) + 1
        moved = flushed = pages = 0
        if ev.kind == "vm_migrate":
            old = self.placement.tiles_of(ev.vm)
            # departed cores keep their last tile, which a later
            # migration or arrival may reuse: only live cores move
            core_by_tile = {
                c.tile: c for c in self.cores if c not in self._core_vm
            }
            for src, dst in zip(old, ev.tiles):
                m, f = proto.migrate_tile_state(src, dst, now)
                moved += m
                flushed += f
            self.placement.migrate(ev.vm, ev.tiles)
            for src, dst in zip(old, ev.tiles):
                core = core_by_tile.get(src)
                if core is not None:
                    core.tile = dst
            proto.set_active_tiles(self.placement.tiles_used)
        elif ev.kind == "vm_depart":
            tiles = self.placement.tiles_of(ev.vm)
            for tile in tiles:
                flushed += proto.drain_tile(tile, now, deactivate=True)
            for core in self.cores:
                if core.tile in tiles:
                    self._core_vm[core] = ev.vm
                    if not core.done:
                        core.done = True
                        self._core_finished(now)
            self.placement.remove(ev.vm)
            if hasattr(self.workload, "release_vm"):
                self.workload.release_vm(ev.vm)
        elif ev.kind == "vm_arrive":
            self.placement.admit(ev.vm, ev.tiles)
            if hasattr(self.workload, "admit_vm"):
                self.workload.admit_vm(ev.vm, ev.benchmark)
            proto.set_active_tiles(self.placement.tiles_used)
            for tile in ev.tiles:
                core = Core(tile, self)
                self.cores.append(core)
                core.start()
        elif ev.kind == "dedup_break":
            if hasattr(self.workload, "break_dedup"):
                pages = len(self.workload.break_dedup(ev.vm, ev.pages))
        elif ev.kind == "dedup_merge":
            if hasattr(self.workload, "merge_dedup"):
                merged = self.workload.merge_dedup(ev.vm, ev.pages)
                pages = len(merged)
                blocks_per_page = (
                    self.config.memory.page_bytes // self.config.block_bytes
                )
                for old_ppage, _shared in merged:
                    base = old_ppage * blocks_per_page
                    for off in range(blocks_per_page):
                        flushed += proto.shootdown_block(base + off, now)
        else:
            raise ValueError(f"unknown consolidation event kind {ev.kind!r}")
        if moved:
            st["blocks_migrated"] = st.get("blocks_migrated", 0) + moved
        if flushed:
            st["blocks_flushed"] = st.get("blocks_flushed", 0) + flushed
        if pages:
            key = (
                "pages_broken" if ev.kind == "dedup_break" else "pages_merged"
            )
            st[key] = st.get(key, 0) + pages
        if proto._trace is not None:
            proto._trace.consolidation(
                ev.kind, vm=ev.vm, tiles=ev.tiles, pages=pages,
                moved=moved, flushed=flushed,
            )

    def run_ops(self, ops_per_core: int) -> RunStats:
        """Fixed work per core; the metric is elapsed cycles.

        A consolidation plan is validated against, and fires within, a
        cycle window, which this run has none of: a plan-armed chip
        raises :class:`ConfigError` instead of silently dropping it."""
        if self.plan is not None:
            raise ConfigError(
                "plan",
                "a consolidation plan needs a cycle window; "
                "use run_cycles, not run_ops",
            )
        self._begin_run()
        for core in self.cores:
            core.ops_target = ops_per_core
            core.start()
        self.sim.run()
        return self._finalize(self._finish_time or self.sim.now)

    def _finalize(self, cycles: int) -> RunStats:
        stats = self.protocol.finalize_stats(cycles)
        stats.workload = self.workload.name
        stats.cow_breaks = self.workload.cow_breaks
        return stats

    def per_vm_operations(self) -> Dict[int, int]:
        """Committed operations per VM (the isolation/fairness view).

        The commercial metric of Table IV counts transactions per VM;
        with area-aligned placement the protocols should not starve any
        VM relative to the others.
        """
        totals: Dict[int, int] = {}
        for core in self.cores:
            vm = self._core_vm.get(core)
            if vm is None:
                vm = self.placement.vm_of(core.tile)
            totals[vm] = totals.get(vm, 0) + core.ops_done
        return totals

    # ------------------------------------------------------------------

    def verify_coherence(self, blocks: Optional[list] = None, now: Optional[int] = None) -> None:
        """Run the invariant checker over cached blocks (test hook).

        Covers both the generic copy-set invariants and the protocol's
        own directory-consistency audit (:meth:`audit_block`)."""
        if blocks is None:
            seen = set()
            for l1 in self.protocol.l1s:
                for block, _ in l1:
                    seen.add(block)
            for l2 in self.protocol.l2s:
                for block, _ in l2:
                    seen.add(block)
            blocks = sorted(seen)
        for block in blocks:
            self.protocol.audit_block(block, now=now)
