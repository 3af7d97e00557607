"""The benchmark's inputs, generated from the workload seed alone.

Every simulation this benchmark times is a :class:`RunSpec` built here.
The seed drives each spec's workload seed, the consolidation plan of
the ``vm-churn`` cells and the seeds of the ``sweep-short`` grid; the
simulator only ever sees the specs.  The same seed always yields equal
specs, so the model outputs (op counts, stats digests) repeat exactly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.core.area import AreaMap
from repro.core.protocols import REGISTRY
from repro.sweep.spec import RunSpec
from repro.workloads.dynamics import ConsolidationEvent, ConsolidationPlan
from repro.workloads.placement import VMPlacement

__all__ = [
    "LENGTHS",
    "PASS_S",
    "SIM_WORKLOADS",
    "WORKLOADS",
    "churn_plan",
    "protocols",
    "sim_cells",
    "sweep_specs",
]

#: workloads whose cells run serially in this process, one per protocol
SIM_WORKLOADS = ("miss-heavy", "hit-heavy", "vm-churn")
WORKLOADS = SIM_WORKLOADS + ("sweep-short",)

#: the consolidated mix each simulation workload runs
_MIX = {
    "miss-heavy": "mixed-com",
    "hit-heavy": "tomcatv",
    "vm-churn": "mixed-com",
}

#: simulated cycles of a workload's cells: warmup (statistics discarded,
#: caches filled), then the measured window.  The miss-heavy cells are
#: long enough that per-op work, the miss path first, outweighs each
#: core's fixed cost of starting its reference stream.  The vm-churn
#: cells exist for the handoff path and are shorter, so a run fits
#: more passes.  tomcatv commits ~4x more ops per cycle and needs
#: no such length to be hit-bound, so its shorter cells buy more
#: passes, hence steadier fastest samples
LENGTHS = {
    "miss-heavy": (30_000, 30_000),
    "hit-heavy": (6_000, 6_000),
    "vm-churn": (20_000, 20_000),
}
#: nominal timed host seconds of one pass (cold grid + warm replays) on
#: a 2-vCPU Xeon; a run makes as many passes as fit its ``--seconds``
PASS_S = {
    "miss-heavy": 8.0,
    "hit-heavy": 4.0,
    "vm-churn": 6.5,
    "sweep-short": 3.5,
}

#: VMs of a ``vm-churn`` cell: one area of the chip starts empty, so
#: VMs can migrate into it and new ones arrive
CHURN_VMS = 3
#: a ``vm-churn`` plan, phase by phase: (share of the measured window,
#: kinds drawn, events).  Every plan migrates a whole VM twice, admits
#: one VM and churns dedup pages five times; the seed picks the VMs,
#: tiles, pages and cycles.  Fixed counts keep the seed from changing
#: how much handoff work a cell does.  ``vm_depart`` is left out: at
#: this revision about one plan in six that departs a VM fails the
#: post-run coherence audit or raises (ROADMAP item 1), and the
#: benchmark must run error-free on every seed.
CHURN_PHASES = (
    (0.5, ("vm_migrate",), 2),
    (0.25, ("vm_arrive",), 1),
    (0.25, ("dedup_break", "dedup_merge"), 5),
)
CHURN_EVENTS = sum(n for _, _, n in CHURN_PHASES)
CHURN_KINDS = tuple(k for _, kinds, _ in CHURN_PHASES for k in kinds)

#: the ``sweep-short`` grid: every protocol x these workloads x
#: ``SWEEP_SEEDS`` seeds of short points, where dispatch, pickling, the
#: stats codec and the result cache are a visible share of the time
SWEEP_WORKLOADS = ("apache", "tomcatv")
SWEEP_SEEDS = 2
SWEEP_WARMUP = 500
SWEEP_CYCLES = 1_500


def protocols() -> Tuple[str, ...]:
    """Every registered protocol, in registry order."""
    return REGISTRY.names()


def churn_plan(seed: int, base: RunSpec) -> ConsolidationPlan:
    """The seeded consolidation plan armed on every ``vm-churn`` cell.

    Generated against ``base``'s initial (area-aligned) placement and
    measurement window, so it validates against any spec that shares
    them.  One plan serves all protocols, so the cells compare the
    protocols on the same scenario.  Each of :data:`CHURN_PHASES` is
    generated in its own slice of the window against the placement the
    phases before it left.
    """
    cfg = base.resolve_config()
    placement = VMPlacement.area_aligned(
        AreaMap(cfg.mesh_width, cfg.mesh_height, cfg.n_areas), base.n_vms
    )
    tiles = {vm: placement.tiles_of(vm) for vm in placement.vms}
    events: List[ConsolidationEvent] = []
    start = 0
    for i, (share, kinds, n) in enumerate(CHURN_PHASES):
        last = i == len(CHURN_PHASES) - 1
        length = base.cycles - start if last else int(base.cycles * share)
        phase = ConsolidationPlan.generate(
            len(CHURN_PHASES) * seed + i, length, tiles, cfg.n_tiles,
            n_events=n, kinds=kinds,
        )
        for ev in phase.events:
            if ev.tiles:  # a migrated VM's new region, or an arrival's
                tiles[ev.vm] = ev.tiles
            events.append(replace(ev, cycle=ev.cycle + start))
        start += length
    return ConsolidationPlan(events=tuple(events), seed=seed)


def sim_cells(
    workload: str,
    seed: int,
    *,
    warmup: Optional[int] = None,
    cycles: Optional[int] = None,
    overrides: Sequence[Tuple[str, object]] = (),
    names: Sequence[str] = (),
) -> List[RunSpec]:
    """One cell per protocol (``names`` narrows the set) for a
    simulation workload, of the workload's :data:`LENGTHS` unless
    ``warmup``/``cycles`` are given; ``overrides`` reshape the chip
    (tests use a small mesh)."""
    if workload not in _MIX:
        raise ValueError(
            f"unknown simulation workload {workload!r}; "
            f"options: {', '.join(SIM_WORKLOADS)}"
        )
    if warmup is None:
        warmup = LENGTHS[workload][0]
    if cycles is None:
        cycles = LENGTHS[workload][1]
    churn = workload == "vm-churn"

    def spec(protocol: str, plan=None) -> RunSpec:
        return RunSpec(
            protocol=protocol, workload=_MIX[workload], seed=seed,
            cycles=cycles, warmup=warmup, overrides=tuple(overrides),
            n_vms=CHURN_VMS if churn else 4, plan=plan,
        )

    selected = tuple(names) or protocols()
    plan = None
    if churn:
        plan = churn_plan(seed, spec(selected[0])).to_dict()
    return [spec(p, plan) for p in selected]


def sweep_specs(
    seed: int,
    *,
    warmup: int = SWEEP_WARMUP,
    cycles: int = SWEEP_CYCLES,
    n_seeds: int = SWEEP_SEEDS,
    overrides: Sequence[Tuple[str, object]] = (),
    names: Sequence[str] = (),
) -> List[RunSpec]:
    """The ``sweep-short`` grid: protocols x workloads x seeds.  The
    point seeds of two workload seeds never overlap."""
    return [
        RunSpec(
            protocol=p, workload=w, seed=n_seeds * seed + k,
            cycles=cycles, warmup=warmup, overrides=tuple(overrides),
        )
        for p in (tuple(names) or protocols())
        for w in SWEEP_WORKLOADS
        for k in range(n_seeds)
    ]
