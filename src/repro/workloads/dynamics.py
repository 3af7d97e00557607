"""Dynamic-consolidation event plans (mid-run topology/workload churn).

The paper evaluates a *static* consolidation: VMs pinned to tiles for
the whole run, deduplication fixed at trace-generation time.  Real
server consolidation churns — the hypervisor migrates VMs between tile
regions, breaks and re-merges deduplicated pages, retires VMs and
admits new ones.  A :class:`ConsolidationPlan` is a seeded,
serializable schedule of such events, executed at exact cycles of the
measurement window through :meth:`repro.sim.chip.Chip.apply_event`.

Five event kinds:

* ``vm_migrate`` — remap a VM's tiles to a new (disjoint) region.  The
  coherence protocol performs a per-block state handoff
  (:meth:`~repro.core.protocols.base.CoherenceProtocol.migrate_tile_state`):
  flat-directory and DiCo re-point their owner metadata and transfer
  the lines; the area-keyed families (Providers/Arin) flush, because
  their sharing codes do not survive a region change.
* ``dedup_break`` — copy-on-write ``pages`` of the VM's deduplicated
  region, as a hypervisor would under memory pressure.
* ``dedup_merge`` — re-merge previously broken pages onto their
  content-group frame; the retired private frames are shot down
  chip-wide (the TLB-shootdown analogue, and the measurable spike).
* ``vm_depart`` — quiesce the VM: drain its tiles' caches (dirty
  owners write back), stop its cores, release its page mappings.
* ``vm_arrive`` — admit a new VM onto currently-free tiles: map its
  address space (joining the live dedup groups) and start its cores.

Event cycles are *measurement-relative*: an event with ``cycle=c``
fires at ``warmup + c``, and :meth:`ConsolidationPlan.validate`
rejects plans whose events fall outside ``1..cycles`` — or whose tile
targets overlap an occupied region — with a structured
:class:`~repro.sim.config.ConfigError` naming the event index.

A plan with no events is normalized away by the chip: statistics stay
bit-identical to a plan-less run (pinned by tests).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..sim.config import ConfigError, check_document, is_int
from .spec import spec_names

__all__ = ["EVENT_KINDS", "ConsolidationEvent", "ConsolidationPlan"]

EVENT_KINDS = (
    "dedup_break",
    "dedup_merge",
    "vm_arrive",
    "vm_depart",
    "vm_migrate",
)

#: the keys of an event document, in :meth:`ConsolidationEvent.to_dict`
#: order
_EVENT_KEYS = ("cycle", "kind", "vm", "tiles", "pages", "benchmark")


def _malformed(detail: str) -> ConfigError:
    return ConfigError("plan", f"malformed plan: {detail}")


def _literal(where: str, key: str, value: Any, expected: str) -> ConfigError:
    return _malformed(
        f"{where}: invalid literal for {where}.{key}: expected {expected}, "
        f"got {value!r}"
    )


@dataclass(frozen=True)
class ConsolidationEvent:
    """One scheduled consolidation action."""

    #: measurement-relative fire cycle (1..cycles; fires at warmup+cycle)
    cycle: int
    kind: str
    vm: int
    #: ``vm_migrate``: the new region; ``vm_arrive``: the admitted region
    tiles: Tuple[int, ...] = ()
    #: ``dedup_break``/``dedup_merge``: how many pages to churn
    pages: int = 0
    #: ``vm_arrive``: workload name for the new VM (None: the run's own)
    benchmark: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "cycle": self.cycle,
            "kind": self.kind,
            "vm": self.vm,
        }
        if self.tiles:
            doc["tiles"] = list(self.tiles)
        if self.pages:
            doc["pages"] = self.pages
        if self.benchmark is not None:
            doc["benchmark"] = self.benchmark
        return doc

    @classmethod
    def from_dict(cls, doc: Any, where: str = "event") -> "ConsolidationEvent":
        """Inverse of :meth:`to_dict`.  A document that is not one, an
        unknown or missing key, or a value of the wrong type is a
        :class:`ConfigError` naming ``plan`` and the key's path below
        ``where`` (``plan.events[0].cycle`` inside a plan); integers
        are never coerced, so ``cycle: 100.7`` does not run at 100."""
        if not isinstance(doc, Mapping):
            raise _malformed(
                f"{where} must be an object, got {type(doc).__name__}"
            )
        check_document("plan", where, doc, _EVENT_KEYS)
        for key in ("cycle", "kind", "vm"):
            if key not in doc:
                raise _malformed(f"missing key {where}.{key}")
        for key in ("cycle", "vm", "pages"):
            if key in doc and not is_int(doc[key]):
                raise _literal(where, key, doc[key], "an integer")
        tiles = doc.get("tiles", [])
        if not isinstance(tiles, (list, tuple)) or not all(map(is_int, tiles)):
            raise _literal(where, "tiles", tiles, "a list of integers")
        if not isinstance(doc["kind"], str):
            raise _literal(where, "kind", doc["kind"], "a name")
        benchmark = doc.get("benchmark")
        if benchmark is not None and benchmark not in spec_names():
            raise _literal(where, "benchmark", benchmark, "a workload name")
        return cls(
            cycle=doc["cycle"],
            kind=doc["kind"],
            vm=doc["vm"],
            tiles=tuple(tiles),
            pages=doc.get("pages", 0),
            benchmark=benchmark,
        )


@dataclass(frozen=True)
class ConsolidationPlan:
    """A seeded, serializable schedule of consolidation events.

    Events are kept sorted by cycle (stable, so same-cycle events fire
    in the given order).  The plan itself is inert data; the chip
    schedules and applies it.
    """

    events: Tuple[ConsolidationEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda ev: ev.cycle)
        )
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "events": [ev.to_dict() for ev in self.events],
        }

    @classmethod
    def from_dict(cls, doc: Any) -> "ConsolidationPlan":
        """Inverse of :meth:`to_dict`; a malformed document is a
        :class:`ConfigError` naming its path (``plan.seed``,
        ``plan.events[0].cycle``)."""
        check_document("plan", "plan", doc, ("seed", "events"))
        events = doc.get("events", [])
        if not isinstance(events, (list, tuple)):
            raise _malformed(
                f"plan.events must be a list, got {type(events).__name__}"
            )
        seed = doc.get("seed", 0)
        if not is_int(seed):
            raise _malformed(f"plan.seed: expected an integer, got {seed!r}")
        return cls(
            events=tuple(
                ConsolidationEvent.from_dict(ev, f"plan.events[{i}]")
                for i, ev in enumerate(events)
            ),
            seed=seed,
        )

    # ------------------------------------------------------------------

    def validate(
        self,
        cycles: int,
        tiles_by_vm: Mapping[int, Sequence[int]],
        n_tiles: int,
    ) -> None:
        """Replay the plan against an evolving placement and reject any
        impossible event with a :class:`ConfigError` naming its index.

        ``tiles_by_vm`` is the initial placement; the replay tracks
        migrations, departures and arrivals so each event is checked
        against the placement *it will actually see*.
        """
        placement: Dict[int, Tuple[int, ...]] = {
            int(vm): tuple(tiles) for vm, tiles in tiles_by_vm.items()
        }

        def occupied() -> Dict[int, int]:
            return {t: vm for vm, tiles in placement.items() for t in tiles}

        for i, ev in enumerate(self.events):
            where = f"event {i} ({ev.kind}, vm {ev.vm})"
            if ev.kind not in EVENT_KINDS:
                raise ConfigError(
                    "plan", f"{where}: unknown event kind {ev.kind!r}; "
                    f"options: {', '.join(EVENT_KINDS)}"
                )
            if not 1 <= ev.cycle <= cycles:
                raise ConfigError(
                    "plan",
                    f"{where}: cycle {ev.cycle} outside the measurement "
                    f"window 1..{cycles}",
                )
            if ev.kind == "vm_arrive":
                if ev.vm in placement:
                    raise ConfigError(
                        "plan", f"{where}: VM {ev.vm} is already placed"
                    )
            elif ev.vm not in placement:
                raise ConfigError(
                    "plan", f"{where}: VM {ev.vm} is not placed at cycle "
                    f"{ev.cycle}"
                )
            if ev.kind in ("vm_migrate", "vm_arrive"):
                if not ev.tiles:
                    raise ConfigError(
                        "plan", f"{where}: needs a non-empty tile region"
                    )
                if len(set(ev.tiles)) != len(ev.tiles):
                    raise ConfigError(
                        "plan", f"{where}: duplicate tiles in target region"
                    )
                bad = [t for t in ev.tiles if not 0 <= t < n_tiles]
                if bad:
                    raise ConfigError(
                        "plan",
                        f"{where}: tiles {bad} outside the chip "
                        f"(0..{n_tiles - 1})",
                    )
                occ = occupied()
                clash = sorted(
                    {occ[t] for t in ev.tiles if t in occ}
                )
                if clash:
                    raise ConfigError(
                        "plan",
                        f"{where}: target region overlaps tiles of "
                        f"VM(s) {clash}",
                    )
            if ev.kind == "vm_migrate":
                if len(ev.tiles) != len(placement[ev.vm]):
                    raise ConfigError(
                        "plan",
                        f"{where}: target region has {len(ev.tiles)} tiles "
                        f"but the VM runs {len(placement[ev.vm])} threads",
                    )
                placement[ev.vm] = tuple(ev.tiles)
            elif ev.kind == "vm_depart":
                del placement[ev.vm]
            elif ev.kind == "vm_arrive":
                placement[ev.vm] = tuple(ev.tiles)
            elif ev.kind in ("dedup_break", "dedup_merge"):
                if ev.pages < 1:
                    raise ConfigError(
                        "plan", f"{where}: needs pages >= 1, got {ev.pages}"
                    )

    # ------------------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        cycles: int,
        tiles_by_vm: Mapping[int, Sequence[int]],
        n_tiles: int,
        n_events: int = 4,
        kinds: Sequence[str] = EVENT_KINDS,
    ) -> "ConsolidationPlan":
        """Seeded random plan, guaranteed valid for the given window.

        Used by the dynamic benchmark sweep and the plan fuzz tests:
        events are drawn one at a time against the evolving placement,
        skipping kinds that are impossible at that point (no free
        region to migrate into, no VM left to retire, ...).
        """
        rng = random.Random(seed)
        placement: Dict[int, Tuple[int, ...]] = {
            int(vm): tuple(tiles) for vm, tiles in tiles_by_vm.items()
        }
        next_vm = max(placement, default=-1) + 1
        events: List[ConsolidationEvent] = []
        cycle_lo = 1
        for _ in range(n_events):
            if not placement:
                break
            span = max(1, (cycles - cycle_lo) // 2)
            cycle = min(cycles, cycle_lo + rng.randrange(span) + 1)
            cycle_lo = cycle
            free = sorted(
                set(range(n_tiles))
                - {t for tiles in placement.values() for t in tiles}
            )
            options = []
            for kind in kinds:
                if kind == "vm_migrate":
                    if any(len(free) >= len(t) for t in placement.values()):
                        options.append(kind)
                elif kind == "vm_depart":
                    if len(placement) > 1:
                        options.append(kind)
                elif kind == "vm_arrive":
                    if free:
                        options.append(kind)
                else:
                    options.append(kind)
            if not options:
                break
            kind = options[rng.randrange(len(options))]
            if kind == "vm_migrate":
                candidates = sorted(
                    vm for vm, t in placement.items() if len(free) >= len(t)
                )
                vm = candidates[rng.randrange(len(candidates))]
                n = len(placement[vm])
                tiles = tuple(rng.sample(free, n))
                placement[vm] = tiles
                events.append(
                    ConsolidationEvent(cycle, kind, vm, tiles=tiles)
                )
            elif kind == "vm_depart":
                vms = sorted(placement)
                vm = vms[rng.randrange(len(vms))]
                del placement[vm]
                events.append(ConsolidationEvent(cycle, kind, vm))
            elif kind == "vm_arrive":
                n = min(len(free), max(1, rng.randrange(1, 5)))
                tiles = tuple(rng.sample(free, n))
                vm = next_vm
                next_vm += 1
                placement[vm] = tiles
                events.append(
                    ConsolidationEvent(cycle, kind, vm, tiles=tiles)
                )
            else:
                vms = sorted(placement)
                vm = vms[rng.randrange(len(vms))]
                events.append(
                    ConsolidationEvent(
                        cycle, kind, vm, pages=rng.randrange(1, 5)
                    )
                )
        plan = cls(events=tuple(events), seed=seed)
        plan.validate(cycles, tiles_by_vm, n_tiles)
        return plan
