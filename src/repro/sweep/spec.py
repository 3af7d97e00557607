"""Run specifications for experiment sweeps.

A :class:`RunSpec` is a *complete, serializable* description of one
measured simulation: protocol, workload, seed, placement, measurement
window and any chip-configuration overrides.  Completeness is the
point — the spec's canonical JSON form is what the on-disk result
cache keys by, and what crosses the process boundary to pool workers,
so everything that can change the simulation's outcome must be in it.

Two fields need care:

* ``config`` — either ``None`` (the standard scaled evaluation chip of
  :func:`repro.sim.chip.paper_scaled_chip`) or a full chip-config
  document produced by :func:`config_to_dict`.  On top of that base,
  ``overrides`` applies dotted-path field replacements
  (``("l1c_entries", 256)``, ``("noc.model_contention", True)``) via
  :func:`dataclasses.replace`, which is how CLI sweeps express config
  grids without shipping whole documents.
* ``workload_specs`` — optionally pins the per-VM
  :class:`~repro.workloads.spec.WorkloadSpec` content.  Benchmarks
  sometimes patch the workload registry before a run; snapshotting the
  resolved specs into the RunSpec keeps the cache key honest and lets
  worker processes reproduce exactly what the parent asked for.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..core.area import AreaMap
from ..core.protocols.registry import REGISTRY
from ..sim.chip import PROTOCOLS, Chip, paper_scaled_chip
from ..sim.config import (
    CacheGeometry,
    ChipConfig,
    ConfigError,
    MemoryConfig,
    NocConfig,
)
from ..stats.counters import RunStats
from ..workloads.dynamics import ConsolidationPlan
from ..workloads.placement import VMPlacement
from ..workloads.spec import WorkloadSpec, workload_for_vm

__all__ = [
    "RunSpec",
    "apply_overrides",
    "config_from_dict",
    "config_to_dict",
    "placement_spec",
    "snapshot_workload",
    "valid_override_keys",
]


# ---------------------------------------------------------------------------
# chip-config serialization

def config_to_dict(config: ChipConfig) -> Dict[str, Any]:
    """Full chip-config document (plain JSON types, stable key order)."""
    return dataclasses.asdict(config)


def config_from_dict(doc: Mapping[str, Any]) -> ChipConfig:
    """Inverse of :func:`config_to_dict`."""
    doc = dict(doc)
    return ChipConfig(
        mesh_width=doc["mesh_width"],
        mesh_height=doc["mesh_height"],
        n_areas=doc["n_areas"],
        phys_addr_bits=doc["phys_addr_bits"],
        l1=CacheGeometry(**doc["l1"]),
        l2=CacheGeometry(**doc["l2"]),
        l1c_entries=doc["l1c_entries"],
        l2c_entries=doc["l2c_entries"],
        dir_cache_entries=doc["dir_cache_entries"],
        noc=NocConfig(**doc["noc"]),
        memory=MemoryConfig(**doc["memory"]),
    )


# nested ChipConfig sections and their dataclass types; kept explicit
# because the annotations are strings under ``from __future__ import
# annotations`` and can't be resolved by inspection alone
_NESTED = {
    "l1": CacheGeometry,
    "l2": CacheGeometry,
    "noc": NocConfig,
    "memory": MemoryConfig,
}


def valid_override_keys() -> Tuple[str, ...]:
    """Every dotted path :func:`apply_overrides` accepts, sorted."""
    keys = []
    for f in dataclasses.fields(ChipConfig):
        if f.name in _NESTED:
            keys.extend(
                f"{f.name}.{sub.name}"
                for sub in dataclasses.fields(_NESTED[f.name])
            )
        else:
            keys.append(f.name)
    return tuple(sorted(keys))


def apply_overrides(
    config: ChipConfig, overrides: Tuple[Tuple[str, Any], ...]
) -> ChipConfig:
    """Apply dotted-path field overrides to a (frozen) chip config.

    Unknown paths raise :class:`ValueError` naming the valid keys, so a
    typo in a sweep grid fails loudly instead of silently exploring the
    wrong axis (``dataclasses.replace`` would raise a bare TypeError
    deep in a worker otherwise).
    """
    if overrides:
        valid = valid_override_keys()
        for path, _ in overrides:
            if path not in valid:
                raise ValueError(
                    f"unknown config override key {path!r}; valid keys: "
                    + ", ".join(valid)
                )
    for path, value in overrides:
        head, _, rest = path.partition(".")
        if rest:
            sub = getattr(config, head)
            sub = dataclasses.replace(sub, **{rest: value})
            config = dataclasses.replace(config, **{head: sub})
        else:
            config = dataclasses.replace(config, **{head: value})
    return config


# ---------------------------------------------------------------------------
# placement / workload serialization

def placement_spec(placement: VMPlacement) -> Dict[str, Any]:
    """Serializable form of an explicit placement (``vm -> tiles``)."""
    vms = sorted({placement.vm_of(t) for t in placement.tiles_used})
    return {str(vm): list(placement.tiles_of(vm)) for vm in vms}


def snapshot_workload(
    workload: str, n_vms: int
) -> Tuple[Tuple[int, Dict[str, Any]], ...]:
    """Resolve ``workload`` from the live registry into spec documents.

    Documents are JSON-native (tuples become lists) so a spec equals
    its own JSON round trip.
    """
    out = []
    for vm in range(n_vms):
        doc = dataclasses.asdict(workload_for_vm(workload, vm, n_vms))
        doc["think"] = list(doc["think"])
        out.append((vm, doc))
    return tuple(out)


def _workload_spec_from_doc(doc: Mapping[str, Any]) -> WorkloadSpec:
    doc = dict(doc)
    doc["think"] = tuple(doc["think"])  # JSON round-trips tuples as lists
    return WorkloadSpec(**doc)


def _freeze(value: Any) -> Any:
    """Recursively convert JSON-style containers to hashable tuples."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One grid point of a sweep: everything needed to reproduce a run."""

    protocol: str
    workload: str
    seed: int = 1
    #: ``"aligned"`` (one VM per area), ``"alt"`` (Fig. 6 bands), or an
    #: explicit ``{vm: [tiles]}`` mapping
    placement: Any = "aligned"
    cycles: int = 80_000
    warmup: int = 60_000
    n_vms: int = 4
    #: full chip-config document, or ``None`` for the paper-scaled chip
    config: Optional[Mapping[str, Any]] = None
    #: dotted-path field overrides applied on top of ``config``
    overrides: Tuple[Tuple[str, Any], ...] = ()
    protocol_kwargs: Mapping[str, Any] = field(default_factory=dict)
    #: pinned per-VM workload content, or ``None`` to resolve by name
    workload_specs: Optional[Tuple[Tuple[int, Mapping[str, Any]], ...]] = None
    #: dynamic-consolidation plan document
    #: (:meth:`~repro.workloads.dynamics.ConsolidationPlan.to_dict`
    #: form), or ``None`` for a static run.  Validated at construction
    #: against the spec's own measurement window and initial placement,
    #: so an event past ``cycles`` or a migration onto occupied tiles
    #: fails here — naming the offending event index — instead of deep
    #: inside a worker process.
    plan: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        try:
            canonical = REGISTRY.resolve(self.protocol)
        except ValueError:
            raise ConfigError(
                "protocol",
                f"unknown protocol {self.protocol!r}; "
                f"choose from {', '.join(sorted(PROTOCOLS))}",
            ) from None
        if canonical != self.protocol:
            # canonicalize aliases so a spec's fingerprint — and with it
            # the sweep result cache — does not depend on which alias
            # the caller typed
            object.__setattr__(self, "protocol", canonical)
        if self.cycles < 1:
            raise ConfigError(
                "cycles", f"measurement window must be >= 1 cycle, got {self.cycles}"
            )
        if self.warmup < 0:
            raise ConfigError("warmup", f"warmup must be >= 0, got {self.warmup}")
        if self.n_vms < 1:
            raise ConfigError("n_vms", f"need at least one VM, got {self.n_vms}")
        if isinstance(self.placement, str):
            if self.placement not in ("aligned", "alt"):
                raise ConfigError(
                    "placement",
                    f"unknown placement {self.placement!r}; expected "
                    "'aligned', 'alt', or an explicit vm->tiles mapping",
                )
        elif not isinstance(self.placement, Mapping):
            raise ConfigError(
                "placement",
                f"expected a name or vm->tiles mapping, got "
                f"{type(self.placement).__name__}",
            )
        if self.plan is not None:
            plan = ConsolidationPlan.from_dict(self.plan)
            if len(plan) == 0:
                # an empty plan is a static run: normalize to None so
                # the fingerprint (and the result cache key) is shared
                # with the plan-less spec it is bit-identical to
                object.__setattr__(self, "plan", None)
            else:
                cfg = self.resolve_config()
                plan.validate(
                    self.cycles, self._initial_tiles_by_vm(cfg), cfg.n_tiles
                )
                # store the canonical document (events cycle-sorted) so
                # equal plans serialize — and fingerprint — identically
                object.__setattr__(self, "plan", plan.to_dict())

    def _initial_tiles_by_vm(self, cfg: ChipConfig) -> Dict[int, Tuple[int, ...]]:
        """The run's starting ``vm -> tiles`` map (pre-plan)."""
        if self.placement == "aligned":
            areas = AreaMap(cfg.mesh_width, cfg.mesh_height, cfg.n_areas)
            placement = VMPlacement.area_aligned(areas, self.n_vms)
        elif self.placement == "alt":
            placement = VMPlacement.alternative(
                cfg.mesh_width, cfg.mesh_height, self.n_vms
            )
        else:
            placement = VMPlacement(
                {int(vm): tuple(t) for vm, t in dict(self.placement).items()}
            )
        return {vm: placement.tiles_of(vm) for vm in placement.vms}

    # ------------------------------------------------------------------

    @property
    def label(self) -> str:
        """Short human-readable identity for progress lines."""
        extra = ""
        if self.placement != "aligned":
            extra += " alt" if self.placement == "alt" else " custom-placement"
        if self.overrides:
            extra += " " + ",".join(f"{k}={v}" for k, v in self.overrides)
        if self.plan is not None:
            extra += f" plan[{len(self.plan['events'])}]"
        return f"{self.protocol}/{self.workload} seed={self.seed}{extra}"

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready document (inverse of :meth:`from_dict`).

        The ``plan`` key is emitted only when a plan is armed: static
        specs keep the exact document — and fingerprint — they had
        before dynamic consolidation existed, so cached results stay
        valid.
        """
        doc = {
            "protocol": self.protocol,
            "workload": self.workload,
            "seed": self.seed,
            "placement": self.placement
            if isinstance(self.placement, str)
            else {str(k): list(v) for k, v in dict(self.placement).items()},
            "cycles": self.cycles,
            "warmup": self.warmup,
            "n_vms": self.n_vms,
            "config": dict(self.config) if self.config is not None else None,
            "overrides": [[k, v] for k, v in self.overrides],
            "protocol_kwargs": dict(self.protocol_kwargs),
            "workload_specs": None
            if self.workload_specs is None
            else [[vm, dict(d)] for vm, d in self.workload_specs],
        }
        if self.plan is not None:
            doc["plan"] = {
                "seed": self.plan["seed"],
                "events": [dict(ev) for ev in self.plan["events"]],
            }
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "RunSpec":
        return cls(
            protocol=doc["protocol"],
            workload=doc["workload"],
            seed=doc["seed"],
            placement=doc["placement"],
            cycles=doc["cycles"],
            warmup=doc["warmup"],
            n_vms=doc.get("n_vms", 4),
            config=doc.get("config"),
            overrides=tuple(
                (k, v) for k, v in doc.get("overrides") or ()
            ),
            protocol_kwargs=doc.get("protocol_kwargs") or {},
            workload_specs=None
            if doc.get("workload_specs") is None
            else tuple((vm, d) for vm, d in doc["workload_specs"]),
            plan=doc.get("plan"),
        )

    def canonical_json(self) -> str:
        """Stable one-line JSON — the content identity of this spec.

        The workload is always resolved to spec *content* (from the
        embedded snapshot, else the live registry), so two specs that
        would simulate different traffic never share a key, even when
        the registry was patched in between.
        """
        doc = self.to_dict()
        if doc["workload_specs"] is None:
            doc["workload_specs"] = [
                [vm, dict(d)] for vm, d in snapshot_workload(
                    self.workload, self.n_vms
                )
            ]
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        """sha256 over :meth:`canonical_json` — the spec's content
        identity (same value as :func:`repro.api.spec_fingerprint`).
        The sweep journal and fault plans key by it."""
        import hashlib

        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def __hash__(self) -> int:  # dict/tuple fields need manual freezing
        return hash(
            (
                self.protocol,
                self.workload,
                self.seed,
                _freeze(self.placement),
                self.cycles,
                self.warmup,
                self.n_vms,
                _freeze(self.config),
                _freeze(self.overrides),
                _freeze(self.protocol_kwargs),
                _freeze(self.workload_specs),
                _freeze(self.plan),
            )
        )

    # ------------------------------------------------------------------
    # execution

    def resolve_config(self) -> ChipConfig:
        base = (
            paper_scaled_chip()
            if self.config is None
            else config_from_dict(self.config)
        )
        return apply_overrides(base, self.overrides)

    def build_chip(self) -> Chip:
        """Construct the chip this spec describes."""
        cfg = self.resolve_config()
        if isinstance(self.placement, str):
            if self.placement == "aligned":
                placement = None  # Chip default: area-aligned
            elif self.placement == "alt":
                placement = VMPlacement.alternative(
                    cfg.mesh_width, cfg.mesh_height, self.n_vms
                )
            else:
                raise ValueError(
                    f"unknown placement {self.placement!r} "
                    "(expected 'aligned', 'alt' or a vm->tiles mapping)"
                )
        else:
            placement = VMPlacement(
                {int(vm): tuple(tiles) for vm, tiles in dict(self.placement).items()}
            )
        specs = None
        if self.workload_specs is not None:
            specs = {
                vm: _workload_spec_from_doc(doc)
                for vm, doc in self.workload_specs
            }
        return Chip(
            self.protocol,
            self.workload,
            config=cfg,
            seed=self.seed,
            placement=placement,
            n_vms=self.n_vms,
            protocol_kwargs=dict(self.protocol_kwargs),
            workload_specs=specs,
            plan=None
            if self.plan is None
            else ConsolidationPlan.from_dict(self.plan),
        )

    def execute(
        self,
        verify: bool = True,
        trace: Any = None,
    ) -> RunStats:
        """Run the simulation this spec describes and return its stats.

        Thin wrapper over :func:`repro.api.simulate` (the single
        construction path); ``trace`` takes a
        :class:`~repro.api.TraceOptions`.  Use ``simulate`` directly
        when you need the manifest or captured events.
        """
        from ..api import simulate  # circular: api imports RunSpec

        return simulate(self, trace=trace, checker=verify).stats
