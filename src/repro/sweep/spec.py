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
import inspect
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
from ..workloads.spec import WorkloadSpec, spec_names, workload_for_vm

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


# nested ChipConfig sections and their dataclass types; kept explicit
# because the annotations are strings under ``from __future__ import
# annotations`` and can't be resolved by inspection alone
_NESTED = {
    "l1": CacheGeometry,
    "l2": CacheGeometry,
    "noc": NocConfig,
    "memory": MemoryConfig,
}


def config_from_dict(doc: Mapping[str, Any]) -> ChipConfig:
    """Inverse of :func:`config_to_dict`.  A missing key, a top-level
    value that is not an integer, or a section that is not a document
    of its fields, is a :class:`ConfigError` naming its path
    (``config.mesh_height``, ``config.l1``)."""
    if not isinstance(doc, Mapping):
        raise ConfigError(
            "config",
            f"expected a chip-config document, got {type(doc).__name__}",
        )
    fields = {}
    for f in dataclasses.fields(ChipConfig):
        if f.name not in doc:
            raise ConfigError("config", f"missing key config.{f.name}")
        value = doc[f.name]
        if f.name in _NESTED:
            try:
                value = _NESTED[f.name](**value)
            except TypeError as exc:
                raise ConfigError(
                    "config", f"config.{f.name}: {exc}"
                ) from None
        elif isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(
                "config", f"config.{f.name}: expected an integer, got {value!r}"
            )
        fields[f.name] = value
    return ChipConfig(**fields)


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

    Unknown paths raise :class:`ConfigError` naming the valid keys, so
    a typo in a sweep grid fails loudly instead of silently exploring
    the wrong axis (``dataclasses.replace`` would raise a bare TypeError
    deep in a worker otherwise).
    """
    if overrides:
        valid = valid_override_keys()
        for path, _ in overrides:
            if path not in valid:
                raise ConfigError(
                    "overrides",
                    f"unknown config override key {path!r}; valid keys: "
                    + ", ".join(valid),
                )
    for path, value in overrides:
        head, _, rest = path.partition(".")
        try:
            if rest:
                sub = getattr(config, head)
                sub = dataclasses.replace(sub, **{rest: value})
                config = dataclasses.replace(config, **{head: sub})
            else:
                config = dataclasses.replace(config, **{head: value})
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            # a value of the wrong type fails inside the config's own
            # checks (``"x" < 1``): name the override that carried it
            raise ConfigError("overrides", f"{path}={value!r}: {exc}") from None
    return config


# ---------------------------------------------------------------------------
# placement / workload serialization

def placement_spec(placement: VMPlacement) -> Dict[str, Any]:
    """Serializable form of an explicit placement (``vm -> tiles``)."""
    vms = sorted({placement.vm_of(t) for t in placement.tiles_used})
    return {str(vm): list(placement.tiles_of(vm)) for vm in vms}


def _parse_placement(
    doc: Mapping[Any, Any], n_tiles: int
) -> Dict[int, Tuple[int, ...]]:
    """An explicit ``{vm: [tiles]}`` placement as ``{vm: (tiles)}``.

    VM keys are non-negative ints or their decimal strings (a JSON
    document's keys are strings), and each tile is an ``int`` in
    ``[0, n_tiles)``; :class:`VMPlacement` then rejects an empty VM or a
    tile in two VMs.  Anything else is a :class:`ConfigError` naming
    ``placement``.
    """
    tiles_by_vm: Dict[int, Tuple[int, ...]] = {}
    for key, tiles in doc.items():
        if isinstance(key, str) and key.isascii() and key.isdigit():
            vm = int(key)
        elif isinstance(key, int) and not isinstance(key, bool) and key >= 0:
            vm = key
        else:
            raise ConfigError(
                "placement", f"VM key {key!r} is not a non-negative integer"
            )
        if vm in tiles_by_vm:
            raise ConfigError("placement", f"VM {vm} is given twice")
        if not isinstance(tiles, (list, tuple)):
            raise ConfigError(
                "placement", f"VM {vm}: expected a list of tiles, got {tiles!r}"
            )
        for tile in tiles:
            if (
                isinstance(tile, bool)
                or not isinstance(tile, int)
                or not 0 <= tile < n_tiles
            ):
                raise ConfigError(
                    "placement",
                    f"VM {vm}: tile {tile!r} is not a tile id in "
                    f"[0, {n_tiles})",
                )
        tiles_by_vm[vm] = tuple(tiles)
    try:
        VMPlacement(tiles_by_vm)
    except ValueError as exc:
        raise ConfigError("placement", str(exc)) from None
    return tiles_by_vm


#: :class:`WorkloadSpec` field names in declaration order, the key order
#: of a workload document
_WORKLOAD_FIELDS = tuple(f.name for f in dataclasses.fields(WorkloadSpec))


def snapshot_workload(
    workload: str, n_vms: int
) -> Tuple[Tuple[int, Dict[str, Any]], ...]:
    """Resolve ``workload`` from the live registry into spec documents.

    Documents are JSON-native (tuples become lists) so a spec equals
    its own JSON round trip.  Every field but ``think`` is an immutable
    scalar, so the frozen spec's fields are read directly: every
    fingerprint builds these documents, and ``dataclasses.asdict``
    would deep-copy each field.
    """
    out = []
    for vm in range(n_vms):
        spec = workload_for_vm(workload, vm, n_vms)
        doc = {name: getattr(spec, name) for name in _WORKLOAD_FIELDS}
        doc["think"] = list(spec.think)
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


def _pairs(key: str, value: Any) -> Tuple[Tuple[Any, Any], ...]:
    """A JSON list of ``[a, b]`` pairs as a tuple of pairs; anything
    else is a :class:`ConfigError` naming ``key`` and the bad item."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(
            key, f"expected a list of pairs, got {type(value).__name__}"
        )
    for i, item in enumerate(value):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigError(key, f"{key}[{i}]: expected a pair, got {item!r}")
    return tuple((a, b) for a, b in value)


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
        for key in ("protocol", "workload"):
            value = getattr(self, key)
            if not isinstance(value, str):
                raise ConfigError(key, f"expected a name, got {value!r}")
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
        if self.protocol_kwargs:
            self._check_protocol_kwargs()
        for key, least, rule in (
            ("seed", 0, "seed must be >= 0"),
            ("cycles", 1, "measurement window must be >= 1 cycle"),
            ("warmup", 0, "warmup must be >= 0"),
            ("n_vms", 1, "need at least one VM"),
        ):
            value = getattr(self, key)
            # a bool is an int, and a float would reach numpy or range()
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(key, f"expected an integer, got {value!r}")
            if value < least:
                raise ConfigError(key, f"{rule}, got {value}")
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
        # a bad config, override, placement or workload document fails
        # here, at construction, not in whichever worker first builds
        # the chip
        cfg = self.resolve_config()
        # the starting placement is kept beside the document, which
        # to_dict and the fingerprint serialize as given
        object.__setattr__(self, "_tiles_by_vm", self._starting_placement(cfg))
        pinned = self.resolve_workload_specs()
        if pinned is None and self.workload not in spec_names():
            raise ConfigError(
                "workload",
                f"unknown workload {self.workload!r}; "
                f"choose from {', '.join(spec_names())}",
            )
        if self.plan is not None:
            if not isinstance(self.plan, Mapping):
                raise ConfigError(
                    "plan",
                    f"expected a plan document, got "
                    f"{type(self.plan).__name__}",
                )
            plan = ConsolidationPlan.from_dict(self.plan)
            if len(plan) == 0:
                # an empty plan is a static run: normalize to None so
                # the fingerprint (and the result cache key) is shared
                # with the plan-less spec it is bit-identical to
                object.__setattr__(self, "plan", None)
            else:
                plan.validate(self.cycles, self._tiles_by_vm, cfg.n_tiles)
                # store the canonical document (events cycle-sorted) so
                # equal plans serialize — and fingerprint — identically
                object.__setattr__(self, "plan", plan.to_dict())

    def _check_protocol_kwargs(self) -> None:
        """Each key must name a parameter of the protocol's constructor
        (other than the ``config``/``seed``/``checker`` the chip passes),
        or every attempt of the run would fail with a ``TypeError``."""
        if not isinstance(self.protocol_kwargs, Mapping):
            raise ConfigError(
                "protocol_kwargs",
                f"expected a mapping, got {type(self.protocol_kwargs).__name__}",
            )
        params = inspect.signature(REGISTRY.get(self.protocol).cls).parameters
        options = sorted(set(params) - {"config", "seed", "checker"})
        unknown = sorted(map(str, set(self.protocol_kwargs) - set(options)))
        if unknown:
            raise ConfigError(
                "protocol_kwargs",
                f"{self.protocol} takes no option {', '.join(unknown)}; "
                f"its options: {', '.join(options) or 'none'}",
            )

    def _starting_placement(self, cfg: ChipConfig) -> Dict[int, Tuple[int, ...]]:
        """The run's starting ``vm -> tiles`` map (pre-plan); a named
        placement that does not fit the chip is a :class:`ConfigError`
        naming ``placement``."""
        if not isinstance(self.placement, str):
            return _parse_placement(self.placement, cfg.n_tiles)
        try:
            if self.placement == "aligned":
                areas = AreaMap(cfg.mesh_width, cfg.mesh_height, cfg.n_areas)
                placement = VMPlacement.area_aligned(areas, self.n_vms)
            else:
                placement = VMPlacement.alternative(
                    cfg.mesh_width, cfg.mesh_height, self.n_vms
                )
        except ValueError as exc:
            raise ConfigError(
                "placement",
                f"{self.placement!r} placement of {self.n_vms} VMs: {exc}",
            ) from None
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
        """Inverse of :meth:`to_dict`.  Only ``protocol`` and
        ``workload`` are required; an omitted key takes its field's
        default, so a sparse hand-written document parses too.  A
        malformed document raises :class:`ConfigError` naming its key
        path, never a bare ``KeyError`` or ``TypeError``."""
        if not isinstance(doc, Mapping):
            raise ConfigError(
                "spec", f"expected a spec document, got {type(doc).__name__}"
            )
        for name in ("protocol", "workload"):
            if name not in doc:
                raise ConfigError(name, "missing required key")
        scalars = {
            name: doc[name]
            for name in (
                "seed", "placement", "cycles", "warmup", "n_vms",
                "config", "plan",
            )
            if name in doc
        }
        specs = doc.get("workload_specs")
        return cls(
            protocol=doc["protocol"],
            workload=doc["workload"],
            overrides=_pairs("overrides", doc.get("overrides") or ()),
            protocol_kwargs=doc.get("protocol_kwargs") or {},
            workload_specs=None
            if specs is None
            else _pairs("workload_specs", specs),
            **scalars,
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
        identity.  The result cache, fault plans, trace file names and
        the run manifest's ``config_fingerprint`` key by it."""
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

    def resolve_workload_specs(self) -> Optional[Dict[int, WorkloadSpec]]:
        """The pinned per-VM specs, or ``None`` to resolve by name; a
        document :class:`WorkloadSpec` rejects is a :class:`ConfigError`
        naming ``workload_specs``."""
        if self.workload_specs is None:
            return None
        specs = {}
        for vm, doc in self.workload_specs:
            try:
                specs[vm] = _workload_spec_from_doc(doc)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(
                    "workload_specs", f"VM {vm}: {exc}"
                ) from None
        return specs

    def build_chip(self) -> Chip:
        """Construct the chip this spec describes."""
        cfg = self.resolve_config()
        return Chip(
            self.protocol,
            self.workload,
            config=cfg,
            seed=self.seed,
            # a fresh object per chip: a plan's events remap it in place
            placement=VMPlacement(self._tiles_by_vm),
            n_vms=self.n_vms,
            protocol_kwargs=dict(self.protocol_kwargs),
            workload_specs=self.resolve_workload_specs(),
            plan=None
            if self.plan is None
            else ConsolidationPlan.from_dict(self.plan),
        )

    def execute(self, trace: Any = None) -> RunStats:
        """Run the simulation this spec describes, audit its coherence
        and return its stats.

        Thin wrapper over :func:`repro.api.simulate` (the single
        construction path) with ``checker=True``; ``trace`` takes a
        :class:`~repro.api.TraceOptions`.  Use ``simulate`` directly
        when you need the manifest or captured events.
        """
        from ..api import simulate  # circular: api imports RunSpec

        return simulate(self, trace=trace, checker=True).stats
