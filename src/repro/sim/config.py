"""System configuration for the simulated tiled CMP.

The defaults follow Table III of the paper:

* 64 in-order cores at 3 GHz (8x8 mesh of tiles)
* per-tile split L1 (128 KB, 4-way, 64-byte blocks, 1+2 cycle access)
* per-tile L2 bank (1 MB, 8-way, 64-byte blocks, 2+3 cycle access),
  logically shared, physically distributed, non-inclusive with L1
* 4 GB DRAM behind 8 memory controllers on the chip borders,
  300 cycles latency plus on-chip delay and a small random component
* 2D mesh NoC: 16-byte links, 2 cycles/link + 2 cycles/switch +
  1 cycle/router, 1-flit control packets, 5-flit data packets

Everything is expressed in core clock cycles.  The configuration is a
plain frozen dataclass so experiment sweeps can derive variants with
:func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Mapping, Sequence

__all__ = [
    "CacheGeometry",
    "CONFIG_SECTIONS",
    "ConfigError",
    "check_document",
    "is_int",
    "NocConfig",
    "MemoryConfig",
    "ChipConfig",
    "DEFAULT_CHIP",
    "small_test_chip",
]


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


class ConfigError(ValueError):
    """Bad input, raised where it is parsed.

    The one exception of every parser of outside input: a chip config,
    a run spec with its plan and workload documents, a fault plan or
    policy, a verify bundle, a daemon setting or a CLI flag.  ``key``
    names the offending value: a config field (dotted for nested
    sections, e.g. ``"l2.block_bytes"``), a document key (``"plan"``,
    ``"rules[0]"``), a flag (``"--jobs"``), or ``""`` for a document as
    a whole.  ``str(exc)`` always starts with it: a message that
    already does (``"seed must be int, got 1.7"``) is kept as it is,
    any other gets ``"key: "`` in front.  Subclasses
    :class:`ValueError`, so existing ``except ValueError`` handling
    keeps working.
    """

    def __init__(self, key: str, message: str) -> None:
        super().__init__(
            message if message.startswith(key) else f"{key}: {message}"
        )
        self.key = key


def is_int(value: Any) -> bool:
    """An ``int`` that is not a ``bool``: what an integer field of an
    input document must hold (a JSON ``true`` is no count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_document(key: str, what: str, doc: Any, valid: Sequence[str]) -> None:
    """A :class:`ConfigError` naming ``key`` unless ``doc`` (a ``what``)
    is a mapping whose keys are all in ``valid``; an unknown key is
    listed beside the valid ones, because a misspelt key must not run
    as its default."""
    if not isinstance(doc, Mapping):
        raise ConfigError(
            key, f"{what} must be a mapping, got {type(doc).__name__}"
        )
    unknown = sorted(map(str, set(doc) - set(valid)))
    if unknown:
        raise ConfigError(
            key,
            f"unknown {what} key(s) {', '.join(unknown)}; "
            f"valid keys: {', '.join(valid)}",
        )


def _check_field_types(obj: Any) -> None:
    """Each field of a config dataclass must hold its annotated type, so
    the range checks after this never compare a ``str`` or mask a
    ``float``; a ``bool`` is no ``int`` here, nor an ``int`` a
    ``bool``."""
    for f in fields(obj):
        want = _FIELD_TYPES[f.type]
        value = getattr(obj, f.name)
        if isinstance(value, bool) != (want is bool) or not isinstance(
            value, want
        ):
            name = "an integer" if want is int else want.__name__
            raise ConfigError(f.name, f"expected {name}, got {value!r}")


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one set-associative cache structure.

    ``size_bytes`` counts only the data array; tag overhead is derived
    by the storage model (:mod:`repro.core.storage`).
    """

    size_bytes: int
    assoc: int
    block_bytes: int = 64
    tag_latency: int = 1
    data_latency: int = 2

    def __post_init__(self) -> None:
        _check_field_types(self)
        if not _is_pow2(self.block_bytes):
            raise ConfigError(
                "block_bytes", f"cache line size {self.block_bytes} must be a power of two"
            )
        if self.assoc < 1:
            raise ConfigError("assoc", f"associativity must be >= 1, got {self.assoc}")
        if self.size_bytes < self.assoc * self.block_bytes:
            raise ConfigError(
                "size_bytes",
                f"cache size {self.size_bytes} smaller than one set "
                f"({self.assoc} ways x {self.block_bytes} B lines)",
            )
        if self.size_bytes % (self.assoc * self.block_bytes):
            raise ConfigError(
                "size_bytes",
                f"cache size {self.size_bytes} not divisible by "
                f"assoc*block ({self.assoc}*{self.block_bytes})",
            )
        if not _is_pow2(self.n_sets):
            raise ConfigError(
                "size_bytes",
                f"cache size {self.size_bytes} yields {self.n_sets} sets "
                f"({self.assoc} ways x {self.block_bytes} B lines); "
                "the number of sets must be a power of two",
            )
        if self.tag_latency < 0 or self.data_latency < 0:
            raise ConfigError(
                "tag_latency" if self.tag_latency < 0 else "data_latency",
                "cache access latencies must be >= 0",
            )

    @property
    def n_blocks(self) -> int:
        """Total number of block frames in the cache."""
        return self.size_bytes // self.block_bytes

    @property
    def n_sets(self) -> int:
        return self.n_blocks // self.assoc

    @property
    def offset_bits(self) -> int:
        return (self.block_bytes - 1).bit_length()

    @property
    def index_bits(self) -> int:
        return (self.n_sets - 1).bit_length() if self.n_sets > 1 else 0

    def tag_bits(self, phys_addr_bits: int) -> int:
        """Width of the tag for a physical address of the given width."""
        return phys_addr_bits - self.index_bits - self.offset_bits

    @property
    def access_latency(self) -> int:
        """Tag + data access latency in cycles."""
        return self.tag_latency + self.data_latency


@dataclass(frozen=True)
class NocConfig:
    """2D-mesh network-on-chip parameters (Table III)."""

    link_cycles: int = 2
    switch_cycles: int = 2
    router_cycles: int = 1
    flit_bytes: int = 16
    control_flits: int = 1
    data_flits: int = 5
    #: when True, a simple per-link occupancy model adds queueing delay
    model_contention: bool = False
    #: when True, the network records per-link flit counts (hotspot
    #: analysis); off by default to keep the hot path lean
    track_link_load: bool = False
    #: snooping-bus transport (`repro.noc.bus.Bus`): FCFS arbitration
    #: latency and per-flit broadcast time.  Only the snoop-family
    #: protocols use these; the mesh transport ignores them.
    bus_arb_cycles: int = 1
    bus_flit_cycles: int = 1

    def __post_init__(self) -> None:
        _check_field_types(self)
        for key in ("link_cycles", "switch_cycles", "router_cycles"):
            if getattr(self, key) < 0:
                raise ConfigError(key, "NoC stage latencies must be >= 0")
        if self.bus_arb_cycles < 0 or self.bus_flit_cycles < 1:
            raise ConfigError(
                "bus_arb_cycles" if self.bus_arb_cycles < 0 else "bus_flit_cycles",
                "bus arbitration must be >= 0 cycles and flit time >= 1",
            )
        if self.flit_bytes < 1:
            raise ConfigError("flit_bytes", f"flit size must be >= 1 byte, got {self.flit_bytes}")
        if self.control_flits < 1 or self.data_flits < 1:
            raise ConfigError(
                "control_flits" if self.control_flits < 1 else "data_flits",
                "packets must be at least one flit long",
            )

    @property
    def hop_cycles(self) -> int:
        """Latency of advancing one hop in the absence of contention."""
        return self.link_cycles + self.switch_cycles + self.router_cycles


@dataclass(frozen=True)
class MemoryConfig:
    """Off-chip memory parameters (Table III)."""

    latency_cycles: int = 300
    #: uniform random extra delay in [0, jitter_cycles]; the paper adds a
    #: "small random delay" on top of the fixed latency
    jitter_cycles: int = 8
    n_controllers: int = 8
    page_bytes: int = 4096
    total_bytes: int = 4 << 30

    def __post_init__(self) -> None:
        _check_field_types(self)
        if self.latency_cycles < 0 or self.jitter_cycles < 0:
            raise ConfigError(
                "latency_cycles" if self.latency_cycles < 0 else "jitter_cycles",
                "memory latencies must be >= 0",
            )
        if self.n_controllers < 1:
            raise ConfigError(
                "n_controllers", f"need at least one memory controller, got {self.n_controllers}"
            )
        if not _is_pow2(self.page_bytes):
            raise ConfigError(
                "page_bytes", f"page size {self.page_bytes} must be a power of two"
            )
        if self.total_bytes < self.page_bytes:
            raise ConfigError(
                "total_bytes",
                f"memory size {self.total_bytes} smaller than one page ({self.page_bytes})",
            )


@dataclass(frozen=True)
class ChipConfig:
    """Full chip configuration.

    ``n_areas`` is the static hard-wired division used by DiCo-Providers
    and DiCo-Arin; areas are square sub-meshes whenever the geometry
    allows it (e.g. 8x8 chip with 4 areas -> four 4x4 quadrants).
    """

    mesh_width: int = 8
    mesh_height: int = 8
    n_areas: int = 4
    phys_addr_bits: int = 40
    l1: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            size_bytes=128 << 10, assoc=4, tag_latency=1, data_latency=2
        )
    )
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            size_bytes=1 << 20, assoc=8, tag_latency=2, data_latency=3
        )
    )
    #: entries in the L1 coherence (prediction) cache, dedicated array
    l1c_entries: int = 2048
    #: entries in the L2 coherence cache (exact owner pointers)
    l2c_entries: int = 2048
    #: entries in the directory cache of the flat directory protocol
    dir_cache_entries: int = 2048
    noc: NocConfig = field(default_factory=NocConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)

    def __post_init__(self) -> None:
        _check_field_types(self)
        if self.mesh_width < 1 or self.mesh_height < 1:
            raise ConfigError(
                "mesh_width" if self.mesh_width < 1 else "mesh_height",
                "mesh dimensions must be >= 1",
            )
        if self.n_areas < 1:
            raise ConfigError("n_areas", f"need at least one area, got {self.n_areas}")
        if self.n_tiles % self.n_areas:
            raise ConfigError(
                "n_areas",
                f"{self.n_areas} areas do not evenly divide {self.n_tiles} tiles",
            )
        if not _is_pow2(self.n_tiles):
            raise ConfigError(
                "mesh_width", f"number of tiles ({self.n_tiles}) must be a power of two"
            )
        if not _is_pow2(self.n_areas):
            raise ConfigError(
                "n_areas", f"number of areas ({self.n_areas}) must be a power of two"
            )
        if self.l1.block_bytes != self.l2.block_bytes:
            raise ConfigError(
                "l2.block_bytes",
                f"L1 and L2 line sizes differ ({self.l1.block_bytes} vs "
                f"{self.l2.block_bytes}); coherence tracks a single block size",
            )
        for key in ("l1c_entries", "l2c_entries", "dir_cache_entries"):
            if getattr(self, key) < 1:
                raise ConfigError(key, "coherence structures need at least one entry")
        for name, geo in (("l1", self.l1), ("l2", self.l2)):
            if geo.tag_bits(self.phys_addr_bits) <= 0:
                raise ConfigError(
                    "phys_addr_bits",
                    f"{self.phys_addr_bits} address bits leave no tag bits for the "
                    f"{name} cache ({geo.index_bits} index + {geo.offset_bits} offset)",
                )

    @property
    def n_tiles(self) -> int:
        return self.mesh_width * self.mesh_height

    @property
    def tiles_per_area(self) -> int:
        return self.n_tiles // self.n_areas

    @property
    def block_bytes(self) -> int:
        return self.l1.block_bytes

    @property
    def genpo_bits(self) -> int:
        """Size of a general pointer: log2 of the number of tiles."""
        return max(1, (self.n_tiles - 1).bit_length())

    @property
    def propo_bits(self) -> int:
        """Size of a provider pointer: log2 of the tiles per area.

        Degenerates to 0 bits for single-tile areas (the pointer target
        is implied), matching the storage model in Sec. V-B.
        """
        nta = self.tiles_per_area
        return (nta - 1).bit_length() if nta > 1 else 0

    def with_mesh(self, width: int, height: int) -> "ChipConfig":
        return replace(self, mesh_width=width, mesh_height=height)

    def with_areas(self, n_areas: int) -> "ChipConfig":
        return replace(self, n_areas=n_areas)


#: a field annotation (a string under ``from __future__ import
#: annotations``) -> the type its value must have
_FIELD_TYPES = {
    "int": int,
    "bool": bool,
    "CacheGeometry": CacheGeometry,
    "NocConfig": NocConfig,
    "MemoryConfig": MemoryConfig,
}

#: :class:`ChipConfig`'s nested sections: field name -> section type
CONFIG_SECTIONS = {
    f.name: _FIELD_TYPES[f.type]
    for f in fields(ChipConfig)
    if is_dataclass(_FIELD_TYPES[f.type])
}

#: the paper's 64-tile, 4-area evaluation platform
DEFAULT_CHIP = ChipConfig()


def small_test_chip(
    mesh_width: int = 4,
    mesh_height: int = 4,
    n_areas: int = 4,
    l1_kb: int = 1,
    l2_kb: int = 4,
) -> ChipConfig:
    """A deliberately tiny chip for unit tests.

    Small caches force frequent replacements so eviction paths
    (Table II of the paper) get exercised by short traces.
    """
    return ChipConfig(
        mesh_width=mesh_width,
        mesh_height=mesh_height,
        n_areas=n_areas,
        l1=CacheGeometry(size_bytes=l1_kb << 10, assoc=2, tag_latency=1, data_latency=2),
        l2=CacheGeometry(size_bytes=l2_kb << 10, assoc=4, tag_latency=2, data_latency=3),
        l1c_entries=64,
        l2c_entries=64,
        dir_cache_entries=64,
    )
