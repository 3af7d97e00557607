"""The coherence protocols: the paper's four, the VH comparator, and
the protocol-lab families (snooping bus, directoryless LLC).

Importing this package populates the :mod:`.registry` — the paper-era
protocols are registered here (their modules predate the registry),
while the newer families self-register via the ``@register_protocol``
decorator in their own modules.
"""
from .arin import DiCoArinProtocol
from .base import AccessResult, CoherenceProtocol, L1Line, L2Line
from .dico import DiCoProtocol
from .directory import DirectoryProtocol
from .providers import DiCoProvidersProtocol
from .registry import (
    PROTOCOLS,
    REGISTRY,
    ProtocolInfo,
    ProtocolRegistry,
    expand_selection,
    protocol_names,
    protocol_table_markdown,
    register_protocol,
)
from .vh import VirtualHierarchyProtocol, vh_storage_breakdown

register_protocol(
    "directory",
    family="directory",
    transport="mesh",
    aliases=("dir",),
    description="flat full-map directory with an NCID-style directory cache",
)(DirectoryProtocol)
register_protocol(
    "dico",
    family="dico",
    transport="mesh",
    description="original direct coherence: owner-resident directory info",
)(DiCoProtocol)
register_protocol(
    "dico-providers",
    family="dico",
    transport="mesh",
    aliases=("providers",),
    description="DiCo with per-area providers (Table I/II semantics)",
)(DiCoProvidersProtocol)
register_protocol(
    "dico-arin",
    family="dico",
    transport="mesh",
    aliases=("arin",),
    description="DiCo with home-resident inter-area blocks + safe broadcast",
)(DiCoArinProtocol)
register_protocol(
    "vh",
    family="hierarchical",
    transport="mesh",
    aliases=("virtual-hierarchy",),
    description="two-level Virtual Hierarchies comparator (Sec. II)",
)(VirtualHierarchyProtocol)

# the protocol-lab families register themselves on import
from .snoop import MesiSnoopProtocol, MoesiSnoopProtocol  # noqa: E402
from .dls import DLSProtocol  # noqa: E402
