"""Pluggable coherence-protocol registry.

The paper's evaluation hard-wired four protocols; the protocol lab
needs an extension seam.  Every protocol class registers itself here
with capability metadata — its *family* (directory, dico, snoop, …),
the *transport* it runs on (mesh or bus), and any aliases — and every
consumer (CLI, sweeps, the repo benchmark, verifier,
``make_protocol``) resolves names through the registry instead of a
hard-coded dict.

Registration::

    @register_protocol(
        "mesi-snoop", family="snoop", transport="bus", aliases=("mesi",)
    )
    class MesiSnoopProtocol(CoherenceProtocol):
        ...

Selection strings accepted by :func:`expand_selection`:

* a canonical name or alias (``dico-providers``, ``providers``);
* ``all`` — every registered protocol, in registration order;
* a family glob ``<family>:*`` (``snoop:*``, ``directory:*``);
* comma-separated combinations of the above (duplicates dropped,
  first-mention order kept).

``PROTOCOLS`` remains importable as a read-only mapping from canonical
name to protocol class, so callers written against the old dict keep
working; mutation raises ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Mapping, Sequence, Tuple, Type

from ...sim.config import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle with .base
    from .base import CoherenceProtocol

__all__ = [
    "ProtocolInfo",
    "ProtocolRegistry",
    "REGISTRY",
    "register_protocol",
    "PROTOCOLS",
    "expand_selection",
    "protocol_names",
    "protocol_table_markdown",
]


@dataclass(frozen=True)
class ProtocolInfo:
    """Capability metadata of one registered protocol."""

    name: str
    cls: "Type[CoherenceProtocol]"
    family: str
    transport: str = "mesh"
    aliases: Tuple[str, ...] = ()
    description: str = ""


class ProtocolRegistry:
    """Name -> :class:`ProtocolInfo`, with alias and family queries."""

    def __init__(self) -> None:
        self._infos: Dict[str, ProtocolInfo] = {}
        self._aliases: Dict[str, str] = {}

    # -- registration --------------------------------------------------

    def register(self, info: ProtocolInfo) -> None:
        taken = set(self._infos) | set(self._aliases)
        if info.name in taken:
            raise ValueError(f"protocol name {info.name!r} already registered")
        for alias in info.aliases:
            if alias in taken or alias == info.name:
                raise ValueError(
                    f"alias {alias!r} of protocol {info.name!r} already registered"
                )
            taken.add(alias)
        if info.name in ("all",) or any(a == "all" for a in info.aliases):
            raise ValueError("'all' is a reserved selection keyword")
        self._infos[info.name] = info
        for alias in info.aliases:
            self._aliases[alias] = info.name

    # -- queries -------------------------------------------------------

    def resolve(self, name: str) -> str:
        """Canonical name for ``name`` (which may be an alias); an
        unknown one is a :class:`~repro.sim.config.ConfigError` naming
        ``protocol``."""
        if name in self._infos:
            return name
        if name in self._aliases:
            return self._aliases[name]
        raise ConfigError(
            "protocol",
            f"unknown protocol {name!r}; "
            f"choose from {', '.join(sorted(self._infos))}",
        )

    def get(self, name: str) -> ProtocolInfo:
        return self._infos[self.resolve(name)]

    def __contains__(self, name: str) -> bool:
        return name in self._infos or name in self._aliases

    def names(self) -> Tuple[str, ...]:
        """Canonical names, in registration order."""
        return tuple(self._infos)

    def families(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for info in self._infos.values():
            seen.setdefault(info.family, None)
        return tuple(seen)

    def by_family(self, family: str) -> Tuple[ProtocolInfo, ...]:
        return tuple(i for i in self._infos.values() if i.family == family)

    def infos(self) -> Tuple[ProtocolInfo, ...]:
        return tuple(self._infos.values())

    # -- selection expansion -------------------------------------------

    def expand_selection(self, selection) -> Tuple[str, ...]:
        """Expand a CLI protocol selection into canonical names.

        ``selection`` is a comma-separated string or a sequence of
        tokens; each token is ``all``, a ``family:*`` glob, a canonical
        name or an alias.  An empty selection or an unknown token is a
        :class:`~repro.sim.config.ConfigError` listing the registry's
        sorted options.
        """
        if isinstance(selection, str):
            tokens = [t.strip() for t in selection.split(",") if t.strip()]
        else:
            tokens = [str(t) for t in selection]
        if not tokens:
            raise ConfigError(
                "protocols",
                "empty protocol selection; choose from "
                + ", ".join(sorted(self._infos)),
            )
        out: Dict[str, None] = {}
        for token in tokens:
            if token == "all":
                for name in self._infos:
                    out.setdefault(name, None)
            elif token.endswith(":*"):
                family = token[:-2]
                matches = self.by_family(family)
                if not matches:
                    raise ConfigError(
                        "protocols",
                        f"unknown protocol family {family!r}; "
                        f"families: {', '.join(sorted(self.families()))}",
                    )
                for info in matches:
                    out.setdefault(info.name, None)
            else:
                out.setdefault(self.resolve(token), None)
        return tuple(out)


class _ProtocolsView(Mapping):
    """Read-only name -> class mapping over the registry (compat view)."""

    def __init__(self, registry: ProtocolRegistry) -> None:
        self._registry = registry

    def __getitem__(self, name: str) -> "Type[CoherenceProtocol]":
        return self._registry.get(name).cls

    def __iter__(self) -> Iterator[str]:
        return iter(self._registry.names())

    def __len__(self) -> int:
        return len(self._registry.names())

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._registry

    def __setitem__(self, name, value) -> None:
        raise TypeError(
            "PROTOCOLS is a read-only view; use "
            "repro.core.protocols.registry.register_protocol"
        )

    def __delitem__(self, name) -> None:
        raise TypeError("PROTOCOLS is a read-only view")

    def __repr__(self) -> str:
        return f"ProtocolsView({dict(self)!r})"


#: the process-wide registry; populated by ``repro.core.protocols``
REGISTRY = ProtocolRegistry()

#: read-only compat view replacing the old hard-coded dict
PROTOCOLS = _ProtocolsView(REGISTRY)


def register_protocol(
    name: str,
    *,
    family: str,
    transport: str = "mesh",
    aliases: Sequence[str] = (),
    description: str = "",
) -> "Callable[[Type[CoherenceProtocol]], Type[CoherenceProtocol]]":
    """Class decorator registering a protocol under ``name``."""

    def decorate(cls: "Type[CoherenceProtocol]") -> "Type[CoherenceProtocol]":
        REGISTRY.register(
            ProtocolInfo(
                name=name,
                cls=cls,
                family=family,
                transport=transport,
                aliases=tuple(aliases),
                description=description,
            )
        )
        return cls

    return decorate


def expand_selection(selection) -> Tuple[str, ...]:
    """Module-level convenience over ``REGISTRY.expand_selection``."""
    return REGISTRY.expand_selection(selection)


def protocol_names() -> Tuple[str, ...]:
    return REGISTRY.names()


def protocol_table_markdown() -> str:
    """The README protocol table, generated from the registry."""
    rows = [
        "| protocol | family | transport | aliases | description |",
        "|---|---|---|---|---|",
    ]
    for info in REGISTRY.infos():
        rows.append(
            "| `{name}` | {family} | {transport} | {aliases} | {desc} |".format(
                name=info.name,
                family=info.family,
                transport=info.transport,
                aliases=", ".join(f"`{a}`" for a in info.aliases) or "—",
                desc=info.description,
            )
        )
    return "\n".join(rows)
