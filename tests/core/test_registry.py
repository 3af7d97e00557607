"""Unit tests for the pluggable protocol registry."""

import pytest

import repro.core.protocols  # noqa: F401 - populates the global registry
from repro.core.protocols.registry import (
    PROTOCOLS,
    REGISTRY,
    ProtocolInfo,
    ProtocolRegistry,
    expand_selection,
    protocol_names,
    protocol_table_markdown,
)


class _Fake:
    name = "fake"


def _info(name, family="test", **kw):
    return ProtocolInfo(name=name, cls=_Fake, family=family, **kw)


class TestRegistration:
    def test_duplicate_name_rejected(self):
        r = ProtocolRegistry()
        r.register(_info("a"))
        with pytest.raises(ValueError, match="already registered"):
            r.register(_info("a"))

    def test_alias_colliding_with_name_rejected(self):
        r = ProtocolRegistry()
        r.register(_info("a"))
        with pytest.raises(ValueError, match="already registered"):
            r.register(_info("b", aliases=("a",)))

    def test_name_colliding_with_alias_rejected(self):
        r = ProtocolRegistry()
        r.register(_info("a", aliases=("short",)))
        with pytest.raises(ValueError, match="already registered"):
            r.register(_info("short"))

    def test_all_is_reserved(self):
        r = ProtocolRegistry()
        with pytest.raises(ValueError, match="reserved"):
            r.register(_info("all"))
        with pytest.raises(ValueError, match="reserved"):
            r.register(_info("b", aliases=("all",)))


class TestQueries:
    def test_global_registration_order(self):
        # registration order is the lab's canonical presentation order:
        # the paper's four, then the comparators, then the new families
        assert protocol_names() == (
            "directory", "dico", "dico-providers", "dico-arin", "vh",
            "mesi-snoop", "moesi-snoop", "dls",
        )

    def test_alias_resolution(self):
        assert REGISTRY.resolve("providers") == "dico-providers"
        assert REGISTRY.resolve("mesi") == "mesi-snoop"
        assert REGISTRY.resolve("moesi") == "moesi-snoop"
        assert REGISTRY.resolve("directoryless") == "dls"
        assert REGISTRY.resolve("dico") == "dico"

    def test_unknown_name_lists_options(self):
        with pytest.raises(ValueError, match="unknown protocol 'mosi'"):
            REGISTRY.resolve("mosi")

    def test_family_queries(self):
        snoop = REGISTRY.by_family("snoop")
        assert [i.name for i in snoop] == ["mesi-snoop", "moesi-snoop"]
        assert all(i.transport == "bus" for i in snoop)
        assert {i.family for i in REGISTRY.infos()} == set(REGISTRY.families())

    def test_contains_covers_aliases(self):
        assert "dls" in REGISTRY
        assert "directoryless" in REGISTRY
        assert "mosi" not in REGISTRY


class TestExpandSelection:
    def test_all_keyword(self):
        assert expand_selection("all") == protocol_names()

    def test_family_glob(self):
        assert expand_selection("snoop:*") == ("mesi-snoop", "moesi-snoop")

    def test_comma_combination_dedups_in_first_mention_order(self):
        got = expand_selection("dls,snoop:*,mesi,directory")
        assert got == ("dls", "mesi-snoop", "moesi-snoop", "directory")

    def test_sequence_input(self):
        assert expand_selection(["providers", "arin"]) == (
            "dico-providers", "dico-arin",
        )

    def test_unknown_family_glob(self):
        with pytest.raises(ValueError, match="unknown protocol family"):
            expand_selection("token-ring:*")

    def test_unknown_token(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            expand_selection("directory,mosi")

    def test_empty_selection(self):
        with pytest.raises(ValueError, match="empty protocol selection"):
            expand_selection("")


class TestCompatView:
    def test_mapping_protocol(self):
        assert set(PROTOCOLS) == set(protocol_names())
        assert len(PROTOCOLS) == len(protocol_names())
        assert PROTOCOLS["dico"].name == "dico"

    def test_alias_lookup_through_view(self):
        assert PROTOCOLS["mesi"] is PROTOCOLS["mesi-snoop"]

    def test_view_is_immutable(self):
        with pytest.raises(TypeError, match="read-only"):
            PROTOCOLS["x"] = object
        with pytest.raises(TypeError, match="read-only"):
            del PROTOCOLS["dico"]


def test_markdown_table_covers_every_protocol():
    table = protocol_table_markdown()
    for name in protocol_names():
        assert f"`{name}`" in table
    assert "bus" in table and "mesh" in table


def test_readme_table_matches_registry():
    """The README's protocol table is generated from the registry —
    regenerate the block between the markers when this fails."""
    from pathlib import Path

    readme = Path(__file__).resolve().parents[2] / "README.md"
    text = readme.read_text()
    start = text.index("<!-- protocol-table:start -->")
    end = text.index("<!-- protocol-table:end -->")
    block = text[start:end].splitlines()[1:]
    assert "\n".join(line for line in block if line) == (
        protocol_table_markdown()
    )
