"""The JSON codec of run statistics.

Each :class:`RunStats` serializes to one schema-versioned JSON
document and loads back from it; the result cache, sweep workers and
served points all carry a run's statistics in this form, and
:func:`stats_digest` hashes it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Mapping, Union

from .counters import MISS_CATEGORIES, LatencyAccumulator, RunStats

__all__ = ["STATS_SCHEMA", "stats_to_dict", "stats_from_dict", "stats_digest"]

#: schema 2 adds ``network.flits_by_type`` and ``network.link_load``
#: (schema-1 documents still load; the extra maps default to empty);
#: schema 3 adds ``network.local_messages`` — intra-tile deliveries,
#: which no longer count in ``messages`` (older documents load with 0).
#: schema 4 (the observability release) adds the ``prediction`` section
#: — L1C$ lookup/hit/update totals and L2C$ forced relinquishes,
#: aggregated by ``finalize_stats``.  Migration: schema 1-3 documents
#: still load, with an empty ``prediction`` dict; writers always emit
#: the current schema, so round-tripping an old document upgrades it in
#: place.
#: schema 5 (the snoop-transport release) adds the four
#: ``network.bus_*`` counters — transactions, flit traversals, busy and
#: wait cycles on the arbitrated broadcast bus.  Older documents load
#: with all four at 0.
#: schema 6 (the dynamic-consolidation release) adds the
#: ``consolidation`` section — per-event-kind counts plus the
#: ``blocks_migrated`` / ``blocks_flushed`` / ``pages_broken`` /
#: ``pages_merged`` effect counters.  Older documents load with an
#: empty dict (static runs by definition).
STATS_SCHEMA = 6
_SCHEMA = STATS_SCHEMA

_SCALARS = (
    "protocol",
    "workload",
    "cycles",
    "operations",
    "reads",
    "writes",
    "l1_hits",
    "l1_misses",
    "l2_data_hits",
    "l2_misses",
    "memory_fetches",
    "writebacks",
    "upgrades",
    "cow_breaks",
    "broadcast_invalidations",
    "unicast_invalidations",
    "retries",
)

_ACCUMULATORS = ("miss_latency", "miss_links")

_CACHE_FIELDS = (
    "tag_reads",
    "tag_writes",
    "data_reads",
    "data_writes",
    "hits",
    "misses",
    "evictions",
)


def stats_to_dict(stats: RunStats) -> Dict:
    """JSON-serializable view of a run's statistics."""
    out: Dict = {"schema": _SCHEMA}
    for name in _SCALARS:
        out[name] = getattr(stats, name)
    out["miss_categories"] = dict(stats.miss_categories)
    for name in _ACCUMULATORS:
        acc: LatencyAccumulator = getattr(stats, name)
        out[name] = {
            "count": acc.count,
            "total": acc.total,
            "minimum": acc.minimum,
            "maximum": acc.maximum,
        }
    out["cache_access"] = {
        group: {f: getattr(access, f) for f in _CACHE_FIELDS}
        for group, access in stats.cache_access.items()
    }
    out["prediction"] = dict(stats.prediction)
    out["consolidation"] = dict(stats.consolidation)
    net = stats.network
    out["network"] = {
        "messages": net.messages,
        "local_messages": net.local_messages,
        "flit_link_traversals": net.flit_link_traversals,
        "router_traversals": net.router_traversals,
        "routing_events": net.routing_events,
        "broadcasts": net.broadcasts,
        "bus_transactions": net.bus_transactions,
        "bus_flit_traversals": net.bus_flit_traversals,
        "bus_busy_cycles": net.bus_busy_cycles,
        "bus_wait_cycles": net.bus_wait_cycles,
        "by_type": dict(net.by_type),
        "flits_by_type": dict(net.flits_by_type),
        # JSON keys must be strings; links are (src, dst) tile pairs
        "link_load": {f"{s}>{d}": v for (s, d), v in net.link_load.items()},
    }
    return out


def stats_from_dict(data: Mapping) -> RunStats:
    """Inverse of :func:`stats_to_dict`."""
    if data.get("schema") not in (1, 2, 3, 4, 5, _SCHEMA):
        raise ValueError(f"unsupported stats schema {data.get('schema')!r}")
    stats = RunStats()
    for name in _SCALARS:
        setattr(stats, name, data[name])
    for cat, count in data["miss_categories"].items():
        if cat not in MISS_CATEGORIES:
            raise ValueError(f"unknown miss category {cat!r} in stats file")
        stats.miss_categories[cat] = count
    for name in _ACCUMULATORS:
        acc = getattr(stats, name)
        saved = data[name]
        acc.count = saved["count"]
        acc.total = saved["total"]
        acc.minimum = saved["minimum"]
        acc.maximum = saved["maximum"]
    for group, fields in data["cache_access"].items():
        access = stats.structure(group)
        for f, v in fields.items():
            setattr(access, f, v)
    stats.prediction = dict(data.get("prediction", {}))
    stats.consolidation = dict(data.get("consolidation", {}))
    net = data["network"]
    stats.network.messages = net["messages"]
    stats.network.local_messages = net.get("local_messages", 0)
    stats.network.flit_link_traversals = net["flit_link_traversals"]
    stats.network.router_traversals = net["router_traversals"]
    stats.network.routing_events = net["routing_events"]
    stats.network.broadcasts = net["broadcasts"]
    stats.network.bus_transactions = net.get("bus_transactions", 0)
    stats.network.bus_flit_traversals = net.get("bus_flit_traversals", 0)
    stats.network.bus_busy_cycles = net.get("bus_busy_cycles", 0)
    stats.network.bus_wait_cycles = net.get("bus_wait_cycles", 0)
    for k, v in net["by_type"].items():
        stats.network.by_type[k] = v
    for k, v in net.get("flits_by_type", {}).items():
        stats.network.flits_by_type[k] = v
    for k, v in net.get("link_load", {}).items():
        src, _, dst = k.partition(">")
        stats.network.link_load[(int(src), int(dst))] = v
    return stats


def stats_digest(stats: Union[RunStats, Mapping]) -> str:
    """A run's ``stats_sha256``: sha256 over its canonical stats JSON.

    Takes the :func:`stats_to_dict` document, or the :class:`RunStats`
    to build it from.  Golden digests, result-cache entry checksums and
    served points all use this one formula, so equal digests anywhere
    mean bit-identical results.
    """
    doc = stats_to_dict(stats) if isinstance(stats, RunStats) else stats
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
