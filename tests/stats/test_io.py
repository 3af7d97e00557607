"""Unit tests for the statistics JSON codec."""

import json

import pytest

from repro.sim.chip import Chip
from repro.sim.config import small_test_chip
from repro.stats.io import stats_from_dict, stats_to_dict


@pytest.fixture
def real_stats():
    chip = Chip("dico-providers", "radix", config=small_test_chip(), seed=4)
    return chip.run_cycles(5_000)


def _round_trip(stats):
    """Through the codec and JSON text, as the result cache stores it."""
    return stats_from_dict(json.loads(json.dumps(stats_to_dict(stats))))


def test_round_trip_preserves_everything(real_stats):
    loaded = _round_trip(real_stats)
    assert stats_to_dict(loaded) == stats_to_dict(real_stats)
    assert loaded.operations == real_stats.operations
    assert loaded.miss_categories == real_stats.miss_categories
    assert loaded.miss_latency.mean == real_stats.miss_latency.mean
    assert (
        loaded.network.flit_link_traversals
        == real_stats.network.flit_link_traversals
    )
    assert loaded.structure("l1").tag_reads == real_stats.structure("l1").tag_reads


def test_rates_survive_round_trip(real_stats):
    loaded = _round_trip(real_stats)
    assert loaded.l1_miss_rate == real_stats.l1_miss_rate
    assert loaded.summary() == real_stats.summary()


def test_schema_version_checked():
    with pytest.raises(ValueError, match="schema"):
        stats_from_dict({"schema": 999})


def test_unknown_category_rejected(real_stats):
    data = stats_to_dict(real_stats)
    data["miss_categories"]["bogus"] = 1
    with pytest.raises(ValueError, match="unknown miss category"):
        stats_from_dict(data)


def test_schema2_network_detail_survives_round_trip(real_stats):
    """flits_by_type and link_load (added in schema 2) are part of the
    power model's inputs — the codec must carry them losslessly."""
    assert real_stats.network.flits_by_type
    # link tracking is opt-in; seed some load so the codec is exercised
    real_stats.network.link_load[(0, 1)] += 12
    real_stats.network.link_load[(5, 4)] += 3
    loaded = stats_from_dict(stats_to_dict(real_stats))
    assert dict(loaded.network.flits_by_type) == dict(
        real_stats.network.flits_by_type
    )
    assert dict(loaded.network.link_load) == dict(real_stats.network.link_load)


def test_schema1_documents_still_load(real_stats):
    data = stats_to_dict(real_stats)
    assert data["schema"] == 6
    data["schema"] = 1
    del data["prediction"]
    del data["consolidation"]
    del data["network"]["flits_by_type"]
    del data["network"]["link_load"]
    del data["network"]["local_messages"]
    loaded = stats_from_dict(data)
    assert loaded.operations == real_stats.operations
    assert not loaded.network.flits_by_type
    assert loaded.network.local_messages == 0


def test_schema2_documents_still_load(real_stats):
    """Pre-local_messages documents load with the counter defaulting
    to zero (schema 3 split intra-tile deliveries out of messages)."""
    data = stats_to_dict(real_stats)
    data["schema"] = 2
    del data["network"]["local_messages"]
    loaded = stats_from_dict(data)
    assert loaded.operations == real_stats.operations
    assert loaded.network.messages == real_stats.network.messages
    assert loaded.network.local_messages == 0


def test_schema3_documents_still_load(real_stats):
    """Pre-prediction documents (schema 3) load with an empty
    ``prediction`` dict — the section schema 4 added."""
    data = stats_to_dict(real_stats)
    data["schema"] = 3
    del data["prediction"]
    loaded = stats_from_dict(data)
    assert loaded.operations == real_stats.operations
    assert loaded.prediction == {}


def test_schema4_prediction_round_trip(real_stats):
    assert real_stats.prediction["l1c_lookups"] >= 0
    loaded = stats_from_dict(stats_to_dict(real_stats))
    assert loaded.prediction == real_stats.prediction
    assert "l2c_forced_relinquishes" in loaded.prediction


def test_schema4_documents_still_load(real_stats):
    """Pre-bus documents (schema 4) load with the four ``bus_*``
    counters defaulting to zero (the section schema 5 added)."""
    data = stats_to_dict(real_stats)
    data["schema"] = 4
    for key in ("bus_transactions", "bus_flit_traversals",
                "bus_busy_cycles", "bus_wait_cycles"):
        del data["network"][key]
    loaded = stats_from_dict(data)
    assert loaded.operations == real_stats.operations
    assert loaded.network.bus_transactions == 0
    assert loaded.network.bus_busy_cycles == 0


def test_schema5_documents_still_load(real_stats):
    """Pre-consolidation documents (schema 5) load with an empty
    ``consolidation`` dict — static runs by definition."""
    data = stats_to_dict(real_stats)
    data["schema"] = 5
    del data["consolidation"]
    loaded = stats_from_dict(data)
    assert loaded.operations == real_stats.operations
    assert loaded.consolidation == {}


def test_schema6_consolidation_round_trip(real_stats):
    real_stats.consolidation["vm_migrate"] = 2
    real_stats.consolidation["blocks_migrated"] = 137
    real_stats.consolidation["blocks_flushed"] = 41
    loaded = stats_from_dict(stats_to_dict(real_stats))
    assert loaded.consolidation == {
        "vm_migrate": 2,
        "blocks_migrated": 137,
        "blocks_flushed": 41,
    }


def test_schema6_consolidation_merges():
    from repro.stats.counters import RunStats as RS

    a, b = RS(), RS()
    a.consolidation = {"vm_migrate": 1, "blocks_flushed": 10}
    b.consolidation = {"vm_migrate": 2, "pages_broken": 6}
    a.merge(b)
    assert a.consolidation == {
        "vm_migrate": 3,
        "blocks_flushed": 10,
        "pages_broken": 6,
    }


def test_schema5_bus_counters_round_trip(real_stats):
    real_stats.network.bus_transactions = 11
    real_stats.network.bus_flit_traversals = 176
    real_stats.network.bus_busy_cycles = 44
    real_stats.network.bus_wait_cycles = 9
    loaded = stats_from_dict(stats_to_dict(real_stats))
    assert loaded.network.bus_transactions == 11
    assert loaded.network.bus_flit_traversals == 176
    assert loaded.network.bus_busy_cycles == 44
    assert loaded.network.bus_wait_cycles == 9
