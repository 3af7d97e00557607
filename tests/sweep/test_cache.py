"""Unit tests for the on-disk result cache."""

import json

from repro.stats.counters import RunStats
from repro.sweep.cache import ResultCache, code_fingerprint
from repro.sweep.spec import RunSpec


def dummy_stats(ops: int = 10) -> RunStats:
    stats = RunStats(protocol="dico", workload="radix")
    stats.operations = ops
    stats.l1_hits = 5 * ops
    stats.l1_misses = ops
    stats.miss_latency.add(17)
    stats.network.messages = 3
    return stats


SPEC = RunSpec(protocol="dico", workload="radix", seed=1)


def test_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(SPEC) is None
    cache.put(SPEC, dummy_stats(), elapsed_s=0.5)
    got = cache.get(SPEC)
    assert got is not None
    assert got.operations == 10
    assert got.miss_latency.maximum == 17
    assert cache.hits == 1 and cache.misses == 1
    assert len(cache) == 1
    # a caller that passes the spec's fingerprint reaches the same entry
    assert cache.path_for(SPEC, SPEC.fingerprint()) == cache.path_for(SPEC)
    assert cache.get(SPEC, SPEC.fingerprint()).operations == 10


def test_key_depends_on_spec_and_code_version(tmp_path):
    cache = ResultCache(tmp_path)
    other_spec = RunSpec(protocol="dico", workload="radix", seed=2)
    assert cache.key_for(SPEC) != cache.key_for(other_spec)
    older = ResultCache(tmp_path, code_version="something-older")
    assert cache.key_for(SPEC) != older.key_for(SPEC)


def test_code_version_invalidates_entries(tmp_path):
    v1 = ResultCache(tmp_path, code_version="v1")
    v1.put(SPEC, dummy_stats(), elapsed_s=0.1)
    v2 = ResultCache(tmp_path, code_version="v2")
    assert v2.get(SPEC) is None
    assert v1.get(SPEC) is not None


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, dummy_stats(), elapsed_s=0.1)
    cache.path_for(SPEC).write_text("{ not json")
    assert cache.get(SPEC) is None


def test_corrupt_entry_quarantined_not_deleted(tmp_path, caplog):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, dummy_stats(), elapsed_s=0.1)
    path = cache.path_for(SPEC)
    path.write_text("{ not json")
    with caplog.at_level("WARNING", logger="repro.sweep.cache"):
        assert cache.get(SPEC) is None
    quarantined = path.with_name(path.name + ".corrupt")
    assert quarantined.exists()  # evidence preserved, not deleted
    assert quarantined.read_text() == "{ not json"
    assert not path.exists()
    assert any("quarantin" in rec.message for rec in caplog.records)
    # the slot is reusable afterwards
    cache.put(SPEC, dummy_stats(7), elapsed_s=0.1)
    assert cache.get(SPEC).operations == 7


def test_checksum_mismatch_quarantined(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, dummy_stats(), elapsed_s=0.1)
    path = cache.path_for(SPEC)
    doc = json.loads(path.read_text())
    doc["stats"]["operations"] = 999_999  # silent bit-rot
    path.write_text(json.dumps(doc))
    assert cache.get(SPEC) is None
    assert path.with_name(path.name + ".corrupt").exists()


def test_entries_carry_a_checksum(tmp_path):
    from repro.stats.io import stats_digest

    cache = ResultCache(tmp_path)
    cache.put(SPEC, dummy_stats(), elapsed_s=0.1)
    doc = json.loads(cache.path_for(SPEC).read_text())
    # the checksum is the run's stats_sha256, whichever form is hashed
    assert doc["checksum"] == stats_digest(doc["stats"])
    assert doc["checksum"] == stats_digest(dummy_stats())


def test_missing_file_is_a_plain_miss(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(SPEC) is None
    assert list(tmp_path.glob("*.corrupt")) == []


def test_entry_document_carries_spec_and_fingerprint(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, dummy_stats(), elapsed_s=0.25)
    doc = json.loads(cache.path_for(SPEC).read_text())
    assert doc["spec"]["protocol"] == "dico"
    assert doc["code_version"] == code_fingerprint()
    assert doc["elapsed_s"] == 0.25
    assert doc["stats"]["operations"] == 10


def test_clear(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, dummy_stats(), elapsed_s=0.1)
    assert cache.clear() == 1
    assert len(cache) == 0
    assert cache.get(SPEC) is None


def test_fingerprint_is_stable_within_a_process():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


# ------------------------------------------------------ health counters


def test_counters_track_hits_misses_quarantines(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.counters() == {"hits": 0, "misses": 0, "quarantined": 0}
    cache.get(SPEC)  # miss
    cache.put(SPEC, dummy_stats(), elapsed_s=0.1)
    cache.get(SPEC)  # hit
    cache.path_for(SPEC).write_text("{ torn")
    cache.get(SPEC)  # quarantine (counts as a miss too)
    counters = cache.counters()
    assert counters["hits"] == 1
    assert counters["misses"] == 2
    assert counters["quarantined"] == 1


# ------------------------------------------------- concurrent writers


def _race_writer(cache_dir, barrier, rounds):
    """Child process: race identical put() calls against siblings."""
    cache = ResultCache(cache_dir)
    for _ in range(rounds):
        barrier.wait()
        cache.put(SPEC, dummy_stats(), elapsed_s=0.1)


def test_concurrent_writers_same_fingerprint_never_tear(tmp_path):
    """N processes put() the same fingerprint simultaneously: the entry
    must always read back valid — one winner per round, no torn JSON,
    no quarantine events (atomic temp-file + rename discipline)."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    n_procs, rounds = 4, 8
    barrier = ctx.Barrier(n_procs)
    procs = [
        ctx.Process(
            target=_race_writer, args=(str(tmp_path), barrier, rounds)
        )
        for _ in range(n_procs)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    reader = ResultCache(tmp_path)
    got = reader.get(SPEC)
    assert got is not None and got.operations == 10
    assert reader.counters()["quarantined"] == 0
    assert list(tmp_path.glob("**/*.corrupt")) == []
    # exactly one entry file: concurrent writers converged on one key
    assert len(list(tmp_path.glob("**/*.json"))) == 1
