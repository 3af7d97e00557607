"""Run-manifest round trips and schema validation."""

import json

import pytest

from repro.trace import MANIFEST_SCHEMA_VERSION, RunManifest


def sample_manifest(**kwargs):
    fields = dict(
        protocol="dico-arin",
        workload="apache",
        seed=1,
        cycles=20_000,
        warmup=5_000,
        config_fingerprint="ab" * 32,
        git_rev="deadbee",
        stats_schema=4,
        wall_time_s=1.25,
        created_unix=1_700_000_000.0,
        instruments=["tracer", "checker"],
        trace_path="trace.jsonl",
        spec={"protocol": "dico-arin", "workload": "apache"},
    )
    fields.update(kwargs)
    return RunManifest(**fields)


def test_dict_round_trip():
    m = sample_manifest()
    doc = m.to_dict()
    assert doc["schema"] == MANIFEST_SCHEMA_VERSION
    assert RunManifest.from_dict(doc) == m
    # survives JSON text too
    assert RunManifest.from_dict(json.loads(json.dumps(doc))) == m


def test_file_round_trip(tmp_path):
    m = sample_manifest(trace_path=None)
    path = m.write(tmp_path / "run.manifest.json")
    assert path.exists()
    assert RunManifest.load(path) == m


def test_unknown_schema_rejected():
    doc = sample_manifest().to_dict()
    doc["schema"] = MANIFEST_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema"):
        RunManifest.from_dict(doc)


def test_watchdog_verdict_round_trips():
    m = sample_manifest(watchdog="ok", instruments=["watchdog"])
    doc = m.to_dict()
    assert doc["watchdog"] == "ok"
    assert RunManifest.from_dict(doc).watchdog == "ok"


def test_schema_1_documents_still_load():
    # pre-watchdog manifests have schema=1, no watchdog key and the
    # retired fast_path field
    doc = sample_manifest().to_dict()
    doc.update(schema=1, fast_path=True)
    del doc["watchdog"]
    m = RunManifest.from_dict(doc)
    assert m.schema == 1
    assert m.watchdog is None


def test_schema_2_documents_still_load():
    # schema-2 manifests carry the retired fast_path and engine fields
    doc = sample_manifest(watchdog="ok").to_dict()
    doc.update(schema=2, fast_path=True, engine="object")
    m = RunManifest.from_dict(doc)
    assert m.schema == 2
    assert m.watchdog == "ok"
    assert "fast_path" not in m.to_dict() and "engine" not in m.to_dict()


def test_git_rev_runs_git_once_per_process(tmp_path, monkeypatch):
    import subprocess

    from repro.trace import manifest

    calls = []
    real_run = subprocess.run

    def run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", run)
    first = manifest.git_rev(tmp_path)
    assert manifest.git_rev(tmp_path) == first
    assert len(calls) == 1
