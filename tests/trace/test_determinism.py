"""Trace determinism: identical event streams across process
boundaries, and unchanged statistics when tracing is on."""

import json

from repro.api import RunSpec, spec_fingerprint
from repro.stats.io import stats_to_dict
from repro.sweep import SweepRunner
from repro.sweep.spec import config_to_dict
from tests.conftest import tiny_chip

TINY = config_to_dict(tiny_chip())


def tiny_spec(protocol="dico-providers", **kwargs):
    defaults = dict(
        protocol=protocol, workload="mixed-sci", seed=7,
        cycles=3_000, warmup=1_000, config=TINY,
    )
    defaults.update(kwargs)
    return RunSpec(**defaults)


def test_trace_files_identical_serial_vs_pooled(tmp_path, monkeypatch):
    # same specs, one traced serially and one through worker processes —
    # the JSONL payloads must agree byte for byte
    specs = [tiny_spec(p) for p in ("dico", "dico-providers")]
    serial_dir, pooled_dir = tmp_path / "serial", tmp_path / "pooled"
    SweepRunner(jobs=1, trace_dir=str(serial_dir)).run(specs)
    SweepRunner(jobs=2, trace_dir=str(pooled_dir)).run(specs)
    for spec in specs:
        name = f"{spec_fingerprint(spec)[:16]}.jsonl"
        serial_trace = (serial_dir / name).read_bytes()
        pooled_trace = (pooled_dir / name).read_bytes()
        assert serial_trace == pooled_trace
        assert serial_trace  # non-empty
        # manifests agree on everything deterministic
        a = json.loads((serial_dir / f"{name}.manifest.json").read_text())
        b = json.loads((pooled_dir / f"{name}.manifest.json").read_text())
        for volatile in ("wall_time_s", "created_unix", "trace_path"):
            a.pop(volatile), b.pop(volatile)
        assert a == b


def test_sweep_tracing_does_not_change_stats(tmp_path):
    spec = tiny_spec("directory")
    plain = SweepRunner(jobs=1).run([spec])[0]
    traced = SweepRunner(jobs=1, trace_dir=str(tmp_path)).run([spec])[0]
    assert stats_to_dict(plain.stats) == stats_to_dict(traced.stats)


def test_cache_hits_skip_tracing(tmp_path):
    spec = tiny_spec("dico")
    cache_dir, trace_dir = tmp_path / "cache", tmp_path / "traces"
    SweepRunner(jobs=1, cache_dir=str(cache_dir)).run([spec])
    warm = SweepRunner(
        jobs=1, cache_dir=str(cache_dir), trace_dir=str(trace_dir)
    )
    result = warm.run([spec])[0]
    assert result.cached and warm.executed == 0
    # documented behavior: a cache hit never simulates, so no trace file
    assert not trace_dir.exists() or not list(trace_dir.iterdir())
