"""The ``repro.api`` facade: single construction path + observability."""

import json

import pytest

from repro.api import RunSpec, TraceOptions, simulate
from repro.core.checker import CoherenceViolation
from repro.stats.io import STATS_SCHEMA, stats_to_dict
from repro.sweep.spec import config_to_dict
from repro.trace import RunManifest
from tests.conftest import ALL_PROTOCOLS, tiny_chip

TINY = config_to_dict(tiny_chip())


def tiny_spec(protocol="dico-providers", **kwargs):
    defaults = dict(
        protocol=protocol, workload="mixed-sci", seed=7,
        cycles=3_000, warmup=1_000, config=TINY,
    )
    defaults.update(kwargs)
    return RunSpec(**defaults)


def test_tracing_off_is_bit_identical_to_plain_run():
    spec = tiny_spec()
    plain = simulate(spec)
    traced = simulate(spec, trace=TraceOptions(capacity=None))
    untraced_again = simulate(spec)
    assert stats_to_dict(plain.stats) == stats_to_dict(traced.stats)
    assert stats_to_dict(plain.stats) == stats_to_dict(untraced_again.stats)
    assert plain.events is None and plain.manifest is None
    assert traced.events and traced.manifest is not None


def test_execute_delegates_to_simulate():
    spec = tiny_spec()
    assert stats_to_dict(spec.execute()) == stats_to_dict(
        simulate(spec, checker=True).stats
    )


@pytest.mark.parametrize("protocol", sorted(ALL_PROTOCOLS))
def test_checker_passes_clean_runs_for_every_protocol(protocol):
    result = simulate(tiny_spec(protocol), checker=True)
    assert result.checked
    assert result.stats.operations > 0


def test_checker_surfaces_corrupted_state():
    import dataclasses

    from repro.core.protocols.base import L1State

    spec = tiny_spec("directory")
    chip = spec.build_chip()
    chip.run_cycles(2_000, warmup=500)
    # force an SWMR violation: two L1s both believe they own a block
    dirty = None
    for tile, l1 in enumerate(chip.protocol.l1s):
        for block, line in l1:
            if line.state == L1State.M:
                dirty = (tile, block, line)
                break
        if dirty:
            break
    assert dirty is not None, "expected at least one modified line"
    tile, block, line = dirty
    other = (tile + 1) % len(chip.protocol.l1s)
    chip.protocol.l1s[other].insert(block, dataclasses.replace(line))
    with pytest.raises(CoherenceViolation):
        chip.verify_coherence()


def test_trace_file_and_manifest_written(tmp_path):
    path = tmp_path / "run.jsonl"
    result = simulate(tiny_spec(), trace=TraceOptions(path=path))
    assert result.trace_path == path
    assert path.exists() and path.stat().st_size > 0
    assert result.manifest_path is not None
    manifest = RunManifest.load(result.manifest_path)
    assert manifest == result.manifest
    assert manifest.trace_path == str(path)
    assert manifest.stats_schema == STATS_SCHEMA
    assert manifest.config_fingerprint == result.spec.fingerprint()
    assert "tracer" in manifest.instruments
    # every line is valid JSON with the fixed fields
    first = json.loads(path.read_text().splitlines()[0])
    assert {"cycle", "layer", "event"} <= set(first)


def test_manifest_without_tracing(tmp_path):
    path = tmp_path / "only.manifest.json"
    result = simulate(tiny_spec(), manifest_path=path)
    assert result.events is None
    assert result.manifest is not None
    # the livelock watchdog is on by default; nothing else attached
    assert result.manifest.instruments == ["watchdog"]
    assert result.manifest.watchdog == "ok"
    assert RunManifest.load(path) == result.manifest


def test_fingerprint_tracks_content():
    a, b = tiny_spec(seed=1), tiny_spec(seed=2)
    assert a.fingerprint() == tiny_spec(seed=1).fingerprint()
    assert a.fingerprint() != b.fingerprint()


def test_run_result_reports_wall_time():
    result = simulate(tiny_spec())
    assert result.wall_time_s > 0
