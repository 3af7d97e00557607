"""Livelock watchdog tests: engine trip wire, chip diagnostics,
manifest verdict, and the bit-identity guarantee."""

import json

import pytest

from repro.api import RunSpec, TraceOptions, simulate
from repro.sim.chip import Chip
from repro.sim.config import small_test_chip
from repro.sim import engine
from repro.sim.engine import LivelockError, ProgressWatchdog, Simulator
from repro.stats.io import stats_to_dict
from repro.sweep.spec import config_to_dict

TINY = config_to_dict(small_test_chip())


def tiny_spec(**kwargs):
    fields = dict(
        protocol="dico",
        workload="radix",
        seed=1,
        cycles=1_500,
        warmup=500,
        config=TINY,
    )
    fields.update(kwargs)
    return RunSpec(**fields)


# -------------------------------------------------------------- engine


def progress_holder(values):
    it = iter(values)
    return lambda: next(it)


def test_watchdog_trips_on_flat_progress():
    sim = Simulator(
        watchdog=ProgressWatchdog(
            window_events=10, progress_fn=progress_holder([5, 5, 5])
        )
    )

    def spin():
        sim.schedule(1, spin)

    sim.schedule(0, spin)
    with pytest.raises(LivelockError, match="no operation retired"):
        sim.run(until=10_000)


def test_watchdog_quiet_while_progress_continues():
    counter = {"ops": 0}

    sim = Simulator(
        watchdog=ProgressWatchdog(
            window_events=5, progress_fn=lambda: counter["ops"]
        )
    )

    def work():
        counter["ops"] += 1
        sim.schedule(1, work)

    sim.schedule(0, work)
    assert sim.run(until=200) == 200


def test_watchdog_diagnostic_embedded():
    wd = ProgressWatchdog(
        window_events=2,
        progress_fn=progress_holder([1, 1]),
        diagnose_fn=lambda: {"tiles": [3, 7], "blocks": [42]},
    )
    sim = Simulator(watchdog=wd)

    def spin():
        sim.schedule(1, spin)

    sim.schedule(0, spin)
    with pytest.raises(LivelockError) as exc_info:
        sim.run(until=100)
    assert exc_info.value.stalled == {"tiles": [3, 7], "blocks": [42]}
    assert "tiles=[3, 7]" in str(exc_info.value)


def test_watchdog_resets_between_runs():
    wd = ProgressWatchdog(window_events=3, progress_fn=lambda: 1)
    sim = Simulator(watchdog=wd)
    wd._last = 1  # stale sample from a previous run
    counter = {"n": 0}

    def brief():
        if counter["n"] < 2:
            counter["n"] += 1
            sim.schedule(1, brief)

    sim.schedule(0, brief)
    # only 3 events total => one check at most, and reset() forgot the
    # stale sample, so no trip
    assert sim.run(until=10) == 10


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        ProgressWatchdog(window_events=0)


def test_default_watchdog_never_trips(monkeypatch):
    # a bare Simulator's watchdog has no progress source: an event
    # storm that retires nothing runs to its bound
    monkeypatch.setattr(engine, "WATCHDOG_WINDOW", 5)
    sim = Simulator()
    assert sim.watchdog.window_events == 5

    def spin():
        sim.schedule(1, spin)

    sim.schedule(0, spin)
    assert sim.run(until=1_000) == 1_000


# ---------------------------------------------------------------- chip


def wedge(chip):
    """Force a livelock: every access retries forever, block 42 busy."""
    from repro.core.protocols.base import AccessResult

    def never_succeeds(tile, kind, addr, now):
        return AccessResult(latency=1, retry_at=now + 1)

    for core in chip.cores:
        core._access = never_succeeds
    chip.protocol.access = never_succeeds  # reference path binding
    chip.protocol._busy[42] = 10**9


def test_chip_watchdog_names_stalled_tiles_and_blocks(monkeypatch):
    monkeypatch.setattr(engine, "WATCHDOG_WINDOW", 500)
    chip = Chip("dico", "radix", config=small_test_chip(), seed=1)
    wedge(chip)
    with pytest.raises(LivelockError) as exc_info:
        chip.run_cycles(5_000, warmup=0)
    stalled = exc_info.value.stalled
    assert stalled["blocks"] == [42]
    assert stalled["tiles"], "expected at least one stalled tile"


def test_stats_bit_identical_watchdog_on_off(monkeypatch):
    spec = tiny_spec()
    default = stats_to_dict(spec.execute())
    # a tight window samples progress often and changes nothing
    monkeypatch.setattr(engine, "WATCHDOG_WINDOW", 50)
    tight = stats_to_dict(spec.execute())
    assert default == tight


# ------------------------------------------------------------ manifest


def test_manifest_records_ok_verdict(tmp_path):
    result = simulate(
        tiny_spec(), manifest_path=tmp_path / "run.manifest.json"
    )
    assert result.manifest.watchdog == "ok"
    assert "watchdog" in result.manifest.instruments
    doc = json.loads((tmp_path / "run.manifest.json").read_text())
    assert doc["watchdog"] == "ok"


def test_manifest_survives_livelock(tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "WATCHDOG_WINDOW", 500)
    spec = tiny_spec()
    real_build = RunSpec.build_chip

    def wedged_build(self):
        chip = real_build(self)
        wedge(chip)
        return chip

    monkeypatch.setattr(RunSpec, "build_chip", wedged_build)
    manifest_path = tmp_path / "run.manifest.json"
    with pytest.raises(LivelockError):
        simulate(spec, manifest_path=manifest_path)
    doc = json.loads(manifest_path.read_text())
    assert doc["watchdog"].startswith("livelock: no operation retired")
    assert "blocks=[42]" in doc["watchdog"]


def test_traced_livelock_closes_trace(tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "WATCHDOG_WINDOW", 500)
    real_build = RunSpec.build_chip

    def wedged_build(self):
        chip = real_build(self)
        wedge(chip)
        return chip

    monkeypatch.setattr(RunSpec, "build_chip", wedged_build)
    trace_path = tmp_path / "run.jsonl"
    with pytest.raises(LivelockError):
        simulate(tiny_spec(), trace=TraceOptions(path=trace_path))
    # the sink was closed and the manifest written despite the abort
    assert trace_path.exists()
    doc = json.loads(
        (tmp_path / "run.jsonl.manifest.json").read_text()
    )
    assert doc["watchdog"].startswith("livelock")
