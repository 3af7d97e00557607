"""Consolidation-event fuzzing: the migration-race scenarios, their
seeded mutations, and the event-op plumbing through bundles and CLI."""

import json

import pytest

from repro.cli import main
from repro.verify.bundle import replay_bundle
from repro.verify.fuzzer import (
    DEFAULT_POOL,
    EVENT_SCENARIOS,
    SCENARIOS,
    Op,
    generate_ops,
)
from repro.verify.runner import run_verification

N_TILES = 16

#: each consolidation mutation with the scenario that flushes it out
CAUGHT_BY = {
    "dico-migrate-stale-owner": ("dico", "migrate-race"),
    "directory-flush-lost-dirty": ("directory", "depart-dirty-owner"),
    "mesi-snoop-drain-ghost-owner": ("mesi-snoop", "depart-dirty-owner"),
}


# ---------------------------------------------------------------------------
# generators


def test_event_scenarios_are_not_in_the_default_rotation():
    # the long-standing seed->scenario mapping must not shift: event
    # scenarios are reachable only by explicit name
    assert not set(EVENT_SCENARIOS) & set(SCENARIOS)
    names = {generate_ops(s, 10, N_TILES)[0] for s in range(60)}
    assert names <= set(SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(EVENT_SCENARIOS))
def test_event_scenarios_are_deterministic_and_bounded(scenario):
    _, a = generate_ops(42, 200, N_TILES, scenario)
    _, b = generate_ops(42, 200, N_TILES, scenario)
    assert a == b
    _, c = generate_ops(43, 200, N_TILES, scenario)
    assert a != c
    assert any(op.event is not None for op in a)
    for op in a:
        assert 0 <= op.tile < N_TILES
        assert 0 <= op.block < DEFAULT_POOL
        if op.event == "migrate":
            assert 0 <= op.arg < N_TILES


def test_event_op_round_trips_through_lists():
    plain = Op(tile=3, block=0x2A, is_write=True)
    assert len(plain.to_list()) == 3
    assert Op.from_list(plain.to_list()) == plain
    ev = Op(tile=5, block=0, is_write=False, event="migrate", arg=11)
    assert len(ev.to_list()) == 5
    assert Op.from_list(ev.to_list()) == ev
    drain = Op(tile=15, block=0, is_write=False, event="drain")
    assert Op.from_list(drain.to_list()) == drain


# ---------------------------------------------------------------------------
# the runner: clean sweeps and seeded mutations


def test_event_scenarios_pass_clean_on_all_protocols(tmp_path):
    report = run_verification(
        rounds=3, seed=11, n_ops=150, bundle_dir=tmp_path,
        scenarios=sorted(EVENT_SCENARIOS),
    )
    assert report.verdict == "pass"
    assert sorted(set(report.scenarios_run)) == sorted(EVENT_SCENARIOS)
    assert report.violations == []


def test_event_scenarios_pass_clean_on_a_second_seed(tmp_path):
    report = run_verification(
        rounds=3, seed=5, n_ops=120, bundle_dir=tmp_path,
        scenarios=sorted(EVENT_SCENARIOS),
    )
    assert report.verdict == "pass"


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown fuzz scenario"):
        run_verification(rounds=1, scenarios=["nope"])


@pytest.mark.parametrize("mutation", sorted(CAUGHT_BY))
def test_consolidation_mutations_are_caught_and_shrunk(mutation, tmp_path):
    protocol, scenario = CAUGHT_BY[mutation]
    report = run_verification(
        protocols=[protocol], rounds=3, seed=1, mutation=mutation,
        bundle_dir=tmp_path, scenarios=[scenario],
    )
    assert report.verdict == "fail"
    v = report.violations[0]
    assert v["protocol"] == protocol
    assert v["scenario"] == scenario
    assert v["shrunk_ops"] <= 20
    replay = replay_bundle(report.bundles[0])
    assert replay.matched, replay.message


def test_shrunk_event_traces_stay_well_formed(tmp_path):
    """ddmin may delete the migrate that reactivates a tile; later ops
    on that tile are skipped identically everywhere, so the minimum is
    a genuine single-protocol reproducer (pinned by replay)."""
    report = run_verification(
        protocols=["dico"], rounds=2, seed=1,
        mutation="dico-migrate-stale-owner",
        bundle_dir=tmp_path, scenarios=["migrate-race"],
    )
    assert report.verdict == "fail"
    doc = json.loads(open(report.bundles[0]).read())
    ops = [Op.from_list(o) for o in doc["ops"]]
    assert any(op.event == "migrate" for op in ops)


# ---------------------------------------------------------------------------
# CLI plumbing


def test_cli_scenario_flag_reaches_the_runner(tmp_path, capsys):
    rc = main([
        "verify", "--rounds", "2", "--ops", "120", "--seed", "4",
        "--scenario", "migrate-race", "--scenario", "shootdown-upgrade",
        "--bundle-dir", str(tmp_path),
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["scenarios_run"]) <= {"migrate-race", "shootdown-upgrade"}


def test_cli_mutation_with_scenario_exits_one(tmp_path, capsys):
    rc = main([
        "verify", "--rounds", "2", "--seed", "1",
        "--mutate", "mesi-snoop-drain-ghost-owner",
        "--protocols", "mesi-snoop",
        "--scenario", "depart-dirty-owner",
        "--bundle-dir", str(tmp_path),
    ])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "fail"
    assert doc["violations"][0]["shrunk_ops"] <= 20


def test_cli_unknown_scenario_exits_two(capsys):
    assert main(["verify", "--scenario", "nope"]) == 2
    assert "unknown fuzz scenario" in capsys.readouterr().err
