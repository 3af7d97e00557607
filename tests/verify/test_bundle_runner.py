"""Repro bundles, the verification runner and the ``verify`` CLI."""

import json

import pytest

from repro.cli import main
from repro.sim.config import ConfigError
from repro.verify.bundle import (
    BUNDLE_SCHEMA,
    load_bundle,
    parse_bundle,
    replay_bundle,
    write_bundle,
)
from repro.verify.differential import Violation, default_config
from repro.verify.fuzzer import Op
from repro.verify.runner import DEFAULT_PROTOCOLS, run_verification

CONFIG = default_config()


def _dummy_violation():
    return Violation("coherence", "directory", 2, "made up", {"block": 5})


def test_bundle_round_trip(tmp_path):
    ops = [Op(0, 1, True), Op(1, 1, False), Op(2, 1, True)]
    path = write_bundle(
        tmp_path,
        protocol="directory",
        ops=ops,
        violation=_dummy_violation(),
        config=CONFIG,
        seed=9,
        scenario="ping-pong",
    )
    doc = load_bundle(path)
    assert doc["schema"] == BUNDLE_SCHEMA
    assert [Op.from_list(o) for o in doc["ops"]] == ops
    assert doc["violation"]["op_index"] == 2
    assert doc["scenario"] == "ping-pong"


def test_load_rejects_non_bundles(tmp_path):
    p = tmp_path / "x.json"
    p.write_text(json.dumps({"schema": "something-else"}))
    with pytest.raises(ValueError, match="not a verify bundle"):
        load_bundle(p)


def test_clean_verification_passes(tmp_path):
    report = run_verification(
        rounds=2, seed=5, n_ops=150, bundle_dir=tmp_path
    )
    assert report.verdict == "pass"
    assert report.rounds_run == 2
    assert report.violations == []
    assert report.bundles == []
    assert report.ops_executed == 2 * len(DEFAULT_PROTOCOLS) * 150


def test_mutated_verification_fails_shrinks_and_replays(tmp_path):
    """The acceptance path: inject a bug, catch it, shrink the trace
    to a handful of ops, and replay the bundle to the same violation."""
    report = run_verification(
        rounds=8,
        seed=1,
        mutation="arin-skip-broadcast",
        bundle_dir=tmp_path,
    )
    assert report.verdict == "fail"
    assert report.violations
    v = report.violations[0]
    assert v["protocol"] == "dico-arin"
    assert v["shrunk_ops"] <= 20
    assert report.bundles
    replay = replay_bundle(report.bundles[0])
    assert replay.matched, replay.message


def test_budget_bounds_rounds(tmp_path):
    report = run_verification(
        rounds=10_000, seed=3, n_ops=100, budget_seconds=1.0,
        bundle_dir=tmp_path,
    )
    assert report.rounds_run < 10_000
    assert report.verdict == "pass"


def test_report_is_machine_readable(tmp_path):
    report = run_verification(rounds=1, seed=0, n_ops=100, bundle_dir=tmp_path)
    out = report.save(tmp_path / "report.json")
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro-verify-report/v1"
    assert doc["verdict"] == "pass"
    assert doc["scenarios_run"]


# ---------------------------------------------------------------------------
# CLI exit codes

def test_cli_verify_clean_exits_zero(tmp_path, capsys):
    rc = main([
        "verify", "--rounds", "1", "--ops", "100", "--seed", "4",
        "--bundle-dir", str(tmp_path),
        "--output", str(tmp_path / "report.json"),
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass"
    assert (tmp_path / "report.json").exists()


def test_cli_verify_mutation_exits_one(tmp_path, capsys):
    rc = main([
        "verify", "--rounds", "8", "--seed", "1",
        "--mutate", "vh-stale-l2dir",
        "--protocols", "vh",
        "--bundle-dir", str(tmp_path),
    ])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "fail"


def test_cli_verify_replay_round_trip(tmp_path, capsys):
    rc = main([
        "verify", "--rounds", "8", "--seed", "1",
        "--mutate", "directory-stale-eviction",
        "--protocols", "directory",
        "--bundle-dir", str(tmp_path),
    ])
    assert rc == 1
    bundles = list(tmp_path.glob("bundle-*.json"))
    assert bundles
    capsys.readouterr()
    rc = main(["verify", "--replay", str(bundles[0])])
    assert rc == 0


def test_cli_verify_bad_protocol_exits_two(capsys):
    assert main(["verify", "--protocols", "nope"]) == 2
    assert "unknown protocol" in capsys.readouterr().err


def test_cli_verify_bad_mutation_exits_two(capsys):
    assert main(["verify", "--mutate", "nope"]) == 2
    assert "unknown mutation" in capsys.readouterr().err


def test_cli_invalid_config_exits_two(capsys):
    rc = main([
        "run", "--protocol", "dico", "--workload", "apache",
        "--cycles", "0",
    ])
    assert rc == 2
    assert "cycles" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [None, "not json", "[1, 2]", json.dumps({"schema": "something-else"})],
)
def test_cli_replay_of_a_bad_file_exits_two(tmp_path, capsys, text):
    # a missing, non-JSON, non-object or wrong-schema file used to end in
    # a traceback with exit 1, the code for "did not reproduce"
    path = tmp_path / "b.json"
    if text is not None:
        path.write_text(text)
    assert main(["verify", "--replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad verify bundle {str(path)!r}: ")


@pytest.mark.parametrize(
    "argv, key",
    [
        (["--rounds", "-1"], "rounds"),
        (["--rounds", "0"], "rounds"),
        (["--ops", "-5"], "n_ops"),
        (["--budget-seconds", "-1"], "budget_seconds"),
    ],
)
def test_cli_verify_below_one_round_or_op_exits_two(tmp_path, capsys, argv, key):
    # each used to report "pass" after 0 rounds or 0 ops
    rc = main(["verify", "--bundle-dir", str(tmp_path), *argv])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {key} must be")


def _bundle_doc(tmp_path):
    path = write_bundle(
        tmp_path,
        protocol="directory",
        ops=[Op(0, 1, True), Op(1, 1, False), Op(2, 1, True, "migrate", 3)],
        violation=_dummy_violation(),
        config=CONFIG,
        seed=9,
        mutation="directory-stale-eviction",
    )
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "change, key",
    [
        ({"ops": [[0, 1]]}, "ops"),
        ({"ops": [[99, 1, 1]]}, "ops"),
        ({"ops": [[0, 1, 1, "teleport", 0]]}, "ops"),
        ({"ops": [[0, 1, 1, "migrate", 16]]}, "ops"),
        ({"ops": {"0": [0, 1, 1]}}, "ops"),
        ({"violation": {"kind": "coherence"}}, "violation"),
        ({"violation": [1]}, "violation"),
        ({"protocol": "nope"}, "protocol"),
        ({"protocol": ["dico"]}, "protocol"),
        ({"mutation": "nope"}, "mutation"),
        ({"seed": "9"}, "seed"),
        ({"config": {"mesh_width": 4}}, "config"),
        ({"opps": []}, ""),
    ],
)
def test_malformed_bundle_is_a_config_error_naming_its_key(
    tmp_path, change, key
):
    doc = _bundle_doc(tmp_path)
    parse_bundle(doc)
    with pytest.raises(ConfigError) as exc:
        parse_bundle(dict(doc, **change))
    assert exc.value.key == key
