"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main


def test_storage_command(capsys):
    assert main(["storage"]) == 0
    out = capsys.readouterr().out
    assert "Table V" in out
    assert "12.56" in out
    assert "dico-arin" in out


def test_leakage_command(capsys):
    assert main(["leakage"]) == 0
    out = capsys.readouterr().out
    assert "239.0 mW" in out


def test_workloads_command(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("apache", "jbb", "tomcatv", "mixed-sci"):
        assert name in out


def test_run_command_emits_json(capsys):
    rc = main([
        "run", "--protocol", "dico", "--workload", "radix",
        "--cycles", "2000", "--warmup", "0", "--seed", "2",
    ])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["protocol"] == "dico"
    assert data["workload"] == "radix"
    assert data["operations"] > 0
    assert "miss_categories" in data


def test_compare_command(capsys):
    rc = main([
        "compare", "--workload", "lu", "--cycles", "2000", "--warmup", "0",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    for proto in ("directory", "dico", "dico-providers", "dico-arin"):
        assert proto in out


def test_alt_placement_flag(capsys):
    rc = main([
        "run", "--protocol", "dico-arin", "--workload", "radix",
        "--cycles", "2000", "--warmup", "0", "--placement", "alt",
    ])
    assert rc == 0


def test_bad_protocol_rejected():
    # "mesi" resolves as an alias now; a truly unknown name still exits
    with pytest.raises(SystemExit):
        main(["run", "--protocol", "mosi"])


def test_sweep_rejects_unknown_override_key(capsys):
    rc = main([
        "sweep", "--protocols", "dico", "--workloads", "radix",
        "--cycles", "1000", "--warmup", "0", "--no-cache", "--quiet",
        "--set", "l1c_entres=64",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown config override key" in err
    assert "l1c_entries" in err  # the valid keys are listed


def test_sweep_rejects_bad_override_value_at_any_jobs(capsys, monkeypatch):
    # a valid key whose value fails once applied (8 KiB L1 is not a
    # multiple of 3 ways x 64 B) exits 2 before any point runs, on the
    # worker-process path too, not as one failed point per spec
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # keep --jobs 2
    rc = main([
        "sweep", "--protocols", "directory,dico", "--workloads", "radix",
        "--cycles", "500", "--warmup", "100", "--no-cache", "--quiet",
        "--jobs", "2", "--set", "l1.assoc=3",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid configuration — size_bytes" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--workloads", "nope"], "workload: unknown workload 'nope'"),
        (["--set", "l1c_entries=x"], "overrides: l1c_entries='x'"),
        (["--jobs", "0"], "--jobs must be >= 1, got 0"),
        (["--seeds", "1,x"], "--seeds: 'x' is not an integer"),
        (["--timeout", "nan"], "timeout_s must be finite and > 0, got nan"),
    ],
)
def test_bad_sweep_input_prints_an_error_and_exits_2(capsys, argv, message):
    rc = main([
        "sweep", "--protocols", "dico", "--workloads", "radix",
        "--cycles", "500", "--warmup", "0", "--no-cache", "--quiet", *argv,
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "override",
    [
        "l1c_entries=1.5",
        "noc.link_cycles=true",
        "l1.assoc=true",
        "noc.model_contention=yes",
        "l1.assoc=2.0",
    ],
)
def test_sweep_rejects_mistyped_override_before_any_point(capsys, override):
    # each used to build its specs: 1.5 failed in the worker (exit 1),
    # true ran 1-cycle links or a 1-way L1
    rc = main([
        "sweep", "--protocols", "dico", "--workloads", "radix",
        "--cycles", "500", "--warmup", "0", "--no-cache", "--quiet",
        "--set", override,
    ])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith(f"error: overrides: {override.partition('=')[0]}=")


def test_sweep_point_failure_exits_1_at_jobs_1(capsys, monkeypatch):
    # a failing point in the one worker of --jobs 1: an error line and
    # exit 1, not the point's own traceback
    from repro.sweep import RunSpec

    def boom(self, *args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(RunSpec, "execute", boom)
    rc = main([
        "sweep", "--protocols", "dico", "--workloads", "radix",
        "--seeds", "1", "--cycles", "1000", "--warmup", "0",
        "--no-cache", "--quiet", "--jobs", "1",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: sweep point 'dico/radix seed=1' failed" in err
    assert "RuntimeError: boom" in err


def test_run_checker_flag(capsys):
    rc = main([
        "run", "--protocol", "directory", "--workload", "radix",
        "--cycles", "1000", "--warmup", "0", "--no-checker",
    ])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["operations"] > 0


def test_trace_command_writes_trace_and_manifest(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    rc = main([
        "trace", "dico-providers", "radix",
        "--cycles", "2000", "--warmup", "500", "--output", str(out),
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["events"] > 0
    assert out.exists()
    manifest = json.loads((tmp_path / "t.jsonl.manifest.json").read_text())
    assert manifest["protocol"] == "dico-providers"
    assert "tracer" in manifest["instruments"]


def test_trace_command_filters(tmp_path, capsys):
    out = tmp_path / "f.jsonl"
    rc = main([
        "trace", "dico", "radix", "--cycles", "2000", "--warmup", "500",
        "--output", str(out), "--filter", "events=transition,tile=0+1",
    ])
    assert rc == 0
    events = [json.loads(x) for x in out.read_text().splitlines()]
    assert events, "filtered trace should still catch tile-0/1 transitions"
    assert all(e["event"] == "transition" for e in events)
    assert all(e["tile"] in (0, 1) for e in events)


def test_trace_command_rejects_bad_filter(tmp_path, capsys):
    rc = main([
        "trace", "dico", "radix", "--output", str(tmp_path / "x.jsonl"),
        "--filter", "bogus=1",
    ])
    assert rc == 2
    assert "bad trace filter" in capsys.readouterr().err


def _sweep_args(tmp_path, *extra):
    return [
        "sweep", "--protocols", "dico", "--workloads", "radix,lu",
        "--seeds", "1", "--cycles", "1500", "--warmup", "500",
        "--cache-dir", str(tmp_path / "cache"), "--quiet", *extra,
    ]


def test_sweep_chaos_skip_exits_3_and_writes_failures(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(
        '{"seed": 1, "rules": [{"kind": "crash", "rate": 1.0}]}'
    )
    failures = tmp_path / "failures.json"
    rc = main(_sweep_args(
        tmp_path, "--fault-plan", str(plan), "--on-failure", "skip",
        "--failures", str(failures),
    ))
    assert rc == 3
    lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert all("failure" in line for line in lines)
    assert all(line["failure"]["kind"] == "crash" for line in lines)
    summary = json.loads(failures.read_text())
    assert summary["failed"] == 2 and summary["ok"] == 0


def test_sweep_resume_completes_after_chaos(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(
        '{"seed": 1, "rules": [{"kind": "crash", "rate": 1.0}]}'
    )
    rc = main(_sweep_args(
        tmp_path, "--fault-plan", str(plan), "--on-failure", "skip",
    ))
    assert rc == 3
    capsys.readouterr()
    # re-run the same command without the plan: the cache is the
    # checkpoint, so exactly the two failed points re-execute
    rc = main([a for a in _sweep_args(tmp_path) if a != "--quiet"])
    assert rc == 0
    out, err = capsys.readouterr()
    lines = [json.loads(x) for x in out.splitlines()]
    assert all("summary" in line for line in lines)
    assert "2 simulated, 0 cached, 0 failed" in err
    # matches a fault-free run bit for bit
    rc = main(_sweep_args(tmp_path))
    assert rc == 0
    assert [json.loads(x) for x in capsys.readouterr().out.splitlines()] \
        == lines


def test_sweep_rejects_bad_fault_plan(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text('{"rules": [{"kind": "meteor"}]}')
    rc = main(_sweep_args(tmp_path, "--fault-plan", str(plan)))
    assert rc == 2
    assert "bad fault plan" in capsys.readouterr().err


def test_sweep_retry_flags_recover(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(
        '{"seed": 1, "rules": [{"kind": "crash", "rate": 1.0}]}'
    )
    rc = main(_sweep_args(
        tmp_path, "--fault-plan", str(plan), "--retries", "1",
    ))
    assert rc == 0
    lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert all("summary" in line for line in lines)
