"""Unit tests for the ``repro perf`` throughput harness.

The real reference cells take seconds each, so everything here runs on
tiny cells (small test chip, short windows) — the harness logic is
cell-agnostic.
"""

import json

import pytest

from repro import cli
from repro.perf import harness
from repro.perf.harness import (
    QUICK_CELLS,
    REFERENCE_CELLS,
    CellResult,
    compare_reports,
    config_fingerprint,
    geomean,
    git_rev,
    git_rev_in_repo,
    load_report,
    run_cells,
    write_report,
)
from repro.sim.config import small_test_chip
from repro.sweep import RunSpec
from repro.sweep.spec import config_to_dict

TINY = config_to_dict(small_test_chip())


def tiny_cells(n=2):
    protocols = ("directory", "dico")[:n]
    return tuple(
        RunSpec(protocol=p, workload="mixed-sci", seed=7,
                cycles=1_500, warmup=500, config=TINY)
        for p in protocols
    )


def test_reference_grid_is_pinned():
    # the reference subset is a contract: all four protocols on one
    # commercial and one scientific workload, fixed windows and seed
    assert len(REFERENCE_CELLS) == 8
    assert {c.protocol for c in REFERENCE_CELLS} == {
        "directory", "dico", "dico-providers", "dico-arin"
    }
    assert {c.workload for c in REFERENCE_CELLS} == {"apache", "radix"}
    assert all(c.cycles == 100_000 and c.seed == 1 for c in REFERENCE_CELLS)
    # quick cells keep the same grid shape, just smaller windows
    assert [(c.protocol, c.workload) for c in QUICK_CELLS] == [
        (c.protocol, c.workload) for c in REFERENCE_CELLS
    ]


def test_run_cells_times_and_counts(capsys):
    lines = []
    results = run_cells(tiny_cells(), repeat=1, progress=lines.append)
    assert len(results) == 2
    for r in results:
        assert r.operations > 0
        assert r.wall_s > 0
        assert r.ops_per_s == pytest.approx(r.operations / r.wall_s)
    assert len(lines) == 2 and "ops/s" in lines[0]


def test_repeat_takes_median_and_checks_determinism():
    cell = tiny_cells(1)[0]
    r = harness._time_cell(cell, repeat=3)
    single = harness._time_cell(cell, repeat=1)
    assert r.operations == single.operations  # deterministic op count


def test_config_fingerprint_tracks_grid_identity():
    a = config_fingerprint(tiny_cells(2))
    assert a == config_fingerprint(tiny_cells(2))
    assert a != config_fingerprint(tiny_cells(1))
    assert a != config_fingerprint(REFERENCE_CELLS)


def test_report_round_trip_and_schema(tmp_path):
    cells = tiny_cells(1)
    results = [CellResult(spec=cells[0], operations=1000, wall_s=0.5)]
    report = harness.build_report(cells, results, quick=True, repeat=1)
    assert report["schema"] == harness.BENCH_PERF_SCHEMA_VERSION
    assert report["config_fingerprint"] == config_fingerprint(cells)
    assert report["total_wall_s"] == pytest.approx(0.5)
    cell_doc = report["cells"][0]
    assert cell_doc["ops_per_s"] == pytest.approx(2000.0)
    assert cell_doc["protocol"] == "directory"

    path = tmp_path / "BENCH_PERF.json"
    write_report(report, str(path))
    assert load_report(str(path)) == json.loads(path.read_text())

    bad = dict(report, schema=99)
    write_report(bad, str(path))
    with pytest.raises(ValueError, match="schema"):
        load_report(str(path))


def test_compare_reports_matches_cells_and_computes_speedup():
    cells = tiny_cells(2)
    now = harness.build_report(
        cells,
        [CellResult(spec=c, operations=1000, wall_s=0.5) for c in cells],
        quick=True, repeat=1,
    )
    base = harness.build_report(
        cells,
        [CellResult(spec=c, operations=1000, wall_s=1.0) for c in cells],
        quick=True, repeat=1,
    )
    comparison = compare_reports(now, base)
    assert len(comparison.rows) == 2
    for _, base_ops, now_ops, speedup in comparison.rows:
        assert speedup == pytest.approx(2.0)
    assert comparison.complete
    assert comparison.geomean_speedup == pytest.approx(2.0)
    # a baseline with no matching cells yields no rows, not an error —
    # but the orphaned cells are reported, not silently dropped
    empty = compare_reports(now, {"cells": []})
    assert empty.rows == []
    assert empty.geomean_speedup is None
    assert not empty.complete
    assert len(empty.unmatched_report) == 2


def test_compare_reports_lists_unmatched_cells_on_both_sides():
    cells = tiny_cells(2)
    now = harness.build_report(
        cells,
        [CellResult(spec=c, operations=1000, wall_s=0.5) for c in cells],
        quick=True, repeat=1,
    )
    # baseline shares only the first cell; its second cell is a
    # different spec the current report never timed
    other = RunSpec(protocol="vh", workload="mixed-sci", seed=7,
                    cycles=1_500, warmup=500, config=TINY)
    base = harness.build_report(
        (cells[0], other),
        [CellResult(spec=c, operations=1000, wall_s=1.0)
         for c in (cells[0], other)],
        quick=True, repeat=1,
    )
    comparison = compare_reports(now, base)
    assert [r[0] for r in comparison.rows] == ["directory/mixed-sci"]
    assert comparison.unmatched_report == ["dico/mixed-sci"]
    assert comparison.unmatched_baseline == ["vh/mixed-sci"]
    assert not comparison.complete


def test_compare_reports_unusable_baseline_throughput_is_unmatched():
    cells = tiny_cells(1)
    now = harness.build_report(
        cells,
        [CellResult(spec=cells[0], operations=1000, wall_s=0.5)],
        quick=True, repeat=1,
    )
    # wall_s 0 → ops_per_s 0.0: cannot anchor a speedup ratio
    base = harness.build_report(
        cells,
        [CellResult(spec=cells[0], operations=1000, wall_s=0.0)],
        quick=True, repeat=1,
    )
    comparison = compare_reports(now, base)
    assert comparison.rows == []
    assert comparison.unmatched_report == ["directory/mixed-sci"]


def test_geomean():
    # an empty sequence has no geometric mean — a fabricated 0.0 would
    # read as "infinitely slow" in a comparison
    with pytest.raises(ValueError, match="empty"):
        geomean([])
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([3.0]) == pytest.approx(3.0)


def test_git_rev_is_nonempty_string():
    rev = git_rev()
    assert isinstance(rev, str) and rev


def test_git_rev_in_repo():
    # the placeholder can never be vouched for
    assert git_rev_in_repo("unknown") is None
    assert git_rev_in_repo("") is None
    rev = git_rev()
    if rev != "unknown":  # running inside the git checkout
        assert git_rev_in_repo(rev) is True
        # a syntactically valid rev that no commit here matches
        assert git_rev_in_repo("f" * 40) is False


def test_cell_results_carry_stats_digest_and_engines_agree(monkeypatch):
    # the digest is a bit-identity witness: the inline-draining issue
    # path and the one-event-per-op reference path hash to the same
    # stats, while a different cell hashes differently
    cell, other = tiny_cells(2)
    fast = harness._time_cell(cell, repeat=1)
    monkeypatch.setenv("REPRO_FAST_PATH", "0")
    reference = harness._time_cell(cell, repeat=1)
    assert fast.stats_sha256 and len(fast.stats_sha256) == 64
    assert fast.stats_sha256 == reference.stats_sha256
    assert harness._time_cell(other, repeat=1).stats_sha256 != fast.stats_sha256


def test_cli_perf_end_to_end(tmp_path, monkeypatch, capsys):
    # wire-through test: `repro perf --quick` on monkeypatched tiny
    # cells writes a loadable report and prints the table
    monkeypatch.setattr(harness, "QUICK_CELLS", tiny_cells(2))
    out = tmp_path / "BENCH_PERF.json"
    assert cli.main(["perf", "--quick", "--output", str(out)]) == 0
    report = load_report(str(out))
    assert len(report["cells"]) == 2
    assert report["quick"] is True
    captured = capsys.readouterr()
    assert "ops/s" in captured.out

    # second run comparing against the first as baseline
    out2 = tmp_path / "BENCH_PERF2.json"
    assert cli.main([
        "perf", "--quick", "--output", str(out2),
        "--baseline", str(out),
    ]) == 0
    captured = capsys.readouterr()
    assert "speedup" in captured.out
    assert "geomean" in captured.out
    report2 = load_report(str(out2))
    assert report2["baseline"]["cells"] == report["cells"]
    # the simulator is deterministic: a rerun computes the same
    # statistics cell by cell, and the report labels its one engine
    for now_cell, base_cell in zip(report2["cells"], report["cells"]):
        assert now_cell["stats_sha256"] == base_cell["stats_sha256"]
        assert now_cell["operations"] == base_cell["operations"]
    assert report2["engine"] == "object"


def test_cli_perf_profile_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "QUICK_CELLS", tiny_cells(1))
    assert cli.main([
        "perf", "--quick", "--output", "", "--profile", "5",
    ]) == 0
    captured = capsys.readouterr()
    assert "cProfile top 5" in captured.out
    assert "cumulative" in captured.out


def test_cli_perf_profile_covers_selected_engine(
    tmp_path, monkeypatch, capsys
):
    # --profile attributes time to the issue loop that was timed
    monkeypatch.setattr(harness, "QUICK_CELLS", tiny_cells(1))
    assert cli.main([
        "perf", "--quick", "--output", "", "--profile", "40",
    ]) == 0
    captured = capsys.readouterr()
    profile = captured.out.split("cProfile top 40", 1)[1]
    assert "_issue_fast" in profile


def test_cell_results_record_l1_miss_rate():
    cell = tiny_cells(1)[0]
    r = harness._time_cell(cell, repeat=1)
    assert r.l1_miss_rate is not None
    assert 0.0 < r.l1_miss_rate < 1.0
    doc = r.to_dict()
    assert doc["l1_miss_rate"] == pytest.approx(r.l1_miss_rate, abs=1e-6)


def test_load_report_upgrades_schema_v1(tmp_path):
    cells = tiny_cells(1)
    report = harness.build_report(
        cells,
        [CellResult(spec=cells[0], operations=1000, wall_s=0.5,
                    l1_miss_rate=0.25)],
        quick=True, repeat=1,
    )
    # regress the report to the v1 shape: no schema-2 field, embedded
    # v1 baseline
    v1 = json.loads(json.dumps(report))
    v1["schema"] = 1
    for c in v1["cells"]:
        del c["l1_miss_rate"]
    v1["baseline"] = json.loads(json.dumps(v1))
    path = tmp_path / "old.json"
    write_report(v1, str(path))

    upgraded = load_report(str(path))
    assert upgraded["schema"] == harness.BENCH_PERF_SCHEMA_VERSION
    # the rate was not recorded, not zero
    assert upgraded["cells"][0]["l1_miss_rate"] is None
    assert upgraded["baseline"]["schema"] == harness.BENCH_PERF_SCHEMA_VERSION
    assert upgraded["baseline"]["cells"][0]["l1_miss_rate"] is None

    # v2 reports round-trip untouched
    path2 = tmp_path / "new.json"
    write_report(report, str(path2))
    assert load_report(str(path2))["cells"][0]["l1_miss_rate"] == 0.25


def test_cli_perf_min_geomean_gate(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "QUICK_CELLS", tiny_cells(1))
    baseline = tmp_path / "BENCH_PERF.json"
    assert cli.main(["perf", "--quick", "--output", str(baseline)]) == 0
    table = tmp_path / "comparison.txt"
    # a rerun against its own baseline scores ~1×; a gate of 0.01
    # always passes, 1000 always fails
    assert cli.main([
        "perf", "--quick", "--output", "", "--baseline", str(baseline),
        "--min-geomean", "0.01", "--comparison-output", str(table),
    ]) == 0
    captured = capsys.readouterr()
    assert "geomean gate" in captured.err
    assert "geomean" in table.read_text()

    assert cli.main([
        "perf", "--quick", "--output", "", "--baseline", str(baseline),
        "--min-geomean", "1000",
    ]) == 1
    captured = capsys.readouterr()
    assert "below the gate" in captured.err

    # gating without a comparison to gate on is a usage error
    assert cli.main([
        "perf", "--quick", "--output", "", "--min-geomean", "0.5",
    ]) == 2
