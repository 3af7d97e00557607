"""Tests of the repo benchmark itself (inputs, checks, tracing hygiene).

Run from the root of a checkout::

    python3 -m pytest perfbench -q

They drive the benchmark's own code on a 4x4 mesh with short windows,
so the whole file takes well under a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))
sys.path.insert(0, str(_HERE))

import bench  # noqa: E402
import grid  # noqa: E402
from layertrace import LAYERS, LayerTrace, span_summary  # noqa: E402
from repro.core.protocols import REGISTRY  # noqa: E402
from repro.core.protocols.base import CoherenceProtocol  # noqa: E402
from repro.workloads.dynamics import ConsolidationPlan  # noqa: E402

SMALL = (("mesh_width", 4), ("mesh_height", 4))


def small_cells(workload, names=("directory", "dico", "mesi-snoop", "dls")):
    def make(seed):
        return grid.sim_cells(
            workload, seed, warmup=300, cycles=400, overrides=SMALL, names=names
        )
    return make


def small_sweep(seed):
    return grid.sweep_specs(
        seed, warmup=100, cycles=200, n_seeds=1, overrides=SMALL,
        names=("directory", "mesi-snoop"),
    )


def run(tmp_path, workload, make_specs, traced=False, seed=3):
    return bench.measure(
        workload, seed, 0.0, traced, str(tmp_path),
        make_specs=make_specs,
    )


def test_same_seed_same_inputs_and_other_seed_other_plans():
    for workload in grid.SIM_WORKLOADS:
        assert grid.sim_cells(workload, 7) == grid.sim_cells(workload, 7)
    assert grid.sweep_specs(7) == grid.sweep_specs(7)
    assert not set(grid.sweep_specs(7)) & set(grid.sweep_specs(8))
    plans = {
        repr(grid.sim_cells("vm-churn", seed)[0].plan) for seed in range(6)
    }
    assert len(plans) == 6


def test_every_cell_covers_every_protocol():
    for workload in grid.SIM_WORKLOADS:
        cells = grid.sim_cells(workload, 1)
        assert tuple(c.protocol for c in cells) == REGISTRY.names()
    assert {s.protocol for s in grid.sweep_specs(1)} == set(REGISTRY.names())


def test_pass_count_depends_on_the_run_length_alone():
    assert bench.passes_for("miss-heavy", 0.0) == bench.MIN_PASSES
    assert bench.passes_for("hit-heavy", 3 * grid.PASS_S["hit-heavy"]) == 3


@pytest.mark.parametrize("seed", range(8))
def test_generated_churn_plans_validate_against_their_spec(seed):
    for spec in grid.sim_cells("vm-churn", seed, names=("directory", "vh")):
        plan = ConsolidationPlan.from_dict(spec.plan)
        assert len(plan) == grid.CHURN_EVENTS
        kinds = [ev.kind for ev in plan.events]
        assert set(kinds) <= set(grid.CHURN_KINDS)
        placement_kinds = [k for k in kinds if k in ("vm_migrate", "vm_arrive")]
        assert placement_kinds == ["vm_migrate", "vm_migrate", "vm_arrive"]
        chip = spec.build_chip()
        plan.validate(
            spec.cycles,
            {vm: chip.placement.tiles_of(vm) for vm in chip.placement.vms},
            chip.config.n_tiles,
        )


def test_same_seed_gives_identical_digests(tmp_path):
    make = small_cells("vm-churn")
    first = run(tmp_path, "vm-churn", make)
    second = run(tmp_path, "vm-churn", make)
    assert first.correct and second.correct, first.errors + second.errors
    assert first.digests == second.digests
    assert len(first.digests) == 4
    # every pass: 4 cells and its warm replays; every pass after the
    # first also replays the first pass's cache after each of its cells
    passes = bench.MIN_PASSES
    assert first.attempted == passes * (4 + bench.WARM_REPLAYS) + (passes - 1) * 4
    assert not list(tmp_path.iterdir())  # no pass left a cache behind
    assert set(first.metrics) == {
        "sim_ops_per_s", "cell_cycles_per_s.geomean", "setup_s",
        "peak_rss_mb", "ok_ratio", "sweep_warm_s",
    }
    assert all(value > 0 for value, _ in first.metrics.values())


def test_sweep_warm_replay_executes_nothing_and_matches_cold(tmp_path):
    outcome = run(tmp_path, "sweep-short", small_sweep)
    assert outcome.correct, outcome.errors
    assert outcome.metrics["ok_ratio"] == (1.0, "ratio")
    assert outcome.extras["sweep_cold_s"][0] > 0
    assert len(outcome.digests) == 4


@pytest.fixture
def dls_raises(monkeypatch):
    """Every L1 read miss of a DLS cell raises from inside the access
    path, under the wrapped protocol methods when tracing."""
    cls = REGISTRY.get("dls").cls

    def boom(self, *args, **kwargs):
        raise RuntimeError("forced cell failure")

    monkeypatch.setattr(cls, "_handle_read_miss", boom)


def test_a_raising_cell_is_counted_and_the_run_goes_on(tmp_path, dls_raises):
    outcome = run(tmp_path, "miss-heavy", small_cells("miss-heavy"))
    assert not outcome.correct
    assert outcome.failed == bench.MIN_PASSES  # the DLS cell, once per pass
    assert all("forced cell failure" in e for e in outcome.errors)
    assert len(outcome.digests) == 3  # the other protocols still ran
    assert outcome.metrics["ok_ratio"][0] == pytest.approx(
        1 - outcome.failed / outcome.attempted
    )


def _bindings():
    trace = LayerTrace(LAYERS)
    found = {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in trace.targets()}
    found.update(
        {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in trace._codec_targets()}
    )
    return found


def test_traced_run_restores_every_wrapped_method(tmp_path, dls_raises):
    before = _bindings()
    outcome = run(tmp_path, "vm-churn", small_cells("vm-churn"), traced=True)
    assert _bindings() == before
    assert outcome.failed == 2  # the DLS cell, untraced and traced
    # traced digests were checked against the untraced pass's
    assert not [e for e in outcome.errors if "differ" in e]
    m = outcome.metrics
    assert m["protocols.access_calls"][0] > 0
    assert m["workloads.next_calls"][0] > 0
    assert m["sim.apply_event_calls"][0] > 0
    assert m["sweep.cache_hit_ratio"][0] == 1.0
    assert m["trace.overhead_ratio"][0] > 0
    summary = span_summary(outcome.spans)
    assert set(summary) >= {"cell", "build", "sim.run", "sim.apply_event"}
    _, total, own = summary["cell"]
    assert 0 < own < total  # the build and the runs are its child spans


def test_vm_churn_migrates_and_the_trace_counts_the_handoff(tmp_path, monkeypatch):
    migrations = []
    original = CoherenceProtocol.migrate_tile_state

    def counted(self, *args, **kwargs):
        migrations.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CoherenceProtocol, "migrate_tile_state", counted)
    make = small_cells("vm-churn", names=("directory", "dico"))
    outcome = run(tmp_path, "vm-churn", make, traced=True)
    assert outcome.correct, outcome.errors
    # one untraced and one traced pass; in each, two cells migrate two
    # VMs of 4 tiles (one area of the 4x4 mesh) a tile at a time
    assert len(migrations) == 2 * (2 * 2 * 4)
    assert outcome.metrics["protocols.handoff_calls"][0] >= 2 * 2 * 4
    assert outcome.metrics["protocols.handoff_s"][0] > 0


def test_traced_sweep_reports_the_sweep_layer(tmp_path):
    outcome = run(tmp_path, "sweep-short", small_sweep, traced=True)
    assert outcome.correct, outcome.errors
    m = outcome.metrics
    assert m["sweep.point_sim_s"][0] > 0
    assert m["sweep.cache_put_s"][0] > 0
    assert m["stats.codec_calls"][0] > 0
    assert m["sweep.cache_hit_ratio"][0] == 1.0
