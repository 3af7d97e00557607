"""Unit tests for the sweep runner (worker and cached paths)."""

import os
import signal
import time

import pytest

from repro.sim.config import small_test_chip
from repro.stats.io import stats_to_dict
from repro.sweep import RunSpec, SweepRunner, figure_grid, merge_by_point
from repro.sweep.spec import config_to_dict

TINY = config_to_dict(small_test_chip())


def tiny_grid(protocols=("directory", "dico")):
    return [
        RunSpec(
            protocol=p,
            workload="radix",
            seed=1,
            cycles=1_500,
            warmup=500,
            config=TINY,
        )
        for p in protocols
    ]


def test_serial_runner_executes_all(tmp_path):
    runner = SweepRunner(jobs=1, cache_dir=str(tmp_path))
    results = runner.run(tiny_grid())
    assert [r.spec.protocol for r in results] == ["directory", "dico"]
    assert runner.executed == 2
    assert all(not r.cached and r.elapsed_s > 0 for r in results)
    assert all(r.stats.operations > 0 for r in results)


def test_warm_cache_executes_nothing(tmp_path):
    cold = SweepRunner(jobs=1, cache_dir=str(tmp_path))
    first = cold.run(tiny_grid())
    warm = SweepRunner(jobs=1, cache_dir=str(tmp_path))
    second = warm.run(tiny_grid())
    assert warm.executed == 0
    assert warm.cache_hits == len(first)
    assert all(r.cached for r in second)
    for a, b in zip(first, second):
        assert stats_to_dict(a.stats) == stats_to_dict(b.stats)


def test_each_spec_is_hashed_once_per_run(tmp_path, monkeypatch):
    # the cache key and the executor both reuse the one fingerprint
    # run() computes per spec
    calls = []
    canonical_json = RunSpec.canonical_json

    def counting(self):
        calls.append(self)
        return canonical_json(self)

    monkeypatch.setattr(RunSpec, "canonical_json", counting)
    grid = tiny_grid(("directory", "dico", "vh"))
    cold = SweepRunner(jobs=1, cache_dir=str(tmp_path))
    cold.run(grid)
    assert cold.executed == len(grid)
    assert len(calls) == len(grid)
    calls.clear()
    warm = SweepRunner(jobs=1, cache_dir=str(tmp_path))
    warm.run(grid)
    assert warm.executed == 0 and warm.cache_hits == len(grid)
    assert len(calls) == len(grid)


def test_pool_matches_serial_bit_for_bit():
    grid = tiny_grid(("directory", "dico", "dico-providers"))
    serial = SweepRunner(jobs=1).run(grid)
    pooled = SweepRunner(jobs=2).run(grid)
    for a, b in zip(serial, pooled):
        assert stats_to_dict(a.stats) == stats_to_dict(b.stats)
        assert a.stats.summary() == b.stats.summary()


def test_no_cache_dir_always_simulates(tmp_path):
    runner = SweepRunner(jobs=1, cache_dir=None)
    runner.run(tiny_grid())
    runner.run(tiny_grid())
    assert runner.executed == 4
    assert runner.cache_hits == 0


def test_progress_callback_sees_every_spec(tmp_path):
    lines = []
    runner = SweepRunner(
        jobs=1, cache_dir=str(tmp_path), progress=lines.append
    )
    runner.run(tiny_grid())
    assert len(lines) == 2
    assert "[1/2]" in lines[0] and "[2/2]" in lines[1]
    # warm pass reports cache hits
    lines.clear()
    SweepRunner(
        jobs=1, cache_dir=str(tmp_path), progress=lines.append
    ).run(tiny_grid())
    assert all("cache" in line for line in lines)


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        SweepRunner(jobs=0)


def test_jobs_clamped_to_cpu_count(caplog):
    import os

    cpus = os.cpu_count() or 1
    with caplog.at_level("INFO", logger="repro.sweep"):
        runner = SweepRunner(jobs=cpus + 100)
    assert runner.jobs == cpus
    assert any("clamping jobs" in rec.message for rec in caplog.records)
    # at-or-below the core count passes through untouched
    assert SweepRunner(jobs=1).jobs == 1


def test_empty_grid_is_a_no_op(tmp_path):
    lines = []
    runner = SweepRunner(
        jobs=1, cache_dir=str(tmp_path), progress=lines.append
    )
    assert runner.run([]) == []
    assert runner.executed == 0 and runner.failed == 0
    assert lines == []


def test_keyboard_interrupt_carries_partial_results(tmp_path, monkeypatch):
    # Ctrl-C reaches this process while the second point runs in its
    # worker: the worker sleeps on it, and a timer armed by the first
    # point's progress line raises KeyboardInterrupt here (no helper
    # thread: workers fork from a single-threaded parent)
    from repro.sweep import SweepInterrupted

    grid = tiny_grid(("directory", "dico", "dico-providers"))
    real_execute = RunSpec.execute

    def stall_second(self, *args, **kwargs):
        if self.protocol == "dico":
            time.sleep(60)
        return real_execute(self, *args, **kwargs)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    def arm(line):
        if "[1/3]" in line:
            signal.setitimer(signal.ITIMER_REAL, 0.3)

    monkeypatch.setattr(RunSpec, "execute", stall_second)
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        runner = SweepRunner(jobs=1, cache_dir=str(tmp_path), progress=arm)
        with pytest.raises(SweepInterrupted) as exc_info:
            runner.run(grid)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    partial = exc_info.value.results
    assert len(partial) == 1
    assert partial[0].spec.protocol == "directory" and partial[0].ok
    # the cache already holds the completed point, so a plain re-run
    # executes exactly the two missing ones
    assert runner.cache.get(grid[0]) is not None
    monkeypatch.setattr(RunSpec, "execute", real_execute)
    rerun = SweepRunner(jobs=1, cache_dir=str(tmp_path))
    assert all(r.ok for r in rerun.run(grid))
    assert rerun.executed == 2 and rerun.cache_hits == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_point_raises_sweep_execution_error_at_any_jobs(
    monkeypatch, jobs
):
    # the point raises in its worker at any jobs; the error crosses the
    # process boundary as the failure record, not as the exception
    from repro.sweep import SweepExecutionError

    def boom(self, *args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # keep jobs=2
    monkeypatch.setattr(RunSpec, "execute", boom)
    [spec] = tiny_grid(("dico",))
    with pytest.raises(SweepExecutionError, match="RuntimeError: boom") as err:
        SweepRunner(jobs=jobs).run([spec])
    record = err.value.record
    assert record.kind == "exception" and record.exc_type == "RuntimeError"
    assert record.message == "boom" and "boom" in record.traceback_tail
    assert record.attempts == 1 and record.fingerprint == spec.fingerprint()


def test_pooled_path_leaves_no_live_children():
    import multiprocessing

    grid = tiny_grid(("directory", "dico", "dico-providers"))
    SweepRunner(jobs=2).run(grid)
    for child in multiprocessing.active_children():
        child.join(timeout=10)
    assert multiprocessing.active_children() == []


def test_figure_grid_shape_and_order():
    grid = figure_grid(
        protocols=("directory", "dico"),
        workloads=("radix", "apache"),
        seeds=(1, 2),
    )
    assert len(grid) == 8
    # workload-major, then protocol, then seed
    assert [s.workload for s in grid[:4]] == ["radix"] * 4
    assert [(s.protocol, s.seed) for s in grid[:4]] == [
        ("directory", 1),
        ("directory", 2),
        ("dico", 1),
        ("dico", 2),
    ]
    # per-workload windows applied
    apache = grid[4]
    assert (apache.warmup, apache.cycles) == (100_000, 100_000)


def test_merge_by_point_collapses_seeds():
    specs = [
        RunSpec(
            protocol="dico",
            workload="radix",
            seed=s,
            cycles=1_500,
            warmup=500,
            config=TINY,
        )
        for s in (1, 2)
    ]
    results = SweepRunner(jobs=1).run(specs)
    merged = merge_by_point((r.spec, r.stats) for r in results)
    assert set(merged) == {("dico", "radix")}
    agg = merged[("dico", "radix")]
    assert agg.operations == sum(r.stats.operations for r in results)
    assert agg.cycles == sum(r.stats.cycles for r in results)
    assert agg.miss_latency.count == sum(
        r.stats.miss_latency.count for r in results
    )
    # seeds actually differed (otherwise the merge test is vacuous)
    assert results[0].stats.operations != results[1].stats.operations
    # inputs untouched by the merge
    assert results[0].stats.miss_latency.count < agg.miss_latency.count
