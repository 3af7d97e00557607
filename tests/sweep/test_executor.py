"""The shared attempt executor, :mod:`repro.sweep.executor`.

Every pending point of a sweep runs through it, at any ``jobs``.  The
first cases pin its exits (Ctrl-C from a progress callback,
``on_failure="raise"``), that it forks once per worker slot and only
from a parent with no other thread, and that importing the sweep API
leaves ``asyncio`` unimported.
``os.cpu_count`` is pinned to 2 so ``jobs=2`` is not clamped to one
worker on a single-core machine.

The rest drive one attempt as the daemon runs it, through
:func:`run_attempt` and :class:`AttemptRegistry` directly, with the
same tiny specs and fault plans as the sweep resilience suite:
outcomes, deadlines, the registry and worker reuse.
"""

import asyncio
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.faults import FaultPlan, FaultRule
from repro.sim.config import small_test_chip
from repro.stats.io import stats_digest, stats_from_dict
from repro.sweep import (
    RunSpec,
    SweepExecutionError,
    SweepInterrupted,
    SweepRunner,
)
from repro.sweep.executor import AttemptRegistry
from repro.sweep.executor import run_attempt as _run_attempt
from repro.sweep.spec import config_to_dict

TINY = config_to_dict(small_test_chip())


def tiny_grid(protocols=("directory", "dico", "dico-providers")):
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


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def test_interrupt_from_progress_keeps_first_result_and_kills_workers(
    tmp_path, two_cpus
):
    grid = tiny_grid()
    lines = []

    def progress(line):
        lines.append(line)
        if len(lines) == 2:
            raise KeyboardInterrupt

    runner = SweepRunner(jobs=2, cache_dir=str(tmp_path), progress=progress)
    with pytest.raises(SweepInterrupted) as exc_info:
        runner.run(grid)
    partial = exc_info.value.results
    assert len(partial) == 1
    assert partial[0].ok and not partial[0].cached
    assert multiprocessing.active_children() == []
    # an attempt caches its result before its progress line is
    # reported, so the cache holds the returned point and the one whose
    # line raised; a plain re-run executes exactly the rest
    cached = [s for s in grid if runner.cache.get(s) is not None]
    assert partial[0].spec in cached and len(cached) >= 2
    rerun = SweepRunner(jobs=2, cache_dir=str(tmp_path))
    assert all(r.ok for r in rerun.run(grid))
    assert rerun.executed == len(grid) - len(cached)
    assert rerun.cache_hits == len(cached)


def test_ctrl_c_of_a_jobs_1_sweep_exits_130_and_leaves_no_process(tmp_path):
    # what a terminal does: SIGINT to the sweep's whole process group,
    # its one worker included, while that worker runs the second point
    src = Path(repro.__file__).resolve().parent.parent
    cmd = [
        sys.executable, "-m", "repro", "sweep", "--jobs", "1",
        "--protocols", "directory,dico,dico-providers",
        "--workloads", "radix", "--cycles", "30000", "--warmup", "0",
        "--cache-dir", str(tmp_path),
    ]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        bufsize=0, start_new_session=True,
    )
    try:
        err = b""
        deadline = time.monotonic() + 120
        while b"[1/3]" not in err:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([proc.stderr], [], [], max(0.0, left))
            line = proc.stderr.readline() if ready else b""
            assert line, f"no [1/3] progress line: {err!r}"
            err += line
        # the sweep prints a point's line before it stores the point;
        # let it store the first and hand the second to its worker
        time.sleep(0.2)
        os.killpg(proc.pid, signal.SIGINT)
        err += proc.communicate(timeout=120)[1]
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    err = err.decode()
    assert proc.returncode == 130, err
    assert "interrupted after 1/3" in err and "Traceback" not in err
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    rerun = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=120
    )
    assert rerun.returncode == 0, rerun.stderr
    assert "2 simulated, 1 cached" in rerun.stderr


def test_raise_policy_kills_every_live_attempt(two_cpus):
    grid = tiny_grid()
    plan = FaultPlan(
        seed=0,
        rules=(FaultRule(kind="crash", match=grid[0].fingerprint()[:16]),),
    )
    runner = SweepRunner(jobs=2, fault_plan=plan)
    with pytest.raises(SweepExecutionError) as exc_info:
        runner.run(grid)
    assert exc_info.value.spec == grid[0]
    assert exc_info.value.record.kind == "crash"
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_workers_fork_from_a_parent_with_no_other_thread(
    monkeypatch, two_cpus
):
    real_fork = os.fork
    threads_at_fork = []

    def fork():
        threads_at_fork.append(threading.active_count())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    before = threading.active_count()
    results = SweepRunner(jobs=2).run(tiny_grid())
    assert all(r.ok and not r.cached for r in results)
    # two slots fork at most two workers for three points, each from a
    # parent with no other thread, and none outlives the batch
    assert 1 <= len(threads_at_fork) <= 2
    assert threads_at_fork == [before] * len(threads_at_fork)
    assert multiprocessing.active_children() == []


def test_importing_the_sweep_api_leaves_asyncio_out():
    src = Path(repro.__file__).resolve().parent.parent
    code = (
        "import sys; import repro.api, repro.sweep; "
        "print('asyncio' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "False"


# ------------------------------------------------------------ one attempt


def run_attempt(payload, timeout_s, registry=None):
    """One attempt on a fresh event loop.  Without a ``registry`` it
    runs in a new worker, killed after it."""
    own = AttemptRegistry()
    try:
        return asyncio.run(_run_attempt(
            payload, timeout_s, own if registry is None else registry
        ))
    finally:
        own.kill_all()


def tiny_payload(attempt=1, plan=None, seed=1, protocol="dico"):
    spec = RunSpec(
        protocol=protocol,
        workload="radix",
        seed=seed,
        cycles=1_500,
        warmup=500,
        config=TINY,
    )
    payload = spec.to_dict()
    payload["__attempt__"] = attempt
    if plan is not None:
        payload["__fault_plan__"] = plan.to_dict()
        payload["__fingerprint__"] = spec.fingerprint()
    return spec, payload


def test_ok_attempt_returns_stats_doc():
    spec, payload = tiny_payload()
    kind, doc, elapsed = run_attempt(payload, timeout_s=60.0)
    assert kind == "ok"
    stats = stats_from_dict(doc)
    assert stats.operations > 0
    assert elapsed > 0


def test_injected_crash_is_contained():
    plan = FaultPlan(seed=3, rules=(FaultRule(kind="crash", rate=1.0),))
    spec, payload = tiny_payload(plan=plan)
    kind, message, _elapsed = run_attempt(payload, timeout_s=60.0)
    assert kind == "crash"
    assert "died" in message


def test_injected_hang_hits_the_deadline():
    plan = FaultPlan(
        seed=3, rules=(FaultRule(kind="hang", rate=1.0),), hang_s=30.0
    )
    spec, payload = tiny_payload(plan=plan)
    kind, message, elapsed = run_attempt(payload, timeout_s=1.0)
    assert kind == "timeout"
    assert elapsed < 15.0  # killed at the deadline, not after hang_s


def test_bad_spec_is_an_exception_outcome():
    _spec, payload = tiny_payload()
    payload["protocol"] = "no-such-protocol"
    kind, failure, _elapsed = run_attempt(payload, timeout_s=60.0)
    assert kind == "exception"
    assert failure["exc_type"]
    assert failure["message"]


def test_fault_only_on_matched_attempt():
    plan = FaultPlan(
        seed=3, rules=(FaultRule(kind="crash", rate=1.0, times=1),)
    )
    _spec, payload = tiny_payload(attempt=2, plan=plan)
    kind, _doc, _elapsed = run_attempt(payload, timeout_s=60.0)
    assert kind == "ok"  # times=1 leaves attempt 2 alone


def test_registry_refuses_work_while_draining():
    registry = AttemptRegistry()
    assert registry.kill_all() == 0
    _spec, payload = tiny_payload()
    kind, message, elapsed = run_attempt(
        payload, timeout_s=60.0, registry=registry
    )
    assert kind == "crash"
    assert "shutting down" in message


def test_registry_tracks_and_discards():
    registry = AttemptRegistry()
    _spec, payload = tiny_payload()
    kind, _doc, _elapsed = run_attempt(
        payload, timeout_s=60.0, registry=registry
    )
    assert kind == "ok"
    assert len(registry) == 0  # discarded after completion
    assert len(registry.idle) == 1  # and kept for the next attempt
    registry.kill_all()
    assert registry.idle == [] and multiprocessing.active_children() == []


# ------------------------------------------------------------ worker reuse


def idle_pids(registry):
    return [proc.pid for proc, _conn in registry.idle]


def test_reused_worker_gives_the_digest_of_a_fresh_one():
    registry = AttemptRegistry()
    _first, first = tiny_payload(seed=2, protocol="mesi-snoop")
    _second, second = tiny_payload(seed=1)

    async def one_worker_two_specs():
        try:
            assert (await _run_attempt(first, 60.0, registry))[0] == "ok"
            pids = idle_pids(registry)
            kind, doc, _elapsed = await _run_attempt(second, 60.0, registry)
            assert kind == "ok"
            assert idle_pids(registry) == pids and len(pids) == 1
            return doc
        finally:
            registry.kill_all()

    reused = asyncio.run(one_worker_two_specs())
    kind, fresh, _elapsed = run_attempt(second, timeout_s=60.0)
    assert kind == "ok"
    assert stats_digest(stats_from_dict(reused)) == stats_digest(
        stats_from_dict(fresh)
    )


def _failing_attempt(outcome, registry):
    """A coroutine whose attempt ends with ``outcome``."""
    if outcome == "exception":
        _spec, payload = tiny_payload()
        payload["protocol"] = "no-such-protocol"
        return _run_attempt(payload, 60.0, registry)
    if outcome == "crash":
        plan = FaultPlan(seed=3, rules=(FaultRule(kind="crash", rate=1.0),))
        return _run_attempt(tiny_payload(plan=plan)[1], 60.0, registry)
    plan = FaultPlan(
        seed=3, rules=(FaultRule(kind="hang", rate=1.0),), hang_s=30.0
    )
    payload = tiny_payload(plan=plan)[1]
    if outcome == "timeout":
        return _run_attempt(payload, 1.0, registry)

    async def cancelled():
        try:
            await asyncio.wait_for(_run_attempt(payload, None, registry), 1.0)
        except asyncio.TimeoutError:
            return ("cancel", None, 0.0)

    return cancelled()


@pytest.mark.parametrize("outcome", ["crash", "timeout", "cancel", "exception"])
def test_a_failed_attempt_ends_its_worker(outcome):
    registry = AttemptRegistry()
    _spec, payload = tiny_payload()

    async def ok_failed_ok():
        try:
            assert (await _run_attempt(payload, 60.0, registry))[0] == "ok"
            (reused,) = idle_pids(registry)
            kind, _data, _elapsed = await _failing_attempt(outcome, registry)
            assert kind == outcome
            assert registry.idle == [] and len(registry) == 0
            assert (await _run_attempt(payload, 60.0, registry))[0] == "ok"
            return reused, idle_pids(registry)
        finally:
            registry.kill_all()

    reused, after = asyncio.run(ok_failed_ok())
    assert len(after) == 1 and after[0] != reused
    assert multiprocessing.active_children() == []
