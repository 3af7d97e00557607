"""The one executor that runs sweep points outside the calling process.

``repro sweep`` (through :class:`~repro.sweep.runner.SweepRunner`) and
``repro serve`` (through :class:`~repro.serve.daemon.ExperimentServer`)
execute grid points here, so fault injection, crash containment,
retries and the stats codec behave the same under either.  It is the
only code that spawns, waits on, deadline-kills and retries a worker
process.  Three layers:

* :func:`run_attempt` runs one attempt of one point in a fresh
  process.  The parent forks from its event-loop thread and awaits the
  result pipe and the process sentinel with ``loop.add_reader``, so no
  helper thread is alive at any fork.  A hung attempt is killed at its
  deadline; a process that exits without a result is a crash.
* :func:`run_point` attempts a point until one attempt succeeds or the
  :class:`~repro.faults.FaultPolicy` runs out of retries.  Each attempt
  holds a worker slot; the seeded backoff between attempts does not.
  An ok result is stored in the cache (plus a plan's ``corrupt-cache``
  injection); an exhausted point carries a
  :class:`~repro.faults.FailureRecord`.
* :func:`run_points` drives a batch through ``jobs`` slots on a private
  event loop and hands each result to a callback outside the loop.
  However it returns, normally or because the callback raised (Ctrl-C,
  ``on_failure="raise"``), no attempt process is left alive.

Only a worker ever receives a :class:`~repro.faults.FaultPlan` (in its
payload), so ``crash``, ``hang`` and ``corrupt-result`` injection live
in :func:`_attempt_main`.  The simulation itself is
:func:`repro.sweep.runner._execute_payload`, the same function the
in-process path calls.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import multiprocessing
import os
import time
import traceback
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

# the workload generator's first run imports numpy.random; every attempt
# forks from this process, so import it once here, not once per worker
import numpy.random  # noqa: F401

from ..faults import FailureRecord, FaultPlan, FaultPolicy, InjectedFault
from ..faults.policy import backoff_delay
from ..stats.counters import RunStats
from ..stats.io import stats_from_dict
from .cache import ResultCache
from .runner import SweepResult, _execute_payload
from .spec import RunSpec

__all__ = [
    "AttemptOutcome",
    "AttemptRegistry",
    "run_attempt",
    "run_point",
    "run_points",
]

_log = logging.getLogger("repro.sweep")

#: exit code an injected worker crash dies with (no cleanup, no result)
_CRASH_EXIT = 87

#: ``(kind, data, elapsed_s)``.  ``kind`` is ``ok`` (data: the stats
#: document; elapsed: the simulation's own seconds), ``exception``
#: (data: the failure fields), ``crash`` or ``timeout`` (data: a
#: message; elapsed: wall seconds)
AttemptOutcome = Tuple[str, Any, float]


def _traceback_tail(limit: int = 15) -> str:
    lines = traceback.format_exc().strip().splitlines()
    return "\n".join(lines[-limit:])


def _attempt_main(conn, payload: Dict[str, Any]) -> None:
    """Entry point of an attempt's process.

    Sends exactly one ``("ok", stats_doc, sim_s)`` or ``("error",
    failure_fields)`` message; a process that exits without sending one
    crashed.  The payload's ``__fault_plan__``/``__attempt__`` keys
    select this attempt's injected faults, matched against the spec
    fingerprint a plan-armed payload carries as ``__fingerprint__``.
    """
    try:
        payload = dict(payload)
        plan_doc = payload.pop("__fault_plan__", None)
        attempt = payload.pop("__attempt__", 1)
        fp = payload.pop("__fingerprint__", None)
        plan = None if plan_doc is None else FaultPlan.from_dict(plan_doc)
        if plan is not None:
            kind = plan.first_fault(fp, attempt, ("crash", "hang"))
            if kind == "crash":
                os._exit(_CRASH_EXIT)
            if kind == "hang":
                time.sleep(plan.hang_s)
                raise InjectedFault(
                    f"injected worker hang (attempt {attempt}, "
                    f"spec {fp[:12]})"
                )
        doc, sim_s = _execute_payload(payload)
        if plan is not None and plan.first_fault(
            fp, attempt, ("corrupt-result",)
        ):
            # an undecodable document: the parent's stats_from_dict
            # raises, which is exactly how a garbled worker reply presents
            doc = {"__injected_corrupt_result__": fp[:12]}
        conn.send(("ok", doc, sim_s))
    except BaseException as exc:  # a worker must report, never re-raise
        try:
            conn.send(
                (
                    "error",
                    {
                        "exc_type": type(exc).__name__,
                        "message": str(exc),
                        "traceback_tail": _traceback_tail(),
                    },
                )
            )
        except (OSError, ValueError):  # parent is gone
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class AttemptRegistry:
    """The live attempt processes, so whoever abandons them (a batch
    that stops early, a daemon shutting down) can kill them.

    Used from one event-loop thread only, so it needs no lock.
    """

    def __init__(self) -> None:
        self._procs: set = set()
        self.draining = False

    def add(self, proc) -> None:
        self._procs.add(proc)

    def discard(self, proc) -> None:
        self._procs.discard(proc)

    def __len__(self) -> int:
        return len(self._procs)

    def kill_all(self) -> int:
        """Hard-kill every live attempt; later attempts are refused."""
        self.draining = True
        procs, self._procs = list(self._procs), set()
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.join(timeout=5)
        return len(procs)


async def run_attempt(
    payload: Dict[str, Any],
    timeout_s: Optional[float],
    registry: Optional[AttemptRegistry] = None,
) -> AttemptOutcome:
    """Execute one attempt in a fresh process; never raises for the
    attempt's own failures.

    ``payload`` is a :class:`~repro.sweep.spec.RunSpec` document plus
    the ``__attempt__``/``__fault_plan__``/``__fingerprint__``/
    ``__trace_dir__`` keys the worker understands (a plan needs the
    fingerprint).  Cancelling the awaiting task kills the process.
    """
    if registry is not None and registry.draining:
        return ("crash", "executor is shutting down", 0.0)
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_attempt_main, args=(child_conn, payload), daemon=True
    )
    start = time.monotonic()
    # the child inherits the heap frozen: its collections never walk
    # the parent's objects, so they never write to (and copy) them
    gc.freeze()
    try:
        proc.start()
    finally:
        gc.unfreeze()
    child_conn.close()
    if registry is not None:
        registry.add(proc)
    loop = asyncio.get_running_loop()
    ready = asyncio.Event()
    loop.add_reader(conn.fileno(), ready.set)
    loop.add_reader(proc.sentinel, ready.set)
    try:
        while True:
            if timeout_s is None:
                await ready.wait()
            else:
                left = start + timeout_s - time.monotonic()
                try:
                    await asyncio.wait_for(ready.wait(), max(0.0, left))
                except asyncio.TimeoutError:
                    pass
            ready.clear()
            elapsed = time.monotonic() - start
            if conn.poll():
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # the write end closed without a message: the
                    # process died; join it for its exit code
                    proc.join(timeout=5)
                else:
                    if msg[0] == "ok":
                        return ("ok", msg[1], msg[2])
                    return ("exception", msg[1], elapsed)
            elif proc.is_alive():
                if timeout_s is None or elapsed < timeout_s:
                    continue
                proc.kill()
                return ("timeout", f"attempt exceeded timeout_s={timeout_s}",
                        elapsed)
            return (
                "crash",
                "worker process died without a result "
                f"(exit code {proc.exitcode})",
                elapsed,
            )
    finally:
        loop.remove_reader(conn.fileno())
        loop.remove_reader(proc.sentinel)
        conn.close()
        if proc.is_alive():  # cancelled mid-attempt
            proc.kill()
        proc.join(timeout=5)
        if registry is not None:
            registry.discard(proc)


def _store_result(
    cache: ResultCache,
    spec: RunSpec,
    fp: str,
    stats: RunStats,
    elapsed_s: float,
    plan: Optional[FaultPlan],
) -> None:
    """Cache an ok result; a plan's ``corrupt-cache`` fault (keyed on
    attempt 1) then garbles the fresh entry on disk."""
    cache.put(spec, stats, elapsed_s, fp)
    if plan is not None and plan.first_fault(fp, 1, ("corrupt-cache",)):
        path = cache.path_for(spec, fp)
        try:
            text = path.read_text()
            path.write_text(text[: max(1, len(text) // 2)] + '"CORRUPT')
        except OSError:  # pragma: no cover - entry vanished mid-injection
            pass


async def run_point(
    spec: RunSpec,
    payload: Dict[str, Any],
    fp: str,
    policy: FaultPolicy,
    slots: asyncio.Semaphore,
    *,
    plan: Optional[FaultPlan] = None,
    cache: Optional[ResultCache] = None,
    registry: Optional[AttemptRegistry] = None,
) -> SweepResult:
    """Attempt ``spec`` until it succeeds or ``policy`` runs out of
    retries.

    Each attempt holds one of ``slots`` (the worker slots of a sweep
    batch or of the daemon) while its process runs; the backoff between
    attempts is awaited outside it.  An
    ok result's ``elapsed_s`` is the successful attempt's simulation
    seconds, the figure the cache entry stores; a failed result's is
    the wall time of all its attempts.
    """
    wall = 0.0
    attempt = 1
    while True:
        doc = dict(payload, __attempt__=attempt)
        if plan is not None:
            doc["__fault_plan__"] = plan.to_dict()
            doc["__fingerprint__"] = fp
        async with slots:
            started = time.monotonic()
            kind, data, sim_s = await run_attempt(
                doc, policy.timeout_s, registry
            )
            wall += time.monotonic() - started
        if kind == "ok":
            try:
                stats = stats_from_dict(data)
            except (KeyError, TypeError, ValueError) as exc:
                # an undecodable stats document is a failed attempt
                # (corrupt worker reply), not a fatal error
                kind, data = "exception", {
                    "exc_type": type(exc).__name__,
                    "message": f"undecodable stats document: {exc}",
                    "traceback_tail": _traceback_tail(),
                }
            else:
                if cache is not None:
                    _store_result(cache, spec, fp, stats, sim_s, plan)
                return SweepResult(
                    spec=spec,
                    stats=stats,
                    elapsed_s=sim_s,
                    cached=False,
                    attempts=attempt,
                )
        if attempt > policy.max_retries:
            fields = data if kind == "exception" else {"message": data}
            record = FailureRecord(
                kind=kind,
                attempts=attempt,
                elapsed_s=round(wall, 6),
                fingerprint=fp,
                **fields,
            )
            return SweepResult(
                spec=spec,
                stats=None,
                elapsed_s=wall,
                cached=False,
                failure=record,
                attempts=attempt,
            )
        delay = backoff_delay(fp, attempt)
        _log.info(
            "retrying %s after %s (attempt %d/%d, backoff %.3fs)",
            spec.label, kind, attempt, policy.max_retries + 1, delay,
        )
        await asyncio.sleep(delay)
        attempt += 1


def run_points(
    points: Sequence[Tuple[int, RunSpec, Dict[str, Any], str]],
    jobs: int,
    policy: FaultPolicy,
    on_result: Callable[[int, SweepResult], None],
    *,
    plan: Optional[FaultPlan] = None,
    cache: Optional[ResultCache] = None,
) -> None:
    """Run ``(index, spec, payload, fingerprint)`` points through
    ``jobs`` worker slots, calling ``on_result(index, result)`` as each
    lands (in index order among those landing together).

    The event loop is private and ``on_result`` runs outside it, so an
    exception from ``on_result`` simply ends the batch.  Every exit path
    cancels the outstanding points and kills their processes first.
    """
    loop = asyncio.new_event_loop()
    registry = AttemptRegistry()
    tasks: Dict[Any, int] = {}

    async def start() -> None:
        sem = asyncio.Semaphore(jobs)
        for i, spec, payload, fp in points:
            task = loop.create_task(
                run_point(
                    spec, payload, fp, policy, sem,
                    plan=plan, cache=cache, registry=registry,
                )
            )
            tasks[task] = i

    try:
        loop.run_until_complete(start())
        pending = set(tasks)
        while pending:
            done, pending = loop.run_until_complete(
                asyncio.wait(pending, return_when=asyncio.FIRST_COMPLETED)
            )
            for task in sorted(done, key=tasks.__getitem__):
                on_result(tasks[task], task.result())
    finally:
        try:
            for task in tasks:
                task.cancel()
            if tasks:
                # let each attempt's finally kill and reap its process
                loop.run_until_complete(asyncio.wait(set(tasks)))
        finally:
            registry.kill_all()
            loop.close()
