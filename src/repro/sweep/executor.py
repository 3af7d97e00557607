"""The one executor of sweep points: each runs in a worker process.

``repro sweep`` (through :class:`~repro.sweep.runner.SweepRunner`) at
any ``--jobs`` and ``repro serve`` (through
:class:`~repro.serve.daemon.ExperimentServer`) execute every grid point
here, so fault injection, crash containment, retries and the stats
codec behave the same under either.  It is the only code that forks,
waits on, deadline-kills and retries a worker process.  Three layers:

* :func:`run_attempt` runs one attempt of one point in a worker
  process.  A worker runs attempt after attempt: after an ``ok`` reply
  it goes back to the :class:`AttemptRegistry` idle, and the next
  attempt takes it instead of forking.  A timeout, crash, cancel or
  ``exception`` outcome ends the worker, so a retry always starts in a
  new process.  The parent forks from its event-loop thread and awaits
  the worker's pipe and its process sentinel with ``loop.add_reader``,
  so no helper thread is alive at any fork.  A hung attempt is killed
  at its deadline; a worker that exits without a reply crashed.
* :func:`run_point` attempts a point until one attempt succeeds or the
  :class:`~repro.faults.FaultPolicy` runs out of retries.  Each attempt
  holds a worker slot; the seeded backoff between attempts does not.
  An ok result is stored in the cache (plus a plan's ``corrupt-cache``
  injection); an exhausted point carries a
  :class:`~repro.faults.FailureRecord`.
* :func:`run_points` drives a batch through ``jobs`` slots on a private
  event loop and hands each result to a callback outside the loop.
  However it returns, normally or because the callback raised (Ctrl-C,
  ``on_failure="raise"``), no worker process is left alive, busy or
  idle.

Only a worker ever receives a :class:`~repro.faults.FaultPlan` (in its
payload), so ``crash``, ``hang`` and ``corrupt-result`` injection live
in :func:`_attempt`.  The simulation itself is :func:`_execute_payload`.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import multiprocessing
import os
import signal
import stat
import time
import traceback
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

# the workload generator's first run imports numpy.random; every worker
# forks from this process, so import it once here, not once per worker
import numpy.random  # noqa: F401

from ..faults import FailureRecord, FaultPlan, FaultPolicy, InjectedFault
from ..faults.policy import backoff_delay
from ..stats.counters import RunStats
from ..stats.io import stats_from_dict, stats_to_dict
from .cache import ResultCache
from .runner import SweepResult
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
    """The last ``limit`` lines of the exception being handled."""
    lines = traceback.format_exc().strip().splitlines()
    return "\n".join(lines[-limit:])


def _execute_payload(payload: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
    """Simulate one spec document; return its stats document and the
    simulation's seconds.

    Fed plain dicts, so it works under both ``fork`` and ``spawn``.
    ``__trace_dir__`` makes it write a JSONL trace plus manifest there;
    it is not part of the spec's identity.
    """
    payload = dict(payload)
    trace_dir = payload.pop("__trace_dir__", None)
    spec = RunSpec.from_dict(payload)
    trace = None
    if trace_dir is not None:
        from pathlib import Path

        from ..api import TraceOptions

        out_dir = Path(trace_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        trace = TraceOptions(
            path=out_dir / f"{spec.fingerprint()[:16]}.jsonl"
        )
    start = time.perf_counter()
    stats = spec.execute(trace=trace)
    elapsed = time.perf_counter() - start
    return stats_to_dict(stats), elapsed


def _drop_inherited_sockets(keep: int) -> None:
    """Close every socket this process inherited except ``keep``.

    A worker forked by ``repro serve`` inherits the daemon's listening
    socket and its open client connections, and any worker inherits the
    parent's ends of its siblings' pipes.  A worker that outlives an
    attempt would hold them open: a client would never see its finished
    response reach EOF.  Pipes stay open: one is the write end of the
    multiprocessing sentinel, whose EOF tells the parent this worker
    died.
    """
    try:
        fds = [int(name) for name in os.listdir("/dev/fd")]
    except OSError:  # no descriptor listing on this platform
        return
    for fd in fds:
        if fd == keep:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:  # the listing's own descriptor, closed by now
            pass


def _attempt(conn, payload: Dict[str, Any]) -> bool:
    """Run one attempt and send its one reply: ``("ok", stats_doc,
    sim_s)`` or ``("error", failure_fields)``.  Returns whether the
    reply was ``ok``.

    The payload's ``__fault_plan__``/``__attempt__`` keys select this
    attempt's injected faults, matched against the spec fingerprint a
    plan-armed payload carries as ``__fingerprint__``.
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
        return True
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
        return False


def _worker_main(conn) -> None:
    """Entry point of a worker process: receive a payload and run it,
    until an attempt fails or the parent hangs up.  A process that dies
    without replying to an attempt crashed."""
    # ``repro serve``'s event loop made one of its sockets the signal
    # wakeup fd; once the sockets are dropped below, a Ctrl-C would
    # write to a closed (or reused) descriptor
    signal.set_wakeup_fd(-1)
    _drop_inherited_sockets(conn.fileno())
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if not _attempt(conn, payload):
            break


def _fork_worker() -> Tuple[Any, Any]:
    """Start an idle worker; returns its process and the parent's end
    of its duplex pipe."""
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=_worker_main, args=(child_conn,), daemon=True)
    # the child inherits the heap frozen: its collections never walk
    # the parent's objects, so they never write to (and copy) them
    gc.freeze()
    try:
        proc.start()
    finally:
        gc.unfreeze()
    child_conn.close()
    return proc, conn


class AttemptRegistry:
    """The worker processes of a batch or a daemon: those running an
    attempt, which whoever abandons them (a batch that stops early, a
    daemon shutting down) can kill, and the idle ones the next attempt
    takes instead of forking.

    Used from one event-loop thread only, so it needs no lock.
    """

    def __init__(self) -> None:
        self._procs: set = set()
        #: idle workers, as ``(process, pipe)`` pairs
        self.idle: list = []
        self.draining = False

    def add(self, proc) -> None:
        self._procs.add(proc)

    def discard(self, proc) -> None:
        self._procs.discard(proc)

    def __len__(self) -> int:
        """Workers running an attempt now."""
        return len(self._procs)

    def kill_all(self) -> int:
        """Hard-kill every worker, busy or idle; later attempts are
        refused.  Returns how many attempts it cut short."""
        self.draining = True
        busy, self._procs = list(self._procs), set()
        idle, self.idle = self.idle, []
        procs = busy + [proc for proc, _conn in idle]
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.join(timeout=5)
        for _proc, conn in idle:
            conn.close()
        return len(busy)


async def run_attempt(
    payload: Dict[str, Any],
    timeout_s: Optional[float],
    registry: AttemptRegistry,
) -> AttemptOutcome:
    """Execute one attempt in a worker process; never raises for the
    attempt's own failures.

    ``payload`` is a :class:`~repro.sweep.spec.RunSpec` document plus
    the ``__attempt__``/``__fault_plan__``/``__fingerprint__``/
    ``__trace_dir__`` keys the worker understands (a plan needs the
    fingerprint).  The attempt takes an idle worker from ``registry``,
    or forks one, and after an ``ok`` reply puts it back idle; any
    other outcome, or cancelling the awaiting task, ends it.
    """
    if registry.draining:
        return ("crash", "executor is shutting down", 0.0)
    start = time.monotonic()
    proc, conn = registry.idle.pop() if registry.idle else _fork_worker()
    registry.add(proc)
    reuse = False
    loop = asyncio.get_running_loop()
    ready = asyncio.Event()
    loop.add_reader(conn.fileno(), ready.set)
    loop.add_reader(proc.sentinel, ready.set)
    try:
        try:
            conn.send(payload)
        except OSError:  # the worker died idle: reported as a crash below
            pass
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
                        reuse = True
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
        registry.discard(proc)
        if reuse and not registry.draining:
            registry.idle.append((proc, conn))
        else:
            conn.close()
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5)


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
    registry: AttemptRegistry,
    plan: Optional[FaultPlan] = None,
    cache: Optional[ResultCache] = None,
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
    cancels the outstanding points and then kills every worker of the
    batch, busy or idle.
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
                # let each attempt's finally end and reap its worker
                loop.run_until_complete(asyncio.wait(set(tasks)))
        finally:
            registry.kill_all()
            loop.close()
