"""``python -m repro serve`` — the experiment daemon: one job queue.

:class:`ExperimentServer` puts an asyncio HTTP control plane in front
of the existing sweep machinery.  Every result still flows through the
same code the CLI uses — :mod:`repro.sweep.executor` for out-of-process
execution, :class:`~repro.sweep.cache.ResultCache` for
content-addressed dedup and as the checkpoint of every completed
point — so a grid served over HTTP is bit-identical to the same grid
run by ``repro sweep``.  The daemon itself adds a queue cap,
single-flight dedup, cancellation and HTTP, all on one event-loop
thread: workers fork from it, and file I/O runs on it, so no helper
thread is alive at any fork.  A worker lives on across points and jobs
until one of its attempts fails or the daemon shuts down.

The robustness contract:

* **Backpressure** — the unfinished points of all jobs count against
  one queue cap (``max_queue_points``).  A submission that would
  exceed it gets ``429`` with ``Retry-After``; daemon memory never
  grows unboundedly with offered load.
* **Worker slots** — each attempt holds one of ``workers`` slots of
  one ``asyncio.Semaphore``, granted in arrival order.
* **Graceful degradation** — each point runs through the sweep
  executor's :func:`~repro.sweep.executor.run_point`, holding a worker
  slot per attempt: crashes/hangs/timeouts become retries with seeded
  backoff that holds no slot and, when exhausted, structured
  :class:`~repro.faults.FailureRecord` events — never daemon death.
* **Cancellation** — cancelling a job ends its unfinished points, and
  an execution no other job still waits on is cancelled with them,
  which kills the worker running its attempt.
* **Restart = resume** — job records persist in the
  :class:`~repro.serve.store.JobStore`; completed points persist in
  the result cache.  A daemon killed hard and restarted re-serves
  cached points and re-executes only the remainder, exactly as a
  re-run of the same ``repro sweep`` does.
* **Clean shutdown** — SIGTERM/SIGINT (or ``POST /shutdown``) stops
  accepting, drains in-flight points for ``drain_s`` seconds, then
  checkpoints: every worker, busy or idle, is killed, and the
  still-active job records make their points run again on the next
  start.

HTTP API (all JSON; NDJSON for result streams)::

    POST   /jobs                 {"specs": [...], "policy"?}
                                 -> 202 {"job_id", ...} | 429 backpressure
    GET    /jobs                 -> job summaries
    GET    /jobs/<id>            -> one job's status/counts
    GET    /jobs/<id>/results    -> NDJSON, one line per finished point
                                    (?wait=1 streams until terminal)
    DELETE /jobs/<id>            -> cancel pending points
    GET    /healthz, /stats      -> liveness, structured counters
    POST   /shutdown             {"drain": bool} -> graceful stop
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from ..faults import FailureRecord, FaultPlan, FaultPolicy
from ..sim.config import ConfigError
from ..stats.counters import RunStats
from ..stats.io import stats_digest
from ..sweep.cache import ResultCache
from ..sweep.executor import AttemptRegistry, run_point
from ..sweep.spec import RunSpec
from .http import (
    HttpError,
    Request,
    Response,
    error_body,
    json_response,
    ndjson_response,
    read_request,
    write_response,
)
from .models import Job, PointState
from .store import JobStore

__all__ = ["ExperimentServer", "ServeConfig", "serve", "spec_from_doc"]

_log = logging.getLogger("repro.serve")

#: ``Retry-After`` of a refused submission: the queue drains at a speed
#: the daemon cannot know, so this is the poll interval it suggests
_RETRY_AFTER_S = 1


@dataclass
class ServeConfig:
    """Everything the daemon needs, CLI-independent."""

    cache_dir: str
    host: str = "127.0.0.1"
    port: int = 0
    #: worker slots: attempts running at once, each in a worker
    #: process that the next attempt reuses after an ``ok`` one
    workers: int = 2
    #: bound on the unfinished points of all jobs; beyond it, ``429``
    max_queue_points: int = 1024
    #: baseline per-job policy; a job's ``policy`` document overlays it
    default_policy: FaultPolicy = field(
        default_factory=lambda: FaultPolicy(
            timeout_s=300.0, max_retries=1, on_failure="skip"
        )
    )
    fault_plan: Optional[FaultPlan] = None
    #: graceful-shutdown drain budget before checkpointing
    drain_s: float = 10.0
    #: written with the bound port once listening (for ``--port 0``)
    port_file: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_queue_points < 1:
            raise ValueError(
                "max_queue_points must be >= 1, "
                f"got {self.max_queue_points}"
            )


def spec_from_doc(doc: Any) -> RunSpec:
    """A submitted point document -> :class:`RunSpec` via
    :meth:`RunSpec.from_dict`; bad outside input becomes a ``400``."""
    if not isinstance(doc, dict):
        raise HttpError(400, f"spec must be an object, got {type(doc).__name__}")
    for key in ("protocol", "workload"):
        if key not in doc:
            raise HttpError(400, f"spec is missing required key {key!r}")
    try:
        return RunSpec.from_dict(doc)
    except KeyError as exc:  # inside a nested document
        raise HttpError(400, f"malformed spec: missing key {exc.args[0]!r}")
    except ConfigError as exc:
        raise HttpError(400, f"invalid spec: {exc}")
    except (TypeError, ValueError) as exc:
        raise HttpError(400, f"malformed spec: {exc}")


class _Flight:
    """One in-progress execution and how many points wait on it."""

    __slots__ = ("task", "waiters")

    def __init__(self, task: asyncio.Task) -> None:
        self.task = task
        self.waiters = 0


class ExperimentServer:
    """The daemon: queue cap, execution, cancellation, persistence."""

    def __init__(self, config: ServeConfig) -> None:
        if not config.cache_dir:
            raise ValueError("serve requires a cache directory")
        self.config = config
        self.cache = ResultCache(config.cache_dir)
        self.store = JobStore(config.cache_dir)
        self._slots = asyncio.Semaphore(config.workers)
        #: unfinished points of all jobs, bounded by max_queue_points
        self._pending = 0
        self.jobs: Dict[str, Job] = {}
        self._tasks: set = set()
        #: open client connections' handler tasks, ended at shutdown
        self._conns: set = set()
        self._point_tasks: Dict[Tuple[str, int], asyncio.Task] = {}
        #: single-flight map: spec fingerprint -> in-progress execution
        self._inflight: Dict[str, _Flight] = {}
        self._attempts = AttemptRegistry()
        self._jobs_seq = 0
        self.counters: Dict[str, int] = {
            "jobs_submitted": 0,
            "jobs_resumed": 0,
            "points_ok": 0,
            "points_failed": 0,
            "points_cancelled": 0,
            "points_resumed": 0,
            "executed": 0,
            "cache_hits": 0,
            "dedup": 0,
            "retries": 0,
            "rejected": 0,
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._closing = asyncio.Event()
        self._shutdown_drain = True
        self._started_unix = time.time()
        self._started_monotonic = time.monotonic()
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        self._resume_jobs()
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.port_file:
            self._write_port_file()
        _log.info(
            "serve: listening on %s:%d (cache %s, %d workers, queue cap %d)",
            self.config.host, self.port, self.config.cache_dir,
            self.config.workers, self.config.max_queue_points,
        )

    def _write_port_file(self) -> None:
        path = Path(self.config.port_file)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".port-")
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{self.port}\n")
        os.replace(tmp, path)

    async def run(self) -> None:
        """Start, serve until told to stop, then shut down cleanly."""
        await self.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._closing.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await self._closing.wait()
        finally:
            await self.shutdown(drain=self._shutdown_drain)

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting; drain or checkpoint; never drop silently.

        With ``drain=True``, in-flight points get ``drain_s`` seconds
        to finish (their results are cached as they land).  Whatever
        remains is checkpointed: tasks cancelled, worker processes
        (busy or idle) killed — the cached points plus the
        still-``active`` job records make the next start resume them.
        Only then are the open client connections closed, which ends
        the result streams of unfinished jobs, and only after that is
        the listener awaited: from CPython 3.12.1
        ``Server.wait_closed`` waits for every client connection, so
        one open stream awaited first would block shutdown for good.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
        if drain and self.config.drain_s > 0:
            active = [t for t in self._tasks if not t.done()]
            if active:
                await asyncio.wait(active, timeout=self.config.drain_s)
        leftovers = [t for t in self._tasks if not t.done()]
        for task in leftovers:
            task.cancel()
        if leftovers:
            await asyncio.wait(leftovers, timeout=5)
        killed = self._attempts.kill_all()
        if killed:
            _log.info("shutdown: killed %d in-flight attempt(s); their "
                      "points will re-run on resume", killed)
        for job in self.jobs.values():
            self.store.save(self._job_record(job))
        conns = [t for t in self._conns if not t.done()]
        for task in conns:
            task.cancel()
        if conns:
            await asyncio.wait(conns, timeout=5)
        if server is not None:
            await server.wait_closed()

    # ------------------------------------------------------------------
    # task bookkeeping

    def _track(self, task: asyncio.Task) -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _spawn_point(self, job: Job, point: PointState) -> None:
        task = asyncio.create_task(self._point_task(job, point))
        self._track(task)
        self._point_tasks[(job.job_id, point.index)] = task
        task.add_done_callback(
            lambda t, key=(job.job_id, point.index):
            self._point_tasks.pop(key, None)
        )

    # ------------------------------------------------------------------
    # resume

    def _resume_jobs(self) -> None:
        for doc in self.store.load_active():
            job_id = doc["job_id"]
            try:
                specs = [spec_from_doc(d) for d in doc["specs"]]
                policy = FaultPolicy.from_dict(doc.get("policy") or {})
            except (HttpError, KeyError, TypeError, ValueError) as exc:
                _log.warning("cannot resume job %s (%s); leaving its "
                             "record on disk", job_id, exc)
                continue
            job = Job(
                job_id, specs, policy, created_unix=doc.get("created_unix")
            )
            self.jobs[job_id] = job
            pending: List[PointState] = []
            for point in job.points:
                stats = self.cache.get(point.spec, point.fingerprint)
                if stats is None:
                    # never finished, failed, or its entry was lost or
                    # quarantined: re-execute
                    pending.append(point)
                    continue
                event = {
                    "index": point.index,
                    "fingerprint": point.fingerprint,
                    "resumed": True,
                    **self._ok_outcome(
                        stats, cached=True, attempts=0, elapsed=0.0
                    ),
                }
                point.event = event
                point.status = "ok"
                job.events.append(event)
                self.counters["points_ok"] += 1
                self.counters["points_resumed"] += 1
            self.counters["jobs_resumed"] += 1
            if not pending:
                self.store.save(self._job_record(job))
                continue
            # resumed work was admitted before the restart; the queue
            # cap must not bounce it now
            self._pending += len(pending)
            for point in pending:
                self._spawn_point(job, point)
            _log.info("resume: job %s — %d point(s) already ok, %d to run",
                      job_id, len(job.events), len(pending))

    # ------------------------------------------------------------------
    # execution

    async def _point_task(self, job: Job, point: PointState) -> None:
        try:
            if job.cancelled:
                raise asyncio.CancelledError
            point.status = "running"
            outcome = await self._outcome_for(job, point)
        except asyncio.CancelledError:
            if job.cancelled and not point.terminal:
                # job-level cancel: record a structured terminal event
                record = FailureRecord(
                    kind="interrupted",
                    message="cancelled by client",
                    attempts=0,
                    fingerprint=point.fingerprint,
                )
                await self._finish_point(
                    job,
                    point,
                    {
                        "status": "cancelled",
                        "cached": False,
                        "attempts": 0,
                        "elapsed_s": 0.0,
                        "failure": record.to_dict(),
                    },
                )
                return
            # daemon shutdown checkpoint: leave the point unfinished
            # so the next start re-runs it
            raise
        await self._finish_point(job, point, outcome)

    async def _outcome_for(
        self, job: Job, point: PointState
    ) -> Dict[str, Any]:
        """Single-flight execution keyed by content fingerprint.

        A cancelled point that was the last to wait on an unfinished
        execution cancels it, which kills the worker running it.
        """
        fp = point.fingerprint
        flight = self._inflight.get(fp)
        if flight is None or flight.task.done():
            task = asyncio.create_task(
                self._execute_fp(point.spec, fp, job.policy)
            )
            flight = self._inflight[fp] = _Flight(task)
            task.add_done_callback(
                lambda _task, fp=fp, flight=flight: self._forget(fp, flight)
            )
            self._track(task)
            shared = False
        else:
            shared = True
            self.counters["dedup"] += 1
        flight.waiters += 1
        try:
            # shield: one point's cancel must not cancel the execution
            # points of other jobs still wait on
            base = await asyncio.shield(flight.task)
        except asyncio.CancelledError:
            flight.waiters -= 1
            if not flight.waiters and not flight.task.done():
                flight.task.cancel()
                # forget it now, not when the cancel lands: a later
                # submission of this spec must start a fresh execution
                self._forget(fp, flight)
            raise
        outcome = dict(base)
        if shared:
            outcome["dedup"] = True
        return outcome

    def _forget(self, fp: str, flight: _Flight) -> None:
        if self._inflight.get(fp) is flight:
            del self._inflight[fp]

    def _ok_outcome(
        self, stats: RunStats, *, cached: bool, attempts: int, elapsed: float
    ) -> Dict[str, Any]:
        return {
            "status": "ok",
            "cached": cached,
            "attempts": attempts,
            "elapsed_s": round(elapsed, 6),
            "stats_sha256": stats_digest(stats),
            "summary": stats.summary(),
        }

    async def _execute_fp(
        self, spec: RunSpec, fp: str, policy: FaultPolicy
    ) -> Dict[str, Any]:
        stats = self.cache.get(spec, fp)
        if stats is not None:
            self.counters["cache_hits"] += 1
            return self._ok_outcome(
                stats, cached=True, attempts=0, elapsed=0.0
            )
        result = await run_point(
            spec,
            spec.to_dict(),
            fp,
            policy,
            self._slots,
            plan=self.config.fault_plan,
            cache=self.cache,
            registry=self._attempts,
        )
        self.counters["retries"] += result.attempts - 1
        if result.failure is not None:
            return {
                "status": "failed",
                "cached": False,
                "attempts": result.attempts,
                "elapsed_s": result.failure.elapsed_s,
                "failure": result.failure.to_dict(),
            }
        self.counters["executed"] += 1
        return self._ok_outcome(
            result.stats,
            cached=False,
            attempts=result.attempts,
            elapsed=result.elapsed_s,
        )

    async def _finish_point(
        self, job: Job, point: PointState, outcome: Dict[str, Any]
    ) -> None:
        event = {
            "index": point.index,
            "fingerprint": point.fingerprint,
            **outcome,
        }
        job.mark_terminal(point, event)
        self._pending -= 1
        self.counters[f"points_{outcome['status']}"] += 1
        if job.terminal:
            self.store.save(self._job_record(job))
        # publish last: a client that sees the job go terminal must be
        # able to trust the durable record on disk
        await job.publish(event)

    def _job_record(self, job: Job) -> Dict[str, Any]:
        return {
            "job_id": job.job_id,
            "created_unix": round(job.created_unix, 3),
            "status": job.status if job.terminal else "active",
            "policy": job.policy.to_dict(),
            "counts": job.counts(),
            "specs": [spec.to_dict() for spec in job.specs],
        }

    # ------------------------------------------------------------------
    # HTTP plumbing

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conns.add(task)
        try:
            try:
                req = await read_request(reader)
                if req is None:
                    return
                resp = await self._dispatch(req)
            except HttpError as exc:
                resp = Response(exc.status, error_body(exc.status, str(exc)))
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except Exception as exc:  # noqa: BLE001 - daemon must not die
                _log.exception("internal error handling request")
                resp = Response(
                    500, error_body(500, f"{type(exc).__name__}: {exc}")
                )
            try:
                await write_response(writer, resp)
            except ConnectionError:
                pass
        finally:
            self._conns.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, req: Request) -> Response:
        parts = [p for p in req.path.split("/") if p]
        if req.path == "/healthz" and req.method == "GET":
            return json_response({
                "status": "ok",
                "uptime_s": round(
                    time.monotonic() - self._started_monotonic, 3
                ),
            })
        if req.path == "/stats" and req.method == "GET":
            return json_response(self.stats())
        if req.path == "/shutdown" and req.method == "POST":
            doc = req.json()
            if doc is None:
                doc = {}
            elif not isinstance(doc, dict):
                raise HttpError(400, "shutdown body must be a JSON object")
            self._shutdown_drain = bool(doc.get("drain", True))
            self._closing.set()
            return json_response(
                {"shutting_down": True, "drain": self._shutdown_drain},
                status=202,
            )
        if parts and parts[0] == "jobs":
            if len(parts) == 1:
                if req.method == "POST":
                    return await self._handle_submit(req)
                if req.method == "GET":
                    return json_response({
                        "jobs": [
                            job.to_doc() for job in sorted(
                                self.jobs.values(),
                                key=lambda j: j.created_unix,
                            )
                        ]
                    })
                raise HttpError(405, f"{req.method} not allowed on /jobs")
            job = self.jobs.get(parts[1])
            if job is None:
                raise HttpError(404, f"no such job {parts[1]!r}")
            if len(parts) == 2:
                if req.method == "GET":
                    return json_response(job.to_doc())
                if req.method == "DELETE":
                    return self._handle_cancel(job)
                raise HttpError(405, f"{req.method} not allowed on a job")
            if len(parts) == 3 and parts[2] == "results":
                if req.method != "GET":
                    raise HttpError(405, "results is GET-only")
                wait = req.query.get("wait", "") not in ("", "0", "false")
                return ndjson_response(self._results_stream(job, wait))
        raise HttpError(404, f"no route for {req.method} {req.path}")

    # ------------------------------------------------------------------
    # handlers

    async def _handle_submit(self, req: Request) -> Response:
        doc = req.json()
        if not isinstance(doc, dict):
            raise HttpError(400, "submission must be a JSON object")
        raw_specs = doc.get("specs")
        if not isinstance(raw_specs, list) or not raw_specs:
            raise HttpError(400, "submission needs a non-empty 'specs' list")
        specs = [spec_from_doc(d) for d in raw_specs]
        policy_doc = dict(self.config.default_policy.to_dict())
        overlay = doc.get("policy") or {}
        if not isinstance(overlay, dict):
            raise HttpError(400, "'policy' must be an object")
        unknown = set(overlay) - set(policy_doc)
        if unknown:
            raise HttpError(
                400,
                "unknown policy key(s): " + ", ".join(sorted(unknown)),
            )
        policy_doc.update(overlay)
        # the daemon always records per-point failures; a job cannot
        # opt into aborting the whole daemon
        policy_doc["on_failure"] = "skip"
        try:
            policy = FaultPolicy.from_dict(policy_doc)
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"invalid policy: {exc}")
        cap = self.config.max_queue_points
        if self._pending + len(specs) > cap:
            self.counters["rejected"] += 1
            return Response(
                429,
                error_body(
                    429,
                    f"queue full: {self._pending} of {cap} points pending",
                    reason="queue-full",
                    retry_after_s=_RETRY_AFTER_S,
                ),
                headers={"Retry-After": str(_RETRY_AFTER_S)},
            )
        self._jobs_seq += 1
        job_id = f"{self._jobs_seq:04d}-{os.urandom(4).hex()}"
        job = Job(job_id, specs, policy)
        # counted only once the job exists: an error building it must
        # not hold queue capacity no point will ever release
        self._pending += len(specs)
        self.jobs[job_id] = job
        self.store.save(self._job_record(job))
        for point in job.points:
            self._spawn_point(job, point)
        self.counters["jobs_submitted"] += 1
        return json_response(
            {
                "job_id": job_id,
                "points": len(specs),
                "status_url": f"/jobs/{job_id}",
                "results_url": f"/jobs/{job_id}/results",
            },
            status=202,
        )

    def _handle_cancel(self, job: Job) -> Response:
        if not job.terminal:
            job.cancelled = True
            for point in job.points:
                if not point.terminal:
                    task = self._point_tasks.get((job.job_id, point.index))
                    if task is not None:
                        task.cancel()
        return json_response(job.to_doc())

    async def _results_stream(
        self, job: Job, wait: bool
    ) -> AsyncIterator[bytes]:
        sent = 0
        while True:
            while sent < len(job.events):
                yield (
                    json.dumps(job.events[sent], sort_keys=True) + "\n"
                ).encode()
                sent += 1
            # a terminal job may still have its last event in flight
            # (durable state is persisted before the publish) — only a
            # fully published stream is complete
            if (job.terminal and sent == len(job.points)) or not wait:
                return
            async with job.changed:
                if len(job.events) > sent:
                    continue
                await job.changed.wait()

    def stats(self) -> Dict[str, Any]:
        jobs_by_status: Dict[str, int] = {}
        for job in self.jobs.values():
            jobs_by_status[job.status] = jobs_by_status.get(job.status, 0) + 1
        return {
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
            "started_unix": round(self._started_unix, 3),
            # every running attempt holds a worker slot
            "workers": {
                "slots": self.config.workers,
                "busy": len(self._attempts),
            },
            "admission": {
                "max_queue_points": self.config.max_queue_points,
                "total_pending": self._pending,
                "rejected": self.counters["rejected"],
            },
            "jobs": {"total": len(self.jobs), "by_status": jobs_by_status},
            "points": {
                key: self.counters[key]
                for key in (
                    "points_ok", "points_failed", "points_cancelled",
                    "points_resumed", "executed", "cache_hits", "dedup",
                    "retries",
                )
            },
            "cache": self.cache.counters(),
            "counters": dict(self.counters),
        }


def serve(config: ServeConfig) -> int:
    """Blocking entry point: run the daemon until signalled to stop."""
    server = ExperimentServer(config)

    async def _main() -> None:
        await server.run()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C race
        pass
    print("serve: stopped cleanly", file=sys.stderr)
    return 0
