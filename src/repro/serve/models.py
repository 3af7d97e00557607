"""Job and point bookkeeping for the experiment daemon.

A :class:`Job` is one admitted grid submission: a list of
:class:`~repro.sweep.spec.RunSpec` points and a
:class:`~repro.faults.FaultPolicy` governing retries/timeouts.  Each
point moves ``pending -> running -> ok | failed | cancelled``; a
terminal point appends one *event document* (the NDJSON line clients
stream) to :attr:`Job.events` in completion order, carrying the
point's index so clients can reassemble grid order.

Everything here is in-memory state; durability lives in
:class:`~repro.serve.store.JobStore` (the job record) and
:class:`~repro.sweep.cache.ResultCache` (each completed point's
stats), so a daemon restart can rebuild the live picture.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Sequence

from ..faults import FaultPolicy
from ..sweep.spec import RunSpec

__all__ = ["Job", "PointState", "POINT_STATES"]

POINT_STATES = ("pending", "running", "ok", "failed", "cancelled")


class PointState:
    """One grid point of a job."""

    __slots__ = ("index", "spec", "fingerprint", "status", "event")

    def __init__(self, index: int, spec: RunSpec, fingerprint: str) -> None:
        self.index = index
        self.spec = spec
        self.fingerprint = fingerprint
        self.status = "pending"
        #: terminal event document (None until the point finishes)
        self.event: Optional[Dict[str, Any]] = None

    @property
    def terminal(self) -> bool:
        return self.status in ("ok", "failed", "cancelled")


class Job:
    """Live state of one admitted grid submission."""

    def __init__(
        self,
        job_id: str,
        specs: Sequence[RunSpec],
        policy: FaultPolicy,
        created_unix: Optional[float] = None,
    ) -> None:
        self.job_id = job_id
        self.policy = policy
        self.created_unix = (
            time.time() if created_unix is None else created_unix
        )
        self.points = [
            PointState(i, spec, spec.fingerprint())
            for i, spec in enumerate(specs)
        ]
        self.cancelled = False
        #: terminal point events in completion order (NDJSON stream)
        self.events: List[Dict[str, Any]] = []
        #: notified on every terminal point, so streams wake up
        self.changed = asyncio.Condition()

    # ------------------------------------------------------------------

    @property
    def specs(self) -> List[RunSpec]:
        return [p.spec for p in self.points]

    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in POINT_STATES}
        for point in self.points:
            out[point.status] += 1
        return out

    @property
    def terminal(self) -> bool:
        return all(p.terminal for p in self.points)

    @property
    def status(self) -> str:
        counts = self.counts()
        if not self.terminal:
            if self.cancelled:
                return "cancelled"  # winding down
            return "running" if (counts["running"] or self.events) else "queued"
        if counts["cancelled"]:
            return "cancelled"
        return "partial" if counts["failed"] else "done"

    # ------------------------------------------------------------------

    def to_doc(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "created_unix": round(self.created_unix, 3),
            "status": self.status,
            "points": len(self.points),
            "counts": self.counts(),
        }

    def mark_terminal(self, point: PointState, event: Dict[str, Any]) -> None:
        """Set ``point`` terminal with ``event``, without publishing it.

        Lets the daemon persist durable state (the job record)
        between the state change and the stream notification, so a
        client that observes the final event can trust what's on disk.
        """
        point.event = event
        point.status = event["status"]

    async def publish(self, event: Dict[str, Any]) -> None:
        """Append ``event`` to the stream and wake streamers."""
        self.events.append(event)
        async with self.changed:
            self.changed.notify_all()
