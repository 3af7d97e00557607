"""Sweep-as-a-service: the experiment job-queue daemon.

``python -m repro serve`` runs :class:`ExperimentServer` — an asyncio
HTTP daemon (stdlib only) in front of the sweep machinery: submit a
grid, poll or stream per-point results, cancel, observe.  Concurrent
clients dedupe work through the shared content-addressed
:class:`~repro.sweep.cache.ResultCache`; one queue cap with ``429``
backpressure and a fixed number of worker slots keep the daemon
healthy under load; durable job records plus the result cache make a
daemon restart a resume, not a loss.

``python -m repro serve-bench`` is the load/chaos harness
(``BENCH_SERVE.json``).
"""

from .client import Backpressure, ServeClient, ServeError
from .daemon import ExperimentServer, ServeConfig, spec_from_doc
from .models import Job, PointState
from .store import JobStore

__all__ = [
    "Backpressure",
    "ExperimentServer",
    "Job",
    "JobStore",
    "PointState",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "spec_from_doc",
]
