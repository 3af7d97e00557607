"""Parallel experiment sweeps with content-keyed result caching.

The experiment grids of this reproduction — (protocol × workload ×
seed × placement × chip config) — are embarrassingly parallel and
fully deterministic, so this package treats a simulation run as a pure
function of its :class:`RunSpec`:

* :class:`RunSpec` (``spec.py``) — a complete, serializable run
  description;
* :class:`SweepRunner` (``runner.py``) — runs specs through
  ``executor.py`` in up to ``jobs`` worker processes, with
  bit-identical results regardless of job count;
* ``executor.py`` — the one executor of sweep points, shared with
  ``repro serve``: worker processes that run attempt after attempt
  until one fails, deadline kills, seeded-backoff retries, fault
  injection;
* :class:`ResultCache` (``cache.py``) — on-disk JSON store keyed by a
  stable hash of the spec plus the simulator's source fingerprint;
* ``grids.py`` — the canonical figure-reproduction grid shared by the
  CLI (``python -m repro sweep``) and the ``benchmarks/`` suite.

The result cache is also the sweep's checkpoint: each point is
stored as it completes, so re-running a sweep after a crash, Ctrl-C or
injected faults re-executes only the points the cache does not hold.

Resilience (timeouts, retries, deterministic fault injection) comes
from :mod:`repro.faults`; the relevant names are re-exported here.
"""

from ..faults import FailureRecord, FaultPlan, FaultPolicy, failure_summary
from .cache import ResultCache, code_fingerprint
from .grids import (
    LAB_PROTOCOL_ORDER,
    PROTOCOL_ORDER,
    WINDOWS,
    WORKLOAD_ORDER,
    figure_grid,
    merge_by_point,
    window_for,
)
from .runner import (
    SweepExecutionError,
    SweepInterrupted,
    SweepResult,
    SweepRunner,
)
from .spec import (
    RunSpec,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    placement_spec,
    snapshot_workload,
)

__all__ = [
    "FailureRecord",
    "FaultPlan",
    "FaultPolicy",
    "LAB_PROTOCOL_ORDER",
    "PROTOCOL_ORDER",
    "ResultCache",
    "RunSpec",
    "SweepExecutionError",
    "SweepInterrupted",
    "SweepResult",
    "SweepRunner",
    "WINDOWS",
    "WORKLOAD_ORDER",
    "apply_overrides",
    "code_fingerprint",
    "config_from_dict",
    "config_to_dict",
    "failure_summary",
    "figure_grid",
    "merge_by_point",
    "placement_spec",
    "snapshot_workload",
    "window_for",
]
