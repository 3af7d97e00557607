"""Deterministic fault injection and failure policy for sweep fleets.

Two halves:

* :mod:`repro.faults.plan` — *what goes wrong*: a seeded
  :class:`FaultPlan` that injects worker crashes, hangs, corrupt
  results and corrupt cache entries, keyed by spec fingerprint so
  chaos runs are exactly reproducible (``--fault-plan`` arms one in
  ``repro sweep`` and ``repro serve``);
* :mod:`repro.faults.policy` — *what we do about it*: the sweep
  runner's :class:`FaultPolicy` (per-spec timeout, seeded-backoff
  retries, raise-or-skip) and the :class:`FailureRecord` carried by
  failed grid points.
"""

from .plan import FAULT_KINDS, FaultPlan, FaultRule, InjectedFault
from .policy import FailureRecord, FaultPolicy, failure_summary

__all__ = [
    "FAULT_KINDS",
    "FailureRecord",
    "FaultPlan",
    "FaultPolicy",
    "FaultRule",
    "InjectedFault",
    "failure_summary",
]
